//! Shared experiment setup: the one [`Testbed`] every cell is built on, the
//! protocol axis ([`Regime`]) and program batches.

use amc_core::{submit_mode_for, Federation, FederationConfig, ProtocolKind};
use amc_engine::TplConfig;
use amc_mlt::ConflictPolicy;
use amc_rpc::Fleet;
use amc_types::{Operation, SiteId};
use amc_wal::GroupCommitConfig;
use amc_workload::{
    initial_counters, GlobalProgram, MixGen, MixKind, MixSpec, WorkloadGen, WorkloadSpec,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

pub use amc_rpc::Wire;

/// The two wires every in-process-vs-TCP lane compares (E10, E13, E15):
/// function calls, and thread-per-connection servers under the pooled
/// client over loopback.
pub const WIRES: [Wire; 2] = [Wire::InProcess, Wire::ThreadedPooled];

/// A program batch in the form `run_concurrent` consumes.
pub type ProgramBatch = Vec<(BTreeMap<SiteId, Vec<Operation>>, bool)>;

/// The benchmark tuning every throughput experiment shares: short lock
/// timeouts so contention resolves quickly, modelled 1991-scale service
/// and message costs so protocol lock tenure matters. Factored out so
/// E15 can apply identical tuning to `MixSpec`-driven federations.
pub fn tuned_config(
    sites: u32,
    protocol: ProtocolKind,
    policy: ConflictPolicy,
) -> FederationConfig {
    let mut cfg = FederationConfig::uniform(sites, protocol);
    cfg.policy = policy;
    cfg.tpl = TplConfig {
        buckets: 128,
        pool_frames: 256,
        // Short: timed-out waiters retry or give up quickly, so the rare
        // cross-site lock cycle between a mandatory redo and a pre-vote
        // submit resolves in milliseconds.
        lock_timeout: Duration::from_millis(100),
        deadlock_check: Duration::from_millis(1),
        // Local work is not free in 1991: ~50 µs per operation, so a
        // repeated execution (redo) has a visible cost.
        op_service_time: Duration::from_micros(50),
        // Commit-record forces cost a modelled ~0.5 ms of "disk" (a 1991
        // fsync is not free either), and leaders linger briefly so
        // concurrent committers share one force — the group-commit
        // amortization E9 measures.
        group_commit: GroupCommitConfig {
            force_latency: Duration::from_micros(500),
            max_wait: Duration::from_micros(200),
            ..GroupCommitConfig::default()
        },
    };
    cfg.l1_timeout = Duration::from_millis(500);
    // One coordinator<->site exchange costs ~0.15 ms *per leg* (the delay
    // applies to the request and the reply symmetrically, so a round trip
    // is ~0.3 ms) — the 1991-scale ratio of communication to local work
    // that makes lock tenure matter.
    cfg.message_delay = Duration::from_micros(150);
    cfg
}

/// The configuration of the wire experiments (E10, E13, E15's wire lane):
/// engines with **no** modelled delays — real syscall and scheduling cost
/// is the thing measured, so nothing synthetic is added on any wire — and
/// the short timeouts of [`tuned_config`].
pub fn wire_config(sites: u32, protocol: ProtocolKind, policy: ConflictPolicy) -> FederationConfig {
    let mut cfg = FederationConfig::uniform(sites, protocol);
    cfg.policy = policy;
    cfg.tpl.lock_timeout = Duration::from_millis(100);
    cfg.tpl.deadlock_check = Duration::from_millis(1);
    cfg.l1_timeout = Duration::from_millis(500);
    cfg
}

/// One column of every protocol comparison: a commit protocol plus the
/// options that change its message pattern or its L1 conflict policy.
/// `CommitBeforeRw` is the MLT-off ablation — same undo protocol,
/// read/write locks instead of semantic modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// Classic 2PC — explicit work, prepare and decision rounds.
    Classic2pc,
    /// 2PC with the fast path: vote piggyback + single-site bypass.
    FastPath,
    /// Commit-after (redo recovery), §3.2.
    CommitAfter,
    /// Commit-before (undo recovery) with semantic L1 locks, §3.3 + §4.
    CommitBefore,
    /// Commit-before with read/write L1 locks — MLT commutativity off.
    CommitBeforeRw,
}

impl Regime {
    /// Every regime, in table order. The first four are the commit
    /// *layers* E13 compares (no L1 ablation).
    pub const ALL: [Regime; 5] = [
        Regime::Classic2pc,
        Regime::FastPath,
        Regime::CommitAfter,
        Regime::CommitBefore,
        Regime::CommitBeforeRw,
    ];

    /// Short label for the tables and OPERATORS.md.
    pub fn label(self) -> &'static str {
        match self {
            Regime::Classic2pc => "2pc",
            Regime::FastPath => "2pc+fast-path",
            Regime::CommitAfter => "commit-after",
            Regime::CommitBefore => "commit-before",
            Regime::CommitBeforeRw => "commit-before/rw",
        }
    }

    fn protocol(self) -> ProtocolKind {
        match self {
            Regime::Classic2pc | Regime::FastPath => ProtocolKind::TwoPhaseCommit,
            Regime::CommitAfter => ProtocolKind::CommitAfter,
            Regime::CommitBefore | Regime::CommitBeforeRw => ProtocolKind::CommitBefore,
        }
    }

    fn policy(self) -> ConflictPolicy {
        match self {
            Regime::CommitBeforeRw => ConflictPolicy::ReadWriteOnly,
            _ => ConflictPolicy::Semantic,
        }
    }

    /// This regime over `base` ([`tuned_config`] or [`wire_config`]).
    pub fn config(
        self,
        sites: u32,
        base: fn(u32, ProtocolKind, ConflictPolicy) -> FederationConfig,
    ) -> FederationConfig {
        let cfg = base(sites, self.protocol(), self.policy());
        if self == Regime::FastPath {
            cfg.with_fast_path()
        } else {
            cfg
        }
    }
}

/// The Fig. 1 system every cell runs on: `cfg`'s engines behind their
/// communication managers, deployed over `wire`, a central system on top,
/// every site loaded. Two cells built here differ only in what their
/// `cfg` and `wire` say. Dereferences to the federation; dropping it
/// drops the federation first, then stops the fleet's servers.
pub struct Testbed {
    fed: Arc<Federation>,
    fleet: Fleet,
}

impl Testbed {
    /// Build it, with `objects` initial counters on every site.
    pub fn build(cfg: FederationConfig, wire: Wire, objects: u64) -> Testbed {
        let mode = submit_mode_for(cfg.protocol);
        let fleet = Fleet::spawn(cfg.build_managers(), mode, wire, cfg.message_delay)
            .expect("bind loopback");
        let fed = Federation::with_transport(cfg, fleet.transport());
        load(&fed, objects);
        Testbed {
            fed: Arc::new(fed),
            fleet,
        }
    }

    /// The deployment under the federation: its managers (fault
    /// injection) and its connection count.
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }
}

impl std::ops::Deref for Testbed {
    type Target = Arc<Federation>;

    fn deref(&self) -> &Arc<Federation> {
        &self.fed
    }
}

/// Load `objects` initial counters into every site of `fed`.
pub fn load(fed: &Federation, objects: u64) {
    for site in fed.transport().sites() {
        fed.load_site(site, &initial_counters(site, objects))
            .expect("load");
    }
}

/// A federation for `protocol` with `policy` on the in-process wire,
/// engines tuned for benchmarking ([`tuned_config`]), every site loaded
/// with the spec's initial data.
pub fn build_federation(
    protocol: ProtocolKind,
    policy: ConflictPolicy,
    spec: &WorkloadSpec,
) -> Testbed {
    let cfg = tuned_config(spec.sites, protocol, policy);
    Testbed::build(cfg, Wire::InProcess, spec.objects_per_site)
}

/// Same over untuned engines, with the oracle recording on (E6).
pub fn build_recording_federation(
    protocol: ProtocolKind,
    policy: ConflictPolicy,
    spec: &WorkloadSpec,
) -> Testbed {
    let mut cfg = FederationConfig::uniform(spec.sites, protocol);
    cfg.policy = policy;
    cfg.l1_timeout = Duration::from_millis(500);
    cfg.tpl.lock_timeout = Duration::from_millis(500);
    let mut bed = Testbed::build(cfg, Wire::InProcess, spec.objects_per_site);
    Arc::get_mut(&mut bed.fed)
        .expect("a fresh testbed's federation is unshared")
        .set_recording(true, true);
    bed
}

/// A generated program stream in the form `run_concurrent` consumes.
pub fn batch(programs: Vec<GlobalProgram>) -> ProgramBatch {
    programs
        .into_iter()
        .map(|p| (p.per_site, p.intends_abort))
        .collect()
}

/// Generate `n` programs as a batch.
pub fn program_batch(spec: &WorkloadSpec, seed: u64, n: usize) -> ProgramBatch {
    batch(WorkloadGen::new(spec.clone(), seed).programs(n))
}

/// Generate `n` programs of a contention-aware mix as a batch (E15).
pub fn mix_batch(kind: MixKind, spec: &MixSpec, seed: u64, n: usize) -> ProgramBatch {
    batch(MixGen::new(kind, spec.clone(), seed).programs(n))
}

/// The `(transactions, client threads)` most lanes run at: `report quick`
/// or the full report.
pub fn sizes(quick: bool) -> (usize, usize) {
    if quick {
        (60, 4)
    } else {
        (240, 6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_run_smoke() {
        let spec = WorkloadSpec {
            sites: 2,
            objects_per_site: 50,
            ops_per_txn: 4,
            ..WorkloadSpec::default()
        };
        let fed = build_federation(ProtocolKind::CommitBefore, ConflictPolicy::Semantic, &spec);
        let batch = program_batch(&spec, 1, 10);
        assert_eq!(batch.len(), 10);
        let metrics = fed.run_concurrent(batch, 2);
        assert!(metrics.committed > 0);
    }
}
