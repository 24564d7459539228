//! Shared experiment setup: the one [`Testbed`] every cell is built on, the
//! protocol axis ([`Regime`]), program batches, and the one [`sweep`] that
//! turns sweep [`Point`]s into measured [`Cell`]s.

use amc_core::{Federation, FederationConfig, ProtocolKind, RunMetrics};
use amc_engine::TplConfig;
use amc_mlt::ConflictPolicy;
use amc_obs::ObsSink;
use amc_rpc::{Fleet, RetryPolicy};
use amc_types::{Operation, SiteId};
use amc_wal::GroupCommitConfig;
use amc_workload::{initial_counters, GlobalProgram, MixGen, MixKind, MixSpec};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

pub use amc_rpc::Wire;

/// A program batch in the form `run_concurrent` consumes.
pub type ProgramBatch = Vec<(BTreeMap<SiteId, Vec<Operation>>, bool)>;

/// A lane's engine tuning: [`tuned_config`] or `wire_config`.
pub type BaseConfig = fn(u32, ProtocolKind, ConflictPolicy) -> FederationConfig;

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
        // fsync is not free either); committers arriving during one force
        // share the next — the group-commit amortization E9 measures.
        group_commit: GroupCommitConfig {
            force_latency: Duration::from_micros(500),
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
pub(crate) fn wire_config(
    sites: u32,
    protocol: ProtocolKind,
    policy: ConflictPolicy,
) -> FederationConfig {
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
    /// The three protocols without options, in `ProtocolKind::ALL` order.
    pub(crate) const PROTOCOLS: [Regime; 3] = [
        Regime::Classic2pc,
        Regime::CommitAfter,
        Regime::CommitBefore,
    ];

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

    /// This regime over `base` ([`tuned_config`] or `wire_config`).
    pub fn config(self, sites: u32, base: BaseConfig) -> FederationConfig {
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
        let (policy, obs) = (RetryPolicy::default(), ObsSink::disabled());
        let fleet = Fleet::spawn(&cfg, wire, policy, obs).expect("bind loopback");
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

/// A federation for `protocol` with `policy` on the in-process wire over
/// untuned engines, every site loaded with the spec's initial data, the
/// oracle recording on (E6).
pub(crate) fn build_recording_federation(
    protocol: ProtocolKind,
    policy: ConflictPolicy,
    spec: &MixSpec,
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

/// One sweep point: the system to build and the load to offer it.
#[derive(Debug, Clone)]
pub struct Point {
    /// The sweep coordinate as the table prints it.
    pub axis: String,
    /// The sweep coordinate as a number, for the verdicts.
    pub x: f64,
    /// Sites in the federation.
    pub sites: u32,
    /// Initial counters per site.
    pub objects: u64,
    /// The seed `programs` was drawn from (fault-injecting lanes derive
    /// theirs from it).
    pub seed: u64,
    /// The program stream, identical for every cell of this point.
    pub programs: ProgramBatch,
    /// Closed-loop clients.
    pub clients: usize,
}

impl Point {
    /// `txns` programs of mix `kind` over `spec`, drawn from `seed`, at coordinate `x`.
    pub(crate) fn of_mix(
        x: f64,
        kind: MixKind,
        spec: &MixSpec,
        seed: u64,
        txns: usize,
        clients: usize,
    ) -> Point {
        Point {
            axis: x.to_string(),
            x,
            sites: spec.sites,
            objects: spec.objects_per_site,
            seed,
            programs: batch(MixGen::new(kind, spec.clone(), seed).programs(txns)),
            clients,
        }
    }

    /// The same point under the label its table prints.
    pub(crate) fn labelled(self, axis: String) -> Point {
        Point { axis, ..self }
    }
}

/// One measured cell: where it sits in its lane's sweep and what the run
/// measured. A table row is `m` printed through the lane's
/// [`Col`](crate::table::Col)s; a verdict reads `m` directly.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The sweep coordinate as the table prints it.
    pub axis: String,
    /// The sweep coordinate as a number.
    pub x: f64,
    /// Protocol regime under test.
    pub regime: Regime,
    /// Deployment under test.
    pub wire: Wire,
    /// Programs offered.
    pub offered: usize,
    /// What the closed-loop driver and the sites counted.
    pub m: RunMetrics,
    /// The lane's oracle over the final state; `true` where none applies.
    pub oracle_ok: bool,
}

impl Cell {
    /// The two leading fact columns of most tables: the axis label and
    /// the regime's.
    pub fn labels(&self) -> Vec<String> {
        vec![self.axis.clone(), self.regime.label().to_string()]
    }

    /// A cell measured off something other than a [`Testbed`] — E12's
    /// Paxos federation, E14's shard router: 2PC, sites in process.
    pub fn of(axis: String, x: f64, offered: usize, m: RunMetrics) -> Cell {
        Cell {
            axis,
            x,
            regime: Regime::Classic2pc,
            wire: Wire::InProcess,
            offered,
            m,
            oracle_ok: true,
        }
    }
}

/// Offer `point`'s programs to `bed` from its closed-loop clients; no
/// oracle. The plain `run` of a [`sweep`], and the middle of every other.
pub fn offer(bed: &Testbed, point: &Point) -> (RunMetrics, bool) {
    (
        bed.run_concurrent(point.programs.clone(), point.clients),
        true,
    )
}

/// Measure every cell of `wires` × `points` × `regimes`, in that nesting:
/// build the [`Testbed`] the cell names over `base`, hand it to `run`
/// ([`offer`], or a lane's wrapper around it that injects a fault before
/// or replays an oracle after), keep what came back.
pub fn sweep(
    base: BaseConfig,
    wires: &[Wire],
    points: &[Point],
    regimes: &[Regime],
    run: impl Fn(&Testbed, &Point) -> (RunMetrics, bool),
) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &wire in wires {
        for point in points {
            for &regime in regimes {
                let bed = Testbed::build(regime.config(point.sites, base), wire, point.objects);
                let (m, oracle_ok) = run(&bed, point);
                cells.push(Cell {
                    axis: point.axis.clone(),
                    x: point.x,
                    regime,
                    wire,
                    offered: point.programs.len(),
                    m,
                    oracle_ok,
                });
            }
        }
    }
    cells
}

/// The `(transactions, client threads)` most lanes run at: `report quick`
/// or the full report.
pub(crate) fn sizes(quick: bool) -> (usize, usize) {
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
    fn sweep_measures_every_cell_in_wire_point_regime_order() {
        let spec = MixSpec {
            sites: 2,
            objects_per_site: 50,
            ..MixSpec::default()
        };
        let point = Point::of_mix(1.0, MixKind::Zipf, &spec, 1, 10, 2);
        assert_eq!(point.programs.len(), 10);
        let regimes = [Regime::CommitAfter, Regime::CommitBefore];
        let cells = sweep(tuned_config, &Wire::ALL, &[point], &regimes, offer);
        let order: Vec<_> = cells.iter().map(|c| (c.wire, c.regime)).collect();
        let expected: Vec<_> = Wire::ALL
            .iter()
            .flat_map(|&w| regimes.map(|r| (w, r)))
            .collect();
        assert_eq!(order, expected);
        assert!(cells.iter().all(|c| c.m.committed > 0 && c.oracle_ok));
    }
}
