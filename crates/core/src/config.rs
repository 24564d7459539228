//! Federation configuration.

use crate::site::{Site, SiteLog, SiteSpec};
use amc_engine::TplConfig;
use amc_mlt::ConflictPolicy;
use amc_types::{GlobalTxnId, Operation, ProtocolKind, SiteId};
use std::collections::BTreeMap;
use std::time::Duration;

/// Size of the global-transaction-id range owned by one coordinator of a
/// sharded federation. Coordinator slot `k` allocates ids from
/// `k * COORD_GTX_SPAN + 1` upward, so N independent coordinators can
/// allocate concurrently without coordination and never collide — and any
/// gtx seen in a log or trace names its coordinator via [`coord_slot_of`].
/// 2^40 ids per slot leaves room for 2^21 slots below the reserved marker
/// region (`MARKER_BIT = 1<<63`).
pub(crate) const COORD_GTX_SPAN: u64 = 1 << 40;

/// Which coordinator slot allocated `gtx` (slot 0 for unsharded runs,
/// whose ids start at 1).
pub fn coord_slot_of(gtx: GlobalTxnId) -> u32 {
    (gtx.raw() / COORD_GTX_SPAN) as u32
}

/// Which of `coordinators` slots owns a transaction, from the objects it
/// touches: SplitMix64 of the minimum object id, modulo the coordinator
/// count — "lowest key wins", so a cross-shard transaction still has
/// exactly one owner and every router, in process or across the wire,
/// computes it with no coordination. A program touching no object falls to
/// slot 0.
pub fn owner_slot_of(per_site: &BTreeMap<SiteId, Vec<Operation>>, coordinators: u32) -> u32 {
    let Some(min_obj) = per_site
        .values()
        .flatten()
        .map(|op| op.object().raw())
        .min()
    else {
        return 0;
    };
    let x = amc_types::splitmix64(min_obj.wrapping_add(0x9E37_79B9_7F4A_7C15));
    (x % u64::from(coordinators)) as u32
}

/// Identity of one coordinator in a sharded (multi-coordinator)
/// federation: which of the `coordinators` id-range slots it owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoordIdentity {
    /// This coordinator's slot, `0..coordinators`.
    pub slot: u32,
    /// Total number of coordinators in the topology.
    pub coordinators: u32,
}

/// Paxos Commit (Gray & Lamport) for the central system: the commit
/// decision is replicated across `2f+1` acceptors co-located with site
/// servers, so the death of the incumbent coordinator never leaves a
/// prepared site blocked — any standby replica finishes in-doubt
/// transactions from the acceptor logs.
///
/// Only meaningful under [`ProtocolKind::TwoPhaseCommit`]: Paxos Commit
/// replicates the prepare/decision structure of 2PC (it is 2PC's
/// non-blocking generalisation); the portable protocols have no prepared
/// state to make durable. Each acceptor writes its rows through its site
/// engine's log and group committer, in process and deployed alike, so a
/// site crash takes its acceptor down and a restart replays both.
#[derive(Debug, Clone)]
pub struct PaxosCommitConfig {
    /// Acceptor-hosting sites — `2f+1` of them to tolerate `f` failures.
    /// Every entry must be an existing site of the federation. The
    /// federation speaks as replica 0, the incumbent: recovery ballots are
    /// `(round ≥ 1, replica)`, ballot 0 its fast path.
    pub acceptors: Vec<SiteId>,
}

/// Which engine flavour a site runs — the federation's heterogeneity axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Strict-2PL engine (preparable — can serve the 2PC baseline).
    TwoPL,
    /// Optimistic engine (not preparable: 2PC cannot run on it).
    Occ,
}

/// Configuration for a federation instance.
#[derive(Debug, Clone)]
pub struct FederationConfig {
    /// Commit protocol.
    pub protocol: ProtocolKind,
    /// L1 conflict policy (semantic, or read/write-only as E15's
    /// `commit-before/rw`: E15-3, C4-3). 2PC has no L1 layer to apply it.
    pub policy: ConflictPolicy,
    /// One engine per local site; site ids are `1..=engines.len()`.
    pub engines: Vec<EngineKind>,
    /// Local 2PL engine tuning.
    pub tpl: TplConfig,
    /// How long a global transaction may wait for one L1 lock.
    pub l1_timeout: Duration,
    /// Modelled cost of each leg of a coordinator↔site exchange in the
    /// threaded driver; a round's exchanges overlap, so a round costs two
    /// legs. Zero disables the model. The concurrency experiments set a
    /// 1991-scale value, where a round trip dwarfed local work.
    pub message_delay: Duration,
    /// Replicated, non-blocking coordination (Paxos Commit). `None` runs
    /// the classical single coordinator of Fig. 2.
    pub paxos: Option<PaxosCommitConfig>,
    /// 1PC fast path: piggyback the PREPARE on the op dispatch (the work
    /// reply doubles as the vote, cutting the explicit prepare round) and
    /// commit single-site transactions with no global round at all.
    ///
    /// 2PC only — the portable protocols' votes already ride their submit
    /// replies — and mutually exclusive with Paxos Commit, whose
    /// replicated decision hangs ballot-0 accepts off the explicit
    /// prepare round. Default off; when off every runtime behaves
    /// exactly as before.
    pub fast_path: bool,
    /// This instance's identity in a sharded multi-coordinator topology.
    /// `None` (the default) is the classical single central system; its
    /// transaction ids start at 1, identical to slot 0 of a sharded run.
    pub coordinator: Option<CoordIdentity>,
}

impl FederationConfig {
    /// `n` homogeneous 2PL sites under `protocol` with semantic conflicts.
    pub fn uniform(n: u32, protocol: ProtocolKind) -> Self {
        FederationConfig {
            protocol,
            policy: ConflictPolicy::Semantic,
            engines: vec![EngineKind::TwoPL; n as usize],
            tpl: TplConfig::default(),
            l1_timeout: Duration::from_secs(2),
            message_delay: Duration::ZERO,
            paxos: None,
            fast_path: false,
            coordinator: None,
        }
    }

    /// Run this federation instance as coordinator `slot` of a
    /// `coordinators`-wide sharded topology: its global transaction ids
    /// are allocated from the slot's disjoint `COORD_GTX_SPAN` range, so
    /// concurrent coordinators driving the same site fleet never collide.
    pub fn sharded(mut self, slot: u32, coordinators: u32) -> Self {
        assert!(slot < coordinators, "slot must be < coordinators");
        assert!(
            u64::from(coordinators) <= (1 << 21),
            "id-range slots above 2^21 collide with the marker region"
        );
        self.coordinator = Some(CoordIdentity { slot, coordinators });
        self
    }

    /// Enable the 1PC fast path (vote piggyback + single-site bypass).
    /// Requires the 2PC protocol and no Paxos Commit configuration.
    pub fn with_fast_path(mut self) -> Self {
        assert_eq!(
            self.protocol,
            ProtocolKind::TwoPhaseCommit,
            "the 1PC fast path piggybacks 2PC's prepare; the portable \
             protocols' votes already ride their submit replies"
        );
        assert!(
            self.paxos.is_none(),
            "Paxos Commit needs the explicit prepare round for its \
             ballot-0 accepts"
        );
        self.fast_path = true;
        self
    }

    /// Enable Paxos Commit with acceptors at the first `2f+1` sites
    /// (requires the 2PC protocol and at least `acceptors` sites).
    pub fn with_paxos_commit(mut self, acceptors: u32) -> Self {
        assert_eq!(
            self.protocol,
            ProtocolKind::TwoPhaseCommit,
            "Paxos Commit replicates the 2PC prepare/decision structure; the \
             portable protocols have no prepared state to make durable"
        );
        assert!(
            acceptors <= self.site_count(),
            "acceptors are co-located with sites"
        );
        let acceptors = (1..=acceptors).map(SiteId::new).collect();
        self.paxos = Some(PaxosCommitConfig { acceptors });
        self
    }

    /// A heterogeneous federation: alternating 2PL and OCC sites.
    pub fn heterogeneous(n: u32, protocol: ProtocolKind) -> Self {
        let engines = (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    EngineKind::TwoPL
                } else {
                    EngineKind::Occ
                }
            })
            .collect();
        FederationConfig {
            engines,
            ..Self::uniform(n, protocol)
        }
    }

    /// Number of local sites.
    pub(crate) fn site_count(&self) -> u32 {
        self.engines.len() as u32
    }

    /// Whether this configuration can run at all: 2PC needs every engine to
    /// be preparable (the paper's infeasibility argument, §3.1).
    pub(crate) fn is_runnable(&self) -> bool {
        self.protocol != ProtocolKind::TwoPhaseCommit
            || self.engines.iter().all(|e| *e == EngineKind::TwoPL)
    }

    /// Every site of this federation, fresh and in memory: ids
    /// `1..=engines.len()`.
    pub fn open_sites(&self) -> Vec<Site> {
        (1..)
            .map(SiteId::new)
            .zip(&self.engines)
            .map(|(id, engine)| self.open_site(id, *engine))
            .collect()
    }

    /// One fresh in-memory site of this federation running `engine` — the
    /// only place a federation's sites are opened, so a site that joins
    /// later (`amc-shard`'s online `Add`) is tuned like the rest. A site
    /// [`FederationConfig::paxos`] lists hosts an acceptor on its log.
    pub fn open_site(&self, id: SiteId, engine: EngineKind) -> Site {
        let acceptor = self.paxos.as_ref();
        let spec = SiteSpec {
            id,
            engine,
            protocol: self.protocol,
            log: SiteLog::Memory,
            acceptor: acceptor.is_some_and(|px| px.acceptors.contains(&id)),
            tpl: self.tpl.clone(),
        };
        let (site, _) = Site::open(spec).expect("an in-memory site opens");
        site
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amc_net::EngineHandle;

    #[test]
    fn uniform_builds_n_sites() {
        let cfg = FederationConfig::uniform(3, ProtocolKind::CommitBefore);
        assert_eq!(cfg.site_count(), 3);
        assert!(cfg.is_runnable());
        let sites = cfg.open_sites();
        assert_eq!(sites.len(), 3);
        assert_eq!(sites[0].manager().site(), SiteId::new(1));
        assert_eq!(sites[2].manager().site(), SiteId::new(3));
    }

    #[test]
    fn two_pc_on_heterogeneous_federation_is_not_runnable() {
        // The paper's core observation: an OCC engine has no ready state,
        // so classical 2PC cannot be deployed.
        let cfg = FederationConfig::heterogeneous(2, ProtocolKind::TwoPhaseCommit);
        assert!(!cfg.is_runnable());
        for p in [ProtocolKind::CommitAfter, ProtocolKind::CommitBefore] {
            assert!(FederationConfig::heterogeneous(2, p).is_runnable());
        }
    }

    #[test]
    fn coord_slots_partition_the_gtx_space() {
        assert_eq!(coord_slot_of(GlobalTxnId::new(1)), 0);
        assert_eq!(coord_slot_of(GlobalTxnId::new(COORD_GTX_SPAN - 1)), 0);
        assert_eq!(coord_slot_of(GlobalTxnId::new(COORD_GTX_SPAN + 1)), 1);
        assert_eq!(coord_slot_of(GlobalTxnId::new(3 * COORD_GTX_SPAN + 7)), 3);
    }

    #[test]
    fn ownership_is_splitmix64_of_the_minimum_key() {
        let program = |objs: &[u64]| -> BTreeMap<SiteId, Vec<Operation>> {
            let ops = objs.iter().map(|&o| Operation::Read {
                obj: amc_types::ObjectId::new(o),
            });
            BTreeMap::from([(SiteId::new(1), ops.collect())])
        };
        // Pinned: routers of different builds must agree on every owner.
        assert_eq!(owner_slot_of(&program(&[0]), 1000), 535);
        assert_eq!(owner_slot_of(&program(&[(1 << 32) + 7, 1 << 33]), 5), 3);
        assert_eq!(owner_slot_of(&program(&[]), 5), 0);
        assert_eq!(owner_slot_of(&program(&[42]), 1), 0);
    }

    #[test]
    #[should_panic(expected = "slot must be < coordinators")]
    fn sharded_rejects_out_of_range_slot() {
        let _ = FederationConfig::uniform(2, ProtocolKind::CommitBefore).sharded(4, 4);
    }

    #[test]
    fn portable_protocols_get_sealed_engines() {
        let cfg = FederationConfig::uniform(1, ProtocolKind::CommitBefore);
        let sealed = |cfg: FederationConfig| {
            let sites = cfg.open_sites();
            matches!(sites[0].manager().handle(), EngineHandle::Plain(_))
        };
        assert!(sealed(cfg));
        assert!(!sealed(FederationConfig::uniform(
            1,
            ProtocolKind::TwoPhaseCommit
        )));
    }
}
