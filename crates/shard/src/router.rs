//! The shard router: N independent coordinators, one site fleet, online
//! reconfiguration.
//!
//! Scale-out shape: every coordinator is a full [`Federation`] instance —
//! its own commit state machines, its own disjoint transaction-id range
//! (`amc_core::COORD_GTX_SPAN`) — and all of them drive the **same**
//! site fleet through one shared [`InProcessTransport`]. The router in front
//! routes each transaction to its owning coordinator by the shard map's
//! deterministic key rule ([`ShardMap::owner_of`]), so the single-central-
//! system bottleneck of Fig. 1 becomes N parallel central systems with no
//! shared commit path.
//!
//! Isolation note: the router requires the **2PC protocol**. 2PC's global
//! isolation lives entirely in the sites' L0 page locks (held to the
//! global end), which are shared by construction — every coordinator
//! reaches the same engines. The portable protocols would instead need
//! the L1 semantic layer, which is per-coordinator state; sharding them
//! safely would require a distributed L1, which is future work
//! (DESIGN.md §13).
//!
//! ## Online reconfiguration
//!
//! [`ShardRouter::reconfigure`] changes the fleet mid-workload:
//!
//! 1. **Drain** — the admission gate closes; in-flight transactions (all
//!    on the old epoch's map snapshot) finish, new ones block at the gate.
//! 2. **Migrate** — for `Remove { old, successor }`, every user object of
//!    `old` moves in small atomic transactions `[Delete@old ∥
//!    Insert@successor]` through coordinator 0. Each batch is an ordinary
//!    global transaction: a crash or a nemesis kill mid-migration aborts
//!    the batch atomically, and the retry loop re-snapshots both sides so
//!    repetition can neither lose nor duplicate an object.
//! 3. **Epoch bump** — one global transaction increments the reserved
//!    [`EPOCH_OBJECT`] counter on every site of the *new* fleet. The new
//!    epoch becomes real exactly when this transaction commits — through
//!    the same atomic-commitment machinery as any workload transaction.
//! 4. **Install** — the router swaps in the next [`ShardMap`] and reopens
//!    the gate.

use crate::map::{ShardMap, SiteChange};
use amc_core::config::EngineKind;
use amc_core::federation::{submit_mode_for, TxnReport};
use amc_core::{Federation, FederationConfig, TxnOutcome};
use amc_net::marker::{is_marker, EPOCH_OBJECT};
use amc_net::transport::{AdminReply, AdminRequest, FederationTransport};
use amc_net::{InProcessTransport, LocalCommManager};
use amc_types::{AmcError, AmcResult, ObjectId, Operation, ProtocolKind, SiteId, Value};
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Objects moved per migration transaction. Small enough that a batch
/// abort under chaos wastes little work; large enough to amortise the
/// commit round.
const MIGRATION_BATCH: usize = 8;
/// How long a reconfiguration keeps retrying around transient outages
/// (nemesis kills) before giving up.
const RECONFIG_DEADLINE: Duration = Duration::from_secs(10);
/// Back-off between retry rounds while a needed site is down.
const RETRY_PAUSE: Duration = Duration::from_millis(2);

/// Per-coordinator outcome counters (the router's observability surface).
#[derive(Debug, Default)]
pub struct CoordCounters {
    /// Transactions this coordinator committed.
    pub committed: AtomicU64,
    /// Transactions this coordinator aborted.
    pub aborted: AtomicU64,
    /// Attempts that failed with a transport/protocol error.
    pub errors: AtomicU64,
}

/// What a completed [`ShardRouter::reconfigure`] did.
#[derive(Debug, Clone)]
pub struct ReconfigReport {
    /// The epoch now in force.
    pub epoch: u64,
    /// User objects migrated off the removed site (0 for an add).
    pub migrated: usize,
    /// Transactions the epoch-bump/migration path had to retry around
    /// transient outages.
    pub retries: usize,
}

/// The drain gate: admission control for workload transactions around a
/// reconfiguration. Closing waits out every in-flight transaction (they
/// all run on the old epoch's map snapshot) before the migration starts.
struct Gate {
    state: Mutex<GateState>,
    cond: Condvar,
}

struct GateState {
    open: bool,
    in_flight: usize,
}

struct GateGuard<'a> {
    gate: &'a Gate,
}

impl Gate {
    fn new() -> Gate {
        Gate {
            state: Mutex::new(GateState {
                open: true,
                in_flight: 0,
            }),
            cond: Condvar::new(),
        }
    }

    /// Block until the gate is open, then register as in flight.
    fn enter(&self) -> GateGuard<'_> {
        let mut st = self.state.lock();
        while !st.open {
            self.cond.wait(&mut st);
        }
        st.in_flight += 1;
        GateGuard { gate: self }
    }

    /// Close the gate and wait until every in-flight transaction exits.
    fn close_and_drain(&self) {
        let mut st = self.state.lock();
        st.open = false;
        while st.in_flight > 0 {
            self.cond.wait(&mut st);
        }
    }

    fn reopen(&self) {
        let mut st = self.state.lock();
        st.open = true;
        self.cond.notify_all();
    }
}

impl Drop for GateGuard<'_> {
    fn drop(&mut self) {
        let mut st = self.gate.state.lock();
        st.in_flight -= 1;
        // Wake both blocked entrants and a draining reconfigurer.
        self.gate.cond.notify_all();
    }
}

/// N coordinators, one fleet, one shard map. See the module docs.
pub struct ShardRouter {
    coordinators: Vec<Arc<Federation>>,
    fleet: Arc<InProcessTransport>,
    map: RwLock<Arc<ShardMap>>,
    gate: Gate,
    stats: Vec<CoordCounters>,
}

impl ShardRouter {
    /// Build an in-process sharded federation: `coordinators` coordinator
    /// instances over one fleet of `sites` 2PL sites (ids `1..=sites`),
    /// each site preloaded with its epoch object at epoch 1.
    ///
    /// # Panics
    /// When `protocol` is not 2PC (see the module docs' isolation note)
    /// or `coordinators == 0`.
    pub fn in_process(
        coordinators: u32,
        sites: u32,
        protocol: ProtocolKind,
        message_delay: Duration,
    ) -> AmcResult<ShardRouter> {
        assert_eq!(
            protocol,
            ProtocolKind::TwoPhaseCommit,
            "the shard router requires 2PC: its isolation lives in the shared \
             L0 site locks; the portable protocols' L1 layer is per-coordinator"
        );
        assert!(coordinators >= 1, "at least one coordinator");
        let base = FederationConfig::uniform(sites, protocol);
        let managers: BTreeMap<SiteId, Arc<LocalCommManager>> = base
            .open_sites()
            .iter()
            .map(|site| (site.manager().site(), Arc::clone(site.manager())))
            .collect();
        let fleet = Arc::new(InProcessTransport::new(
            managers,
            submit_mode_for(protocol),
            message_delay,
        ));
        let coords: Vec<Arc<Federation>> = (0..coordinators)
            .map(|k| {
                let mut cfg = FederationConfig::uniform(sites, protocol).sharded(k, coordinators);
                cfg.message_delay = message_delay;
                Arc::new(Federation::with_transport(
                    cfg,
                    Arc::clone(&fleet) as Arc<dyn FederationTransport>,
                ))
            })
            .collect();
        let map = ShardMap::new(coordinators, (1..=sites).map(SiteId::new));
        let router = ShardRouter {
            stats: (0..coordinators)
                .map(|_| CoordCounters::default())
                .collect(),
            coordinators: coords,
            fleet,
            map: RwLock::new(Arc::new(map)),
            gate: Gate::new(),
        };
        for site in router.fleet.sites() {
            router.coordinators[0].load_site(site, &[(EPOCH_OBJECT, Value::counter(1))])?;
        }
        Ok(router)
    }

    /// The current shard map snapshot.
    pub fn map(&self) -> Arc<ShardMap> {
        self.map.read().clone()
    }

    /// The epoch currently in force.
    pub fn epoch(&self) -> u64 {
        self.map.read().epoch
    }

    /// The shared fleet transport (chaos hooks: `set_down`).
    pub fn fleet(&self) -> &Arc<InProcessTransport> {
        &self.fleet
    }

    /// Coordinator `slot`'s federation instance.
    pub fn coordinator(&self, slot: u32) -> &Arc<Federation> {
        &self.coordinators[slot as usize]
    }

    /// Per-coordinator lifetime outcome counters.
    pub fn stats(&self) -> &[CoordCounters] {
        &self.stats
    }

    /// The coordinator slot that would own this (nominally addressed)
    /// program under the current map.
    pub fn owner_of(&self, per_site: &BTreeMap<SiteId, Vec<Operation>>) -> u32 {
        self.map.read().owner_of(per_site)
    }

    /// Bulk-load data into a site's engine (through coordinator 0).
    pub fn load_site(&self, site: SiteId, data: &[(ObjectId, Value)]) -> AmcResult<()> {
        self.coordinators[0].load_site(site, data)
    }

    /// Run one nominally-addressed transaction: wait at the admission
    /// gate, snapshot the map, rehome the program to actual sites, and
    /// hand it to its owning coordinator.
    pub fn run(&self, per_site: &BTreeMap<SiteId, Vec<Operation>>) -> AmcResult<TxnReport> {
        let _guard = self.gate.enter();
        let map = self.map.read().clone();
        let owner = map.owner_of(per_site) as usize;
        let routed = map.rehome(per_site);
        let result = self.coordinators[owner].run_transaction(&routed);
        match &result {
            Ok(report) => match report.outcome {
                TxnOutcome::Committed => {
                    self.stats[owner].committed.fetch_add(1, Ordering::Relaxed)
                }
                _ => self.stats[owner].aborted.fetch_add(1, Ordering::Relaxed),
            },
            Err(_) => self.stats[owner].errors.fetch_add(1, Ordering::Relaxed),
        };
        result
    }

    /// Change the fleet online. See the module docs for the
    /// drain → migrate → epoch-bump → install sequence.
    pub fn reconfigure(&self, change: SiteChange) -> AmcResult<ReconfigReport> {
        self.gate.close_and_drain();
        let result = self.apply_change(change);
        self.gate.reopen();
        result
    }

    fn apply_change(&self, change: SiteChange) -> AmcResult<ReconfigReport> {
        let old_map = self.map.read().clone();
        let deadline = Instant::now() + RECONFIG_DEADLINE;
        let mut retries = 0usize;
        let (next_map, migrated) = match change {
            SiteChange::Add { site } => {
                if old_map.is_member(site) {
                    return Err(AmcError::Protocol(format!(
                        "add: {site} is already a fleet member"
                    )));
                }
                // A fresh 2PL engine joins the shared fleet; it becomes
                // addressable only once the epoch bump commits.
                let opened = self.coordinators[0]
                    .config()
                    .open_site(site, EngineKind::TwoPL);
                self.fleet.add_site(site, Arc::clone(opened.manager()));
                // Provision its epoch object at the *old* epoch so the
                // bump transaction below carries every site to the new one.
                self.coordinators[0].load_site(
                    site,
                    &[(EPOCH_OBJECT, Value::counter(old_map.epoch as i64))],
                )?;
                (old_map.with_site_added(site), 0)
            }
            SiteChange::Remove { old, successor } => {
                // Validates membership (panics on misuse are converted to
                // errors by the checks here).
                if !old_map.is_member(old) || !old_map.is_member(successor) || old == successor {
                    return Err(AmcError::Protocol(format!(
                        "remove: {old} -> {successor} is not a valid member pair"
                    )));
                }
                let next = old_map.with_site_removed(old, successor);
                let moved = self.migrate(old, successor, deadline, &mut retries)?;
                (next, moved)
            }
        };

        // The epoch bump: one global transaction over the NEW fleet. The
        // reconfiguration is durable and in force exactly when it commits.
        let bump: BTreeMap<SiteId, Vec<Operation>> = next_map
            .sites()
            .into_iter()
            .map(|s| {
                (
                    s,
                    vec![Operation::Increment {
                        obj: EPOCH_OBJECT,
                        delta: 1,
                    }],
                )
            })
            .collect();
        self.committed_with_retry(&bump, deadline, &mut retries)?;

        if let SiteChange::Remove { old, .. } = change {
            self.fleet.remove_site(old);
        }
        self.drain_obligations(deadline, &mut retries)?;
        *self.map.write() = Arc::new(next_map.clone());
        Ok(ReconfigReport {
            epoch: next_map.epoch,
            migrated,
            retries,
        })
    }

    /// Move every user object off `old` onto `successor` in small atomic
    /// `[Delete@old ∥ Insert@successor]` transactions. Each retry round
    /// re-snapshots both sides, so a batch that aborted (or a site that
    /// died) mid-round can neither lose an object nor insert it twice.
    fn migrate(
        &self,
        old: SiteId,
        successor: SiteId,
        deadline: Instant,
        retries: &mut usize,
    ) -> AmcResult<usize> {
        let coord = &self.coordinators[0];
        let mut migrated = 0usize;
        loop {
            let (old_dump, succ_dump) = match (self.dump(old), self.dump(successor)) {
                (Ok(a), Ok(b)) => (a, b),
                (r1, r2) => {
                    let err = r1.err().or(r2.err()).expect("one side failed");
                    self.pause_or_fail(&err, deadline, retries)?;
                    let _ = coord.resolve_pending();
                    continue;
                }
            };
            let pending: Vec<(ObjectId, Value)> = old_dump
                .into_iter()
                .filter(|(obj, _)| !is_marker(*obj))
                .collect();
            if pending.is_empty() {
                return Ok(migrated);
            }
            let mut round_failed = false;
            for batch in pending.chunks(MIGRATION_BATCH) {
                let mut old_ops = Vec::new();
                let mut succ_ops = Vec::new();
                for (obj, val) in batch {
                    old_ops.push(Operation::Delete { obj: *obj });
                    // Duplication guard: an object already at the
                    // successor (from an interrupted earlier round whose
                    // view we lost) is only deleted at the source.
                    if !succ_dump.contains_key(obj) {
                        succ_ops.push(Operation::Insert {
                            obj: *obj,
                            value: *val,
                        });
                    }
                }
                let mut per_site = BTreeMap::new();
                per_site.insert(old, old_ops);
                if !succ_ops.is_empty() {
                    per_site.insert(successor, succ_ops);
                }
                match coord.run_transaction(&per_site) {
                    Ok(r) if r.outcome == TxnOutcome::Committed => migrated += batch.len(),
                    Ok(_) => {
                        // Aborted (e.g. a participant died before voting):
                        // nothing moved; re-snapshot and retry.
                        if Instant::now() >= deadline {
                            return Err(AmcError::Protocol(
                                "migration kept aborting past the deadline".into(),
                            ));
                        }
                        *retries += 1;
                        std::thread::sleep(RETRY_PAUSE);
                        round_failed = true;
                        break;
                    }
                    Err(e) => {
                        self.pause_or_fail(&e, deadline, retries)?;
                        let _ = coord.resolve_pending();
                        round_failed = true;
                        break;
                    }
                }
            }
            if !round_failed {
                // Loop once more: the final round's empty `pending` is the
                // completion check.
                continue;
            }
        }
    }

    /// Run `per_site` until it globally commits, retrying around transient
    /// outages until `deadline`.
    fn committed_with_retry(
        &self,
        per_site: &BTreeMap<SiteId, Vec<Operation>>,
        deadline: Instant,
        retries: &mut usize,
    ) -> AmcResult<()> {
        let coord = &self.coordinators[0];
        loop {
            match coord.run_transaction(per_site) {
                Ok(r) if r.outcome == TxnOutcome::Committed => return Ok(()),
                Ok(_) => {
                    *retries += 1;
                    if Instant::now() >= deadline {
                        return Err(AmcError::Protocol(
                            "reconfiguration transaction kept aborting past the deadline".into(),
                        ));
                    }
                    std::thread::sleep(RETRY_PAUSE);
                }
                Err(e) => {
                    self.pause_or_fail(&e, deadline, retries)?;
                    let _ = coord.resolve_pending();
                }
            }
        }
    }

    /// Discharge every owed final-state message on every coordinator (a
    /// reconfiguration must not leave a transaction open).
    fn drain_obligations(&self, deadline: Instant, retries: &mut usize) -> AmcResult<()> {
        loop {
            let mut pending = 0usize;
            for coord in &self.coordinators {
                coord.resolve_pending()?;
                pending += coord.pending_obligations();
            }
            if pending == 0 {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(AmcError::Protocol(format!(
                    "{pending} obligations still undeliverable past the reconfiguration deadline"
                )));
            }
            *retries += 1;
            std::thread::sleep(RETRY_PAUSE);
        }
    }

    /// Sleep-and-retry on transient errors; propagate anything else.
    fn pause_or_fail(
        &self,
        err: &AmcError,
        deadline: Instant,
        retries: &mut usize,
    ) -> AmcResult<()> {
        match err {
            AmcError::SiteDown(_) | AmcError::TransientIo(_) => {
                if Instant::now() >= deadline {
                    return Err(err.clone());
                }
                *retries += 1;
                std::thread::sleep(RETRY_PAUSE);
                Ok(())
            }
            other => Err(other.clone()),
        }
    }

    fn dump(&self, site: SiteId) -> AmcResult<BTreeMap<ObjectId, Value>> {
        match self.fleet.admin(site, AdminRequest::Dump)? {
            AdminReply::Dump(d) => Ok(d),
            other => Err(AmcError::Protocol(format!(
                "unexpected admin reply {other:?}"
            ))),
        }
    }

    /// Sum of every **user** (non-marker) counter across the fleet — the
    /// conservation quantity of sum-neutral workloads. Epoch objects and
    /// commit markers are filtered out.
    pub fn user_sum(&self) -> AmcResult<i64> {
        let mut sum = 0i64;
        for site in self.fleet.sites() {
            for (obj, val) in self.dump(site)? {
                if !is_marker(obj) {
                    sum = sum.wrapping_add(val.counter);
                }
            }
        }
        Ok(sum)
    }

    /// Total user objects across the fleet (duplication check: migration
    /// must conserve the count as well as the sum).
    pub fn user_object_count(&self) -> AmcResult<usize> {
        let mut count = 0usize;
        for site in self.fleet.sites() {
            count += self
                .dump(site)?
                .keys()
                .filter(|obj| !is_marker(**obj))
                .count();
        }
        Ok(count)
    }

    /// The committed epoch counter at `site` (oracle for tests: after a
    /// reconfiguration every member site agrees with [`ShardRouter::epoch`]).
    pub fn site_epoch(&self, site: SiteId) -> AmcResult<i64> {
        self.dump(site)?
            .get(&EPOCH_OBJECT)
            .map(|v| v.counter)
            .ok_or_else(|| AmcError::Protocol(format!("{site} has no epoch object")))
    }

    /// Outstanding final-state obligations across all coordinators.
    pub fn pending_obligations(&self) -> usize {
        self.coordinators
            .iter()
            .map(|c| c.pending_obligations())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(site: u32, idx: u64) -> ObjectId {
        ObjectId::new(u64::from(site) * (1 << 32) + idx)
    }

    fn transfer(from: u32, to: u32, idx: u64) -> BTreeMap<SiteId, Vec<Operation>> {
        let mut per_site = BTreeMap::new();
        per_site.insert(
            SiteId::new(from),
            vec![Operation::Increment {
                obj: obj(from, idx),
                delta: -1,
            }],
        );
        per_site.insert(
            SiteId::new(to),
            vec![Operation::Increment {
                obj: obj(to, idx),
                delta: 1,
            }],
        );
        per_site
    }

    fn loaded_router(coordinators: u32, sites: u32) -> Arc<ShardRouter> {
        let router = ShardRouter::in_process(
            coordinators,
            sites,
            ProtocolKind::TwoPhaseCommit,
            Duration::ZERO,
        )
        .unwrap();
        for s in 1..=sites {
            let data: Vec<(ObjectId, Value)> =
                (0..4).map(|i| (obj(s, i), Value::counter(100))).collect();
            router.load_site(SiteId::new(s), &data).unwrap();
        }
        Arc::new(router)
    }

    #[test]
    fn routed_transactions_commit_and_conserve() {
        let router = loaded_router(4, 3);
        let programs: Vec<_> = (0..24)
            .map(|i| transfer(i % 3 + 1, (i + 1) % 3 + 1, i as u64 % 4))
            .collect();
        let programs = programs.into_iter().map(|p| (p, false)).collect();
        let metrics = amc_core::closed_loop(programs, 4, |p| router.run(p));
        assert_eq!(metrics.committed, 24);
        assert_eq!(metrics.errors, 0);
        assert_eq!(router.user_sum().unwrap(), 3 * 4 * 100);
        // Work spread across more than one coordinator slot.
        let busy = router
            .stats()
            .iter()
            .filter(|c| c.committed.load(Ordering::Relaxed) > 0)
            .count();
        assert!(busy > 1, "expected multiple busy coordinators: {metrics:?}");
    }

    #[test]
    fn gtx_ranges_are_disjoint_per_coordinator() {
        let router = loaded_router(3, 2);
        for i in 0..12u64 {
            let p = transfer(1, 2, i % 4);
            let owner = router.owner_of(&p);
            let report = router.run(&p).unwrap();
            assert_eq!(amc_core::coord_slot_of(report.gtx), owner);
        }
    }

    #[test]
    fn add_then_remove_migrates_and_bumps_epochs() {
        let router = loaded_router(2, 3);
        let sum = router.user_sum().unwrap();
        let count = router.user_object_count().unwrap();

        let report = router
            .reconfigure(SiteChange::Add {
                site: SiteId::new(4),
            })
            .unwrap();
        assert_eq!(report.epoch, 2);
        assert!(router.map().is_member(SiteId::new(4)));
        for s in [1, 2, 3, 4] {
            assert_eq!(router.site_epoch(SiteId::new(s)).unwrap(), 2);
        }

        let report = router
            .reconfigure(SiteChange::Remove {
                old: SiteId::new(1),
                successor: SiteId::new(4),
            })
            .unwrap();
        assert_eq!(report.epoch, 3);
        assert_eq!(report.migrated, count / 3);
        assert!(!router.fleet().is_member(SiteId::new(1)));
        assert_eq!(router.user_sum().unwrap(), sum);
        assert_eq!(router.user_object_count().unwrap(), count);

        // Nominal site 1 programs now land on site 4.
        let p = transfer(1, 2, 0);
        let r = router.run(&p).unwrap();
        assert_eq!(r.outcome, TxnOutcome::Committed);
        assert_eq!(router.user_sum().unwrap(), sum);
    }
}
