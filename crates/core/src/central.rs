//! The central system's state (Fig. 1): ids, the L1 lock table, the
//! decision log and parked coordinators — what a coordinator must keep
//! across a crash. [`Central`] alone changes them; the
//! [`Federation`](crate::Federation) around it builds, feeds and pumps
//! coordinators.

use crate::config::{FederationConfig, COORD_GTX_SPAN};
use crate::coordinator::Coordinator;
use crate::drive::Program;
use amc_lock::blocking::AcquireResult;
use amc_lock::{LockMode, SemanticMode};
use amc_mlt::L1LockManager;
use amc_types::{AbortReason, GlobalTxnId, GlobalVerdict, ObjectId, ProtocolKind};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Ids, L1 locks, decisions and parked coordinators of one central system.
pub(crate) struct Central {
    next_gtx: AtomicU64,
    /// The L1 lock table; 2PC has none (2PL at L0, sites asked in order).
    l1: Option<L1LockManager>,
    /// The decision log: a verdict is recorded before any message carrying
    /// it leaves `step`, and a restart resumes from it. In memory, kept only
    /// under the simulator (ROADMAP item 8 makes it durable and universal).
    decisions: Option<Mutex<BTreeMap<GlobalTxnId, GlobalVerdict>>>,
    /// Decided coordinators that still owe an unreachable site its verdict.
    unresolved: Mutex<Vec<Coordinator>>,
}

impl Central {
    /// The central system of `cfg`, keeping a decision log on request.
    pub(crate) fn new(cfg: &FederationConfig, decision_log: bool) -> Self {
        // A sharded coordinator allocates from its slot's disjoint id
        // range; slot 0 (and every unsharded federation) starts at 1.
        let first_gtx = cfg
            .coordinator
            .as_ref()
            .map_or(1, |id| u64::from(id.slot) * COORD_GTX_SPAN + 1);
        Central {
            next_gtx: AtomicU64::new(first_gtx),
            l1: (cfg.protocol != ProtocolKind::TwoPhaseCommit)
                .then(|| L1LockManager::new(cfg.policy, cfg.l1_timeout)),
            decisions: decision_log.then(Mutex::default),
            unresolved: Mutex::new(Vec::new()),
        }
    }

    /// Mint an id, then take every L1 lock `program` needs, or none of
    /// them: L1 turning it away returns the burned id and why (retry).
    pub(crate) fn admit(
        &self,
        program: &Program,
    ) -> Result<GlobalTxnId, (GlobalTxnId, AbortReason)> {
        let gtx = GlobalTxnId::new(self.next_gtx.fetch_add(1, Ordering::Relaxed));
        self.acquire(gtx, program).map_err(|why| (gtx, why))?;
        Ok(gtx)
    }

    /// After a central restart, before any new admission: retake `gtx`'s
    /// L1 locks — its owed repair needs the isolation its work had — and
    /// read its logged verdict (none: presume abort).
    pub(crate) fn readmit(&self, gtx: GlobalTxnId, program: &Program) -> Option<GlobalVerdict> {
        self.acquire(gtx, program)
            .expect("transactions that held their L1 locks together can retake them");
        let log = self.decisions.as_ref()?;
        log.lock().get(&gtx).copied()
    }

    /// The whole lock set is known up front: each object's accesses fold
    /// into one *strongest* mode, taken in canonical object order — no
    /// cycles across objects, no upgrades on one. L1 cannot deadlock
    /// (timeouts remain the overload safety valve).
    fn acquire(&self, gtx: GlobalTxnId, program: &Program) -> Result<(), AbortReason> {
        let Some(l1) = &self.l1 else {
            return Ok(());
        };
        let mut needed: BTreeMap<ObjectId, SemanticMode> = BTreeMap::new();
        for op in program.values().flatten() {
            let mode = l1.policy().mode_for(op);
            needed
                .entry(op.object())
                .and_modify(|m| *m = m.combine(mode))
                .or_insert(mode);
        }
        for (&obj, &mode) in &needed {
            let reason = match l1.acquire_mode(gtx, obj, mode) {
                AcquireResult::Granted => continue,
                AcquireResult::Deadlock => AbortReason::Deadlock,
                AcquireResult::Timeout => AbortReason::LockTimeout,
            };
            self.release(gtx, needed.range(..obj).map(|(o, _)| *o));
            return Err(reason);
        }
        Ok(())
    }

    /// Record the verdict of `gtx` in the decision log, when one is kept.
    pub(crate) fn log(&self, gtx: GlobalTxnId, verdict: GlobalVerdict) {
        if let Some(log) = &self.decisions {
            log.lock().insert(gtx, verdict);
        }
    }

    /// Global end of `gtx`: release the L1 locks it took on `objects`.
    pub(crate) fn release(&self, gtx: GlobalTxnId, objects: impl Iterator<Item = ObjectId>) {
        if let Some(l1) = &self.l1 {
            l1.release(gtx, &objects.collect::<Vec<_>>());
        }
    }

    /// Keep a decided coordinator that still owes a site its final state,
    /// and its L1 locks (the obligation is part of the transaction, §4.3).
    pub(crate) fn park(&self, coordinator: Coordinator) {
        self.unresolved.lock().push(coordinator);
    }

    /// Hand every parked coordinator back, to be re-driven.
    pub(crate) fn unpark(&self) -> Vec<Coordinator> {
        std::mem::take(&mut *self.unresolved.lock())
    }

    /// Central crash: everything volatile is lost — the `live`
    /// transactions, the parked coordinators, and with them the whole L1
    /// table, swept per lost transaction. The decision log survives.
    pub(crate) fn crash(&self, live: impl IntoIterator<Item = GlobalTxnId>) {
        let parked = self.unpark().into_iter().map(|c| c.gtx());
        if let Some(l1) = &self.l1 {
            live.into_iter()
                .chain(parked)
                .for_each(|gtx| l1.release_all(gtx));
        }
    }

    /// The outstanding sites of every parked coordinator.
    pub(crate) fn pending_obligations(&self) -> usize {
        let parked = self.unresolved.lock();
        parked.iter().map(|c| c.outstanding().len()).sum()
    }

    /// Start numbering transactions at `first` (at least 1).
    pub(crate) fn set_first_gtx(&self, first: u64) {
        self.next_gtx.store(first.max(1), Ordering::Relaxed);
    }

    /// The L1 lock table (none under 2PC).
    pub(crate) fn l1(&self) -> Option<&L1LockManager> {
        self.l1.as_ref()
    }
}
