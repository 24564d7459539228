//! The strict two-phase-locking engine.
//!
//! A faithful miniature of the classical architecture the paper assumes for
//! "existing" systems: page-grained strict 2PL, write-ahead value logging,
//! no-force/steal buffering, restart recovery. Engine-initiated aborts
//! (deadlock victim, lock timeout, crash) surface as
//! `AmcError::Aborted(reason)` with an *erroneous* reason — the §3.2 hazard.
//!
//! Locking granule: the **bucket-head page** of the touched object (the
//! whole overflow chain shares its head's lock), which is what makes the
//! Fig. 8 scenario real — two different objects on the same page conflict at
//! L0 even when their L1 operations commute.
//!
//! The scheduler is the striped page lock manager and an undo list per
//! transaction, over the engine core's transaction table, page store
//! and group committer: lock waits, modelled op service time and
//! commit-record forces do not serialize unrelated transactions (E9
//! measures exactly this). Page locks are acquired while holding none of
//! the core's mutexes, and held past the append, so the log orders every
//! conflicting pair exactly as the store applied them.

use crate::api::{EngineStats, LocalEngine, PreparableEngine, RecoveryReport};
use crate::core::{self, Core, Live};
use amc_lock::{blocking::AcquireResult, BlockingLockManager, PageMode};
use amc_storage::{buffer::BufferStats, disk::DiskStats, PageStore};
use amc_types::{
    AbortReason, AmcError, AmcResult, GlobalTxnId, LocalRunState, LocalTxnId, ObjectId, OpResult,
    Operation, PageId, SiteId, Value,
};
use amc_wal::{GroupCommitConfig, GroupCommitter, LogRecord};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Construction parameters for a local engine, either scheduler. The lock
/// and service-time knobs are 2PL's; OCC takes no locks and models no
/// service time.
#[derive(Debug, Clone)]
pub struct TplConfig {
    /// Hash buckets in the page store.
    pub buckets: u32,
    /// Buffer pool frames.
    pub pool_frames: usize,
    /// How long a lock request may wait before the engine aborts the
    /// requester with [`AbortReason::LockTimeout`].
    pub lock_timeout: Duration,
    /// Parked waiters re-run deadlock detection at this interval.
    pub deadlock_check: Duration,
    /// Modelled service time per operation, spent while holding the page
    /// lock (zero disables). Benchmarks use it to restore the 1991-scale
    /// ratio between local work and messaging, so that *re-executing* a
    /// transaction (the §3.2 redo) costs what the paper assumes it costs.
    pub op_service_time: Duration,
    /// Group-commit batching for the WAL. The default (zero force latency)
    /// on an in-memory log degenerates to `append_forced` semantics, so the
    /// deterministic simulator and single-threaded tests are unaffected.
    pub group_commit: GroupCommitConfig,
}

impl Default for TplConfig {
    fn default() -> Self {
        TplConfig {
            buckets: 64,
            pool_frames: 128,
            lock_timeout: Duration::from_secs(2),
            deadlock_check: Duration::from_millis(2),
            op_service_time: Duration::ZERO,
            group_commit: GroupCommitConfig::default(),
        }
    }
}

#[derive(Debug)]
struct TxnCtx {
    state: LocalRunState,
    /// Undo entries in execution order: `(object, image before the update,
    /// image after the update)`.
    undo: Vec<(ObjectId, Option<Value>, Option<Value>)>,
    /// Every page this transaction locked or is asking to lock: what its
    /// commit or abort releases, one stripe visit per distinct stripe.
    held: Vec<PageId>,
}

impl TxnCtx {
    fn new(state: LocalRunState) -> Self {
        TxnCtx {
            state,
            undo: Vec::new(),
            held: Vec::new(),
        }
    }

    fn hold(&mut self, page: PageId) {
        if !self.held.contains(&page) {
            self.held.push(page);
        }
    }
}

impl Live for TxnCtx {
    fn state(&self) -> LocalRunState {
        self.state
    }
}

/// A strict-2PL local database engine.
pub struct TwoPLEngine {
    core: Core<TxnCtx>,
    locks: BlockingLockManager<PageId, LocalTxnId, PageMode>,
}

impl TwoPLEngine {
    fn over(core: Core<TxnCtx>) -> Self {
        let locks = BlockingLockManager::new(core.cfg.deadlock_check);
        TwoPLEngine { core, locks }
    }

    /// A fresh engine over a fresh simulated disk, serving `site`.
    pub fn new_at(cfg: TplConfig, site: SiteId) -> Self {
        Self::over(Core::new(cfg, site))
    }

    /// Open an engine over the durable frame file at `path`, replaying what
    /// an earlier process left into a fresh store: committed work redone,
    /// losers rolled back, prepared work in doubt with its locks re-held.
    pub fn open_durable(
        cfg: TplConfig,
        site: SiteId,
        path: impl AsRef<std::path::Path>,
    ) -> AmcResult<(Self, RecoveryReport)> {
        core::open_durable(cfg, site, path, Self::over)
    }

    /// The engine's group committer: what a co-located Paxos acceptor
    /// writes its rows through, so the site keeps one log, one file and
    /// one force path.
    pub fn wal(&self) -> &Arc<GroupCommitter> {
        &self.core.wal
    }

    /// Roll back and terminate `txn`; must be called *without* any engine
    /// component mutex held. The transaction's page locks stay held for the
    /// whole rollback (strict 2PL), so nobody observes intermediate undo
    /// state even though the component mutexes interleave.
    fn abort_internal(&self, txn: LocalTxnId, reason: AbortReason) -> AmcResult<()> {
        let ctx = self.core.txns.lock().active.remove(&txn);
        let ctx = ctx.ok_or(AmcError::UnknownTxn)?;
        let was_prepared = ctx.state == LocalRunState::Ready;
        // Undo in reverse, logging compensations so forward replay of this
        // (finished) transaction nets out.
        {
            let mut store = self.core.store.lock();
            for &(obj, before, _) in ctx.undo.iter().rev() {
                self.core.write(&mut store, txn, obj, |_| Ok(before))?;
            }
        }
        let wal = &self.core.wal;
        if was_prepared {
            // The prepare record was *forced*: if the abort stayed volatile,
            // a later crash would resurrect this transaction in doubt after
            // the coordinator has already collected our Finished ack — and
            // nobody retransmits a collected decision, so the doubt would
            // never resolve. One force closes the window; never-prepared
            // transactions keep the unforced presumed-abort fast path.
            if !wal.append_durable(&LogRecord::Abort { txn }) {
                return Err(self.core.site_down());
            }
        } else {
            wal.append(&LogRecord::Abort { txn });
        }
        self.core.txns.lock().aborted(txn, reason.is_erroneous());
        self.locks.release(txn, &ctx.held);
        Ok(())
    }

    /// After the core's crash, sweep the lock table for its `victims`:
    /// parked waiters wake, observe the site is down and fail their
    /// operation. The sweep also purges a victim's own parked request,
    /// which no list of grants names.
    fn after_crash(&self, victims: Vec<LocalTxnId>) {
        for t in victims {
            self.locks.release_txn(t);
        }
    }

    /// Lock-manager counters (waits, victims) for reports.
    pub fn lock_stats(&self) -> amc_lock::LockStats {
        self.locks.stats()
    }

    /// Disk/buffer counters for E4.
    pub fn io_stats(&self) -> (DiskStats, BufferStats) {
        self.core.store.lock().stats()
    }
}

impl LocalEngine for TwoPLEngine {
    core::answered_by_the_core!();

    fn begin(&self) -> AmcResult<LocalTxnId> {
        self.core.begin(TxnCtx::new(LocalRunState::Running))
    }

    fn execute(&self, txn: LocalTxnId, op: &Operation) -> AmcResult<OpResult> {
        let core = &self.core;
        // The store was opened with `cfg.buckets`; no need for its lock.
        let page = PageStore::bucket_page(core.cfg.buckets, op.object());
        // Phase 1: validate the transaction and note the locking granule
        // before asking for it, so whatever ends the transaction releases it.
        {
            let mut txns = core.txns.lock();
            if !txns.up {
                return Err(core.site_down());
            }
            match txns.active.get_mut(&txn) {
                Some(ctx) if ctx.state == LocalRunState::Running => ctx.hold(page),
                Some(ctx) => {
                    return Err(AmcError::InvalidState(format!(
                        "execute in state {}",
                        ctx.state
                    )))
                }
                None => return Err(AmcError::UnknownTxn),
            }
        }

        // Phase 2: block on the page lock with no component mutex held.
        let mode = if op.is_update() {
            PageMode::Exclusive
        } else {
            PageMode::Shared
        };
        match self.locks.acquire(txn, page, mode, core.cfg.lock_timeout) {
            AcquireResult::Granted => {}
            AcquireResult::Deadlock => {
                self.abort_internal(txn, AbortReason::Deadlock)?;
                return Err(AmcError::Aborted(AbortReason::Deadlock));
            }
            AcquireResult::Timeout => {
                self.abort_internal(txn, AbortReason::LockTimeout)?;
                return Err(AmcError::Aborted(AbortReason::LockTimeout));
            }
        }

        // Modelled local work: holds the page lock (acquired above), which
        // serializes only transactions touching this page — not the engine.
        if !core.cfg.op_service_time.is_zero() {
            std::thread::sleep(core.cfg.op_service_time);
        }

        // Phase 3: apply and log through the core's write path; then
        // register undo under the transaction table. The page lock (held
        // past commit) orders every conflicting pair identically in the
        // store and the log.
        let obj = op.object();
        let applied = if op.is_update() {
            // One chain walk: the transition runs where the object is found.
            let mut store = core.store.lock();
            core.write(&mut store, txn, obj, |found| op.applied_to(found))
        } else {
            let found = core.store.lock().get(obj);
            let seen = found.and_then(|found| op.applied_to(found));
            seen.map(|seen| (seen, seen))
        };
        let (before, after) = match applied {
            Ok(x) => x,
            Err(e) => {
                // Logical failure (NotFound/AlreadyExists): the transaction
                // stays running; the caller decides whether to abort. The
                // page lock is retained (2PL).
                core.txns.lock().stats.ops += 1;
                return Err(e);
            }
        };
        let mut txns = core.txns.lock();
        if !txns.up {
            // Crashed while we were applying; the store image is gone too.
            return Err(core.site_down());
        }
        txns.stats.ops += 1;
        if op.is_update() {
            let Some(ctx) = txns.active.get_mut(&txn) else {
                return Err(AmcError::UnknownTxn);
            };
            ctx.undo.push((obj, before, after));
            return Ok(OpResult::Done);
        }
        Ok(OpResult::Value(after.expect("a read leaves what it found")))
    }

    fn commit(&self, txn: LocalTxnId) -> AmcResult<()> {
        let core = &self.core;
        let logged = {
            let txns = core.txns.lock();
            if !txns.up {
                return Err(core.site_down());
            }
            let ctx = txns.active.get(&txn).ok_or(AmcError::UnknownTxn)?;
            // Nothing written, nothing prepared: no record, no force. Under
            // strict 2PL all it read was durably committed before its
            // writers' locks let go, so there is no decision to recover.
            !ctx.undo.is_empty() || ctx.state != LocalRunState::Running
        };
        // The unmodified engine's atomic running->committed transition:
        // append + force the commit record (§3.1) — via group commit, with
        // no component mutex held, so concurrent committers share one force.
        if logged && !core.wal.append_durable(&LogRecord::Commit { txn }) {
            // A crash wiped the record before it was forced: the commit
            // never happened (the crash already drained the transaction).
            return Err(core.site_down());
        }
        let ctx = {
            let mut txns = core.txns.lock();
            // The record is durable, so the transaction is committed even
            // if a crash raced us here and drained `active` already (and
            // released its locks) — recovery will redo it; make the
            // terminal state agree.
            let ctx = txns.active.remove(&txn);
            if ctx.is_some() {
                txns.stats.commits += 1;
            }
            txns.terminated.insert(txn, LocalRunState::Committed);
            ctx
        };
        if let Some(ctx) = ctx {
            self.locks.release(txn, &ctx.held);
        }
        if logged {
            core.cut_if_due();
        }
        Ok(())
    }

    fn abort(&self, txn: LocalTxnId, reason: AbortReason) -> AmcResult<()> {
        if !self.is_up() {
            return Err(self.core.site_down());
        }
        self.abort_internal(txn, reason)
    }

    fn recover(&self) -> AmcResult<RecoveryReport> {
        // Resurrect in-doubt transactions: rebuild their undo lists from the
        // log and note their pages, to re-lock exclusively so they stay
        // isolated until the coordinator decides (the blocking 2PC hazard).
        let (report, doubt_pages) = self.core.recover(|txns, store, outcome, records| {
            for t in &outcome.in_doubt {
                txns.active.insert(*t, TxnCtx::new(LocalRunState::Ready));
            }
            for (_, r) in records {
                if let LogRecord::Update {
                    txn,
                    obj,
                    before,
                    after,
                } = r
                {
                    if let Some(ctx) = txns.active.get_mut(txn) {
                        ctx.hold(store.page_of(*obj));
                        ctx.undo.push((*obj, *before, *after));
                    }
                }
            }
            let pages = txns.active.iter().map(|(t, ctx)| (*t, ctx.held.clone()));
            pages.collect::<Vec<_>>()
        })?;

        // Nothing else is running during recovery, so these grants are
        // immediate.
        for (txn, pages) in doubt_pages {
            for p in pages {
                let r = self
                    .locks
                    .acquire(txn, p, PageMode::Exclusive, Duration::from_secs(1));
                if r != AcquireResult::Granted {
                    return Err(AmcError::Protocol(format!(
                        "could not re-lock page {p} for in-doubt {txn}: {r:?}"
                    )));
                }
            }
        }
        Ok(report)
    }

    fn kind(&self) -> &'static str {
        "2pl"
    }

    fn stats(&self) -> EngineStats {
        EngineStats {
            lock_waits: self.locks.stats().waits,
            ..self.core.txns.lock().stats
        }
    }
}

impl PreparableEngine for TwoPLEngine {
    fn prepare(&self, txn: LocalTxnId) -> AmcResult<()> {
        self.prepare_named(txn, None)
    }

    fn prepare_as(&self, txn: LocalTxnId, gtx: GlobalTxnId) -> AmcResult<()> {
        self.prepare_named(txn, Some(gtx))
    }
}

impl TwoPLEngine {
    /// Drive `txn` to the ready state behind a forced `Prepare` record that
    /// names `gtx`, when there is one.
    fn prepare_named(&self, txn: LocalTxnId, gtx: Option<GlobalTxnId>) -> AmcResult<()> {
        {
            let mut txns = self.core.txns.lock();
            if !txns.up {
                return Err(self.core.site_down());
            }
            let Some(ctx) = txns.active.get_mut(&txn) else {
                return Err(AmcError::UnknownTxn);
            };
            if ctx.state != LocalRunState::Running {
                return Err(AmcError::InvalidState(format!(
                    "prepare in state {}",
                    ctx.state
                )));
            }
            ctx.state = LocalRunState::Ready;
        }
        // The §3.1 contract: all changes durable before answering ready.
        // Prepare records ride the same group-commit batches as commits.
        if !self
            .core
            .wal
            .append_durable(&LogRecord::Prepare { txn, gtx })
        {
            // Crash before the force: the prepare never became durable, so
            // no vote may be cast (recovery will not resurrect this txn).
            return Err(self.core.site_down());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amc_types::Operation as Op;

    fn obj(n: u64) -> ObjectId {
        ObjectId::new(n)
    }
    fn v(n: i64) -> Value {
        Value::counter(n)
    }

    fn engine_with(data: &[(u64, i64)]) -> TwoPLEngine {
        let e = TwoPLEngine::new_at(TplConfig::default(), SiteId::new(1));
        e.bulk_load(
            &data
                .iter()
                .map(|&(o, val)| (obj(o), v(val)))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        e
    }

    #[test]
    fn read_write_commit_roundtrip() {
        let e = engine_with(&[(1, 10)]);
        let t = e.begin().unwrap();
        assert_eq!(
            e.execute(t, &Op::Read { obj: obj(1) }).unwrap(),
            OpResult::Value(v(10))
        );
        e.execute(
            t,
            &Op::Write {
                obj: obj(1),
                value: v(20),
            },
        )
        .unwrap();
        e.commit(t).unwrap();
        assert_eq!(e.state_of(t), Some(LocalRunState::Committed));
        assert_eq!(e.dump().unwrap().get(&obj(1)), Some(&v(20)));
    }

    #[test]
    fn abort_rolls_back_everything() {
        let e = engine_with(&[(1, 10), (2, 20)]);
        let t = e.begin().unwrap();
        e.execute(
            t,
            &Op::Write {
                obj: obj(1),
                value: v(99),
            },
        )
        .unwrap();
        e.execute(t, &Op::Delete { obj: obj(2) }).unwrap();
        e.execute(
            t,
            &Op::Insert {
                obj: obj(3),
                value: v(30),
            },
        )
        .unwrap();
        e.abort(t, AbortReason::Intended).unwrap();
        let d = e.dump().unwrap();
        assert_eq!(d.get(&obj(1)), Some(&v(10)));
        assert_eq!(d.get(&obj(2)), Some(&v(20)));
        assert_eq!(d.get(&obj(3)), None);
        assert_eq!(e.state_of(t), Some(LocalRunState::Aborted));
    }

    #[test]
    fn increment_applies_delta() {
        let e = engine_with(&[(1, 10)]);
        let t = e.begin().unwrap();
        e.execute(
            t,
            &Op::Increment {
                obj: obj(1),
                delta: -3,
            },
        )
        .unwrap();
        e.commit(t).unwrap();
        assert_eq!(e.dump().unwrap().get(&obj(1)), Some(&v(7)));
    }

    #[test]
    fn logical_errors_do_not_abort() {
        let e = engine_with(&[(1, 10)]);
        let t = e.begin().unwrap();
        assert!(matches!(
            e.execute(t, &Op::Read { obj: obj(99) }),
            Err(AmcError::NotFound(_))
        ));
        assert!(matches!(
            e.execute(
                t,
                &Op::Insert {
                    obj: obj(1),
                    value: v(0)
                }
            ),
            Err(AmcError::AlreadyExists(_))
        ));
        // Still running and usable.
        assert_eq!(e.state_of(t), Some(LocalRunState::Running));
        e.execute(
            t,
            &Op::Write {
                obj: obj(1),
                value: v(11),
            },
        )
        .unwrap();
        e.commit(t).unwrap();
        assert_eq!(e.dump().unwrap().get(&obj(1)), Some(&v(11)));
    }

    #[test]
    fn torn_tail_crash_recovers_durable_prefix() {
        // Commit A durably, then leave B's records in the volatile tail and
        // crash mid-force: one frame becomes durable, the next lands torn.
        // Recovery must truncate the torn frame and land exactly on A's
        // committed state — twice, to prove idempotence (E8).
        let e = engine_with(&[(1, 10), (2, 20)]);
        let a = e.begin().unwrap();
        e.execute(
            a,
            &Op::Write {
                obj: obj(1),
                value: v(11),
            },
        )
        .unwrap();
        e.commit(a).unwrap();
        let b = e.begin().unwrap();
        for (o, val) in [(2, 99), (1, 0)] {
            let write = Op::Write {
                obj: obj(o),
                value: v(val),
            };
            e.execute(b, &write).unwrap();
        }
        // Tail now holds B's two Updates; keep the first, tear the second.
        e.crash_partial(1, true);
        let report = e.recover().unwrap();
        assert!(report.torn_tail);
        assert!(report.committed.contains(&a));
        assert!(report.rolled_back.contains(&b), "B's Update: a loser");
        let d = e.dump().unwrap();
        assert_eq!(d.get(&obj(1)), Some(&v(11)), "torn update never applied");
        assert_eq!(d.get(&obj(2)), Some(&v(20)), "durable update undone");
        // Crash again cleanly and re-recover: same state.
        e.crash();
        e.recover().unwrap();
        let d2 = e.dump().unwrap();
        assert_eq!(d2.get(&obj(1)), Some(&v(11)));
        assert_eq!(d2.get(&obj(2)), Some(&v(20)));
    }

    #[test]
    fn a_read_only_commit_logs_and_forces_nothing() {
        let e = engine_with(&[(1, 10)]);
        let (before, dump) = (e.log_stats(), e.dump().unwrap());
        let t = e.begin().unwrap();
        e.execute(t, &Op::Read { obj: obj(1) }).unwrap();
        e.commit(t).unwrap();
        let after = e.log_stats();
        assert_eq!(after.appends, before.appends, "no record");
        assert_eq!(after.forces, before.forces, "no force");
        assert_eq!(e.state_of(t), Some(LocalRunState::Committed));
        e.crash();
        e.recover().unwrap();
        assert_eq!(
            e.dump().unwrap(),
            dump,
            "a crash right after recovers the same state"
        );

        // Its shared lock is released: a writer gets the page at once.
        let r = e.begin().unwrap();
        e.execute(r, &Op::Read { obj: obj(1) }).unwrap();
        e.commit(r).unwrap();
        let w = e.begin().unwrap();
        e.execute(
            w,
            &Op::Increment {
                obj: obj(1),
                delta: 1,
            },
        )
        .unwrap();
        e.commit(w).unwrap();

        // A prepared transaction decided in the log: its commit is
        // recorded even with nothing written.
        let p = e.begin().unwrap();
        e.execute(p, &Op::Read { obj: obj(1) }).unwrap();
        e.prepare(p).unwrap();
        e.commit(p).unwrap();
        let records = e.wal().with_log(|log| log.stable_records()).unwrap();
        assert_eq!(records.last().unwrap().1, LogRecord::Commit { txn: p });
    }

    /// A transaction that wrote still forces its Commit record, once.
    #[test]
    fn a_commit_with_updates_forces_its_record() {
        let e = engine_with(&[(1, 10)]);
        let forces = e.log_stats().forces;
        let t = e.begin().unwrap();
        e.execute(
            t,
            &Op::Increment {
                obj: obj(1),
                delta: 1,
            },
        )
        .unwrap();
        e.commit(t).unwrap();
        assert_eq!(e.log_stats().forces, forces + 1);
        let records = e.wal().with_log(|log| log.stable_records()).unwrap();
        assert_eq!(records.last().unwrap().1, LogRecord::Commit { txn: t });
        e.crash();
        e.recover().unwrap();
        assert_eq!(e.dump().unwrap().get(&obj(1)), Some(&v(11)));
    }

    /// The unlogged commit is still a commit of a live site: a crash kills
    /// the read-only transaction, and its commit fails.
    #[test]
    fn a_read_only_commit_fails_on_a_crashed_site() {
        let e = engine_with(&[(1, 10)]);
        let t = e.begin().unwrap();
        e.execute(t, &Op::Read { obj: obj(1) }).unwrap();
        e.crash();
        assert!(matches!(e.commit(t), Err(AmcError::SiteDown(_))));
        e.recover().unwrap();
        assert!(matches!(e.commit(t), Err(AmcError::UnknownTxn)));
        assert_eq!(e.state_of(t), Some(LocalRunState::Aborted));
        assert_eq!(e.stats().commits, 0);
    }

    /// Aborting a transaction that wrote nothing and never prepared
    /// undoes nothing and forces nothing.
    #[test]
    fn a_read_only_abort_forces_nothing() {
        let e = engine_with(&[(1, 10)]);
        let forces = e.log_stats().forces;
        let t = e.begin().unwrap();
        e.execute(t, &Op::Read { obj: obj(1) }).unwrap();
        e.abort(t, AbortReason::Intended).unwrap();
        assert_eq!(e.log_stats().forces, forces);
        assert_eq!(e.state_of(t), Some(LocalRunState::Aborted));
        assert_eq!(e.dump().unwrap().get(&obj(1)), Some(&v(10)));
    }

    #[test]
    fn durable_uncommitted_work_is_rolled_back_by_recovery() {
        let e = engine_with(&[(1, 10), (2, 20)]);
        let t = e.begin().unwrap();
        e.execute(
            t,
            &Op::Write {
                obj: obj(1),
                value: v(42),
            },
        )
        .unwrap();
        // A second transaction commits, group-forcing the tail — t's update
        // record is now durable without its commit.
        let other = e.begin().unwrap();
        e.execute(
            other,
            &Op::Write {
                obj: obj(2),
                value: v(21),
            },
        )
        .unwrap();
        e.commit(other).unwrap();
        e.crash();
        let report = e.recover().unwrap();
        assert!(report.rolled_back.contains(&t), "report: {report:?}");
        assert!(report.committed.contains(&other));
        let d = e.dump().unwrap();
        assert_eq!(d.get(&obj(1)), Some(&v(10)), "loser undone");
        assert_eq!(d.get(&obj(2)), Some(&v(21)), "winner redone");
        assert_eq!(e.state_of(t), Some(LocalRunState::Aborted));
    }

    #[test]
    fn prepared_transaction_survives_crash_in_doubt() {
        let e = engine_with(&[(1, 10)]);
        let t = e.begin().unwrap();
        e.execute(
            t,
            &Op::Write {
                obj: obj(1),
                value: v(42),
            },
        )
        .unwrap();
        e.prepare(t).unwrap();
        assert_eq!(e.state_of(t), Some(LocalRunState::Ready));
        e.crash();
        let report = e.recover().unwrap();
        assert_eq!(report.in_doubt, vec![t]);
        assert_eq!(e.state_of(t), Some(LocalRunState::Ready));

        // The in-doubt transaction still blocks access to its pages: a new
        // transaction touching object 1 must time out.
        let t2 = e.begin().unwrap();
        let err = e
            .execute(t2, &Op::Read { obj: obj(1) })
            .expect_err("page is locked by the in-doubt txn");
        assert!(matches!(
            err,
            AmcError::Aborted(AbortReason::LockTimeout) | AmcError::Aborted(AbortReason::Deadlock)
        ));

        // Coordinator decides commit: the change lands.
        e.commit(t).unwrap();
        assert_eq!(e.dump().unwrap().get(&obj(1)), Some(&v(42)));
    }

    #[test]
    fn in_doubt_transaction_releases_exactly_its_reheld_pages() {
        let data: Vec<(u64, i64)> = (0..32).map(|i| (i, 0)).collect();
        for commit in [true, false] {
            let e = engine_with(&data);
            let page = |o: u64| PageStore::bucket_page(e.core.cfg.buckets, obj(o));
            let other = (1..32).find(|o| page(*o) != page(0)).expect("two pages");
            let t = e.begin().unwrap();
            for o in [0, other, 0] {
                let inc = Op::Increment {
                    obj: obj(o),
                    delta: 1,
                };
                e.execute(t, &inc).unwrap();
            }
            e.prepare(t).unwrap();
            e.crash();
            assert_eq!(e.recover().unwrap().in_doubt, vec![t]);
            // Recovery re-locked each of its pages once and noted them.
            let mut held = e.core.txns.lock().active[&t].held.clone();
            held.sort();
            let mut pages = vec![page(0), page(other)];
            pages.sort();
            assert_eq!(held, pages);
            assert_eq!(e.locks.granted_count(), 2);
            if commit {
                e.commit(t).unwrap();
            } else {
                e.abort(t, AbortReason::GlobalDecision).unwrap();
            }
            assert_eq!(e.locks.granted_count(), 0, "commit {commit}");
            let t2 = e.begin().unwrap();
            for o in [0, other] {
                e.execute(t2, &Op::Read { obj: obj(o) }).unwrap();
            }
            e.commit(t2).unwrap();
            assert_eq!(e.locks.granted_count(), 0);
        }
    }

    #[test]
    fn prepared_transaction_can_abort_after_recovery() {
        let e = engine_with(&[(1, 10)]);
        let t = e.begin().unwrap();
        e.execute(
            t,
            &Op::Write {
                obj: obj(1),
                value: v(42),
            },
        )
        .unwrap();
        e.prepare(t).unwrap();
        e.crash();
        e.recover().unwrap();
        e.abort(t, AbortReason::GlobalDecision).unwrap();
        assert_eq!(e.dump().unwrap().get(&obj(1)), Some(&v(10)));
    }

    #[test]
    fn conflicting_writers_serialize() {
        let e = std::sync::Arc::new(engine_with(&[(1, 0)]));
        let n = 4;
        let per = 10;
        let mut handles = Vec::new();
        for _ in 0..n {
            let e = e.clone();
            handles.push(std::thread::spawn(move || {
                let mut done = 0;
                while done < per {
                    let t = e.begin().unwrap();
                    match e.execute(
                        t,
                        &Op::Increment {
                            obj: obj(1),
                            delta: 1,
                        },
                    ) {
                        Ok(_) => {
                            e.commit(t).unwrap();
                            done += 1;
                        }
                        Err(AmcError::Aborted(_)) => {} // deadlock victim: retry
                        Err(e2) => panic!("unexpected: {e2}"),
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(e.dump().unwrap().get(&obj(1)), Some(&v(n * per)));
    }

    #[test]
    fn stats_count_an_l0_lock_wait() {
        let e = std::sync::Arc::new(engine_with(&[(1, 0)]));
        let write = Op::Write {
            obj: obj(1),
            value: v(1),
        };
        let holder = e.begin().unwrap();
        e.execute(holder, &write).unwrap();
        assert_eq!(e.stats().lock_waits, 0);
        let waiter = {
            let e = std::sync::Arc::clone(&e);
            std::thread::spawn(move || {
                let t = e.begin().unwrap();
                e.execute(t, &write).unwrap();
                e.commit(t).unwrap();
            })
        };
        // The waiter counts as soon as it queues behind the holder's
        // exclusive page lock; only then let it through.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while e.stats().lock_waits == 0 {
            assert!(std::time::Instant::now() < deadline, "waiter never queued");
            std::thread::yield_now();
        }
        e.commit(holder).unwrap();
        waiter.join().unwrap();
        assert_eq!(e.stats().lock_waits, 1);
    }

    #[test]
    fn deadlock_produces_erroneous_abort() {
        // Force two objects onto different pages with enough buckets, then
        // build the classic crossed ordering.
        let e = std::sync::Arc::new({
            let cfg = TplConfig {
                lock_timeout: Duration::from_millis(500),
                ..TplConfig::default()
            };
            let e = TwoPLEngine::new_at(cfg, SiteId::new(1));
            e.bulk_load(&(0..32).map(|i| (obj(i), v(0))).collect::<Vec<_>>())
                .unwrap();
            e
        });
        // Find two objects on different pages.
        let (a, b) = {
            let store = e.core.store.lock();
            let pa = store.page_of(obj(0));
            let other = (1..32)
                .find(|i| store.page_of(obj(*i)) != pa)
                .expect("64 buckets, 32 objects: some differ");
            (obj(0), obj(other))
        };
        let e1 = e.clone();
        let e2 = e.clone();
        let (a1, b1) = (a, b);
        let h1 = std::thread::spawn(move || {
            let t = e1.begin().unwrap();
            e1.execute(
                t,
                &Op::Write {
                    obj: a1,
                    value: v(1),
                },
            )
            .unwrap();
            std::thread::sleep(Duration::from_millis(30));
            match e1.execute(
                t,
                &Op::Write {
                    obj: b1,
                    value: v(1),
                },
            ) {
                Ok(_) => {
                    e1.commit(t).unwrap();
                    true
                }
                Err(AmcError::Aborted(r)) => {
                    assert!(r.is_erroneous());
                    false
                }
                Err(other) => panic!("unexpected {other}"),
            }
        });
        let h2 = std::thread::spawn(move || {
            let t = e2.begin().unwrap();
            e2.execute(
                t,
                &Op::Write {
                    obj: b,
                    value: v(2),
                },
            )
            .unwrap();
            std::thread::sleep(Duration::from_millis(30));
            match e2.execute(
                t,
                &Op::Write {
                    obj: a,
                    value: v(2),
                },
            ) {
                Ok(_) => {
                    e2.commit(t).unwrap();
                    true
                }
                Err(AmcError::Aborted(r)) => {
                    assert!(r.is_erroneous());
                    false
                }
                Err(other) => panic!("unexpected {other}"),
            }
        });
        let r1 = h1.join().unwrap();
        let r2 = h2.join().unwrap();
        assert!(r1 || r2, "at least one transaction survives the deadlock");
        assert!(
            e.stats().erroneous_aborts >= 1 || (r1 && r2),
            "victim recorded as erroneous abort"
        );
    }

    #[test]
    fn stats_accumulate() {
        let e = engine_with(&[(1, 0)]);
        let t = e.begin().unwrap();
        e.execute(t, &Op::Read { obj: obj(1) }).unwrap();
        e.commit(t).unwrap();
        let t2 = e.begin().unwrap();
        e.abort(t2, AbortReason::Intended).unwrap();
        let s = e.stats();
        assert_eq!(s.begins, 2);
        assert_eq!(s.commits, 1);
        assert_eq!(s.aborts, 1);
        assert_eq!(s.erroneous_aborts, 0);
        assert_eq!(s.ops, 1);
    }

    #[test]
    fn unknown_txn_is_rejected() {
        let e = engine_with(&[]);
        let ghost = LocalTxnId::new(999);
        assert!(matches!(e.commit(ghost), Err(AmcError::UnknownTxn)));
        assert!(matches!(
            e.abort(ghost, AbortReason::Intended),
            Err(AmcError::UnknownTxn)
        ));
        assert!(matches!(
            e.execute(ghost, &Op::Read { obj: obj(1) }),
            Err(AmcError::UnknownTxn)
        ));
        assert_eq!(e.state_of(ghost), None);
    }

    #[test]
    fn operations_rejected_while_down() {
        let e = engine_with(&[(1, 1)]);
        e.crash();
        assert!(matches!(e.begin(), Err(AmcError::SiteDown(_))));
        e.recover().unwrap();
        assert!(e.begin().is_ok());
    }

    #[test]
    fn crashed_site_reports_its_real_id() {
        // Regression: the engine used to report SiteDown(u32::MAX), a
        // sentinel that leaked into error attribution and report tables.
        let e = TwoPLEngine::new_at(TplConfig::default(), SiteId::new(7));
        e.crash();
        match e.begin() {
            Err(AmcError::SiteDown(s)) => assert_eq!(s, SiteId::new(7)),
            other => panic!("expected SiteDown(site-7), got {other:?}"),
        }
        match e.commit(LocalTxnId::new(1)) {
            Err(AmcError::SiteDown(s)) => assert_eq!(s, SiteId::new(7)),
            other => panic!("expected SiteDown(site-7), got {other:?}"),
        }
    }

    #[test]
    fn concurrent_commits_share_group_forces() {
        crate::tests::concurrent_commits_share_group_forces(TwoPLEngine::new_at);
    }

    #[test]
    fn apply_and_prepare_forces_once_and_recovers_like_classic_prepare() {
        // The fast-path entry point: op records and the prepare record must
        // share one log force, and the crash/recovery outcome must be
        // indistinguishable from execute + prepare.
        let e = engine_with(&[(1, 10)]);
        let forces_before = e.log_stats().forces;
        let t = e.begin().unwrap();
        let gtx = GlobalTxnId::new(9);
        let results = e
            .apply_and_prepare(
                t,
                gtx,
                &[
                    Op::Increment {
                        obj: obj(1),
                        delta: 5,
                    },
                    Op::Read { obj: obj(1) },
                ],
            )
            .unwrap();
        assert_eq!(results, vec![OpResult::Done, OpResult::Value(v(15))]);
        assert_eq!(e.state_of(t), Some(LocalRunState::Ready));
        assert_eq!(
            e.log_stats().forces - forces_before,
            1,
            "ops + prepare share a single force"
        );
        // Crash in the ready state: recovery resurrects the piggybacked
        // prepare exactly like a classic one — in doubt, pages re-locked.
        e.crash();
        let report = e.recover().unwrap();
        assert_eq!(report.in_doubt, vec![t]);
        assert_eq!(report.prepared, vec![(gtx, t)], "the prepare names its gtx");
        assert_eq!(e.state_of(t), Some(LocalRunState::Ready));
        e.commit(t).unwrap();
        assert_eq!(e.dump().unwrap().get(&obj(1)), Some(&v(15)));
    }

    #[test]
    fn aborted_prepared_transaction_stays_aborted_across_crash() {
        // The abort of a *prepared* transaction must be durable before the
        // call returns: the coordinator collects our Finished ack and never
        // retransmits the decision again, so a crash that lost a volatile
        // abort would resurrect the transaction in doubt with nobody left
        // to resolve it — its applied ops leaking into the dump forever.
        let e = engine_with(&[(1, 10)]);
        let t = e.begin().unwrap();
        let gtx = GlobalTxnId::new(4);
        e.apply_and_prepare(
            t,
            gtx,
            &[Op::Increment {
                obj: obj(1),
                delta: 5,
            }],
        )
        .unwrap();
        let forces_before = e.log_stats().forces;
        e.abort(t, AbortReason::GlobalDecision).unwrap();
        assert_eq!(
            e.log_stats().forces - forces_before,
            1,
            "the abort of a prepared transaction must force"
        );
        e.crash();
        let report = e.recover().unwrap();
        assert!(report.in_doubt.is_empty(), "{report:?}");
        // Decided or not, the pair is reported: a duplicate decision after a
        // restart still finds the local transaction it names.
        assert_eq!(report.prepared, vec![(gtx, t)]);
        assert_eq!(e.state_of(t), Some(LocalRunState::Aborted));
        assert_eq!(e.dump().unwrap().get(&obj(1)), Some(&v(10)));
    }

    #[test]
    fn only_a_named_classic_prepare_is_reported_with_its_gtx() {
        // `prepare` and `prepare_as` write the same durable ready state;
        // only the name differs. Both come back in doubt, but recovery can
        // pair only the named one with its global transaction.
        let e = engine_with(&[(1, 10), (2, 20)]);
        let bump = |o| Op::Increment {
            obj: obj(o),
            delta: 1,
        };
        let unnamed = e.begin().unwrap();
        e.execute(unnamed, &bump(1)).unwrap();
        e.prepare(unnamed).unwrap();
        let named = e.begin().unwrap();
        e.execute(named, &bump(2)).unwrap();
        let gtx = GlobalTxnId::new(77);
        e.prepare_as(named, gtx).unwrap();
        e.crash();
        let report = e.recover().unwrap();
        let mut in_doubt = report.in_doubt.clone();
        in_doubt.sort();
        assert_eq!(in_doubt, vec![unnamed, named]);
        assert_eq!(report.prepared, vec![(gtx, named)]);
        for t in [unnamed, named] {
            assert_eq!(e.state_of(t), Some(LocalRunState::Ready));
            e.commit(t).unwrap();
        }
        let d = e.dump().unwrap();
        assert_eq!((d[&obj(1)], d[&obj(2)]), (v(11), v(21)));
    }

    #[test]
    fn apply_and_prepare_engine_abort_leaves_no_prepare() {
        // An engine-initiated failure mid-ops must leave the transaction
        // rolled back with no durable prepare record.
        let e = engine_with(&[(1, 10)]);
        let t = e.begin().unwrap();
        let err = e
            .apply_and_prepare(
                t,
                GlobalTxnId::new(1),
                &[
                    Op::Increment {
                        obj: obj(1),
                        delta: 5,
                    },
                    Op::Read { obj: obj(99) },
                ],
            )
            .expect_err("object 99 does not exist");
        assert!(matches!(err, AmcError::NotFound(_)));
        // Logical errors keep the transaction running; abort it and verify
        // nothing prepared survives a crash.
        e.abort(t, AbortReason::Intended).unwrap();
        e.crash();
        let report = e.recover().unwrap();
        assert!(report.in_doubt.is_empty(), "{report:?}");
        assert_eq!(e.dump().unwrap().get(&obj(1)), Some(&v(10)));
    }

    /// An uncommitted write that eviction steals to the disk does not
    /// survive a crash: its page goes to the disk only behind its durable
    /// log record, which recovery then undoes.
    #[test]
    fn a_stolen_uncommitted_write_is_undone_after_a_crash() {
        let cfg = TplConfig {
            buckets: 4,
            pool_frames: 2,
            ..TplConfig::default()
        };
        let e = TwoPLEngine::new_at(cfg, SiteId::new(1));
        e.bulk_load(&(0..3000).map(|o| (obj(o), v(10))).collect::<Vec<_>>())
            .unwrap();
        let t = e.begin().unwrap();
        let write = Op::Write {
            obj: obj(1),
            value: v(42),
        };
        e.execute(t, &write).unwrap();
        // Reads of every other page evict T's dirty frame.
        let writebacks = e.io_stats().1.writebacks;
        let page = |o: u64| PageStore::bucket_page(4, obj(o));
        let reader = e.begin().unwrap();
        for o in (2..3000).filter(|o| page(*o) != page(1)) {
            e.execute(reader, &Op::Read { obj: obj(o) }).unwrap();
        }
        assert!(
            e.io_stats().1.writebacks > writebacks,
            "T's page was stolen"
        );
        e.crash();
        let report = e.recover().unwrap();
        assert_eq!(e.dump().unwrap()[&obj(1)], v(10));
        assert_eq!(report.rolled_back, vec![t]);
    }

    /// Bytes the stable log holds.
    fn log_bytes(e: &TwoPLEngine) -> u64 {
        let s = e.log_stats();
        s.stable_bytes - s.truncated_bytes
    }

    /// A 2-frame pool cuts its log every 8 KB. A seeded mix of
    /// transactions that commit, abort, or prepare and then hear a
    /// decision runs through more than ten cuts, crashing every 50th step
    /// and right after each cut that open transactions with writes span.
    /// After each recovery the dump equals the model (committed state plus
    /// what the in-doubt transactions wrote), the in-doubt transactions
    /// hold exactly the pages they wrote, and the stable log never exceeds
    /// twice the pool.
    #[test]
    fn crashes_across_cuts_recover_the_model_and_keep_the_log_short() {
        #[derive(PartialEq)]
        enum Phase {
            Running,
            Prepared,
        }
        struct Open {
            txn: LocalTxnId,
            phase: Phase,
            /// What it wrote: the value each object holds in its view.
            writes: BTreeMap<ObjectId, Option<Value>>,
            /// Pages it touched, so no other open transaction waits on it.
            pages: Vec<PageId>,
        }
        let cfg = TplConfig {
            buckets: 8,
            pool_frames: 2,
            ..TplConfig::default()
        };
        let buckets = cfg.buckets;
        let bound = 2 * crate::core::cut_every(&cfg);
        let e = TwoPLEngine::new_at(cfg, SiteId::new(1));
        let mut model: BTreeMap<ObjectId, Value> = (0..400).map(|o| (obj(o), v(0))).collect();
        e.bulk_load(&model.iter().map(|(o, val)| (*o, *val)).collect::<Vec<_>>())
            .unwrap();
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |n: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % n
        };
        let mut open: Vec<Open> = Vec::new();
        let (mut cuts, mut truncated, mut crashes) = (0, 0, 0);
        // Open transactions with writes at the last cut, and the crashes
        // that found one of them still running or prepared.
        let (mut spanning, mut crash_next) = (Vec::new(), false);
        let (mut killed_across, mut in_doubt_across) = (0, 0);
        for step in 1..=10_000u64 {
            if step % 50 == 0 || std::mem::take(&mut crash_next) {
                e.crash();
                crashes += 1;
                for o in open.iter().filter(|o| spanning.contains(&o.txn)) {
                    match o.phase {
                        Phase::Running => killed_across += 1,
                        Phase::Prepared => in_doubt_across += 1,
                    }
                }
                open.retain(|o| o.phase == Phase::Prepared);
                let report = e.recover().unwrap();
                let mut expect: Vec<LocalTxnId> = open.iter().map(|o| o.txn).collect();
                expect.sort();
                assert_eq!(report.in_doubt, expect, "step {step}");
                let mut view = model.clone();
                let mut locked = 0;
                for o in &open {
                    for (obj, val) in &o.writes {
                        match val {
                            Some(val) => view.insert(*obj, *val),
                            None => view.remove(obj),
                        };
                    }
                    let mut wrote: Vec<PageId> = o
                        .writes
                        .keys()
                        .map(|obj| PageStore::bucket_page(buckets, *obj))
                        .collect();
                    wrote.sort();
                    wrote.dedup();
                    let mut held = e.core.txns.lock().active[&o.txn].held.clone();
                    held.sort();
                    assert_eq!(held, wrote, "step {step}: {}'s page locks", o.txn);
                    locked += wrote.len();
                }
                assert_eq!(e.locks.granted_count(), locked, "step {step}");
                assert_eq!(e.dump().unwrap(), view, "step {step}");
            } else if open.len() < 3 && next(3) == 0 {
                let txn = e.begin().unwrap();
                let (writes, pages) = (BTreeMap::new(), Vec::new());
                let phase = Phase::Running;
                open.push(Open {
                    txn,
                    phase,
                    writes,
                    pages,
                });
            } else if !open.is_empty() {
                let i = next(open.len() as u64) as usize;
                let roll = next(100);
                // An object on no page another open transaction touched.
                let free = |o: &ObjectId| {
                    let page = PageStore::bucket_page(buckets, *o);
                    let mine = |j: usize| j == i || !open[j].pages.contains(&page);
                    (0..open.len()).all(mine)
                };
                let target = (0..20).map(|_| obj(next(500))).find(free);
                let t = &mut open[i];
                if let Some(o) = target.filter(|_| t.phase == Phase::Running && roll < 60) {
                    let seen = t.writes.get(&o).copied().unwrap_or(model.get(&o).copied());
                    let op = match (seen, next(4)) {
                        (None, _) => Op::Insert {
                            obj: o,
                            value: v(next(1000) as i64),
                        },
                        (Some(_), 0) => Op::Read { obj: o },
                        (Some(_), 1) => Op::Delete { obj: o },
                        (Some(_), 2) => Op::Write {
                            obj: o,
                            value: v(next(1000) as i64),
                        },
                        (Some(_), _) => Op::Increment {
                            obj: o,
                            delta: next(9) as i64 - 4,
                        },
                    };
                    e.execute(t.txn, &op).unwrap();
                    t.pages.push(PageStore::bucket_page(buckets, o));
                    if op.is_update() {
                        t.writes.insert(o, op.applied_to(seen).unwrap());
                    }
                } else if t.phase == Phase::Running && roll < 75 {
                    e.prepare(t.txn).unwrap();
                    t.phase = Phase::Prepared;
                } else if roll < 85 {
                    e.abort(t.txn, AbortReason::Intended).unwrap();
                    open.remove(i);
                } else {
                    e.commit(t.txn).unwrap();
                    for (o, val) in &t.writes {
                        match val {
                            Some(val) => model.insert(*o, *val),
                            None => model.remove(o),
                        };
                    }
                    open.remove(i);
                }
            }
            let now = e.log_stats().truncated_bytes;
            if now > truncated {
                cuts += 1;
                truncated = now;
                let wrote = open.iter().filter(|o| !o.writes.is_empty());
                spanning = wrote.map(|o| o.txn).collect();
                crash_next = !spanning.is_empty();
            }
            assert!(log_bytes(&e) <= bound, "step {step}: {} B", log_bytes(&e));
        }
        assert!(cuts >= 10, "{cuts} cuts");
        assert!(crashes > 100, "{crashes} crashes");
        assert!(
            killed_across > 0 && in_doubt_across > 0,
            "crashes across cuts: {killed_across} killed, {in_doubt_across} in doubt"
        );
    }

    /// A co-located acceptor's rows share the log: no cut passes the
    /// first, so a remount replays them all.
    #[test]
    fn cuts_keep_every_acceptor_row() {
        use amc_types::{Ballot, GlobalVerdict};
        let e = TwoPLEngine::new_at(
            TplConfig {
                pool_frames: 2,
                ..TplConfig::default()
            },
            SiteId::new(1),
        );
        e.bulk_load(&(0..64).map(|o| (obj(o), v(0))).collect::<Vec<_>>())
            .unwrap();
        let bump = |n: u64| {
            let t = e.begin().unwrap();
            let inc = Op::Increment {
                obj: obj(n % 64),
                delta: 1,
            };
            e.execute(t, &inc).unwrap();
            e.commit(t).unwrap();
        };
        // Cut before the first row ...
        (0..200).for_each(bump);
        let cut = e.log_stats().truncated_bytes;
        assert!(cut > 0, "the log was cut");
        let acceptor_rows = |e: &TwoPLEngine| -> Vec<LogRecord> {
            let records = e.wal().with_log(|log| log.stable_records()).unwrap();
            let rows = records.into_iter().map(|(_, r)| r);
            rows.filter(|r| r.txn().is_none() && !matches!(r, LogRecord::Checkpoint { .. }))
                .collect()
        };
        // ... and never past it.
        let mut rows = Vec::new();
        for n in 200..600u64 {
            if n % 40 == 0 {
                let gtx = GlobalTxnId::new(n);
                let row = match n % 80 {
                    0 => LogRecord::Accept {
                        gtx,
                        site: SiteId::new(1),
                        ballot: Ballot::ZERO,
                        prepared: true,
                    },
                    _ => LogRecord::Decision {
                        gtx,
                        verdict: GlobalVerdict::Commit,
                    },
                };
                assert!(e.wal().append_durable(&row));
                rows.push(row);
            }
            bump(n);
        }
        assert_eq!(acceptor_rows(&e), rows);
        e.crash();
        e.recover().unwrap();
        assert_eq!(acceptor_rows(&e), rows);
        let total: i64 = e.dump().unwrap().values().map(|val| val.counter).sum();
        assert_eq!(total, 600);
    }

    /// A loser of one recovery is undone once: a second crash, after a
    /// later transaction committed over the same object, redoes that
    /// commit and leaves the loser alone.
    #[test]
    fn a_loser_is_not_undone_again_by_a_later_recovery() {
        let e = engine_with(&[(1, 10), (2, 0)]);
        let loser = e.begin().unwrap();
        let write = |val| Op::Write {
            obj: obj(1),
            value: v(val),
        };
        e.execute(loser, &write(20)).unwrap();
        // Another commit forces the loser's record with its own.
        let other = e.begin().unwrap();
        let bump = Op::Increment {
            obj: obj(2),
            delta: 1,
        };
        e.execute(other, &bump).unwrap();
        e.commit(other).unwrap();
        e.crash();
        assert_eq!(e.recover().unwrap().rolled_back, vec![loser]);
        let t = e.begin().unwrap();
        e.execute(t, &write(30)).unwrap();
        e.commit(t).unwrap();
        e.crash();
        assert!(e.recover().unwrap().rolled_back.is_empty());
        assert_eq!(e.dump().unwrap()[&obj(1)], v(30));
    }

    /// The same loser across two process restarts of a durable site: the
    /// first reopen rolls it back and logs what it undid, so the second
    /// finds it finished and keeps the later commit.
    #[test]
    fn a_forced_loser_stays_rolled_back_across_two_reopens() {
        let dir = std::env::temp_dir().join(format!("amc-tpl-loser-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("loser.wal");
        let _ = std::fs::remove_file(&path);
        let open = || TwoPLEngine::open_durable(TplConfig::default(), SiteId::new(3), &path);
        let write = |val| Op::Write {
            obj: obj(1),
            value: v(val),
        };
        let loser = {
            let (e, _) = open().unwrap();
            e.bulk_load(&[(obj(1), v(10)), (obj(2), v(0))]).unwrap();
            let loser = e.begin().unwrap();
            e.execute(loser, &write(20)).unwrap();
            // A concurrent commit forces the running write with its own.
            let other = e.begin().unwrap();
            let bump = Op::Increment {
                obj: obj(2),
                delta: 1,
            };
            e.execute(other, &bump).unwrap();
            e.commit(other).unwrap();
            loser
        };
        {
            let (e, report) = open().unwrap();
            assert_eq!(report.rolled_back, vec![loser]);
            assert_eq!(e.dump().unwrap()[&obj(1)], v(10));
            let t = e.begin().unwrap();
            e.execute(t, &write(30)).unwrap();
            e.commit(t).unwrap();
        }
        let (e, report) = open().unwrap();
        assert!(report.rolled_back.is_empty(), "{report:?}");
        assert_eq!(e.dump().unwrap()[&obj(1)], v(30));
        assert_eq!(e.dump().unwrap()[&obj(2)], v(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn double_crash_recover_cycles() {
        let e = engine_with(&[(1, 1)]);
        for round in 0..3 {
            let t = e.begin().unwrap();
            e.execute(
                t,
                &Op::Increment {
                    obj: obj(1),
                    delta: 1,
                },
            )
            .unwrap();
            e.commit(t).unwrap();
            e.crash();
            e.recover().unwrap();
            assert_eq!(
                e.dump().unwrap().get(&obj(1)),
                Some(&v(2 + round)),
                "round {round}"
            );
        }
    }

    // The crash and reopen bodies are shared with `occ::tests`, one body
    // over both schedulers, in the crate's test module.
    #[test]
    fn committed_state_survives_crash() {
        crate::tests::committed_state_survives_crash(&engine_with(&[]));
    }

    #[test]
    fn invisible_uncommitted_work_vanishes_on_crash() {
        crate::tests::uncommitted_work_vanishes_on_crash(&engine_with(&[]));
    }

    /// The second transaction prepares, so the reopen finds it in doubt
    /// and a commit decided after it stands across a second reopen.
    #[test]
    fn reopen_from_durable_log_recovers_committed_and_in_doubt() {
        crate::tests::reopen_recovers(
            "2pl",
            |path| TwoPLEngine::open_durable(TplConfig::default(), SiteId::new(3), path),
            |e, t| e.prepare(t).map(|()| true).unwrap(),
        );
    }
}
