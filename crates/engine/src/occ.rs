//! The optimistic (backward-validation) engine.
//!
//! The second "existing system" flavour: no read locks, private write
//! buffers, and a validation phase at commit — the paper explicitly lists
//! "aborted ... by an optimistic scheduler since the transaction did not
//! survive the validation phase" among the §3.2 erroneous-abort sources.
//!
//! Crucially, this engine **cannot implement a ready state**: between
//! validation and commit there is nothing to pause (validation *is* the
//! commit decision), so it implements only [`LocalEngine`], never
//! [`PreparableEngine`](crate::api::PreparableEngine). A federation that
//! contains one of these cannot run classical 2PC — the motivating fact of
//! the whole paper.
//!
//! The scheduler is a table of commit stamps and a write buffer per
//! transaction over the same engine core as 2PL: its store, group
//! committer, cut and recovery. Every read and every commit holds the
//! core's transaction table, so validation, apply, the appended `Commit`
//! and the stamp are one critical section against readers and validators.
//! The force is waited for outside it, so concurrent commits share one;
//! a commit that read a write answers only once that write's `Commit` is
//! durable too, read-only or not.

use crate::api::{EngineStats, LocalEngine, RecoveryReport};
use crate::core::{self, Core, Live};
use crate::tpl::TplConfig;
use amc_types::{
    AbortReason, AmcError, AmcResult, LocalRunState, LocalTxnId, ObjectId, OpResult, Operation,
    SiteId, Value,
};
use amc_wal::LogRecord;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Per-transaction private workspace.
#[derive(Debug, Default)]
struct OccTxn {
    /// Object -> the commit stamp current at its first read.
    reads: HashMap<ObjectId, u64>,
    /// The stamp of the transaction's first read, its earliest.
    since: Option<u64>,
    /// Buffered writes: `None` = delete.
    writes: BTreeMap<ObjectId, Option<Value>>,
}

/// What validation reads: per object, the stamp of its last commit since
/// the last crash, kept only while a live transaction may have read the
/// object before it.
#[derive(Debug, Default)]
struct Versions {
    /// Logged commits so far: the stamp of the latest.
    clock: u64,
    last: HashMap<ObjectId, u64>,
    /// `last`'s entries in stamp order, for [`Versions::forget_through`].
    order: VecDeque<(u64, ObjectId)>,
}

impl Versions {
    /// Stamp `objs` as committed now.
    fn commit(&mut self, objs: impl Iterator<Item = ObjectId>) {
        self.clock += 1;
        for obj in objs {
            self.last.insert(obj, self.clock);
            self.order.push_back((self.clock, obj));
        }
    }

    /// Drop the commits no validation can find any more: those stamped at
    /// or before `oldest`, the earliest read of a live transaction (none:
    /// every commit so far).
    fn forget_through(&mut self, oldest: Option<u64>) {
        let oldest = oldest.unwrap_or(self.clock);
        while let Some(&(stamp, obj)) = self.order.front().filter(|(s, _)| *s <= oldest) {
            self.order.pop_front();
            if self.last.get(&obj) == Some(&stamp) {
                self.last.remove(&obj);
            }
        }
    }
}

impl Live for OccTxn {
    fn state(&self) -> LocalRunState {
        LocalRunState::Running
    }
}

/// An optimistic local database engine.
pub struct OccEngine {
    core: Core<OccTxn>,
    /// Taken only under the core's transaction table.
    versions: Mutex<Versions>,
}

impl OccEngine {
    fn over(core: Core<OccTxn>) -> Self {
        let versions = Mutex::default();
        OccEngine { core, versions }
    }

    /// A fresh engine over a fresh simulated disk, serving `site`.
    pub fn new_at(cfg: TplConfig, site: SiteId) -> Self {
        Self::over(Core::new(cfg, site))
    }

    /// Open an engine over the durable frame file at `path`, replaying the
    /// committed work an earlier process left (OCC has no ready state).
    pub fn open_durable(
        cfg: TplConfig,
        site: SiteId,
        path: impl AsRef<std::path::Path>,
    ) -> AmcResult<(Self, RecoveryReport)> {
        core::open_durable(cfg, site, path, Self::over)
    }

    /// The stamps live in memory: a crash loses them, and every reader.
    fn after_crash(&self, _: Vec<LocalTxnId>) {
        *self.versions.lock() = Versions::default();
    }
}

impl LocalEngine for OccEngine {
    core::answered_by_the_core!();

    fn begin(&self) -> AmcResult<LocalTxnId> {
        self.core.begin(OccTxn::default())
    }

    fn execute(&self, txn: LocalTxnId, op: &Operation) -> AmcResult<OpResult> {
        let mut txns = self.core.txns.lock();
        if !txns.up {
            return Err(self.core.site_down());
        }
        let table = &mut *txns;
        let ctx = table.active.get_mut(&txn).ok_or(AmcError::UnknownTxn)?;
        table.stats.ops += 1;
        // The value `txn` sees: its own buffered write, else the committed
        // value, whose stamp joins the read set.
        let obj = op.object();
        let seen = match ctx.writes.get(&obj) {
            Some(buffered) => *buffered,
            None => {
                let stamp = self.versions.lock().clock;
                ctx.reads.entry(obj).or_insert(stamp);
                ctx.since.get_or_insert(stamp);
                self.core.store.lock().get(obj)?
            }
        };
        let next = op.applied_to(seen)?;
        if !op.is_update() {
            return Ok(OpResult::Value(next.expect("a read leaves what it found")));
        }
        ctx.writes.insert(obj, next);
        Ok(OpResult::Done)
    }

    fn commit(&self, txn: LocalTxnId) -> AmcResult<()> {
        let core = &self.core;
        let mut txns = core.txns.lock();
        if !txns.up {
            return Err(core.site_down());
        }
        let ctx = txns.active.remove(&txn).ok_or(AmcError::UnknownTxn)?;
        let mut versions = self.versions.lock();
        // Backward validation: nothing it read was committed since.
        let stale = |(obj, stamp)| versions.last.get(obj).is_some_and(|last| last > stamp);
        if ctx.reads.iter().any(stale) {
            txns.aborted(txn, true);
            return Err(AmcError::Aborted(AbortReason::ValidationFailed));
        }
        // What must be durable before the commit answers: its own
        // `Commit`, else every write it may have read. Commits append only
        // here, under `txns`, so the log's head now covers those.
        let mut durable = (!ctx.reads.is_empty()).then(|| core.wal.mark());
        if !ctx.writes.is_empty() {
            {
                let mut store = core.store.lock();
                for (&obj, &after) in &ctx.writes {
                    core.write(&mut store, txn, obj, |_| Ok(after))?;
                }
            }
            durable = Some(core.wal.append_commit(&LogRecord::Commit { txn }));
            versions.commit(ctx.writes.keys().copied());
        }
        versions.forget_through(txns.active.values().filter_map(|t| t.since).min());
        drop((versions, txns));
        if durable.is_some_and(|mark| !core.wal.wait_durable(mark)) {
            // A crash struck before the mark was forced: its own `Commit`,
            // or a write it read, may be gone, so it never happened.
            return Err(core.site_down());
        }
        let mut txns = core.txns.lock();
        txns.terminated.insert(txn, LocalRunState::Committed);
        txns.stats.commits += 1;
        drop(txns);
        core.cut_if_due();
        Ok(())
    }

    fn abort(&self, txn: LocalTxnId, reason: AbortReason) -> AmcResult<()> {
        let mut txns = self.core.txns.lock();
        if !txns.up {
            return Err(self.core.site_down());
        }
        // Nothing of it reached the store or the log.
        txns.active.remove(&txn).ok_or(AmcError::UnknownTxn)?;
        txns.aborted(txn, reason.is_erroneous());
        Ok(())
    }

    fn recover(&self) -> AmcResult<RecoveryReport> {
        // OCC logs nothing before its commit, so no transaction is in doubt.
        Ok(self.core.recover(|_, _, _, _| ())?.0)
    }

    fn kind(&self) -> &'static str {
        "occ"
    }

    fn stats(&self) -> EngineStats {
        self.core.txns.lock().stats
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

    fn engine_with(data: &[(u64, i64)]) -> OccEngine {
        let e = OccEngine::new_at(TplConfig::default(), SiteId::new(1));
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
    fn basic_roundtrip() {
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
        // Reads-own-writes through the buffer.
        assert_eq!(
            e.execute(t, &Op::Read { obj: obj(1) }).unwrap(),
            OpResult::Value(v(20))
        );
        // Not visible to others before commit.
        let t2 = e.begin().unwrap();
        assert_eq!(
            e.execute(t2, &Op::Read { obj: obj(1) }).unwrap(),
            OpResult::Value(v(10))
        );
        e.commit(t).unwrap();
        assert_eq!(e.dump().unwrap().get(&obj(1)), Some(&v(20)));
    }

    #[test]
    fn stale_reader_fails_validation() {
        let e = engine_with(&[(1, 10)]);
        let reader = e.begin().unwrap();
        e.execute(reader, &Op::Read { obj: obj(1) }).unwrap();
        // A writer slips in and commits.
        let writer = e.begin().unwrap();
        e.execute(
            writer,
            &Op::Write {
                obj: obj(1),
                value: v(11),
            },
        )
        .unwrap();
        e.commit(writer).unwrap();
        // The reader also wrote something, so its serialization point
        // matters; validation must kill it.
        e.execute(
            reader,
            &Op::Write {
                obj: obj(2),
                value: v(1),
            },
        )
        .unwrap_err(); // obj 2 does not exist -> NotFound, fine
        e.execute(
            reader,
            &Op::Increment {
                obj: obj(1),
                delta: 1,
            },
        )
        .unwrap();
        let err = e.commit(reader).unwrap_err();
        assert_eq!(err, AmcError::Aborted(AbortReason::ValidationFailed));
        assert_eq!(e.state_of(reader), Some(LocalRunState::Aborted));
        // The blind writer's value stands.
        assert_eq!(e.dump().unwrap().get(&obj(1)), Some(&v(11)));
        assert_eq!(e.stats().erroneous_aborts, 1);
    }

    /// Stamps stay while a live reader may validate against them, and go
    /// once none can: a long-lived reader still fails on a commit made
    /// after its first read, however many others came and went.
    #[test]
    fn stamps_last_only_as_long_as_a_live_read_predates_them() {
        let e = engine_with(&[(1, 10), (2, 20)]);
        let kept = || {
            let versions = e.versions.lock();
            (versions.last.len(), versions.order.len())
        };
        let bump = |o| {
            let t = e.begin().unwrap();
            e.execute(
                t,
                &Op::Increment {
                    obj: obj(o),
                    delta: 1,
                },
            )
            .unwrap();
            e.commit(t)
        };
        bump(1).unwrap();
        assert_eq!(kept(), (0, 0), "no live reader: nothing kept");
        let reader = e.begin().unwrap();
        e.execute(reader, &Op::Read { obj: obj(2) }).unwrap();
        bump(1).unwrap();
        bump(1).unwrap();
        bump(2).unwrap();
        assert_eq!(kept(), (2, 3), "every commit after the read is kept");
        let err = e.commit(reader).unwrap_err();
        assert_eq!(err, AmcError::Aborted(AbortReason::ValidationFailed));
        bump(1).unwrap();
        assert_eq!(kept(), (0, 0), "the reader is gone");
    }

    #[test]
    fn non_conflicting_transactions_both_commit() {
        let e = engine_with(&[(1, 10), (2, 20)]);
        let a = e.begin().unwrap();
        let b = e.begin().unwrap();
        e.execute(
            a,
            &Op::Increment {
                obj: obj(1),
                delta: 1,
            },
        )
        .unwrap();
        e.execute(
            b,
            &Op::Increment {
                obj: obj(2),
                delta: 1,
            },
        )
        .unwrap();
        e.commit(a).unwrap();
        e.commit(b).unwrap();
        let d = e.dump().unwrap();
        assert_eq!(d.get(&obj(1)), Some(&v(11)));
        assert_eq!(d.get(&obj(2)), Some(&v(21)));
    }

    #[test]
    fn concurrent_increments_conflict_under_occ() {
        // Unlike the 2PL engine + L1 increment locks, plain OCC treats an
        // increment as read-modify-write: one of two concurrent increments
        // must fail validation.
        let e = engine_with(&[(1, 0)]);
        let a = e.begin().unwrap();
        let b = e.begin().unwrap();
        e.execute(
            a,
            &Op::Increment {
                obj: obj(1),
                delta: 1,
            },
        )
        .unwrap();
        e.execute(
            b,
            &Op::Increment {
                obj: obj(1),
                delta: 1,
            },
        )
        .unwrap();
        e.commit(a).unwrap();
        assert_eq!(
            e.commit(b).unwrap_err(),
            AmcError::Aborted(AbortReason::ValidationFailed)
        );
        assert_eq!(e.dump().unwrap().get(&obj(1)), Some(&v(1)));
    }

    #[test]
    fn abort_discards_buffers() {
        let e = engine_with(&[(1, 10)]);
        let t = e.begin().unwrap();
        e.execute(
            t,
            &Op::Write {
                obj: obj(1),
                value: v(99),
            },
        )
        .unwrap();
        e.abort(t, AbortReason::Intended).unwrap();
        assert_eq!(e.dump().unwrap().get(&obj(1)), Some(&v(10)));
    }

    #[test]
    fn read_only_transaction_never_validates_writes() {
        let e = engine_with(&[(1, 10)]);
        let t = e.begin().unwrap();
        e.execute(t, &Op::Read { obj: obj(1) }).unwrap();
        // Another writer commits.
        let w = e.begin().unwrap();
        e.execute(
            w,
            &Op::Write {
                obj: obj(1),
                value: v(11),
            },
        )
        .unwrap();
        e.commit(w).unwrap();
        // Backward validation kills the stale reader too (its read is part
        // of its serialization footprint).
        assert!(e.commit(t).is_err());
    }

    #[test]
    fn delete_and_insert_via_buffer() {
        let e = engine_with(&[(1, 10)]);
        let t = e.begin().unwrap();
        e.execute(t, &Op::Delete { obj: obj(1) }).unwrap();
        assert!(matches!(
            e.execute(t, &Op::Read { obj: obj(1) }),
            Err(AmcError::NotFound(_))
        ));
        e.execute(
            t,
            &Op::Insert {
                obj: obj(1),
                value: v(5),
            },
        )
        .unwrap();
        e.commit(t).unwrap();
        assert_eq!(e.dump().unwrap().get(&obj(1)), Some(&v(5)));
    }

    // The crash and reopen bodies are shared with `tpl::tests`, one body
    // over both schedulers, in the crate's test module.
    #[test]
    fn committed_state_survives_crash() {
        crate::tests::committed_state_survives_crash(&engine_with(&[]));
    }

    #[test]
    fn concurrent_commits_share_group_forces() {
        crate::tests::concurrent_commits_share_group_forces(OccEngine::new_at);
    }

    /// A commit waits for its force outside the locks, so a reader can see
    /// a write whose `Commit` is still being forced. The reader's own
    /// commit answers only after that force: a crash right after it
    /// keeps the write it read.
    #[test]
    fn a_reader_commits_only_once_the_write_it_read_is_durable() {
        let cfg = TplConfig {
            group_commit: amc_wal::GroupCommitConfig {
                force_latency: std::time::Duration::from_millis(50),
            },
            ..TplConfig::default()
        };
        let e = std::sync::Arc::new(OccEngine::new_at(cfg, SiteId::new(1)));
        e.bulk_load(&[(obj(1), v(10))]).unwrap();
        let w = e.begin().unwrap();
        e.execute(
            w,
            &Op::Increment {
                obj: obj(1),
                delta: 1,
            },
        )
        .unwrap();
        let writer = {
            let e = e.clone();
            // Its answer is lost to the crash below either way.
            std::thread::spawn(move || drop(e.commit(w)))
        };
        loop {
            let r = e.begin().unwrap();
            if e.execute(r, &Op::Read { obj: obj(1) }).unwrap() == OpResult::Value(v(11)) {
                e.commit(r).unwrap();
                break;
            }
            e.abort(r, AbortReason::Intended).unwrap();
            std::thread::yield_now();
        }
        e.crash();
        writer.join().unwrap();
        e.recover().unwrap();
        assert_eq!(e.dump().unwrap()[&obj(1)], v(11));
    }

    #[test]
    fn active_transactions_die_on_crash() {
        crate::tests::uncommitted_work_vanishes_on_crash(&engine_with(&[]));
    }

    /// OCC has no ready state: its second transaction is still running
    /// when the process dies, and dies with it.
    #[test]
    fn reopen_from_durable_log_recovers_committed_state() {
        crate::tests::reopen_recovers(
            "occ",
            |path| OccEngine::open_durable(TplConfig::default(), SiteId::new(3), path),
            |_, _| false,
        );
    }
}
