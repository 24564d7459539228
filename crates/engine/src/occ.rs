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

use crate::api::{first_id_after, EngineStats, LocalEngine, RecoveryReport, Terminated};
use amc_storage::PageStore;
use amc_types::SiteId;
use amc_types::{
    AbortReason, AmcError, AmcResult, LocalRunState, LocalTxnId, ObjectId, OpResult, Operation,
    Value,
};
use amc_wal::{LogManager, LogRecord};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU32, Ordering};

/// Per-transaction private workspace.
#[derive(Debug, Default)]
struct OccTxn {
    /// Object -> version observed at first read.
    reads: HashMap<ObjectId, u64>,
    /// Buffered writes: `None` = delete.
    writes: BTreeMap<ObjectId, Option<Value>>,
}

struct Inner {
    store: PageStore,
    log: LogManager,
    /// Committed version per object (bumped on each committed write).
    versions: HashMap<ObjectId, u64>,
    version_clock: u64,
    active: HashMap<LocalTxnId, OccTxn>,
    terminated: Terminated,
    next_txn: u64,
    up: bool,
    stats: EngineStats,
}

/// An optimistic local database engine.
pub struct OccEngine {
    inner: Mutex<Inner>,
    /// The site this engine serves, carried in `SiteDown` errors so report
    /// tables attribute failures to the real site (0 = unattached).
    site: AtomicU32,
}

impl OccEngine {
    /// An engine over a fresh simulated disk and `log`, serving `site`.
    fn over(buckets: u32, pool_frames: usize, site: SiteId, log: LogManager, up: bool) -> Self {
        OccEngine {
            inner: Mutex::new(Inner {
                store: PageStore::new(buckets, pool_frames),
                log,
                versions: HashMap::new(),
                version_clock: 1,
                active: HashMap::new(),
                terminated: Terminated::default(),
                next_txn: 1,
                up,
                stats: EngineStats::default(),
            }),
            site: AtomicU32::new(site.raw()),
        }
    }

    /// A fresh engine with `buckets` hash buckets and `pool_frames` buffer
    /// frames, serving `site`.
    pub fn new_at(buckets: u32, pool_frames: usize, site: SiteId) -> Self {
        Self::over(buckets, pool_frames, site, LogManager::new(), true)
    }

    /// Open an engine over the durable frame file at `path`, replaying the
    /// committed work an earlier process left (OCC has no ready state).
    pub fn open_durable(
        buckets: u32,
        pool_frames: usize,
        site: SiteId,
        path: impl AsRef<std::path::Path>,
    ) -> AmcResult<(Self, RecoveryReport)> {
        // Down until recover() replays the log and re-opens the door.
        let log = LogManager::open_durable(path)?;
        let engine = Self::over(buckets, pool_frames, site, log, false);
        let report = engine.recover()?;
        Ok((engine, report))
    }

    fn site_down(&self) -> AmcError {
        AmcError::SiteDown(SiteId::new(self.site.load(Ordering::Relaxed)))
    }

    /// Shared crash path: `partial` carries `(keep_frames, torn)` when the
    /// crash strikes mid-`force()`, persisting part of the log tail.
    fn crash_impl(&self, partial: Option<(u32, bool)>) {
        let mut inner = self.inner.lock();
        inner.up = false;
        inner.store.crash();
        match partial {
            Some((keep, torn)) => inner.log.crash_during_force(keep as usize, torn),
            None => inner.log.crash(),
        }
        inner.versions.clear();
        for t in std::mem::take(&mut inner.active).into_keys() {
            inner.terminated.insert(t, LocalRunState::Aborted);
            inner.stats.aborts += 1;
            inner.stats.erroneous_aborts += 1;
        }
    }

    /// The value `txn` sees: its own buffered write, else the committed
    /// value, whose version joins the read set.
    fn buffered_get(inner: &mut Inner, txn: LocalTxnId, obj: ObjectId) -> AmcResult<Option<Value>> {
        let version = inner.versions.get(&obj).copied().unwrap_or(0);
        let ctx = inner.active.get_mut(&txn).expect("caller verified");
        if let Some(buffered) = ctx.writes.get(&obj) {
            return Ok(*buffered);
        }
        ctx.reads.entry(obj).or_insert(version);
        inner.store.get(obj)
    }
}

impl LocalEngine for OccEngine {
    fn begin(&self) -> AmcResult<LocalTxnId> {
        let mut inner = self.inner.lock();
        if !inner.up {
            return Err(self.site_down());
        }
        let txn = LocalTxnId::new(inner.next_txn);
        inner.next_txn += 1;
        inner.active.insert(txn, OccTxn::default());
        inner.stats.begins += 1;
        Ok(txn)
    }

    fn execute(&self, txn: LocalTxnId, op: &Operation) -> AmcResult<OpResult> {
        let mut inner = self.inner.lock();
        if !inner.up {
            return Err(self.site_down());
        }
        if !inner.active.contains_key(&txn) {
            return Err(AmcError::UnknownTxn);
        }
        inner.stats.ops += 1;
        let obj = op.object();
        let next = op.applied_to(Self::buffered_get(&mut inner, txn, obj)?)?;
        if !op.is_update() {
            return Ok(OpResult::Value(next.expect("a read leaves what it found")));
        }
        let ctx = inner.active.get_mut(&txn).expect("checked");
        ctx.writes.insert(obj, next);
        Ok(OpResult::Done)
    }

    fn commit(&self, txn: LocalTxnId) -> AmcResult<()> {
        let mut inner = self.inner.lock();
        if !inner.up {
            return Err(self.site_down());
        }
        let Some(ctx) = inner.active.remove(&txn) else {
            return Err(AmcError::UnknownTxn);
        };
        // Backward validation: every read version must still be current.
        for (obj, seen) in &ctx.reads {
            let current = inner.versions.get(obj).copied().unwrap_or(0);
            if current != *seen {
                inner.terminated.insert(txn, LocalRunState::Aborted);
                inner.stats.aborts += 1;
                inner.stats.erroneous_aborts += 1;
                return Err(AmcError::Aborted(AbortReason::ValidationFailed));
            }
        }
        // Apply + log the write set atomically (we hold the mutex).
        if !ctx.writes.is_empty() {
            inner.log.append(&LogRecord::Begin { txn });
            for (&obj, &after) in &ctx.writes {
                let (before, _) = inner.store.update(obj, |_| Ok(after))?;
                inner.log.append(&LogRecord::Update {
                    txn,
                    obj,
                    before,
                    after,
                });
                let tick = inner.version_clock;
                inner.version_clock += 1;
                inner.versions.insert(obj, tick);
            }
            inner.log.append_forced(&LogRecord::Commit { txn });
        }
        inner.terminated.insert(txn, LocalRunState::Committed);
        inner.stats.commits += 1;
        Ok(())
    }

    fn abort(&self, txn: LocalTxnId, reason: AbortReason) -> AmcResult<()> {
        let mut inner = self.inner.lock();
        if !inner.up {
            return Err(self.site_down());
        }
        if inner.active.remove(&txn).is_none() {
            return Err(AmcError::UnknownTxn);
        }
        inner.terminated.insert(txn, LocalRunState::Aborted);
        inner.stats.aborts += 1;
        if reason.is_erroneous() {
            inner.stats.erroneous_aborts += 1;
        }
        Ok(())
    }

    fn state_of(&self, txn: LocalTxnId) -> Option<LocalRunState> {
        let inner = self.inner.lock();
        if inner.active.contains_key(&txn) {
            Some(LocalRunState::Running)
        } else {
            inner.terminated.get(txn)
        }
    }

    fn is_up(&self) -> bool {
        self.inner.lock().up
    }

    fn crash(&self) {
        self.crash_impl(None);
    }

    fn crash_partial(&self, keep_frames: u32, torn_frame: bool) {
        self.crash_impl(Some((keep_frames, torn_frame)));
    }

    fn recover(&self) -> AmcResult<RecoveryReport> {
        let mut inner = self.inner.lock();
        if inner.up {
            return Err(AmcError::InvalidState("recover on a running site".into()));
        }
        let Inner { store, log, .. } = &mut *inner;
        let outcome = amc_wal::recover(log, |obj, img| store.update(obj, |_| Ok(img)).map(drop))?;
        inner.store.flush()?;
        let after = first_id_after(&inner.log.stable_records()?);
        inner.next_txn = inner.next_txn.max(after);
        let active = Vec::new();
        inner.log.append_forced(&LogRecord::Checkpoint { active });
        inner.up = true;
        Ok(inner.terminated.absorb(&outcome))
    }

    fn kind(&self) -> &'static str {
        "occ"
    }

    fn stats(&self) -> EngineStats {
        self.inner.lock().stats
    }

    fn dump(&self) -> AmcResult<BTreeMap<ObjectId, Value>> {
        let mut inner = self.inner.lock();
        Ok(inner.store.scan()?.into_iter().collect())
    }

    fn bulk_load(&self, data: &[(ObjectId, Value)]) -> AmcResult<()> {
        let mut inner = self.inner.lock();
        if !inner.log.is_durable() {
            for &(o, v) in data {
                inner.store.put(o, v)?;
            }
            return inner.store.flush();
        }
        let txn = LocalTxnId::new(inner.next_txn);
        inner.next_txn += 1;
        for &(o, v) in data {
            let before = inner.store.put(o, v)?;
            inner.log.append(&LogRecord::Update {
                txn,
                obj: o,
                before,
                after: Some(v),
            });
        }
        inner.store.flush()?;
        inner.log.append_forced(&LogRecord::Commit { txn });
        Ok(())
    }

    fn log_stats(&self) -> amc_wal::LogStats {
        self.inner.lock().log.stats()
    }

    fn attach_obs(&self, sink: amc_obs::ObsSink, site: amc_types::SiteId) {
        self.inner.lock().log.attach_obs(sink, site);
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
        let e = OccEngine::new_at(64, 128, SiteId::new(1));
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
    fn committed_state_survives_crash() {
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
        e.commit(t).unwrap();
        e.crash();
        let report = e.recover().unwrap();
        assert!(report.committed.contains(&t));
        assert_eq!(e.dump().unwrap().get(&obj(1)), Some(&v(42)));
    }

    #[test]
    fn active_transactions_die_on_crash() {
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
        e.crash();
        e.recover().unwrap();
        assert_eq!(e.state_of(t), Some(LocalRunState::Aborted));
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
    fn reopen_from_durable_log_recovers_committed_state() {
        let dir = std::env::temp_dir().join(format!("amc-occ-durable-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reopen.wal");
        let _ = std::fs::remove_file(&path);

        let t_committed = {
            let (e, _) = OccEngine::open_durable(64, 128, SiteId::new(2), &path).unwrap();
            e.bulk_load(&[(obj(1), v(10)), (obj(2), v(20))]).unwrap();
            let t = e.begin().unwrap();
            e.execute(
                t,
                &Op::Increment {
                    obj: obj(1),
                    delta: 5,
                },
            )
            .unwrap();
            e.commit(t).unwrap();
            // A second transaction buffers a write but never commits: its
            // private workspace dies with the process.
            let dangling = e.begin().unwrap();
            e.execute(
                dangling,
                &Op::Write {
                    obj: obj(2),
                    value: v(99),
                },
            )
            .unwrap();
            t
        };

        let (e, report) = OccEngine::open_durable(64, 128, SiteId::new(2), &path).unwrap();
        assert!(report.committed.contains(&t_committed), "{report:?}");
        assert!(report.in_doubt.is_empty(), "OCC has no ready state");
        let d = e.dump().unwrap();
        assert_eq!(d.get(&obj(1)), Some(&v(15)));
        assert_eq!(d.get(&obj(2)), Some(&v(20)), "uncommitted buffer is gone");
        let fresh = e.begin().unwrap();
        assert!(fresh.raw() > t_committed.raw(), "no local-id collision");
        let _ = std::fs::remove_file(&path);
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
}
