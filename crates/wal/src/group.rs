//! Group commit: amortize one physical log force over many committers.
//!
//! The paper's §5 complexity argument is counted in *forced log writes per
//! committed transaction*. On the threaded runtime each commit used to pay
//! one synchronous `force()`; [`GroupCommitter`] instead lets concurrent
//! committers enqueue their commit records and elects one **leader** per
//! batch to force the shared tail for everyone queued behind it — the
//! standard production amortization (DeWitt et al.'s group commit, also the
//! reason the logless protocols in PAPERS.md treat the forced write as the
//! unit of commit cost).
//!
//! Semantics:
//!
//! * [`GroupCommitter::append_durable`] returns only once the record is on
//!   stable storage — the WAL rule is never weakened, only batched.
//! * The leader snapshots the tail head, **releases the log mutex** for the
//!   modelled fsync latency, then publishes the batch. Followers appending
//!   during that window queue up for the *next* leader, which is what makes
//!   batch size track concurrency.
//! * A crash while committers are parked bumps an epoch; those committers
//!   return "not durable" and their transactions fail with `SiteDown`, so a
//!   commit is acknowledged iff its record survived the crash.
//!
//! With a zero `force_latency` and zero `max_wait` (the defaults) the whole
//! path degenerates to `append_forced` under one mutex acquisition — the
//! deterministic simulator and single-threaded tests observe behavior
//! identical to the unbatched log.

use crate::log::{LogManager, LogStats};
use crate::record::LogRecord;
use amc_types::Lsn;
use parking_lot::{Condvar, Mutex};
use std::time::Duration;

/// A leader stops lingering for followers once this many commits are
/// pending.
pub(crate) const MAX_BATCH: usize = 64;

/// Tuning for [`GroupCommitter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GroupCommitConfig {
    /// How long a leader lingers for followers before forcing. Zero (the
    /// default) means "force whatever is queued right now" — batching then
    /// comes purely from commits that arrive while a force is in flight.
    pub max_wait: Duration,
    /// Modelled latency of one physical force (the fsync the batch
    /// amortizes). The leader sleeps this long **without** holding the log
    /// mutex, so concurrent committers can append and queue meanwhile.
    pub force_latency: Duration,
}

struct GcInner {
    log: LogManager,
    /// Bumped on every crash. A committer whose epoch moved while it was
    /// parked was never acknowledged — its record may be gone.
    epoch: u64,
    /// A leader is currently forcing; followers park instead of competing.
    forcing: bool,
    /// LSNs of durable-append requests awaiting acknowledgement.
    pending: Vec<Lsn>,
}

/// A [`LogManager`] wrapped with leader/follower group commit.
///
/// With the default config (zero linger, zero modelled fsync latency) the
/// committer behaves exactly like an unbatched forced append — one force
/// per durable record — which makes single-threaded use easy to reason
/// about:
///
/// ```
/// use amc_types::LocalTxnId;
/// use amc_wal::{GroupCommitConfig, GroupCommitter, LogManager, LogRecord};
///
/// let gc = GroupCommitter::new(LogManager::new(), GroupCommitConfig::default());
/// let txn = LocalTxnId::new(7);
/// gc.append(&LogRecord::Begin { txn });          // buffered, not yet stable
/// assert!(gc.append_durable(&LogRecord::Commit { txn })); // true = on stable storage
///
/// let stats = gc.stats();
/// assert_eq!(stats.forces, 1);          // the commit forced the tail...
/// assert_eq!(stats.stable_records, 2);  // ...carrying the begin with it
/// ```
///
/// Under concurrency the interesting number is `batched_commits /
/// group_forces` — how many acknowledgements each physical force paid for
/// (experiment E11b sweeps it against the linger window).
pub struct GroupCommitter {
    inner: Mutex<GcInner>,
    cv: Condvar,
    cfg: GroupCommitConfig,
}

impl GroupCommitter {
    /// Wrap `log` with the given batching config.
    pub fn new(log: LogManager, cfg: GroupCommitConfig) -> Self {
        GroupCommitter {
            inner: Mutex::new(GcInner {
                log,
                epoch: 0,
                forcing: false,
                pending: Vec::new(),
            }),
            cv: Condvar::new(),
            cfg,
        }
    }

    /// The active batching config.
    pub fn config(&self) -> GroupCommitConfig {
        self.cfg
    }

    /// Run `f` with exclusive access to the wrapped log (stats, recovery,
    /// checkpointing, crash hooks). Blocks every committer for the
    /// duration — keep it short, and never nest it.
    pub fn with_log<R>(&self, f: impl FnOnce(&mut LogManager) -> R) -> R {
        f(&mut self.inner.lock().log)
    }

    /// Append a record to the volatile tail (no durability).
    pub fn append(&self, record: &LogRecord) -> Lsn {
        self.inner.lock().log.append(record)
    }

    /// Append `record` and return once it is durable — the group-commit
    /// path for commit (and prepare) records. Returns `false` iff a crash
    /// intervened before the record was forced: the record is gone and the
    /// caller must not acknowledge its transaction.
    pub fn append_durable(&self, record: &LogRecord) -> bool {
        let mut inner = self.inner.lock();
        let epoch = inner.epoch;
        let lsn = inner.log.append(record);
        inner.pending.push(lsn);
        let mut lingered = false;
        loop {
            if inner.epoch != epoch {
                return false;
            }
            if inner.log.durable() >= lsn {
                return true;
            }
            if inner.forcing {
                // A leader is writing a batch that may or may not cover us;
                // park until it publishes, then re-check.
                self.cv.wait(&mut inner);
                continue;
            }
            // We are the leader-elect for everything queued so far.
            if !lingered && !self.cfg.max_wait.is_zero() && inner.pending.len() < MAX_BATCH {
                // Linger briefly so followers can join this batch.
                lingered = true;
                self.cv.wait_for(&mut inner, self.cfg.max_wait);
                continue;
            }
            inner.forcing = true;
            let target = inner.log.head();
            if !self.cfg.force_latency.is_zero() {
                // Modelled fsync: release the mutex so committers arriving
                // during the write queue up for the next batch.
                drop(inner);
                std::thread::sleep(self.cfg.force_latency);
                inner = self.inner.lock();
            }
            if inner.epoch != epoch {
                // Crashed while "the disk was writing": nothing in this
                // batch became durable and nobody gets acknowledged.
                inner.forcing = false;
                self.cv.notify_all();
                return false;
            }
            let (records, bytes_before) = {
                let b = inner.log.stats().stable_bytes;
                (inner.log.force_upto(target), b)
            };
            let bytes = inner.log.stats().stable_bytes - bytes_before;
            let acked = inner.pending.iter().filter(|l| **l <= target).count() as u64;
            inner.pending.retain(|l| *l > target);
            if acked > 0 {
                inner.log.note_group_batch(acked, records, bytes);
            }
            inner.forcing = false;
            self.cv.notify_all();
            // Our own record is ≤ target by construction.
            return true;
        }
    }

    /// Crash: the volatile tail is lost and every parked committer is
    /// released unacknowledged.
    pub fn crash(&self) {
        let mut inner = self.inner.lock();
        inner.epoch += 1;
        inner.pending.clear();
        inner.forcing = false;
        inner.log.crash();
        self.cv.notify_all();
    }

    /// Crash mid-force (see [`LogManager::crash_during_force`]): a prefix
    /// of the tail survives, but **no** parked committer is acknowledged —
    /// exactly like a real fsync that never returned.
    pub fn crash_during_force(&self, keep_frames: usize, torn: bool) {
        let mut inner = self.inner.lock();
        inner.epoch += 1;
        inner.pending.clear();
        inner.forcing = false;
        inner.log.crash_during_force(keep_frames, torn);
        self.cv.notify_all();
    }

    /// Counter snapshot of the wrapped log.
    pub fn stats(&self) -> LogStats {
        self.inner.lock().log.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amc_types::LocalTxnId;
    use std::sync::Arc;

    fn commit(n: u64) -> LogRecord {
        LogRecord::Commit {
            txn: LocalTxnId::new(n),
        }
    }

    fn committed_txns(gc: &GroupCommitter) -> Vec<LocalTxnId> {
        gc.with_log(|log| {
            log.stable_records()
                .unwrap()
                .into_iter()
                .filter_map(|(_, r)| match r {
                    LogRecord::Commit { txn } => Some(txn),
                    _ => None,
                })
                .collect()
        })
    }

    #[test]
    fn serial_append_durable_matches_append_forced() {
        let gc = GroupCommitter::new(LogManager::new(), GroupCommitConfig::default());
        assert!(gc.append_durable(&commit(1)));
        assert!(gc.append_durable(&commit(2)));
        let s = gc.stats();
        assert_eq!(s.forces, 2, "no concurrency, no batching");
        assert_eq!(s.group_forces, 2);
        assert_eq!(s.batched_commits, 2);
        assert_eq!(committed_txns(&gc).len(), 2);
    }

    #[test]
    fn concurrent_committers_batch_behind_one_force() {
        let cfg = GroupCommitConfig {
            force_latency: Duration::from_millis(3),
            ..GroupCommitConfig::default()
        };
        let gc = Arc::new(GroupCommitter::new(LogManager::new(), cfg));
        let threads = 8;
        let per_thread = 6;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let gc = Arc::clone(&gc);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        assert!(gc.append_durable(&commit(t * 100 + i)));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = gc.stats();
        let total = threads * per_thread;
        assert_eq!(s.batched_commits, total);
        assert_eq!(committed_txns(&gc).len(), total as usize);
        assert!(
            s.batched_commits > s.group_forces,
            "at least one batch must carry >1 commit ({} commits / {} forces)",
            s.batched_commits,
            s.group_forces
        );
    }

    #[test]
    fn lingering_leader_collects_followers() {
        let cfg = GroupCommitConfig {
            max_wait: Duration::from_millis(10),
            force_latency: Duration::ZERO,
        };
        let gc = Arc::new(GroupCommitter::new(LogManager::new(), cfg));
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let gc = Arc::clone(&gc);
                std::thread::spawn(move || assert!(gc.append_durable(&commit(t))))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = gc.stats();
        assert_eq!(s.batched_commits, 4);
        assert!(s.group_forces <= 4);
    }

    #[test]
    fn crash_releases_parked_committers_unacknowledged() {
        let cfg = GroupCommitConfig {
            force_latency: Duration::from_millis(50),
            ..GroupCommitConfig::default()
        };
        let gc = Arc::new(GroupCommitter::new(LogManager::new(), cfg));
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let gc = Arc::clone(&gc);
                std::thread::spawn(move || (t, gc.append_durable(&commit(t))))
            })
            .collect();
        // Let the leader start its (long) force, then crash mid-write.
        std::thread::sleep(Duration::from_millis(10));
        gc.crash();
        let stable: Vec<LocalTxnId> = committed_txns(&gc);
        for h in handles {
            let (t, acked) = h.join().unwrap();
            if acked {
                assert!(
                    stable.contains(&LocalTxnId::new(t)),
                    "acknowledged commit {t} must be durable"
                );
            }
        }
        // The crash hit while the leader slept, so in fact nobody was acked.
        assert_eq!(gc.stats().batched_commits, 0);
    }

    #[test]
    fn acknowledged_commits_survive_partial_crash() {
        // Deterministic mid-batch loss: one commit fully acknowledged, two
        // more appended but never forced; a partial crash keeps only the
        // first unforced frame. Only unacknowledged commits may be lost.
        let gc = GroupCommitter::new(LogManager::new(), GroupCommitConfig::default());
        assert!(gc.append_durable(&commit(1)));
        gc.append(&commit(2));
        gc.append(&commit(3));
        gc.crash_during_force(1, false);
        let stable = committed_txns(&gc);
        assert!(stable.contains(&LocalTxnId::new(1)), "acked commit kept");
        assert!(stable.contains(&LocalTxnId::new(2)), "partially flushed");
        assert!(
            !stable.contains(&LocalTxnId::new(3)),
            "unacknowledged, unforced commit is lost"
        );
    }

    #[test]
    fn zero_latency_config_is_deterministic_single_thread() {
        let gc = GroupCommitter::new(LogManager::new(), GroupCommitConfig::default());
        for i in 0..10 {
            assert!(gc.append_durable(&commit(i)));
            assert_eq!(gc.with_log(|log| log.durable()), Lsn::new(i + 1));
        }
        let s = gc.stats();
        assert_eq!(s.forces, 10);
        assert_eq!(s.group_forces, 10);
    }
}
