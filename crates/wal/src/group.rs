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
//! * [`GroupCommitter::wait_durable`] is the same loop for a caller that
//!   appended under a lock of its own (a co-located Paxos acceptor): it
//!   reads a [`Mark`] there and waits for it outside that lock.
//! * Self-clocking, no timer: the leader writes the tail up to its target
//!   under the log mutex, **releases the mutex** for the whole durability
//!   wait — the modelled `force_latency` and the real `fsync`, through a
//!   handle cloned once from the durable sink — then re-locks and
//!   publishes the batch. Whatever was appended during one force is the
//!   next batch, which is what makes batch size track concurrency.
//! * A crash while the leader is out bumps an epoch and drops the
//!   unsynced frames from the log and its file; every committer of that
//!   batch returns "not durable" and its transaction fails with `SiteDown`,
//!   so a commit is acknowledged iff its record survived the crash.
//!
//! An in-memory log with zero `force_latency` (the default) never releases
//! the mutex: `append_durable` is `append_forced` under one mutex
//! acquisition, so the deterministic simulator and single-threaded tests
//! observe behavior identical to the unbatched log.

use crate::log::{LogManager, LogStats};
use crate::record::LogRecord;
use amc_types::Lsn;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::fs::File;
use std::time::Duration;

/// Tuning for [`GroupCommitter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GroupCommitConfig {
    /// Modelled latency of one physical force (the fsync the batch
    /// amortizes). The leader sleeps this long **without** holding the log
    /// mutex, so concurrent committers can append and queue meanwhile.
    pub force_latency: Duration,
}

/// A point in the log to wait for: the head when it was read, and the
/// crash epoch it was read in (see [`GroupCommitter::mark`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mark {
    lsn: Lsn,
    epoch: u64,
}

struct GcInner {
    log: LogManager,
    /// Bumped on every crash. A committer whose epoch moved while it was
    /// parked was never acknowledged — its record may be gone.
    epoch: u64,
    /// A leader is out forcing; followers park instead of competing.
    forcing: bool,
    /// LSNs of commits (durable appends) awaiting acknowledgement.
    pending: Vec<Lsn>,
}

/// A [`LogManager`] wrapped with leader/follower group commit.
///
/// With the default config on an in-memory log the committer behaves
/// exactly like an unbatched forced append — one force per durable
/// record — which makes single-threaded use easy to reason about:
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
/// (experiment E11b sweeps it against the number of committers).
pub struct GroupCommitter {
    inner: Mutex<GcInner>,
    cv: Condvar,
    cfg: GroupCommitConfig,
    /// The durable sink's file: the leader fsyncs through it unlocked.
    syncer: Option<File>,
}

impl GroupCommitter {
    /// Wrap `log` with the given batching config.
    pub fn new(log: LogManager, cfg: GroupCommitConfig) -> Self {
        GroupCommitter {
            syncer: log.sync_handle(),
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
        self.durable_through(inner, Mark { lsn, epoch })
    }

    /// The log's head now, as a point [`GroupCommitter::wait_durable`]
    /// can wait for. A caller that appended under its own lock reads the
    /// mark there and waits outside it: whatever it answers from, every
    /// record up to the mark is covered.
    pub fn mark(&self) -> Mark {
        let inner = self.inner.lock();
        Mark {
            lsn: inner.log.head(),
            epoch: inner.epoch,
        }
    }

    /// Return once every record up to `mark` is durable, joining (or
    /// leading) a group force as [`GroupCommitter::append_durable`] does.
    /// `false` iff a crash struck after the mark was taken: records up to
    /// it may be gone, and nothing that depends on them may be answered.
    /// A wait is not a commit: it is never counted in `batched_commits`.
    pub fn wait_durable(&self, mark: Mark) -> bool {
        self.durable_through(self.inner.lock(), mark)
    }

    /// The group-commit loop shared by both entry points.
    fn durable_through<'a>(&'a self, mut inner: MutexGuard<'a, GcInner>, mark: Mark) -> bool {
        let Mark { lsn, epoch } = mark;
        loop {
            if inner.epoch != epoch {
                return false;
            }
            if inner.log.durable() >= lsn {
                return true;
            }
            if inner.forcing {
                // A leader is out forcing a batch that may or may not cover
                // us; park until it publishes, then re-check.
                self.cv.wait(&mut inner);
                continue;
            }
            // We lead everything appended so far.
            let target = inner.log.head();
            if self.syncer.is_some() || !self.cfg.force_latency.is_zero() {
                inner.forcing = true;
                inner.log.write_upto(target);
                drop(inner);
                std::thread::sleep(self.cfg.force_latency);
                if let Some(file) = &self.syncer {
                    file.sync_data().expect("WAL fsync");
                }
                inner = self.inner.lock();
                if inner.epoch != epoch {
                    // A crash struck while the disk was writing: it dropped
                    // this batch, reset `forcing` and woke everyone.
                    return false;
                }
                inner.forcing = false;
                // Only a leader that let go of the mutex has followers.
                self.cv.notify_all();
            }
            let (records, bytes) = inner.log.force_upto(target, false);
            let acked = inner.pending.iter().filter(|l| **l <= target).count() as u64;
            inner.pending.retain(|l| *l > target);
            if acked > 0 {
                inner.log.note_group_batch(acked, records, bytes);
            }
            // Our own record is ≤ target by construction.
            return true;
        }
    }

    /// Crash: the volatile tail is lost and every parked committer is
    /// released unacknowledged.
    pub fn crash(&self) {
        self.crash_with(LogManager::crash);
    }

    /// Crash mid-force (see [`LogManager::crash_during_force`]): a prefix
    /// of the tail survives, but **no** parked committer is acknowledged —
    /// exactly like a real fsync that never returned.
    pub fn crash_during_force(&self, keep_frames: usize, torn: bool) {
        self.crash_with(|log| log.crash_during_force(keep_frames, torn));
    }

    fn crash_with(&self, crash: impl FnOnce(&mut LogManager)) {
        let mut inner = self.inner.lock();
        inner.epoch += 1;
        inner.pending.clear();
        inner.forcing = false;
        crash(&mut inner.log);
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

    type Crash = fn(&GroupCommitter);

    /// A durable log in a fresh file named `name`, and its path.
    fn durable_log(name: &str) -> (LogManager, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("amc-wal-group-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        (LogManager::open_durable(&path).unwrap(), path)
    }

    /// Commit 0 is acknowledged; then four committers race while each
    /// leader spends 50 ms out of the mutex, and `crash` strikes once all
    /// four have appended and a leader is out. Nothing is acknowledged
    /// that did not survive, and `durable()` never counted the batch that
    /// was out. Returns the committer and the commits it acknowledged.
    fn crash_while_the_leader_is_out(
        log: LogManager,
        crash: Crash,
    ) -> (Arc<GroupCommitter>, Vec<LocalTxnId>) {
        let cfg = GroupCommitConfig {
            force_latency: Duration::from_millis(50),
        };
        let gc = Arc::new(GroupCommitter::new(log, cfg));
        assert!(gc.append_durable(&commit(0)));
        let handles: Vec<_> = (1..=4u64)
            .map(|t| {
                let gc = Arc::clone(&gc);
                std::thread::spawn(move || (t, gc.append_durable(&commit(t))))
            })
            .collect();
        // A liveness deadline, not a timing bound.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let inner = gc.inner.lock();
            if inner.forcing && inner.log.head() == Lsn::new(5) {
                assert!(
                    inner.log.durable() < inner.log.head(),
                    "a batch whose force has not returned is not durable"
                );
                break;
            }
            drop(inner);
            assert!(std::time::Instant::now() < deadline, "no leader went out");
            std::thread::yield_now();
        }
        crash(&gc);
        let mut acked = vec![LocalTxnId::new(0)];
        for h in handles {
            let (t, ok) = h.join().unwrap();
            if ok {
                acked.push(LocalTxnId::new(t));
            }
        }
        let stable = committed_txns(&gc);
        for t in &acked {
            assert!(stable.contains(t), "acknowledged commit {t:?} was lost");
        }
        (gc, acked)
    }

    #[test]
    fn crash_releases_parked_committers_unacknowledged() {
        let (gc, acked) = crash_while_the_leader_is_out(LogManager::new(), GroupCommitter::crash);
        // A plain crash keeps no unsynced frame: durable iff acknowledged.
        let mut stable = committed_txns(&gc);
        stable.sort();
        assert_eq!(stable, acked);
    }

    #[test]
    fn crash_while_a_durable_leader_is_out_leaves_file_and_model_equal() {
        let crashes: [(&str, Crash); 2] = [
            ("crash.wal", GroupCommitter::crash),
            ("torn.wal", |gc| gc.crash_during_force(1, false)),
        ];
        for (name, crash) in crashes {
            let (log, path) = durable_log(name);
            let (gc, _) = crash_while_the_leader_is_out(log, crash);
            let model = gc.with_log(|log| log.stable_records().unwrap());
            let reopened = LogManager::open_durable(&path).unwrap();
            assert_eq!(reopened.stable_records().unwrap(), model, "{name}");
        }
    }

    #[test]
    fn durable_committers_share_fsyncs_without_a_timer() {
        let (log, path) = durable_log("share.wal");
        let gc = Arc::new(GroupCommitter::new(log, GroupCommitConfig::default()));
        let (threads, per_thread) = (8u64, 25u64);
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
        assert_eq!(s.batched_commits, threads * per_thread);
        assert!(
            s.forces < s.batched_commits,
            "{} fsyncs for {} commits: no batch ever formed",
            s.forces,
            s.batched_commits
        );
        let reopened = LogManager::open_durable(&path).unwrap();
        assert_eq!(
            reopened.stable_records().unwrap().len() as u64,
            threads * per_thread
        );
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
    fn a_mark_is_durable_once_waited_and_a_crash_voids_it() {
        let gc = GroupCommitter::new(LogManager::new(), GroupCommitConfig::default());
        gc.append(&commit(1));
        let mark = gc.mark();
        assert_eq!(gc.with_log(|log| log.durable()), Lsn::ZERO);
        assert!(gc.wait_durable(mark));
        assert_eq!(gc.with_log(|log| log.durable()), Lsn::new(1));
        // A mark already covered costs no force.
        assert!(gc.wait_durable(gc.mark()));
        assert_eq!(gc.stats().forces, 1);
        // A crash after the mark was read: the record may be gone, so
        // the wait reports it.
        gc.append(&commit(2));
        let mark = gc.mark();
        gc.crash();
        assert!(!gc.wait_durable(mark));
        assert_eq!(committed_txns(&gc), vec![LocalTxnId::new(1)]);
        // A wait acknowledges no commit, even beside one in its batch.
        assert_eq!(gc.stats().batched_commits, 0);
        gc.append(&commit(5));
        let mark = gc.mark();
        assert!(gc.append_durable(&commit(6)));
        assert!(gc.wait_durable(mark));
        let s = gc.stats();
        assert_eq!((s.group_forces, s.batched_commits), (1, 1));
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

    /// With no modelled latency and no file, a committer forces under the
    /// mutex it appended under: no one ever waits for a leader, and each
    /// force carries exactly its own commit, however many threads commit.
    #[test]
    fn zero_latency_committers_on_threads_each_force_their_own() {
        let gc = Arc::new(GroupCommitter::new(
            LogManager::new(),
            GroupCommitConfig::default(),
        ));
        let (threads, per_thread) = (4u64, 25u64);
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
        assert_eq!(
            (s.forces, s.group_forces, s.batched_commits),
            (total, total, total)
        );
        assert_eq!(committed_txns(&gc).len(), total as usize);
    }
}
