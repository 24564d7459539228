//! Site restart recovery: rebuild a networked site from its `--wal-dir`.
//!
//! A site server started with a WAL directory keeps two frame files,
//! both in the checksummed format of [`amc_wal::DurableFile`]:
//!
//! * `site-N.wal` — the engine's write-ahead log; replaying it rebuilds
//!   the page store, redoes committed updates, rolls back losers, and
//!   resurrects prepared (in-doubt) transactions in the ready state;
//! * `site-N.jrn` — the communication manager's work journal
//!   ([`amc_net::journal`]): the `gtx → work` map that lets the restarted
//!   site answer the coordinator's final-state inquiry per protocol —
//!   matching retransmitted 2PC decisions to resurrected locals, and
//!   running §3.3 inverse transactions from their persisted undo-log.
//!
//! [`SiteRecoveryManager::open`] performs the whole restart sequence and
//! returns a ready-to-serve manager plus the [`RecoveryStats`] the admin
//! `Recovery` request reports. A first boot (empty directory) is just a
//! recovery of zero records.

use amc_engine::{TplConfig, TwoPLEngine};
use amc_net::comm::EngineHandle;
use amc_net::journal::{RecoveryStats, WorkEntry, WorkJournal};
use amc_net::LocalCommManager;
use amc_obs::ObsSink;
use amc_types::{AmcResult, GlobalTxnId, SiteId};
use amc_wal::RecordFile;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A [`WorkJournal`] persisting entries to an append-only record file.
///
/// Appends are synced before `record` returns, so an entry the manager
/// believes journaled survives a `kill -9`. Supersession is by replay:
/// the file may hold many records per global transaction; loading keeps
/// the last one.
pub struct FileWorkJournal {
    file: Mutex<RecordFile<WorkEntry>>,
}

impl FileWorkJournal {
    /// Open (creating if absent) the journal at `path` and return it
    /// together with the surviving entries, deduplicated to the last
    /// record per global transaction. A torn final frame — a crash mid
    /// `record` — is truncated away: the entry was never durable, so the
    /// manager never acted on its being journaled.
    pub fn open(path: impl AsRef<Path>) -> AmcResult<(FileWorkJournal, Vec<WorkEntry>)> {
        let (file, entries) = RecordFile::<WorkEntry>::open(path)?;
        let last: HashMap<GlobalTxnId, WorkEntry> =
            entries.into_iter().map(|e| (e.gtx, e)).collect();
        Ok((
            FileWorkJournal {
                file: Mutex::new(file),
            },
            last.into_values().collect(),
        ))
    }
}

impl WorkJournal for FileWorkJournal {
    fn record(&self, entry: &WorkEntry) {
        let mut file = self.file.lock();
        file.append(entry);
        file.sync();
    }
}

/// Builds (or rebuilds) one networked site from its durable state.
pub struct SiteRecoveryManager {
    wal_dir: PathBuf,
}

impl SiteRecoveryManager {
    /// Recovery rooted at `wal_dir` (created if absent).
    pub fn new(wal_dir: impl Into<PathBuf>) -> Self {
        SiteRecoveryManager {
            wal_dir: wal_dir.into(),
        }
    }

    /// The engine WAL path for `site`.
    pub fn wal_path(&self, site: SiteId) -> PathBuf {
        self.wal_dir.join(format!("site-{}.wal", site.raw()))
    }

    /// The work-journal path for `site`.
    pub fn journal_path(&self, site: SiteId) -> PathBuf {
        self.wal_dir.join(format!("site-{}.jrn", site.raw()))
    }

    /// Run the full restart sequence for `site`:
    ///
    /// 1. open the engine over its durable WAL (redo, undo, resurrect
    ///    in-doubt transactions — §3.1's local recovery);
    /// 2. open the work journal and restore the manager's `gtx → work`
    ///    map, consulting the commit markers where the journal alone
    ///    cannot know which side of a local commit the crash fell on;
    /// 3. record [`RecoveryStats`] for the admin `Recovery` request.
    ///
    /// The returned manager journals all further work to the same files,
    /// so the site can crash and recover any number of times.
    pub fn open(
        &self,
        site: SiteId,
        cfg: TplConfig,
        obs: ObsSink,
    ) -> AmcResult<(Arc<LocalCommManager>, RecoveryStats)> {
        if let Err(e) = std::fs::create_dir_all(&self.wal_dir) {
            return Err(amc_types::AmcError::TransientIo(format!(
                "create {}: {e}",
                self.wal_dir.display()
            )));
        }
        let (engine, report) = TwoPLEngine::open_durable(cfg, site, self.wal_path(site))?;
        let (journal, entries) = FileWorkJournal::open(self.journal_path(site))?;
        let mut manager = LocalCommManager::new(site, EngineHandle::Preparable(Arc::new(engine)));
        manager.set_obs(obs);
        manager.set_journal(Box::new(journal));
        let manager = Arc::new(manager);
        let restored = manager.restore_work(entries)?;
        let stats = RecoveryStats {
            committed: report.committed.len() as u64,
            rolled_back: report.rolled_back.len() as u64,
            in_doubt: report.in_doubt.len() as u64,
            replayed: report.replayed,
            restored_entries: restored,
            torn_tail: report.torn_tail,
        };
        manager.set_recovery_stats(stats);
        Ok((manager, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amc_net::comm::SubmitMode;
    use amc_net::Payload;
    use amc_types::{GlobalVerdict, LocalVote, ObjectId, Operation, Value};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("amc-recovery-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn vote_of(p: Payload) -> LocalVote {
        match p {
            Payload::Vote { vote, .. } => vote,
            other => panic!("expected vote, got {other:?}"),
        }
    }

    #[test]
    fn file_journal_round_trips_with_last_record_winning() {
        let dir = tmp_dir("journal");
        let path = dir.join("j.jrn");
        let _ = std::fs::remove_file(&path);
        let (journal, entries) = FileWorkJournal::open(&path).unwrap();
        assert!(entries.is_empty());
        let mut e = WorkEntry {
            gtx: GlobalTxnId::new(1),
            mode: SubmitMode::CommitBefore,
            ltx: None,
            committed_locally: false,
            vote: None,
            ops: vec![Operation::Increment {
                obj: ObjectId::new(1),
                delta: 2,
            }],
            inverse_ops: vec![Operation::Increment {
                obj: ObjectId::new(1),
                delta: -2,
            }],
        };
        journal.record(&e);
        e.committed_locally = true;
        e.vote = Some(LocalVote::Ready);
        journal.record(&e);
        drop(journal);
        let (_, entries) = FileWorkJournal::open(&path).unwrap();
        assert_eq!(entries, vec![e]);
    }

    #[test]
    fn first_boot_is_a_zero_record_recovery() {
        let dir = tmp_dir("boot");
        let site = SiteId::new(3);
        let (manager, stats) = SiteRecoveryManager::new(&dir)
            .open(site, TplConfig::default(), ObsSink::disabled())
            .unwrap();
        assert_eq!(stats, RecoveryStats::default());
        assert_eq!(manager.recovery_stats(), Some(stats));
        assert!(manager.handle().engine().dump().unwrap().is_empty());
    }

    #[test]
    fn commit_before_work_survives_reopen_and_undoes_on_global_abort() {
        let dir = tmp_dir("cb-undo");
        let site = SiteId::new(1);
        let recovery = SiteRecoveryManager::new(&dir);
        let gtx = GlobalTxnId::new(9);
        {
            let (manager, _) = recovery
                .open(site, TplConfig::default(), ObsSink::disabled())
                .unwrap();
            manager
                .handle()
                .engine()
                .bulk_load(&[(ObjectId::new(1), Value::counter(100))])
                .unwrap();
            let vote = vote_of(
                manager
                    .handle_submit(
                        gtx,
                        vec![Operation::Increment {
                            obj: ObjectId::new(1),
                            delta: -30,
                        }],
                        SubmitMode::CommitBefore,
                    )
                    .unwrap(),
            );
            assert_eq!(vote, LocalVote::Ready);
            // Crash: the manager (and its memory of the inverse ops) dies.
        }
        let (manager, stats) = recovery
            .open(site, TplConfig::default(), ObsSink::disabled())
            .unwrap();
        assert!(stats.restored_entries >= 1);
        // The committed forward transaction survived...
        assert_eq!(
            vote_of(manager.handle_prepare(gtx).unwrap()),
            LocalVote::Ready
        );
        // ...and a global abort still finds the §3.3 undo-log: an empty
        // Undo payload means "use your journaled inverses".
        manager.handle_undo(gtx, Vec::new()).unwrap();
        let dump = manager.handle().engine().dump().unwrap();
        assert_eq!(dump.get(&ObjectId::new(1)), Some(&Value::counter(100)));
    }

    #[test]
    fn two_phase_in_doubt_resolves_by_retransmitted_decision() {
        let dir = tmp_dir("2pc-indoubt");
        let site = SiteId::new(2);
        let recovery = SiteRecoveryManager::new(&dir);
        let gtx = GlobalTxnId::new(5);
        {
            let (manager, _) = recovery
                .open(site, TplConfig::default(), ObsSink::disabled())
                .unwrap();
            manager
                .handle()
                .engine()
                .bulk_load(&[(ObjectId::new(7), Value::counter(1))])
                .unwrap();
            let vote = vote_of(
                manager
                    .handle_submit(
                        gtx,
                        vec![Operation::Write {
                            obj: ObjectId::new(7),
                            value: Value::counter(2),
                        }],
                        SubmitMode::TwoPhase,
                    )
                    .unwrap(),
            );
            assert_eq!(vote, LocalVote::Ready);
            assert_eq!(
                vote_of(manager.handle_prepare(gtx).unwrap()),
                LocalVote::Ready
            );
            // Crash inside the in-doubt window.
        }
        let (manager, stats) = recovery
            .open(site, TplConfig::default(), ObsSink::disabled())
            .unwrap();
        assert_eq!(stats.in_doubt, 1);
        // Re-inquiry still answers ready (the vote is a promise)...
        assert_eq!(
            vote_of(manager.handle_prepare(gtx).unwrap()),
            LocalVote::Ready
        );
        // ...and the retransmitted decision lands on the resurrected ltx.
        manager.handle_decision(gtx, GlobalVerdict::Commit).unwrap();
        let dump = manager.handle().engine().dump().unwrap();
        assert_eq!(dump.get(&ObjectId::new(7)), Some(&Value::counter(2)));
        // A second restart finds the decision durable: nothing in doubt.
        drop(manager);
        let (_, stats) = recovery
            .open(site, TplConfig::default(), ObsSink::disabled())
            .unwrap();
        assert_eq!(stats.in_doubt, 0);
    }
}
