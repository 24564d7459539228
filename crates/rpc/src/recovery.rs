//! Site restart recovery: rebuild a networked site from its `--wal-dir`.
//!
//! A site server started with a WAL directory keeps one durable file,
//! `site-N.wal`, in the checksummed format of [`amc_wal::DurableFile`]: the
//! engine's write-ahead log, which also carries the rows of the site's
//! co-located Paxos acceptor when it hosts one. Replaying it rebuilds the page store, redoes
//! committed updates, rolls back losers, and resurrects prepared
//! (in-doubt) transactions in the ready state. The communication manager
//! keeps no file of its own: what it must still answer for after a crash
//! was written by the local transactions themselves — commit markers and
//! before-image rows in the store, and the global transaction named in
//! each prepare record (`amc_net::comm`'s module docs) — so every durable
//! write of the site goes through the engine's group commit.
//!
//! `SiteRecoveryManager::open` performs the whole restart sequence and
//! returns a ready-to-serve manager, the [`RecoveryStats`] the admin
//! `Recovery` request reports, and the engine's group committer — which an
//! acceptor mounts on once engine recovery has cut any torn tail, to
//! replay its own rows. A first boot (empty directory) is just a recovery
//! of zero records.

use amc_engine::{TplConfig, TwoPLEngine};
use amc_net::comm::EngineHandle;
use amc_net::{LocalCommManager, RecoveryStats};
use amc_obs::ObsSink;
use amc_types::{AmcResult, SiteId};
use amc_wal::GroupCommitter;
use std::path::PathBuf;
use std::sync::Arc;

/// Builds (or rebuilds) one networked site from its durable state.
pub(crate) struct SiteRecoveryManager {
    wal_dir: PathBuf,
}

impl SiteRecoveryManager {
    /// Recovery rooted at `wal_dir` (created if absent).
    pub(crate) fn new(wal_dir: impl Into<PathBuf>) -> Self {
        SiteRecoveryManager {
            wal_dir: wal_dir.into(),
        }
    }

    /// The engine WAL path for `site`.
    pub(crate) fn wal_path(&self, site: SiteId) -> PathBuf {
        self.wal_dir.join(format!("site-{}.wal", site.raw()))
    }

    /// Run the full restart sequence for `site`:
    ///
    /// 1. open the engine over its durable WAL (redo, undo, resurrect
    ///    in-doubt transactions — §3.1's local recovery);
    /// 2. rebuild the manager's `gtx → work` map from the database: its
    ///    forward markers and the prepare records that named their global
    ///    transaction;
    /// 3. record [`RecoveryStats`] for the admin `Recovery` request.
    ///
    /// The site can crash and recover this way any number of times.
    pub(crate) fn open(
        &self,
        site: SiteId,
        cfg: TplConfig,
        obs: ObsSink,
    ) -> AmcResult<(Arc<LocalCommManager>, RecoveryStats, Arc<GroupCommitter>)> {
        if let Err(e) = std::fs::create_dir_all(&self.wal_dir) {
            return Err(amc_types::AmcError::TransientIo(format!(
                "create {}: {e}",
                self.wal_dir.display()
            )));
        }
        let (engine, report) = TwoPLEngine::open_durable(cfg, site, self.wal_path(site))?;
        let wal = Arc::clone(engine.wal());
        let mut manager = LocalCommManager::new(site, EngineHandle::Preparable(Arc::new(engine)));
        manager.set_obs(obs);
        let restored = manager.restore_work(&report.prepared)?;
        let stats = RecoveryStats {
            committed: report.committed.len() as u64,
            rolled_back: report.rolled_back.len() as u64,
            in_doubt: report.in_doubt.len() as u64,
            replayed: report.replayed,
            restored_entries: restored,
            torn_tail: report.torn_tail,
        };
        manager.set_recovery_stats(stats);
        Ok((Arc::new(manager), stats, wal))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amc_net::comm::SubmitMode;
    use amc_net::Payload;
    use amc_types::{GlobalTxnId, GlobalVerdict, LocalVote, ObjectId, Operation, Value};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("amc-recovery-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
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
    fn first_boot_is_a_zero_record_recovery() {
        let dir = tmp_dir("boot");
        let site = SiteId::new(3);
        let (manager, stats, _) = SiteRecoveryManager::new(&dir)
            .open(site, TplConfig::default(), ObsSink::disabled())
            .unwrap();
        assert_eq!(stats, RecoveryStats::default());
        assert_eq!(manager.recovery_stats(), Some(stats));
        assert!(manager.handle().engine().dump().unwrap().is_empty());
    }

    /// Commit-before work committed before a `kill -9` is undone after the
    /// restart from what the database kept — the before-image row of its
    /// write and the forward marker — and the `Undo`'s forward program. The
    /// site's directory holds its WAL and nothing else.
    #[test]
    fn commit_before_work_survives_reopen_and_undoes_on_global_abort() {
        let dir = tmp_dir("cb-undo");
        let site = SiteId::new(1);
        let recovery = SiteRecoveryManager::new(&dir);
        let gtx = GlobalTxnId::new(9);
        let forward = vec![
            Operation::Increment {
                obj: ObjectId::new(1),
                delta: -30,
            },
            Operation::Write {
                obj: ObjectId::new(2),
                value: Value::counter(5),
            },
        ];
        {
            let (manager, ..) = recovery
                .open(site, TplConfig::default(), ObsSink::disabled())
                .unwrap();
            let data = [1, 2].map(|o| (ObjectId::new(o), Value::counter(100)));
            manager.handle().engine().bulk_load(&data).unwrap();
            let vote = vote_of(
                manager
                    .handle_submit(gtx, forward.clone(), SubmitMode::CommitBefore)
                    .unwrap(),
            );
            assert_eq!(vote, LocalVote::Ready);
            // Crash: the manager (and everything in its memory) dies.
        }
        let files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(files, ["site-1.wal"], "one durable write path per site");
        let (manager, stats, _) = recovery
            .open(site, TplConfig::default(), ObsSink::disabled())
            .unwrap();
        assert_eq!(stats.restored_entries, 1, "the forward marker");
        // The committed forward transaction survived...
        assert_eq!(
            vote_of(manager.handle_prepare(gtx).unwrap()),
            LocalVote::Ready
        );
        // ...and a global abort, which re-ships the forward program, still
        // finds the §3.3 undo-log in the database.
        manager.handle_undo(gtx, forward).unwrap();
        let dump = manager.handle().engine().dump().unwrap();
        assert_eq!(dump.get(&ObjectId::new(1)), Some(&Value::counter(100)));
        assert_eq!(dump.get(&ObjectId::new(2)), Some(&Value::counter(100)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Commit-after work voted ready but not yet committed dies with the
    /// process, program and all. After the restart the site answers the
    /// commit decision with an outage, which makes a coordinator re-ship
    /// the program as `Redo`; the redo's marker then answers every later
    /// duplicate, across another restart too.
    #[test]
    fn commit_after_work_lost_in_a_restart_comes_back_with_its_redo() {
        let dir = tmp_dir("ca-redo");
        let site = SiteId::new(3);
        let recovery = SiteRecoveryManager::new(&dir);
        let open = || {
            recovery
                .open(site, TplConfig::default(), ObsSink::disabled())
                .unwrap()
        };
        let gtx = GlobalTxnId::new(4);
        let ops = vec![Operation::Increment {
            obj: ObjectId::new(1),
            delta: 5,
        }];
        let counter = |m: &LocalCommManager| m.handle().engine().dump().unwrap()[&ObjectId::new(1)];
        {
            let (manager, ..) = open();
            let data = [(ObjectId::new(1), Value::counter(10))];
            manager.handle().engine().bulk_load(&data).unwrap();
            let vote = manager.handle_submit(gtx, ops.clone(), SubmitMode::CommitAfter);
            assert_eq!(vote_of(vote.unwrap()), LocalVote::Ready);
        }
        let (manager, stats, _) = open();
        assert_eq!(stats.restored_entries, 0, "nothing committed yet");
        assert!(matches!(
            manager.handle_decision(gtx, GlobalVerdict::Commit),
            Err(amc_types::AmcError::TransientIo(_))
        ));
        manager.handle_redo(gtx, ops).unwrap();
        assert_eq!(counter(&manager), Value::counter(15));
        drop(manager);
        let (manager, stats, _) = open();
        assert_eq!(stats.restored_entries, 1, "the redo's marker");
        let fin = manager.handle_decision(gtx, GlobalVerdict::Commit).unwrap();
        assert_eq!(fin, Payload::Finished { gtx });
        assert_eq!(counter(&manager), Value::counter(15));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn two_phase_in_doubt_resolves_by_retransmitted_decision() {
        let dir = tmp_dir("2pc-indoubt");
        let site = SiteId::new(2);
        let recovery = SiteRecoveryManager::new(&dir);
        let gtx = GlobalTxnId::new(5);
        {
            let (manager, ..) = recovery
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
        let (manager, stats, _) = recovery
            .open(site, TplConfig::default(), ObsSink::disabled())
            .unwrap();
        assert_eq!(stats.in_doubt, 1);
        assert_eq!(stats.restored_entries, 1, "the prepare record names {gtx}");
        // Re-inquiry still answers ready (the vote is a promise)...
        assert_eq!(
            vote_of(manager.handle_prepare(gtx).unwrap()),
            LocalVote::Ready
        );
        // ...and the retransmitted decision lands on the resurrected ltx.
        manager.handle_decision(gtx, GlobalVerdict::Commit).unwrap();
        let dump = manager.handle().engine().dump().unwrap();
        assert_eq!(dump.get(&ObjectId::new(7)), Some(&Value::counter(2)));
        // A second restart finds the decision durable: nothing in doubt,
        // and a duplicate decision still finds the local transaction.
        drop(manager);
        let (manager, stats, _) = recovery
            .open(site, TplConfig::default(), ObsSink::disabled())
            .unwrap();
        assert_eq!(stats.in_doubt, 0);
        let fin = manager.handle_decision(gtx, GlobalVerdict::Commit).unwrap();
        assert_eq!(fin, Payload::Finished { gtx });
        let _ = std::fs::remove_dir_all(&dir);
    }
}
