//! One local site (§2, Fig. 1): an existing database system, the local
//! communication manager on top of it and, under Paxos Commit, the
//! acceptor sharing its log. Every runtime builds its sites with
//! [`Site::open`] and restarts them with [`Site::restart`], in place and
//! exactly as a new process over the same log would come back.

use crate::config::EngineKind;
use amc_engine::{OccEngine, RecoveryReport, TplConfig, TwoPLEngine};
use amc_net::{EngineHandle, LocalCommManager, RecoveryStats};
use amc_obs::ObsSink;
use amc_paxos::AcceptorHost;
use amc_types::{AmcError, AmcResult, ProtocolKind, SiteId};
use std::path::PathBuf;
use std::sync::Arc;

/// Where a site's log lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SiteLog {
    /// In memory: log and pages live as long as the process.
    Memory,
    /// `site-N.wal` in this directory (created if absent): the site's one
    /// durable file, replayed at open.
    Dir(PathBuf),
}

/// What a site is made of.
#[derive(Debug, Clone)]
pub struct SiteSpec {
    /// The site's id.
    pub id: SiteId,
    /// The local database system it runs.
    pub engine: EngineKind,
    /// The protocol it serves: only 2PC is handed the prepare extension.
    pub protocol: ProtocolKind,
    /// Where its log lives.
    pub log: SiteLog,
    /// Host a Paxos Commit acceptor on the engine's log (2PL only).
    pub acceptor: bool,
    /// Engine tuning, either scheduler.
    pub tpl: TplConfig,
}

/// A running site: the manager every runtime dispatches to, and the
/// acceptor on its log, if it hosts one — handed to the manager, whose
/// dispatch lets it answer first.
pub struct Site {
    manager: Arc<LocalCommManager>,
    acceptor: Option<Arc<AcceptorHost>>,
}

impl Site {
    /// Build the site `spec` describes. Over a log directory this is a new
    /// process's recovery pass (committed work redone, losers rolled back
    /// and logged, prepared work in doubt, acceptor rows and work map
    /// rebuilt), whose stats it returns; an in-memory site starts empty.
    pub fn open(spec: SiteSpec) -> AmcResult<(Site, RecoveryStats)> {
        let (id, tpl) = (spec.id, spec.tpl);
        let path = match &spec.log {
            SiteLog::Memory => None,
            SiteLog::Dir(dir) => {
                let created = std::fs::create_dir_all(dir);
                created.map_err(|e| AmcError::TransientIo(format!("{}: {e}", dir.display())))?;
                Some(dir.join(format!("site-{}.wal", id.raw())))
            }
        };
        let (handle, wal, report) = match spec.engine {
            EngineKind::TwoPL => {
                let (engine, report) = match path {
                    None => (TwoPLEngine::new_at(tpl, id), None),
                    Some(path) => TwoPLEngine::open_durable(tpl, id, path).map(durable)?,
                };
                let wal = Some(Arc::clone(engine.wal()));
                let engine = Arc::new(engine);
                // Only 2PC may use the ready state (modelling fidelity).
                match spec.protocol {
                    ProtocolKind::TwoPhaseCommit => (EngineHandle::Preparable(engine), wal, report),
                    _ => (EngineHandle::Plain(engine), wal, report),
                }
            }
            EngineKind::Occ => {
                let (engine, report) = match path {
                    None => (OccEngine::new_at(tpl, id), None),
                    Some(path) => OccEngine::open_durable(tpl, id, path).map(durable)?,
                };
                (EngineHandle::Plain(Arc::new(engine)), None, report)
            }
        };
        let acceptor = match (spec.acceptor, wal) {
            (false, _) => None,
            (true, Some(wal)) => Some(Arc::new(AcceptorHost::mount(id, wal)?)),
            (true, None) => return Err(AmcError::InvalidState("OCC hosts no acceptor".into())),
        };
        let mut manager = LocalCommManager::new(id, handle);
        if let Some(acceptor) = &acceptor {
            manager.set_acceptor(Arc::clone(acceptor) as _);
        }
        let manager = Arc::new(manager);
        let stats = report.map(|r| manager.restore_work(&r)).transpose()?;
        let stats = stats.unwrap_or_default();
        Ok((Site { manager, acceptor }, stats))
    }

    /// The communication manager: what transports and servers dispatch to.
    pub fn manager(&self) -> &Arc<LocalCommManager> {
        &self.manager
    }

    /// The acceptor on the site's log, if it hosts one.
    pub fn acceptor(&self) -> Option<&Arc<AcceptorHost>> {
        self.acceptor.as_ref()
    }

    /// Attach an observability sink (before the site is shared).
    pub(crate) fn observe(&mut self, sink: ObsSink) {
        let unshared = Arc::get_mut(&mut self.manager).expect("a fresh site is unshared");
        unshared.set_obs(sink);
    }

    /// Crash: the engine loses its pool and unforced log tail; with `torn`,
    /// that many tail frames persist and the next is torn (mid-force).
    pub(crate) fn crash(&self, torn: Option<u32>) {
        let engine = self.manager.handle().engine();
        match torn {
            Some(keep) => engine.crash_partial(keep, true),
            None => engine.crash(),
        }
    }

    /// Come back as a new process over the log would.
    pub(crate) fn recover(&self) -> AmcResult<RecoveryStats> {
        let report = self.manager.handle().engine().recover()?;
        if let Some(acceptor) = &self.acceptor {
            acceptor.replay()?;
        }
        self.manager.restore_work(&report)
    }

    /// `Site::crash` then `Site::recover`: a killed process, restarted.
    pub fn restart(&self) -> AmcResult<RecoveryStats> {
        self.crash(None);
        self.recover()
    }
}

/// A durable engine and the report of the recovery pass that opened it.
fn durable<E>((engine, report): (E, RecoveryReport)) -> (E, Option<RecoveryReport>) {
    (engine, Some(report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use amc_net::comm::SubmitMode;
    use amc_net::marker::forward_marker;
    use amc_net::transport::{admin_to_manager, dispatch_to_manager, AdminReply, AdminRequest};
    use amc_net::Payload;
    use amc_types::{GlobalTxnId, GlobalVerdict, LocalVote, ObjectId, Operation, Value};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("amc-site-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn spec(id: u32, protocol: ProtocolKind, log: SiteLog) -> SiteSpec {
        spec_on(EngineKind::TwoPL, id, protocol, log)
    }

    fn spec_on(engine: EngineKind, id: u32, protocol: ProtocolKind, log: SiteLog) -> SiteSpec {
        SiteSpec {
            id: SiteId::new(id),
            engine,
            protocol,
            log,
            acceptor: false,
            tpl: TplConfig::default(),
        }
    }

    /// What the admin `Recovery` request answers.
    fn served_stats(site: &Site) -> Option<RecoveryStats> {
        match admin_to_manager(site.manager(), AdminRequest::Recovery) {
            Ok(AdminReply::Recovery(stats)) => stats,
            other => panic!("unexpected reply {other:?}"),
        }
    }

    fn vote_of(p: Payload) -> LocalVote {
        match p {
            Payload::Vote { vote, .. } => vote,
            other => panic!("expected vote, got {other:?}"),
        }
    }

    /// Both schedulers, each with a protocol it can serve.
    const ENGINES: [(EngineKind, ProtocolKind); 2] = [
        (EngineKind::TwoPL, ProtocolKind::TwoPhaseCommit),
        (EngineKind::Occ, ProtocolKind::CommitBefore),
    ];

    #[test]
    fn first_boot_is_a_zero_record_recovery() {
        for (engine, protocol) in ENGINES {
            let dir = tmp_dir(&format!("boot-{engine:?}"));
            let spec = spec_on(engine, 3, protocol, SiteLog::Dir(dir.clone()));
            let (site, stats) = Site::open(spec).unwrap();
            assert_eq!(stats, RecoveryStats::default(), "{engine:?}");
            assert_eq!(served_stats(&site), Some(stats), "{engine:?}");
            assert!(site.manager().handle().engine().dump().unwrap().is_empty());
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Commit-before work committed before a `kill -9` is undone after the
    /// restart from what the database kept — the before-image row of its
    /// write and the forward marker — and the `Undo`'s forward program. The
    /// site's directory holds its WAL and nothing else.
    #[test]
    fn commit_before_work_survives_reopen_and_undoes_on_global_abort() {
        for engine in [EngineKind::TwoPL, EngineKind::Occ] {
            let dir = tmp_dir(&format!("cb-undo-{engine:?}"));
            let open = || {
                let log = SiteLog::Dir(dir.clone());
                Site::open(spec_on(engine, 1, ProtocolKind::CommitBefore, log))
            };
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
                let (site, _) = open().unwrap();
                let manager = site.manager();
                let data = [1, 2].map(|o| (ObjectId::new(o), Value::counter(100)));
                manager.handle().engine().bulk_load(&data).unwrap();
                let vote = vote_of(
                    manager
                        .handle_submit(gtx, forward.clone(), SubmitMode::CommitBefore)
                        .unwrap(),
                );
                assert_eq!(vote, LocalVote::Ready);
                // Crash: the site (and everything in its memory) dies.
            }
            let files: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name())
                .collect();
            assert_eq!(files, ["site-1.wal"], "one durable write path per site");
            let (site, stats) = open().unwrap();
            let manager = site.manager();
            assert_eq!(stats.restored_entries, 1, "{engine:?}: the forward marker");
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
    }

    /// Commit-after work voted ready but not yet committed dies with the
    /// process, program and all. After the restart the site answers the
    /// commit decision with an outage, which makes a coordinator re-ship
    /// the program as `Redo`; the redo's marker then answers every later
    /// duplicate, across another restart too.
    #[test]
    fn commit_after_work_lost_in_a_restart_comes_back_with_its_redo() {
        for engine in [EngineKind::TwoPL, EngineKind::Occ] {
            let dir = tmp_dir(&format!("ca-redo-{engine:?}"));
            let open = || {
                let log = SiteLog::Dir(dir.clone());
                let spec = spec_on(engine, 3, ProtocolKind::CommitAfter, log);
                Site::open(spec).unwrap()
            };
            let gtx = GlobalTxnId::new(4);
            let ops = vec![Operation::Increment {
                obj: ObjectId::new(1),
                delta: 5,
            }];
            let counter =
                |s: &Site| s.manager().handle().engine().dump().unwrap()[&ObjectId::new(1)];
            let commit = |s: &Site| {
                let mode = SubmitMode::CommitAfter;
                s.manager()
                    .handle_decision(gtx, GlobalVerdict::Commit, mode)
            };
            {
                let (site, _) = open();
                let data = [(ObjectId::new(1), Value::counter(10))];
                site.manager().handle().engine().bulk_load(&data).unwrap();
                let vote = site
                    .manager()
                    .handle_submit(gtx, ops.clone(), SubmitMode::CommitAfter);
                assert_eq!(vote_of(vote.unwrap()), LocalVote::Ready);
            }
            let (site, stats) = open();
            assert_eq!(
                stats.restored_entries, 0,
                "{engine:?}: nothing committed yet"
            );
            assert!(matches!(
                commit(&site),
                Err(amc_types::AmcError::TransientIo(_))
            ));
            site.manager().handle_redo(gtx, ops).unwrap();
            assert_eq!(counter(&site), Value::counter(15));
            drop(site);
            let (site, stats) = open();
            assert_eq!(stats.restored_entries, 1, "{engine:?}: the redo's marker");
            assert_eq!(commit(&site).unwrap(), Payload::Finished { gtx });
            assert_eq!(counter(&site), Value::counter(15));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// The same, with the running commit-after work forced to the log by a
    /// concurrent commit: the first restart rolls it back and logs what it
    /// undid, so the second keeps the redo's commit and its marker.
    #[test]
    fn forced_commit_after_work_redone_after_a_restart_survives_the_next() {
        let dir = tmp_dir("ca-forced");
        let open = || {
            let spec = spec(3, ProtocolKind::CommitAfter, SiteLog::Dir(dir.clone()));
            Site::open(spec).unwrap()
        };
        let (gtx, other) = (GlobalTxnId::new(4), GlobalTxnId::new(5));
        let bump = |obj, delta| {
            vec![Operation::Increment {
                obj: ObjectId::new(obj),
                delta,
            }]
        };
        let counter = |s: &Site| s.manager().handle().engine().dump().unwrap()[&ObjectId::new(1)];
        let marked = |s: &Site| {
            let dump = s.manager().handle().engine().dump().unwrap();
            dump.contains_key(&forward_marker(gtx))
        };
        {
            let (site, _) = open();
            let data = [1, 2].map(|o| (ObjectId::new(o), Value::counter(10)));
            site.manager().handle().engine().bulk_load(&data).unwrap();
            let mode = SubmitMode::CommitAfter;
            let vote = site.manager().handle_submit(gtx, bump(1, 5), mode);
            assert_eq!(vote_of(vote.unwrap()), LocalVote::Ready);
            let mode = SubmitMode::CommitBefore;
            let vote = site.manager().handle_submit(other, bump(2, 1), mode);
            assert_eq!(vote_of(vote.unwrap()), LocalVote::Ready);
        }
        let (site, stats) = open();
        assert_eq!(stats.rolled_back, 1, "the running commit-after work");
        assert_eq!(counter(&site), Value::counter(10));
        site.manager().handle_redo(gtx, bump(1, 5)).unwrap();
        assert_eq!(counter(&site), Value::counter(15));
        drop(site);
        let (site, stats) = open();
        assert_eq!(stats.rolled_back, 0, "the loser is finished in the log");
        assert_eq!(counter(&site), Value::counter(15));
        assert!(marked(&site));
        let fin =
            site.manager()
                .handle_decision(gtx, GlobalVerdict::Commit, SubmitMode::CommitAfter);
        assert_eq!(fin.unwrap(), Payload::Finished { gtx });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn two_phase_in_doubt_resolves_by_retransmitted_decision() {
        let dir = tmp_dir("2pc-indoubt");
        let open = || {
            Site::open(spec(
                2,
                ProtocolKind::TwoPhaseCommit,
                SiteLog::Dir(dir.clone()),
            ))
        };
        let gtx = GlobalTxnId::new(5);
        let commit = |m: &LocalCommManager| {
            m.handle_decision(gtx, GlobalVerdict::Commit, SubmitMode::TwoPhase)
        };
        {
            let (site, _) = open().unwrap();
            let manager = site.manager();
            manager
                .handle()
                .engine()
                .bulk_load(&[(ObjectId::new(7), Value::counter(1))])
                .unwrap();
            let write = vec![Operation::Write {
                obj: ObjectId::new(7),
                value: Value::counter(2),
            }];
            let vote = manager.handle_submit(gtx, write, SubmitMode::TwoPhase);
            assert_eq!(vote_of(vote.unwrap()), LocalVote::Ready);
            assert_eq!(
                vote_of(manager.handle_prepare(gtx).unwrap()),
                LocalVote::Ready
            );
            // Crash inside the in-doubt window.
        }
        let (site, stats) = open().unwrap();
        let manager = site.manager();
        assert_eq!(stats.in_doubt, 1);
        assert_eq!(stats.restored_entries, 1, "the prepare record names {gtx}");
        // Re-inquiry still answers ready (the vote is a promise)...
        assert_eq!(
            vote_of(manager.handle_prepare(gtx).unwrap()),
            LocalVote::Ready
        );
        // ...and the retransmitted decision lands on the resurrected ltx.
        commit(manager).unwrap();
        let dump = manager.handle().engine().dump().unwrap();
        assert_eq!(dump.get(&ObjectId::new(7)), Some(&Value::counter(2)));
        // A second restart finds the decision durable: nothing in doubt,
        // and a duplicate decision still finds the local transaction.
        drop(site);
        let (site, stats) = open().unwrap();
        assert_eq!(stats.in_doubt, 0);
        assert_eq!(commit(site.manager()).unwrap(), Payload::Finished { gtx });
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A 2PC commit whose `Finished` was lost, and whose prepare a log cut
    /// then passed: the restarted site has no slot for it and no record
    /// naming it, and answers the retransmitted decision `Finished` — a
    /// commit decision follows this site's forced ready vote, so the work
    /// committed here.
    #[test]
    fn a_restarted_two_phase_site_finishes_a_commit_whose_prepare_was_cut() {
        let mut spec = spec(1, ProtocolKind::TwoPhaseCommit, SiteLog::Memory);
        spec.tpl.pool_frames = 8;
        let (site, _) = Site::open(spec).unwrap();
        let manager = site.manager();
        let engine = manager.handle().engine();
        let data: Vec<_> = (0..64)
            .map(|o| (ObjectId::new(o), Value::counter(0)))
            .collect();
        engine.bulk_load(&data).unwrap();
        let mode = SubmitMode::TwoPhase;
        let run = |n: u64| {
            let gtx = GlobalTxnId::new(n);
            let obj = ObjectId::new(n % 64);
            let ops = vec![Operation::Increment { obj, delta: 1 }];
            let submit = Payload::Submit { gtx, ops };
            vote_of(dispatch_to_manager(manager, submit, mode).unwrap());
            let vote = dispatch_to_manager(manager, Payload::Prepare { gtx }, mode);
            assert_eq!(vote_of(vote.unwrap()), LocalVote::Ready);
            let verdict = GlobalVerdict::Commit;
            dispatch_to_manager(manager, Payload::Decision { gtx, verdict }, mode)
        };
        let g = GlobalTxnId::new(1);
        assert_eq!(run(1).unwrap(), Payload::Finished { gtx: g });
        let mut n = 1;
        while engine.log_stats().truncated_bytes == 0 {
            n += 1;
            run(n).unwrap();
        }
        let stats = site.restart().unwrap();
        assert_eq!(stats.restored_entries, 0, "no prepare left names {g}");
        let verdict = GlobalVerdict::Commit;
        let again = dispatch_to_manager(manager, Payload::Decision { gtx: g, verdict }, mode);
        assert_eq!(again.unwrap(), Payload::Finished { gtx: g });
    }

    /// A restart in place is a new process's restart: the manager keeps
    /// its identity, but the work map and the tombstones are what the
    /// database remembers.
    #[test]
    fn a_restart_in_place_forgets_what_a_new_process_would() {
        for engine in [EngineKind::TwoPL, EngineKind::Occ] {
            let spec = spec_on(engine, 1, ProtocolKind::CommitAfter, SiteLog::Memory);
            let (site, _) = Site::open(spec).unwrap();
            let manager = Arc::clone(site.manager());
            let engine = manager.handle().engine();
            engine
                .bulk_load(&[(ObjectId::new(1), Value::counter(10))])
                .unwrap();
            let (gtx, dead) = (GlobalTxnId::new(1), GlobalTxnId::new(2));
            let ops = vec![Operation::Increment {
                obj: ObjectId::new(1),
                delta: 5,
            }];
            let mode = SubmitMode::CommitAfter;
            manager.handle_submit(gtx, ops.clone(), mode).unwrap();
            // A presumed-abort tombstone for work that never arrived.
            manager
                .handle_decision(dead, GlobalVerdict::Abort, mode)
                .unwrap();
            let stats = site.restart().unwrap();
            assert_eq!(served_stats(&site), Some(stats));
            assert!(Arc::ptr_eq(&manager, site.manager()));
            // The running work died with the "process": the commit asks for
            // its program again.
            let commit = manager.handle_decision(gtx, GlobalVerdict::Commit, mode);
            assert!(matches!(commit, Err(AmcError::TransientIo(_))));
            // The tombstone went too: a submit no restarted process can still
            // receive would now run.
            let vote = manager.handle_submit(dead, ops, mode).unwrap();
            assert_eq!(vote_of(vote), LocalVote::Ready);
        }
    }
}
