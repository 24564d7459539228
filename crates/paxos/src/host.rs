//! Hosting a durable acceptor inside a site runtime.
//!
//! Co-location (Gray & Lamport §5): the 2f+1 acceptors are not separate
//! processes but live inside site servers. That buys the protocol's
//! signature message saving — a site's **vote reply doubles as the
//! ballot-0 phase-2a/2b exchange for its own instance**: the vote is
//! durably accepted in the co-located acceptor's log before the reply
//! leaves the process, so one round trip does both the 2PC vote and one
//! of the Paxos accepts.
//!
//! The host is runtime-agnostic: it is the site's [`CoLocatedAcceptor`],
//! handed to the site's communication manager when the site opens, and
//! `amc_net::transport::dispatch_to_manager` — the dispatch of every
//! runtime, in process or over TCP — runs its hooks around the manager:
//! Paxos messages are answered here, and a vote reply is accepted (or
//! refused) here before it leaves the site.

use crate::acceptor::AcceptorState;
use amc_net::{AdminReply, AdminRequest, CoLocatedAcceptor, Payload};
use amc_types::{AmcError, AmcResult, Ballot, GlobalTxnId, SiteId};
use amc_wal::{GroupCommitter, LogRecord};
use parking_lot::Mutex;
use std::sync::Arc;

/// An acceptor mounted at one site, writing through the site's group
/// committer.
///
/// Its rows share the log with whatever else the committer carries (a
/// deployed site's engine WAL), so one force covers both and one file
/// holds both. The durability rule: a row is appended under the acceptor
/// lock, so log order is state order; the committer's head is read there;
/// and the reply waits, outside the lock, until a completed force covers
/// that head. A reply from state whose row is still in a batch being
/// forced — an idempotent duplicate — waits for that batch too. A message
/// for a transaction the acceptor holds no state for appends nothing and
/// never waits.
pub struct AcceptorHost {
    site: SiteId,
    state: Mutex<AcceptorState>,
    wal: Arc<GroupCommitter>,
}

impl AcceptorHost {
    /// Mount an acceptor at `site` over `wal`, replaying the acceptor rows
    /// of its stable prefix: a restarted acceptor keeps its word. On a
    /// restarted site, mount after engine recovery has cut any torn tail.
    pub fn mount(site: SiteId, wal: Arc<GroupCommitter>) -> AmcResult<AcceptorHost> {
        let state = Mutex::default();
        let host = AcceptorHost { site, state, wal };
        host.replay().map(|()| host)
    }

    /// Forget the acceptor's state and replay it from the rows of the log's
    /// stable prefix, as a mount in a new process would.
    pub fn replay(&self) -> AmcResult<()> {
        let records = self.wal.with_log(|log| log.stable_records())?;
        *self.state.lock() = AcceptorState::replay(records.iter().map(|(_, r)| r));
        Ok(())
    }

    /// The committer the acceptor writes through: its site's.
    pub fn wal(&self) -> &GroupCommitter {
        &self.wal
    }

    /// Run `f` under the acceptor lock and append the row it returns;
    /// then, if the acceptor holds state for `gtx`, wait outside the lock
    /// until the log is durable up to the head read under it. A crash in
    /// between is an error: the caller must not answer.
    fn durably<R>(
        &self,
        gtx: GlobalTxnId,
        f: impl FnOnce(&mut AcceptorState) -> (R, Option<LogRecord>),
    ) -> AmcResult<R> {
        let (r, mark) = {
            let mut state = self.state.lock();
            let (r, row) = f(&mut state);
            if let Some(row) = &row {
                self.wal.append(row);
            }
            (r, state.knows(gtx).then(|| self.wal.mark()))
        };
        match mark {
            Some(mark) if !self.wal.wait_durable(mark) => Err(AmcError::SiteDown(self.site)),
            _ => Ok(r),
        }
    }

    /// Inspect the acceptor's state (tests and experiments).
    pub fn with_state<R>(&self, f: impl FnOnce(&AcceptorState) -> R) -> R {
        f(&self.state.lock())
    }
}

impl CoLocatedAcceptor for AcceptorHost {
    /// Paxos messages are answered from the acceptor's state, each row
    /// forced before the reply; a `Decision` is noted and continues.
    fn pre_dispatch(&self, payload: &Payload) -> AmcResult<Option<Payload>> {
        match payload {
            Payload::PaxosRegister { gtx, participants } => {
                self.durably(*gtx, |a| ((), a.register(*gtx, participants)))?;
                Ok(Some(Payload::PaxosAck { gtx: *gtx }))
            }
            Payload::PaxosP1a { gtx, ballot } => {
                let out = self.durably(*gtx, |a| a.promise(*gtx, Ballot(*ballot)))?;
                Ok(Some(Payload::PaxosP1b {
                    gtx: *gtx,
                    ballot: *ballot,
                    promised: out.promised,
                    promised_up_to: out.promised_up_to.0,
                    participants: out.participants,
                    accepted: out
                        .accepted
                        .into_iter()
                        .map(|(s, b, v)| (s, b.0, v))
                        .collect(),
                }))
            }
            Payload::PaxosP2a {
                gtx,
                site,
                ballot,
                prepared,
            } => {
                let accepted =
                    self.durably(*gtx, |a| a.accept(*gtx, *site, Ballot(*ballot), *prepared))?;
                Ok(Some(Payload::PaxosP2b {
                    gtx: *gtx,
                    site: *site,
                    ballot: *ballot,
                    accepted,
                }))
            }
            Payload::PaxosDecided { gtx, verdict } => {
                self.durably(*gtx, |a| ((), a.note_decision(*gtx, *verdict)))?;
                Ok(Some(Payload::PaxosAck { gtx: *gtx }))
            }
            Payload::Decision { gtx, verdict } => {
                // Piggyback: a participant's decision closes its
                // co-located acceptor's instances, no extra message.
                self.durably(*gtx, |a| ((), a.note_decision(*gtx, *verdict)))?;
                Ok(None)
            }
            _ => Ok(None),
        }
    }

    /// Observe the reply produced by normal dispatch. A vote reply is
    /// durably accepted at ballot 0 for this site's own instance before
    /// it leaves the process; if a recovery ballot has already superseded
    /// ballot 0, the vote is refused and the site must NOT answer with a
    /// countable vote — the incumbent that receives the error falls into
    /// the recovery path instead of counting a vote the acceptors will
    /// ignore.
    ///
    /// The hook applies only to **registered** transactions: a 2PC
    /// work-round reply is also a `Vote`, and accepting it would durably
    /// record Prepared for a site that has not prepared. The incumbent
    /// registers between the work and prepare rounds, so exactly the
    /// prepare-round votes land here.
    fn post_dispatch(&self, reply: &Payload) -> AmcResult<()> {
        if let Payload::Vote { gtx, vote } = reply {
            let accepted = self.durably(*gtx, |a| match a.participants(*gtx) {
                None => (None, None),
                Some(_) => {
                    let (ok, row) = a.accept(*gtx, self.site, Ballot::ZERO, vote.is_yes());
                    (Some(ok), row)
                }
            })?;
            if accepted == Some(false) {
                return Err(AmcError::Protocol(format!(
                    "paxos: {gtx} vote at {} superseded by a recovery ballot",
                    self.site
                )));
            }
        }
        Ok(())
    }

    /// Intercept an admin request; `Some` when handled by the acceptor.
    fn admin_pre(&self, req: &AdminRequest) -> Option<AdminReply> {
        match req {
            AdminRequest::PaxosOpen => {
                Some(AdminReply::PaxosOpen(self.state.lock().open_entries()))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amc_types::{GlobalVerdict, LocalVote, Lsn};
    use amc_wal::{GroupCommitConfig, LogManager};
    use std::path::{Path, PathBuf};
    use std::time::{Duration, Instant};

    fn gtx(n: u64) -> GlobalTxnId {
        GlobalTxnId::new(n)
    }

    /// An acceptor over an in-memory log of its own.
    fn host(site: u32) -> AcceptorHost {
        let wal = GroupCommitter::new(LogManager::new(), GroupCommitConfig::default());
        AcceptorHost::mount(SiteId::new(site), Arc::new(wal)).unwrap()
    }

    /// A fresh durable WAL file named `name`.
    fn wal_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("amc-paxos-host-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    /// An acceptor over the durable WAL at `path`, forces modelled at
    /// `force_latency` on top of the real fsync.
    fn durable_host(site: u32, path: &Path, force_latency: Duration) -> AcceptorHost {
        let log = LogManager::open_durable(path).unwrap();
        let wal = GroupCommitter::new(log, GroupCommitConfig { force_latency });
        AcceptorHost::mount(SiteId::new(site), Arc::new(wal)).unwrap()
    }

    fn register(gtx: GlobalTxnId, participants: &[u32]) -> Payload {
        let participants = participants.iter().copied().map(SiteId::new).collect();
        Payload::PaxosRegister { gtx, participants }
    }

    fn accept(gtx: GlobalTxnId, site: u32) -> Payload {
        Payload::PaxosP2a {
            gtx,
            site: SiteId::new(site),
            ballot: 0,
            prepared: true,
        }
    }

    fn durable_lsn(h: &AcceptorHost) -> Lsn {
        h.wal().with_log(|log| log.durable())
    }

    #[test]
    fn register_then_vote_then_decision_closes_the_txn() {
        let h = host(1);
        let reply = h.pre_dispatch(&register(gtx(1), &[1, 2])).unwrap().unwrap();
        assert_eq!(reply, Payload::PaxosAck { gtx: gtx(1) });
        // The site's own vote reply is the ballot-0 accept.
        h.post_dispatch(&Payload::Vote {
            gtx: gtx(1),
            vote: LocalVote::Ready,
        })
        .unwrap();
        assert_eq!(
            h.with_state(|a| a.accepted(gtx(1), SiteId::new(1))),
            Some((Ballot::ZERO, true))
        );
        assert_eq!(
            h.admin_pre(&AdminRequest::PaxosOpen),
            Some(AdminReply::PaxosOpen(vec![amc_net::PaxosOpenEntry {
                gtx: gtx(1),
                participants: vec![SiteId::new(1), SiteId::new(2)],
            }]))
        );
        // The ordinary decision payload both notes (pre) and continues to
        // the manager (None).
        let cont = h
            .pre_dispatch(&Payload::Decision {
                gtx: gtx(1),
                verdict: GlobalVerdict::Commit,
            })
            .unwrap();
        assert!(cont.is_none());
        assert_eq!(
            h.admin_pre(&AdminRequest::PaxosOpen),
            Some(AdminReply::PaxosOpen(vec![]))
        );
        // Every row was forced before its reply: one force each. None is
        // a commit acknowledgement.
        let stats = h.wal().stats();
        assert_eq!((stats.appends, stats.forces), (3, 3));
        assert_eq!((stats.group_forces, stats.batched_commits), (0, 0));
    }

    #[test]
    fn superseded_vote_is_refused() {
        let h = host(2);
        h.pre_dispatch(&register(gtx(4), &[2])).unwrap();
        // A recovery replica promised ballot (1, 9) before the vote landed.
        let p1b = h
            .pre_dispatch(&Payload::PaxosP1a {
                gtx: gtx(4),
                ballot: Ballot::new(1, 9).0,
            })
            .unwrap()
            .unwrap();
        assert!(matches!(p1b, Payload::PaxosP1b { promised: true, .. }));
        let err = h
            .post_dispatch(&Payload::Vote {
                gtx: gtx(4),
                vote: LocalVote::Ready,
            })
            .unwrap_err();
        assert!(matches!(err, AmcError::Protocol(_)));
    }

    #[test]
    fn unregistered_vote_is_not_treated_as_an_accept() {
        // 2PC's work-round submit reply is also a `Vote`; before the
        // incumbent registers the transaction it must pass through
        // without touching the log.
        let h = host(5);
        h.post_dispatch(&Payload::Vote {
            gtx: gtx(8),
            vote: LocalVote::Ready,
        })
        .unwrap();
        assert_eq!(h.with_state(|a| a.accepted(gtx(8), SiteId::new(5))), None);
        assert_eq!(h.wal().stats(), Default::default());
    }

    /// Non-Paxos traffic pays nothing: no row, no force, no wait.
    #[test]
    fn non_paxos_payloads_pass_through() {
        let h = host(3);
        assert!(h
            .pre_dispatch(&Payload::Prepare { gtx: gtx(1) })
            .unwrap()
            .is_none());
        let decision = Payload::Decision {
            gtx: gtx(1),
            verdict: GlobalVerdict::Abort,
        };
        assert!(h.pre_dispatch(&decision).unwrap().is_none());
        assert!(h.admin_pre(&AdminRequest::Ping).is_none());
        h.post_dispatch(&Payload::Finished { gtx: gtx(1) }).unwrap();
        assert_eq!(h.wal().stats(), Default::default());
    }

    /// Everything an acceptor answered survives a reopen of the WAL it
    /// writes through.
    #[test]
    fn durable_acceptor_survives_reopen() {
        let path = wal_path("reopen.wal");
        {
            let h = durable_host(1, &path, Duration::ZERO);
            h.pre_dispatch(&register(gtx(5), &[1, 2])).unwrap();
            h.post_dispatch(&Payload::Vote {
                gtx: gtx(5),
                vote: LocalVote::Ready,
            })
            .unwrap();
            h.pre_dispatch(&Payload::PaxosP1a {
                gtx: gtx(5),
                ballot: Ballot::new(1, 2).0,
            })
            .unwrap();
            assert_eq!(h.wal().stats().appends, 3);
        }
        let h = durable_host(1, &path, Duration::ZERO);
        h.with_state(|a| {
            assert_eq!(a.promised(gtx(5)), Ballot::new(1, 2));
            assert_eq!(
                a.accepted(gtx(5), SiteId::new(1)),
                Some((Ballot::ZERO, true))
            );
            assert_eq!(a.open_entries().len(), 1);
        });
    }

    #[test]
    fn duplicate_accept_writes_no_second_frame() {
        let h = host(1);
        for _ in 0..2 {
            let reply = h.pre_dispatch(&accept(gtx(1), 1)).unwrap().unwrap();
            assert!(matches!(reply, Payload::PaxosP2b { accepted: true, .. }));
        }
        assert_eq!(h.wal().stats().appends, 1);
    }

    /// Concurrent registered votes over one durable WAL: every reply left
    /// after its rows were forced, and a reopen replays all of them.
    #[test]
    fn concurrent_votes_are_durable_across_reopen() {
        let path = wal_path("concurrent.wal");
        let h = Arc::new(durable_host(7, &path, Duration::ZERO));
        let handles: Vec<_> = (1..=8u64)
            .map(|n| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    h.pre_dispatch(&register(gtx(n), &[7])).unwrap();
                    h.post_dispatch(&Payload::Vote {
                        gtx: gtx(n),
                        vote: LocalVote::Ready,
                    })
                    .unwrap();
                })
            })
            .collect();
        for t in handles {
            t.join().unwrap();
        }
        let stats = h.wal().stats();
        assert_eq!(stats.appends, 16);
        assert_eq!(durable_lsn(&h), Lsn::new(16));
        assert!(stats.forces <= stats.appends);
        drop(h);
        let reopened = durable_host(7, &path, Duration::ZERO);
        for n in 1..=8u64 {
            assert_eq!(
                reopened.with_state(|a| a.accepted(gtx(n), SiteId::new(7))),
                Some((Ballot::ZERO, true))
            );
        }
    }

    /// Block until the file at `path` is longer than `len`: a leader has
    /// written its batch and is out forcing it.
    fn wait_until_out(path: &Path, len: u64) -> u64 {
        // A liveness deadline, not a timing bound.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let now = std::fs::metadata(path).unwrap().len();
            if now > len {
                return now;
            }
            assert!(Instant::now() < deadline, "no leader went out");
            std::thread::yield_now();
        }
    }

    /// A repeated register and a duplicate accept, sent while the first
    /// one's batch is out being forced, are answered from state whose
    /// row is not yet durable: each reply waits for that batch.
    #[test]
    fn a_duplicate_waits_for_the_batch_that_carries_its_state() {
        let path = wal_path("duplicate.wal");
        let h = Arc::new(durable_host(1, &path, Duration::from_millis(300)));
        let firsts = [register(gtx(1), &[1, 2]), accept(gtx(1), 2)];
        let mut len = 0;
        for (n, first) in firsts.into_iter().enumerate() {
            let lsn = Lsn::new(n as u64 + 1);
            let leader = {
                let (h, first) = (Arc::clone(&h), first.clone());
                std::thread::spawn(move || h.pre_dispatch(&first).unwrap())
            };
            // The duplicate goes in while the first row's force (300 ms)
            // is out.
            len = wait_until_out(&path, len);
            let reply = h.pre_dispatch(&first).unwrap();
            assert!(
                durable_lsn(&h) >= lsn,
                "a duplicate of {first} was answered before its row was durable"
            );
            assert_eq!(leader.join().unwrap(), reply);
        }
        assert_eq!(h.wal().stats().appends, 2, "duplicates append nothing");
    }
}
