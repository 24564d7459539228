//! The recovery replica's driver: finishing in-doubt transactions after
//! the incumbent coordinator dies.
//!
//! A standby replica needs **no state of its own** — everything required
//! to finish a transaction is in the acceptor logs: the registration
//! (participant set) and the accepted instance values. The driver
//!
//! 1. unions `PaxosOpen` reports from a majority of acceptors to learn
//!    which transactions are registered but undecided;
//! 2. runs phase 1 at a ballot it owns (`(round ≥ 1, replica)`), adopting
//!    the highest-ballot accepted value per instance and proposing
//!    **Aborted** for instances with no accepted value (presume-abort);
//! 3. runs phase 2 until every instance's value is chosen by a majority;
//! 4. computes the verdict (commit iff all Prepared), delivers the
//!    decision to every participant, and only then closes the
//!    transaction at the acceptors — so a failed delivery leaves the
//!    transaction open and the next pass retries (every step is
//!    idempotent).
//!
//! Ballot contention (the incumbent limping back, or two standbys racing)
//! resolves through the usual Paxos rule: a refused promise/accept names
//! a higher ballot, the driver bumps its round past it and retries, and
//! whichever leader completes phase 2 first fixes the instance values —
//! both leaders then compute the **same** verdict from them.

use crate::acceptor::PromiseOutcome;
use crate::leader::{majority, plan_from_promises};
use amc_net::{AdminReply, AdminRequest, FederationTransport, PaxosOpenEntry, Payload};
use amc_types::Ballot;
use amc_types::{AmcError, AmcResult, GlobalTxnId, GlobalVerdict, SiteId};
use std::collections::BTreeMap;

/// Bound on ballot-bumping retries before a finish attempt gives up (the
/// caller's next pass starts fresh).
pub(crate) const MAX_BALLOT_ATTEMPTS: u32 = 8;

/// A coordinator replica's view of the acceptor group.
pub struct ReplicaDriver<'a> {
    transport: &'a dyn FederationTransport,
    acceptors: Vec<SiteId>,
    replica: u32,
}

impl<'a> ReplicaDriver<'a> {
    /// A driver speaking for coordinator replica `replica` (its ballot
    /// tie-break id) over `acceptors`.
    pub fn new(
        transport: &'a dyn FederationTransport,
        acceptors: Vec<SiteId>,
        replica: u32,
    ) -> Self {
        assert!(!acceptors.is_empty(), "acceptor group must be non-empty");
        ReplicaDriver {
            transport,
            acceptors,
            replica,
        }
    }

    /// Union the open (registered, undecided) transactions across the
    /// reachable acceptors. Errs unless a majority answered — with fewer,
    /// a transaction registered at only the unreachable minority could be
    /// missed and silently presumed absent.
    pub(crate) fn open_transactions(&self) -> AmcResult<Vec<PaxosOpenEntry>> {
        let mut reachable = 0usize;
        let mut union: BTreeMap<GlobalTxnId, PaxosOpenEntry> = BTreeMap::new();
        for a in &self.acceptors {
            match self.transport.admin(*a, AdminRequest::PaxosOpen) {
                Ok(AdminReply::PaxosOpen(entries)) => {
                    reachable += 1;
                    for e in entries {
                        union
                            .entry(e.gtx)
                            .and_modify(|have| {
                                for s in &e.participants {
                                    if !have.participants.contains(s) {
                                        have.participants.push(*s);
                                    }
                                }
                            })
                            .or_insert(e);
                    }
                }
                Ok(other) => {
                    return Err(AmcError::Protocol(format!(
                        "unexpected PaxosOpen reply {other:?}"
                    )))
                }
                Err(_) => {} // unreachable acceptor — tolerated up to f
            }
        }
        if reachable < majority(self.acceptors.len()) {
            return Err(AmcError::Protocol(format!(
                "paxos: only {reachable}/{} acceptors reachable",
                self.acceptors.len()
            )));
        }
        Ok(union.into_values().collect())
    }

    /// Finish one in-doubt transaction: drive its instances to chosen
    /// values at a ballot this replica owns and deliver the decision.
    /// `hint` seeds the participant set (pass the `PaxosOpen` entry's).
    pub fn finish(&self, gtx: GlobalTxnId, hint: &[SiteId]) -> AmcResult<GlobalVerdict> {
        let (verdict, participants) = self.decide(gtx, hint)?;
        self.deliver(gtx, verdict, &participants)?;
        Ok(verdict)
    }

    /// Drive `gtx`'s instances to majority-chosen values at a ballot this
    /// replica owns and return the verdict **without delivering it** —
    /// the incumbent coordinator uses this to run a post-registration
    /// decision through Paxos while keeping its own delivery (and
    /// down-site obligation) machinery.
    pub fn decide(
        &self,
        gtx: GlobalTxnId,
        hint: &[SiteId],
    ) -> AmcResult<(GlobalVerdict, Vec<SiteId>)> {
        let total = self.acceptors.len();
        let maj = majority(total);
        let mut round = 1u32;
        for _ in 0..MAX_BALLOT_ATTEMPTS {
            let ballot = Ballot::new(round, self.replica);
            // Phase 1: collect promises from a majority.
            let mut promises: Vec<PromiseOutcome> = Vec::new();
            let mut highest = ballot;
            for a in &self.acceptors {
                let reply = self.transport.call(
                    *a,
                    Payload::PaxosP1a {
                        gtx,
                        ballot: ballot.0,
                    },
                );
                if let Ok(Payload::PaxosP1b {
                    promised,
                    promised_up_to,
                    participants,
                    accepted,
                    ..
                }) = reply
                {
                    let up_to = Ballot(promised_up_to);
                    if promised {
                        promises.push(PromiseOutcome {
                            promised,
                            promised_up_to: up_to,
                            participants,
                            accepted: accepted
                                .into_iter()
                                .map(|(s, b, v)| (s, Ballot(b), v))
                                .collect(),
                        });
                    } else {
                        highest = highest.max(up_to);
                    }
                }
            }
            if promises.len() < maj {
                round = highest.round() + 1;
                continue;
            }
            let plan = plan_from_promises(hint, &promises);
            if plan.participants.is_empty() {
                return Err(AmcError::InvalidState(format!(
                    "paxos: {gtx} registered nowhere in the promising majority"
                )));
            }
            // Phase 2: every instance needs a majority of accepts.
            let mut preempted = false;
            let mut starved = false;
            for (site, prepared) in &plan.values {
                let mut acks = 0usize;
                for a in &self.acceptors {
                    match self.transport.call(
                        *a,
                        Payload::PaxosP2a {
                            gtx,
                            site: *site,
                            ballot: ballot.0,
                            prepared: *prepared,
                        },
                    ) {
                        Ok(Payload::PaxosP2b { accepted: true, .. }) => acks += 1,
                        Ok(Payload::PaxosP2b {
                            accepted: false, ..
                        }) => preempted = true,
                        _ => {}
                    }
                }
                if acks < maj {
                    starved = true;
                    break;
                }
            }
            if starved {
                if preempted {
                    // A higher ballot exists; chase it.
                    round += 1;
                    continue;
                }
                return Err(AmcError::Protocol(format!(
                    "paxos: {gtx} lost its acceptor majority mid-ballot"
                )));
            }
            return Ok((plan.verdict(), plan.participants));
        }
        Err(AmcError::Protocol(format!(
            "paxos: {gtx} ballot contention exceeded {MAX_BALLOT_ATTEMPTS} rounds"
        )))
    }

    /// Deliver `verdict` to every participant, then close the instances
    /// at the non-participant acceptors. Participant delivery failures
    /// propagate so the transaction stays open for the next pass.
    fn deliver(
        &self,
        gtx: GlobalTxnId,
        verdict: GlobalVerdict,
        participants: &[SiteId],
    ) -> AmcResult<()> {
        for s in participants {
            self.transport
                .call(*s, Payload::Decision { gtx, verdict })?;
        }
        for a in &self.acceptors {
            if !participants.contains(a) {
                // Best-effort: a missed note merely keeps the transaction
                // "open" at this acceptor; re-finishing is idempotent.
                let _ = self
                    .transport
                    .call(*a, Payload::PaxosDecided { gtx, verdict });
            }
        }
        Ok(())
    }

    /// One full takeover pass: finish every open transaction. Returns the
    /// decided pairs; stops at the first hard error.
    pub fn run_once(&self) -> AmcResult<Vec<(GlobalTxnId, GlobalVerdict)>> {
        let mut out = Vec::new();
        for e in self.open_transactions()? {
            out.push((e.gtx, self.finish(e.gtx, &e.participants)?));
        }
        Ok(out)
    }
}
