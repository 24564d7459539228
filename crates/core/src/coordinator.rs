//! The sans-IO coordinator state machine.
//!
//! One [`Coordinator`] drives one global transaction through the protocol
//! selected at construction. It never performs IO: callers feed it
//! [`CoordEvent`]s and interpret the returned [`CoordAction`]s (send this
//! message, the decision is made, the transaction is finished). Both the
//! threaded and the discrete-event runtimes drive the same machine, which
//! is what makes the golden traces representative of the benchmarked code.
//!
//! State progression mirrors the global-transaction halves of Figs. 2, 4
//! and 6: `Running → Inquiring → WaitingToCommit/WaitingToAbort →
//! Committed/Aborted`.

use amc_net::Payload;
use amc_obs::{EventKind, ObsSink};
use amc_types::{
    AmcError, AmcResult, GlobalTxnId, GlobalVerdict, LocalVote, ObjectId, Operation, ProtocolKind,
    SiteId,
};
use std::collections::{BTreeMap, BTreeSet};

/// Input to the state machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordEvent {
    /// Kick off: ship the decomposed programs.
    Start,
    /// A vote (submit reply, or prepare reply for 2PC) arrived.
    Vote {
        /// Voting site.
        site: SiteId,
        /// Its vote.
        vote: LocalVote,
    },
    /// A `finished` message arrived.
    Finished {
        /// Acknowledging site.
        site: SiteId,
    },
    /// The driver stopped waiting for `site` in this round (it is down, or
    /// the link to it failed). Before the decision that is an abort with
    /// the site's vote left unknown; after it the site simply stays
    /// outstanding.
    Unreachable {
        /// The silent site.
        site: SiteId,
    },
    /// Retransmission timer fired (the driver decides the cadence; the
    /// machine re-emits whatever is still outstanding).
    Timer,
}

impl CoordEvent {
    /// What `site`'s answer to a coordinator message — or the failure to
    /// get one — means to the machine. An outage is an event; any other
    /// error, or a reply no participant should send, is the caller's.
    pub(crate) fn from_reply(site: SiteId, reply: AmcResult<Payload>) -> AmcResult<Self> {
        match reply {
            Ok(Payload::Vote { vote, .. }) => Ok(CoordEvent::Vote { site, vote }),
            Ok(Payload::Finished { .. }) => Ok(CoordEvent::Finished { site }),
            Ok(other) => Err(AmcError::Protocol(format!("unexpected reply {other}"))),
            Err(AmcError::SiteDown(_)) | Err(AmcError::TransientIo(_)) => {
                Ok(CoordEvent::Unreachable { site })
            }
            Err(e) => Err(e),
        }
    }
}

/// Output of the state machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordAction {
    /// Send `payload` to `site`.
    Send {
        /// Destination.
        site: SiteId,
        /// Message.
        payload: Payload,
    },
    /// The global decision has been made (emitted exactly once).
    Decided(GlobalVerdict),
    /// The protocol is complete; the global transaction reached its
    /// terminal phase.
    Done(GlobalVerdict),
}

/// Retransmission backoff ceiling: once a site has missed enough timers,
/// it is re-asked every `BACKOFF_CAP_TICKS` ticks instead of every tick.
const BACKOFF_CAP_TICKS: u32 = 64;

/// Deterministic retransmission jitter in `[0, base/4]`, mixed from the
/// (transaction, site, attempt) triple with SplitMix64. Many coordinators
/// wedged on the same recovering site would otherwise re-inquire on
/// exactly the same ticks — the doubling schedule is identical for all of
/// them. A pure function (no RNG state) keeps replays of the same
/// schedule bit-identical.
fn backoff_jitter(gtx: GlobalTxnId, site: SiteId, misses: u32, base: u32) -> u32 {
    let z = gtx
        .raw()
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(site.raw()) << 32)
        .wrapping_add(u64::from(misses));
    (amc_types::splitmix64(z) as u32) % (base / 4 + 1)
}

/// Per-site retransmission backoff state. A site that stays silent is
/// re-asked after 2, 4, 8, … ticks (capped), not on every tick — PR 1's
/// every-tick re-inquiry turned a long partition into a retransmit storm.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Backoff {
    /// Timer ticks on which this site was actually retransmitted to.
    misses: u32,
    /// Ticks to skip before the next retransmission.
    ticks_left: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Round {
    /// Work shipped, collecting submit replies.
    Work,
    /// 2PC only: prepare shipped, collecting ready votes.
    Prepare,
    /// Decision shipped, collecting finished acks.
    Finish,
    /// Terminal.
    Done,
}

/// Coordinator for one global transaction.
#[derive(Debug, Clone)]
pub struct Coordinator {
    gtx: GlobalTxnId,
    protocol: ProtocolKind,
    programs: BTreeMap<SiteId, Vec<Operation>>,
    round: Round,
    votes: BTreeMap<SiteId, Option<LocalVote>>,
    /// Sites we expect a `finished` from, with the payload to retransmit.
    pending_finish: BTreeMap<SiteId, Payload>,
    /// Commit-before abort only: sites whose final state was unknown when
    /// the decision fell. §3.3: the coordinator keeps inquiring — a site
    /// that turns out to have committed still needs its undo.
    awaiting_final_state: BTreeSet<SiteId>,
    /// Per-site retransmission backoff (reset when the site answers or a
    /// new round ships fresh messages).
    backoff: BTreeMap<SiteId, Backoff>,
    /// 1PC vote piggyback (2PC only): the work dispatch carries the
    /// prepare, the submit replies are the votes, and the separate prepare
    /// round disappears. With one participant the dispatch is `solo` and
    /// `protocol` is commit-before from then on.
    piggyback: bool,
    verdict: Option<GlobalVerdict>,
    obs: ObsSink,
}

impl Coordinator {
    /// A coordinator for `gtx` running `protocol` over the decomposed
    /// `programs`.
    pub fn new(
        gtx: GlobalTxnId,
        protocol: ProtocolKind,
        programs: BTreeMap<SiteId, Vec<Operation>>,
    ) -> Self {
        assert!(
            !programs.is_empty(),
            "a global transaction needs participants"
        );
        assert!(
            programs.keys().all(|s| !s.is_central()),
            "the central system is not a participant"
        );
        let votes = programs.keys().map(|s| (*s, None)).collect();
        Coordinator {
            gtx,
            protocol,
            programs,
            round: Round::Work,
            votes,
            pending_finish: BTreeMap::new(),
            awaiting_final_state: BTreeSet::new(),
            backoff: BTreeMap::new(),
            piggyback: false,
            verdict: None,
            obs: ObsSink::disabled(),
        }
    }

    /// Enable the 1PC vote piggyback (*To Vote Before Decide*). Only
    /// meaningful under 2PC — the portable protocols' votes already ride
    /// their submit replies. `start` ships the combined `SubmitPrepare`
    /// dispatch and unanimous ready replies decide commit directly,
    /// cutting the dedicated prepare round (one RTT per site).
    ///
    /// Retransmission is unchanged: a silent site is re-inquired with
    /// `Prepare`, which the managers answer idempotently from the durable
    /// prepared state (or presume abort if the dispatch never arrived).
    ///
    /// A transaction with **one** participant needs no global round at
    /// all: its dispatch is marked `solo`, the site commits locally at
    /// once through its commit-before machinery (forward marker, before-image
    /// rows), and this machine is a commit-before coordinator
    /// of one — a ready vote is the commit, a lost reply is inquired about
    /// and undone if the site had committed (§3.3).
    pub(crate) fn with_piggyback(mut self) -> Self {
        debug_assert_eq!(
            self.protocol,
            ProtocolKind::TwoPhaseCommit,
            "piggyback is a 2PC fast path"
        );
        self.piggyback = true;
        if self.programs.len() == 1 {
            self.protocol = ProtocolKind::CommitBefore;
        }
        self
    }

    /// Attach an observability sink; votes, decisions, inquiries and
    /// completion emit events attributed to the central system.
    pub fn set_obs(&mut self, sink: ObsSink) {
        self.obs = sink;
    }

    fn emit(&self, kind: EventKind) {
        self.obs.emit(Some(self.gtx), SiteId::CENTRAL, kind);
    }

    /// The protocol this machine runs: the one it was built with, except
    /// that a solo fast-path transaction runs commit-before.
    pub fn protocol(&self) -> ProtocolKind {
        self.protocol
    }

    /// The operations shipped to `site` (empty for a non-participant).
    pub fn program(&self, site: SiteId) -> &[Operation] {
        self.programs.get(&site).map_or(&[], Vec::as_slice)
    }

    /// Every object the programs touch, in site order (repeats included).
    pub(crate) fn objects(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.programs.values().flatten().map(Operation::object)
    }

    /// This coordinator's transaction.
    pub fn gtx(&self) -> GlobalTxnId {
        self.gtx
    }

    /// Participant sites.
    pub fn participants(&self) -> Vec<SiteId> {
        self.programs.keys().copied().collect()
    }

    /// The decision, once made.
    pub fn verdict(&self) -> Option<GlobalVerdict> {
        self.verdict
    }

    /// True once the protocol is complete.
    pub fn is_done(&self) -> bool {
        self.round == Round::Done
    }

    /// Restart this coordinator after a **central-system crash** (the
    /// coordinator-side half of crash recovery, cf. [Ske 81]): everything
    /// volatile is forgotten; the programs and the piggyback choice come
    /// from construction.
    ///
    /// * `Some(verdict)` — the decision had been forced to the central log
    ///   before the crash: resume the finish round and re-drive every
    ///   participant (handlers are idempotent: markers, tombstones, state
    ///   checks).
    /// * `None` — no durable decision: **presume abort**. Participant
    ///   votes are unknown; commit-before inquires for final states and
    ///   undoes late "committed" answers, the decision-holding protocols
    ///   ship the abort to everyone.
    ///
    /// A driver whose replicated decision log overrules the verdict this
    /// machine reached calls this too: the log wins, as after a crash.
    ///
    /// Returns the actions to perform immediately.
    pub fn resume(&mut self, logged_verdict: Option<GlobalVerdict>) -> Vec<CoordAction> {
        self.verdict = None;
        self.pending_finish.clear();
        self.awaiting_final_state.clear();
        // A decided commit means every participant had voted yes; whether
        // any was read-only is lost with the crash — assume not and
        // re-drive everyone (duplicates are absorbed). Aborts (logged or
        // presumed): votes unknown — `decide` sends the abort / inquires
        // as the protocol requires.
        let verdict = logged_verdict.unwrap_or(GlobalVerdict::Abort);
        let vote = (verdict == GlobalVerdict::Commit).then_some(LocalVote::Ready);
        self.votes.values_mut().for_each(|slot| *slot = vote);
        // Drop the duplicate `Decided` marker: the decision (if any) was
        // already counted before the crash, and a presumed abort is
        // reported through `Done`.
        self.decide(verdict)
            .into_iter()
            .filter(|a| !matches!(a, CoordAction::Decided(_)))
            .collect()
    }

    /// Feed one event; interpret the returned actions.
    pub fn on_event(&mut self, event: CoordEvent) -> Vec<CoordAction> {
        match event {
            CoordEvent::Start => self.start(),
            CoordEvent::Vote { site, vote } => self.on_vote(site, vote),
            CoordEvent::Finished { site } => self.on_finished(site),
            CoordEvent::Unreachable { site } => self.on_unreachable(site),
            CoordEvent::Timer => self.on_timer(),
        }
    }

    fn start(&mut self) -> Vec<CoordAction> {
        assert_eq!(self.round, Round::Work, "start called twice");
        self.programs
            .iter()
            .map(|(site, ops)| CoordAction::Send {
                site: *site,
                payload: if self.piggyback {
                    Payload::SubmitPrepare {
                        gtx: self.gtx,
                        ops: ops.clone(),
                        solo: self.programs.len() == 1,
                    }
                } else {
                    Payload::Submit {
                        gtx: self.gtx,
                        ops: ops.clone(),
                    }
                },
            })
            .collect()
    }

    fn on_vote(&mut self, site: SiteId, vote: LocalVote) -> Vec<CoordAction> {
        // Commit-before abort: late final-state answers keep arriving
        // after the decision (§3.3's post-decision inquiry).
        if self.round == Round::Finish {
            return self.on_late_final_state(site, vote);
        }
        if self.round != Round::Work && self.round != Round::Prepare {
            return Vec::new(); // stale duplicate
        }
        let Some(slot) = self.votes.get_mut(&site) else {
            return Vec::new(); // not a participant; ignore
        };
        if self.round == Round::Work && slot.is_some() {
            return Vec::new(); // duplicate
        }
        *slot = Some(vote);
        self.backoff.remove(&site);
        self.emit(EventKind::Vote { from: site, vote });

        // An abort vote decides immediately — no point waiting (§3.1).
        if vote == LocalVote::Aborted {
            return self.decide(GlobalVerdict::Abort);
        }
        if self.votes.values().any(Option::is_none) {
            return Vec::new(); // still collecting
        }
        // All ready.
        match (self.protocol, self.round) {
            // Piggyback: the work replies *are* the prepare votes — the
            // transaction is already prepared everywhere; decide directly.
            (ProtocolKind::TwoPhaseCommit, Round::Work) if !self.piggyback => {
                // Work complete everywhere: start the voting phase proper.
                self.round = Round::Prepare;
                self.backoff.clear();
                for slot in self.votes.values_mut() {
                    *slot = None;
                }
                self.programs
                    .keys()
                    .map(|site| CoordAction::Send {
                        site: *site,
                        payload: Payload::Prepare { gtx: self.gtx },
                    })
                    .collect()
            }
            _ => self.decide(GlobalVerdict::Commit),
        }
    }

    fn decide(&mut self, verdict: GlobalVerdict) -> Vec<CoordAction> {
        debug_assert!(self.verdict.is_none());
        self.verdict = Some(verdict);
        self.round = Round::Finish;
        self.backoff.clear();
        self.emit(EventKind::Decide { verdict });
        let mut actions = vec![CoordAction::Decided(verdict)];

        for (site, _) in self.programs.iter() {
            let voted = self.votes.get(site).copied().flatten();
            // Read-only participants committed at their vote and dropped
            // out of the decision round entirely.
            if voted == Some(LocalVote::ReadyReadOnly) {
                continue;
            }
            let payload = match (self.protocol, verdict) {
                // 2PC and commit-after ship the decision to everyone; a
                // participant that already aborted locally tolerates the
                // duplicate abort (§3.2's state diagram).
                (ProtocolKind::TwoPhaseCommit, v) | (ProtocolKind::CommitAfter, v) => {
                    Some(Payload::Decision {
                        gtx: self.gtx,
                        verdict: v,
                    })
                }
                // Commit-before, commit: nothing to do — the locals already
                // committed (§3.3: "does not need to start further
                // actions").
                (ProtocolKind::CommitBefore, GlobalVerdict::Commit) => None,
                // Commit-before, abort: undo the sites that committed.
                // Sites with *unknown* final state must be inquired until
                // they answer — a silent site may have committed (§3.3).
                (ProtocolKind::CommitBefore, GlobalVerdict::Abort) => match voted {
                    Some(LocalVote::Ready) => Some(self.undo(*site)),
                    Some(LocalVote::ReadyReadOnly | LocalVote::Aborted) => None, // nothing to invert
                    None => {
                        self.awaiting_final_state.insert(*site);
                        self.emit(EventKind::Inquiry { to: *site });
                        actions.push(CoordAction::Send {
                            site: *site,
                            payload: Payload::Prepare { gtx: self.gtx },
                        });
                        None
                    }
                },
            };
            if let Some(payload) = payload {
                self.pending_finish.insert(*site, payload.clone());
                actions.push(CoordAction::Send {
                    site: *site,
                    payload,
                });
            }
        }
        actions.extend(self.done_if_settled());
        actions
    }

    /// A final-state answer arriving after an abort decision (commit-before
    /// only): a committed site gets its undo now.
    fn on_late_final_state(&mut self, site: SiteId, vote: LocalVote) -> Vec<CoordAction> {
        if !self.awaiting_final_state.remove(&site) {
            return Vec::new(); // duplicate or unrelated
        }
        self.backoff.remove(&site);
        debug_assert_eq!(self.protocol, ProtocolKind::CommitBefore);
        debug_assert_eq!(self.verdict, Some(GlobalVerdict::Abort));
        *self.votes.get_mut(&site).expect("participant") = Some(vote);
        self.emit(EventKind::Vote { from: site, vote });
        let mut actions = Vec::new();
        if vote == LocalVote::Ready {
            let payload = self.undo(site);
            self.pending_finish.insert(site, payload.clone());
            actions.push(CoordAction::Send { site, payload });
        }
        actions.extend(self.done_if_settled());
        actions
    }

    /// The `Undo` for `site`: it carries the site's forward program, whose
    /// inverse the site derives (§3.3), as `Redo` carries it for §3.2.
    fn undo(&self, site: SiteId) -> Payload {
        Payload::Undo {
            gtx: self.gtx,
            ops: self.programs[&site].clone(),
        }
    }

    fn on_finished(&mut self, site: SiteId) -> Vec<CoordAction> {
        if self.round != Round::Finish {
            return Vec::new();
        }
        self.pending_finish.remove(&site);
        self.backoff.remove(&site);
        self.done_if_settled().into_iter().collect()
    }

    /// Complete once no site is owed, or asked for, its final state.
    fn done_if_settled(&mut self) -> Option<CoordAction> {
        if !self.pending_finish.is_empty() || !self.awaiting_final_state.is_empty() {
            return None;
        }
        self.round = Round::Done;
        let verdict = self.verdict.expect("the finish round has a verdict");
        self.emit(EventKind::Done { verdict });
        Some(CoordAction::Done(verdict))
    }

    /// The driver gave up on `site` for this round. A site that cannot be
    /// heard cannot promise anything, so before the decision this aborts —
    /// with the site's vote left *unknown*, which `decide` already handles:
    /// the abort travels to it (2PC, commit-after) or it is inquired and,
    /// had it committed, undone (commit-before, §3.3's crash race). After
    /// the decision nothing changes: the site stays outstanding.
    fn on_unreachable(&mut self, site: SiteId) -> Vec<CoordAction> {
        let collecting = matches!(self.round, Round::Work | Round::Prepare);
        if collecting && self.votes.get(&site) == Some(&None) {
            return self.decide(GlobalVerdict::Abort);
        }
        Vec::new()
    }

    /// Every site this machine still waits for, with the message that asks
    /// it again. In the work/prepare rounds the missing piece is a vote:
    /// re-inquire with `Prepare` (the paper's post-recovery inquiry — the
    /// managers answer from durable state). In the finish round, re-send
    /// the decision — except that a commit-after **commit** is
    /// retransmitted as `Redo` carrying the operations, since a crashed
    /// site may have lost the running transaction and needs the program to
    /// repeat it (§3.2) — and re-inquire every site whose final state is
    /// still unknown after a commit-before abort: losing either the
    /// one-shot inquiry or its answer must not end the inquiry (§3.3).
    pub(crate) fn outstanding(&self) -> Vec<(SiteId, Payload)> {
        let inquiry = |site: &SiteId| (*site, Payload::Prepare { gtx: self.gtx });
        match self.round {
            Round::Work | Round::Prepare => self
                .votes
                .iter()
                .filter(|(_, v)| v.is_none())
                .map(|(site, _)| inquiry(site))
                .collect(),
            Round::Finish => self
                .pending_finish
                .iter()
                .map(|(site, payload)| {
                    let payload = match (self.protocol, self.verdict) {
                        (ProtocolKind::CommitAfter, Some(GlobalVerdict::Commit)) => Payload::Redo {
                            gtx: self.gtx,
                            ops: self.programs[site].clone(),
                        },
                        _ => payload.clone(),
                    };
                    (*site, payload)
                })
                .chain(self.awaiting_final_state.iter().map(inquiry))
                .collect(),
            Round::Done => Vec::new(),
        }
    }

    /// Whether `payload`, emitted for `site` earlier, is still owed: once
    /// decided, no work dispatch is (the site gets the abort and keeps a
    /// tombstone), nor an inquiry to a site whose final state is known.
    pub(crate) fn owes(&self, site: SiteId, payload: &Payload) -> bool {
        let decided = self.verdict.is_some();
        match payload {
            Payload::Submit { .. } | Payload::SubmitPrepare { .. } => !decided,
            Payload::Prepare { .. } => !decided || self.awaiting_final_state.contains(&site),
            _ => true,
        }
    }

    /// Retransmit what is [`outstanding`](Self::outstanding), backing off
    /// per site: the first timer after a send retransmits immediately
    /// (fast recovery from a single lost message), then the gap doubles up
    /// to [`BACKOFF_CAP_TICKS`] ticks, so a long partition costs
    /// O(log + ticks/cap) sends per site instead of one per tick. Any
    /// answer from the site resets its backoff.
    fn on_timer(&mut self) -> Vec<CoordAction> {
        let mut actions = Vec::new();
        for (site, payload) in self.outstanding() {
            let slot = self.backoff.entry(site).or_default();
            if slot.ticks_left > 0 {
                slot.ticks_left -= 1;
                continue;
            }
            slot.misses += 1;
            let base = (1u32 << slot.misses.min(6)).min(BACKOFF_CAP_TICKS);
            slot.ticks_left = base + backoff_jitter(self.gtx, site, slot.misses, base);
            if matches!(payload, Payload::Prepare { .. }) {
                self.emit(EventKind::Inquiry { to: site });
            }
            actions.push(CoordAction::Send { site, payload });
        }
        actions
    }
}

#[cfg(test)]
impl Coordinator {
    /// The paper's global-transaction phase (Figs. 2/4/6 left columns).
    pub(crate) fn phase(&self) -> amc_types::GlobalPhase {
        use amc_types::GlobalPhase;
        match (self.round, self.verdict) {
            (Round::Work, _) if self.votes.values().all(Option::is_none) => GlobalPhase::Running,
            (Round::Work, _) | (Round::Prepare, _) => GlobalPhase::Inquiring,
            (Round::Finish, Some(GlobalVerdict::Commit)) => GlobalPhase::WaitingToCommit,
            (Round::Finish, Some(GlobalVerdict::Abort)) => GlobalPhase::WaitingToAbort,
            (Round::Done, Some(GlobalVerdict::Commit)) => GlobalPhase::Committed,
            (Round::Done, _) => GlobalPhase::Aborted,
            (Round::Finish, None) => unreachable!("finish round implies a verdict"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amc_types::{GlobalPhase, Value};

    fn gtx() -> GlobalTxnId {
        GlobalTxnId::new(1)
    }
    fn site(n: u32) -> SiteId {
        SiteId::new(n)
    }

    fn programs(sites: &[u32]) -> BTreeMap<SiteId, Vec<Operation>> {
        sites
            .iter()
            .map(|s| {
                (
                    site(*s),
                    vec![Operation::Increment {
                        obj: amc_types::ObjectId::new(u64::from(*s)),
                        delta: 1,
                    }],
                )
            })
            .collect()
    }

    /// A coordinator restarted after a central crash that left `logged`
    /// in the decision log, and what it does first.
    fn resumed(
        protocol: ProtocolKind,
        sites: &[u32],
        logged: Option<GlobalVerdict>,
    ) -> (Coordinator, Vec<CoordAction>) {
        let mut c = Coordinator::new(gtx(), protocol, programs(sites));
        let actions = c.resume(logged);
        (c, actions)
    }

    fn sends(actions: &[CoordAction]) -> Vec<(SiteId, &'static str)> {
        actions
            .iter()
            .filter_map(|a| match a {
                CoordAction::Send { site, payload } => Some((*site, payload.label())),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn two_phase_happy_path_matches_fig2() {
        let mut c = Coordinator::new(gtx(), ProtocolKind::TwoPhaseCommit, programs(&[1, 2]));
        assert_eq!(c.phase(), GlobalPhase::Running);
        let a = c.on_event(CoordEvent::Start);
        assert_eq!(sends(&a), vec![(site(1), "submit"), (site(2), "submit")]);
        // Work replies.
        assert!(c
            .on_event(CoordEvent::Vote {
                site: site(1),
                vote: LocalVote::Ready
            })
            .is_empty());
        assert_eq!(c.phase(), GlobalPhase::Inquiring);
        let a = c.on_event(CoordEvent::Vote {
            site: site(2),
            vote: LocalVote::Ready,
        });
        // All work done: the prepare round of Fig. 2.
        assert_eq!(sends(&a), vec![(site(1), "prepare"), (site(2), "prepare")]);
        // Ready votes.
        assert!(c
            .on_event(CoordEvent::Vote {
                site: site(1),
                vote: LocalVote::Ready
            })
            .is_empty());
        let a = c.on_event(CoordEvent::Vote {
            site: site(2),
            vote: LocalVote::Ready,
        });
        assert_eq!(a[0], CoordAction::Decided(GlobalVerdict::Commit));
        assert_eq!(
            sends(&a[1..]),
            vec![(site(1), "commit"), (site(2), "commit")]
        );
        assert_eq!(c.phase(), GlobalPhase::WaitingToCommit);
        // Finished acks.
        assert!(c
            .on_event(CoordEvent::Finished { site: site(1) })
            .is_empty());
        let a = c.on_event(CoordEvent::Finished { site: site(2) });
        assert_eq!(a, vec![CoordAction::Done(GlobalVerdict::Commit)]);
        assert_eq!(c.phase(), GlobalPhase::Committed);
        assert!(c.is_done());
    }

    #[test]
    fn piggyback_cuts_the_prepare_round() {
        // 1PC vote piggyback: one combined dispatch, the replies are the
        // votes, decide directly — two fewer messages per site than Fig. 2.
        let mut c = Coordinator::new(gtx(), ProtocolKind::TwoPhaseCommit, programs(&[1, 2]))
            .with_piggyback();
        let a = c.on_event(CoordEvent::Start);
        assert_eq!(
            sends(&a),
            vec![(site(1), "submit-prepare"), (site(2), "submit-prepare")]
        );
        assert!(c
            .on_event(CoordEvent::Vote {
                site: site(1),
                vote: LocalVote::Ready
            })
            .is_empty());
        let a = c.on_event(CoordEvent::Vote {
            site: site(2),
            vote: LocalVote::Ready,
        });
        assert_eq!(a[0], CoordAction::Decided(GlobalVerdict::Commit));
        assert_eq!(
            sends(&a[1..]),
            vec![(site(1), "commit"), (site(2), "commit")]
        );
        c.on_event(CoordEvent::Finished { site: site(1) });
        let a = c.on_event(CoordEvent::Finished { site: site(2) });
        assert_eq!(a, vec![CoordAction::Done(GlobalVerdict::Commit)]);
    }

    #[test]
    fn piggyback_abort_vote_decides_abort() {
        let mut c = Coordinator::new(gtx(), ProtocolKind::TwoPhaseCommit, programs(&[1, 2]))
            .with_piggyback();
        c.on_event(CoordEvent::Start);
        c.on_event(CoordEvent::Vote {
            site: site(1),
            vote: LocalVote::Ready,
        });
        let a = c.on_event(CoordEvent::Vote {
            site: site(2),
            vote: LocalVote::Aborted,
        });
        assert_eq!(a[0], CoordAction::Decided(GlobalVerdict::Abort));
        // Site 1 holds a piggybacked prepare; it must see the abort.
        assert_eq!(sends(&a[1..]), vec![(site(1), "abort"), (site(2), "abort")]);
    }

    #[test]
    fn piggyback_timer_reinquires_with_prepare() {
        // A lost combined dispatch (or its reply) is recovered by the
        // classic Prepare inquiry, answered idempotently by the manager.
        let mut c = Coordinator::new(gtx(), ProtocolKind::TwoPhaseCommit, programs(&[1, 2]))
            .with_piggyback();
        c.on_event(CoordEvent::Start);
        c.on_event(CoordEvent::Vote {
            site: site(1),
            vote: LocalVote::Ready,
        });
        let a = c.on_event(CoordEvent::Timer);
        assert_eq!(sends(&a), vec![(site(2), "prepare")]);
    }

    fn vote(c: &mut Coordinator, s: u32, vote: LocalVote) -> Vec<CoordAction> {
        c.on_event(CoordEvent::Vote {
            site: site(s),
            vote,
        })
    }

    fn unreachable(c: &mut Coordinator, s: u32) -> Vec<CoordAction> {
        c.on_event(CoordEvent::Unreachable { site: site(s) })
    }

    #[test]
    fn unreachable_in_the_work_round_aborts_with_the_vote_left_unknown() {
        // Site 1 voted ready, site 2 cannot be reached. The abort goes to
        // the silent site too (2PC, commit-after: it may hold a running or
        // prepared transaction); commit-before undoes the site that
        // committed and *inquires* the silent one — it may have committed.
        let expected = [
            (
                ProtocolKind::TwoPhaseCommit,
                vec![(site(1), "abort"), (site(2), "abort")],
            ),
            (
                ProtocolKind::CommitAfter,
                vec![(site(1), "abort"), (site(2), "abort")],
            ),
            (
                ProtocolKind::CommitBefore,
                vec![(site(1), "undo"), (site(2), "prepare")],
            ),
        ];
        for (protocol, round) in expected {
            let mut c = Coordinator::new(gtx(), protocol, programs(&[1, 2]));
            c.on_event(CoordEvent::Start);
            assert!(vote(&mut c, 1, LocalVote::Ready).is_empty());
            let a = unreachable(&mut c, 2);
            assert_eq!(
                a[0],
                CoordAction::Decided(GlobalVerdict::Abort),
                "{protocol}"
            );
            assert_eq!(sends(&a[1..]), round, "{protocol}");
            assert_eq!(c.phase(), GlobalPhase::WaitingToAbort, "{protocol}");
            // Both sites are still owed something; nothing is faked done.
            assert_eq!(c.outstanding().len(), 2, "{protocol}");
            assert!(!c.is_done(), "{protocol}");
        }
    }

    #[test]
    fn unreachable_in_the_prepare_round_aborts_everyone() {
        // Only 2PC has a prepare round. Site 1 is prepared and in doubt:
        // it must hear the abort; so must the silent site, whose prepare
        // may have landed before the link failed.
        let mut c = Coordinator::new(gtx(), ProtocolKind::TwoPhaseCommit, programs(&[1, 2]));
        c.on_event(CoordEvent::Start);
        vote(&mut c, 1, LocalVote::Ready);
        let a = vote(&mut c, 2, LocalVote::Ready);
        assert_eq!(sends(&a), vec![(site(1), "prepare"), (site(2), "prepare")]);
        assert!(vote(&mut c, 1, LocalVote::Ready).is_empty());
        assert_eq!(c.phase(), GlobalPhase::Inquiring);
        let a = unreachable(&mut c, 2);
        assert_eq!(a[0], CoordAction::Decided(GlobalVerdict::Abort));
        assert_eq!(sends(&a[1..]), vec![(site(1), "abort"), (site(2), "abort")]);
        assert_eq!(c.phase(), GlobalPhase::WaitingToAbort);
        // A site that already voted in this round is not "unreachable".
        let mut c = Coordinator::new(gtx(), ProtocolKind::TwoPhaseCommit, programs(&[1, 2]));
        c.on_event(CoordEvent::Start);
        vote(&mut c, 1, LocalVote::Ready);
        assert!(unreachable(&mut c, 1).is_empty());
        assert!(unreachable(&mut c, 9).is_empty());
        assert_eq!(c.verdict(), None);
    }

    #[test]
    fn unreachable_in_the_finish_round_leaves_the_site_outstanding() {
        // After the decision an unreachable site changes nothing: no
        // action, same phase, still owed exactly what it was owed — and
        // the protocol completes when it finally answers.
        for protocol in ProtocolKind::ALL {
            let mut c = Coordinator::new(gtx(), protocol, programs(&[1, 2]));
            c.on_event(CoordEvent::Start);
            vote(&mut c, 1, LocalVote::Ready);
            // An abort, so that commit-before has a finish round too: its
            // site 1 gets an undo, site 2 (voted no) nothing.
            vote(&mut c, 2, LocalVote::Aborted);
            let owed = c.outstanding();
            assert!(!owed.is_empty(), "{protocol}");
            assert!(unreachable(&mut c, 1).is_empty(), "{protocol}");
            assert_eq!(c.phase(), GlobalPhase::WaitingToAbort, "{protocol}");
            assert_eq!(c.outstanding(), owed, "{protocol}");
            let mut last = Vec::new();
            for (s, _) in owed {
                last = c.on_event(CoordEvent::Finished { site: s });
            }
            assert_eq!(
                last,
                vec![CoordAction::Done(GlobalVerdict::Abort)],
                "{protocol}"
            );
            assert!(unreachable(&mut c, 1).is_empty(), "{protocol}: done");
        }
    }

    #[test]
    fn outstanding_is_what_the_first_timer_after_a_send_emits() {
        let first_timer_matches = |c: &mut Coordinator, what: &str| {
            let owed: Vec<CoordAction> = c
                .outstanding()
                .into_iter()
                .map(|(site, payload)| CoordAction::Send { site, payload })
                .collect();
            assert!(!owed.is_empty(), "{what}");
            assert_eq!(c.on_event(CoordEvent::Timer), owed, "{what}");
        };
        for protocol in ProtocolKind::ALL {
            // Work round: everyone is owed an inquiry.
            let mut c = Coordinator::new(gtx(), protocol, programs(&[1, 2]));
            c.on_event(CoordEvent::Start);
            first_timer_matches(&mut c, &format!("{protocol} work"));
            // Finish round of a commit (2PC passes its prepare round on the
            // way; commit-before has no finish round on this path): the
            // decision, or commit-after's redo carrying the program.
            vote(&mut c, 1, LocalVote::Ready);
            vote(&mut c, 2, LocalVote::Ready);
            if protocol == ProtocolKind::TwoPhaseCommit {
                first_timer_matches(&mut c, "2pc prepare");
                vote(&mut c, 1, LocalVote::Ready);
                vote(&mut c, 2, LocalVote::Ready);
            }
            assert_eq!(c.verdict(), Some(GlobalVerdict::Commit), "{protocol}");
            if protocol != ProtocolKind::CommitBefore {
                first_timer_matches(&mut c, &format!("{protocol} commit"));
            }
            // Finish round of an abort decided on an unknown vote.
            let mut c = Coordinator::new(gtx(), protocol, programs(&[1, 2]));
            c.on_event(CoordEvent::Start);
            vote(&mut c, 1, LocalVote::Ready);
            unreachable(&mut c, 2);
            first_timer_matches(&mut c, &format!("{protocol} abort"));
        }
        // Done: nothing is owed, the timer is silent.
        let mut c = Coordinator::new(gtx(), ProtocolKind::CommitBefore, programs(&[1]));
        c.on_event(CoordEvent::Start);
        vote(&mut c, 1, LocalVote::Ready);
        assert!(c.outstanding().is_empty());
        assert!(c.on_event(CoordEvent::Timer).is_empty());
    }

    /// Every `Send` in `actions`, and whether `c` still owes it now.
    fn owed(c: &Coordinator, actions: &[CoordAction]) -> Vec<(SiteId, &'static str, bool)> {
        actions
            .iter()
            .filter_map(|a| match a {
                CoordAction::Send { site, payload } => {
                    Some((*site, payload.label(), c.owes(*site, payload)))
                }
                _ => None,
            })
            .collect()
    }

    #[test]
    fn a_dispatch_stops_being_owed_at_the_decision() {
        for piggyback in [false, true] {
            let mut c = Coordinator::new(gtx(), ProtocolKind::TwoPhaseCommit, programs(&[1, 2]));
            if piggyback {
                c = c.with_piggyback();
            }
            let work = c.on_event(CoordEvent::Start);
            let label = if piggyback {
                "submit-prepare"
            } else {
                "submit"
            };
            let both = |owed| vec![(site(1), label, owed), (site(2), label, owed)];
            assert_eq!(owed(&c, &work), both(true), "piggyback={piggyback}");
            // Site 1 votes no before site 2's dispatch leaves: site 2 is
            // owed the abort, not the work.
            let abort = vote(&mut c, 1, LocalVote::Aborted);
            assert_eq!(owed(&c, &work), both(false), "piggyback={piggyback}");
            assert_eq!(
                owed(&c, &abort),
                vec![(site(1), "abort", true), (site(2), "abort", true)]
            );
        }
    }

    /// Commit-before: site 1 votes no while site 2's reply is still in the
    /// round. The decision inquires site 2; its ready vote, landing next,
    /// answers that inquiry and owes the undo instead.
    #[test]
    fn an_inquiry_stops_being_owed_once_its_round_answers_it() {
        let mut c = Coordinator::new(gtx(), ProtocolKind::CommitBefore, programs(&[1, 2]));
        c.on_event(CoordEvent::Start);
        let decided = vote(&mut c, 1, LocalVote::Aborted);
        assert_eq!(c.verdict(), Some(GlobalVerdict::Abort));
        assert_eq!(owed(&c, &decided), vec![(site(2), "prepare", true)]);
        let undo = vote(&mut c, 2, LocalVote::Ready);
        assert_eq!(owed(&c, &decided), vec![(site(2), "prepare", false)]);
        assert_eq!(owed(&c, &undo), vec![(site(2), "undo", true)]);
        // The site that decided it is owed no inquiry either.
        assert!(!c.owes(site(1), &Payload::Prepare { gtx: gtx() }));
        let done = c.on_event(CoordEvent::Finished { site: site(2) });
        assert_eq!(done, vec![CoordAction::Done(GlobalVerdict::Abort)]);
    }

    /// Before the decision the machine drops nothing: a vote inquiry is
    /// owed to every site, silent or not, in every protocol.
    #[test]
    fn before_the_decision_every_inquiry_is_owed() {
        let inquiry = Payload::Prepare { gtx: gtx() };
        for protocol in ProtocolKind::ALL {
            let mut c = Coordinator::new(gtx(), protocol, programs(&[1, 2]));
            c.on_event(CoordEvent::Start);
            vote(&mut c, 1, LocalVote::Ready);
            let timer = c.on_event(CoordEvent::Timer);
            assert_eq!(
                owed(&c, &timer),
                vec![(site(2), "prepare", true)],
                "{protocol}"
            );
            assert!(c.owes(site(1), &inquiry), "{protocol}");
        }
        // 2PC's prepare round is owed whole.
        let mut c = Coordinator::new(gtx(), ProtocolKind::TwoPhaseCommit, programs(&[1, 2]));
        c.on_event(CoordEvent::Start);
        vote(&mut c, 1, LocalVote::Ready);
        let prepare = vote(&mut c, 2, LocalVote::Ready);
        assert_eq!(
            owed(&c, &prepare),
            vec![(site(1), "prepare", true), (site(2), "prepare", true)]
        );
    }

    /// What carries the decision is owed until the site finishes, however
    /// often it is retransmitted: commit-after's commit and its redo, and
    /// commit-before's undo.
    #[test]
    fn a_final_state_message_stays_owed_after_the_decision() {
        let mut c = Coordinator::new(gtx(), ProtocolKind::CommitAfter, programs(&[1, 2]));
        c.on_event(CoordEvent::Start);
        vote(&mut c, 1, LocalVote::Ready);
        let commit = vote(&mut c, 2, LocalVote::Ready);
        let redo = c.on_event(CoordEvent::Timer);
        assert_eq!(
            owed(&c, &commit),
            vec![(site(1), "commit", true), (site(2), "commit", true)]
        );
        assert_eq!(
            owed(&c, &redo),
            vec![(site(1), "redo", true), (site(2), "redo", true)]
        );

        let mut c = Coordinator::new(gtx(), ProtocolKind::CommitBefore, programs(&[1, 2]));
        c.on_event(CoordEvent::Start);
        vote(&mut c, 1, LocalVote::Ready);
        let undo = vote(&mut c, 2, LocalVote::Aborted);
        assert_eq!(owed(&c, &undo), vec![(site(1), "undo", true)]);
        let again = c.on_event(CoordEvent::Timer);
        assert_eq!(owed(&c, &again), owed(&c, &undo));
    }

    fn solo() -> Coordinator {
        let mut c =
            Coordinator::new(gtx(), ProtocolKind::TwoPhaseCommit, programs(&[1])).with_piggyback();
        let a = c.on_event(CoordEvent::Start);
        assert!(
            matches!(
                a.as_slice(),
                [CoordAction::Send {
                    payload: Payload::SubmitPrepare { solo: true, .. },
                    ..
                }]
            ),
            "{a:?}"
        );
        c
    }

    #[test]
    fn solo_fast_path_is_a_commit_before_coordinator_of_one() {
        // One participant: the dispatch says `solo`, the site commits
        // locally at once, and the ready vote *is* the commit — two
        // messages, no decision round.
        let mut c = solo();
        assert_eq!(c.protocol(), ProtocolKind::CommitBefore);
        assert_eq!(
            vote(&mut c, 1, LocalVote::Ready),
            vec![
                CoordAction::Decided(GlobalVerdict::Commit),
                CoordAction::Done(GlobalVerdict::Commit),
            ]
        );
        assert_eq!(c.phase(), GlobalPhase::Committed);
        // An abort vote: nothing committed, nothing to send.
        let mut c = solo();
        assert_eq!(
            vote(&mut c, 1, LocalVote::Aborted),
            vec![
                CoordAction::Decided(GlobalVerdict::Abort),
                CoordAction::Done(GlobalVerdict::Abort),
            ]
        );
        // A lost reply: presume abort, but the site may have committed —
        // inquire, and undo it if so (§3.3's crash race).
        let mut c = solo();
        let a = unreachable(&mut c, 1);
        assert_eq!(a[0], CoordAction::Decided(GlobalVerdict::Abort));
        assert_eq!(sends(&a[1..]), vec![(site(1), "prepare")]);
        assert_eq!(c.phase(), GlobalPhase::WaitingToAbort);
        let a = vote(&mut c, 1, LocalVote::Ready);
        assert_eq!(sends(&a), vec![(site(1), "undo")]);
        let a = c.on_event(CoordEvent::Finished { site: site(1) });
        assert_eq!(a, vec![CoordAction::Done(GlobalVerdict::Abort)]);
        // With two participants the piggyback stays plain 2PC.
        let c = Coordinator::new(gtx(), ProtocolKind::TwoPhaseCommit, programs(&[1, 2]))
            .with_piggyback();
        assert_eq!(c.protocol(), ProtocolKind::TwoPhaseCommit);
    }

    #[test]
    fn resumed_solo_transaction_inquires_instead_of_shipping_a_bare_abort() {
        // Central crash before the solo reply was logged: presume abort —
        // but a bare abort decision would leave a site that had committed
        // locally committed. The restarted machine asks first.
        let mut c =
            Coordinator::new(gtx(), ProtocolKind::TwoPhaseCommit, programs(&[1])).with_piggyback();
        let a = c.resume(None);
        assert_eq!(sends(&a), vec![(site(1), "prepare")]);
        assert_eq!(c.verdict(), Some(GlobalVerdict::Abort));
        let a = vote(&mut c, 1, LocalVote::Aborted);
        assert_eq!(a, vec![CoordAction::Done(GlobalVerdict::Abort)]);
        // A logged commit needs nothing: the site committed at its vote.
        let mut c =
            Coordinator::new(gtx(), ProtocolKind::TwoPhaseCommit, programs(&[1])).with_piggyback();
        assert_eq!(
            c.resume(Some(GlobalVerdict::Commit)),
            vec![CoordAction::Done(GlobalVerdict::Commit)]
        );
    }

    #[test]
    fn replies_and_failures_map_to_events_in_one_place() {
        let s = site(3);
        let event = |reply| CoordEvent::from_reply(s, reply);
        assert_eq!(
            event(Ok(Payload::Vote {
                gtx: gtx(),
                vote: LocalVote::ReadyReadOnly
            })),
            Ok(CoordEvent::Vote {
                site: s,
                vote: LocalVote::ReadyReadOnly
            })
        );
        assert_eq!(
            event(Ok(Payload::Finished { gtx: gtx() })),
            Ok(CoordEvent::Finished { site: s })
        );
        // Outages are events; anything else is an error for the driver.
        for outage in [AmcError::SiteDown(s), AmcError::TransientIo("reset".into())] {
            assert_eq!(event(Err(outage)), Ok(CoordEvent::Unreachable { site: s }));
        }
        assert!(matches!(
            event(Err(AmcError::Protocol("rejected".into()))),
            Err(AmcError::Protocol(_))
        ));
        assert!(matches!(
            event(Ok(Payload::Prepare { gtx: gtx() })),
            Err(AmcError::Protocol(_))
        ));
    }

    #[test]
    fn commit_after_skips_the_prepare_round() {
        let mut c = Coordinator::new(gtx(), ProtocolKind::CommitAfter, programs(&[1, 2]));
        c.on_event(CoordEvent::Start);
        c.on_event(CoordEvent::Vote {
            site: site(1),
            vote: LocalVote::Ready,
        });
        let a = c.on_event(CoordEvent::Vote {
            site: site(2),
            vote: LocalVote::Ready,
        });
        // Votes double as submit replies (§3.2): decision follows directly.
        assert_eq!(a[0], CoordAction::Decided(GlobalVerdict::Commit));
        assert_eq!(
            sends(&a[1..]),
            vec![(site(1), "commit"), (site(2), "commit")]
        );
    }

    #[test]
    fn commit_before_commit_sends_nothing_after_deciding() {
        let mut c = Coordinator::new(gtx(), ProtocolKind::CommitBefore, programs(&[1, 2]));
        c.on_event(CoordEvent::Start);
        c.on_event(CoordEvent::Vote {
            site: site(1),
            vote: LocalVote::Ready,
        });
        let a = c.on_event(CoordEvent::Vote {
            site: site(2),
            vote: LocalVote::Ready,
        });
        // §3.3: no further actions; protocol completes in the same step.
        assert_eq!(
            a,
            vec![
                CoordAction::Decided(GlobalVerdict::Commit),
                CoordAction::Done(GlobalVerdict::Commit),
            ]
        );
        assert!(c.is_done());
    }

    #[test]
    fn commit_before_abort_undoes_only_committed_sites() {
        let mut c = Coordinator::new(gtx(), ProtocolKind::CommitBefore, programs(&[1, 2]));
        c.on_event(CoordEvent::Start);
        c.on_event(CoordEvent::Vote {
            site: site(1),
            vote: LocalVote::Ready,
        });
        let a = c.on_event(CoordEvent::Vote {
            site: site(2),
            vote: LocalVote::Aborted,
        });
        assert_eq!(a[0], CoordAction::Decided(GlobalVerdict::Abort));
        // Only site 1 committed; only site 1 gets an undo (Fig. 6), and it
        // carries the site's forward program for the site to invert.
        assert_eq!(sends(&a[1..]), vec![(site(1), "undo")]);
        let undo = Payload::Undo {
            gtx: gtx(),
            ops: programs(&[1])[&site(1)].clone(),
        };
        assert!(matches!(&a[1], CoordAction::Send { payload, .. } if *payload == undo));
        assert_eq!(c.phase(), GlobalPhase::WaitingToAbort);
        let a = c.on_event(CoordEvent::Finished { site: site(1) });
        assert_eq!(a, vec![CoordAction::Done(GlobalVerdict::Abort)]);
    }

    #[test]
    fn abort_vote_in_work_round_aborts_without_waiting() {
        let mut c = Coordinator::new(gtx(), ProtocolKind::TwoPhaseCommit, programs(&[1, 2]));
        c.on_event(CoordEvent::Start);
        let a = c.on_event(CoordEvent::Vote {
            site: site(1),
            vote: LocalVote::Aborted,
        });
        assert_eq!(a[0], CoordAction::Decided(GlobalVerdict::Abort));
        // Abort decision still travels to every participant.
        assert_eq!(sends(&a[1..]), vec![(site(1), "abort"), (site(2), "abort")]);
    }

    #[test]
    fn commit_before_abort_with_no_committed_site_finishes_immediately() {
        let mut c = Coordinator::new(gtx(), ProtocolKind::CommitBefore, programs(&[1]));
        c.on_event(CoordEvent::Start);
        let a = c.on_event(CoordEvent::Vote {
            site: site(1),
            vote: LocalVote::Aborted,
        });
        assert_eq!(
            a,
            vec![
                CoordAction::Decided(GlobalVerdict::Abort),
                CoordAction::Done(GlobalVerdict::Abort),
            ]
        );
    }

    #[test]
    fn timer_reinquires_missing_votes() {
        let mut c = Coordinator::new(gtx(), ProtocolKind::CommitBefore, programs(&[1, 2]));
        c.on_event(CoordEvent::Start);
        c.on_event(CoordEvent::Vote {
            site: site(1),
            vote: LocalVote::Ready,
        });
        let a = c.on_event(CoordEvent::Timer);
        // Only the silent site is re-asked, with a Prepare inquiry.
        assert_eq!(sends(&a), vec![(site(2), "prepare")]);
    }

    #[test]
    fn timer_retransmits_commit_after_commit_as_redo() {
        let mut c = Coordinator::new(gtx(), ProtocolKind::CommitAfter, programs(&[1]));
        c.on_event(CoordEvent::Start);
        c.on_event(CoordEvent::Vote {
            site: site(1),
            vote: LocalVote::Ready,
        });
        // Commit decision sent; the finished ack never arrives.
        let a = c.on_event(CoordEvent::Timer);
        match &a[0] {
            CoordAction::Send {
                site: s,
                payload: Payload::Redo { ops, .. },
            } => {
                assert_eq!(*s, site(1));
                assert_eq!(ops.len(), 1, "redo carries the program");
            }
            other => panic!("expected Redo, got {other:?}"),
        }
    }

    #[test]
    fn timer_retransmits_undo_verbatim() {
        let mut c = Coordinator::new(gtx(), ProtocolKind::CommitBefore, programs(&[1, 2]));
        c.on_event(CoordEvent::Start);
        c.on_event(CoordEvent::Vote {
            site: site(1),
            vote: LocalVote::Ready,
        });
        c.on_event(CoordEvent::Vote {
            site: site(2),
            vote: LocalVote::Aborted,
        });
        let a = c.on_event(CoordEvent::Timer);
        assert_eq!(sends(&a), vec![(site(1), "undo")]);
    }

    #[test]
    fn timer_reinquires_unknown_final_state_after_abort() {
        // Commit-before, abort decided while site 1's final state was
        // unknown (it never answered the submit). The one-shot inquiry sent
        // at decision time can be lost; every timer must re-ask until the
        // site answers, or a single dropped message wedges the transaction.
        let (mut c, actions) = resumed(ProtocolKind::CommitBefore, &[1, 2], None);
        assert_eq!(
            sends(&actions),
            vec![(site(1), "prepare"), (site(2), "prepare")]
        );
        // Site 2 answers; site 1's inquiry (or its answer) is lost.
        c.on_event(CoordEvent::Vote {
            site: site(2),
            vote: LocalVote::Aborted,
        });
        let a = c.on_event(CoordEvent::Timer);
        assert_eq!(sends(&a), vec![(site(1), "prepare")]);
        // The late answer still lands and completes the protocol.
        let a = c.on_event(CoordEvent::Vote {
            site: site(1),
            vote: LocalVote::Aborted,
        });
        assert_eq!(a, vec![CoordAction::Done(GlobalVerdict::Abort)]);
    }

    #[test]
    fn timer_backoff_caps_inquiries_under_a_long_partition() {
        // Commit-before abort with both sites' final state unknown and a
        // partition that outlives 1000 timer ticks. PR 1 re-inquired every
        // site on every tick — 2000 sends; capped exponential backoff
        // (2, 4, 8, … up to 64 ticks between retries) keeps it sparse.
        let (mut c, _) = resumed(ProtocolKind::CommitBefore, &[1, 2], None);
        let ticks = 1000usize;
        let mut inquiries = 0usize;
        for _ in 0..ticks {
            inquiries += sends(&c.on_event(CoordEvent::Timer)).len();
        }
        assert!(inquiries >= 8, "backoff must keep retrying: {inquiries}");
        assert!(
            inquiries <= 60,
            "retransmit storm: {inquiries} inquiries in {ticks} ticks (was {})",
            2 * ticks
        );
        // An answer resets the site's backoff: the next timer after a fresh
        // outstanding message retransmits immediately again.
        let a = c.on_event(CoordEvent::Vote {
            site: site(1),
            vote: LocalVote::Ready,
        });
        assert_eq!(sends(&a), vec![(site(1), "undo")]);
        let a = c.on_event(CoordEvent::Timer);
        assert!(
            sends(&a).contains(&(site(1), "undo")),
            "first timer after a fresh send retransmits immediately: {a:?}"
        );
    }

    #[test]
    fn timer_backoff_doubles_then_caps() {
        // One silent site: record which ticks actually retransmit. Gaps
        // follow the doubling envelope (2, 4, 8, … capped at 64 ticks)
        // plus a deterministic jitter of at most a quarter of it.
        let mut c = Coordinator::new(gtx(), ProtocolKind::CommitBefore, programs(&[1]));
        c.on_event(CoordEvent::Start);
        let mut send_ticks = Vec::new();
        for t in 0..700usize {
            if !c.on_event(CoordEvent::Timer).is_empty() {
                send_ticks.push(t);
            }
        }
        assert_eq!(send_ticks[0], 0, "first timer retransmits immediately");
        let gaps: Vec<usize> = send_ticks.windows(2).map(|w| w[1] - w[0]).collect();
        let bases = [2usize, 4, 8, 16, 32, 64, 64, 64];
        for (i, gap) in gaps.iter().take(bases.len()).enumerate() {
            let base = bases[i];
            assert!(
                (base + 1..=base + base / 4 + 1).contains(gap),
                "gap {i} = {gap} outside the jittered envelope of base {base}: {gaps:?}"
            );
        }
        assert!(gaps.iter().all(|g| *g <= 64 + 16 + 1), "{gaps:?}");
    }

    #[test]
    fn backoff_jitter_is_deterministic_bounded_and_decorrelated() {
        let j = backoff_jitter(GlobalTxnId::new(1), site(1), 5, 64);
        assert_eq!(j, backoff_jitter(GlobalTxnId::new(1), site(1), 5, 64));
        assert!((0..50).all(|m| backoff_jitter(GlobalTxnId::new(3), site(2), m, 64) <= 16));
        // Small bases degenerate to zero jitter (nothing to spread).
        assert_eq!(backoff_jitter(GlobalTxnId::new(9), site(1), 1, 2), 0);
        // Different transactions land on different schedules.
        let distinct: std::collections::BTreeSet<u32> = (1..=20u64)
            .map(|g| backoff_jitter(GlobalTxnId::new(g), site(1), 6, 64))
            .collect();
        assert!(
            distinct.len() > 4,
            "jitter must spread schedules: {distinct:?}"
        );
    }

    #[test]
    fn duplicates_and_strays_are_ignored() {
        let mut c = Coordinator::new(gtx(), ProtocolKind::CommitAfter, programs(&[1]));
        c.on_event(CoordEvent::Start);
        assert!(c
            .on_event(CoordEvent::Vote {
                site: site(9),
                vote: LocalVote::Ready
            })
            .is_empty());
        let a = c.on_event(CoordEvent::Vote {
            site: site(1),
            vote: LocalVote::Ready,
        });
        assert!(!a.is_empty());
        // Late duplicate vote after decision: ignored.
        assert!(c
            .on_event(CoordEvent::Vote {
                site: site(1),
                vote: LocalVote::Ready
            })
            .is_empty());
        // Stray finished from a non-pending site: ignored, not done twice.
        c.on_event(CoordEvent::Finished { site: site(1) });
        assert!(c.is_done());
        assert!(c
            .on_event(CoordEvent::Finished { site: site(1) })
            .is_empty());
    }

    #[test]
    fn mixed_votes_in_2pc_prepare_round_abort() {
        let mut c = Coordinator::new(gtx(), ProtocolKind::TwoPhaseCommit, programs(&[1, 2]));
        c.on_event(CoordEvent::Start);
        c.on_event(CoordEvent::Vote {
            site: site(1),
            vote: LocalVote::Ready,
        });
        c.on_event(CoordEvent::Vote {
            site: site(2),
            vote: LocalVote::Ready,
        });
        // Prepare round: site 2 cannot prepare.
        c.on_event(CoordEvent::Vote {
            site: site(1),
            vote: LocalVote::Ready,
        });
        let a = c.on_event(CoordEvent::Vote {
            site: site(2),
            vote: LocalVote::Aborted,
        });
        assert_eq!(a[0], CoordAction::Decided(GlobalVerdict::Abort));
        assert_eq!(c.verdict(), Some(GlobalVerdict::Abort));
    }

    #[test]
    fn resume_with_logged_commit_redrives_participants() {
        let (mut c, actions) = resumed(
            ProtocolKind::CommitAfter,
            &[1, 2],
            Some(GlobalVerdict::Commit),
        );
        // No duplicate Decided marker; the decision goes back out to every
        // participant.
        assert!(actions
            .iter()
            .all(|a| !matches!(a, CoordAction::Decided(_))));
        assert_eq!(
            sends(&actions),
            vec![(site(1), "commit"), (site(2), "commit")]
        );
        assert_eq!(c.verdict(), Some(GlobalVerdict::Commit));
        c.on_event(CoordEvent::Finished { site: site(1) });
        let a = c.on_event(CoordEvent::Finished { site: site(2) });
        assert_eq!(a, vec![CoordAction::Done(GlobalVerdict::Commit)]);
    }

    #[test]
    fn resume_without_log_presumes_abort() {
        // Commit-before: unknown votes -> inquire everyone.
        let (c, actions) = resumed(ProtocolKind::CommitBefore, &[1, 2], None);
        assert_eq!(c.verdict(), Some(GlobalVerdict::Abort));
        assert_eq!(
            sends(&actions),
            vec![(site(1), "prepare"), (site(2), "prepare")]
        );
        // 2PC: abort decision goes to everyone directly.
        let (_, actions) = resumed(ProtocolKind::TwoPhaseCommit, &[1, 2], None);
        assert_eq!(
            sends(&actions),
            vec![(site(1), "abort"), (site(2), "abort")]
        );
    }

    #[test]
    fn resumed_commit_before_abort_undoes_late_committed_answer() {
        let (mut c, _) = resumed(ProtocolKind::CommitBefore, &[1, 2], None);
        // Site 1 answers the inquiry: it had committed.
        let a = c.on_event(CoordEvent::Vote {
            site: site(1),
            vote: LocalVote::Ready,
        });
        assert_eq!(sends(&a), vec![(site(1), "undo")]);
        // Site 2 never committed.
        assert!(c
            .on_event(CoordEvent::Vote {
                site: site(2),
                vote: LocalVote::Aborted
            })
            .is_empty());
        let a = c.on_event(CoordEvent::Finished { site: site(1) });
        assert_eq!(a, vec![CoordAction::Done(GlobalVerdict::Abort)]);
    }

    #[test]
    fn resume_commit_before_commit_is_immediately_done() {
        let (c, actions) = resumed(
            ProtocolKind::CommitBefore,
            &[1, 2],
            Some(GlobalVerdict::Commit),
        );
        // Nothing to re-drive: the locals committed before the decision.
        assert_eq!(actions, vec![CoordAction::Done(GlobalVerdict::Commit)]);
        assert!(c.is_done());
    }

    #[test]
    fn read_only_vote_is_yes_but_skips_decision_round() {
        let mut c = Coordinator::new(gtx(), ProtocolKind::CommitAfter, programs(&[1, 2]));
        c.on_event(CoordEvent::Start);
        c.on_event(CoordEvent::Vote {
            site: site(1),
            vote: LocalVote::ReadyReadOnly,
        });
        let a = c.on_event(CoordEvent::Vote {
            site: site(2),
            vote: LocalVote::Ready,
        });
        assert_eq!(a[0], CoordAction::Decided(GlobalVerdict::Commit));
        // Only the updating site sees the decision.
        assert_eq!(sends(&a[1..]), vec![(site(2), "commit")]);
        let done = c.on_event(CoordEvent::Finished { site: site(2) });
        assert_eq!(done, vec![CoordAction::Done(GlobalVerdict::Commit)]);
    }

    #[test]
    fn all_read_only_votes_finish_without_any_decision_message() {
        let mut c = Coordinator::new(gtx(), ProtocolKind::CommitAfter, programs(&[1, 2]));
        c.on_event(CoordEvent::Start);
        c.on_event(CoordEvent::Vote {
            site: site(1),
            vote: LocalVote::ReadyReadOnly,
        });
        let a = c.on_event(CoordEvent::Vote {
            site: site(2),
            vote: LocalVote::ReadyReadOnly,
        });
        assert_eq!(
            a,
            vec![
                CoordAction::Decided(GlobalVerdict::Commit),
                CoordAction::Done(GlobalVerdict::Commit),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "participants")]
    fn empty_participant_set_is_rejected() {
        Coordinator::new(gtx(), ProtocolKind::CommitBefore, BTreeMap::new());
    }

    #[test]
    fn value_type_used_in_programs() {
        // Silence the unused-import lint in a meaningful way: programs may
        // carry writes too.
        let mut p = programs(&[1]);
        p.get_mut(&site(1)).unwrap().push(Operation::Write {
            obj: amc_types::ObjectId::new(1),
            value: Value::counter(1),
        });
        let c = Coordinator::new(gtx(), ProtocolKind::CommitBefore, p);
        assert_eq!(c.participants(), vec![site(1)]);
    }
}
