//! The Paxos Commit acceptor.
//!
//! One acceptor participates in **every** per-site Paxos instance of every
//! transaction; with `2f + 1` acceptors the commit protocol tolerates `f`
//! simultaneous acceptor/coordinator failures without blocking. The
//! acceptor is sans-IO: [`AcceptorState`] is the pure state machine, and
//! its durable vocabulary — registration, promise, accept, decision note —
//! is four rows of the site's write-ahead log (`amc_wal::LogRecord` tags
//! 7–10). Applying the acceptor rows of any log prefix reproduces exactly
//! the state the acceptor had when the last of them was written. The
//! [`AcceptorHost`](crate::AcceptorHost) appends them through the site's
//! group committer and releases no reply before they are durable.

use amc_net::PaxosOpenEntry;
use amc_types::{Ballot, GlobalTxnId, GlobalVerdict, SiteId};
use amc_wal::LogRecord;
use std::collections::BTreeMap;

/// What a phase-1b reply carries back to the asking replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PromiseOutcome {
    /// True when the asked ballot was promised.
    pub promised: bool,
    /// The highest ballot this acceptor has promised (the asked ballot
    /// itself on success; the conflicting higher one on refusal).
    pub promised_up_to: Ballot,
    /// Participants from the durable registration (empty when this
    /// acceptor never saw the registration).
    pub participants: Vec<SiteId>,
    /// Accepted values per instance: `(site, ballot, prepared)`.
    pub accepted: Vec<(SiteId, Ballot, bool)>,
}

#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct TxnState {
    participants: Vec<SiteId>,
    promised: Ballot,
    accepted: BTreeMap<SiteId, (Ballot, bool)>,
    decided: Option<GlobalVerdict>,
}

/// The pure acceptor state machine.
///
/// Every mutating method applies the change **and** returns the log row
/// to persist (or `None` when the operation was an idempotent no-op and
/// the log already implies the state).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AcceptorState {
    txns: BTreeMap<GlobalTxnId, TxnState>,
}

impl AcceptorState {
    /// Empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuild state from a site's decoded log (a replay): its acceptor
    /// rows, in log order; every engine row is skipped.
    pub fn replay<'a>(records: impl IntoIterator<Item = &'a LogRecord>) -> Self {
        let mut s = AcceptorState::new();
        for r in records {
            s.apply(r);
        }
        s
    }

    /// Apply one log row (replay path — no admission checks, the log is
    /// trusted to have been admitted when written). Engine rows are not
    /// the acceptor's and change nothing.
    pub fn apply(&mut self, record: &LogRecord) {
        match record {
            LogRecord::Register { gtx, participants } => {
                let t = self.txns.entry(*gtx).or_default();
                if t.participants.is_empty() {
                    t.participants = participants.clone();
                }
            }
            LogRecord::Promise { gtx, ballot } => {
                let t = self.txns.entry(*gtx).or_default();
                t.promised = t.promised.max(*ballot);
            }
            LogRecord::Accept {
                gtx,
                site,
                ballot,
                prepared,
            } => {
                let t = self.txns.entry(*gtx).or_default();
                t.promised = t.promised.max(*ballot);
                let slot = t.accepted.entry(*site).or_insert((*ballot, *prepared));
                if *ballot >= slot.0 {
                    *slot = (*ballot, *prepared);
                }
            }
            LogRecord::Decision { gtx, verdict } => {
                let t = self.txns.entry(*gtx).or_default();
                t.decided = Some(*verdict);
            }
            LogRecord::Begin { .. }
            | LogRecord::Update { .. }
            | LogRecord::Prepare { .. }
            | LogRecord::Commit { .. }
            | LogRecord::Abort { .. }
            | LogRecord::Checkpoint { .. } => {}
        }
    }

    /// Open `gtx`'s instance set (*BeginCommit*). Idempotent.
    pub fn register(&mut self, gtx: GlobalTxnId, participants: &[SiteId]) -> Option<LogRecord> {
        let t = self.txns.entry(gtx).or_default();
        if !t.participants.is_empty() {
            return None;
        }
        let rec = LogRecord::Register {
            gtx,
            participants: participants.to_vec(),
        };
        self.apply(&rec);
        Some(rec)
    }

    /// Phase 1b: try to promise `ballot` for all of `gtx`'s instances.
    pub(crate) fn promise(
        &mut self,
        gtx: GlobalTxnId,
        ballot: Ballot,
    ) -> (PromiseOutcome, Option<LogRecord>) {
        let t = self.txns.entry(gtx).or_default();
        let granted = ballot >= t.promised;
        let rec = if granted && ballot > t.promised {
            let rec = LogRecord::Promise { gtx, ballot };
            self.apply(&rec);
            Some(rec)
        } else {
            None
        };
        let t = &self.txns[&gtx];
        (
            PromiseOutcome {
                promised: granted,
                promised_up_to: t.promised,
                participants: t.participants.clone(),
                accepted: t.accepted.iter().map(|(s, (b, p))| (*s, *b, *p)).collect(),
            },
            rec,
        )
    }

    /// Phase 2b: try to accept `prepared` for instance `site` at `ballot`.
    /// Returns whether the value was accepted.
    pub fn accept(
        &mut self,
        gtx: GlobalTxnId,
        site: SiteId,
        ballot: Ballot,
        prepared: bool,
    ) -> (bool, Option<LogRecord>) {
        let t = self.txns.entry(gtx).or_default();
        if ballot < t.promised {
            return (false, None);
        }
        if t.accepted.get(&site) == Some(&(ballot, prepared)) {
            return (true, None); // duplicate delivery — already durable
        }
        let rec = LogRecord::Accept {
            gtx,
            site,
            ballot,
            prepared,
        };
        self.apply(&rec);
        (true, Some(rec))
    }

    /// Note the global decision, closing `gtx`'s instances. Idempotent;
    /// a no-op for transactions this acceptor was never involved in (no
    /// registration, promise or accept) — their outcome is covered by
    /// presume-abort, and noting them would grow the log with entries for
    /// every transaction that merely passed through the site.
    pub(crate) fn note_decision(
        &mut self,
        gtx: GlobalTxnId,
        verdict: GlobalVerdict,
    ) -> Option<LogRecord> {
        match self.txns.get(&gtx) {
            None => None,
            Some(t) if t.decided.is_some() => None,
            Some(_) => {
                let rec = LogRecord::Decision { gtx, verdict };
                self.apply(&rec);
                Some(rec)
            }
        }
    }

    /// Registered transactions with no noted decision — what a recovery
    /// replica must finish.
    pub fn open_entries(&self) -> Vec<PaxosOpenEntry> {
        self.txns
            .iter()
            .filter(|(_, t)| !t.participants.is_empty() && t.decided.is_none())
            .map(|(g, t)| PaxosOpenEntry {
                gtx: *g,
                participants: t.participants.clone(),
            })
            .collect()
    }

    /// Whether the acceptor holds any state for `gtx`: a message that
    /// finds none is not Paxos traffic for this acceptor.
    pub(crate) fn knows(&self, gtx: GlobalTxnId) -> bool {
        self.txns.contains_key(&gtx)
    }

    /// The noted decision for `gtx`, if any.
    pub fn decision(&self, gtx: GlobalTxnId) -> Option<GlobalVerdict> {
        self.txns.get(&gtx).and_then(|t| t.decided)
    }

    /// The registered participant set of `gtx` (None when this acceptor
    /// never saw the registration).
    pub fn participants(&self, gtx: GlobalTxnId) -> Option<&[SiteId]> {
        self.txns
            .get(&gtx)
            .filter(|t| !t.participants.is_empty())
            .map(|t| t.participants.as_slice())
    }

    /// The highest promised ballot for `gtx` (Ballot::ZERO if untouched).
    pub fn promised(&self, gtx: GlobalTxnId) -> Ballot {
        self.txns.get(&gtx).map(|t| t.promised).unwrap_or_default()
    }

    /// The accepted value of instance `(gtx, site)`, if any.
    pub fn accepted(&self, gtx: GlobalTxnId, site: SiteId) -> Option<(Ballot, bool)> {
        self.txns
            .get(&gtx)
            .and_then(|t| t.accepted.get(&site))
            .copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gtx(n: u64) -> GlobalTxnId {
        GlobalTxnId::new(n)
    }
    fn site(n: u32) -> SiteId {
        SiteId::new(n)
    }

    #[test]
    fn ballot_zero_vote_then_recovery_promise_blocks_late_votes() {
        let mut a = AcceptorState::new();
        a.register(gtx(1), &[site(1), site(2)]);
        // Site 1's yes vote lands as a ballot-0 accept.
        let (ok, rec) = a.accept(gtx(1), site(1), Ballot::ZERO, true);
        assert!(ok && rec.is_some());
        // A recovery replica opens ballot (1, 7).
        let b = Ballot::new(1, 7);
        let (out, _) = a.promise(gtx(1), b);
        assert!(out.promised);
        assert_eq!(out.accepted, vec![(site(1), Ballot::ZERO, true)]);
        assert_eq!(out.participants, vec![site(1), site(2)]);
        // Site 2's vote arrives late: ballot 0 is now refused, so the
        // recovery leader's Aborted choice can never be contradicted.
        let (ok, rec) = a.accept(gtx(1), site(2), Ballot::ZERO, true);
        assert!(!ok && rec.is_none());
        // The recovery leader's own phase 2a succeeds.
        let (ok, _) = a.accept(gtx(1), site(2), b, false);
        assert!(ok);
    }

    #[test]
    fn lower_promise_is_refused_and_reports_the_winner() {
        let mut a = AcceptorState::new();
        let hi = Ballot::new(3, 1);
        let (out, _) = a.promise(gtx(4), hi);
        assert!(out.promised);
        let (out, rec) = a.promise(gtx(4), Ballot::new(2, 9));
        assert!(!out.promised);
        assert_eq!(out.promised_up_to, hi);
        assert!(rec.is_none());
    }

    #[test]
    fn open_entries_skip_decided_and_unregistered() {
        let mut a = AcceptorState::new();
        a.register(gtx(1), &[site(1)]);
        a.register(gtx(2), &[site(1), site(2)]);
        a.note_decision(gtx(2), GlobalVerdict::Commit);
        // A bare promise without registration is not "open" — the replica
        // that knows the registration will report it.
        a.promise(gtx(3), Ballot::new(1, 1));
        let open = a.open_entries();
        assert_eq!(open.len(), 1);
        assert_eq!(open[0].gtx, gtx(1));
        assert_eq!(open[0].participants, vec![site(1)]);
    }

    #[test]
    fn register_and_decision_are_idempotent() {
        let mut a = AcceptorState::new();
        assert!(a.register(gtx(1), &[site(1)]).is_some());
        assert!(a.register(gtx(1), &[site(9)]).is_none());
        assert_eq!(a.open_entries()[0].participants, vec![site(1)]);
        assert!(a.note_decision(gtx(1), GlobalVerdict::Commit).is_some());
        assert!(a.note_decision(gtx(1), GlobalVerdict::Commit).is_none());
        // A decision for a transaction this acceptor never touched is not
        // logged — presume-abort covers it.
        assert!(a.note_decision(gtx(77), GlobalVerdict::Abort).is_none());
    }

    #[test]
    fn replay_skips_engine_rows_and_matches_the_live_state() {
        let mut live = AcceptorState::new();
        let mut log = vec![LogRecord::Begin {
            txn: amc_types::LocalTxnId::new(1),
        }];
        log.extend(live.register(gtx(5), &[site(1), site(2)]));
        log.push(LogRecord::Commit {
            txn: amc_types::LocalTxnId::new(1),
        });
        log.extend(live.accept(gtx(5), site(1), Ballot::ZERO, true).1);
        log.extend(live.promise(gtx(5), Ballot::new(1, 2)).1);
        assert_eq!(AcceptorState::replay(&log), live);
        assert_eq!(live.promised(gtx(5)), Ballot::new(1, 2));
        assert_eq!(live.open_entries().len(), 1);
    }
}
