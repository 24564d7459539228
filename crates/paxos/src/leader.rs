//! Leader-side decision logic — pure functions shared by the incumbent
//! coordinator (ballot-0 fast path) and recovery replicas (ballot ≥ 1).
//!
//! A transaction with participants `{s₁..sₙ}` runs `n` Paxos instances,
//! one per participant; instance `sᵢ`'s value is `sᵢ`'s vote (Prepared or
//! Aborted). The global verdict is a deterministic function of the chosen
//! instance values: **commit iff every instance chose Prepared**. Because
//! every leader computes the verdict from values *chosen by a majority of
//! the same acceptor set*, two leaders can never reach different verdicts.

use crate::acceptor::PromiseOutcome;
use amc_types::Ballot;
use amc_types::{GlobalVerdict, SiteId};
use std::collections::{BTreeMap, BTreeSet};

/// Smallest majority of `acceptors`.
pub fn majority(acceptors: usize) -> usize {
    acceptors / 2 + 1
}

/// The incumbent's ballot-0 bookkeeping: which acceptors have durably
/// accepted Prepared for each instance. An instance is *chosen* once a
/// majority has — only then may the incumbent count it toward commit.
#[derive(Debug, Clone, Default)]
pub struct CommitLedger {
    accepted: BTreeMap<SiteId, BTreeSet<SiteId>>,
}

impl CommitLedger {
    /// Empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that `acceptor` durably accepted Prepared for instance
    /// `instance` at ballot 0.
    pub fn record_prepared(&mut self, instance: SiteId, acceptor: SiteId) {
        self.accepted.entry(instance).or_default().insert(acceptor);
    }

    /// True when a majority of `total` acceptors accepted `instance`.
    pub(crate) fn chosen(&self, instance: SiteId, total: usize) -> bool {
        self.accepted
            .get(&instance)
            .map(|s| s.len() >= majority(total))
            .unwrap_or(false)
    }

    /// True when every participant's instance is chosen — the commit gate.
    pub fn all_chosen(&self, participants: &[SiteId], total: usize) -> bool {
        participants.iter().all(|s| self.chosen(*s, total))
    }
}

/// What a recovery leader proposes after phase 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RecoveryPlan {
    /// The union of participant sets reported by the promising acceptors.
    pub participants: Vec<SiteId>,
    /// The value to propose per instance at the new ballot.
    pub values: BTreeMap<SiteId, bool>,
}

impl RecoveryPlan {
    /// The verdict these values decide once every instance is chosen.
    pub(crate) fn verdict(&self) -> GlobalVerdict {
        if !self.values.is_empty() && self.values.values().all(|p| *p) {
            GlobalVerdict::Commit
        } else {
            GlobalVerdict::Abort
        }
    }
}

/// Choose instance values from a majority's phase-1b replies: for each
/// participant, adopt the highest-ballot accepted value any promising
/// acceptor reports; a free instance (nothing accepted anywhere in the
/// majority) is proposed **Aborted** — the presume-abort rule that makes
/// an unfinished vote unable to block commit processing.
///
/// `hint` seeds the participant set for the caller that already knows it
/// (e.g. from its own acceptor's registration).
pub(crate) fn plan_from_promises(hint: &[SiteId], promises: &[PromiseOutcome]) -> RecoveryPlan {
    let mut participants: BTreeSet<SiteId> = hint.iter().copied().collect();
    for p in promises {
        participants.extend(p.participants.iter().copied());
    }
    let mut values = BTreeMap::new();
    for site in &participants {
        let mut best: Option<(Ballot, bool)> = None;
        for p in promises {
            for (s, b, v) in &p.accepted {
                if s == site && best.map(|(bb, _)| *b > bb).unwrap_or(true) {
                    best = Some((*b, *v));
                }
            }
        }
        values.insert(*site, best.map(|(_, v)| v).unwrap_or(false));
    }
    RecoveryPlan {
        participants: participants.into_iter().collect(),
        values,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(n: u32) -> SiteId {
        SiteId::new(n)
    }

    fn promise(participants: &[u32], accepted: &[(u32, Ballot, bool)]) -> PromiseOutcome {
        PromiseOutcome {
            promised: true,
            promised_up_to: Ballot::new(1, 0),
            participants: participants.iter().map(|n| site(*n)).collect(),
            accepted: accepted
                .iter()
                .map(|(s, b, v)| (site(*s), *b, *v))
                .collect(),
        }
    }

    #[test]
    fn majority_math() {
        assert_eq!(majority(1), 1);
        assert_eq!(majority(3), 2);
        assert_eq!(majority(4), 3);
        assert_eq!(majority(5), 3);
    }

    #[test]
    fn ledger_gates_commit_on_per_instance_majorities() {
        let mut l = CommitLedger::new();
        let parts = [site(1), site(2)];
        l.record_prepared(site(1), site(1));
        l.record_prepared(site(1), site(2));
        l.record_prepared(site(2), site(2));
        assert!(l.chosen(site(1), 3));
        assert!(!l.chosen(site(2), 3));
        assert!(!l.all_chosen(&parts, 3));
        l.record_prepared(site(2), site(3));
        assert!(l.all_chosen(&parts, 3));
    }

    #[test]
    fn duplicate_acceptor_acks_count_once() {
        let mut l = CommitLedger::new();
        l.record_prepared(site(1), site(2));
        l.record_prepared(site(1), site(2));
        assert!(!l.chosen(site(1), 3));
    }

    #[test]
    fn free_instances_are_presumed_aborted() {
        // Site 1's vote reached one acceptor; site 2 never voted.
        let plan = plan_from_promises(
            &[],
            &[
                promise(&[1, 2], &[(1, Ballot::ZERO, true)]),
                promise(&[1, 2], &[]),
            ],
        );
        assert_eq!(plan.participants, vec![site(1), site(2)]);
        assert!(plan.values[&site(1)]);
        assert!(!plan.values[&site(2)]);
        assert_eq!(plan.verdict(), GlobalVerdict::Abort);
    }

    #[test]
    fn fully_replicated_prepares_recover_to_commit() {
        let acc = [(1, Ballot::ZERO, true), (2, Ballot::ZERO, true)];
        let plan = plan_from_promises(&[], &[promise(&[1, 2], &acc), promise(&[1, 2], &acc)]);
        assert_eq!(plan.verdict(), GlobalVerdict::Commit);
    }

    #[test]
    fn highest_ballot_value_wins() {
        // An older recovery round proposed Aborted for site 1 at b1.5; the
        // original ballot-0 Prepared must lose to it.
        let plan = plan_from_promises(
            &[],
            &[
                promise(&[1], &[(1, Ballot::ZERO, true)]),
                promise(&[1], &[(1, Ballot::new(1, 5), false)]),
            ],
        );
        assert!(!plan.values[&site(1)]);
        assert_eq!(plan.verdict(), GlobalVerdict::Abort);
    }

    #[test]
    fn empty_plan_aborts() {
        // No acceptor knows the transaction: nothing to commit.
        let plan = plan_from_promises(&[], &[]);
        assert_eq!(plan.verdict(), GlobalVerdict::Abort);
        assert!(plan.participants.is_empty());
    }
}
