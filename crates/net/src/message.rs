//! Protocol messages.
//!
//! The names follow the paper's figures: `prepare`, `ready`/`abort` (here a
//! [`Payload::Vote`]), `commit`/`abort` (a [`Payload::Decision`]), `undo`
//! and `finished`. Two additions are implied but not drawn in the figures:
//! `Submit` ships the decomposed local transaction's operations to a site
//! (§2's decomposition step), and `Redo` retransmits them when a
//! commit-after repetition is needed after a site crash (§3.2's redo-log
//! kept "as a part of the global transaction manager").

use amc_types::{GlobalTxnId, GlobalVerdict, LocalVote, Operation, SiteId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// What a message says.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Payload {
    /// Central → local: execute these operations as one local transaction.
    /// `mode` is implied by the protocol the federation runs.
    Submit {
        /// Global transaction.
        gtx: GlobalTxnId,
        /// The decomposed local program.
        ops: Vec<Operation>,
    },
    /// Central → local: execute these operations **and** enter the ready
    /// state in one exchange — the 1PC vote piggyback (*To Vote Before
    /// Decide*): the site's reply doubles as its vote, so no separate
    /// `prepare` round is needed. With `solo` set the transaction touches
    /// only this site and the site commits locally with no global round at
    /// all; the reply then acknowledges a finished local commit.
    SubmitPrepare {
        /// Global transaction.
        gtx: GlobalTxnId,
        /// The decomposed local program.
        ops: Vec<Operation>,
        /// True when this site is the transaction's only participant:
        /// commit locally, skip the global decision round entirely.
        solo: bool,
    },
    /// Central → local: the `prepare` inquiry of Figs. 2/4/6.
    Prepare {
        /// Global transaction.
        gtx: GlobalTxnId,
    },
    /// Local → central: `ready` or `abort` (the paper's vote messages).
    Vote {
        /// Global transaction.
        gtx: GlobalTxnId,
        /// Ready (can follow the decision) or aborted.
        vote: LocalVote,
    },
    /// Central → local: the global decision (`commit` / `abort`).
    Decision {
        /// Global transaction.
        gtx: GlobalTxnId,
        /// The verdict.
        verdict: GlobalVerdict,
    },
    /// Central → local (commit-after only): repeat the local transaction —
    /// carries the operations so a crashed site needs no local state.
    Redo {
        /// Global transaction.
        gtx: GlobalTxnId,
        /// Operations to re-execute.
        ops: Vec<Operation>,
    },
    /// Central → local (commit-before only): undo the locally committed
    /// transaction by executing its inverse (§3.3) — carries the forward
    /// operations, whose inverse the site derives with the before images
    /// its local transaction committed, so a crashed site needs no local
    /// state.
    Undo {
        /// Global transaction.
        gtx: GlobalTxnId,
        /// The forward operations to invert.
        ops: Vec<Operation>,
    },
    /// Local → central: decision fully applied at this site.
    Finished {
        /// Global transaction.
        gtx: GlobalTxnId,
    },
    /// Central → acceptor: open this transaction's Paxos Commit instance
    /// set (Gray & Lamport's *BeginCommit*). The acceptor durably records
    /// the participant list so **any** coordinator replica can later
    /// enumerate and finish the transaction's per-site instances.
    PaxosRegister {
        /// Global transaction.
        gtx: GlobalTxnId,
        /// Participant sites — one Paxos instance each.
        participants: Vec<SiteId>,
    },
    /// Acceptor → central: registration (or decision note) durably logged.
    PaxosAck {
        /// Global transaction.
        gtx: GlobalTxnId,
    },
    /// Central → acceptor: phase 1a — a recovery replica asks the
    /// acceptor to promise ballot `ballot` for every instance of `gtx`.
    PaxosP1a {
        /// Global transaction.
        gtx: GlobalTxnId,
        /// The ballot being opened (packed `round << 32 | replica`).
        ballot: u64,
    },
    /// Acceptor → central: phase 1b — the promise (or refusal), carrying
    /// everything the acceptor has accepted for `gtx` so the new leader
    /// can adopt the highest-ballot values.
    PaxosP1b {
        /// Global transaction.
        gtx: GlobalTxnId,
        /// The ballot this answers.
        ballot: u64,
        /// True when the acceptor promised `ballot`; false when it has
        /// already promised a higher one (carried back in `promised_up_to`).
        promised: bool,
        /// The highest ballot this acceptor has promised.
        promised_up_to: u64,
        /// Participant sites from the durable registration (empty when
        /// this acceptor never saw the registration).
        participants: Vec<SiteId>,
        /// Per-instance accepted values: `(site, accepted ballot,
        /// prepared?)`. Instances with no accepted value are omitted.
        accepted: Vec<(SiteId, u64, bool)>,
    },
    /// Central → acceptor: phase 2a — accept `prepared` as instance
    /// `site`'s value at `ballot`. With the co-location optimization the
    /// ballot-0 accept for a site's **own** instance never crosses the
    /// wire as a `PaxosP2a`: the site's vote message doubles as it.
    PaxosP2a {
        /// Global transaction.
        gtx: GlobalTxnId,
        /// The instance (one per participant site).
        site: SiteId,
        /// The ballot the value is proposed at.
        ballot: u64,
        /// The instance value: true = Prepared, false = Aborted.
        prepared: bool,
    },
    /// Central → acceptor: the global decision, for acceptors that are
    /// **not** participants of `gtx` (participant acceptors note the
    /// decision from the ordinary [`Payload::Decision`] they receive as
    /// sites). Closes the transaction's instances in the acceptor log so
    /// recovery replicas stop reporting it as open. Answered with a
    /// [`Payload::PaxosAck`].
    PaxosDecided {
        /// Global transaction.
        gtx: GlobalTxnId,
        /// The verdict.
        verdict: GlobalVerdict,
    },
    /// Acceptor → central: phase 2b — accepted (or refused because a
    /// higher ballot was promised).
    PaxosP2b {
        /// Global transaction.
        gtx: GlobalTxnId,
        /// The instance this answers.
        site: SiteId,
        /// The ballot this answers.
        ballot: u64,
        /// True when the value was durably accepted.
        accepted: bool,
    },
}

amc_types::wire_enum!(Payload, "payload" {
    0 => Submit { gtx: GlobalTxnId, ops: Vec<Operation> },
    1 => Prepare { gtx: GlobalTxnId },
    2 => Vote { gtx: GlobalTxnId, vote: LocalVote },
    3 => Decision { gtx: GlobalTxnId, verdict: GlobalVerdict },
    4 => Redo { gtx: GlobalTxnId, ops: Vec<Operation> },
    5 => Undo { gtx: GlobalTxnId, ops: Vec<Operation> },
    6 => Finished { gtx: GlobalTxnId },
    7 => PaxosRegister { gtx: GlobalTxnId, participants: Vec<SiteId> },
    8 => PaxosAck { gtx: GlobalTxnId },
    9 => PaxosP1a { gtx: GlobalTxnId, ballot: u64 },
    10 => PaxosP1b {
        gtx: GlobalTxnId,
        ballot: u64,
        promised: bool,
        promised_up_to: u64,
        participants: Vec<SiteId>,
        accepted: Vec<(SiteId, u64, bool)>,
    },
    11 => PaxosP2a { gtx: GlobalTxnId, site: SiteId, ballot: u64, prepared: bool },
    12 => PaxosP2b { gtx: GlobalTxnId, site: SiteId, ballot: u64, accepted: bool },
    13 => PaxosDecided { gtx: GlobalTxnId, verdict: GlobalVerdict },
    14 => SubmitPrepare { gtx: GlobalTxnId, solo: bool, ops: Vec<Operation> },
});

impl Payload {
    /// The global transaction this message belongs to.
    pub fn gtx(&self) -> GlobalTxnId {
        match self {
            Payload::Submit { gtx, .. }
            | Payload::SubmitPrepare { gtx, .. }
            | Payload::Prepare { gtx }
            | Payload::Vote { gtx, .. }
            | Payload::Decision { gtx, .. }
            | Payload::Redo { gtx, .. }
            | Payload::Undo { gtx, .. }
            | Payload::Finished { gtx }
            | Payload::PaxosRegister { gtx, .. }
            | Payload::PaxosAck { gtx }
            | Payload::PaxosP1a { gtx, .. }
            | Payload::PaxosP1b { gtx, .. }
            | Payload::PaxosP2a { gtx, .. }
            | Payload::PaxosDecided { gtx, .. }
            | Payload::PaxosP2b { gtx, .. } => *gtx,
        }
    }

    /// Short label for traces and E4 counters.
    pub fn label(&self) -> &'static str {
        match self {
            Payload::Submit { .. } => "submit",
            Payload::SubmitPrepare { solo: false, .. } => "submit-prepare",
            Payload::SubmitPrepare { solo: true, .. } => "submit-solo",
            Payload::Prepare { .. } => "prepare",
            Payload::Vote {
                vote: LocalVote::Ready,
                ..
            } => "ready",
            Payload::Vote {
                vote: LocalVote::ReadyReadOnly,
                ..
            } => "ready-ro",
            Payload::Vote {
                vote: LocalVote::Aborted,
                ..
            } => "abort-vote",
            Payload::Decision {
                verdict: GlobalVerdict::Commit,
                ..
            } => "commit",
            Payload::Decision {
                verdict: GlobalVerdict::Abort,
                ..
            } => "abort",
            Payload::Redo { .. } => "redo",
            Payload::Undo { .. } => "undo",
            Payload::Finished { .. } => "finished",
            Payload::PaxosRegister { .. } => "paxos-register",
            Payload::PaxosAck { .. } => "paxos-ack",
            Payload::PaxosP1a { .. } => "paxos-p1a",
            Payload::PaxosP1b { .. } => "paxos-p1b",
            Payload::PaxosP2a { .. } => "paxos-p2a",
            Payload::PaxosDecided { .. } => "paxos-decided",
            Payload::PaxosP2b { .. } => "paxos-p2b",
        }
    }
}

impl fmt::Display for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.label(), self.gtx())
    }
}

/// A routed message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Envelope {
    /// Sender site.
    pub from: SiteId,
    /// Destination site.
    pub to: SiteId,
    /// Content.
    pub payload: Payload,
}

impl Envelope {
    /// Construct.
    pub fn new(from: SiteId, to: SiteId, payload: Payload) -> Self {
        Envelope { from, to, payload }
    }

    /// The Fig. 1 invariant: every message involves the central system.
    pub(crate) fn respects_star_topology(&self) -> bool {
        (self.from.is_central() || self.to.is_central()) && self.from != self.to
    }
}

impl fmt::Display for Envelope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}: {}", self.from, self.to, self.payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gtx(n: u64) -> GlobalTxnId {
        GlobalTxnId::new(n)
    }

    #[test]
    fn labels_match_paper_vocabulary() {
        assert_eq!(Payload::Prepare { gtx: gtx(1) }.label(), "prepare");
        assert_eq!(
            Payload::SubmitPrepare {
                gtx: gtx(1),
                ops: vec![],
                solo: false
            }
            .label(),
            "submit-prepare"
        );
        assert_eq!(
            Payload::SubmitPrepare {
                gtx: gtx(1),
                ops: vec![],
                solo: true
            }
            .label(),
            "submit-solo"
        );
        assert_eq!(
            Payload::Vote {
                gtx: gtx(1),
                vote: LocalVote::Ready
            }
            .label(),
            "ready"
        );
        assert_eq!(
            Payload::Decision {
                gtx: gtx(1),
                verdict: GlobalVerdict::Commit
            }
            .label(),
            "commit"
        );
        assert_eq!(Payload::Finished { gtx: gtx(1) }.label(), "finished");
        assert_eq!(
            Payload::Undo {
                gtx: gtx(1),
                ops: vec![]
            }
            .label(),
            "undo"
        );
    }

    #[test]
    fn star_topology_invariant() {
        let c = SiteId::CENTRAL;
        let a = SiteId::new(1);
        let b = SiteId::new(2);
        let p = Payload::Prepare { gtx: gtx(1) };
        assert!(Envelope::new(c, a, p.clone()).respects_star_topology());
        assert!(Envelope::new(a, c, p.clone()).respects_star_topology());
        assert!(!Envelope::new(a, b, p.clone()).respects_star_topology());
        assert!(!Envelope::new(c, c, p).respects_star_topology());
    }

    #[test]
    fn display_is_readable() {
        let e = Envelope::new(
            SiteId::CENTRAL,
            SiteId::new(2),
            Payload::Prepare { gtx: gtx(7) },
        );
        assert_eq!(e.to_string(), "site-0 -> site-2: prepare(G7)");
    }

    #[test]
    fn gtx_accessor_covers_all_variants() {
        let variants = vec![
            Payload::Submit {
                gtx: gtx(3),
                ops: vec![],
            },
            Payload::SubmitPrepare {
                gtx: gtx(3),
                ops: vec![],
                solo: false,
            },
            Payload::Prepare { gtx: gtx(3) },
            Payload::Vote {
                gtx: gtx(3),
                vote: LocalVote::Aborted,
            },
            Payload::Decision {
                gtx: gtx(3),
                verdict: GlobalVerdict::Abort,
            },
            Payload::Redo {
                gtx: gtx(3),
                ops: vec![],
            },
            Payload::Undo {
                gtx: gtx(3),
                ops: vec![],
            },
            Payload::Finished { gtx: gtx(3) },
            Payload::PaxosRegister {
                gtx: gtx(3),
                participants: vec![],
            },
            Payload::PaxosAck { gtx: gtx(3) },
            Payload::PaxosP1a {
                gtx: gtx(3),
                ballot: 1,
            },
            Payload::PaxosP1b {
                gtx: gtx(3),
                ballot: 1,
                promised: true,
                promised_up_to: 1,
                participants: vec![],
                accepted: vec![],
            },
            Payload::PaxosP2a {
                gtx: gtx(3),
                site: SiteId::new(1),
                ballot: 1,
                prepared: true,
            },
            Payload::PaxosDecided {
                gtx: gtx(3),
                verdict: GlobalVerdict::Commit,
            },
            Payload::PaxosP2b {
                gtx: gtx(3),
                site: SiteId::new(1),
                ballot: 1,
                accepted: true,
            },
        ];
        for p in variants {
            assert_eq!(p.gtx(), gtx(3));
        }
    }
}
