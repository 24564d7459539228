//! Transaction state enums shared by the crates that speak the protocol:
//! the coordinator, the engines, the communication managers and the wire.
//!
//! These mirror the state diagrams of Figs. 2, 4 and 6 in the paper. The
//! transition logic lives where the states are held: the global phases in
//! `amc-core`'s coordinator, the local run states in `amc-engine`.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Which commit protocol a federation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProtocolKind {
    /// Classic two-phase commit — requires *modified* local transaction
    /// managers exposing a ready state (§3.1). Baseline.
    TwoPhaseCommit,
    /// Local commitment **after** the global decision (§3.2): redo-log +
    /// additional global concurrency control.
    CommitAfter,
    /// Local commitment **before** the global decision (§3.3): undo via
    /// inverse transactions; pairs with multi-level transactions (§4).
    CommitBefore,
}

impl ProtocolKind {
    /// All protocols, in paper order. Handy for sweeps.
    pub const ALL: [ProtocolKind; 3] = [
        ProtocolKind::TwoPhaseCommit,
        ProtocolKind::CommitAfter,
        ProtocolKind::CommitBefore,
    ];

    /// Short label used in reports and bench ids.
    pub fn label(&self) -> &'static str {
        match self {
            ProtocolKind::TwoPhaseCommit => "2pc",
            ProtocolKind::CommitAfter => "commit-after",
            ProtocolKind::CommitBefore => "commit-before",
        }
    }

    /// Parse a [`ProtocolKind::label`] (the `--protocol` flag value).
    pub fn parse(s: &str) -> Option<ProtocolKind> {
        ProtocolKind::ALL.into_iter().find(|p| p.label() == s)
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Phase of a *global* transaction, superset of the global states in
/// Figs. 2, 4 and 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GlobalPhase {
    /// Executing its decomposed local transactions.
    Running,
    /// Sent `prepare`, collecting votes ("inquire" in the figures).
    Inquiring,
    /// Decision made: commit; waiting for locals to finish committing
    /// ("waiting to commit", Figs. 2/4).
    WaitingToCommit,
    /// Decision made: abort; waiting for locals to finish aborting/undoing
    /// ("waiting to abort", Fig. 6).
    WaitingToAbort,
    /// Terminal: globally committed.
    Committed,
    /// Terminal: globally aborted.
    Aborted,
}

impl fmt::Display for GlobalPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GlobalPhase::Running => "running",
            GlobalPhase::Inquiring => "inquiring",
            GlobalPhase::WaitingToCommit => "waiting-to-commit",
            GlobalPhase::WaitingToAbort => "waiting-to-abort",
            GlobalPhase::Committed => "committed",
            GlobalPhase::Aborted => "aborted",
        };
        f.write_str(s)
    }
}

/// The global decision, once made.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GlobalVerdict {
    /// All votes were yes: commit everywhere.
    Commit,
    /// At least one no/abort: abort everywhere.
    Abort,
}

crate::wire_enum!(GlobalVerdict, "verdict" {
    0 => Commit,
    1 => Abort,
});

impl fmt::Display for GlobalVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            GlobalVerdict::Commit => "commit",
            GlobalVerdict::Abort => "abort",
        })
    }
}

/// A participant's vote on `prepare`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LocalVote {
    /// Ready to follow either global decision (2PC: in the ready state;
    /// commit-after: finished all actions but still *running*;
    /// commit-before: already locally **committed**).
    Ready,
    /// Ready, and the local transaction performed no updates: the classic
    /// read-only optimization — the participant commits immediately and
    /// drops out of the rest of the protocol (cf. the derived 2PC
    /// protocols the paper surveys in §5).
    ReadyReadOnly,
    /// Locally aborted / unable to commit.
    Aborted,
}

crate::wire_enum!(LocalVote, "vote" {
    0 => Ready,
    1 => ReadyReadOnly,
    2 => Aborted,
});

impl LocalVote {
    /// Whether the vote lets the global transaction proceed to commit.
    pub fn is_yes(&self) -> bool {
        !matches!(self, LocalVote::Aborted)
    }
}

/// Run-state of one local execution attempt, as observed through the
/// unmodifiable `begin/commit/abort` interface (plus `ready` for the 2PC
/// baseline's modified engines).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LocalRunState {
    /// Actions are executing (or done, but commit not yet requested).
    Running,
    /// 2PC only: prepared, changes on stable storage, can go either way.
    Ready,
    /// Terminal for the attempt: committed.
    Committed,
    /// Terminal for the attempt: aborted.
    Aborted,
}

impl fmt::Display for LocalRunState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LocalRunState::Running => "running",
            LocalRunState::Ready => "ready",
            LocalRunState::Committed => "committed",
            LocalRunState::Aborted => "aborted",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_labels_are_stable() {
        assert_eq!(ProtocolKind::TwoPhaseCommit.label(), "2pc");
        assert_eq!(ProtocolKind::CommitAfter.label(), "commit-after");
        assert_eq!(ProtocolKind::CommitBefore.label(), "commit-before");
        for p in ProtocolKind::ALL {
            assert_eq!(ProtocolKind::parse(p.label()), Some(p));
        }
        assert_eq!(ProtocolKind::parse("3pc"), None);
    }
}
