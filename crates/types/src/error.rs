//! Error taxonomy.
//!
//! The protocols in `amc-core` care a great deal about *why* a local
//! transaction aborted: an **intended** abort (transaction logic, e.g. an
//! application `abort` call or a failed existence check) must propagate to a
//! global abort, while an **erroneous** abort (deadlock victim, lock
//! timeout, OCC validation failure, site crash — §3.2's list) is repaired by
//! repetition under commit-after. [`AbortReason::is_erroneous`] encodes that
//! split.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Why a local transaction aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AbortReason {
    /// The transaction's own logic requested the abort (e.g. a business rule
    /// failed). Deterministic: repeating the transaction would abort again.
    Intended,
    /// Chosen as a deadlock victim by the local lock manager.
    Deadlock,
    /// A lock request timed out.
    LockTimeout,
    /// An optimistic scheduler's validation phase failed.
    ValidationFailed,
    /// The site crashed while the transaction was active; local restart
    /// recovery rolled it back.
    SiteCrash,
    /// The global coordinator decided to abort (only meaningful for global
    /// transactions).
    GlobalDecision,
    /// Injected by a failure schedule in the simulator.
    Injected,
}

crate::wire_enum!(AbortReason, "abort-reason" {
    0 => Intended,
    1 => Deadlock,
    2 => LockTimeout,
    3 => ValidationFailed,
    4 => SiteCrash,
    5 => GlobalDecision,
    6 => Injected,
});

impl AbortReason {
    /// True when the abort is *erroneous* in the paper's sense (§3.2): not
    /// caused by transaction logic, so a repetition can be expected to
    /// eventually commit.
    #[inline]
    pub fn is_erroneous(&self) -> bool {
        !matches!(self, AbortReason::Intended | AbortReason::GlobalDecision)
    }
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AbortReason::Intended => "intended",
            AbortReason::Deadlock => "deadlock",
            AbortReason::LockTimeout => "lock-timeout",
            AbortReason::ValidationFailed => "validation-failed",
            AbortReason::SiteCrash => "site-crash",
            AbortReason::GlobalDecision => "global-decision",
            AbortReason::Injected => "injected",
        };
        f.write_str(s)
    }
}

/// Workspace-wide error type.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AmcError {
    /// A local or global transaction was aborted.
    Aborted(AbortReason),
    /// Object not found where one was required.
    NotFound(crate::ids::ObjectId),
    /// Object already exists where absence was required.
    AlreadyExists(crate::ids::ObjectId),
    /// An escrow reserve would overdraw the counter (transaction logic
    /// failure — an *intended* abort cause).
    InsufficientStock {
        /// The escrow object.
        obj: crate::ids::ObjectId,
        /// Units available.
        have: i64,
        /// Units requested.
        want: u64,
    },
    /// The referenced transaction id is unknown or already terminated.
    UnknownTxn,
    /// The site is crashed; no operations are accepted until recovery.
    SiteDown(crate::ids::SiteId),
    /// Page checksum mismatch or other stable-storage corruption.
    Corruption(String),
    /// A transient I/O failure (e.g. an injected disk read error). Unlike
    /// [`AmcError::Corruption`] the operation may succeed if retried.
    TransientIo(String),
    /// Buffer pool exhausted: all frames pinned.
    BufferExhausted,
    /// A protocol invariant was violated (bug or byzantine input).
    Protocol(String),
    /// The operation is illegal in the current state (e.g. operating on a
    /// transaction that already voted).
    InvalidState(String),
}

crate::wire_enum!(AmcError, "error" {
    0 => Aborted(reason: AbortReason),
    1 => NotFound(obj: crate::ids::ObjectId),
    2 => AlreadyExists(obj: crate::ids::ObjectId),
    3 => InsufficientStock { obj: crate::ids::ObjectId, have: i64, want: u64 },
    4 => UnknownTxn,
    5 => SiteDown(site: crate::ids::SiteId),
    6 => Corruption(message: String),
    7 => TransientIo(message: String),
    8 => BufferExhausted,
    9 => Protocol(message: String),
    10 => InvalidState(message: String),
});

impl fmt::Display for AmcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AmcError::Aborted(r) => write!(f, "transaction aborted ({r})"),
            AmcError::NotFound(o) => write!(f, "object {o} not found"),
            AmcError::AlreadyExists(o) => write!(f, "object {o} already exists"),
            AmcError::InsufficientStock { obj, have, want } => {
                write!(f, "insufficient stock on {obj}: have {have}, want {want}")
            }
            AmcError::UnknownTxn => write!(f, "unknown or terminated transaction"),
            AmcError::SiteDown(s) => write!(f, "{s} is down"),
            AmcError::Corruption(m) => write!(f, "storage corruption: {m}"),
            AmcError::TransientIo(m) => write!(f, "transient i/o failure: {m}"),
            AmcError::BufferExhausted => write!(f, "buffer pool exhausted"),
            AmcError::Protocol(m) => write!(f, "protocol violation: {m}"),
            AmcError::InvalidState(m) => write!(f, "invalid state: {m}"),
        }
    }
}

impl std::error::Error for AmcError {}

/// Convenience alias used across the workspace.
pub type AmcResult<T> = Result<T, AmcError>;

#[cfg(test)]
impl AmcError {
    /// Shorthand for an intended abort.
    pub fn intended_abort() -> Self {
        AmcError::Aborted(AbortReason::Intended)
    }

    /// The abort reason, if this error represents an abort.
    pub fn abort_reason(&self) -> Option<&AbortReason> {
        match self {
            AmcError::Aborted(r) => Some(r),
            _ => None,
        }
    }

    /// True if the error is an *erroneous* abort that commit-after would
    /// repair by repetition.
    pub fn is_erroneous_abort(&self) -> bool {
        self.abort_reason().is_some_and(AbortReason::is_erroneous)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ObjectId, SiteId};

    #[test]
    fn erroneous_classification_follows_section_3_2() {
        // §3.2: "aborted by the local transaction manager, e.g. because of
        // time out, by an optimistic scheduler ... or by a system crash" —
        // all erroneous, all repaired by repetition.
        assert!(AbortReason::Deadlock.is_erroneous());
        assert!(AbortReason::LockTimeout.is_erroneous());
        assert!(AbortReason::ValidationFailed.is_erroneous());
        assert!(AbortReason::SiteCrash.is_erroneous());
        assert!(AbortReason::Injected.is_erroneous());
        // Intended aborts and coordinator decisions are not.
        assert!(!AbortReason::Intended.is_erroneous());
        assert!(!AbortReason::GlobalDecision.is_erroneous());
    }

    #[test]
    fn error_displays_are_informative() {
        assert_eq!(
            AmcError::Aborted(AbortReason::Deadlock).to_string(),
            "transaction aborted (deadlock)"
        );
        assert_eq!(
            AmcError::NotFound(ObjectId::new(4)).to_string(),
            "object obj-4 not found"
        );
        assert_eq!(
            AmcError::SiteDown(SiteId::new(2)).to_string(),
            "site-2 is down"
        );
    }

    #[test]
    fn erroneous_abort_helper() {
        assert!(AmcError::Aborted(AbortReason::SiteCrash).is_erroneous_abort());
        assert!(!AmcError::intended_abort().is_erroneous_abort());
        assert!(!AmcError::UnknownTxn.is_erroneous_abort());
    }
}
