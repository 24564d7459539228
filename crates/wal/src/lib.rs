//! # amc-wal
//!
//! Write-ahead logging and restart recovery for the local database engines.
//!
//! The design is deliberately the one a well-built 1991 engine would carry:
//! **value logging** (full before/after images) under strict two-phase
//! locking, which makes both redo and undo **idempotent** — exactly the
//! property §3.2/§3.3 of the paper lean on when they demand that redo/undo
//! operations tolerate crashes between a commit and its propagation
//! (experiment E8).
//!
//! * [`record::LogRecord`] — begin/update/commit/abort/checkpoint records
//!   with a checksummed binary encoding.
//! * [`log::LogManager`] — an append-only log with a volatile tail and a
//!   stable prefix; `force()` is the durability barrier, and a crash drops
//!   the tail.
//! * [`durable::DurableFile`] — an on-disk mirror of the stable prefix:
//!   checksum-framed appends, one `fsync` per acknowledged force, torn-tail
//!   classification at open. [`LogManager::open_durable`] wires it in so a
//!   killed process recovers its stable prefix from the file.
//! * [`recovery`] — restart recovery: forward replay of finished
//!   transactions from the last checkpoint, backward undo of losers.
//!
//! Correctness argument for the replay scheme: under strict 2PL, conflicting
//! updates are ordered by the log, and value (state) logging makes every
//! replay step idempotent, so "redo finished transactions forward, undo
//! losers backward" restores exactly the committed state regardless of which
//! buffer pages happened to reach disk before the crash.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod durable;
pub mod group;
pub mod log;
pub mod record;
pub mod recovery;

pub use durable::{DurableFile, Opened};
pub use group::{GroupCommitConfig, GroupCommitter, Mark};
pub use log::{LogManager, LogStats};
pub use record::LogRecord;
pub use recovery::{recover, RecoveryOutcome};
