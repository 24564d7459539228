//! # amc-types
//!
//! Shared vocabulary for the AMC federation — the reproduction of
//! Muth & Rakow, *Atomic Commitment for Integrated Database Systems*
//! (ICDE 1991).
//!
//! Every other crate in the workspace builds on the identifiers, values,
//! operations, error taxonomy and transaction-state enums defined here.
//! The binary [`codec`] lives here too, so that every crate above can
//! declare a byte layout beside its type. The crate is deliberately
//! dependency-light (only `serde`) so that it can sit at the bottom of the
//! layering described in `DESIGN.md`:
//!
//! ```text
//! types → {storage, lock, sim} → wal → engine → {net, mlt} → core → ...
//! ```
//!
//! ## Conventions
//!
//! * All identifiers are **newtypes** over integers ([`SiteId`],
//!   [`GlobalTxnId`], [`LocalTxnId`], [`ObjectId`], [`PageId`], [`Lsn`]).
//!   They never implicitly convert into one another; mixing up a local and a
//!   global transaction id is a compile error, not a 3 a.m. debugging
//!   session.
//! * Database values are modelled as [`Value`] — a signed 64-bit counter plus
//!   a small tag payload. Counters are what the paper's running example
//!   (commuting increments, Fig. 8) needs, and the tag lets workloads store
//!   record-ish data without dragging a full type system into every crate.
//! * Time inside the deterministic simulator is [`SimTime`] /
//!   [`SimDuration`]: logical microseconds, fully ordered, no wall clock.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ballot;
pub mod codec;
pub mod error;
pub mod ids;
pub mod mix;
pub mod op;
pub mod state;
pub mod time;
pub mod value;

pub use ballot::Ballot;
pub use error::{AbortReason, AmcError, AmcResult};
pub use ids::{GlobalTxnId, LocalTxnId, Lsn, ObjectId, PageId, SiteId};
pub use mix::{splitmix64, Scramble};
pub use op::{OpResult, Operation};
pub use state::{GlobalPhase, GlobalVerdict, LocalRunState, LocalVote, ProtocolKind};
pub use time::{SimDuration, SimTime};
pub use value::Value;
