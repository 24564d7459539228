//! # amc-obs — deterministic structured-event observability
//!
//! The paper's §5 comparison of the three commit protocols is entirely about
//! *where time and messages go*: blocking windows (2PC), repetition cost
//! (commit-after redo), inverse-transaction cost (commit-before undo). The
//! run-level totals in `RunMetrics` cannot answer those questions, so this
//! crate provides the missing layer: every significant protocol transition
//! (vote, decide, force, redo, undo, inquiry, block-enter/exit, lock
//! wait/grant, message send/drop/deliver, crash/restart) emits a typed
//! [`Event`] into a per-run ring-buffered [`EventLog`].
//!
//! ## Determinism contract
//!
//! Events are stamped with the **virtual** [`SimTime`](amc_types::SimTime) of the discrete-event
//! driver (never the wall clock) plus a monotonically increasing sequence
//! number, so for a given nemesis seed the full event sequence is
//! bit-for-bit reproducible. Threaded (wall-clock) runtimes may reuse the
//! same sink; their events carry `SimTime::ZERO` and only the *order* and
//! *counts* are meaningful there.
//!
//! From the log one derives:
//!
//! * per-transaction timelines ([`EventLog::timeline`],
//!   [`EventLog::render_timeline`]) — the `explain` binary's backbone;
//! * [`DerivedStats`] histograms ([`EventLog::derive`]): commit latency,
//!   blocking-window length, redo/undo chain depth, messages per
//!   transaction — read by E5's crash tables and the `explain` binary.
//!
//! The [`ObsSink`] handle is a cheap-to-clone `Option<Arc<..>>`; a disabled
//! sink ([`ObsSink::disabled`]) costs one branch per emission site, so every
//! layer can carry one unconditionally.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod event;
pub mod hist;
pub mod log;
pub mod sink;

pub use event::{DropCause, Event, EventKind};
pub use hist::Histogram;
pub use log::{DerivedStats, EventLog};
pub use sink::ObsSink;
