//! # amc-core
//!
//! The paper's contribution: the **global transaction manager** of the
//! integrated database system, with all three atomic commitment protocols
//! of Muth & Rakow (ICDE 1991):
//!
//! | protocol | local commit point | repair mechanism | §  |
//! |---|---|---|---|
//! | [`ProtocolKind::TwoPhaseCommit`] | *during* the decision (ready state) | none needed — but requires modified engines | 3.1 |
//! | [`ProtocolKind::CommitAfter`] | after the global decision | **redo** (repeat the local transaction) | 3.2 |
//! | [`ProtocolKind::CommitBefore`] | before the global decision | **undo** (inverse transactions, reusing the multi-level machinery) | 3.3 / 4 |
//!
//! The protocol logic lives in a **sans-IO state machine**
//! ([`coordinator::Coordinator`]): it consumes votes/acks and emits
//! send-message and decision actions, so the exact same code runs under
//!
//! * [`federation::Federation`] — the threaded runtime used for the
//!   throughput experiments (E1–E3, E7), and
//! * [`simdrive::SimFederation`] — the deterministic discrete-event runtime
//!   used for golden traces (F2–F5), crash experiments (E5) and message
//!   accounting (E4).
//!
//! Global concurrency control is the L1 lock manager from `amc-mlt`, held
//! strictly until global end — which is precisely how the serializability
//! requirements of §3.2 (no conflicting work between an erroneous abort and
//! its repetition) and §3.3 (no non-commuting work between a commit and its
//! inverse) are discharged.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod coordinator;
pub mod drive;
pub mod federation;
pub mod metrics;
pub mod simdrive;

pub use amc_types::ProtocolKind;
pub use config::{
    coord_slot_of, owner_slot_of, CoordIdentity, FederationConfig, PaxosCommitConfig,
    COORD_GTX_SPAN,
};
pub use coordinator::{CoordAction, CoordEvent, Coordinator};
pub use drive::{closed_loop, Program};
pub use federation::{submit_mode_for, Federation, TxnOutcome, TxnReport};
pub use metrics::RunMetrics;
pub use simdrive::{SimConfig, SimFederation, SimReport};
