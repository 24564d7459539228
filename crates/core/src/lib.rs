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
//! **One central system, two pumps.** The protocol logic is a sans-IO
//! state machine ([`coordinator::Coordinator`]), and so is the central
//! system around it: [`federation::Federation`]'s one `Central` owns ids,
//! L1 lock table, decision log and parked coordinators, and `begin → Txn
//! → step → end` is the only code that constructs, feeds, logs for, parks
//! or resumes a coordinator. Two pumps move its messages:
//!
//! * the **blocking pump** ([`Federation::run_transaction`]) — one OS
//!   thread per transaction over a transport: the throughput experiments
//!   (E2, E9, E10, E15) and the TCP deployments;
//! * the **discrete-event pump** ([`simdrive::SimFederation`]) — seeded
//!   router, virtual clock, fault plan: golden traces (F2–F5), crash
//!   experiments (E5), message accounting (E4), the nemesis sweeps.
//!
//! Global concurrency control is the L1 lock manager from `amc-mlt`,
//! taken before any local work and held strictly until global end — which
//! is how the serializability requirements of §3.2 (no conflicting work
//! between an erroneous abort and its repetition) and §3.3 (no
//! non-commuting work between a commit and its inverse) are discharged.
//! 2PC has no L1 layer: 2PL at L0, sites asked in ascending order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod central;
pub mod config;
pub mod coordinator;
pub mod drive;
pub mod federation;
pub mod metrics;
pub mod simdrive;
pub mod site;

pub use amc_types::ProtocolKind;
pub use config::{
    coord_slot_of, owner_slot_of, CoordIdentity, FederationConfig, PaxosCommitConfig,
};
pub use coordinator::{CoordAction, CoordEvent, Coordinator};
pub use drive::{closed_loop, Program};
pub use federation::{submit_mode_for, Federation, TxnOutcome, TxnReport};
pub use metrics::RunMetrics;
pub use simdrive::{SimConfig, SimFederation, SimReport};
