//! # amc-paxos
//!
//! **Paxos Commit** (Gray & Lamport, *Consensus on Transaction Commit*,
//! 2006) for the central system: a non-blocking replacement for the
//! single-coordinator atomic commitment of the paper's Fig. 2. The
//! classical central system is a single point of blocking — a site that
//! voted *ready* holds its locks until the coordinator reawakens (the
//! paper's §3.2 window). Paxos Commit removes the window by making the
//! *decision* a replicated, majority-durable fact:
//!
//! * each participant site's vote is the value of one **Paxos instance**;
//!   the transaction commits iff every instance chooses *Prepared*;
//! * `2f + 1` **acceptors** ([`acceptor`]) durably log promises, accepts
//!   and decisions — as rows of the hosting site's write-ahead log,
//!   through its group committer — tolerating `f` simultaneous failures;
//! * acceptors are **co-located** with site servers ([`host`]), so a
//!   site's vote reply doubles as the ballot-0 accept for its own
//!   instance — the fault tolerance costs one extra message round only
//!   for the cross-replication of votes;
//! * any standby coordinator replica can finish an in-doubt transaction
//!   from the acceptor logs alone ([`driver`]), taking over ballot
//!   leadership from an incumbent that stopped making progress.
//!
//! The crate is sans-IO at its core (pure [`acceptor::AcceptorState`] and
//! [`leader`] decision logic) with one runtime adapter: the
//! [`host::AcceptorHost`] a site opens on its log and hands its
//! communication manager, whose one dispatch — in process and over TCP
//! alike — lets the acceptor answer first.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acceptor;
pub mod driver;
pub mod host;
pub mod leader;

pub use acceptor::AcceptorState;
pub use driver::ReplicaDriver;
pub use host::AcceptorHost;
pub use leader::{majority, CommitLedger};
