//! # amc-net
//!
//! The communication layer of Fig. 1: a **star topology** in which every
//! existing database system is connected to the central system and local
//! systems never talk to each other. The crate provides
//!
//! * [`message`] — the protocol vocabulary (submit / vote / decision / redo
//!   / undo / finished envelopes);
//! * [`router`] — a deterministic simulated network: per-message latency
//!   from a seeded model, messages to a crashed site are dropped, and the
//!   star invariant is enforced on every send;
//! * [`comm`] — the **local communication manager** of §2: the component
//!   "on top of" each unmodifiable engine that listens for global calls and
//!   implements the redo (§3.2) and undo (§3.3) mechanics, including the
//!   commit-propagation markers that make both idempotent across crashes
//!   (experiment E8);
//! * [`marker`] — reserved object ids used as durable commit markers and
//!   before-image rows (the paper's "redo-log ... written into the existing
//!   database by the local transaction, e.g. as an additional relation"):
//!   the manager keeps no log of its own;
//! * [`transport`] — the [`FederationTransport`] abstraction over *how* a
//!   coordinator message reaches a site: in-process function calls (the
//!   historical runtime, with mutable site membership for `amc-shard`'s
//!   online add/remove/replace reconfiguration) or real TCP sockets
//!   (`amc-rpc`); and the one dispatch into a site, where its co-located
//!   Paxos Commit acceptor, if any, answers first.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod comm;
pub mod marker;
pub mod message;
pub mod router;
pub mod transport;

pub use comm::{CommStats, EngineHandle, LocalCommManager, RecoveryStats, SubmitMode};
pub use message::{Envelope, Payload};
pub use router::{NetStats, Router, RouterConfig};
pub use transport::{
    AdminReply, AdminRequest, CoLocatedAcceptor, FederationTransport, InProcessTransport,
    PaxosOpenEntry,
};
