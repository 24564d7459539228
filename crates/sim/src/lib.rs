//! # amc-sim
//!
//! A small deterministic discrete-event simulation kernel. The protocol
//! experiments need three things a wall clock cannot give:
//!
//! 1. **Reproducible traces** — Figs. 2/4/6 are reproduced as golden
//!    message/state traces; those must not depend on thread scheduling.
//! 2. **Precise failure injection** — E5 crashes the coordinator *between*
//!    two specific protocol messages; only a virtual clock can express that.
//! 3. **Virtual-time metrics** — lock hold times and time-to-resolution in
//!    logical microseconds, immune to host noise.
//!
//! The kernel is intentionally generic: [`EventQueue`] orders opaque events
//! by `(time, sequence)`; the driver in `amc-core` owns the world state and
//! the event enum. [`SimRng`] wraps a seeded PRNG with the distributions the
//! workloads need.
//!
//! [`nemesis`] holds the fault schedules: composed
//! crash/partition/loss-burst/torn-tail [`FaultPlan`]s — hand-written for
//! E5, seeded for chaos runs — a generator, and a shrinker that minimizes
//! oracle-violating schedules.
//! [`reconfig`] generates seeded **online-reconfiguration** schedules for
//! the sharded router — topology changes at transaction-count offsets,
//! optionally coupled with a site kill timed to land inside the data
//! migration they trigger.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod nemesis;
pub mod queue;
pub mod reconfig;
pub mod rng;

pub use nemesis::{
    generate as generate_faults, shrink as shrink_faults, FaultEvent, FaultKind, FaultPlan,
    LinkDir, NemesisConfig, TornTail,
};
pub use queue::EventQueue;
pub use reconfig::{generate_reconfig, ReconfigConfig, ReconfigEvent, ReconfigPlan, ReconfigStep};
pub use rng::{LatencyModel, SimRng};
