//! # amc-workload
//!
//! Synthetic workloads exercising the federation the way the paper's
//! motivating scenarios would: global transactions decomposed into per-site
//! local programs, with tunable contention (Zipf skew over a hot set),
//! operation mix (commuting increments vs. non-commuting writes), fan-out
//! (sites per transaction) and an intended-abort rate realised *through
//! transaction logic* (a read of a non-existent object), so intended aborts
//! travel the same code path real ones would.
//!
//! Three named scenarios mirror the integration use-cases of §1:
//!
//! * **bank** — money transfers between accounts at different institutions
//!   (pure increments: the MLT sweet spot);
//! * **inventory** — order placement: stock decrements plus order-record
//!   inserts (mixed commutativity);
//! * **travel** — trip booking across airline/hotel/car databases
//!   (read-check-then-write: the conservative end).
//!
//! On top of the scenario generators sits the **contention-aware workload
//! engine** ([`mixes`]): seeded Zipfian keys (`amc_sim::SimRng::zipf`)
//! feeding production-shaped mixes — balanced transfers, a generic skewed
//! mix, hot-key commuting counters, a TPC-C-style `NewOrder` profile with
//! escrow reserves, and read-heavy scans with short writers. The same
//! streams drive the DES path, the threaded runtime, and `amc-loadgen`
//! over TCP (determinism contract: DESIGN.md §14; regime map:
//! OPERATORS.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generator;
pub mod mixes;
pub mod program;
pub mod scenario;

pub use generator::{OpMix, WorkloadGen, WorkloadSpec};
pub use mixes::{fingerprint, MixGen, MixKind, MixSpec};
pub use program::{
    initial_counters, object, site_of_object, transfer, GlobalProgram, INITIAL_PER_OBJECT,
};
pub use scenario::Scenario;
