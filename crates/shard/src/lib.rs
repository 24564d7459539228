//! # amc-shard
//!
//! Sharded multi-coordinator scale-out for the integrated database
//! system, with **online site reconfiguration**.
//!
//! The paper's architecture (Fig. 1) funnels every global transaction
//! through one central system — the hard ceiling on federation-wide
//! throughput. Following the shape of multi-shot / reconfigurable atomic
//! commit (Chockler & Gotsman; Bravo — see PAPERS.md), this crate
//! partitions *commit responsibility* instead of data:
//!
//! * [`map`] — the versioned [`ShardMap`]: an epoch-stamped topology
//!   snapshot giving (a) the deterministic transaction→coordinator
//!   ownership rule (hash of the minimum key touched, so cross-shard
//!   transactions have exactly one owner) and (b) the nominal→actual
//!   site relocation table maintained by reconfigurations;
//! * [`router`] — the [`ShardRouter`]: N independent [`Federation`]
//!   coordinators (disjoint transaction-id ranges) over one shared
//!   mutable-membership fleet, an admission gate that drains in-flight
//!   transactions around a reconfiguration, live data migration in atomic
//!   batches, and the epoch bump committed through the ordinary commit
//!   machinery.
//!
//! [`Federation`]: amc_core::Federation

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod map;
pub mod router;

pub use map::{ShardMap, SiteChange};
pub use router::{CoordCounters, ReconfigReport, ShardRouter};
