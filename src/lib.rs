//! # amc — Atomic Commitment for Integrated Database Systems
//!
//! A from-scratch Rust reproduction of Muth & Rakow (ICDE 1991): commit
//! protocols for federations of *unmodifiable* existing database systems,
//! and their combination with multi-level transactions. See the README for
//! the architecture overview and `DESIGN.md` for the paper-to-module map.
//!
//! ## One-minute tour
//!
//! ```
//! use amc::core::{Federation, FederationConfig, ProtocolKind, TxnOutcome};
//! use amc::types::{ObjectId, Operation, SiteId, Value};
//! use std::collections::BTreeMap;
//!
//! // Two sealed local engines + a central coordinator running the paper's
//! // commit-before protocol (§3.3).
//! let fed = Federation::new(FederationConfig::uniform(2, ProtocolKind::CommitBefore));
//!
//! // Objects are partitioned across sites; load one account per site.
//! let acct = |site: u32| ObjectId::new(u64::from(site) << 32);
//! for s in 1..=2u32 {
//!     fed.load_site(SiteId::new(s), &[(acct(s), Value::counter(100))]).unwrap();
//! }
//!
//! // A global transfer, decomposed per site (§2).
//! let program = BTreeMap::from([
//!     (SiteId::new(1), vec![Operation::Increment { obj: acct(1), delta: -25 }]),
//!     (SiteId::new(2), vec![Operation::Increment { obj: acct(2), delta: 25 }]),
//! ]);
//! let report = fed.run_transaction(&program).unwrap();
//! assert_eq!(report.outcome, TxnOutcome::Committed);
//! // The §3.3 commit path: one submit + one vote per participant, no
//! // decision round.
//! assert_eq!(report.messages, 4);
//!
//! let dumps = fed.dumps().unwrap();
//! assert_eq!(dumps[&SiteId::new(1)][&acct(1)], Value::counter(75));
//! assert_eq!(dumps[&SiteId::new(2)][&acct(2)], Value::counter(125));
//! ```
//!
//! Deterministic simulation with failures (§3.2/§3.3 crash handling):
//!
//! ```
//! use amc::core::{FederationConfig, ProtocolKind, SimConfig, SimFederation};
//! use amc::sim::FaultPlan;
//! use amc::types::*;
//! use std::collections::BTreeMap;
//!
//! let mut cfg = SimConfig::new(FederationConfig::uniform(2, ProtocolKind::CommitBefore));
//! cfg.faults = FaultPlan::none().outage(
//!     SiteId::new(2),
//!     SimTime(100),
//!     SimDuration::from_millis(40),
//! );
//! let sim = SimFederation::new(cfg);
//! let fed = sim.federation();
//! let acct = |site: u32| ObjectId::new(u64::from(site) << 32);
//! for s in 1..=2u32 {
//!     fed.load_site(SiteId::new(s), &[(acct(s), Value::counter(100))]).unwrap();
//! }
//! let program = BTreeMap::from([
//!     (SiteId::new(1), vec![Operation::Increment { obj: acct(1), delta: -25 }]),
//!     (SiteId::new(2), vec![Operation::Increment { obj: acct(2), delta: 25 }]),
//! ]);
//! let report = sim.run(vec![(SimDuration::ZERO, program)]);
//! // The crash forced a global abort; atomicity held (nothing applied).
//! assert_eq!(report.outcomes[&GlobalTxnId::new(1)], GlobalVerdict::Abort);
//! assert!(report.unresolved.is_empty());
//! ```

#![forbid(unsafe_code)]

pub use amc_core as core;
pub use amc_engine as engine;
pub use amc_lock as lock;
pub use amc_mlt as mlt;
pub use amc_net as net;
pub use amc_obs as obs;
pub use amc_paxos as paxos;
pub use amc_rpc as rpc;
pub use amc_shard as shard;
pub use amc_sim as sim;
pub use amc_storage as storage;
pub use amc_types as types;
pub use amc_verify as verify;
pub use amc_wal as wal;
pub use amc_workload as workload;
