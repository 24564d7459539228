//! The bodies of the four deployment binaries. The root package declares
//! the `[[bin]]`s as thin wrappers over these `main`s, so cargo builds
//! them for the root integration tests (`CARGO_BIN_EXE_*`) and tier-1
//! exercises the same code the deployed processes run.

pub mod coord_server;
pub mod loadgen;
pub mod paxos_coord;
pub mod site_server;
