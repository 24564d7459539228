//! One module per experiment in `EXPERIMENTS.md`.

pub mod e10_rpc;
pub mod e11_recovery;
pub mod e12_paxos;
pub mod e13_fastpath;
pub mod e14_shard;
pub mod e15_regime;
pub mod e2_redo;
pub mod e4_complexity;
pub mod e5_crash;
pub mod e6_correctness;
pub mod e9_threaded;
