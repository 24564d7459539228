//! Regenerate the experiment tables of `EXPERIMENTS.md`.
//!
//! ```text
//! cargo run --release -p amc-bench --bin report            # everything
//! cargo run --release -p amc-bench --bin report -- e1 e4   # a subset
//! cargo run --release -p amc-bench --bin report -- quick   # reduced sizes
//! ```

use amc_bench::experiments::*;

/// Renders one experiment's section; `quick` picks the reduced sizes.
type Report = fn(quick: bool) -> String;

/// Every experiment, in report order, by its id on the command line.
const EXPERIMENTS: [(&str, Report); 14] = [
    ("e1", e1_concurrency::report),
    ("e2", e2_redo::report),
    ("e3", e3_abort_cost::report),
    ("e4", e4_complexity::report),
    ("e5", e5_crash::report),
    ("e6", e6_correctness::report),
    ("e7", e7_ablation::report),
    ("e9", e9_threaded::report),
    ("e10", e10_rpc::report),
    ("e11", e11_recovery::report),
    ("e12", e12_paxos::report),
    ("e13", e13_fastpath::report),
    ("e14", e14_shard::report),
    ("e15", e15_regime::report),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "quick");
    let all = args.iter().all(|a| a == "quick");

    println!("atomic commitment for integrated database systems — experiment report");
    println!("(reproduction of Muth & Rakow, ICDE 1991; shapes, not 1991 hardware numbers)");
    println!();
    for (id, report) in EXPERIMENTS {
        if all || args.iter().any(|a| a == id) {
            println!("{}", report(quick));
        }
    }
}
