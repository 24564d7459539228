//! Regenerate the experiment tables of `EXPERIMENTS.md`.
//!
//! ```text
//! cargo run --release -p amc-bench --bin report             # everything
//! cargo run --release -p amc-bench --bin report -- e2 e15   # a subset
//! cargo run --release -p amc-bench --bin report -- quick    # reduced sizes
//! ```
//!
//! An id it does not know exits 2, naming it and the known ones.

use amc_bench::experiments::*;
use std::process::ExitCode;

/// Renders one experiment's section; `quick` picks the reduced sizes.
type Report = fn(quick: bool) -> String;

/// Every experiment, in report order, by its id on the command line.
const EXPERIMENTS: [(&str, Report); 11] = [
    ("e2", e2_redo::report),
    ("e4", e4_complexity::report),
    ("e5", e5_crash::report),
    ("e6", e6_correctness::report),
    ("e9", e9_threaded::report),
    ("e10", e10_rpc::report),
    ("e11", e11_recovery::report),
    ("e12", e12_paxos::report),
    ("e13", e13_fastpath::report),
    ("e14", e14_shard::report),
    ("e15", e15_regime::report),
];

/// What `args` ask for: whether `quick`, and the ids to run in report
/// order (every one when `args` name none); the first unknown id is the
/// error.
fn select(args: &[String]) -> Result<(bool, Vec<&'static str>), String> {
    let known = |a: &String| EXPERIMENTS.iter().any(|(id, _)| id == a);
    if let Some(bad) = args.iter().find(|a| *a != "quick" && !known(a)) {
        return Err(bad.clone());
    }
    let quick = args.iter().any(|a| a == "quick");
    let all = args.iter().all(|a| a == "quick");
    let ids = EXPERIMENTS.iter().map(|(id, _)| *id);
    let chosen = ids.filter(|id| all || args.iter().any(|a| a == id));
    Ok((quick, chosen.collect()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (quick, ids) = match select(&args) {
        Ok(selection) => selection,
        Err(bad) => {
            let known: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
            eprintln!(
                "report: unknown experiment `{bad}` (known: {}, and `quick`)",
                known.join(" ")
            );
            return ExitCode::from(2);
        }
    };

    println!("atomic commitment for integrated database systems — experiment report");
    println!("(reproduction of Muth & Rakow, ICDE 1991; shapes, not 1991 hardware numbers)");
    println!();
    for (id, report) in EXPERIMENTS {
        if ids.contains(&id) {
            println!("{}", report(quick));
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn arguments_select_experiments_in_report_order_and_reject_unknown_ids() {
        let every: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
        assert_eq!(select(&args(&[])), Ok((false, every.clone())));
        assert_eq!(select(&args(&["quick"])), Ok((true, every)));
        assert_eq!(
            select(&args(&["e15", "quick", "e2"])),
            Ok((true, vec!["e2", "e15"]))
        );
        assert_eq!(select(&args(&["e1"])), Err("e1".to_string()));
        assert_eq!(
            select(&args(&["e2", "e1x", "quick"])),
            Err("e1x".to_string())
        );
        assert_eq!(select(&args(&["e8"])), Err("e8".to_string()));
    }
}
