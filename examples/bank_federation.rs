//! Bank federation: the paper's sweet spot — commuting transfers across
//! heterogeneous institutions, run concurrently under all three protocols
//! to show the concurrency gap and verify money conservation.
//!
//! One of the banks runs an *optimistic* engine, so classical 2PC cannot be
//! deployed at all (§3.1): the example runs 2PC on a homogeneous federation
//! for comparison and the portable protocols on the heterogeneous one.
//!
//! ```text
//! cargo run --release --example bank_federation
//! ```

use amc::core::{Federation, FederationConfig, ProtocolKind};
use amc::types::SiteId;
use amc::workload::{MixGen, MixKind, MixSpec};
use std::sync::Arc;
use std::time::Duration;

fn total_balance(fed: &Federation) -> i64 {
    fed.dumps()
        .expect("dumps")
        .values()
        .flat_map(|d| d.iter())
        .filter(|(o, _)| !amc::net::marker::is_marker(**o))
        .map(|(_, v)| v.counter)
        .sum()
}

fn main() {
    // Balanced transfers between accounts at different banks, so the
    // federation-wide total is invariant; 2% of them fail their own logic
    // (a read of a non-existent account) — the intended-abort path.
    let spec = MixSpec {
        sites: 3,
        objects_per_site: 500,
        theta: 0.6,
        intended_abort_prob: 0.02,
        max_fanout: 2,
    };
    let transfers = 300;
    let threads = 6;

    println!(
        "bank federation: {} sites, {} transfers, {} worker threads",
        spec.sites, transfers, threads
    );
    println!("{:-<72}", "");

    for protocol in ProtocolKind::ALL {
        // 2PC demands modified (preparable) engines everywhere; the
        // portable protocols run on the heterogeneous mix with an OCC bank.
        let mut cfg = if protocol == ProtocolKind::TwoPhaseCommit {
            FederationConfig::uniform(spec.sites, protocol)
        } else {
            FederationConfig::heterogeneous(spec.sites, protocol)
        };
        cfg.message_delay = Duration::from_micros(300); // 1991-scale RTT
        let fed = Federation::new(cfg);
        for s in 1..=spec.sites {
            let site = SiteId::new(s);
            fed.load_site(site, &spec.initial_data(site)).expect("load");
        }
        let fed = Arc::new(fed);

        let initial_total = total_balance(&fed);
        let programs = MixGen::new(MixKind::Transfer, spec.clone(), 2024)
            .programs(transfers)
            .into_iter()
            .map(|p| (p.per_site, p.intends_abort))
            .collect();
        let metrics = fed.run_concurrent(programs, threads);
        let engines: String = (1..=spec.sites)
            .map(|s| {
                fed.manager(SiteId::new(s))
                    .unwrap()
                    .handle()
                    .engine()
                    .kind()
            })
            .collect::<Vec<_>>()
            .join("/");

        println!(
            "{:<14} engines {:<12} {:>7.0} txn/s  {:>4} commits  {:>3} intended aborts  L0 hold {:>6.2} ms",
            protocol.label(),
            engines,
            metrics.throughput().unwrap_or(0.0),
            metrics.committed,
            metrics.aborted_intended,
            metrics.mean_l0_hold_ms().unwrap_or(0.0),
        );

        // Transfers are pure increments: the total must be conserved even
        // across aborted-and-undone transactions.
        assert_eq!(
            total_balance(&fed),
            initial_total,
            "{protocol}: money leaked"
        );
    }

    println!("{:-<72}", "");
    println!("money conserved under every protocol; commit-before shows the");
    println!("shortest L0 lock tenure and the highest throughput (§4.3).");
}
