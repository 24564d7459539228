//! Inventory / order processing across four warehouse databases, using the
//! tpcc-lite `NewOrder` mix: orders *reserve* stock (self-commuting at L1,
//! bound-checked at L0), bump district totals by *increments*, write an
//! order record, and a fraction of orders fail their own checks and are
//! rolled back federation-wide.
//!
//! Prints a per-protocol comparison plus the audit that makes escrow worth
//! having: stock can never go negative, no matter how hot the contention.
//!
//! ```text
//! cargo run --release --example inventory_orders
//! ```

use amc::core::{Federation, FederationConfig, ProtocolKind};
use amc::mlt::ConflictPolicy;
use amc::net::marker::is_marker;
use amc::types::SiteId;
use amc::workload::{MixGen, MixKind, MixSpec};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let spec = MixSpec {
        sites: 4,
        objects_per_site: 400,
        theta: 0.8,
        intended_abort_prob: 0.05,
        max_fanout: 2,
    };
    let orders = 250;
    let threads = 6;

    println!(
        "inventory federation: {} warehouses, {} NewOrder-shaped orders ({}% intended aborts), {} threads",
        spec.sites,
        orders,
        (spec.intended_abort_prob * 100.0) as u32,
        threads
    );
    println!("{:-<78}", "");

    for protocol in ProtocolKind::ALL {
        let mut cfg = FederationConfig::uniform(spec.sites, protocol);
        cfg.policy = ConflictPolicy::Semantic;
        cfg.message_delay = Duration::from_micros(300);
        cfg.tpl.lock_timeout = Duration::from_millis(100);
        cfg.l1_timeout = Duration::from_millis(500);
        let fed = Federation::new(cfg);
        for s in 1..=spec.sites {
            let site = SiteId::new(s);
            fed.load_site(site, &spec.initial_data(site)).expect("load");
        }
        let fed = Arc::new(fed);

        let programs = MixGen::new(MixKind::TpccLite, spec.clone(), 77)
            .programs(orders)
            .into_iter()
            .map(|p| (p.per_site, p.intends_abort))
            .collect();
        let metrics = fed.run_concurrent(programs, threads);

        // The audit: no stock counter anywhere may be negative.
        let min_stock = fed
            .dumps()
            .expect("dumps")
            .values()
            .flat_map(|d| d.iter())
            .filter(|(o, _)| !is_marker(**o))
            .map(|(_, v)| v.counter)
            .min()
            .unwrap_or(0);
        assert!(
            min_stock >= 0,
            "{protocol}: oversold! min stock {min_stock}"
        );

        println!(
            "{:<14} {:>7.0} orders/s  {:>4} filled  {:>3} rejected  undo-restocks {:>3}  min stock {:>3}",
            protocol.label(),
            metrics.throughput().unwrap_or(0.0),
            metrics.committed,
            metrics.aborted_intended,
            metrics.undo_runs,
            min_stock,
        );
    }

    println!("{:-<78}", "");
    println!("no warehouse ever oversold; rejected orders were restocked by");
    println!("inverse transactions (commit-before) or never committed at all.");
}
