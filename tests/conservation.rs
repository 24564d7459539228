//! Invariant-preservation soak: balanced transfers under contention, with
//! intended aborts mixed in, across every protocol. The federation-wide
//! total is a conserved quantity; any double-apply, lost update, missed
//! undo or partial commit shows up as drift.

use amc::core::{Federation, FederationConfig, ProtocolKind};
use amc::net::marker::is_marker;
use amc::types::{Operation, SiteId};
use amc::workload::{MixGen, MixKind, MixSpec};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

fn spec() -> MixSpec {
    MixSpec {
        sites: 3,
        objects_per_site: 64,
        theta: 0.8, // hot accounts: force interleavings
        intended_abort_prob: 0.1,
        max_fanout: 2,
    }
}

fn total(fed: &Federation) -> i64 {
    fed.dumps()
        .unwrap()
        .values()
        .flat_map(|d| d.iter())
        .filter(|(o, _)| !is_marker(**o))
        .map(|(_, v)| v.counter)
        .sum()
}

#[test]
fn transfers_conserve_money_under_every_protocol() {
    let spec = spec();
    for protocol in ProtocolKind::ALL {
        let mut cfg = FederationConfig::uniform(spec.sites, protocol);
        cfg.tpl.lock_timeout = Duration::from_millis(100);
        cfg.l1_timeout = Duration::from_millis(300);
        let fed = Federation::new(cfg);
        for s in 1..=spec.sites {
            let site = SiteId::new(s);
            let data: Vec<_> = (0..spec.objects_per_site)
                .map(|i| {
                    (
                        amc::workload::object(site, i),
                        amc::types::Value::counter(1_000),
                    )
                })
                .collect();
            fed.load_site(site, &data).unwrap();
        }
        let fed = Arc::new(fed);
        let before = total(&fed);

        let mut gen = MixGen::new(MixKind::Transfer, spec.clone(), 0xC0);
        let programs: Vec<(BTreeMap<SiteId, Vec<Operation>>, bool)> = gen
            .programs(200)
            .into_iter()
            .map(|p| (p.per_site, p.intends_abort))
            .collect();
        let metrics = fed.run_concurrent(programs, 6);

        assert_eq!(
            total(&fed),
            before,
            "{protocol}: money drifted: {metrics:?}"
        );
        assert!(metrics.committed > 0, "{protocol}");
        assert!(
            metrics.aborted_intended > 0,
            "{protocol}: the abort path must have been exercised"
        );
        // Erroneous aborts are retried away by the driver; intended ones
        // must stay.
        assert_eq!(
            metrics.committed + metrics.aborted_intended + metrics.aborted_erroneous,
            200 + metrics.aborted_erroneous,
            "{protocol}: every program reached a final outcome"
        );
    }
}

#[test]
fn heterogeneous_conservation_under_portable_protocols() {
    let spec = spec();
    for protocol in [ProtocolKind::CommitAfter, ProtocolKind::CommitBefore] {
        let mut cfg = FederationConfig::heterogeneous(spec.sites, protocol);
        cfg.tpl.lock_timeout = Duration::from_millis(100);
        cfg.l1_timeout = Duration::from_millis(300);
        let fed = Federation::new(cfg);
        for s in 1..=spec.sites {
            let site = SiteId::new(s);
            let data: Vec<_> = (0..spec.objects_per_site)
                .map(|i| {
                    (
                        amc::workload::object(site, i),
                        amc::types::Value::counter(1_000),
                    )
                })
                .collect();
            fed.load_site(site, &data).unwrap();
        }
        let fed = Arc::new(fed);
        let before = total(&fed);
        let mut gen = MixGen::new(MixKind::Transfer, spec.clone(), 0xC1);
        let programs: Vec<(BTreeMap<SiteId, Vec<Operation>>, bool)> = gen
            .programs(150)
            .into_iter()
            .map(|p| (p.per_site, p.intends_abort))
            .collect();
        let metrics = fed.run_concurrent(programs, 6);
        assert_eq!(total(&fed), before, "{protocol}: {metrics:?}");
    }
}
