//! The protocols under an adversarial network: loss AND duplication
//! (at-least-once delivery) with retransmitting coordinators. Atomicity
//! and exactly-once effects must survive; this is what the durable commit
//! markers and presumed-abort tombstones exist for.

use amc::core::{FederationConfig, ProtocolKind, SimConfig, SimFederation};
use amc::sim::FaultPlan;
use amc::types::{
    GlobalTxnId, GlobalVerdict, ObjectId, Operation, SimDuration, SimTime, SiteId, Value,
};
use std::collections::BTreeMap;

fn obj(site: u32, i: u64) -> ObjectId {
    ObjectId::new(u64::from(site) * (1 << 32) + i)
}

fn run_with(
    protocol: ProtocolKind,
    loss: f64,
    duplication: f64,
    seed: u64,
    failures: FaultPlan,
) -> (
    amc::core::SimReport,
    BTreeMap<SiteId, BTreeMap<ObjectId, Value>>,
) {
    let mut cfg = SimConfig::new(FederationConfig::uniform(2, protocol));
    cfg.router.loss_probability = loss;
    cfg.router.duplicate_probability = duplication;
    cfg.seed = seed;
    cfg.faults = failures;
    cfg.retransmit_every = SimDuration::from_millis(5);
    cfg.horizon = SimDuration::from_millis(30_000);
    let fed = SimFederation::new(cfg);
    let federation = fed.federation();
    for s in 1..=2u32 {
        let data: Vec<(ObjectId, Value)> =
            (0..5).map(|i| (obj(s, i), Value::counter(100))).collect();
        federation.load_site(SiteId::new(s), &data).unwrap();
    }
    // Disjoint objects per transaction: the discrete-event driver is
    // single-threaded, so programs must not conflict at L0 (see the
    // simdrive module docs); contention belongs to the threaded driver.
    let programs = (0..5u64)
        .map(|i| {
            (
                SimDuration::from_millis(i * 20),
                BTreeMap::from([
                    (
                        SiteId::new(1),
                        vec![Operation::Increment {
                            obj: obj(1, i),
                            delta: -10,
                        }],
                    ),
                    (
                        SiteId::new(2),
                        vec![Operation::Increment {
                            obj: obj(2, i),
                            delta: 10,
                        }],
                    ),
                ]),
            )
        })
        .collect();
    let report = fed.run(programs);
    let dumps = federation.dumps().unwrap();
    (report, dumps)
}

fn check_exactly_once(
    report: &amc::core::SimReport,
    dumps: &BTreeMap<SiteId, BTreeMap<ObjectId, Value>>,
    label: &str,
) {
    for i in 0..5u64 {
        let gtx = GlobalTxnId::new(i + 1);
        let committed = report.outcomes.get(&gtx) == Some(&GlobalVerdict::Commit);
        let expect = if committed { (90, 110) } else { (100, 100) };
        let v1 = dumps[&SiteId::new(1)][&obj(1, i)].counter;
        let v2 = dumps[&SiteId::new(2)][&obj(2, i)].counter;
        assert_eq!(
            (v1, v2),
            expect,
            "{label}: {gtx} (committed={committed}) must apply exactly once"
        );
    }
}

#[test]
fn duplication_alone_is_harmless() {
    for protocol in ProtocolKind::ALL {
        for seed in [1, 2, 3] {
            let (report, dumps) = run_with(protocol, 0.0, 0.5, seed, FaultPlan::none());
            assert!(
                report.unresolved.is_empty(),
                "{protocol} seed {seed}: {:?}",
                report.unresolved
            );
            assert!(
                report.errors.is_empty(),
                "{protocol} seed {seed}: {:?}",
                report.errors
            );
            check_exactly_once(&report, &dumps, &format!("{protocol} seed {seed}"));
        }
    }
}

#[test]
fn loss_plus_duplication_with_retransmission_still_exactly_once() {
    for protocol in ProtocolKind::ALL {
        for seed in [7, 8] {
            let (report, dumps) = run_with(protocol, 0.15, 0.3, seed, FaultPlan::none());
            assert!(
                report.unresolved.is_empty(),
                "{protocol} seed {seed}: unresolved {:?} (retransmission should recover)",
                report.unresolved
            );
            check_exactly_once(&report, &dumps, &format!("{protocol} seed {seed}"));
            assert!(
                report.retransmissions > 0 || report.net.dropped == 0,
                "{protocol} seed {seed}: losses need retransmissions"
            );
        }
    }
}

#[test]
fn crash_plus_lossy_duplicating_network() {
    for protocol in ProtocolKind::ALL {
        let failures = FaultPlan::none().outage(
            SiteId::new(2),
            SimTime(30_000),
            SimDuration::from_millis(50),
        );
        let (report, dumps) = run_with(protocol, 0.1, 0.2, 42, failures);
        assert!(
            report.unresolved.is_empty(),
            "{protocol}: unresolved {:?}",
            report.unresolved
        );
        check_exactly_once(&report, &dumps, &protocol.to_string());
    }
}
