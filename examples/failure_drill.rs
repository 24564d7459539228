//! Failure drill: crash a participant mid-protocol on the deterministic
//! simulator and watch each protocol recover — the §3.2/§3.3 failure
//! machinery in action, with full message transcripts. Part two hands the
//! wheel to the nemesis: a seeded composed fault schedule (crashes with
//! torn WAL tails, directed partitions, loss bursts) against a batch of
//! transfers.
//!
//! ```text
//! cargo run --example failure_drill
//! ```

use amc::core::{FederationConfig, ProtocolKind, SimConfig, SimFederation};
use amc::sim::{generate_faults, FaultPlan, NemesisConfig};
use amc::types::{GlobalTxnId, ObjectId, Operation, SimDuration, SimTime, SiteId, Value};
use std::collections::BTreeMap;

fn obj(site: u32, i: u64) -> ObjectId {
    ObjectId::new(u64::from(site) * (1 << 32) + i)
}

fn main() {
    println!("failure drill: site 2 crashes 1.2 ms into the protocol, restarts 40 ms later");
    println!("{:=<76}", "");

    for protocol in ProtocolKind::ALL {
        let mut cfg = SimConfig::new(FederationConfig::uniform(2, protocol));
        cfg.faults =
            FaultPlan::none().outage(SiteId::new(2), SimTime(1_200), SimDuration::from_millis(40));
        let fed = SimFederation::new(cfg);
        let federation = fed.federation();
        for s in 1..=2u32 {
            federation
                .load_site(SiteId::new(s), &[(obj(s, 0), Value::counter(100))])
                .unwrap();
        }

        let program = BTreeMap::from([
            (
                SiteId::new(1),
                vec![Operation::Increment {
                    obj: obj(1, 0),
                    delta: -30,
                }],
            ),
            (
                SiteId::new(2),
                vec![Operation::Increment {
                    obj: obj(2, 0),
                    delta: 30,
                }],
            ),
        ]);
        let report = fed.run(vec![(SimDuration::ZERO, program)]);

        let gtx = GlobalTxnId::new(1);
        println!();
        println!("--- {} ---", protocol.label());
        println!(
            "verdict: {:?}   resolved after {:.1} ms (virtual)   {} retransmissions",
            report.outcomes.get(&gtx),
            report
                .resolution
                .get(&gtx)
                .map_or(f64::NAN, |d| d.micros() as f64 / 1e3),
            report.retransmissions,
        );
        let dumps = federation.dumps().unwrap();
        let v1 = dumps[&SiteId::new(1)][&obj(1, 0)].counter;
        let v2 = dumps[&SiteId::new(2)][&obj(2, 0)].counter;
        println!(
            "final balances: site1={v1} site2={v2} (atomic: {})",
            (v1, v2) == (70, 130) || (v1, v2) == (100, 100)
        );
        println!("transcript:");
        for line in report.events.render_timeline(gtx).lines() {
            println!("  {line}");
        }
        assert!(
            (v1, v2) == (70, 130) || (v1, v2) == (100, 100),
            "{protocol}: atomicity violated"
        );
    }

    println!();
    println!("{:=<76}", "");
    println!("all three protocols resolved the crash atomically; note how");
    println!("commit-before either finished before the crash or aborted and");
    println!("undid the surviving site with an inverse transaction (§3.3).");

    nemesis_drill(7);
}

/// Part two: let the nemesis compose the faults. Same seed, same schedule,
/// same run — change the seed to explore other weather.
fn nemesis_drill(seed: u64) {
    println!();
    println!("nemesis drill: seeded composed fault schedule (seed {seed})");
    println!("{:=<76}", "");

    // Compress the fault window onto the workload (5 transfers over
    // ~100 ms) so the schedule lands mid-protocol instead of after it.
    let cfg = NemesisConfig {
        fault_horizon: SimTime(200_000),
        min_hold: SimDuration::from_millis(5),
        max_hold: SimDuration::from_millis(30),
        ..NemesisConfig::default()
    };
    let plan = generate_faults(&cfg, seed);
    println!("schedule ({} events):", plan.len());
    for ev in plan.events() {
        println!("  t={:>9} {} {:?}", ev.at.0, ev.site, ev.kind);
    }

    for protocol in ProtocolKind::ALL {
        let mut cfg = SimConfig::new(FederationConfig::uniform(2, protocol));
        cfg.seed = seed;
        cfg.faults = plan.clone();
        cfg.retransmit_every = SimDuration::from_millis(5);
        cfg.horizon = SimDuration::from_millis(30_000);
        let fed = SimFederation::new(cfg);
        let federation = fed.federation();
        for s in 1..=2u32 {
            let data: Vec<(ObjectId, Value)> =
                (0..10).map(|i| (obj(s, i), Value::counter(100))).collect();
            federation.load_site(SiteId::new(s), &data).unwrap();
        }
        let programs = (0..10u64)
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
        let total: i64 = (1..=2u32)
            .flat_map(|s| (0..10).map(move |i| (s, i)))
            .map(|(s, i)| dumps[&SiteId::new(s)][&obj(s, i)].counter)
            .sum();
        let committed = report
            .outcomes
            .values()
            .filter(|v| **v == amc::types::GlobalVerdict::Commit)
            .count();
        println!();
        println!("--- {} ---", protocol.label());
        println!(
            "outcomes: {committed} committed, {} aborted, {} unresolved",
            report.outcomes.len() - committed,
            report.unresolved.len(),
        );
        let net = report.net;
        println!(
            "network: {} sent, {} dropped ({} by partitions), {} duplicated, {} retransmissions",
            net.sent, net.dropped, net.partitioned_drops, net.duplicated, report.retransmissions,
        );
        println!(
            "conservation: total balance {total} (expected 2000) — {}",
            if total == 2000 { "ok" } else { "VIOLATED" }
        );
        assert_eq!(total, 2000, "{protocol}: conservation violated");
        assert!(report.unresolved.is_empty(), "{protocol}: unresolved");
    }

    println!();
    println!("{:=<76}", "");
    println!("whatever the schedule threw at the protocols, atomicity and");
    println!("conservation held. rerun with another seed by editing");
    println!("nemesis_drill(7) — every schedule is reproducible from its seed.");
}
