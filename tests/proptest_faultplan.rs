//! Property tests over the nemesis: any schedule the seeded generator calls
//! valid must leave the bank workload conservation-safe under every
//! protocol, and the shrinker must never manufacture an invalid plan.

use amc::core::{FederationConfig, ProtocolKind, SimConfig, SimFederation};
use amc::sim::{generate_faults, shrink_faults, FaultPlan, NemesisConfig};
use amc::types::{ObjectId, Operation, SimDuration, SiteId, Value};
use proptest::prelude::*;
use std::collections::BTreeMap;

const OBJS: u64 = 5;
const PER_OBJ: i64 = 100;

fn arb_protocol() -> impl Strategy<Value = ProtocolKind> {
    prop_oneof![
        Just(ProtocolKind::TwoPhaseCommit),
        Just(ProtocolKind::CommitAfter),
        Just(ProtocolKind::CommitBefore),
    ]
}

fn obj(site: u32, i: u64) -> ObjectId {
    ObjectId::new(u64::from(site) * (1 << 32) + i)
}

/// Run the disjoint-transfer bank workload under `plan`; return the final
/// total balance and how many transactions were still unresolved.
fn run_bank(protocol: ProtocolKind, plan: FaultPlan, seed: u64) -> (i64, usize) {
    let mut cfg = SimConfig::new(FederationConfig::uniform(2, protocol));
    cfg.seed = seed;
    cfg.faults = plan;
    cfg.retransmit_every = SimDuration::from_millis(5);
    cfg.horizon = SimDuration::from_millis(30_000);
    let fed = SimFederation::new(cfg);
    let federation = fed.federation();
    for s in 1..=2u32 {
        let data: Vec<(ObjectId, Value)> = (0..OBJS)
            .map(|i| (obj(s, i), Value::counter(PER_OBJ)))
            .collect();
        federation.load_site(SiteId::new(s), &data).unwrap();
    }
    let programs = (0..OBJS)
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
    let total = (1..=2u32)
        .flat_map(|s| (0..OBJS).map(move |i| (s, i)))
        .map(|(s, i)| dumps[&SiteId::new(s)][&obj(s, i)].counter)
        .sum();
    (total, report.unresolved.len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Conservation under chaos: whatever composed schedule the generator
    /// emits, money is neither created nor destroyed, and every transfer
    /// resolves once the faults are over.
    #[test]
    fn generated_plans_preserve_bank_conservation(
        protocol in arb_protocol(),
        seed in any::<u64>(),
    ) {
        let plan = generate_faults(&NemesisConfig::default(), seed);
        prop_assert!(plan.validate().is_ok(), "seed {}: {:?}", seed, plan.events());
        let (total, unresolved) = run_bank(protocol, plan.clone(), seed);
        prop_assert_eq!(
            total,
            2 * OBJS as i64 * PER_OBJ,
            "{} seed {}: conservation broken by {:?}",
            protocol, seed, plan.events()
        );
        prop_assert_eq!(
            unresolved, 0,
            "{} seed {}: unresolved transfers under {:?}",
            protocol, seed, plan.events()
        );
    }

    /// Every prefix of a generated plan is itself a valid schedule — the
    /// property the shrinker's prefix pass relies on.
    #[test]
    fn generated_plan_prefixes_stay_valid(seed in any::<u64>()) {
        let plan = generate_faults(&NemesisConfig::default(), seed);
        for n in 0..=plan.len() {
            prop_assert!(plan.truncated(n).validate().is_ok(), "prefix {} of seed {}", n, seed);
        }
    }

    /// The shrinker only ever returns valid plans, no matter how arbitrary
    /// (even non-monotone) the reproduction predicate is.
    #[test]
    fn shrinker_output_is_always_valid(seed in any::<u64>(), mask in any::<u64>()) {
        let plan = generate_faults(&NemesisConfig::default(), seed);
        let pred = |p: &FaultPlan| (mask >> (p.len() % 64)) & 1 == 1;
        let shrunk = shrink_faults(&plan, pred);
        prop_assert!(shrunk.validate().is_ok(), "seed {} mask {:#x}", seed, mask);
    }
}
