//! The contention-aware workload engine, end to end: per-seed determinism
//! fingerprints for every mix, Zipf skew shape, and the hot-key /
//! tpcc-lite mixes run through both runtimes — the in-process DES-style
//! federation and real loopback TCP site servers — with the conservation
//! and escrow oracles replayed over the final state.
//!
//! The determinism contract under test (DESIGN.md §14): a generator is a
//! pure function of `(kind, spec, seed)`, so the *same* program stream
//! drives every runtime, and the cross-runtime comparison in OPERATORS.md
//! compares protocols, never workloads.

use amc::core::{Federation, FederationConfig, ProtocolKind};
use amc::mlt::ConflictPolicy;
use amc::net::marker::is_marker;
use amc::obs::ObsSink;
use amc::rpc::{Fleet, RetryPolicy, Wire};
use amc::sim::SimRng;
use amc::types::{Operation, SiteId};
use amc::workload::{fingerprint, MixGen, MixKind, MixSpec};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// A small, hot spec shared by the runtime tests.
fn hot_spec() -> MixSpec {
    MixSpec {
        sites: 3,
        objects_per_site: 32,
        theta: 1.0,
        intended_abort_prob: 0.0,
        max_fanout: 3,
    }
}

fn counter_sum(fed: &Federation) -> i64 {
    fed.dumps()
        .unwrap()
        .values()
        .flat_map(|d| d.iter())
        .filter(|(o, _)| !is_marker(**o))
        .map(|(_, v)| v.counter)
        .sum()
}

fn min_counter(fed: &Federation) -> i64 {
    fed.dumps()
        .unwrap()
        .values()
        .flat_map(|d| d.iter())
        .filter(|(o, _)| !is_marker(**o))
        .map(|(_, v)| v.counter)
        .min()
        .unwrap()
}

/// Every generator is a pure function of `(kind, spec, seed)`: two fresh
/// generators replay bit-identical streams, every seed produces a
/// distinct one, and streams survive being split into two draws.
#[test]
fn per_seed_streams_replay_bit_for_bit() {
    for kind in MixKind::ALL {
        let fps: Vec<u64> = (0..4)
            .map(|seed| fingerprint(&MixGen::new(kind, MixSpec::default(), seed).programs(80)))
            .collect();
        for seed in 0..4u64 {
            let again = fingerprint(&MixGen::new(kind, MixSpec::default(), seed).programs(80));
            assert_eq!(fps[seed as usize], again, "{kind:?} seed {seed} diverged");
        }
        for a in 0..4 {
            for b in (a + 1)..4 {
                assert_ne!(fps[a], fps[b], "{kind:?} seeds {a}/{b} collide");
            }
        }
        // Incremental draws see the same stream as one batch.
        let mut g = MixGen::new(kind, MixSpec::default(), 1);
        let mut split = g.programs(30);
        split.extend(g.programs(50));
        assert_eq!(
            fingerprint(&split),
            fps[1],
            "{kind:?} stream changes when drawn incrementally"
        );
    }
}

/// The pinned streams: 80 programs at seed 1 of every mix at
/// `MixSpec::default()`, in `MixKind::ALL` order. A change here means a
/// generator (or `shims/rand`) changed, and every seeded table with it.
const DEFAULT_FPS: [u64; 5] = [
    1_948_384_987_638_769_724,
    2_022_136_165_935_819_636,
    6_054_866_725_118_833_264,
    6_898_216_339_537_571_213,
    2_811_921_162_700_743_144,
];

/// perfbench's three streams, 80 programs at seed 1: `Transfer` over 3
/// uniform sites at 1 024 and 65 536 objects, and `HotKey` over 8 hot
/// keys at θ 1.2 with 20 % intended aborts.
const PERFBENCH_FPS: [u64; 3] = [
    14_117_339_266_792_492_385,
    14_490_779_730_262_961_781,
    14_890_542_178_251_538_235,
];

#[test]
fn every_stream_is_pinned() {
    let fp = |kind, spec| fingerprint(&MixGen::new(kind, spec, 1).programs(80));
    let defaults = MixKind::ALL.map(|kind| fp(kind, MixSpec::default()));
    let transfer = |objects_per_site| MixSpec {
        sites: 3,
        objects_per_site,
        theta: 0.0,
        intended_abort_prob: 0.0,
        max_fanout: 2,
    };
    let hot = MixSpec {
        sites: 3,
        objects_per_site: 8,
        theta: 1.2,
        intended_abort_prob: 0.2,
        max_fanout: 2,
    };
    let perfbench = [
        fp(MixKind::Transfer, transfer(1_024)),
        fp(MixKind::Transfer, transfer(65_536)),
        fp(MixKind::HotKey, hot),
    ];
    assert_eq!(defaults, DEFAULT_FPS, "a default stream moved");
    assert_eq!(perfbench, PERFBENCH_FPS, "a perfbench stream moved");
}

/// The spec shapes the stream: changing theta changes every mix's
/// fingerprint (key choice flows through the Zipf generator everywhere).
#[test]
fn theta_is_part_of_the_stream_identity() {
    for kind in MixKind::ALL {
        let cold = MixSpec {
            theta: 0.0,
            ..MixSpec::default()
        };
        let hot = MixSpec {
            theta: 1.2,
            ..MixSpec::default()
        };
        assert_ne!(
            fingerprint(&MixGen::new(kind, cold, 5).programs(60)),
            fingerprint(&MixGen::new(kind, hot, 5).programs(60)),
            "{kind:?} ignores theta"
        );
    }
}

/// The skew dial every mix draws its keys from (`SimRng::zipf`) works: the
/// hottest key's frequency is monotone in theta, from ~uniform at 0 to
/// heavily skewed at 1.2.
#[test]
fn zipf_top1_frequency_is_monotone_in_theta() {
    let n = 64u64;
    let draws = 20_000usize;
    let mut last = 0.0f64;
    for theta in [0.0, 0.6, 0.9, 1.2] {
        let mut counts = BTreeMap::new();
        let mut rng = SimRng::new(99);
        for _ in 0..draws {
            *counts.entry(rng.zipf(n, theta)).or_insert(0u64) += 1;
        }
        let top1 = *counts.values().max().unwrap() as f64 / draws as f64;
        assert!(
            top1 >= last,
            "top-1 frequency fell from {last:.4} to {top1:.4} at theta={theta}"
        );
        last = top1;
    }
    // The end points bracket the expected shapes: uniform-ish vs hot.
    assert!(last > 0.15, "theta=1.2 is not hot: top-1 {last:.4}");
}

/// The hot-key commuting-counter mix conserves the federation-wide sum
/// with MLT semantic locking enabled, under contention, on the in-process
/// runtime — aborted or retried legs roll back exactly.
#[test]
fn hotkey_mix_conserves_sum_with_mlt_enabled() {
    let spec = hot_spec();
    let mut cfg = FederationConfig::uniform(spec.sites, ProtocolKind::CommitBefore);
    cfg.policy = ConflictPolicy::Semantic;
    cfg.tpl.lock_timeout = Duration::from_millis(100);
    cfg.l1_timeout = Duration::from_millis(300);
    let fed = Federation::new(cfg);
    for s in 1..=spec.sites {
        let site = SiteId::new(s);
        fed.load_site(site, &spec.initial_data(site)).unwrap();
    }
    let fed = Arc::new(fed);
    let batch: Vec<(BTreeMap<SiteId, Vec<Operation>>, bool)> =
        MixGen::new(MixKind::HotKey, spec.clone(), 0xD0)
            .programs(300)
            .into_iter()
            .map(|p| (p.per_site, p.intends_abort))
            .collect();
    let m = fed.run_concurrent(batch, 6);
    assert!(m.committed > 0, "nothing committed");
    let _ = fed.resolve_pending();
    assert_eq!(counter_sum(&fed), spec.initial_sum(), "sum drifted");
}

/// 120 programs of `kind` over `spec` from `seed`, offered by 4 clients
/// to a freshly loaded in-process federation built from `cfg`.
fn run_scenario(
    cfg: FederationConfig,
    kind: MixKind,
    spec: &MixSpec,
    seed: u64,
) -> Arc<Federation> {
    let mut cfg = cfg;
    cfg.tpl.lock_timeout = Duration::from_millis(100);
    cfg.l1_timeout = Duration::from_millis(500);
    let fed = Federation::new(cfg);
    for s in 1..=spec.sites {
        let site = SiteId::new(s);
        fed.load_site(site, &spec.initial_data(site)).unwrap();
    }
    let fed = Arc::new(fed);
    let batch = MixGen::new(kind, spec.clone(), seed)
        .programs(120)
        .into_iter()
        .map(|p| (p.per_site, p.intends_abort))
        .collect();
    let m = fed.run_concurrent(batch, 4);
    assert!(m.committed > 0, "{kind:?}: nothing committed");
    assert!(m.aborted_intended > 0, "{kind:?}: no program aborted");
    fed
}

/// `examples/bank_federation.rs` in tier-1: transfers over 3 banks of 500
/// accounts (θ 0.6, 2% intended aborts) conserve the money under every
/// protocol — 2PC on 2PL engines, the portable protocols with an OCC bank.
#[test]
fn bank_transfers_conserve_money_under_every_protocol() {
    let bank = MixSpec {
        sites: 3,
        objects_per_site: 500,
        theta: 0.6,
        intended_abort_prob: 0.02,
        max_fanout: 2,
    };
    for protocol in ProtocolKind::ALL {
        let cfg = if protocol == ProtocolKind::TwoPhaseCommit {
            FederationConfig::uniform(bank.sites, protocol)
        } else {
            FederationConfig::heterogeneous(bank.sites, protocol)
        };
        let fed = run_scenario(cfg, MixKind::Transfer, &bank, 2024);
        assert_eq!(
            counter_sum(&fed),
            bank.initial_sum(),
            "{protocol}: money leaked"
        );
    }
}

/// `examples/inventory_orders.rs` in tier-1: tpcc-lite orders over 4
/// warehouses of 400 items (θ 0.8, 5% intended aborts) never oversell
/// under any protocol.
#[test]
fn inventory_orders_never_oversell_under_every_protocol() {
    let inventory = MixSpec {
        sites: 4,
        objects_per_site: 400,
        theta: 0.8,
        intended_abort_prob: 0.05,
        max_fanout: 2,
    };
    for protocol in ProtocolKind::ALL {
        let mut cfg = FederationConfig::uniform(inventory.sites, protocol);
        cfg.policy = ConflictPolicy::Semantic;
        let fed = run_scenario(cfg, MixKind::TpccLite, &inventory, 77);
        let floor = min_counter(&fed);
        assert!(floor >= 0, "{protocol}: oversold, min stock {floor}");
    }
}

/// A loaded federation over a loopback TCP [`Fleet`] (thread-per-
/// connection site servers, pooled client), plus the fleet keeping its
/// servers alive.
fn tcp_federation(
    protocol: ProtocolKind,
    policy: ConflictPolicy,
    spec: &MixSpec,
) -> (Arc<Federation>, Fleet) {
    let mut cfg = FederationConfig::uniform(spec.sites, protocol);
    cfg.policy = policy;
    cfg.l1_timeout = Duration::from_millis(500);
    cfg.tpl.lock_timeout = Duration::from_millis(100);
    cfg.tpl.deadlock_check = Duration::from_millis(1);
    let (policy, obs) = (RetryPolicy::default(), ObsSink::disabled());
    let fleet = Fleet::spawn(&cfg, Wire::ThreadedPooled, policy, obs).expect("bind loopback");
    let fed = Arc::new(Federation::with_transport(cfg, fleet.transport()));
    for s in 1..=spec.sites {
        let site = SiteId::new(s);
        fed.load_site(site, &spec.initial_data(site)).unwrap();
    }
    (fed, fleet)
}

/// The same seeded hot-key stream the in-process test replays, over real
/// loopback TCP: the stream fingerprints match (one generator, two
/// runtimes) and the conservation oracle holds across the wire too.
#[test]
fn tcp_runtime_replays_the_same_stream_and_conserves() {
    let spec = hot_spec();
    let programs = MixGen::new(MixKind::HotKey, spec.clone(), 0xD0).programs(150);
    let des_fp = fingerprint(&MixGen::new(MixKind::HotKey, spec.clone(), 0xD0).programs(150));
    assert_eq!(
        fingerprint(&programs),
        des_fp,
        "runtimes fed different streams"
    );

    let (fed, _fleet) = tcp_federation(ProtocolKind::CommitBefore, ConflictPolicy::Semantic, &spec);
    let batch = programs
        .into_iter()
        .map(|p| (p.per_site, p.intends_abort))
        .collect();
    let m = fed.run_concurrent(batch, 4);
    assert!(m.committed > 0, "nothing committed over TCP");
    let _ = fed.resolve_pending();
    assert_eq!(
        counter_sum(&fed),
        spec.initial_sum(),
        "sum drifted over TCP"
    );
}

/// The tpcc-lite escrow reserves travel the wire: stock counters are
/// depleted by `Reserve` frames over real TCP, and the escrow bound holds
/// — no counter ever goes negative, even with a tiny hot stock set under
/// heavy skew where reserves start failing.
#[test]
fn tpcc_lite_escrow_bound_holds_over_tcp() {
    let spec = MixSpec {
        sites: 2,
        objects_per_site: 8,
        theta: 1.2,
        intended_abort_prob: 0.0,
        max_fanout: 2,
    };
    let (fed, _fleet) = tcp_federation(
        ProtocolKind::TwoPhaseCommit,
        ConflictPolicy::Semantic,
        &spec,
    );
    let batch: Vec<(BTreeMap<SiteId, Vec<Operation>>, bool)> =
        MixGen::new(MixKind::TpccLite, spec.clone(), 0xE5)
            .programs(200)
            .into_iter()
            .map(|p| (p.per_site, p.intends_abort))
            .collect();
    let m = fed.run_concurrent(batch, 4);
    assert!(m.committed > 0, "no NewOrder committed over TCP");
    let floor = min_counter(&fed);
    assert!(floor >= 0, "escrow bound violated: counter at {floor}");
}
