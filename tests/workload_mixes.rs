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
use amc::rpc::{Fleet, Wire};
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
    let fleet = Fleet::spawn(
        cfg.build_managers(),
        amc::core::submit_mode_for(protocol),
        Wire::ThreadedPooled,
        Duration::ZERO,
    )
    .expect("bind loopback");
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
