//! The nemesis chaos harness: seeded composed fault schedules (crashes with
//! torn WAL tails, directed link partitions, loss bursts) swept across many
//! seeds and all three protocols, with the full oracle deciding whether
//! atomicity survived — plus the shrinker demo: an intentionally broken
//! coordinator (decision-log force skipped) is caught by the sweep and its
//! violating schedule minimized to a handful of events.

use amc::core::{FederationConfig, ProtocolKind, SimConfig, SimFederation, SimReport};
use amc::sim::{generate_faults, shrink_faults, FaultPlan, LinkDir, NemesisConfig};
use amc::types::{GlobalTxnId, GlobalVerdict, ObjectId, Operation, SimDuration, SiteId, Value};
use amc::verify::{check_atomicity, check_state_equivalence};
use std::collections::BTreeMap;

const OBJS: u64 = 5;
const PER_OBJ: i64 = 100;

fn obj(site: u32, i: u64) -> ObjectId {
    ObjectId::new(u64::from(site) * (1 << 32) + i)
}

type Program = BTreeMap<SiteId, Vec<Operation>>;

fn increment(site: u32, i: u64, delta: i64) -> (SiteId, Vec<Operation>) {
    let obj = obj(site, i);
    (SiteId::new(site), vec![Operation::Increment { obj, delta }])
}

/// Five staggered transfers over disjoint object pairs (the discrete-event
/// driver is single-threaded; programs must not conflict at L0).
fn programs() -> Vec<(SimDuration, Program)> {
    (0..OBJS)
        .map(|i| {
            (
                SimDuration::from_millis(i * 20),
                BTreeMap::from([increment(1, i, -10), increment(2, i, 10)]),
            )
        })
        .collect()
}

/// The same stagger and objects, but every other program touches a single
/// site (alternating between the two): under the fast path those take the
/// solo route — local commit at the vote, no global round.
fn solo_programs() -> Vec<(SimDuration, Program)> {
    let mut programs = programs();
    for (i, (_, program)) in programs.iter_mut().enumerate().step_by(2) {
        let site = 1 + (i as u32 / 2) % 2;
        *program = BTreeMap::from([increment(site, i as u64, 7)]);
    }
    programs
}

fn run_chaos(
    protocol: ProtocolKind,
    faults: FaultPlan,
    seed: u64,
    skip_decision_log: bool,
) -> (SimReport, BTreeMap<SiteId, BTreeMap<ObjectId, Value>>) {
    run_chaos_lane(protocol, false, programs(), faults, seed, skip_decision_log)
}

/// Like [`run_chaos`], with the 1PC fast path (vote piggyback) optionally
/// enabled — the extra sweep lane proving a piggybacked prepare survives
/// the same fault schedules a classic one does.
fn run_chaos_lane(
    protocol: ProtocolKind,
    fast_path: bool,
    programs: Vec<(SimDuration, Program)>,
    faults: FaultPlan,
    seed: u64,
    skip_decision_log: bool,
) -> (SimReport, BTreeMap<SiteId, BTreeMap<ObjectId, Value>>) {
    let mut fed_cfg = FederationConfig::uniform(2, protocol);
    if fast_path {
        fed_cfg = fed_cfg.with_fast_path();
    }
    let mut cfg = SimConfig::new(fed_cfg);
    cfg.seed = seed;
    cfg.faults = faults;
    cfg.unsafe_skip_decision_log = skip_decision_log;
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
    let report = fed.run(programs);
    let dumps = federation.dumps().unwrap();
    (report, dumps)
}

/// The full oracle. Empty return = the run was correct.
///
/// * every transaction resolved by the horizon;
/// * per-transaction exactly-once: committed → every leg applied once,
///   aborted → none;
/// * conservation: the total balance moves by exactly the committed
///   programs' net (zero for transfers);
/// * marker audit ([`check_atomicity`]) for the two portable protocols
///   (2PC leaves no markers);
/// * final-state equivalence against a serial replay of the committed
///   transactions.
fn oracle(
    protocol: ProtocolKind,
    report: &SimReport,
    dumps: &BTreeMap<SiteId, BTreeMap<ObjectId, Value>>,
    label: &str,
) -> Vec<String> {
    let leaves_markers = |_: &Program| protocol != ProtocolKind::TwoPhaseCommit;
    oracle_for(&programs(), leaves_markers, report, dumps, label)
}

/// [`oracle`] over any set of single-increment-per-site programs on
/// disjoint objects; `leaves_markers` says which of them ran through the
/// marker-writing (portable-protocol) machinery at their sites.
fn oracle_for(
    programs: &[(SimDuration, Program)],
    leaves_markers: impl Fn(&Program) -> bool,
    report: &SimReport,
    dumps: &BTreeMap<SiteId, BTreeMap<ObjectId, Value>>,
    label: &str,
) -> Vec<String> {
    let mut violations = Vec::new();
    let mut expected_total = 2 * OBJS as i64 * PER_OBJ;
    let mut participants: BTreeMap<GlobalTxnId, Vec<SiteId>> = BTreeMap::new();
    let mut all_programs: BTreeMap<GlobalTxnId, Vec<Operation>> = BTreeMap::new();
    for (i, (_, program)) in programs.iter().enumerate() {
        let gtx = GlobalTxnId::new(i as u64 + 1);
        let outcome = report.outcomes.get(&gtx);
        if outcome.is_none() {
            violations.push(format!("{label}: {gtx} unresolved at horizon"));
        }
        for (site, ops) in program {
            for op in ops {
                let Operation::Increment { obj, delta } = *op else {
                    panic!("chaos programs are increments: {op:?}");
                };
                let applied = dumps[site][&obj].counter - PER_OBJ;
                match outcome {
                    Some(GlobalVerdict::Commit) if applied != delta => violations.push(format!(
                        "{label}: {gtx} committed but {site} shows {applied:+}, not {delta:+}"
                    )),
                    Some(GlobalVerdict::Abort) if applied != 0 => violations.push(format!(
                        "{label}: {gtx} aborted but {site} shows {applied:+}"
                    )),
                    _ => {}
                }
                if outcome == Some(&GlobalVerdict::Commit) {
                    expected_total += delta;
                }
            }
        }
        if leaves_markers(program) {
            participants.insert(gtx, program.keys().copied().collect());
        }
        all_programs.insert(gtx, program.values().flatten().copied().collect());
    }
    let user_objects =
        || (1..=2u32).flat_map(|s| (0..OBJS).map(move |i| (SiteId::new(s), obj(s, i))));
    let total: i64 = user_objects().map(|(s, o)| dumps[&s][&o].counter).sum();
    if total != expected_total {
        violations.push(format!(
            "{label}: conservation broken, total {total} (expected {expected_total})"
        ));
    }
    for v in check_atomicity(dumps, &report.outcomes, &participants) {
        violations.push(format!("{label}: {v:?}"));
    }
    // Serial replay: the programs are disjoint, so ascending gtx order is a
    // valid serialization of whatever interleaving actually happened.
    let initial: BTreeMap<ObjectId, Value> = user_objects()
        .map(|(_, o)| (o, Value::counter(PER_OBJ)))
        .collect();
    let committed: Vec<GlobalTxnId> = report
        .outcomes
        .iter()
        .filter(|(_, v)| **v == GlobalVerdict::Commit)
        .map(|(g, _)| *g)
        .collect();
    let actual: BTreeMap<ObjectId, Value> = dumps
        .values()
        .flat_map(|d| d.iter().map(|(o, v)| (*o, *v)))
        .collect();
    for d in check_state_equivalence(&initial, &committed, &all_programs, &actual) {
        violations.push(format!("{label}: {d:?}"));
    }
    violations
}

/// The headline sweep: ≥200 generated schedules × 3 protocols, composed
/// crash/torn-tail/partition/loss-burst faults, zero oracle violations.
#[test]
fn chaos_sweep_is_violation_free_across_200_seeds() {
    let nemesis = NemesisConfig::default();
    for protocol in ProtocolKind::ALL {
        for seed in 0..200u64 {
            let plan = generate_faults(&nemesis, seed);
            let (report, dumps) = run_chaos(protocol, plan.clone(), seed, false);
            let label = format!("{protocol} seed {seed} ({} fault events)", plan.len());
            let violations = oracle(protocol, &report, &dumps, &label);
            assert!(
                violations.is_empty(),
                "{violations:?}\nplan: {:?}\nerrors: {:?}",
                plan.events(),
                report.errors
            );
        }
    }
}

/// The fast-path lane of the sweep: same generated schedules, 2PC with the
/// vote piggyback on. A site that crashes after applying the piggybacked op
/// holds a durable prepare exactly like a classic one, so the oracle must
/// stay silent across the whole fault zoo.
#[test]
fn fast_path_chaos_sweep_is_violation_free() {
    let nemesis = NemesisConfig::default();
    let protocol = ProtocolKind::TwoPhaseCommit;
    for seed in 0..150u64 {
        let plan = generate_faults(&nemesis, seed);
        let (report, dumps) = run_chaos_lane(protocol, true, programs(), plan.clone(), seed, false);
        let label = format!("2pc+fast-path seed {seed} ({} fault events)", plan.len());
        let violations = oracle(protocol, &report, &dumps, &label);
        assert!(
            violations.is_empty(),
            "{violations:?}\nplan: {:?}\nerrors: {:?}",
            plan.events(),
            report.errors
        );
    }
}

/// The solo lane of the fast-path sweep: every other program touches one
/// site and takes the single-site route — the coordinator of one that the
/// threaded runtime's solo transactions also run. A lost reply, a site
/// crash between local commit and vote, a central crash before the vote is
/// logged: each must end with the increment applied exactly once or not
/// at all, the markers agreeing with the verdict, and the same seed giving
/// the same run.
#[test]
fn fast_path_solo_chaos_sweep_is_violation_free() {
    let nemesis = NemesisConfig::default();
    let protocol = ProtocolKind::TwoPhaseCommit;
    let run = |seed: u64| {
        let plan = generate_faults(&nemesis, seed);
        let (report, dumps) =
            run_chaos_lane(protocol, true, solo_programs(), plan.clone(), seed, false);
        (plan, report, dumps)
    };
    let mut solo_commits = 0usize;
    let mut solo_aborts = 0usize;
    for seed in 0..150u64 {
        let (plan, report, dumps) = run(seed);
        let label = format!(
            "2pc+fast-path solo seed {seed} ({} fault events)",
            plan.len()
        );
        // Solo transactions commit through the site's commit-before
        // machinery, markers included; the two-site ones stay plain 2PC.
        let violations = oracle_for(
            &solo_programs(),
            |program| program.len() == 1,
            &report,
            &dumps,
            &label,
        );
        assert!(
            violations.is_empty(),
            "{violations:?}\nplan: {:?}\nerrors: {:?}",
            plan.events(),
            report.errors
        );
        for gtx in (1..=OBJS).step_by(2).map(GlobalTxnId::new) {
            match report.outcomes[&gtx] {
                GlobalVerdict::Commit => solo_commits += 1,
                GlobalVerdict::Abort => solo_aborts += 1,
            }
        }
        if seed < 20 {
            let (_, again, dumps_again) = run(seed);
            assert_eq!(
                (
                    report.outcomes,
                    report.net,
                    report.end_time,
                    report.events.render(),
                    dumps
                ),
                (
                    again.outcomes,
                    again.net,
                    again.end_time,
                    again.events.render(),
                    dumps_again
                ),
                "{label}: not reproducible"
            );
        }
    }
    // The sweep reached both ends of the solo path.
    assert!(
        solo_commits > 0 && solo_aborts > 0,
        "{solo_commits} / {solo_aborts}"
    );
}

/// Programs that *conflict* at L1, the layer the nemesis could not reach
/// while the simulator had its own coordinator plumbing: every other one
/// overwrites the same hot object at each site (writes do not commute)
/// besides moving money, the rest are plain transfers; they start 3 ms
/// apart, so the writers overlap and serialise at the central system.
fn contending_programs() -> Vec<(SimDuration, Program)> {
    (0..8u64)
        .map(|k| {
            let (from, to) = (obj(1, 1 + k), obj(2, 1 + k));
            let mut program = BTreeMap::from([
                (
                    SiteId::new(1),
                    vec![Operation::Increment {
                        obj: from,
                        delta: -10,
                    }],
                ),
                (
                    SiteId::new(2),
                    vec![Operation::Increment { obj: to, delta: 10 }],
                ),
            ]);
            if k % 2 == 0 {
                for (site, ops) in program.iter_mut() {
                    let value = Value::counter(1_000 * i64::from(site.raw()) + k as i64);
                    ops.insert(
                        0,
                        Operation::Write {
                            obj: obj(site.raw(), 0),
                            value,
                        },
                    );
                }
            }
            (SimDuration::from_millis(3 * k), program)
        })
        .collect()
}

/// The L1 lane of the sweep. Commit-after and commit-before (2PC has no L1
/// layer), contending programs, site crashes / directed partitions / loss
/// bursts / central crash + restart concentrated where the workload runs.
/// The oracle: every transaction resolves; marker audit; the transfers
/// conserve money; the recorded history is conflict-serializable and a
/// serial replay in that order reproduces the final state; and when all is
/// over the L1 table of the central system is consistent and **empty** —
/// no crash, restart, rejection or re-offer leaked a lock.
#[test]
fn l1_contention_chaos_sweep() {
    use amc::verify::history::ConflictDefinition;
    let nemesis = NemesisConfig {
        fault_horizon: amc::types::SimTime(150_000),
        min_hold: SimDuration::from_millis(5),
        max_hold: SimDuration::from_millis(30),
        ..NemesisConfig::default()
    };
    let programs = contending_programs();
    let objects = || (1..=2u32).flat_map(|s| (0..=8).map(move |i| obj(s, i)));
    let initial: BTreeMap<ObjectId, Value> =
        objects().map(|o| (o, Value::counter(PER_OBJ))).collect();
    let by_gtx = |i: usize| GlobalTxnId::new(i as u64 + 1);
    let all_programs: BTreeMap<GlobalTxnId, Vec<Operation>> = (programs.iter().enumerate())
        .map(|(i, (_, p))| (by_gtx(i), p.values().flatten().copied().collect()))
        .collect();
    let participants: BTreeMap<GlobalTxnId, Vec<SiteId>> = (programs.iter().enumerate())
        .map(|(i, (_, p))| (by_gtx(i), p.keys().copied().collect()))
        .collect();
    let (mut rejected, mut recovered) = (0u64, 0u64);
    for protocol in [ProtocolKind::CommitAfter, ProtocolKind::CommitBefore] {
        for seed in 0..200u64 {
            let plan = generate_faults(&nemesis, seed);
            let mut cfg = SimConfig::new(FederationConfig::uniform(2, protocol));
            cfg.seed = seed;
            cfg.faults = plan.clone();
            cfg.retransmit_every = SimDuration::from_millis(5);
            cfg.horizon = SimDuration::from_millis(30_000);
            let sim = SimFederation::new(cfg);
            let fed = sim.federation();
            for s in 1..=2u32 {
                let data: Vec<(ObjectId, Value)> = (0..=8)
                    .map(|i| (obj(s, i), Value::counter(PER_OBJ)))
                    .collect();
                fed.load_site(SiteId::new(s), &data).unwrap();
            }
            let report = sim.run(programs.clone());
            let dumps = fed.dumps().unwrap();

            let label = format!("{protocol} seed {seed}");
            let context = || {
                format!(
                    "{label}\nplan: {:?}\nerrors: {:?}",
                    plan.events(),
                    report.errors
                )
            };
            assert!(
                report.unresolved.is_empty(),
                "{:?} unresolved: {}",
                report.unresolved,
                context()
            );
            let audit = check_atomicity(&dumps, &report.outcomes, &participants);
            assert!(audit.is_empty(), "{audit:?}: {}", context());
            let actual: BTreeMap<ObjectId, Value> = dumps
                .values()
                .flat_map(|d| d.iter().map(|(o, v)| (*o, *v)))
                .collect();
            let money: i64 = objects()
                .filter(|o| o.raw() % (1 << 32) != 0)
                .map(|o| actual[&o].counter)
                .sum();
            assert_eq!(money, 2 * 8 * PER_OBJ, "conservation: {}", context());
            let order = fed
                .history()
                .check_serializable(ConflictDefinition::Commutativity)
                .unwrap_or_else(|e| panic!("{e}: {}", context()));
            let committed: Vec<GlobalTxnId> = (order.into_iter())
                .filter(|g| report.outcomes.get(g) == Some(&GlobalVerdict::Commit))
                .collect();
            let replay = check_state_equivalence(&initial, &committed, &all_programs, &actual);
            assert!(replay.is_empty(), "{replay:?}: {}", context());
            let n_committed = report
                .outcomes
                .values()
                .filter(|v| **v == GlobalVerdict::Commit)
                .count();
            assert_eq!(
                committed.len(),
                n_committed,
                "history and report disagree: {}",
                context()
            );

            fed.l1()
                .unwrap()
                .check_invariants()
                .unwrap_or_else(|e| panic!("{e}: {}", context()));
            assert_eq!(
                fed.l1().unwrap().granted_count(),
                0,
                "leaked L1 locks: {}",
                context()
            );
            rejected += fed.l1_stats().waits;
            recovered += report
                .events
                .events()
                .filter(|e| e.kind.label() == "resume")
                .count() as u64;
        }
    }
    // The sweep reached what it is for: starts turned away at L1, and
    // transactions rebuilt (locks retaken) after a central restart.
    assert!(
        rejected > 0 && recovered > 0,
        "{rejected} rejections / {recovered} recoveries"
    );
}

/// Determinism contract: re-running a seed reproduces the run bit-for-bit
/// (outcomes, full message trace, network accounting, end time) — in every
/// protocol and in every fast-path configuration.
#[test]
fn chaos_runs_reproduce_per_seed() {
    let nemesis = NemesisConfig::default();
    let mut lanes: Vec<(ProtocolKind, bool)> =
        ProtocolKind::ALL.iter().map(|p| (*p, false)).collect();
    lanes.push((ProtocolKind::TwoPhaseCommit, true));
    for (protocol, fast_path) in lanes {
        for seed in 0..20u64 {
            let run = || {
                let plan = generate_faults(&nemesis, seed);
                let (report, dumps) =
                    run_chaos_lane(protocol, fast_path, programs(), plan, seed, false);
                (
                    report.outcomes,
                    report.net,
                    report.retransmissions,
                    report.end_time,
                    report.events.render(),
                    dumps,
                )
            };
            assert_eq!(
                run(),
                run(),
                "{protocol} (fast_path={fast_path}) seed {seed} not reproducible"
            );
        }
    }
}

/// The targeted fast-path lane from the issue: site 2 applies the
/// piggybacked op (op + prepare forced in one batch at ~0.7 ms) but its
/// READY vote is severed by a `ToCentral` partition, and the site then
/// crashes before the coordinator ever hears from it. After restart the
/// resurrected durable prepare must answer the coordinator's classic
/// `Prepare` re-inquiry and the transfer must land exactly once.
#[test]
fn fast_path_crash_between_apply_and_vote_ack_recovers_the_piggybacked_prepare() {
    let faults = FaultPlan::none()
        .partition(SiteId::new(2), amc::types::SimTime(100), LinkDir::ToCentral)
        .crash(SiteId::new(2), amc::types::SimTime(2_000))
        .heal(SiteId::new(2), amc::types::SimTime(11_000))
        .restart(SiteId::new(2), amc::types::SimTime(12_000));
    let (report, dumps) = run_chaos_lane(
        ProtocolKind::TwoPhaseCommit,
        true,
        programs(),
        faults,
        11,
        false,
    );
    let label = "2pc+fast-path vote-lost crash";
    let violations = oracle(ProtocolKind::TwoPhaseCommit, &report, &dumps, label);
    assert!(
        violations.is_empty(),
        "{violations:?}\nerrors: {:?}",
        report.errors
    );
    assert_eq!(
        report.outcomes.get(&GlobalTxnId::new(1)),
        Some(&GlobalVerdict::Commit),
        "{label}: the piggybacked prepare must survive the crash and commit"
    );
    assert_eq!(dumps[&SiteId::new(1)][&obj(1, 0)].counter, 90, "{label}");
    assert_eq!(dumps[&SiteId::new(2)][&obj(2, 0)].counter, 110, "{label}");
    // The remaining transfers run against the recovered site and must all
    // resolve as commits too — recovery leaves no wedged manager state.
    for i in 2..=OBJS {
        assert_eq!(
            report.outcomes.get(&GlobalTxnId::new(i)),
            Some(&GlobalVerdict::Commit),
            "{label}: G{i} after recovery"
        );
    }
}

/// E8 extension: a crash that tears the WAL tail mid-force must not touch
/// transactions committed before it, and the repaired site must finish the
/// rest of the workload normally.
#[test]
fn torn_tail_crash_preserves_earlier_commits() {
    for protocol in ProtocolKind::ALL {
        // Transaction 1 (t = 0) is long done by 20 ms; the torn crash hits
        // site 2 just after transaction 2's submit (t = 20 ms) executed —
        // its Begin/Update records sit in the volatile tail, so the crash
        // persists one and tears the next. The site is back up at 50 ms
        // and the remaining transfers run against the recovered site.
        let faults = FaultPlan::none()
            .crash_torn(SiteId::new(2), amc::types::SimTime(20_800), 1)
            .restart(SiteId::new(2), amc::types::SimTime(50_000));
        let (report, dumps) = run_chaos(protocol, faults, 3, false);
        let label = format!("{protocol} torn-tail");
        let violations = oracle(protocol, &report, &dumps, &label);
        assert!(violations.is_empty(), "{violations:?}");
        assert_eq!(
            report.outcomes.get(&GlobalTxnId::new(1)),
            Some(&GlobalVerdict::Commit),
            "{label}: the pre-crash transfer must stay committed"
        );
        assert_eq!(dumps[&SiteId::new(1)][&obj(1, 0)].counter, 90, "{label}");
        assert_eq!(dumps[&SiteId::new(2)][&obj(2, 0)].counter, 110, "{label}");
    }
}

/// The shrinker demo. With the decision-log force deliberately skipped
/// (`unsafe_skip_decision_log`), a central crash inside a decision window
/// makes the restarted coordinator presume abort for a commit other sites
/// already applied — an atomicity violation. The sweep finds a violating
/// seed, and the shrinker minimizes its schedule to at most five events
/// (the minimal witness is a central crash + restart pair).
#[test]
fn broken_decision_log_is_caught_and_shrunk() {
    // Concentrate faults where the workload actually runs so the search
    // finds a witness quickly; the decision windows are ~1–2 ms wide.
    let nemesis = NemesisConfig {
        fault_horizon: amc::types::SimTime(150_000),
        min_hold: SimDuration::from_millis(5),
        max_hold: SimDuration::from_millis(30),
        ..NemesisConfig::default()
    };
    let protocol = ProtocolKind::CommitAfter;
    let violates = |plan: &FaultPlan, seed: u64| {
        let (report, dumps) = run_chaos(protocol, plan.clone(), seed, true);
        !oracle(protocol, &report, &dumps, "shrink-probe").is_empty()
    };

    let mut witness = None;
    for seed in 0..500u64 {
        let plan = generate_faults(&nemesis, seed);
        if plan.is_empty() {
            continue;
        }
        if violates(&plan, seed) {
            witness = Some((seed, plan));
            break;
        }
    }
    let (seed, plan) = witness.expect("no violating seed in 0..500 — the knob lost its teeth");

    // Sanity: with the decision log intact the very same schedule is fine —
    // the harness flags the injected bug, not a false positive.
    let (report, dumps) = run_chaos(protocol, plan.clone(), seed, false);
    assert!(
        oracle(protocol, &report, &dumps, "knob-off").is_empty(),
        "schedule violates even with the decision log intact"
    );

    let shrunk = shrink_faults(&plan, |p| violates(p, seed));
    shrunk.validate().expect("shrunk plan must stay valid");
    assert!(violates(&shrunk, seed), "shrunk plan must still reproduce");
    assert!(
        shrunk.len() <= 5,
        "expected ≤5 events after shrinking, got {} from {}: {:?}",
        shrunk.len(),
        plan.len(),
        shrunk.events()
    );
}
