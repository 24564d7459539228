//! Central-system (coordinator) crashes — the [Ske 81] side of the story.
//!
//! The central system is itself a database system (the paper implements it
//! in VODAK), so its global decisions are forced to its own log before any
//! decision message leaves. After a central restart:
//!
//! * **decided + logged** transactions resume their finish rounds and
//!   re-drive the participants (idempotently);
//! * **undecided** transactions are *presumed aborted*: commit-before
//!   inquires each participant for its final state and undoes the ones
//!   that had committed, the decision-holding protocols ship the abort.

use amc::core::{FederationConfig, ProtocolKind, SimConfig, SimFederation};
use amc::obs::{Event, EventKind};
use amc::sim::FaultPlan;
use amc::types::{
    GlobalTxnId, GlobalVerdict, ObjectId, Operation, SimDuration, SimTime, SiteId, Value,
};
use std::collections::BTreeMap;

fn obj(site: u32, i: u64) -> ObjectId {
    ObjectId::new(u64::from(site) * (1 << 32) + i)
}

fn transfer(i: u64) -> BTreeMap<SiteId, Vec<Operation>> {
    BTreeMap::from([
        (
            SiteId::new(1),
            vec![Operation::Increment {
                obj: obj(1, i),
                delta: -30,
            }],
        ),
        (
            SiteId::new(2),
            vec![Operation::Increment {
                obj: obj(2, i),
                delta: 30,
            }],
        ),
    ])
}

fn run(
    protocol: ProtocolKind,
    crash_at_us: u64,
    outage_ms: u64,
) -> (
    amc::core::SimReport,
    BTreeMap<SiteId, BTreeMap<ObjectId, Value>>,
) {
    let mut cfg = SimConfig::new(FederationConfig::uniform(2, protocol));
    cfg.faults = FaultPlan::none().outage(
        SiteId::CENTRAL,
        SimTime(crash_at_us),
        SimDuration::from_millis(outage_ms),
    );
    cfg.horizon = SimDuration::from_millis(10_000);
    let fed = SimFederation::new(cfg);
    let federation = fed.federation();
    for s in 1..=2u32 {
        let data: Vec<(ObjectId, Value)> =
            (0..4).map(|i| (obj(s, i), Value::counter(100))).collect();
        federation.load_site(SiteId::new(s), &data).unwrap();
    }
    let report = fed.run(vec![(SimDuration::ZERO, transfer(0))]);
    let dumps = federation.dumps().unwrap();
    (report, dumps)
}

fn assert_atomic(
    report: &amc::core::SimReport,
    dumps: &BTreeMap<SiteId, BTreeMap<ObjectId, Value>>,
    label: &str,
) {
    let gtx = GlobalTxnId::new(1);
    let verdict = report.outcomes.get(&gtx);
    let v1 = dumps[&SiteId::new(1)][&obj(1, 0)].counter;
    let v2 = dumps[&SiteId::new(2)][&obj(2, 0)].counter;
    match verdict {
        Some(GlobalVerdict::Commit) => assert_eq!((v1, v2), (70, 130), "{label}"),
        Some(GlobalVerdict::Abort) => assert_eq!((v1, v2), (100, 100), "{label}"),
        None => panic!("{label}: unresolved ({:?})", report.unresolved),
    }
}

#[test]
fn central_crash_before_any_decision_presumes_abort() {
    // Crash 100 µs in: submits may be in flight, no decision logged.
    for protocol in ProtocolKind::ALL {
        let (report, dumps) = run(protocol, 100, 40);
        assert_eq!(
            report.outcomes.get(&GlobalTxnId::new(1)),
            Some(&GlobalVerdict::Abort),
            "{protocol}: no durable decision -> presumed abort"
        );
        assert_atomic(&report, &dumps, &format!("{protocol} early-crash"));
        assert!(report.errors.is_empty(), "{protocol}: {:?}", report.errors);
    }
}

#[test]
fn central_crash_in_decision_window_preserves_logged_commits() {
    // Crash at 1.45 ms: for commit-before the decision (~1.4 ms) is logged
    // and the protocol was already finished; for the others the decision
    // messages race the crash and the logged decision must be re-driven.
    for protocol in ProtocolKind::ALL {
        let (report, dumps) = run(protocol, 1_450, 40);
        assert_atomic(&report, &dumps, &format!("{protocol} mid-crash"));
        // Whatever the verdict, it must match what the central log said:
        // a resumed commit must not become an abort or vice versa.
        assert!(
            report.unresolved.is_empty(),
            "{protocol}: {:?}",
            report.unresolved
        );
    }
}

#[test]
fn commit_before_survives_central_crash_after_local_commits() {
    // Commit-before's happy path completes at ~1.4 ms; a central crash at
    // 2 ms is entirely after the fact — verdict commit, effects in place.
    let (report, dumps) = run(ProtocolKind::CommitBefore, 2_000, 40);
    assert_eq!(
        report.outcomes.get(&GlobalTxnId::new(1)),
        Some(&GlobalVerdict::Commit)
    );
    assert_atomic(&report, &dumps, "commit-before late central crash");
}

#[test]
fn presumed_abort_undoes_committed_locals_under_commit_before() {
    // Commit-before locals commit at submit time (~0.7 ms); crash the
    // central at 1.0 ms — after the local commits but before the global
    // decision was logged. The restarted coordinator presumes abort,
    // inquires, learns both sites committed, and undoes them.
    let (report, dumps) = run(ProtocolKind::CommitBefore, 1_000, 40);
    assert_eq!(
        report.outcomes.get(&GlobalTxnId::new(1)),
        Some(&GlobalVerdict::Abort),
        "undecided at crash -> presumed abort"
    );
    assert_atomic(&report, &dumps, "presumed abort with committed locals");
    // The undo really ran: look for undo messages in the trace.
    let labels = report.events.message_labels(GlobalTxnId::new(1));
    assert!(
        labels.iter().any(|l| l.starts_with("undo:")),
        "expected inverse transactions, got {labels:?}"
    );
}

#[test]
fn client_requests_during_central_outage_are_served_after_restart() {
    let mut cfg = SimConfig::new(FederationConfig::uniform(2, ProtocolKind::CommitBefore));
    cfg.faults =
        FaultPlan::none().outage(SiteId::CENTRAL, SimTime(10), SimDuration::from_millis(20));
    let fed = SimFederation::new(cfg);
    let federation = fed.federation();
    for s in 1..=2u32 {
        let data: Vec<(ObjectId, Value)> =
            (0..4).map(|i| (obj(s, i), Value::counter(100))).collect();
        federation.load_site(SiteId::new(s), &data).unwrap();
    }
    // This transaction arrives while the central system is down.
    let report = fed.run(vec![(SimDuration::from_millis(5), transfer(1))]);
    assert_eq!(
        report.outcomes.get(&GlobalTxnId::new(1)),
        Some(&GlobalVerdict::Commit),
        "request queued during the outage commits after restart: {:?}",
        report.unresolved
    );
    let dumps = federation.dumps().unwrap();
    assert_eq!(dumps[&SiteId::new(1)][&obj(1, 1)].counter, 70);
    assert_eq!(dumps[&SiteId::new(2)][&obj(2, 1)].counter, 130);
}

/// Build a two-site federation whose central system is down from
/// `crash_at_us` for 40 ms, keep a handle on the `Federation` inside, run.
fn run_keeping_the_federation(
    protocol: ProtocolKind,
    crash_at_us: u64,
    programs: Vec<(SimDuration, BTreeMap<SiteId, Vec<Operation>>)>,
) -> (
    amc::core::SimReport,
    BTreeMap<SiteId, BTreeMap<ObjectId, Value>>,
    std::sync::Arc<amc::core::Federation>,
) {
    let mut cfg = SimConfig::new(FederationConfig::uniform(2, protocol));
    cfg.faults = FaultPlan::none().outage(
        SiteId::CENTRAL,
        SimTime(crash_at_us),
        SimDuration::from_millis(40),
    );
    let sim = SimFederation::new(cfg);
    let fed = sim.federation();
    for s in 1..=2u32 {
        let data: Vec<(ObjectId, Value)> =
            (0..4).map(|i| (obj(s, i), Value::counter(100))).collect();
        fed.load_site(SiteId::new(s), &data).unwrap();
    }
    let report = sim.run(programs);
    (report, fed.dumps().unwrap(), fed)
}

#[test]
fn central_crash_before_the_decision_leaves_no_l1_lock_behind() {
    // The L1 locks taken at `begin` die with the central system; the
    // restarted one retakes them for the presumed abort (its undo needs the
    // isolation, §3.3) and releases them when the abort is done.
    for protocol in [ProtocolKind::CommitAfter, ProtocolKind::CommitBefore] {
        let programs = vec![(SimDuration::ZERO, transfer(0))];
        let (report, dumps, fed) = run_keeping_the_federation(protocol, 100, programs);
        assert_eq!(
            report.outcomes.get(&GlobalTxnId::new(1)),
            Some(&GlobalVerdict::Abort),
            "{protocol}"
        );
        assert_atomic(&report, &dumps, &format!("{protocol} early-crash"));
        // Two objects, locked at begin and again at recovery.
        assert_eq!(fed.l1_stats().requests, 4, "{protocol}");
        assert_eq!(fed.l1().unwrap().granted_count(), 0, "{protocol}");
        fed.l1().unwrap().check_invariants().unwrap();

        // And while the central system is down there is no L1 table at all.
        let mut cfg = SimConfig::new(FederationConfig::uniform(2, protocol));
        cfg.faults = FaultPlan::none().crash(SiteId::CENTRAL, SimTime(100));
        cfg.horizon = SimDuration::from_millis(50);
        let sim = SimFederation::new(cfg);
        let fed = sim.federation();
        for s in 1..=2u32 {
            fed.load_site(SiteId::new(s), &[(obj(s, 0), Value::counter(100))])
                .unwrap();
        }
        let report = sim.run(vec![(SimDuration::ZERO, transfer(0))]);
        assert_eq!(report.unresolved, vec![GlobalTxnId::new(1)], "{protocol}");
        assert_eq!(fed.l1_stats().requests, 2, "{protocol}");
        assert_eq!(fed.l1().unwrap().granted_count(), 0, "{protocol}");
    }
}

#[test]
fn logged_commit_retakes_its_l1_locks_before_a_new_start_is_admitted() {
    // G1's commit is logged when the central system dies at 1.45 ms; site
    // 2 has not heard it. G2 overwrites the very object G1 incremented
    // there; its start is offered at 1.5 ms (central down), 21.5 ms (down)
    // and 41.5 ms — 50 µs after the restart, while G1's re-driven decision
    // is still in flight. Without G1's locks G2 would slip in between G1's
    // decision and its redo; with them it is turned away once more and runs
    // strictly after G1's global end.
    let overwrite = BTreeMap::from([(
        SiteId::new(2),
        vec![Operation::Write {
            obj: obj(2, 0),
            value: Value::counter(7),
        }],
    )]);
    let programs = vec![
        (SimDuration::ZERO, transfer(0)),
        (SimDuration::from_micros(1_500), overwrite),
    ];
    let (report, dumps, fed) =
        run_keeping_the_federation(ProtocolKind::CommitAfter, 1_450, programs);
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    let (g1, g2) = (GlobalTxnId::new(1), GlobalTxnId::new(2));
    assert_eq!(report.outcomes.get(&g1), Some(&GlobalVerdict::Commit));
    assert_eq!(report.outcomes.get(&g2), Some(&GlobalVerdict::Commit));
    assert_eq!(dumps[&SiteId::new(1)][&obj(1, 0)].counter, 70);
    assert_eq!(dumps[&SiteId::new(2)][&obj(2, 0)].counter, 7);
    let g1_ended = SimTime::ZERO + report.resolution[&g1];
    let is_message = |e: &&&Event| matches!(e.kind, EventKind::MsgSend { .. });
    let g2_first_message = report
        .events
        .timeline(g2)
        .iter()
        .find(is_message)
        .expect("G2 ran")
        .at;
    assert!(
        g1_ended > SimTime(41_450) && g2_first_message >= g1_ended,
        "G1 ended at {g1_ended}, G2 started at {g2_first_message}"
    );
    assert!(fed.l1_stats().waits >= 1, "L1 never turned G2 away");
    assert_eq!(fed.l1().unwrap().granted_count(), 0);
    fed.l1().unwrap().check_invariants().unwrap();
}
