//! The deterministic observability layer end-to-end: per-seed bit-for-bit
//! reproducible event logs, per-transaction timelines covering every
//! resolved transaction, and the causal-chain reconstruction of the
//! `unsafe_skip_decision_log` atomicity bug that the chaos harness hunts —
//! the same chain the `explain` binary prints.

use amc::core::{FederationConfig, ProtocolKind, SimConfig, SimFederation, SimReport};
use amc::obs::EventKind;
use amc::sim::{generate_faults, FaultPlan, NemesisConfig};
use amc::types::{
    GlobalTxnId, GlobalVerdict, ObjectId, Operation, SimDuration, SimTime, SiteId, Value,
};
use std::collections::BTreeMap;

const OBJS: u64 = 5;
const PER_OBJ: i64 = 100;

fn obj(site: u32, i: u64) -> ObjectId {
    ObjectId::new(u64::from(site) * (1 << 32) + i)
}

/// Five staggered disjoint transfers — the nemesis/E5c workload.
fn programs() -> Vec<(SimDuration, BTreeMap<SiteId, Vec<Operation>>)> {
    (0..OBJS)
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
        .collect()
}

fn run_nemesis(protocol: ProtocolKind, seed: u64) -> SimReport {
    let plan = generate_faults(&NemesisConfig::default(), seed);
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
    fed.run(programs())
}

/// The determinism contract: the full rendered event log — sequence
/// numbers, virtual timestamps, sites, payload labels, everything — is
/// bit-for-bit identical when the same seed is replayed, for every
/// protocol, under composed nemesis fault schedules.
#[test]
fn event_log_is_bit_for_bit_deterministic_per_seed() {
    for protocol in ProtocolKind::ALL {
        for seed in [0u64, 7, 42] {
            let a = run_nemesis(protocol, seed);
            let b = run_nemesis(protocol, seed);
            assert!(
                !a.events.is_empty(),
                "{protocol} seed {seed}: no events recorded"
            );
            assert_eq!(
                a.events.total_recorded(),
                b.events.total_recorded(),
                "{protocol} seed {seed}: event counts diverge"
            );
            assert_eq!(
                a.events.render(),
                b.events.render(),
                "{protocol} seed {seed}: replay produced a different event log"
            );
        }
    }
}

/// Different seeds must actually perturb the run (otherwise the
/// determinism test above proves nothing).
#[test]
fn different_seeds_produce_different_logs() {
    let a = run_nemesis(ProtocolKind::CommitBefore, 1);
    let b = run_nemesis(ProtocolKind::CommitBefore, 2);
    assert_ne!(
        a.events.render(),
        b.events.render(),
        "seeds 1 and 2 produced identical logs — faults not applied?"
    );
}

/// On the failure-free path every transaction gets a complete timeline
/// (start → votes → done), fault events stay out of per-transaction
/// timelines, and the derived histograms are populated — with the
/// blocking-window histogram non-empty **only** for 2PC, which is the §5
/// argument in event form.
#[test]
fn timelines_cover_every_transaction_and_blocking_is_2pc_only() {
    for protocol in ProtocolKind::ALL {
        let cfg = SimConfig::new(FederationConfig::uniform(2, protocol));
        let fed = SimFederation::new(cfg);
        let federation = fed.federation();
        for s in 1..=2u32 {
            let data: Vec<(ObjectId, Value)> = (0..OBJS)
                .map(|i| (obj(s, i), Value::counter(PER_OBJ)))
                .collect();
            federation.load_site(SiteId::new(s), &data).unwrap();
        }
        let report = fed.run(programs());
        assert!(report.errors.is_empty(), "{protocol}: {:?}", report.errors);
        for i in 0..OBJS {
            let gtx = GlobalTxnId::new(i + 1);
            assert_eq!(report.outcomes.get(&gtx), Some(&GlobalVerdict::Commit));
            let text = report.events.render_timeline(gtx);
            assert!(text.contains("txn-start"), "{protocol} {gtx}:\n{text}");
            assert!(text.contains("vote"), "{protocol} {gtx}:\n{text}");
            assert!(text.contains("done commit"), "{protocol} {gtx}:\n{text}");
            // Failure-free run: no fault events anywhere near a timeline.
            assert!(!text.contains("crash"), "{protocol} {gtx}:\n{text}");
        }
        let derived = report.events.derive();
        assert_eq!(derived.commit_latency_us.n(), OBJS as usize, "{protocol}");
        assert!(!derived.msgs_per_txn.is_empty(), "{protocol}");
        if protocol == ProtocolKind::TwoPhaseCommit {
            assert!(
                !derived.blocking_window_us.is_empty(),
                "2PC participants must traverse the in-doubt window"
            );
        } else {
            assert!(
                derived.blocking_window_us.is_empty(),
                "{protocol} has no prepared state, so no blocking window"
            );
        }
    }
}

/// The injected `unsafe_skip_decision_log` bug, reconstructed as a causal
/// chain from the event log alone (what `explain --skip-decision-log`
/// prints): the coordinator **decides commit**, the central system crashes
/// before the (skipped) decision record could survive, and the resumed
/// coordinator finds **no decision record**, presumes abort, and finishes
/// with the opposite verdict.
#[test]
fn event_log_reconstructs_the_skip_decision_log_bug_as_a_causal_chain() {
    // Votes arrive and the decision fires at t = 1200 us (0.5 ms hop each
    // way + 0.2 ms service); crash the central system just after, restart
    // it 15 ms later.
    let mut cfg = SimConfig::new(FederationConfig::uniform(2, ProtocolKind::CommitAfter));
    cfg.faults =
        FaultPlan::none().outage(SiteId::CENTRAL, SimTime(1300), SimDuration::from_millis(15));
    cfg.unsafe_skip_decision_log = true;
    cfg.retransmit_every = SimDuration::from_millis(5);
    cfg.horizon = SimDuration::from_millis(5_000);
    let fed = SimFederation::new(cfg);
    let federation = fed.federation();
    for s in 1..=2u32 {
        federation
            .load_site(SiteId::new(s), &[(obj(s, 0), Value::counter(PER_OBJ))])
            .unwrap();
    }
    let program = BTreeMap::from([
        (
            SiteId::new(1),
            vec![Operation::Increment {
                obj: obj(1, 0),
                delta: -10,
            }],
        ),
        (
            SiteId::new(2),
            vec![Operation::Increment {
                obj: obj(2, 0),
                delta: 10,
            }],
        ),
    ]);
    let report = fed.run(vec![(SimDuration::ZERO, program)]);

    let gtx = GlobalTxnId::new(1);
    let timeline = report.events.timeline(gtx);
    assert!(!timeline.is_empty(), "no events for {gtx}");

    let pos = |want: &dyn Fn(&EventKind) -> bool| timeline.iter().position(|e| want(&e.kind));
    let decided_commit = pos(&|k| {
        matches!(
            k,
            EventKind::Decide {
                verdict: GlobalVerdict::Commit
            }
        )
    })
    .expect("coordinator must decide commit before the crash");
    let resumed_amnesiac = pos(&|k| matches!(k, EventKind::Resume { logged: None }))
        .expect("resume must find no decision record (force was skipped)");
    let done_abort = pos(&|k| {
        matches!(
            k,
            EventKind::Done {
                verdict: GlobalVerdict::Abort
            }
        )
    })
    .expect("resumed coordinator must presume abort and finish");
    assert!(
        decided_commit < resumed_amnesiac && resumed_amnesiac < done_abort,
        "causal chain out of order:\n{}",
        report.events.render_timeline(gtx)
    );
    // The crash itself is a federation-wide event (no transaction), so it
    // appears in the full log but not in the per-transaction timeline.
    let full = report.events.render();
    assert!(full.contains("crash"), "{full}");
    assert!(
        !report.events.render_timeline(gtx).contains("crash"),
        "fault events must not be attributed to a transaction"
    );
    // And the rendered timeline reads as the explain tool prints it.
    let text = report.events.render_timeline(gtx);
    assert!(text.contains("decide commit"), "{text}");
    assert!(
        text.contains("resume (no decision record: presume abort)"),
        "{text}"
    );
    assert!(text.contains("done abort"), "{text}");
}

/// With the decision-log force *enabled* the same crash is harmless: the
/// resumed coordinator finds the commit record and finishes with commit —
/// the control experiment for the causal chain above.
#[test]
fn decision_log_force_survives_the_same_crash() {
    let mut cfg = SimConfig::new(FederationConfig::uniform(2, ProtocolKind::CommitAfter));
    cfg.faults =
        FaultPlan::none().outage(SiteId::CENTRAL, SimTime(1300), SimDuration::from_millis(15));
    cfg.retransmit_every = SimDuration::from_millis(5);
    cfg.horizon = SimDuration::from_millis(5_000);
    let fed = SimFederation::new(cfg);
    let federation = fed.federation();
    for s in 1..=2u32 {
        federation
            .load_site(SiteId::new(s), &[(obj(s, 0), Value::counter(PER_OBJ))])
            .unwrap();
    }
    let program = BTreeMap::from([
        (
            SiteId::new(1),
            vec![Operation::Increment {
                obj: obj(1, 0),
                delta: -10,
            }],
        ),
        (
            SiteId::new(2),
            vec![Operation::Increment {
                obj: obj(2, 0),
                delta: 10,
            }],
        ),
    ]);
    let report = fed.run(vec![(SimDuration::ZERO, program)]);
    let gtx = GlobalTxnId::new(1);
    assert_eq!(report.outcomes.get(&gtx), Some(&GlobalVerdict::Commit));
    let timeline = report.events.timeline(gtx);
    assert!(
        timeline.iter().any(|e| matches!(
            e.kind,
            EventKind::Resume {
                logged: Some(GlobalVerdict::Commit)
            }
        )),
        "resume must recover the logged commit decision:\n{}",
        report.events.render_timeline(gtx)
    );
}
