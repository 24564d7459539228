//! F2–F5 — golden message traces reproducing the state/message diagrams of
//! Figs. 2, 4 and 6, on the deterministic simulator.
//!
//! Mapping note: the paper's figures begin at the `prepare` inquiry; in this
//! implementation the work shipment (`submit`) carries the inquiry
//! implicitly and its reply is the `ready`/`abort` vote, so the figures'
//! `prepare → ready` appears as `submit → ready` on the failure-free path.
//! The explicit `prepare` message appears where the paper uses it: in 2PC's
//! dedicated voting round and in post-crash re-inquiry.

use amc::core::{FederationConfig, ProtocolKind, SimConfig, SimFederation};
use amc::net::{Payload, SubmitMode};
use amc::sim::FaultPlan;
use amc::types::{
    GlobalTxnId, GlobalVerdict, LocalVote, ObjectId, Operation, SimDuration, SimTime, SiteId, Value,
};
use std::collections::BTreeMap;

fn obj(site: u32, i: u64) -> ObjectId {
    ObjectId::new(u64::from(site) * (1 << 32) + i)
}

fn sim(protocol: ProtocolKind, failures: FaultPlan) -> SimFederation {
    let mut cfg = SimConfig::new(FederationConfig::uniform(2, protocol));
    cfg.faults = failures;
    let fed = SimFederation::new(cfg);
    for s in 1..=2u32 {
        fed.load_site(
            SiteId::new(s),
            &[
                (obj(s, 0), Value::counter(100)),
                (obj(s, 1), Value::counter(100)),
            ],
        );
    }
    fed
}

fn transfer() -> BTreeMap<SiteId, Vec<Operation>> {
    BTreeMap::from([
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
    ])
}

fn failing_at_site_2() -> BTreeMap<SiteId, Vec<Operation>> {
    let mut p = transfer();
    p.get_mut(&SiteId::new(2))
        .unwrap()
        .push(Operation::Read { obj: obj(2, 999) }); // does not exist
    p
}

fn failing_at_site_1() -> BTreeMap<SiteId, Vec<Operation>> {
    let mut p = transfer();
    p.get_mut(&SiteId::new(1))
        .unwrap()
        .push(Operation::Read { obj: obj(1, 999) }); // does not exist
    p
}

const G1: GlobalTxnId = GlobalTxnId::new(1);

/// F2: Fig. 2 — 2PC commit: work, prepare round, decision, finish.
#[test]
fn fig2_two_phase_commit_trace() {
    let report = sim(ProtocolKind::TwoPhaseCommit, FaultPlan::none())
        .run(vec![(SimDuration::ZERO, transfer())]);
    assert_eq!(
        report.events.message_labels(G1),
        vec![
            "submit:0->1",
            "submit:0->2",
            "ready:1->0",
            "ready:2->0",
            "prepare:0->1",
            "prepare:0->2",
            "ready:1->0",
            "ready:2->0",
            "commit:0->1",
            "commit:0->2",
            "finished:1->0",
            "finished:2->0",
        ]
    );
    assert_eq!(report.outcomes[&G1], GlobalVerdict::Commit);
}

/// F2 (abort side): a participant that cannot finish its work forces a
/// global abort delivered to every participant.
#[test]
fn fig2_two_phase_abort_trace() {
    let report = sim(ProtocolKind::TwoPhaseCommit, FaultPlan::none())
        .run(vec![(SimDuration::ZERO, failing_at_site_2())]);
    let labels = report.events.message_labels(G1);
    assert_eq!(
        labels,
        vec![
            "submit:0->1",
            "submit:0->2",
            "ready:1->0",
            "abort-vote:2->0",
            "abort:0->1",
            "abort:0->2",
            "finished:1->0",
            "finished:2->0",
        ]
    );
    assert_eq!(report.outcomes[&G1], GlobalVerdict::Abort);
}

/// F4: Fig. 4 — commit-after: votes double as work replies; the decision
/// goes out while locals are still *running*.
#[test]
fn fig4_commit_after_trace() {
    let report = sim(ProtocolKind::CommitAfter, FaultPlan::none())
        .run(vec![(SimDuration::ZERO, transfer())]);
    assert_eq!(
        report.events.message_labels(G1),
        vec![
            "submit:0->1",
            "submit:0->2",
            "ready:1->0",
            "ready:2->0",
            "commit:0->1",
            "commit:0->2",
            "finished:1->0",
            "finished:2->0",
        ]
    );
}

/// F4 (redo): after a post-decision crash, the commit is retransmitted as a
/// `redo` carrying the operations (Fig. 4's repetition loop).
#[test]
fn fig4_redo_retransmission_after_crash() {
    // Crash site 2 right when the decision is in flight (votes arrive at
    // ~1400 µs with 500 µs latency + 200 µs service each way).
    let failures =
        FaultPlan::none().outage(SiteId::new(2), SimTime(1_450), SimDuration::from_millis(25));
    let report =
        sim(ProtocolKind::CommitAfter, failures).run(vec![(SimDuration::ZERO, transfer())]);
    let labels = report.events.message_labels(G1);
    assert_eq!(report.outcomes.get(&G1), Some(&GlobalVerdict::Commit));
    assert!(
        labels.iter().any(|l| l == "redo:0->2"),
        "expected a redo retransmission, got {labels:?}"
    );
}

/// F5: Fig. 6 — commit-before commit path: two messages per site, done.
#[test]
fn fig6_commit_before_commit_trace() {
    let report = sim(ProtocolKind::CommitBefore, FaultPlan::none())
        .run(vec![(SimDuration::ZERO, transfer())]);
    assert_eq!(
        report.events.message_labels(G1),
        vec!["submit:0->1", "submit:0->2", "ready:1->0", "ready:2->0"]
    );
    assert_eq!(report.outcomes[&G1], GlobalVerdict::Commit);
}

/// F5 (undo): Fig. 6's abort side — the committed site is undone by an
/// inverse transaction, the aborted site needs nothing.
#[test]
fn fig6_commit_before_undo_trace() {
    let report = sim(ProtocolKind::CommitBefore, FaultPlan::none())
        .run(vec![(SimDuration::ZERO, failing_at_site_2())]);
    let labels = report.events.message_labels(G1);
    assert_eq!(
        labels,
        vec![
            "submit:0->1",
            "submit:0->2",
            "ready:1->0",
            "abort-vote:2->0",
            "undo:0->1",
            "finished:1->0",
        ]
    );
    assert_eq!(report.outcomes[&G1], GlobalVerdict::Abort);
}

/// F3: the commit-point orderings of Figs. 3/5/7 — observed through the
/// decision-vs-local-commit order in the traces.
#[test]
fn fig3_5_7_commit_point_orderings() {
    // 2PC: decision between ready and commit messages (middle).
    let two_pc = sim(ProtocolKind::TwoPhaseCommit, FaultPlan::none())
        .run(vec![(SimDuration::ZERO, transfer())]);
    let labels = two_pc.events.message_labels(G1);
    let ready_pos = labels.iter().position(|l| l.starts_with("ready")).unwrap();
    let commit_pos = labels.iter().position(|l| l.starts_with("commit")).unwrap();
    assert!(ready_pos < commit_pos, "Fig. 3: decision in the middle");

    // Commit-after: the local commit (triggered by the decision message)
    // happens after every vote — there is no local commit before "commit".
    let after = sim(ProtocolKind::CommitAfter, FaultPlan::none())
        .run(vec![(SimDuration::ZERO, transfer())]);
    let labels = after.events.message_labels(G1);
    let last_vote = labels.iter().rposition(|l| l.starts_with("ready")).unwrap();
    let decision = labels.iter().position(|l| l.starts_with("commit")).unwrap();
    assert!(
        last_vote < decision,
        "Fig. 5: decision before local commits"
    );

    // Commit-before: no decision message exists at all on the commit path —
    // local commits all precede the (silent) decision (Fig. 7).
    let before = sim(ProtocolKind::CommitBefore, FaultPlan::none())
        .run(vec![(SimDuration::ZERO, transfer())]);
    let labels = before.events.message_labels(G1);
    assert!(
        labels.iter().all(|l| !l.starts_with("commit:")),
        "Fig. 7: no commit message on the wire"
    );
}

/// §5 extension — the read-only participant optimization: a site whose
/// local transaction performed no updates votes `ready-ro`, commits
/// immediately and drops out of the decision round, under every protocol.
#[test]
fn read_only_participant_drops_out_of_decision_round() {
    let read_only_program = || {
        BTreeMap::from([
            (
                SiteId::new(1),
                vec![Operation::Increment {
                    obj: obj(1, 0),
                    delta: 1,
                }],
            ),
            (SiteId::new(2), vec![Operation::Read { obj: obj(2, 0) }]),
        ])
    };
    // 2PC: the read-only site answers the prepare inquiry with ready-ro
    // and receives no decision.
    let report = sim(ProtocolKind::TwoPhaseCommit, FaultPlan::none())
        .run(vec![(SimDuration::ZERO, read_only_program())]);
    assert_eq!(
        report.events.message_labels(G1),
        vec![
            "submit:0->1",
            "submit:0->2",
            "ready:1->0",
            "ready:2->0",
            "prepare:0->1",
            "prepare:0->2",
            "ready:1->0",
            "ready-ro:2->0",
            "commit:0->1",
            "finished:1->0",
        ]
    );
    assert_eq!(report.outcomes[&G1], GlobalVerdict::Commit);

    // Commit-after: the read-only site commits at submit time and is
    // excluded from the decision fan-out.
    let report = sim(ProtocolKind::CommitAfter, FaultPlan::none())
        .run(vec![(SimDuration::ZERO, read_only_program())]);
    assert_eq!(
        report.events.message_labels(G1),
        vec![
            "submit:0->1",
            "submit:0->2",
            "ready:1->0",
            "ready-ro:2->0",
            "commit:0->1",
            "finished:1->0",
        ]
    );
    assert_eq!(report.outcomes[&G1], GlobalVerdict::Commit);
}

/// Read-only participants of an *aborted* commit-before transaction need
/// no undo: there is nothing to invert.
#[test]
fn read_only_participant_needs_no_undo_on_abort() {
    let program = BTreeMap::from([
        (SiteId::new(1), vec![Operation::Read { obj: obj(1, 0) }]),
        (
            SiteId::new(2),
            vec![
                Operation::Increment {
                    obj: obj(2, 0),
                    delta: 1,
                },
                Operation::Read { obj: obj(2, 999) }, // fails: intended abort
            ],
        ),
    ]);
    let report =
        sim(ProtocolKind::CommitBefore, FaultPlan::none()).run(vec![(SimDuration::ZERO, program)]);
    assert_eq!(report.outcomes[&G1], GlobalVerdict::Abort);
    let labels = report.events.message_labels(G1);
    assert_eq!(
        labels,
        vec![
            "submit:0->1",
            "submit:0->2",
            "ready-ro:1->0",
            "abort-vote:2->0",
        ],
        "no undo message: the read-only commit has no effects to invert"
    );
}

/// *To Vote Before Decide*, single-site case: under the fast path a
/// transaction touching one site is one exchange — the combined dispatch
/// marked `solo`, and the vote that reports the local commit. No decision
/// travels; the coordinator is a commit-before coordinator of one.
#[test]
fn fast_path_single_site_trace_is_two_messages() {
    let mut cfg =
        SimConfig::new(FederationConfig::uniform(2, ProtocolKind::TwoPhaseCommit).with_fast_path());
    cfg.faults = FaultPlan::none();
    let fed = SimFederation::new(cfg);
    fed.load_site(SiteId::new(2), &[(obj(2, 0), Value::counter(100))]);
    let managers = fed.managers();
    let mut program = transfer();
    program.remove(&SiteId::new(1));
    let report = fed.run(vec![(SimDuration::ZERO, program)]);
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert_eq!(
        report.events.message_labels(G1),
        vec!["submit-solo:0->2", "ready:2->0"]
    );
    assert_eq!(report.net.sent, 2);
    assert_eq!(report.outcomes[&G1], GlobalVerdict::Commit);
    let dumps = SimFederation::dumps(&managers);
    assert_eq!(dumps[&SiteId::new(2)][&obj(2, 0)], Value::counter(130));
}

/// The threaded `Federation` hands a round's sends to the transport
/// together, but logs each exchange as a (request, reply) pair in
/// emission order — exactly the sequence it logged when it made the calls
/// one by one.
#[test]
fn threaded_federation_records_rounds_as_request_reply_pairs() {
    let goldens: [(ProtocolKind, &[&str]); 3] = [
        (
            ProtocolKind::TwoPhaseCommit,
            &[
                "submit:0->1",
                "ready:1->0",
                "submit:0->2",
                "ready:2->0",
                "prepare:0->1",
                "ready:1->0",
                "prepare:0->2",
                "ready:2->0",
                "commit:0->1",
                "finished:1->0",
                "commit:0->2",
                "finished:2->0",
            ],
        ),
        (
            ProtocolKind::CommitAfter,
            &[
                "submit:0->1",
                "ready:1->0",
                "submit:0->2",
                "ready:2->0",
                "commit:0->1",
                "finished:1->0",
                "commit:0->2",
                "finished:2->0",
            ],
        ),
        (
            ProtocolKind::CommitBefore,
            &["submit:0->1", "ready:1->0", "submit:0->2", "ready:2->0"],
        ),
    ];
    for (protocol, golden) in goldens {
        let mut fed = amc::core::Federation::new(FederationConfig::uniform(2, protocol));
        fed.set_recording(true, true);
        for s in 1..=2u32 {
            fed.load_site(SiteId::new(s), &[(obj(s, 0), Value::counter(100))])
                .unwrap();
        }
        fed.run_transaction(&transfer()).unwrap();
        assert_eq!(fed.events().message_labels(G1), golden, "{protocol:?}");
    }
}

/// Group `labels` by the site each message goes to or comes from.
fn per_link(labels: Vec<String>) -> BTreeMap<String, Vec<String>> {
    let mut links: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for label in labels {
        let (from, to) = label
            .split_once(':')
            .and_then(|(_, l)| l.split_once("->"))
            .unwrap();
        let site = if from == "0" { to } else { from }.to_string();
        links.entry(site).or_default().push(label);
    }
    links
}

/// A threaded federation of two sites holding two counters each.
fn blocking(protocol: ProtocolKind) -> amc::core::Federation {
    let mut fed = amc::core::Federation::new(FederationConfig::uniform(2, protocol));
    fed.set_recording(true, true);
    for s in 1..=2u32 {
        let data = [
            (obj(s, 0), Value::counter(100)),
            (obj(s, 1), Value::counter(100)),
        ];
        fed.load_site(SiteId::new(s), &data).unwrap();
    }
    fed
}

/// One central system, two pumps: for every protocol, on the commit path
/// and on an intended abort, the blocking pump and the failure-free
/// simulator exchange the same messages with each site in the same order.
/// (Across sites the two interleave differently — one waits for a whole
/// round, the other for each arrival — so the comparison is per link.)
/// When the first site votes abort, the blocking pump learns the decision
/// before it ships what the simulator already has in flight, and skips
/// what the machine no longer owes: on every link it exchanges a
/// subsequence of the simulator's messages.
#[test]
fn blocking_pump_and_simulator_exchange_the_same_messages_per_link() {
    for protocol in ProtocolKind::ALL {
        for (program, verdict, first_fails) in [
            (transfer(), GlobalVerdict::Commit, false),
            (failing_at_site_2(), GlobalVerdict::Abort, false),
            (failing_at_site_1(), GlobalVerdict::Abort, true),
        ] {
            let report =
                sim(protocol, FaultPlan::none()).run(vec![(SimDuration::ZERO, program.clone())]);
            assert_eq!(report.outcomes.get(&G1), Some(&verdict), "{protocol}");

            let fed = blocking(protocol);
            let pumped = fed.run_transaction(&program).unwrap();
            assert_eq!(pumped.gtx, G1);

            let simulated = per_link(report.events.message_labels(G1));
            let blocking = per_link(fed.events().message_labels(G1));
            if !first_fails {
                assert_eq!(blocking, simulated, "{protocol} {verdict:?}");
                continue;
            }
            for (link, labels) in &blocking {
                let mut sim = simulated[link].iter();
                let subsequence = labels.iter().all(|l| sim.any(|s| s == l));
                assert!(
                    subsequence,
                    "{protocol} {link}: {labels:?} vs {simulated:?}"
                );
            }
        }
    }
}

/// 2PC and commit-after ship the submits one site at a time. When the
/// first site votes abort the second one's submit is no longer owed: that
/// site's engine begins no local transaction, learns the abort for a
/// transaction it never saw, and keeps a tombstone that turns a late
/// submit away.
#[test]
fn an_abort_at_the_first_site_ships_no_work_to_the_second() {
    for protocol in [ProtocolKind::TwoPhaseCommit, ProtocolKind::CommitAfter] {
        let fed = blocking(protocol);
        let second = fed.manager(SiteId::new(2)).unwrap();
        let begins = || second.handle().engine().stats().begins;
        let before = begins();
        let report = fed.run_transaction(&failing_at_site_1()).unwrap();
        assert_eq!(report.outcome, amc::core::TxnOutcome::Aborted);
        assert_eq!(begins(), before, "{protocol}: no local transaction");
        let labels = fed.events().message_labels(G1);
        assert!(!labels.contains(&"submit:0->2".to_string()), "{labels:?}");
        assert!(labels.contains(&"abort:0->2".to_string()), "{labels:?}");

        let mode = match protocol {
            ProtocolKind::TwoPhaseCommit => SubmitMode::TwoPhase,
            _ => SubmitMode::CommitAfter,
        };
        let late = second
            .handle_submit(G1, transfer()[&SiteId::new(2)].clone(), mode)
            .unwrap();
        let aborted = Payload::Vote {
            gtx: G1,
            vote: LocalVote::Aborted,
        };
        assert_eq!(late, aborted, "{protocol}: the tombstone answers");
        assert_eq!(begins(), before, "{protocol}: the late submit ran nothing");
    }
}

/// Commit-before, first site votes abort: the second site's ready vote
/// arrives in the same round, so the coordinator holds its final state
/// and sends no inquiry. The committed site runs one undo local
/// transaction, and forces twice: its forward commit and the inverse —
/// the exactly-once marker check before the undo reads, and writes no
/// log record.
#[test]
fn a_commit_before_abort_inquires_nothing_it_knows_and_forces_only_its_writes() {
    let fed = blocking(ProtocolKind::CommitBefore);
    let second = fed.manager(SiteId::new(2)).unwrap();
    let (comm, forces) = (second.stats(), second.handle().engine().log_stats().forces);
    let report = fed.run_transaction(&failing_at_site_1()).unwrap();
    assert_eq!(report.outcome, amc::core::TxnOutcome::Aborted);
    let labels = fed.events().message_labels(G1);
    assert!(
        labels.iter().all(|l| !l.starts_with("prepare")),
        "{labels:?}"
    );
    assert!(labels.contains(&"undo:0->2".to_string()), "{labels:?}");
    assert_eq!(second.stats().undo_runs - comm.undo_runs, 1);
    let taken = second.handle().engine().log_stats().forces - forces;
    assert_eq!(taken, 2, "the forward commit and the inverse");
    let dumps = fed.dumps().unwrap();
    assert_eq!(dumps[&SiteId::new(2)][&obj(2, 0)], Value::counter(100));
}

/// With the 1PC fast path 2PC ships its combined dispatches one site at a
/// time too: a no from the first site leaves the second one's
/// `submit-prepare` unowed, so that site prepares nothing and is sent the
/// abort alone.
#[test]
fn a_piggybacked_abort_at_the_first_site_ships_no_work_to_the_second() {
    let cfg = FederationConfig::uniform(2, ProtocolKind::TwoPhaseCommit).with_fast_path();
    let mut fed = amc::core::Federation::new(cfg);
    fed.set_recording(true, true);
    for s in 1..=2u32 {
        fed.load_site(SiteId::new(s), &[(obj(s, 0), Value::counter(100))])
            .unwrap();
    }
    let second = fed.manager(SiteId::new(2)).unwrap();
    let begins = || second.handle().engine().stats().begins;
    let before = begins();
    let report = fed.run_transaction(&failing_at_site_1()).unwrap();
    assert_eq!(report.outcome, amc::core::TxnOutcome::Aborted);
    assert_eq!(begins(), before, "no local transaction at site 2");
    let to_second: Vec<String> = fed
        .events()
        .message_labels(G1)
        .into_iter()
        .filter(|l| l.ends_with(":0->2"))
        .collect();
    assert_eq!(to_second, ["abort:0->2"]);
}

/// A message the pump skips is not counted: for every protocol, on the
/// commit path and on an intended abort at either site, the report's count
/// is the number of messages the event log saw leave or arrive.
#[test]
fn a_skipped_message_is_not_counted() {
    for protocol in ProtocolKind::ALL {
        for program in [transfer(), failing_at_site_1(), failing_at_site_2()] {
            let fed = blocking(protocol);
            let report = fed.run_transaction(&program).unwrap();
            let labels = fed.events().message_labels(G1);
            assert_eq!(
                report.messages,
                labels.len() as u64,
                "{protocol}: {labels:?}"
            );
        }
    }
}

/// A participant that only reads commits at its vote under every
/// protocol, and its engine takes no force for it: there is nothing to
/// make durable.
#[test]
fn a_read_only_participant_forces_nothing_under_any_protocol() {
    let mut program = transfer();
    program.insert(SiteId::new(2), vec![Operation::Read { obj: obj(2, 0) }]);
    for protocol in ProtocolKind::ALL {
        let fed = blocking(protocol);
        let second = fed.manager(SiteId::new(2)).unwrap();
        let forces = || second.handle().engine().log_stats().forces;
        let before = forces();
        let report = fed.run_transaction(&program).unwrap();
        assert_eq!(
            report.outcome,
            amc::core::TxnOutcome::Committed,
            "{protocol}"
        );
        assert_eq!(forces(), before, "{protocol}");
        let labels = fed.events().message_labels(G1);
        assert!(
            labels.contains(&"ready-ro:2->0".to_string()),
            "{protocol}: {labels:?}"
        );
    }
}
