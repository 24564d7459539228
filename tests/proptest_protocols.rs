//! Property tests over the protocol machinery.
//!
//! * The coordinator state machine keeps its invariants under *arbitrary*
//!   event sequences (duplicated, reordered, stray sites) — exactly the
//!   environment a lossy retransmitting network produces.
//! * The sealed 2PL engine agrees with the reference model over random
//!   sequential transaction mixes, including aborts.
//! * The lock table never grants incompatible modes and never loses a
//!   waiter, under random request/release interleavings.

use amc::core::{CoordAction, CoordEvent, Coordinator};
use amc::engine::{LocalEngine, TplConfig, TwoPLEngine};
use amc::lock::{victims_from_edges, LockTable, PageMode};
use amc::types::{
    GlobalTxnId, GlobalVerdict, LocalVote, ObjectId, Operation, ProtocolKind, SiteId, Value,
};
use amc::verify::ModelDb;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn arb_protocol() -> impl Strategy<Value = ProtocolKind> {
    prop_oneof![
        Just(ProtocolKind::TwoPhaseCommit),
        Just(ProtocolKind::CommitAfter),
        Just(ProtocolKind::CommitBefore),
    ]
}

fn arb_event(max_site: u32) -> impl Strategy<Value = CoordEvent> {
    prop_oneof![
        (1..=max_site, any::<bool>()).prop_map(|(s, ready)| CoordEvent::Vote {
            site: SiteId::new(s),
            vote: if ready {
                LocalVote::Ready
            } else {
                LocalVote::Aborted
            },
        }),
        (1..=max_site).prop_map(|s| CoordEvent::Finished {
            site: SiteId::new(s)
        }),
        (1..=max_site).prop_map(|s| CoordEvent::Unreachable {
            site: SiteId::new(s)
        }),
        Just(CoordEvent::Timer),
    ]
}

fn programs(sites: u32) -> BTreeMap<SiteId, Vec<Operation>> {
    (1..=sites)
        .map(|s| {
            (
                SiteId::new(s),
                vec![Operation::Increment {
                    obj: ObjectId::new(u64::from(s)),
                    delta: 1,
                }],
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Coordinator invariants under arbitrary (even nonsensical) event
    /// streams: at most one `Decided`, at most one `Done`, `Done` implies
    /// `Decided` with the same verdict, no actions after `Done`, and no
    /// message is ever addressed to a non-participant.
    #[test]
    fn coordinator_invariants_hold_under_event_fuzz(
        protocol in arb_protocol(),
        sites in 1u32..4,
        events in proptest::collection::vec(arb_event(5), 0..40),
    ) {
        let mut c = Coordinator::new(GlobalTxnId::new(1), protocol, programs(sites));
        let mut decided: Option<GlobalVerdict> = None;
        let mut done: Option<GlobalVerdict> = None;
        let check = |actions: Vec<CoordAction>, done: &mut Option<GlobalVerdict>, decided: &mut Option<GlobalVerdict>| {
            for a in actions {
                match a {
                    CoordAction::Decided(v) => {
                        prop_assert!(decided.is_none(), "decided twice");
                        *decided = Some(v);
                    }
                    CoordAction::Done(v) => {
                        prop_assert!(done.is_none(), "done twice");
                        prop_assert_eq!(Some(v), *decided, "done without/against decision");
                        *done = Some(v);
                    }
                    CoordAction::Send { site, .. } => {
                        prop_assert!(site.raw() >= 1 && site.raw() <= sites,
                            "message to non-participant {site}");
                    }
                }
            }
            Ok(())
        };
        check(c.on_event(CoordEvent::Start), &mut done, &mut decided)?;
        for e in events {
            let was_done = c.is_done();
            let actions = c.on_event(e);
            if was_done {
                prop_assert!(actions.is_empty(), "actions after done: {actions:?}");
            }
            check(actions, &mut done, &mut decided)?;
        }
        if let (Some(d), Some(v)) = (done, c.verdict()) {
            prop_assert_eq!(d, v);
        }
    }

    /// A clean run (every site votes ready, every finish acknowledged)
    /// always terminates with a commit, for every protocol.
    #[test]
    fn coordinator_clean_run_commits(protocol in arb_protocol(), sites in 1u32..5) {
        let mut c = Coordinator::new(GlobalTxnId::new(1), protocol, programs(sites));
        let mut queue: Vec<CoordEvent> = vec![CoordEvent::Start];
        let mut steps = 0;
        while let Some(e) = queue.pop() {
            steps += 1;
            prop_assert!(steps < 1000, "protocol does not terminate");
            for a in c.on_event(e) {
                if let CoordAction::Send { site, payload } = a {
                    // A perfectly obedient participant.
                    use amc::net::Payload;
                    match payload {
                        Payload::Submit { .. } | Payload::Prepare { .. } => {
                            queue.push(CoordEvent::Vote { site, vote: LocalVote::Ready });
                        }
                        Payload::Decision { .. } | Payload::Redo { .. } | Payload::Undo { .. } => {
                            queue.push(CoordEvent::Finished { site });
                        }
                        // Votes/acks flow the other way, and the Paxos
                        // payloads are spoken by the federation layer, never
                        // by the coordinator FSM itself.
                        _ => unreachable!(),
                    }
                }
            }
        }
        prop_assert!(c.is_done());
        prop_assert_eq!(c.verdict(), Some(GlobalVerdict::Commit));
    }

    /// Engine vs model: random sequential transactions (some aborted)
    /// leave the sealed 2PL engine and the reference model in identical
    /// states.
    #[test]
    fn tpl_engine_agrees_with_model(
        txns in proptest::collection::vec(
            (
                proptest::collection::vec((0u8..5, 1u64..8, -20i64..20), 1..6),
                any::<bool>(), // commit?
            ),
            1..25,
        ),
    ) {
        let engine = TwoPLEngine::new_at(TplConfig::default(), SiteId::new(1));
        let initial: Vec<(ObjectId, Value)> =
            (1..=4u64).map(|i| (ObjectId::new(i), Value::counter(100))).collect();
        engine.bulk_load(&initial).unwrap();
        let mut model = ModelDb::with(initial);

        for (ops, commit) in txns {
            let t = engine.begin().unwrap();
            let mut model_txn = model.clone();
            for (kind, key, x) in ops {
                let obj = ObjectId::new(key);
                let op = match kind {
                    0 => Operation::Read { obj },
                    1 => Operation::Write { obj, value: Value::counter(x) },
                    2 => Operation::Increment { obj, delta: x },
                    3 => Operation::Insert { obj, value: Value::counter(x) },
                    _ => Operation::Delete { obj },
                };
                let engine_result = engine.execute(t, &op);
                let model_result = model_txn.apply(&op);
                // Logical outcomes must agree op by op.
                prop_assert_eq!(
                    engine_result.is_ok(),
                    model_result.is_ok(),
                    "divergence on {}", op
                );
                if let (Ok(a), Ok(b)) = (engine_result, model_result) {
                    prop_assert_eq!(a, b);
                }
                // Logical failures do not abort; both sides continue.
            }
            if commit {
                engine.commit(t).unwrap();
                model = model_txn;
            } else {
                engine
                    .abort(t, amc::types::AbortReason::Intended)
                    .unwrap();
                // model unchanged
            }
            prop_assert_eq!(&engine.dump().unwrap(), model.state());
        }
    }

    /// Lock-table soundness under random single-threaded interleavings:
    /// never two incompatible grants; when everything is released, the
    /// table drains completely.
    #[test]
    fn lock_table_soundness(
        script in proptest::collection::vec((1u64..6, 0u32..4, any::<bool>(), any::<bool>()), 1..60),
    ) {
        let mut table: LockTable<u32, u64, PageMode> = LockTable::new();
        let mut live: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
        for (txn, resource, exclusive, release) in script {
            if release {
                table.release_all(txn);
                live.remove(&txn);
            } else {
                let mode = if exclusive { PageMode::Exclusive } else { PageMode::Shared };
                table.request(txn, resource, mode);
                live.insert(txn);
            }
            table.check_invariants().map_err(TestCaseError::fail)?;
            // Deadlock victims must always be live waiters.
            for v in victims_from_edges(&table.wait_for_edges()) {
                prop_assert!(live.contains(&v));
            }
        }
        for t in live {
            table.release_all(t);
        }
        prop_assert_eq!(table.granted_count(), 0, "locks leaked");
    }
}
