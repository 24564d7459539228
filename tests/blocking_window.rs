//! The [Ske 81] blocking argument, measured: after a participant crash,
//! which protocol leaves resources locked against *other* work?
//!
//! * **2PC**: a participant that prepared before the crash recovers
//!   *in doubt* — its pages stay exclusively locked until the coordinator's
//!   decision arrives. Probe transactions against those pages abort.
//! * **commit-after**: the crashed local transaction evaporates (it was
//!   still *running*); after recovery its pages are free — the global
//!   transaction's fate is repaired by redo, without holding L0 resources.
//! * **commit-before**: the local commit finished before the crash; after
//!   recovery the pages are free and the data is there.

use amc::engine::{LocalEngine, PreparableEngine, TplConfig, TwoPLEngine};
use amc::net::comm::{EngineHandle, LocalCommManager, SubmitMode};
use amc::types::{
    AbortReason, AmcError, GlobalTxnId, GlobalVerdict, ObjectId, Operation, SiteId, Value,
};
use std::sync::Arc;
use std::time::Duration;

const G: GlobalTxnId = GlobalTxnId::new(1);
const X: ObjectId = ObjectId::new(1);

fn setup() -> (LocalCommManager, Arc<TwoPLEngine>) {
    let engine = Arc::new(TwoPLEngine::new_at(
        TplConfig {
            lock_timeout: Duration::from_millis(50),
            ..TplConfig::default()
        },
        SiteId::new(1),
    ));
    engine.bulk_load(&[(X, Value::counter(100))]).unwrap();
    let mgr = LocalCommManager::new(SiteId::new(1), EngineHandle::Preparable(engine.clone()));
    (mgr, engine)
}

/// Probe: can an independent local transaction read `X` right now?
fn probe_blocked(engine: &TwoPLEngine) -> bool {
    let t = engine.begin().unwrap();
    match engine.execute(t, &Operation::Read { obj: X }) {
        Ok(_) => {
            engine.commit(t).unwrap();
            false
        }
        Err(AmcError::Aborted(r)) => {
            assert!(r.is_erroneous(), "probe died for an odd reason: {r}");
            true // rolled back already
        }
        Err(e) => panic!("probe: {e}"),
    }
}

#[test]
fn two_pc_in_doubt_blocks_until_decision() {
    let (mgr, engine) = setup();
    mgr.handle_submit(
        G,
        vec![Operation::Increment { obj: X, delta: 5 }],
        SubmitMode::TwoPhase,
    )
    .unwrap();
    // Prepared, then crash, then recovery: the transaction is in doubt.
    mgr.handle_prepare(G).unwrap();
    engine.crash();
    let report = engine.recover().unwrap();
    assert_eq!(report.in_doubt.len(), 1);

    // The blocking window: independent work on X cannot proceed.
    assert!(probe_blocked(&engine), "in-doubt txn must hold its locks");
    assert!(probe_blocked(&engine), "still blocked on every retry");

    // Only the coordinator's decision ends the window.
    mgr.handle_decision(G, GlobalVerdict::Commit, SubmitMode::TwoPhase)
        .unwrap();
    assert!(!probe_blocked(&engine), "decision releases the resources");
    assert_eq!(engine.dump().unwrap()[&X], Value::counter(105));
}

#[test]
fn commit_after_crash_leaves_resources_free() {
    let (mgr, engine) = setup();
    mgr.handle_submit(
        G,
        vec![Operation::Increment { obj: X, delta: 5 }],
        SubmitMode::CommitAfter,
    )
    .unwrap();
    // Running (voted ready), then crash: the local transaction is gone.
    engine.crash();
    let report = engine.recover().unwrap();
    assert!(report.in_doubt.is_empty());

    // No blocking window: the pages are free immediately after recovery.
    assert!(!probe_blocked(&engine));
    // The global transaction still commits — via redo, on demand.
    mgr.handle_redo(G, vec![Operation::Increment { obj: X, delta: 5 }])
        .unwrap();
    assert_eq!(engine.dump().unwrap()[&X], Value::counter(105));
}

#[test]
fn commit_before_crash_leaves_resources_free_and_data_committed() {
    let (mgr, engine) = setup();
    mgr.handle_submit(
        G,
        vec![Operation::Increment { obj: X, delta: 5 }],
        SubmitMode::CommitBefore,
    )
    .unwrap();
    engine.crash();
    let report = engine.recover().unwrap();
    assert!(report.in_doubt.is_empty());

    assert!(!probe_blocked(&engine));
    assert_eq!(
        engine.dump().unwrap()[&X],
        Value::counter(105),
        "the local commit survived the crash on its own"
    );
}

#[test]
fn in_doubt_window_also_blocks_same_page_neighbours() {
    // The blocking granule is the page: an in-doubt transaction blocks
    // *other objects* that happen to share its page — collateral damage
    // the commit-before protocol never inflicts.
    let engine = Arc::new(TwoPLEngine::new_at(
        TplConfig {
            buckets: 1, // every object on one page chain
            lock_timeout: Duration::from_millis(50),
            ..TplConfig::default()
        },
        SiteId::new(1),
    ));
    engine
        .bulk_load(&[
            (X, Value::counter(100)),
            (ObjectId::new(2), Value::counter(7)),
        ])
        .unwrap();
    let t = engine.begin().unwrap();
    engine
        .execute(t, &Operation::Increment { obj: X, delta: 1 })
        .unwrap();
    engine.prepare(t).unwrap();
    engine.crash();
    engine.recover().unwrap();

    // A probe on the *other* object, same page: blocked.
    let p = engine.begin().unwrap();
    let r = engine.execute(
        p,
        &Operation::Read {
            obj: ObjectId::new(2),
        },
    );
    assert!(
        matches!(r, Err(AmcError::Aborted(_))),
        "neighbour object must be blocked by the in-doubt page lock"
    );
    engine.abort(t, AbortReason::GlobalDecision).unwrap();
    let p = engine.begin().unwrap();
    engine
        .execute(
            p,
            &Operation::Read {
                obj: ObjectId::new(2),
            },
        )
        .unwrap();
    engine.commit(p).unwrap();
}
