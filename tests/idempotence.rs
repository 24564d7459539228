//! E8 — the §3.2/§3.3 crash windows around commit propagation.
//!
//! "If the system crashes between the commit and the propagation, the
//! recovery mechanism will assume that the local transaction has been
//! aborted and will erroneously repeat it. A crash after propagation but
//! before the commit will result in no repetition at all." The marker
//! scheme (the log written *into the existing database by the local
//! transaction*) closes both windows: these tests crash on each side of a
//! commit and verify exactly-once effects.

use amc::engine::{LocalEngine, TplConfig, TwoPLEngine};
use amc::net::comm::{EngineHandle, LocalCommManager, SubmitMode};
use amc::types::{GlobalTxnId, GlobalVerdict, ObjectId, Operation, SiteId, Value};
use std::sync::Arc;

fn setup() -> (LocalCommManager, Arc<TwoPLEngine>) {
    let engine = Arc::new(TwoPLEngine::new_at(TplConfig::default(), SiteId::new(1)));
    engine
        .bulk_load(&[(ObjectId::new(1), Value::counter(100))])
        .unwrap();
    let mgr = LocalCommManager::new(SiteId::new(1), EngineHandle::Plain(engine.clone()));
    (mgr, engine)
}

const G: GlobalTxnId = GlobalTxnId::new(1);

fn incr(delta: i64) -> Vec<Operation> {
    vec![Operation::Increment {
        obj: ObjectId::new(1),
        delta,
    }]
}

fn counter(engine: &TwoPLEngine) -> i64 {
    engine.dump().unwrap()[&ObjectId::new(1)].counter
}

/// Crash *after* the local commit, before the coordinator hears about it:
/// the retransmitted redo must find the marker and not re-apply.
#[test]
fn redo_window_crash_after_commit() {
    let (mgr, engine) = setup();
    mgr.handle_submit(G, incr(5), SubmitMode::CommitAfter)
        .unwrap();
    mgr.handle_decision(G, GlobalVerdict::Commit, SubmitMode::CommitAfter)
        .unwrap();
    assert_eq!(counter(&engine), 105);

    // The `finished` message is lost; the site crashes; the coordinator
    // retransmits the redo after restart.
    engine.crash();
    engine.recover().unwrap();
    for _ in 0..3 {
        mgr.handle_redo(G, incr(5)).unwrap();
        assert_eq!(counter(&engine), 105, "redo must be exactly-once");
    }
}

/// Crash *before* the local commit completed: the redo must apply exactly
/// once.
#[test]
fn redo_window_crash_before_commit() {
    let (mgr, engine) = setup();
    mgr.handle_submit(G, incr(5), SubmitMode::CommitAfter)
        .unwrap();
    // Decision never arrives; crash kills the running transaction.
    engine.crash();
    engine.recover().unwrap();
    assert_eq!(counter(&engine), 100, "nothing committed yet");
    mgr.handle_redo(G, incr(5)).unwrap();
    assert_eq!(counter(&engine), 105);
    mgr.handle_redo(G, incr(5)).unwrap();
    assert_eq!(counter(&engine), 105, "second redo is a no-op");
}

/// §3.3's mirror-image windows for undo: "a system crash between the commit
/// and the propagation may otherwise cause a local transaction to be doubly
/// undone".
#[test]
fn undo_window_crash_after_undo_commit() {
    let (mgr, engine) = setup();
    mgr.handle_submit(G, incr(5), SubmitMode::CommitBefore)
        .unwrap();
    assert_eq!(counter(&engine), 105);
    // Global abort: the undo re-ships the forward program; its inverse
    // runs and commits...
    mgr.handle_undo(G, incr(5)).unwrap();
    assert_eq!(counter(&engine), 100);
    // ...but the acknowledgement is lost in a crash; the coordinator
    // retransmits the undo.
    engine.crash();
    engine.recover().unwrap();
    for _ in 0..3 {
        mgr.handle_undo(G, incr(5)).unwrap();
        assert_eq!(counter(&engine), 100, "undo must not double-apply");
    }
}

/// Crash before the undo committed: retransmission must apply it exactly
/// once.
#[test]
fn undo_window_crash_before_undo_commit() {
    let (mgr, engine) = setup();
    mgr.handle_submit(G, incr(5), SubmitMode::CommitBefore)
        .unwrap();
    assert_eq!(counter(&engine), 105);
    // Crash races the undo: it never ran.
    engine.crash();
    engine.recover().unwrap();
    assert_eq!(counter(&engine), 105, "forward commit survived the crash");
    mgr.handle_undo(G, incr(5)).unwrap();
    assert_eq!(counter(&engine), 100);
    mgr.handle_undo(G, incr(5)).unwrap();
    assert_eq!(counter(&engine), 100);
}

/// The forward commit itself is durable: crash right after the submit
/// commits (commit-before), and the post-recovery prepare inquiry answers
/// "ready" from the marker, not from lost volatile state.
#[test]
fn forward_commit_survives_and_answers_inquiry() {
    let (mgr, engine) = setup();
    mgr.handle_submit(G, incr(5), SubmitMode::CommitBefore)
        .unwrap();
    engine.crash();
    engine.recover().unwrap();
    assert_eq!(counter(&engine), 105);
    let reply = mgr.handle_prepare(G).unwrap();
    assert_eq!(
        reply,
        amc::net::Payload::Vote {
            gtx: G,
            vote: amc::types::LocalVote::Ready
        }
    );
}
