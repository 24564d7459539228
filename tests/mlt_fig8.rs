//! F6 — the Fig. 8 scenario: two-level transactions with commuting
//! increments.
//!
//! The figure's setup: T1 increments x and y, T2 increments x; x and y live
//! on the *same page* p. Multi-level transactions allow the interleaving
//! because the L1 increment locks are compatible and the L0 page locks are
//! released at the end of each short L0 transaction — a single-level
//! system would hold the page lock to the end of the whole transaction.

use amc::core::{Federation, FederationConfig, ProtocolKind, TxnOutcome};
use amc::engine::{LocalEngine, TplConfig, TwoPLEngine};
use amc::lock::{LockOutcome, LockTable, PageMode, SemanticMode};
use amc::types::{ObjectId, Operation, SiteId, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

fn obj(site: u32, i: u64) -> ObjectId {
    ObjectId::new(u64::from(site) * (1 << 32) + i)
}

/// The lock-level core of Fig. 8: increment locks on x interleave, page
/// locks on p are held only per L0 transaction.
#[test]
fn fig8_lock_level_reenactment() {
    // L1: both transactions hold increment locks on x simultaneously.
    let mut l1: LockTable<u64, u32, SemanticMode> = LockTable::new();
    assert_eq!(
        l1.request(1, 1, SemanticMode::Increment),
        LockOutcome::Granted
    );
    assert_eq!(
        l1.request(2, 1, SemanticMode::Increment),
        LockOutcome::Granted
    );
    // And T1's increment lock on y too.
    assert_eq!(
        l1.request(1, 2, SemanticMode::Increment),
        LockOutcome::Granted
    );

    // L0: the page transactions take turns on page p, releasing at each
    // L0 end-of-transaction — T2's page access happens *between* T1's.
    let mut l0: LockTable<u32, u64, PageMode> = LockTable::new();
    assert_eq!(l0.request(11, 7, PageMode::Exclusive), LockOutcome::Granted); // T1's Incr(x) on p
    l0.release_all(11); // EOT(L0)
    assert_eq!(l0.request(21, 7, PageMode::Exclusive), LockOutcome::Granted); // T2's Incr(x) on p
    l0.release_all(21);
    assert_eq!(l0.request(12, 7, PageMode::Exclusive), LockOutcome::Granted); // T1's Incr(y) on p
    l0.release_all(12);

    // A single-level transaction would still hold p: simulate by keeping
    // the grant — the second transaction must queue.
    let mut flat: LockTable<u32, u64, PageMode> = LockTable::new();
    assert_eq!(
        flat.request(1, 7, PageMode::Exclusive),
        LockOutcome::Granted
    );
    assert_eq!(flat.request(2, 7, PageMode::Exclusive), LockOutcome::Queued);
}

/// End-to-end Fig. 8 under commit-before: two concurrent global increment
/// transactions on the same objects both commit, and the L1 lock manager
/// records zero rejections.
#[test]
fn fig8_end_to_end_interleaving() {
    let fed = Federation::new(FederationConfig::uniform(1, ProtocolKind::CommitBefore));
    fed.load_site(
        SiteId::new(1),
        &[
            (obj(1, 0), Value::counter(0)),
            (obj(1, 1), Value::counter(0)),
        ],
    )
    .unwrap();
    let fed = Arc::new(fed);

    // T1: Incr(x), Incr(y); T2: Incr(x) — Fig. 8 verbatim.
    let t1 = BTreeMap::from([(
        SiteId::new(1),
        vec![
            Operation::Increment {
                obj: obj(1, 0),
                delta: 1,
            },
            Operation::Increment {
                obj: obj(1, 1),
                delta: 1,
            },
        ],
    )]);
    let t2 = BTreeMap::from([(
        SiteId::new(1),
        vec![Operation::Increment {
            obj: obj(1, 0),
            delta: 1,
        }],
    )]);

    let mut handles = Vec::new();
    for program in [t1, t2] {
        let fed = fed.clone();
        handles.push(std::thread::spawn(move || {
            fed.run_transaction(&program).unwrap().outcome
        }));
    }
    for h in handles {
        assert_eq!(h.join().unwrap(), TxnOutcome::Committed);
    }
    let dump = fed.dumps().unwrap().remove(&SiteId::new(1)).unwrap();
    assert_eq!(dump[&obj(1, 0)], Value::counter(2), "both increments of x");
    assert_eq!(dump[&obj(1, 1)], Value::counter(1));
    assert_eq!(fed.l1_stats().victims, 0, "no L1 deadlocks");
}

/// The recovery half of §4.1's Fig. 8 discussion: undoing T1 by restoring
/// the *page* would destroy T2's increment; undoing by inverse action
/// (decrement) preserves it.
#[test]
fn fig8_inverse_action_undo_preserves_concurrent_increment() {
    let engine = TwoPLEngine::new_at(TplConfig::default(), SiteId::new(1));
    engine
        .bulk_load(&[(ObjectId::new(1), Value::counter(0))])
        .unwrap();

    // T1 increments x and commits; T2 increments x and commits.
    let t1 = engine.begin().unwrap();
    engine
        .execute(
            t1,
            &Operation::Increment {
                obj: ObjectId::new(1),
                delta: 5,
            },
        )
        .unwrap();
    engine.commit(t1).unwrap();
    let t2 = engine.begin().unwrap();
    engine
        .execute(
            t2,
            &Operation::Increment {
                obj: ObjectId::new(1),
                delta: 7,
            },
        )
        .unwrap();
    engine.commit(t2).unwrap();

    // Undo T1 by inverse action (a fresh decrement transaction), as the
    // multi-level recovery prescribes.
    let undo = engine.begin().unwrap();
    engine
        .execute(
            undo,
            &Operation::Increment {
                obj: ObjectId::new(1),
                delta: -5,
            },
        )
        .unwrap();
    engine.commit(undo).unwrap();

    // T2's increment survives — a before-image (page-state) undo of T1
    // would have set the counter back to 0 and lost it.
    assert_eq!(engine.dump().unwrap()[&ObjectId::new(1)], Value::counter(7));
}
