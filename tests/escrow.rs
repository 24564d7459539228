//! Escrow reserves end to end — the VODAK-flavoured semantic extension
//! (§4.1/§6: conflict relations derived from method commutativity).
//!
//! Reserves on the same stock counter hold compatible L1 locks, so booking
//! transactions interleave like Fig. 8's increments; the engine enforces
//! the non-negativity bound atomically at L0; and the §3.3 undo of an
//! aborted booking is a plain restock — no before image needed.

use amc::core::{Federation, FederationConfig, ProtocolKind, TxnOutcome};
use amc::types::{ObjectId, Operation, SiteId, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

fn obj(site: u32, i: u64) -> ObjectId {
    ObjectId::new(u64::from(site) * (1 << 32) + i)
}

fn loaded(protocol: ProtocolKind) -> Arc<Federation> {
    let mut fed = Federation::new(FederationConfig::uniform(2, protocol));
    fed.set_recording(true, false);
    for s in 1..=2u32 {
        fed.load_site(
            SiteId::new(s),
            &[
                (obj(s, 0), Value::counter(10)),
                (obj(s, 1), Value::counter(10)),
            ],
        )
        .unwrap();
    }
    Arc::new(fed)
}

fn booking(units: u64) -> BTreeMap<SiteId, Vec<Operation>> {
    BTreeMap::from([
        (
            SiteId::new(1),
            vec![Operation::Reserve {
                obj: obj(1, 0),
                amount: units,
            }],
        ),
        (
            SiteId::new(2),
            vec![Operation::Reserve {
                obj: obj(2, 0),
                amount: units,
            }],
        ),
    ])
}

/// `n` 1-unit bookings; `true`: a failed bound check is transaction
/// logic, an intended abort.
fn bookings(n: usize) -> Vec<(BTreeMap<SiteId, Vec<Operation>>, bool)> {
    (0..n).map(|_| (booking(1), true)).collect()
}

/// The stock counters at sites 1 and 2.
fn stock(fed: &Federation) -> (i64, i64) {
    let dumps = fed.dumps().unwrap();
    (
        dumps[&SiteId::new(1)][&obj(1, 0)].counter,
        dumps[&SiteId::new(2)][&obj(2, 0)].counter,
    )
}

#[test]
fn concurrent_reserves_interleave_and_never_oversell() {
    // 10 units of stock per site, 20 bookings from 8 clients. Commit-before
    // hands a booking's two reserves over as one round, so a booking whose
    // site-1 reserve failed still holds a site-2 unit until its inverse
    // runs (§3.3), and a concurrent booking can fail its bound check
    // against that unit: fewer than 10 may commit, with stock left over.
    // What holds is the bound and atomicity: no oversell, both legs of
    // every booking together, each commit one unit from each site, every
    // other booking an intended abort, and no L1 conflict among reserves.
    let fed = loaded(ProtocolKind::CommitBefore);
    let metrics = fed.run_concurrent(bookings(20), 8);
    let (s1, s2) = stock(&fed);
    assert!(s1 >= 0 && s2 >= 0, "oversold ({s1},{s2})");
    assert_eq!(s1, s2, "both legs of every booking are atomic");
    for left in [s1, s2] {
        assert_eq!(metrics.committed as i64, 10 - left, "{metrics:?}");
    }
    assert_eq!(metrics.aborted_intended, 20 - metrics.committed);
    assert_eq!(
        metrics.l1_rejections, 0,
        "reserves hold compatible L1 locks"
    );
}

#[test]
fn serial_reserves_sell_exactly_the_stock() {
    // One client: each booking sees the last one's outcome, so exactly 10
    // commit, 10 fail their bound check, and the stock ends at zero.
    let fed = loaded(ProtocolKind::CommitBefore);
    let metrics = fed.run_concurrent(bookings(20), 1);
    assert_eq!(metrics.committed, 10, "{metrics:?}");
    assert_eq!(metrics.aborted_intended, 10);
    assert_eq!(metrics.l1_rejections, 0);
    assert_eq!(stock(&fed), (0, 0));
}

#[test]
fn aborted_booking_restocks_via_inverse_transaction() {
    // Site 1 has stock; site 2's program fails its own logic after site 1
    // already reserved-and-committed — the §3.3 undo must restock.
    let fed = loaded(ProtocolKind::CommitBefore);
    let program = BTreeMap::from([
        (
            SiteId::new(1),
            vec![Operation::Reserve {
                obj: obj(1, 0),
                amount: 4,
            }],
        ),
        (
            SiteId::new(2),
            vec![Operation::Reserve {
                obj: obj(2, 0),
                amount: 999,
            }], // overdraw
        ),
    ]);
    let report = fed.run_transaction(&program).unwrap();
    assert_eq!(report.outcome, TxnOutcome::Aborted);
    let dumps = fed.dumps().unwrap();
    assert_eq!(
        dumps[&SiteId::new(1)][&obj(1, 0)],
        Value::counter(10),
        "the committed reserve was undone by a restock"
    );
    assert_eq!(dumps[&SiteId::new(2)][&obj(2, 0)], Value::counter(10));
}

#[test]
fn oversell_is_impossible_under_every_protocol() {
    for protocol in ProtocolKind::ALL {
        let fed = loaded(protocol);
        let programs: Vec<(BTreeMap<SiteId, Vec<Operation>>, bool)> =
            (0..15).map(|i| (booking(1 + (i % 2)), true)).collect();
        let metrics = fed.run_concurrent(programs, 6);
        let dumps = fed.dumps().unwrap();
        let s1 = dumps[&SiteId::new(1)][&obj(1, 0)].counter;
        let s2 = dumps[&SiteId::new(2)][&obj(2, 0)].counter;
        assert!(s1 >= 0 && s2 >= 0, "{protocol}: oversold ({s1},{s2})");
        // Conservation: stock consumed == stock reserved by commits.
        assert_eq!(s1, s2, "{protocol}: both legs of every booking are atomic");
        assert!(metrics.committed > 0, "{protocol}");
    }
}

#[test]
fn reserves_and_reads_conflict_at_l1() {
    // An auditor reading the stock must not interleave with reservers —
    // Read vs Escrow is a conflict, so the read sees a consistent value.
    let fed = loaded(ProtocolKind::CommitBefore);
    let audit = BTreeMap::from([
        (SiteId::new(1), vec![Operation::Read { obj: obj(1, 0) }]),
        (SiteId::new(2), vec![Operation::Read { obj: obj(2, 0) }]),
    ]);
    let mut programs: Vec<(BTreeMap<SiteId, Vec<Operation>>, bool)> =
        (0..8).map(|_| (booking(1), true)).collect();
    programs.push((audit, false));
    let metrics = fed.run_concurrent(programs, 6);
    assert_eq!(metrics.committed, 9, "{metrics:?}");
    // The audit committed; the history must be serializable (the L1 locks
    // force the read to a consistent cut).
    fed.history()
        .check_serializable(amc::verify::history::ConflictDefinition::Commutativity)
        .unwrap();
}
