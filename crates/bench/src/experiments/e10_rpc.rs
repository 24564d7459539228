//! **E10 — the wire: loopback TCP vs in-process dispatch** (amc-rpc).
//!
//! Run the same mixed workload through the same coordinator against the
//! same engines, swapping only the [`Wire`] of the
//! [`Testbed`](crate::setup::Testbed): direct
//! in-process function calls vs the real framed codec over loopback TCP
//! (thread-per-connection site servers, deadline/retry client). Sweep
//! client concurrency and report committed-transaction throughput with
//! p50/p99 commit latency per protocol.
//!
//! One more cell puts the deployed wire under hundreds of concurrent
//! clients: commit-before over `threaded+pooled` at [`MANY_CLIENTS`].
//!
//! The claimed shapes:
//!
//! * the wire costs real latency — every TCP p50 sits above its
//!   in-process twin (syscalls, framing, socket round trips per
//!   protocol message are not free);
//! * message complexity shows on the wire — 2PC's extra voting round
//!   buys it a higher TCP commit p50 than commit-before (the paper's
//!   protocol) at every client count, the E4 message-count ordering
//!   re-observed as socket round trips;
//! * the deployed wire serves hundreds of concurrent clients and loses
//!   nothing — a count, not a timing.

use crate::setup::{increment_heavy, offer, sweep, wire_config, Cell, Point, Regime, Wire};
use crate::table::{cells, section, verdict, Col, TextTable};

/// The wire lane's TCP deployment.
const TCP: Wire = Wire::ThreadedPooled;

/// Driver threads in E10-4's cell.
const MANY_CLIENTS: usize = 200;

const COLS: [Col; 7] = [
    Col::fact("clients"),
    Col::fact("protocol"),
    Col::fact("wire"),
    Col::COMMITS,
    Col::TXN_S,
    Col::P50_MS,
    Col::P99_MS,
];

/// One sweep point per client count, its batch drawn from `seed + clients`.
/// Low contention, increment-heavy, 2-site transactions: the measured cost
/// is the message path, not lock queueing.
fn points(seed: u64, txns: usize, client_counts: &[usize]) -> Vec<Point> {
    let spec = increment_heavy(0.0, 4);
    let point = |&clients: &usize| {
        let seed = seed + clients as u64;
        Point::of_spec(clients as f64, &spec, seed, txns, clients)
    };
    client_counts.iter().map(point).collect()
}

/// Run the wire sweep: every protocol over both wires.
pub fn run(txns: usize, client_counts: &[usize]) -> Vec<Cell> {
    let points = points(10_000, txns, client_counts);
    let lane = |regime| sweep(wire_config, &Wire::ALL, &points, &[regime], offer);
    Regime::PROTOCOLS.into_iter().flat_map(lane).collect()
}

/// E10-4's cell: `txns` programs from [`MANY_CLIENTS`] driver threads
/// over the deployed wire, under commit-before — the paper's protocol,
/// the cheapest message path, so the transport is what is under load.
fn run_many_clients(txns: usize) -> Vec<Cell> {
    let points = points(20_000, txns, &[MANY_CLIENTS]);
    sweep(wire_config, &[TCP], &points, &[Regime::CommitBefore], offer)
}

/// Render as the report table.
pub fn table(rows: &[Cell]) -> TextTable {
    let facts = |c: &Cell| [c.labels(), vec![c.wire.label().to_string()]].concat();
    cells(
        "E10 — the wire: loopback TCP (amc-rpc) vs in-process dispatch",
        &COLS,
        rows.iter().map(|c| (facts(c), &c.m)),
    )
}

/// The report section: the wire sweep, then E10-4's cell.
pub fn report(quick: bool) -> String {
    let client_counts: &[usize] = if quick { &[1, 4] } else { &[1, 4, 8] };
    let mut rows = run(if quick { 80 } else { 240 }, client_counts);
    rows.extend(run_many_clients(if quick { 400 } else { 1000 }));
    section(&[table(&rows)], &verdicts(&rows))
}

/// The shape checks for this experiment.
pub fn verdicts(rows: &[Cell]) -> Vec<String> {
    let mut out = Vec::new();
    // E10-1: every cell commits — all three protocols complete the
    // workload over real sockets at every client count.
    let all_commit = rows.iter().all(|c| c.m.committed > 0);
    out.push(verdict(
        all_commit,
        format!(
            "E10-1: every (protocol, wire, clients) cell commits transactions ({} cells)",
            rows.len()
        ),
    ));
    // E10-2: the wire costs latency — per (protocol, clients), TCP p50 is
    // at least the in-process p50.
    let mut pairs = 0;
    let mut costly = 0;
    for r in rows.iter().filter(|r| r.wire == TCP) {
        let twin = rows
            .iter()
            .find(|q| q.wire == Wire::InProcess && q.regime == r.regime && q.x == r.x);
        let p50s = (
            r.m.latency_p50_ms(),
            twin.and_then(|q| q.m.latency_p50_ms()),
        );
        if let (Some(tcp), Some(inp)) = p50s {
            pairs += 1;
            if tcp >= inp {
                costly += 1;
            }
        }
    }
    out.push(verdict(
        pairs > 0 && costly == pairs,
        format!(
            "E10-2: {} p50 >= {} p50 in every pair ({costly}/{pairs})",
            TCP.label(),
            Wire::InProcess.label()
        ),
    ));
    // E10-3: message complexity shows on the wire — at every client
    // count, 2PC's extra voting round costs it at least commit-before's
    // TCP p50 (E4's message ordering, re-observed as socket round trips).
    let p50 = |regime: Regime, clients: &str| {
        rows.iter()
            .find(|r| r.wire == TCP && r.regime == regime && r.axis == clients)
            .and_then(|r| r.m.latency_p50_ms())
    };
    let two_pc_cells = rows
        .iter()
        .filter(|r| r.wire == TCP && r.regime == Regime::Classic2pc);
    let counts: Vec<&str> = two_pc_cells.map(|r| r.axis.as_str()).collect();
    let mut ordered = !counts.is_empty();
    let mut shown = Vec::new();
    for c in counts {
        match (p50(Regime::Classic2pc, c), p50(Regime::CommitBefore, c)) {
            (Some(two_pc), Some(cb)) => {
                if two_pc < cb {
                    ordered = false;
                }
                shown.push(format!("{c}c {two_pc:.2}/{cb:.2}"));
            }
            _ => ordered = false,
        }
    }
    out.push(verdict(
        ordered,
        format!(
            "E10-3: tcp p50(2pc) >= tcp p50(commit-before) at every client count (2pc/cb ms: {})",
            shown.join(", ")
        ),
    ));
    // E10-4: hundreds of concurrent clients on the deployed wire, and
    // every program offered commits — counted, not timed.
    let many: Vec<&Cell> = rows
        .iter()
        .filter(|c| c.wire == TCP && c.x >= MANY_CLIENTS as f64)
        .collect();
    let whole = !many.is_empty() && many.iter().all(|c| c.m.committed == c.offered as u64);
    let counts: Vec<String> = many
        .iter()
        .map(|c| format!("{}/{}", c.m.committed, c.offered))
        .collect();
    out.push(verdict(
        whole,
        format!(
            "E10-4: {} commits every program at {MANY_CLIENTS} concurrent clients ({})",
            TCP.label(),
            counts.join(", ")
        ),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_wire_sweep_is_protocol_major() {
        let rows = run(16, &[1, 2]);
        assert_eq!(rows.len(), Regime::PROTOCOLS.len() * Wire::ALL.len() * 2);
        let order: Vec<_> = rows.iter().map(|c| (c.regime, c.wire, c.x)).collect();
        assert_eq!(order[0], (Regime::Classic2pc, Wire::InProcess, 1.0));
        assert_eq!(order[3], (Regime::Classic2pc, TCP, 2.0));
        assert_eq!(order[4].0, Regime::CommitAfter);
        for cell in &rows {
            assert_eq!(cell.m.committed, 16, "{:?}", cell.regime);
        }
        assert!(verdicts(&rows)[0].starts_with("[PASS] E10-1"));
    }

    /// E10-4 is a count: it passes when the many-client cell committed
    /// every program offered, fails on one short, and fails with no cell.
    #[test]
    fn e10_4_counts_every_offered_program() {
        let e10_4 = |rows: &[Cell]| verdicts(rows).pop().unwrap();
        let mut rows = run_many_clients(MANY_CLIENTS);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].m.committed, MANY_CLIENTS as u64);
        assert!(e10_4(&rows).starts_with("[PASS] E10-4"), "{}", e10_4(&rows));
        rows[0].m.committed -= 1;
        assert!(e10_4(&rows).starts_with("[FAIL] E10-4"));
        assert!(e10_4(&[]).starts_with("[FAIL] E10-4"));
    }
}
