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
//! The claimed shapes:
//!
//! * the wire costs real latency — every TCP p50 sits above its
//!   in-process twin (syscalls, framing, socket round trips per
//!   protocol message are not free);
//! * message complexity shows on the wire — 2PC's extra voting round
//!   buys it a higher TCP commit p50 than commit-before (the paper's
//!   protocol) at every client count, the E4 message-count ordering
//!   re-observed as socket round trips.

use crate::setup::{increment_heavy, offer, sweep, wire_config, Cell, Point, Regime, Wire, WIRES};
use crate::table::{cells, section, verdict, Col, TextTable};

/// The wire lane's TCP deployment.
const TCP: Wire = WIRES[1];

const COLS: [Col; 7] = [
    Col::fact("clients"),
    Col::fact("protocol"),
    Col::fact("wire"),
    Col::COMMITS,
    Col::TXN_S,
    Col::P50_MS,
    Col::P99_MS,
];

const HC_COLS: [Col; 9] = [
    Col::fact("runtime"),
    Col::fact("clients"),
    Col::COMMITS,
    Col::TXN_S,
    Col::P50_MS,
    Col::P99_MS,
    // The backpressure the event runtime applied past its in-flight cap.
    Col::SHED_PER_TXN,
    Col::fact("conns"),
    Col::fact("conns/core"),
];

/// Sites in every cell of both lanes.
const SITES: u64 = 3;

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

/// Run the wire sweep: every protocol over both `WIRES`.
pub fn run(txns: usize, client_counts: &[usize]) -> Vec<Cell> {
    let points = points(10_000, txns, client_counts);
    let lane = |regime| sweep(wire_config, &WIRES, &points, &[regime], offer);
    Regime::PROTOCOLS.into_iter().flat_map(lane).collect()
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

/// Run the high-concurrency sweep: every TCP deployment at `clients`
/// driver threads (the profile pins `clients >= 200`) hammering
/// commit-before — the paper's protocol, the cheapest message path, so
/// the transport is the bottleneck under test.
pub(crate) fn run_high_concurrency(txns: usize, clients: usize) -> Vec<Cell> {
    let tcp: Vec<Wire> = Wire::ALL.into_iter().filter(|w| w.is_tcp()).collect();
    let points = points(20_000, txns, &[clients]);
    sweep(wire_config, &tcp, &points, &[Regime::CommitBefore], offer)
}

/// Render the high-concurrency table.
pub(crate) fn hc_table(rows: &[Cell]) -> TextTable {
    // Connections per available core: the "how many sockets does a core
    // carry" figure the event loop exists to improve.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let facts = |c: &Cell| {
        vec![
            c.wire.label().to_string(),
            c.axis.clone(),
            c.connections.to_string(),
            format!("{:.2}", c.connections as f64 / cores),
        ]
    };
    cells(
        "E10 — high concurrency: server runtime × client flavour over loopback TCP",
        &HC_COLS,
        rows.iter().map(|c| (facts(c), &c.m)),
    )
}

/// The report section: both lanes.
pub fn report(quick: bool) -> String {
    let client_counts: &[usize] = if quick { &[1, 4] } else { &[1, 4, 8] };
    let rows = run(if quick { 80 } else { 240 }, client_counts);
    // Hundreds of driver threads, every server-runtime × client-flavour
    // combination.
    let hc = run_high_concurrency(if quick { 400 } else { 1000 }, 200);
    section(&[table(&rows)], &verdicts(&rows)) + &section(&[hc_table(&hc)], &hc_verdicts(&hc))
}

/// Shape checks for the high-concurrency profile.
pub(crate) fn hc_verdicts(rows: &[Cell]) -> Vec<String> {
    let mut out = Vec::new();
    // E10-4: every runtime serves hundreds of concurrent clients.
    let enough = rows.iter().all(|c| c.x >= 200.0);
    let all_commit = rows.iter().all(|c| c.m.committed > 0);
    out.push(verdict(
        enough && all_commit,
        format!(
            "E10-4: every runtime commits at >=200 concurrent clients ({} clients)",
            rows.first().map_or("0", |c| &c.axis)
        ),
    ));
    // E10-5: multiplexing collapses the connection count — the mux
    // transport rides one connection per site where the pooled client
    // opens a connection per in-flight request.
    let mux = rows.iter().find(|r| r.wire == Wire::EventMux);
    let pooled = rows.iter().find(|r| r.wire == Wire::EventPooled);
    let collapsed = match (mux, pooled) {
        (Some(m), Some(p)) => m.connections <= SITES && m.connections < p.connections,
        _ => false,
    };
    out.push(verdict(
        collapsed,
        format!(
            "E10-5: {} rides <=1 connection per site (mux {} vs pooled {})",
            Wire::EventMux.label(),
            mux.map(|r| r.connections).unwrap_or(0),
            pooled.map(|r| r.connections).unwrap_or(0)
        ),
    ));
    out
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_wire_sweep_is_protocol_major_and_only_tcp_cells_hold_connections() {
        let rows = run(16, &[1, 2]);
        assert_eq!(rows.len(), Regime::PROTOCOLS.len() * WIRES.len() * 2);
        let order: Vec<_> = rows.iter().map(|c| (c.regime, c.wire, c.x)).collect();
        assert_eq!(order[0], (Regime::Classic2pc, Wire::InProcess, 1.0));
        assert_eq!(order[3], (Regime::Classic2pc, TCP, 2.0));
        assert_eq!(order[4].0, Regime::CommitAfter);
        for cell in &rows {
            assert_eq!(cell.m.committed, 16, "{:?}", cell.regime);
            assert_eq!(cell.connections > 0, cell.wire == TCP);
        }
        assert!(verdicts(&rows)[0].starts_with("[PASS] E10-1"));
    }
}
