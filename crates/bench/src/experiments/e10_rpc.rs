//! **E10 — the wire: loopback TCP vs in-process dispatch** (amc-rpc).
//!
//! Run the same mixed workload through the same coordinator against the
//! same engines, swapping only the [`Wire`] of the [`Testbed`]: direct
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

use crate::setup::{program_batch, wire_config, Testbed, Wire, WIRES};
use crate::table::{opt2, section, verdict, TextTable};
use amc_mlt::ConflictPolicy;
use amc_types::ProtocolKind;
use amc_workload::{OpMix, WorkloadSpec};

/// The wire lane's TCP deployment.
const TCP: Wire = WIRES[1];

/// One measured cell of either lane.
#[derive(Debug, Clone)]
pub struct Row {
    /// Client (driver thread) concurrency.
    pub clients: usize,
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// Deployment under test.
    pub wire: Wire,
    /// Commits achieved.
    pub committed: u64,
    /// Committed txns per second.
    pub throughput: Option<f64>,
    /// Median commit latency, ms.
    pub p50_ms: Option<f64>,
    /// Tail commit latency, ms.
    pub p99_ms: Option<f64>,
    /// Load-shed (`BufferExhausted`) replies the clients absorbed per
    /// committed transaction — the backpressure the event runtime
    /// applied past its in-flight cap.
    pub sheds_per_txn: Option<f64>,
    /// Server-side connections, summed across site servers.
    pub connections: u64,
}

/// Low contention, increment-heavy, 2-site transactions: the measured
/// cost is the message path, not lock queueing.
fn spec() -> WorkloadSpec {
    WorkloadSpec {
        sites: 3,
        objects_per_site: 64,
        zipf_theta: 0.0,
        ops_per_txn: 4,
        sites_per_txn: 2,
        mix: OpMix {
            write: 0.0,
            increment: 0.9,
            reserve: 0.0,
        },
        intended_abort_prob: 0.0,
    }
}

/// Run one (protocol, wire, clients) cell on the seeded batch `seed`.
fn run_cell(protocol: ProtocolKind, wire: Wire, clients: usize, txns: usize, seed: u64) -> Row {
    let spec = spec();
    let cfg = wire_config(spec.sites, protocol, ConflictPolicy::Semantic);
    let bed = Testbed::build(cfg, wire, spec.objects_per_site);
    let m = bed.run_concurrent(program_batch(&spec, seed + clients as u64, txns), clients);
    Row {
        clients,
        protocol,
        wire,
        committed: m.committed,
        throughput: m.throughput(),
        p50_ms: m.latency_p50_ms(),
        p99_ms: m.latency_p99_ms(),
        sheds_per_txn: m.sheds_per_commit(),
        connections: bed.fleet().connections(),
    }
}

/// Run the wire sweep: every protocol over both [`WIRES`].
pub fn run(txns: usize, client_counts: &[usize]) -> Vec<Row> {
    let mut rows = Vec::new();
    for protocol in ProtocolKind::ALL {
        for wire in WIRES {
            for &clients in client_counts {
                rows.push(run_cell(protocol, wire, clients, txns, 10_000));
            }
        }
    }
    rows
}

/// Render as the report table.
pub fn table(rows: &[Row]) -> TextTable {
    let mut t = TextTable::new(
        "E10 — the wire: loopback TCP (amc-rpc) vs in-process dispatch",
        &[
            "clients", "protocol", "wire", "commits", "txn/s", "p50 ms", "p99 ms",
        ],
    );
    for r in rows {
        t.row(vec![
            r.clients.to_string(),
            r.protocol.label().to_string(),
            r.wire.label().to_string(),
            r.committed.to_string(),
            opt2(r.throughput),
            opt2(r.p50_ms),
            opt2(r.p99_ms),
        ]);
    }
    t
}

/// Run the high-concurrency sweep: every TCP deployment at `clients`
/// driver threads (the profile pins `clients >= 200`) hammering
/// commit-before — the paper's protocol, the cheapest message path, so
/// the transport is the bottleneck under test.
pub fn run_high_concurrency(txns: usize, clients: usize) -> Vec<Row> {
    Wire::ALL
        .into_iter()
        .filter(|w| w.is_tcp())
        .map(|w| run_cell(ProtocolKind::CommitBefore, w, clients, txns, 20_000))
        .collect()
}

/// Render the high-concurrency table.
pub fn hc_table(rows: &[Row]) -> TextTable {
    let mut t = TextTable::new(
        "E10 — high concurrency: server runtime × client flavour over loopback TCP",
        &[
            "runtime",
            "clients",
            "commits",
            "txn/s",
            "p50 ms",
            "p99 ms",
            "shed/txn",
            "conns",
            "conns/core",
        ],
    );
    // Connections per available core: the "how many sockets does a core
    // carry" figure the event loop exists to improve.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    for r in rows {
        t.row(vec![
            r.wire.label().to_string(),
            r.clients.to_string(),
            r.committed.to_string(),
            opt2(r.throughput),
            opt2(r.p50_ms),
            opt2(r.p99_ms),
            opt2(r.sheds_per_txn),
            r.connections.to_string(),
            format!("{:.2}", r.connections as f64 / cores),
        ]);
    }
    t
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
pub fn hc_verdicts(rows: &[Row]) -> Vec<String> {
    let mut out = Vec::new();
    // E10-4: every runtime serves hundreds of concurrent clients.
    let enough = rows.iter().all(|r| r.clients >= 200);
    let all_commit = rows.iter().all(|r| r.committed > 0);
    out.push(verdict(
        enough && all_commit,
        format!(
            "E10-4: every runtime commits at >=200 concurrent clients ({} clients)",
            rows.first().map(|r| r.clients).unwrap_or(0)
        ),
    ));
    // E10-5: multiplexing collapses the connection count — the mux
    // transport rides one connection per site where the pooled client
    // opens a connection per in-flight request.
    let mux = rows.iter().find(|r| r.wire == Wire::EventMux);
    let pooled = rows.iter().find(|r| r.wire == Wire::EventPooled);
    let collapsed = match (mux, pooled) {
        (Some(m), Some(p)) => m.connections <= spec().sites as u64 && m.connections < p.connections,
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
pub fn verdicts(rows: &[Row]) -> Vec<String> {
    let mut out = Vec::new();
    // E10-1: every cell commits — all three protocols complete the
    // workload over real sockets at every client count.
    let all_commit = rows.iter().all(|r| r.committed > 0);
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
        let twin = rows.iter().find(|q| {
            q.wire == Wire::InProcess && q.protocol == r.protocol && q.clients == r.clients
        });
        if let (Some(tcp), Some(inp)) = (r.p50_ms, twin.and_then(|q| q.p50_ms)) {
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
    let p50 = |protocol: ProtocolKind, clients: usize| {
        rows.iter()
            .find(|r| r.wire == TCP && r.protocol == protocol && r.clients == clients)
            .and_then(|r| r.p50_ms)
    };
    let mut counts: Vec<usize> = rows
        .iter()
        .filter(|r| r.wire == TCP)
        .map(|r| r.clients)
        .collect();
    counts.sort_unstable();
    counts.dedup();
    let mut ordered = !counts.is_empty();
    let mut shown = Vec::new();
    for &c in &counts {
        match (
            p50(ProtocolKind::TwoPhaseCommit, c),
            p50(ProtocolKind::CommitBefore, c),
        ) {
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
