//! **E12 — Paxos Commit: the blocking window, and what replication
//! costs at f = 1** (amc-paxos + the threaded federation).
//!
//! Two measurements on the replicated-coordinator runtime:
//!
//! * **Blocking window vs coordinator outage.** A transfer is driven to
//!   the classical in-doubt point — both participants prepared, their
//!   votes replicated to the acceptor group, the incumbent coordinator
//!   replica dead before any decision. Under classic 2PC *only the
//!   restarted incumbent* may decide, so the prepared sites stay wedged
//!   for the whole restart delay `D`: we emulate that lane by holding
//!   resolution until `D` has elapsed. Under Paxos Commit a standby
//!   replica decides immediately from the acceptor logs. The claimed
//!   shape: the classic window tracks `D` (the outage *is* the window)
//!   while the Paxos window stays flat — takeover latency only,
//!   independent of how long the dead incumbent stays dead.
//!
//! * **Messages + commit latency at f = 1.** The same workload over the
//!   same five sites, with and without a 3-acceptor (2f+1, f = 1)
//!   Paxos Commit group co-located on sites 1–3. Replication is not
//!   free: registration and vote replication add messages, and every
//!   acceptor append is a real fsync. The claimed shape: a bounded
//!   constant-factor message overhead and a latency cost that buys the
//!   non-blocking property measured above.

use crate::setup::{load, Cell, ProgramBatch};
use crate::table::{cells, opt2, section, verdict, Col, TextTable};
use amc_core::{Federation, FederationConfig, TxnOutcome};
use amc_types::{Operation, ProtocolKind, SiteId};
use amc_workload::object;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SITES: u32 = 5; // sites 1..=3 host the acceptors; 4 and 5 trade
const ACCEPTORS: u32 = 3; // 2f+1 with f = 1
const OBJECTS: u64 = 64;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("amc-e12-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A loaded 2PC federation; with `paxos`, `(acceptor log dir, group-commit
/// linger)`, under a Paxos Commit acceptor group.
fn loaded(paxos: Option<(&std::path::Path, Option<Duration>)>) -> Federation {
    let mut cfg = FederationConfig::uniform(SITES, ProtocolKind::TwoPhaseCommit);
    if let Some((dir, linger)) = paxos {
        cfg = cfg.with_paxos_commit(ACCEPTORS, dir);
        if let Some(d) = linger {
            cfg.paxos = cfg.paxos.map(|p| p.with_acceptor_linger(d));
        }
    }
    let fed = Federation::new(cfg);
    load(&fed, OBJECTS);
    fed
}

/// Transfer over object pair `i % OBJECTS`: site 4 pays site 5.
fn transfer(i: u64) -> BTreeMap<SiteId, Vec<Operation>> {
    let pair = i % OBJECTS;
    amc_workload::transfer(
        object(SiteId::new(4), pair),
        object(SiteId::new(5), pair),
        1,
    )
}

// --- part A: blocking window vs coordinator outage -------------------------

/// One measured outage duration.
#[derive(Debug, Clone)]
pub struct WindowRow {
    /// Incumbent restart delay, ms — how long the dead coordinator
    /// replica stays dead.
    pub outage_ms: u64,
    /// Classic 2PC: prepared sites blocked until the restarted incumbent
    /// resolves — restart delay + its recovery sweep + the retried
    /// probe transfer, ms.
    pub classic_window_ms: f64,
    /// Paxos Commit: a standby replica decides from the acceptor logs at
    /// once — takeover sweep + the retried probe transfer, ms.
    pub paxos_window_ms: f64,
    /// classic / paxos.
    pub ratio: Option<f64>,
}

/// Drive a transfer in doubt (incumbent dies after both prepare votes
/// replicate), then measure how long the wedged objects stay blocked
/// when resolution must wait `restart_delay` (classic lane: only the
/// incumbent may decide) vs not at all (Paxos lane: any standby may).
fn run_window_cell(outage_ms: u64, classic: bool) -> f64 {
    let lane = if classic { "classic" } else { "paxos" };
    let dir = scratch_dir(&format!("window-{lane}-{outage_ms}"));
    let fed = loaded(Some((&dir, None)));
    // Warm the path so neither lane pays first-transaction setup.
    assert_eq!(
        fed.run_transaction(&transfer(1)).expect("warmup").outcome,
        TxnOutcome::Committed
    );
    fed.inject_coordinator_crash_after_votes(2);
    let t0 = Instant::now();
    let in_doubt = fed.run_transaction(&transfer(0));
    assert!(in_doubt.is_err(), "the incumbent must die in doubt");
    if classic {
        // Classic 2PC: no standby exists. The prepared participants hold
        // their locks until the incumbent is back — the restart delay is
        // protocol-mandated dead time.
        std::thread::sleep(Duration::from_millis(outage_ms));
        fed.replica_driver(0)
            .run_once()
            .expect("restarted incumbent sweep");
    } else {
        // Paxos Commit: standby replica 1 reads the acceptor logs and
        // decides now; the outage duration never enters the window.
        fed.replica_driver(1).run_once().expect("standby sweep");
    }
    // The window closes when the wedged objects take a new transfer.
    let probe = fed.run_transaction(&transfer(0)).expect("probe");
    assert_eq!(probe.outcome, TxnOutcome::Committed, "{lane} probe");
    let window = t0.elapsed().as_secs_f64() * 1e3;
    let _ = std::fs::remove_dir_all(&dir);
    window
}

// --- part B: messages + latency at f = 1 -----------------------------------

/// Transfers `0..txns`, each meant to commit. Consecutive transfers use
/// different object pairs, so the `OBJECTS` or fewer in flight at once
/// never conflict.
fn transfers(txns: u64) -> ProgramBatch {
    (0..txns).map(|i| (transfer(i), false)).collect()
}

const COST_COLS: [Col; 5] = [
    Col::fact("mode"),
    Col::COMMITS.named("committed"),
    // Registration, vote replication and decision distribution included.
    Col::MSG_PER_TXN.named("msgs/txn"),
    Col::P50_US,
    Col::P99_US,
];

/// One protocol lane — "2pc" or "paxos-commit(3)" — from one client.
fn run_cost_cell(mode: &'static str, paxos: bool, txns: u64) -> Cell {
    let dir = scratch_dir(&format!("cost-{mode}"));
    let fed = Arc::new(loaded(paxos.then_some((dir.as_path(), None))));
    let m = fed.run_concurrent(transfers(txns), 1);
    let _ = std::fs::remove_dir_all(&dir);
    Cell::of(mode.to_string(), 0.0, txns as usize, m)
}

// --- part C: group-commit linger on the acceptor log -----------------------

const LINGER_COLS: [Col; 8] = [
    Col::fact("acceptor sync"),
    Col::COMMITS.named("committed"),
    Col::TXN_S,
    Col::P50_US,
    Col::P99_US,
    Col::fact("appends"),
    Col::fact("fsyncs"),
    Col::fact("appends/fsync"),
];

/// One measured acceptor-sync discipline under concurrent load: the cell
/// ("fsync-per-append" or "group-commit <µs>"), the durability-critical
/// frames appended across all acceptor logs, and the fsyncs actually paid
/// for them (== appends without a linger).
pub(crate) type LingerCell = (Cell, u64, u64);

/// Appends amortised per fsync — the group-commit batching factor.
fn batching((_, appends, fsyncs): &LingerCell) -> f64 {
    *appends as f64 / (*fsyncs as f64).max(1.0)
}

/// Drive `txns` disjoint transfers through one Paxos Commit federation
/// from `clients` closed-loop clients and measure commit latency under
/// the given acceptor sync discipline. Every acceptor append is
/// durability-critical; without a linger each one pays its own fsync,
/// serialised under the acceptor lock — exactly the collapse group commit
/// exists to amortise. Disjoint objects: pure fsync pressure, no lock
/// conflicts.
fn run_linger_cell(linger: Option<Duration>, txns: u64, clients: usize) -> LingerCell {
    let label = match linger {
        None => "fsync-per-append".to_string(),
        Some(d) => format!("group-commit {}µs", d.as_micros()),
    };
    let dir = scratch_dir(&format!("linger-{}", linger.map_or(0, |d| d.as_micros())));
    let fed = Arc::new(loaded(Some((&dir, linger))));
    let m = fed.run_concurrent(transfers(txns), clients);
    // Read the durability counters before the federation is dropped:
    // frames appended across every acceptor log, and how many fsyncs
    // actually covered them (sync-per-record pays one per frame).
    let mut appends = 0u64;
    let mut group_fsyncs = 0u64;
    if let Some(tp) = fed.paxos_transport() {
        for s in 1..=SITES {
            if let Some(h) = tp.host(SiteId::new(s)) {
                appends += h.log_frames() as u64;
                group_fsyncs += h.group_fsyncs();
            }
        }
    }
    let fsyncs = if linger.is_some() {
        group_fsyncs
    } else {
        appends
    };
    let _ = std::fs::remove_dir_all(&dir);
    (Cell::of(label, 0.0, txns as usize, m), appends, fsyncs)
}

/// Run part C: the same concurrent workload with and without the
/// acceptor group-commit linger.
pub(crate) fn run_linger(txns: u64, clients: usize) -> Vec<LingerCell> {
    vec![
        run_linger_cell(None, txns, clients),
        run_linger_cell(Some(Duration::from_micros(200)), txns, clients),
    ]
}

/// Render part C.
pub(crate) fn linger_table(rows: &[LingerCell]) -> TextTable {
    let facts = |row: &LingerCell| {
        let (cell, appends, fsyncs) = row;
        let batching = format!("{:.1}", batching(row));
        vec![
            cell.axis.clone(),
            appends.to_string(),
            fsyncs.to_string(),
            batching,
        ]
    };
    cells(
        "E12c — acceptor group commit under concurrency (paxos-commit(3), 8 disjoint streams)",
        &LINGER_COLS,
        rows.iter().map(|row| (facts(row), &row.0.m)),
    )
}

/// The shape check for part C.
pub(crate) fn linger_verdicts(rows: &[LingerCell]) -> Vec<String> {
    let base = rows.iter().find(|r| r.0.axis.starts_with("fsync"));
    let grouped = rows.iter().find(|r| r.0.axis.starts_with("group"));
    // The durability arithmetic, not the wall clock: the linger must
    // make concurrent appends share fsyncs (≥ 2× batching) without
    // losing a commit. Throughput is reported but not gated on — on a
    // fast medium the fsync is cheap enough that the wall-clock delta
    // drowns in scheduler noise.
    let amortised = match (base, grouped) {
        (Some((b, ..)), Some(g @ (cell, appends, fsyncs))) => {
            cell.m.committed == b.m.committed && fsyncs < appends && batching(g) >= 2.0
        }
        _ => false,
    };
    vec![verdict(
        amortised,
        "E12-4: group commit amortises the acceptor durability point — concurrent \
         appends share fsyncs at >= 2x batching, every commit kept",
    )]
}

/// Run both sweeps.
pub fn run(outages_ms: &[u64], cost_txns: u64) -> (Vec<WindowRow>, Vec<Cell>) {
    let windows = outages_ms
        .iter()
        .map(|&d| {
            let classic = run_window_cell(d, true);
            let paxos = run_window_cell(d, false);
            WindowRow {
                outage_ms: d,
                classic_window_ms: classic,
                paxos_window_ms: paxos,
                ratio: (paxos > 0.0).then(|| classic / paxos),
            }
        })
        .collect();
    let costs = vec![
        run_cost_cell("2pc", false, cost_txns),
        run_cost_cell("paxos-commit(3)", true, cost_txns),
    ];
    (windows, costs)
}

/// Render part A.
pub(crate) fn window_table(rows: &[WindowRow]) -> TextTable {
    let mut t = TextTable::new(
        "E12a — blocking window after a coordinator crash (in-doubt transfer, f = 1)",
        &[
            "outage ms",
            "classic 2PC window ms",
            "paxos window ms",
            "classic/paxos",
        ],
    );
    for r in rows {
        t.row(vec![
            r.outage_ms.to_string(),
            format!("{:.2}", r.classic_window_ms),
            format!("{:.2}", r.paxos_window_ms),
            opt2(r.ratio),
        ]);
    }
    t
}

/// Render part B.
pub(crate) fn cost_table(rows: &[Cell]) -> TextTable {
    cells(
        "E12b — replication cost at f = 1 (5 sites, acceptors co-located on 1-3)",
        &COST_COLS,
        rows.iter().map(|c| (vec![c.axis.clone()], &c.m)),
    )
}

/// The shape checks for this experiment.
pub fn verdicts(windows: &[WindowRow], costs: &[Cell]) -> Vec<String> {
    let mut out = Vec::new();
    // E12-1: the classic window is the outage — it contains the full
    // restart delay in every row.
    let classic_tracks = windows
        .iter()
        .all(|r| r.classic_window_ms >= r.outage_ms as f64);
    out.push(verdict(
        classic_tracks,
        "E12-1: the classic 2PC window contains the full coordinator outage in every row",
    ));
    // E12-2: the Paxos window is flat and beats classic everywhere — the
    // longest outage never reaches the standby's takeover latency.
    let paxos_flat = windows
        .iter()
        .all(|r| r.paxos_window_ms < r.classic_window_ms)
        && match (
            windows.iter().map(|r| r.paxos_window_ms).reduce(f64::max),
            windows.iter().map(|r| r.outage_ms).max(),
        ) {
            (Some(worst_paxos), Some(longest_outage)) => worst_paxos < longest_outage as f64,
            _ => false,
        };
    out.push(verdict(
        paxos_flat,
        "E12-2: the Paxos Commit window stays below every classic window and below the \
         longest outage — takeover latency, not dead time",
    ));
    // E12-3: replication costs a bounded constant factor — everything
    // still commits, and messages/txn grow by at most 6x (registration +
    // vote replication + decision notes across 3 acceptors).
    let classic = costs.iter().find(|c| c.axis == "2pc");
    let paxos = costs.iter().find(|c| c.axis != "2pc");
    let bounded = matches!(
        (classic, paxos),
        (Some(c), Some(p))
            if c.m.committed > 0
                && p.m.committed == c.m.committed
                && p.m.messages <= 6 * c.m.messages
    );
    out.push(verdict(
        bounded,
        "E12-3: f = 1 replication keeps every commit and costs at most 6x the messages",
    ));
    out
}

/// The report section: blocking window and cost, then acceptor linger.
pub fn report(quick: bool) -> String {
    let outages: &[u64] = if quick { &[25, 200] } else { &[25, 100, 400] };
    let (windows, costs) = run(outages, if quick { 60 } else { 200 });
    let linger = run_linger(if quick { 200 } else { 480 }, 8);
    section(
        &[window_table(&windows), cost_table(&costs)],
        &verdicts(&windows, &costs),
    ) + &section(&[linger_table(&linger)], &linger_verdicts(&linger))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// E12-3 and E12-4 are count verdicts; so are the exact message
    /// counts behind them.
    #[test]
    fn replication_triples_the_messages_and_the_linger_shares_fsyncs() {
        let costs = [
            run_cost_cell("2pc", false, 16),
            run_cost_cell("paxos-commit(3)", true, 16),
        ];
        assert_eq!(costs[0].m.messages_per_commit(), Some(12.0));
        assert_eq!(costs[1].m.messages_per_commit(), Some(36.0));
        assert!(costs
            .iter()
            .all(|c| c.m.committed == 16 && c.m.latency_us.n() == 16));
        assert!(verdicts(&[], &costs)[2].starts_with("[PASS] E12-3"));

        let linger = run_linger(64, 8);
        let (plain, appends, fsyncs) = &linger[0];
        assert_eq!(plain.m.committed, 64);
        assert_eq!(appends, fsyncs, "without a linger every append is an fsync");
        assert!(linger_verdicts(&linger)[0].starts_with("[PASS] E12-4"));
    }
}
