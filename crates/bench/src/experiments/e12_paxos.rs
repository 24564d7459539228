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
//!   free: registration and vote replication add messages. The claimed
//!   shape: a bounded constant-factor message overhead that buys the
//!   non-blocking property measured above. Each acceptor writes through
//!   its site's log, and every force is modelled at `FORCE`, so the
//!   latency columns price the extra rounds and the forces they wait for.
//!
//! * **Forces at the acceptor sites vs streams.** Every acceptor row is
//!   forced before its reply leaves, through its site's group committer
//!   (no timer). Sites 1–3 run no transfer, so their logs' counters are
//!   the acceptors' work: one stream pays one force per row, and
//!   concurrent streams arriving during each other's forces share them.

use crate::setup::{load, Cell, ProgramBatch};
use crate::table::{cells, opt2, section, verdict, Col, TextTable};
use amc_core::{Federation, FederationConfig, TxnOutcome};
use amc_types::{Operation, ProtocolKind, SiteId};
use amc_workload::object;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SITES: u32 = 5; // sites 1..=3 host the acceptors; 4 and 5 trade
const ACCEPTORS: u32 = 3; // 2f+1 with f = 1
const OBJECTS: u64 = 64;
/// The modelled force of every log, engine and acceptor: the durability
/// wait a reply pays and a group-commit batch amortises.
const FORCE: Duration = Duration::from_micros(500);

/// A loaded 2PC federation, every force modelled at [`FORCE`]; with
/// `paxos`, under a Paxos Commit acceptor group.
fn loaded(paxos: bool) -> Federation {
    let mut cfg = FederationConfig::uniform(SITES, ProtocolKind::TwoPhaseCommit);
    cfg.tpl.group_commit.force_latency = FORCE;
    if paxos {
        cfg = cfg.with_paxos_commit(ACCEPTORS);
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
    let fed = loaded(true);
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
    t0.elapsed().as_secs_f64() * 1e3
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
    let fed = Arc::new(loaded(paxos));
    let m = fed.run_concurrent(transfers(txns), 1);
    Cell::of(mode.to_string(), 0.0, txns as usize, m)
}

// --- part C: forces at the acceptor sites vs streams ----------------------

const FORCE_COLS: [Col; 6] = [
    Col::fact("streams"),
    Col::COMMITS.named("committed"),
    Col::fact("appends at 1-3"),
    Col::fact("forces at 1-3"),
    Col::fact("forces/commit"),
    Col::TXN_S,
];

/// One stream count's cell, with the rows appended to the logs of the
/// acceptor sites and the forces that covered them.
pub(crate) type ForceCell = (Cell, u64, u64);

/// Forces at the acceptor sites per committed transfer.
fn forces_per_commit((cell, _, forces): &ForceCell) -> Option<f64> {
    (cell.m.committed > 0).then(|| *forces as f64 / cell.m.committed as f64)
}

/// Drive `txns` disjoint transfers through one Paxos Commit federation
/// from `streams` closed-loop clients, every force modelled at [`FORCE`],
/// and read the logs of the acceptor sites, which run no transfer (an
/// in-memory load logs nothing). Disjoint objects: pure force pressure,
/// no lock conflicts.
fn run_force_cell(streams: usize, txns: u64) -> ForceCell {
    let fed = Arc::new(loaded(true));
    let m = fed.run_concurrent(transfers(txns), streams);
    let (mut appends, mut forces) = (0, 0);
    for a in (1..=ACCEPTORS).map(SiteId::new) {
        let site = fed.manager(a).expect("in process");
        let stats = site.handle().engine().log_stats();
        appends += stats.appends;
        forces += stats.forces;
    }
    let cell = Cell::of(streams.to_string(), streams as f64, txns as usize, m);
    (cell, appends, forces)
}

/// Run part C: one stream, then eight. A batch holds what arrived during
/// the previous force.
pub(crate) fn run_forces(txns: u64) -> Vec<ForceCell> {
    [1, 8].map(|streams| run_force_cell(streams, txns)).into()
}

/// Render part C.
pub(crate) fn force_table(rows: &[ForceCell]) -> TextTable {
    let facts = |row: &ForceCell| {
        let (cell, appends, forces) = row;
        vec![
            cell.axis.clone(),
            appends.to_string(),
            forces.to_string(),
            opt2(forces_per_commit(row)),
        ]
    };
    cells(
        "E12c — forces at the acceptor sites vs streams (paxos-commit(3), disjoint transfers, 500 µs force, no timer)",
        &FORCE_COLS,
        rows.iter().map(|row| (facts(row), &row.0.m)),
    )
}

/// The shape check for part C: counts, not the wall clock.
pub(crate) fn force_verdicts(rows: &[ForceCell]) -> Vec<String> {
    let per_commit = |x: f64| rows.iter().find(|r| r.0.x == x).and_then(forces_per_commit);
    let kept = rows
        .iter()
        .all(|(cell, ..)| cell.m.committed as usize == cell.offered);
    let fall =
        matches!((per_commit(1.0), per_commit(8.0)), (Some(one), Some(eight)) if eight < one);
    vec![verdict(
        kept && fall,
        "E12-4: forces per committed transfer at sites 1-3 fall from 1 to 8 streams, \
         every commit kept",
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

/// The report section: blocking window and cost, then acceptor forces.
pub fn report(quick: bool) -> String {
    let outages: &[u64] = if quick { &[25, 200] } else { &[25, 100, 400] };
    let (windows, costs) = run(outages, if quick { 60 } else { 200 });
    let forces = run_forces(if quick { 200 } else { 480 });
    section(
        &[window_table(&windows), cost_table(&costs)],
        &verdicts(&windows, &costs),
    ) + &section(&[force_table(&forces)], &force_verdicts(&forces))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// E12-3 and E12-4 are count verdicts; so are the exact message
    /// and force counts behind them.
    #[test]
    fn replication_triples_the_messages_and_streams_share_forces() {
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

        let forces = run_forces(64);
        let (one, appends, forced) = &forces[0];
        assert_eq!(one.m.committed, 64);
        // Per transfer: 3 registers, 2 votes cross-replicated to 3
        // acceptors, 3 decision notes — and nothing else at sites 1-3.
        assert_eq!(*appends, 64 * 12);
        assert_eq!(appends, forced, "one stream: one force per append");
        assert!(force_verdicts(&forces)[0].starts_with("[PASS] E12-4"));
    }
}
