//! **E14 — sharded multi-coordinator scale-out with online
//! reconfiguration** (amc-shard).
//!
//! The paper's Fig. 1 funnels every global transaction through one
//! central system; E14 measures what the shard router buys back.
//! Three lanes:
//!
//! * **Scale-out (weak scaling)** — each coordinator serves a fixed
//!   client population (the central system's bounded multiprogramming
//!   level), so the offered load grows with the coordinator count.
//!   Because the coordinators share nothing on the commit path —
//!   disjoint transaction-id ranges, independent state machines, only
//!   the site fleet in common — aggregate txn/s should track the
//!   coordinator count. The pinned claim, a count: **≥ 2.5× as many
//!   site exchanges in flight at once at 4 coordinators as at 1** (the
//!   txn/s ratio is printed beside it).
//! * **Online reconfiguration under chaos** — a site is added and an
//!   original member retired *mid-workload*, with a nemesis kill landing
//!   inside the data-migration window. The conservation oracle: the
//!   user-counter sum and the user-object count are exactly preserved,
//!   every member site lands on the new epoch, and no transaction is
//!   left open.
//! * **Coordinator RPC over TCP** — the same sharded fleet driven
//!   through `amc-rpc`'s coordinator frames (kinds 5/6) on loopback TCP:
//!   every transaction must come back committed from its owning
//!   coordinator with a transaction id in that coordinator's disjoint
//!   id range.

use crate::setup::{load, Cell, ProgramBatch};
use crate::table::{cells, opt2, section, verdict, Col, TextTable};
use amc_core::{closed_loop, coord_slot_of, Program, TxnOutcome};
use amc_rpc::{CoordClient, CoordInfo, CoordServer, RetryPolicy};
use amc_shard::{ShardRouter, SiteChange};
use amc_types::{ProtocolKind, SiteId};
use amc_workload::object;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Fleet size for every lane.
const SITES: u32 = 3;
/// Client threads per coordinator in the scaling lane: the fixed
/// multiprogramming level of one central system.
const CLIENTS_PER_COORD: usize = 2;
/// Modelled one-way message latency in the scaling lane. The commit
/// path is message-bound (as in the paper's LCA model), so this is the
/// resource the coordinators spend in parallel.
const SCALE_DELAY: Duration = Duration::from_micros(300);

/// Sum-neutral transfer `i` of a lane: one unit around the ring of
/// nominal sites, on object `idx` at both ends.
fn transfer(i: u64, idx: u64) -> Program {
    let site = |k: u64| SiteId::new((k % u64::from(SITES)) as u32 + 1);
    amc_workload::transfer(object(site(i), idx), object(site(i + 1), idx), 1)
}

const SCALE_COLS: [Col; 7] = [
    Col::fact("coordinators"),
    Col::fact("clients"),
    Col::fact("offered"),
    Col::COMMITS.named("committed"),
    Col::TXN_S,
    Col::fact("speedup"),
    Col::fact("peak in flight"),
];

/// A scaling cell and the most site exchanges ever in flight at once.
pub(crate) type ScaleCell = (Cell, usize);

/// Weak scaling over `n_values` coordinator counts, one cell each (its
/// coordinate is the count): every coordinator gets its own
/// `txns_per_coord` transactions (owner-affine by the shard map's hash
/// rule) and `CLIENTS_PER_COORD` clients' worth of the one closed loop.
pub(crate) fn run_scaling(txns_per_coord: usize, n_values: &[u32]) -> Vec<ScaleCell> {
    let cell = |&n: &u32| {
        let router = Arc::new(
            ShardRouter::in_process(n, SITES, ProtocolKind::TwoPhaseCommit, SCALE_DELAY)
                .expect("build router"),
        );
        // Draw disjoint transfers until every coordinator slot has its
        // quota; ownership is the map's hash of the minimum key, so the
        // draw is rejection sampling with a generous id budget.
        let budget = (txns_per_coord * n as usize * 8) as u64;
        let mut queues: Vec<Vec<Program>> = (0..n).map(|_| Vec::new()).collect();
        for idx in 0..budget {
            let p = transfer(idx, idx);
            let queue = &mut queues[router.owner_of(&p) as usize];
            if queue.len() < txns_per_coord {
                queue.push(p);
            }
        }
        assert!(
            queues.iter().all(|q| q.len() == txns_per_coord),
            "id budget too small to fill every coordinator's quota"
        );
        load(router.coordinator(0), budget);

        // Round-robin over the owners: whichever programs are in flight
        // at once, they are spread evenly over the coordinators.
        let offered: ProgramBatch = (0..txns_per_coord)
            .flat_map(|i| queues.iter().map(move |q| (q[i].clone(), false)))
            .collect();
        let (clients, txns) = (n as usize * CLIENTS_PER_COORD, offered.len());
        let m = closed_loop(offered, clients, |p| router.run(p));
        let cell = Cell::of(n.to_string(), f64::from(n), txns, m);
        (cell, router.fleet().peak_in_flight())
    };
    n_values.iter().map(cell).collect()
}

/// The scaling cell at `n` coordinators.
fn scale_at(rows: &[ScaleCell], n: u32) -> Option<&ScaleCell> {
    rows.iter().find(|(c, _)| c.x == f64::from(n))
}

/// Outcome of the reconfiguration-under-chaos lane.
#[derive(Debug, Clone)]
pub struct ReconfigRow {
    /// Workload transactions committed across the whole scenario.
    pub committed: u64,
    /// Workload transactions aborted (lock conflicts; sum-neutral).
    pub aborted: u64,
    /// Workload attempts that errored (must be 0 — the drain gate keeps
    /// clients away from the chaos window).
    pub errors: u64,
    /// User objects migrated off the retired site.
    pub migrated: usize,
    /// Retries the migration/epoch path needed around the nemesis kill.
    pub retries: usize,
    /// Epoch after add + remove (starts at 1, so 3).
    pub epoch: u64,
    /// Final minus initial user-counter sum (must be 0).
    pub sum_delta: i64,
    /// Final minus initial user-object count (must be 0).
    pub count_delta: i64,
    /// Final-state obligations left open (must be 0).
    pub open_txns: usize,
    /// Whether every surviving member site reports the final epoch.
    pub epochs_agree: bool,
    /// Whether the retired site is gone from the fleet.
    pub old_site_gone: bool,
}

/// Add site 4, then retire site 1 onto it mid-workload, with the
/// successor knocked down by the nemesis just as the migration starts.
pub(crate) fn run_reconfig(min_txns: u64) -> ReconfigRow {
    let router = Arc::new(
        ShardRouter::in_process(
            2,
            SITES,
            ProtocolKind::TwoPhaseCommit,
            Duration::from_micros(50),
        )
        .expect("build router"),
    );
    load(router.coordinator(0), 16);
    let sum0 = router.user_sum().expect("sum");
    let count0 = router.user_object_count().expect("count") as i64;

    let stop = AtomicBool::new(false);
    let committed = AtomicU64::new(0);
    let aborted = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let next = AtomicU64::new(0);
    let (add_report, remove_report) = std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let p = transfer(i, i % 16);
                    match router.run(&p) {
                        Ok(r) if r.outcome == TxnOutcome::Committed => {
                            committed.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(_) => {
                            aborted.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
        // Let the workload flow on the original topology first.
        while committed.load(Ordering::Relaxed) < min_txns / 4 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let add = router
            .reconfigure(SiteChange::Add {
                site: SiteId::new(4),
            })
            .expect("add site");

        while committed.load(Ordering::Relaxed) < min_txns / 2 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Nemesis: the successor goes dark before the retirement starts,
        // so the migration's first rounds fail and must retry; a revival
        // thread brings it back inside the reconfiguration deadline.
        router.fleet().set_down(SiteId::new(4), true);
        let reviver = s.spawn(|| {
            std::thread::sleep(Duration::from_millis(15));
            router.fleet().set_down(SiteId::new(4), false);
        });
        let remove = router
            .reconfigure(SiteChange::Remove {
                old: SiteId::new(1),
                successor: SiteId::new(4),
            })
            .expect("remove site");
        reviver.join().expect("reviver");

        // Workload continues on the new topology (nominal site 1 now
        // rehomes to site 4) before the scenario winds down.
        while committed.load(Ordering::Relaxed) < min_txns {
            std::thread::sleep(Duration::from_millis(1));
        }
        stop.store(true, Ordering::Relaxed);
        (add, remove)
    });

    let epochs_agree = [2u32, 3, 4]
        .iter()
        .all(|&s| router.site_epoch(SiteId::new(s)).ok() == Some(remove_report.epoch as i64));
    ReconfigRow {
        committed: committed.into_inner(),
        aborted: aborted.into_inner(),
        errors: errors.into_inner(),
        migrated: remove_report.migrated,
        retries: add_report.retries + remove_report.retries,
        epoch: remove_report.epoch,
        sum_delta: router.user_sum().expect("sum") - sum0,
        count_delta: router.user_object_count().expect("count") as i64 - count0,
        open_txns: router.pending_obligations(),
        epochs_agree,
        old_site_gone: !router.fleet().is_member(SiteId::new(1)),
    }
}

const TCP_COORDS: u32 = 2;

const TCP_COLS: [Col; 7] = [
    Col::fact("coordinators"),
    Col::fact("clients"),
    Col::fact("offered"),
    Col::COMMITS.named("committed"),
    Col::TXN_S,
    Col::fact("slot-matched"),
    Col::fact("busy coords"),
];

/// Outcome of the coordinator-RPC-over-TCP lane: the cell (its coordinate
/// is the client count), the transactions whose id came back in
/// the owning coordinator's disjoint id range (must equal the offered
/// count), and the coordinator slots that committed at least one.
pub type TcpCell = (Cell, u64, usize);

/// Drive a 2-coordinator sharded fleet through coordinator frames on
/// loopback TCP.
pub(crate) fn run_tcp(txns: usize, clients: usize) -> TcpCell {
    let router = Arc::new(
        ShardRouter::in_process(
            TCP_COORDS,
            SITES,
            ProtocolKind::TwoPhaseCommit,
            Duration::ZERO,
        )
        .expect("build router"),
    );
    load(router.coordinator(0), txns as u64);
    let sites = router.map().sites();
    let mut servers = Vec::new();
    let mut tcp_clients = Vec::new();
    for k in 0..TCP_COORDS {
        let srv = CoordServer::spawn(
            Arc::clone(router.coordinator(k)),
            CoordInfo {
                slot: k,
                coordinators: TCP_COORDS,
                epoch: router.epoch(),
                sites: sites.clone(),
            },
            "127.0.0.1:0",
        )
        .expect("spawn coordinator server");
        tcp_clients.push(CoordClient::new(srv.addr(), RetryPolicy::default()));
        servers.push(srv);
    }

    let programs = (0..txns as u64).map(|i| (transfer(i, i), false)).collect();
    let slot_matched = AtomicU64::new(0);
    let per_coord: Vec<AtomicU64> = (0..TCP_COORDS).map(|_| AtomicU64::new(0)).collect();
    let metrics = closed_loop(programs, clients, |p| {
        let owner = router.owner_of(p);
        let report = tcp_clients[owner as usize].exec(p.clone())?;
        if report.outcome == TxnOutcome::Committed {
            per_coord[owner as usize].fetch_add(1, Ordering::Relaxed);
        }
        if coord_slot_of(report.gtx) == owner {
            slot_matched.fetch_add(1, Ordering::Relaxed);
        }
        Ok(report)
    });
    for srv in servers {
        srv.shutdown();
    }
    let busy = per_coord.iter().filter(|c| c.load(Ordering::Relaxed) > 0);
    (
        Cell::of(clients.to_string(), clients as f64, txns, metrics),
        slot_matched.into_inner(),
        busy.count(),
    )
}

/// Render the weak-scaling lane.
pub(crate) fn scaling_table(rows: &[ScaleCell]) -> TextTable {
    let base = scale_at(rows, 1).and_then(|(c, _)| c.m.throughput());
    let facts = |(c, peak): &ScaleCell| {
        let n = c.x as usize;
        let speedup = c.m.throughput().zip(base).map(|(t, b)| t / b);
        vec![
            c.axis.clone(),
            (n * CLIENTS_PER_COORD).to_string(),
            c.offered.to_string(),
            opt2(speedup),
            peak.to_string(),
        ]
    };
    cells(
        "E14a — coordinator scale-out, weak scaling (2PC, 3 shared sites, \
         2 clients/coordinator, 300µs legs)",
        &SCALE_COLS,
        rows.iter().map(|row| (facts(row), &row.0.m)),
    )
}

/// Render the reconfiguration-under-chaos lane.
pub(crate) fn reconfig_table(r: &ReconfigRow) -> TextTable {
    let mut t = TextTable::new(
        "E14b — online reconfiguration under chaos (add site 4, retire site 1, \
         nemesis kills the successor during migration)",
        &[
            "committed",
            "aborted",
            "errors",
            "migrated",
            "retries",
            "epoch",
            "sum Δ",
            "objects Δ",
            "open txns",
        ],
    );
    t.row(vec![
        r.committed.to_string(),
        r.aborted.to_string(),
        r.errors.to_string(),
        r.migrated.to_string(),
        r.retries.to_string(),
        r.epoch.to_string(),
        r.sum_delta.to_string(),
        r.count_delta.to_string(),
        r.open_txns.to_string(),
    ]);
    t
}

/// Render the TCP lane.
pub(crate) fn tcp_table((cell, slot_matched, busy): &TcpCell) -> TextTable {
    let facts = vec![
        TCP_COORDS.to_string(),
        cell.axis.clone(),
        cell.offered.to_string(),
        slot_matched.to_string(),
        busy.to_string(),
    ];
    cells(
        "E14c — coordinator RPC over loopback TCP (frames 5/6, clients route by the shard map)",
        &TCP_COLS,
        [(facts, &cell.m)],
    )
}

/// The shape checks for this experiment.
pub fn verdicts(scale: &[ScaleCell], reconfig: &ReconfigRow, tcp: &TcpCell) -> Vec<String> {
    let mut out = Vec::new();

    // E14-1: every scaling cell commits its full offered load (the
    // transfers are disjoint, so nothing should abort).
    let all_commit = scale
        .iter()
        .all(|(c, _)| c.m.committed as usize == c.offered);
    out.push(verdict(
        all_commit,
        format!(
            "E14-1: every scaling cell commits its full offered load ({} cells)",
            scale.len()
        ),
    ));

    // E14-2: the pinned scale-out claim, as a count: coordinators that
    // share nothing on the commit path overlap their exchanges.
    let peak = |n| scale_at(scale, n).map_or(0, |(_, peak)| *peak);
    let (one, four) = (peak(1), peak(4));
    out.push(verdict(
        one > 0 && 2 * four >= 5 * one,
        format!(
            "E14-2: site exchanges in flight at once at 4 coordinators >= 2.5x one coordinator \
             ({four} vs {one})"
        ),
    ));

    // E14-3: reconfiguration conserves everything — sum, object count,
    // agreed epochs, no open transactions, the retired site gone, and
    // the workload never saw an error through the chaos window.
    let conserved = reconfig.sum_delta == 0
        && reconfig.count_delta == 0
        && reconfig.open_txns == 0
        && reconfig.epoch == 3
        && reconfig.epochs_agree
        && reconfig.old_site_gone
        && reconfig.errors == 0;
    out.push(verdict(
        conserved,
        format!(
            "E14-3: mid-workload add+retire with nemesis kill conserves state \
         (sum Δ={}, objects Δ={}, open={}, epoch={}, errors={})",
            reconfig.sum_delta,
            reconfig.count_delta,
            reconfig.open_txns,
            reconfig.epoch,
            reconfig.errors
        ),
    ));

    // E14-4: the TCP lane commits everything, every reply's transaction
    // id sits in its owning coordinator's disjoint range, and more than
    // one coordinator did work.
    let (tcp, slot_matched, busy) = tcp;
    let (committed, offered) = (tcp.m.committed, tcp.offered as u64);
    out.push(verdict(
        committed == offered && *slot_matched == offered && *busy > 1,
        format!(
            "E14-4: TCP lane commits {committed}/{offered} with {slot_matched}/{offered} ids \
             slot-matched across {busy} coordinators"
        ),
    ));
    out
}

/// The report section.
pub fn report(quick: bool) -> String {
    let scale = run_scaling(if quick { 30 } else { 80 }, &[1, 2, 4, 8]);
    let reconfig = run_reconfig(if quick { 80 } else { 200 });
    let tcp = run_tcp(if quick { 120 } else { 400 }, 4);
    section(
        &[
            scaling_table(&scale),
            reconfig_table(&reconfig),
            tcp_table(&tcp),
        ],
        &verdicts(&scale, &reconfig, &tcp),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_lanes_pin_the_shard_shapes() {
        let scale = run_scaling(12, &[1, 2, 4]);
        let reconfig = run_reconfig(40);
        let tcp = run_tcp(60, 4);
        for v in verdicts(&scale, &reconfig, &tcp) {
            assert!(v.starts_with("[PASS]"), "{v}");
        }
        assert_eq!(reconfig.migrated, 16, "site 1 held 16 user objects");
        assert!(reconfig.retries > 0, "the nemesis kill must force retries");
    }
}
