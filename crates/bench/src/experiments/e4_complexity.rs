//! **E4 — message & log-write complexity** (§3.1–3.3, cf. [ML 83]/[DS 83]
//! in the paper's related work).
//!
//! Exact per-transaction accounting on the deterministic simulator: how
//! many protocol messages and how many log forces each protocol spends per
//! committed global transaction on the failure-free path. The paper's
//! shape: commit-before's commit path is the cheapest (submit + vote per
//! participant, no decision round), 2PC the most expensive (work + prepare
//! + decision + finished, plus the forced prepare record).

use crate::setup::load;
use crate::table::{f2, opt2, section, verdict, TextTable};
use amc_core::{FederationConfig, SimConfig, SimFederation};
use amc_net::NetStats;
use amc_obs::Histogram;
use amc_types::{GlobalVerdict, Operation, ProtocolKind, SimDuration, SiteId};
use amc_workload::{object, transfer};
use std::collections::BTreeMap;

/// One protocol's accounting.
#[derive(Debug, Clone)]
pub struct Row {
    /// Protocol.
    pub protocol: ProtocolKind,
    /// Messages per committed transaction.
    pub msgs_per_txn: f64,
    /// Log forces per committed transaction (across all sites).
    pub forces_per_txn: f64,
    /// Durable log bytes per committed transaction.
    pub log_bytes_per_txn: f64,
    /// Virtual commit latency (ms).
    pub latency_ms: f64,
    /// Median virtual commit latency (ms).
    pub latency_p50_ms: Option<f64>,
    /// Tail (p99) virtual commit latency (ms).
    pub latency_p99_ms: Option<f64>,
    /// Full router accounting (all zero drops on this failure-free path).
    pub net: NetStats,
}

/// Run `txns` disjoint two-site transfers per protocol on the simulator.
pub fn run(txns: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for protocol in ProtocolKind::ALL {
        let cfg = SimConfig::new(FederationConfig::uniform(2, protocol));
        let sim = SimFederation::new(cfg);
        let fed = sim.federation();
        let (s1, s2) = (SiteId::new(1), SiteId::new(2));
        load(&fed, txns as u64);
        // Pre-run baseline (bulk load may have forced nothing, but be
        // exact anyway).
        let before = fed.log_stats();
        // Disjoint transfers so no contention muddies the counts; stagger
        // starts so the simulator interleaves them.
        let programs: Vec<(SimDuration, BTreeMap<SiteId, Vec<Operation>>)> = (0..txns)
            .map(|i| {
                let program = transfer(object(s1, i as u64), object(s2, i as u64), 5);
                (SimDuration::from_millis(i as u64 * 5), program)
            })
            .collect();
        let report = sim.run(programs);
        assert!(report.errors.is_empty(), "{protocol}: {:?}", report.errors);
        let committed = report
            .outcomes
            .values()
            .filter(|v| **v == GlobalVerdict::Commit)
            .count() as f64;
        assert!(committed > 0.0, "{protocol}: nothing committed");
        let after = fed.log_stats();
        let mean_latency_us: f64 = report
            .resolution
            .values()
            .map(|d| d.micros() as f64)
            .sum::<f64>()
            / committed;
        let mut latency_us = Histogram::new();
        for d in report.resolution.values() {
            latency_us.record(d.micros());
        }
        rows.push(Row {
            protocol,
            msgs_per_txn: report.net.sent as f64 / committed,
            forces_per_txn: (after.forces - before.forces) as f64 / committed,
            log_bytes_per_txn: (after.stable_bytes - before.stable_bytes) as f64 / committed,
            latency_ms: mean_latency_us / 1e3,
            latency_p50_ms: latency_us.p50().map(|us| us as f64 / 1e3),
            latency_p99_ms: latency_us.p99().map(|us| us as f64 / 1e3),
            net: report.net,
        });
    }
    rows
}

/// Render the report table.
pub fn table(rows: &[Row]) -> TextTable {
    let mut t = TextTable::new(
        "E4 — failure-free commit-path complexity per committed transaction (2 sites)",
        &[
            "protocol",
            "msgs/txn",
            "log-forces/txn",
            "log-bytes/txn",
            "virtual latency ms",
            "lat p50 ms",
            "lat p99 ms",
            "net sent/drop/dup",
        ],
    );
    for r in rows {
        t.row(vec![
            r.protocol.label().to_string(),
            f2(r.msgs_per_txn),
            f2(r.forces_per_txn),
            f2(r.log_bytes_per_txn),
            f2(r.latency_ms),
            opt2(r.latency_p50_ms),
            opt2(r.latency_p99_ms),
            format!("{}/{}/{}", r.net.sent, r.net.dropped, r.net.duplicated),
        ]);
    }
    t
}

/// Shape checks.
pub fn verdicts(rows: &[Row]) -> Vec<String> {
    let get = |p: ProtocolKind| rows.iter().find(|r| r.protocol == p);
    let mut out = Vec::new();
    if let (Some(before), Some(after), Some(two_pc)) = (
        get(ProtocolKind::CommitBefore),
        get(ProtocolKind::CommitAfter),
        get(ProtocolKind::TwoPhaseCommit),
    ) {
        out.push(verdict(
            before.msgs_per_txn < after.msgs_per_txn && after.msgs_per_txn < two_pc.msgs_per_txn,
            format!(
                "E4-1: commit-before sends fewest messages ({:.1} < {:.1} < {:.1})",
                before.msgs_per_txn, after.msgs_per_txn, two_pc.msgs_per_txn
            ),
        ));
        out.push(verdict(
            two_pc.forces_per_txn > before.forces_per_txn,
            format!(
                "E4-2: 2PC pays the extra forced prepare records ({:.1} vs {:.1} forces/txn)",
                two_pc.forces_per_txn, before.forces_per_txn
            ),
        ));
        out.push(verdict(
            before.latency_ms <= after.latency_ms && before.latency_ms <= two_pc.latency_ms,
            format!(
                "E4-3: commit-before has the lowest commit latency ({:.2} ms)",
                before.latency_ms
            ),
        ));
    }
    out
}

/// The report section.
pub fn report(quick: bool) -> String {
    let rows = run(if quick { 10 } else { 50 });
    section(&[table(&rows)], &verdicts(&rows))
}
