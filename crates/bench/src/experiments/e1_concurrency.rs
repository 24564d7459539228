//! **E1 — degree of concurrency** (§4.3 / claim C2, Fig. 8).
//!
//! Sweep contention (Zipf θ over a hot object set) and measure, per
//! protocol: committed-transaction throughput and the mean L0 lock tenure
//! (first submit → local lock release). The paper's claim: commit-before +
//! MLT releases L0 locks at local commit, so its tenure stays flat and its
//! throughput degrades least as contention rises; 2PC and commit-after
//! hold L0 locks to the global end and lose the multi-level advantage.

use crate::setup::{build_federation, program_batch, sizes};
use crate::table::{f2, opt2, section, verdict, TextTable};
use amc_mlt::ConflictPolicy;
use amc_types::ProtocolKind;
use amc_workload::{OpMix, WorkloadSpec};

/// One measured point.
#[derive(Debug, Clone)]
pub struct Row {
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// Zipf skew.
    pub theta: f64,
    /// Committed txns per second (`None` when the run measured nothing).
    pub throughput: Option<f64>,
    /// Mean L0 lock tenure (ms).
    pub l0_hold_ms: Option<f64>,
    /// Mean commit latency (ms).
    pub latency_ms: Option<f64>,
    /// Median commit latency (ms).
    pub latency_p50_ms: Option<f64>,
    /// Tail (p99) commit latency (ms).
    pub latency_p99_ms: Option<f64>,
    /// Commits achieved.
    pub committed: u64,
    /// Erroneous global aborts + L1 rejections (contention casualties).
    pub contention_aborts: u64,
}

/// Experiment spec: increment-heavy (the MLT sweet spot), 3 sites, a small
/// hot set so θ bites.
fn spec(theta: f64) -> WorkloadSpec {
    WorkloadSpec {
        sites: 3,
        objects_per_site: 64,
        zipf_theta: theta,
        ops_per_txn: 6,
        sites_per_txn: 2,
        mix: OpMix {
            write: 0.0,
            increment: 0.9,
            reserve: 0.0,
        },
        intended_abort_prob: 0.0,
    }
}

/// Run the sweep.
pub fn run(txns: usize, threads: usize, thetas: &[f64]) -> Vec<Row> {
    let mut rows = Vec::new();
    for &theta in thetas {
        for protocol in ProtocolKind::ALL {
            let spec = spec(theta);
            let fed = build_federation(protocol, ConflictPolicy::Semantic, &spec);
            let batch = program_batch(&spec, 7_000 + (theta * 100.0) as u64, txns);
            let m = fed.run_concurrent(batch, threads);
            rows.push(Row {
                protocol,
                theta,
                throughput: m.throughput(),
                l0_hold_ms: m.mean_l0_hold_ms(),
                latency_ms: m.mean_latency_ms(),
                latency_p50_ms: m.latency_p50_ms(),
                latency_p99_ms: m.latency_p99_ms(),
                committed: m.committed,
                contention_aborts: m.aborted_erroneous + m.l1_rejections,
            });
        }
    }
    rows
}

/// Render as the report table.
pub fn table(rows: &[Row]) -> TextTable {
    let mut t = TextTable::new(
        "E1 — concurrency: throughput & L0 lock tenure vs contention (increment-heavy)",
        &[
            "theta",
            "protocol",
            "txn/s",
            "l0-hold ms",
            "latency ms",
            "lat p50 ms",
            "lat p99 ms",
            "commits",
            "contention-aborts",
        ],
    );
    for r in rows {
        t.row(vec![
            f2(r.theta),
            r.protocol.label().to_string(),
            opt2(r.throughput),
            opt2(r.l0_hold_ms),
            opt2(r.latency_ms),
            opt2(r.latency_p50_ms),
            opt2(r.latency_p99_ms),
            r.committed.to_string(),
            r.contention_aborts.to_string(),
        ]);
    }
    t
}

/// The paper-shape checks for this experiment (returns human-readable
/// verdict lines).
pub fn verdicts(rows: &[Row]) -> Vec<String> {
    let mut out = Vec::new();
    let hot = rows.iter().filter(|r| r.theta >= 0.9).collect::<Vec<_>>();
    let get = |p: ProtocolKind| hot.iter().find(|r| r.protocol == p);
    if let (Some(before), Some(after), Some(two_pc)) = (
        get(ProtocolKind::CommitBefore),
        get(ProtocolKind::CommitAfter),
        get(ProtocolKind::TwoPhaseCommit),
    ) {
        // An absent measurement (n=0) can never PASS a superiority claim.
        let bt = before.throughput.unwrap_or(0.0);
        let at = after.throughput.unwrap_or(0.0);
        let tt = two_pc.throughput.unwrap_or(0.0);
        let bh = before.l0_hold_ms.unwrap_or(f64::MAX);
        let ah = after.l0_hold_ms.unwrap_or(f64::MAX);
        let th = two_pc.l0_hold_ms.unwrap_or(f64::MAX);
        out.push(verdict(
            before.throughput.is_some() && bt >= at,
            format!(
                "C2a: commit-before throughput >= commit-after under contention \
                 ({bt:.1} vs {at:.1} txn/s)"
            ),
        ));
        out.push(verdict(
            before.throughput.is_some() && bt >= tt,
            format!(
                "C2b: commit-before throughput >= 2PC under contention ({:.1} vs {:.1} txn/s)",
                bt, tt
            ),
        ));
        out.push(verdict(
            before.l0_hold_ms.is_some() && bh <= ah && bh <= th,
            format!(
                "C2c: commit-before holds L0 locks shortest ({:.2} ms vs {:.2} / {:.2})",
                before.l0_hold_ms.unwrap_or(0.0),
                after.l0_hold_ms.unwrap_or(0.0),
                two_pc.l0_hold_ms.unwrap_or(0.0)
            ),
        ));
    }
    out
}

/// The report section.
pub fn report(quick: bool) -> String {
    let thetas: &[f64] = if quick {
        &[0.0, 0.99]
    } else {
        &[0.0, 0.6, 0.9, 0.99]
    };
    let (txns, threads) = sizes(quick);
    let rows = run(txns, threads, thetas);
    section(&[table(&rows)], &verdicts(&rows))
}
