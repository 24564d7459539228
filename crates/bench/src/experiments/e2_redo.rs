//! **E2 — redo cost of commit-after** (§3.2 / claim C3-a).
//!
//! Sweep the probability `p` that a local transaction is *erroneously
//! aborted after its ready vote* (the §3.2 hazard, injected
//! deterministically at the communication managers) and measure
//! commit-after's throughput, repetition count and latency. The paper:
//! "in the absence of failures, the commit protocol performs very well.
//! If local transactions have to be repeated frequently, performance
//! decreases" — expect redo executions ≈ p/(1-p) per participant and a
//! monotone throughput decline.

use crate::setup::{build_federation, program_batch, sizes};
use crate::table::{f2, f3, opt2, section, verdict, TextTable};
use amc_mlt::ConflictPolicy;
use amc_types::ProtocolKind;
use amc_workload::{OpMix, WorkloadSpec};

/// One measured point.
#[derive(Debug, Clone)]
pub struct Row {
    /// Injected post-ready abort probability.
    pub p: f64,
    /// Committed txns per second (`None` when the run measured nothing).
    pub throughput: Option<f64>,
    /// Redo executions per committed transaction.
    pub redos_per_commit: f64,
    /// Mean commit latency (ms).
    pub latency_ms: Option<f64>,
    /// Median commit latency (ms).
    pub latency_p50_ms: Option<f64>,
    /// Tail (p99) commit latency (ms).
    pub latency_p99_ms: Option<f64>,
    /// Commits achieved.
    pub committed: u64,
}

fn spec() -> WorkloadSpec {
    WorkloadSpec {
        sites: 3,
        objects_per_site: 128,
        // Moderate contention: a repetition extends the transaction's lock
        // tenure, and that is what other transactions pay for — the paper's
        // "if local transactions have to be repeated frequently,
        // performance decreases" is a statement about a loaded system.
        zipf_theta: 0.6,
        ops_per_txn: 6,
        sites_per_txn: 2,
        mix: OpMix::MIXED,
        intended_abort_prob: 0.0,
    }
}

/// Run the sweep over injected probabilities. Each point is the median of
/// three independent runs (by throughput): rare distributed lock cycles
/// between a mandatory redo and a pre-vote submit resolve via timeouts and
/// can stall one run by ~a second, which would otherwise swamp the ~15%
/// effect under measurement.
pub fn run(txns: usize, threads: usize, probabilities: &[f64]) -> Vec<Row> {
    let mut rows = Vec::new();
    for &p in probabilities {
        let mut candidates: Vec<Row> = (0u64..3)
            .map(|round| {
                let spec = spec();
                let fed =
                    build_federation(ProtocolKind::CommitAfter, ConflictPolicy::Semantic, &spec);
                for (site, manager) in fed.fleet().managers() {
                    let seed = 0xE2 + u64::from(site.raw()) + round * 977;
                    manager.inject_post_ready_aborts(p, seed);
                }
                let batch = program_batch(&spec, 2_000 + round, txns);
                let m = fed.run_concurrent(batch, threads);
                Row {
                    p,
                    throughput: m.throughput(),
                    redos_per_commit: if m.committed > 0 {
                        m.redo_runs as f64 / m.committed as f64
                    } else {
                        0.0
                    },
                    latency_ms: m.mean_latency_ms(),
                    latency_p50_ms: m.latency_p50_ms(),
                    latency_p99_ms: m.latency_p99_ms(),
                    committed: m.committed,
                }
            })
            .collect();
        candidates.sort_by(|a, b| {
            a.throughput
                .unwrap_or(0.0)
                .total_cmp(&b.throughput.unwrap_or(0.0))
        });
        rows.push(candidates.swap_remove(1)); // median by throughput
    }
    rows
}

/// Render the report table.
pub fn table(rows: &[Row]) -> TextTable {
    let mut t = TextTable::new(
        "E2 — commit-after redo cost vs post-ready erroneous-abort probability",
        &[
            "p",
            "txn/s",
            "redos/commit",
            "latency ms",
            "lat p50 ms",
            "lat p99 ms",
            "commits",
        ],
    );
    for r in rows {
        t.row(vec![
            f2(r.p),
            opt2(r.throughput),
            f3(r.redos_per_commit),
            opt2(r.latency_ms),
            opt2(r.latency_p50_ms),
            opt2(r.latency_p99_ms),
            r.committed.to_string(),
        ]);
    }
    t
}

/// Shape checks.
pub fn verdicts(rows: &[Row]) -> Vec<String> {
    let mut out = Vec::new();
    if let (Some(first), Some(last)) = (rows.first(), rows.last()) {
        out.push(verdict(
            last.redos_per_commit > first.redos_per_commit,
            format!(
                "C3a-1: redo rate grows with p ({:.3} at p={:.1} -> {:.3} at p={:.1})",
                first.redos_per_commit, first.p, last.redos_per_commit, last.p
            ),
        ));
        let first_t = first.throughput.unwrap_or(0.0);
        let last_t = last.throughput.unwrap_or(0.0);
        out.push(verdict(
            first.throughput.is_some() && last_t < first_t,
            format!(
                "C3a-2: throughput declines with p ({:.1} -> {:.1} txn/s)",
                first_t, last_t
            ),
        ));
        out.push(verdict(
            rows.iter().all(|r| r.committed > 0),
            format!(
                "C3a-3: atomicity holds — every submitted txn still commits ({} commits)",
                last.committed
            ),
        ));
    }
    out
}

/// The report section.
pub fn report(quick: bool) -> String {
    let ps: &[f64] = if quick {
        &[0.0, 0.3]
    } else {
        &[0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    };
    let (txns, threads) = sizes(quick);
    let rows = run(txns, threads, ps);
    section(&[table(&rows)], &verdicts(&rows))
}
