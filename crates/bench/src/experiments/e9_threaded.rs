//! **E9 — threaded scaling & group commit** (engine hot path).
//!
//! Sweep the worker-thread count at low contention and measure, per
//! protocol: committed-transaction throughput, speedup over the
//! single-thread run, and the physical log forces per durably acknowledged
//! commit record. Two shapes are claimed:
//!
//! * throughput scales with threads once the engine's internals are
//!   per-component locked (striped page locks, decomposed engine state) —
//!   a single engine-wide mutex would flatline the curve;
//! * group commit amortizes the modelled fsync: at one thread every commit
//!   record pays a full force (ratio 1.0), while concurrent committers
//!   share a leader's force and push the ratio below 1.

use crate::setup::{build_federation, program_batch};
use crate::table::{opt2, section, verdict, TextTable};
use amc_mlt::ConflictPolicy;
use amc_types::ProtocolKind;
use amc_workload::{OpMix, WorkloadSpec};

/// One measured point.
#[derive(Debug, Clone)]
pub struct Row {
    /// Worker threads driving the federation.
    pub threads: usize,
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// Committed txns per second.
    pub throughput: Option<f64>,
    /// Throughput relative to this protocol's 1-thread run.
    pub speedup: Option<f64>,
    /// Commits achieved.
    pub committed: u64,
    /// Physical log forces across all engines.
    pub forces: u64,
    /// Forces issued by group-commit leaders.
    pub group_forces: u64,
    /// Commit/prepare records acknowledged through group-commit batches.
    pub batched_commits: u64,
    /// Physical forces per durably acknowledged record.
    pub forces_per_commit: Option<f64>,
}

/// Low contention so the thread sweep measures the engine hot path, not
/// lock queueing: uniform access over a decent object set, increment-heavy.
fn spec() -> WorkloadSpec {
    WorkloadSpec {
        sites: 3,
        objects_per_site: 64,
        zipf_theta: 0.0,
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
pub fn run(txns: usize, thread_counts: &[usize]) -> Vec<Row> {
    let mut rows = Vec::new();
    for protocol in ProtocolKind::ALL {
        let mut base: Option<f64> = None;
        for &threads in thread_counts {
            let spec = spec();
            let fed = build_federation(protocol, ConflictPolicy::Semantic, &spec);
            let batch = program_batch(&spec, 9_000 + threads as u64, txns);
            let m = fed.run_concurrent(batch, threads);
            if threads == thread_counts[0] {
                base = m.throughput();
            }
            rows.push(Row {
                threads,
                protocol,
                throughput: m.throughput(),
                speedup: match (m.throughput(), base) {
                    (Some(t), Some(b)) if b > 0.0 => Some(t / b),
                    _ => None,
                },
                committed: m.committed,
                forces: m.log_forces,
                group_forces: m.group_forces,
                batched_commits: m.batched_commits,
                forces_per_commit: m.forces_per_commit(),
            });
        }
    }
    rows
}

/// Render as the report table.
pub fn table(rows: &[Row]) -> TextTable {
    let mut t = TextTable::new(
        "E9 — threaded scaling: throughput & group-commit amortization vs worker threads",
        &[
            "threads",
            "protocol",
            "txn/s",
            "speedup",
            "commits",
            "forces",
            "grp-forces",
            "batched",
            "forces/commit",
        ],
    );
    for r in rows {
        t.row(vec![
            r.threads.to_string(),
            r.protocol.label().to_string(),
            opt2(r.throughput),
            opt2(r.speedup),
            r.committed.to_string(),
            r.forces.to_string(),
            r.group_forces.to_string(),
            r.batched_commits.to_string(),
            opt2(r.forces_per_commit),
        ]);
    }
    t
}

/// The shape checks for this experiment.
pub fn verdicts(rows: &[Row]) -> Vec<String> {
    let mut out = Vec::new();
    // E9-1: group commit amortizes forces once ≥4 committers run — the
    // commit-before rows (the paper's protocol) must show < 1 force per
    // acknowledged record at every thread count ≥ 4.
    let hot: Vec<&Row> = rows
        .iter()
        .filter(|r| r.protocol == ProtocolKind::CommitBefore && r.threads >= 4)
        .collect();
    let batched = !hot.is_empty()
        && hot
            .iter()
            .all(|r| r.forces_per_commit.is_some_and(|f| f < 1.0));
    let shown = hot
        .iter()
        .map(|r| format!("{}T {}", r.threads, opt2(r.forces_per_commit)))
        .collect::<Vec<_>>()
        .join(", ");
    out.push(verdict(
        batched,
        format!(
            "E9-1: group commit forces < 1 per commit record at >=4 threads (commit-before: {})",
            if shown.is_empty() {
                "n=0".into()
            } else {
                shown
            }
        ),
    ));
    // E9-2: the decomposed engine actually scales — some protocol must at
    // least double its 1-thread throughput at the widest sweep point.
    let max_threads = rows.iter().map(|r| r.threads).max().unwrap_or(0);
    let best = rows
        .iter()
        .filter(|r| r.threads == max_threads)
        .filter_map(|r| r.speedup.map(|s| (r.protocol, s)))
        .max_by(|a, b| a.1.total_cmp(&b.1));
    out.push(match best {
        Some((p, s)) => verdict(
            s >= 2.0,
            format!(
                "E9-2: {max_threads}-thread throughput >= 2x single-thread for some protocol \
                 (best: {} at {s:.2}x)",
                p.label()
            ),
        ),
        None => "[FAIL] E9-2: no speedup measured (n=0)".to_string(),
    });
    out
}

/// The report section.
pub fn report(quick: bool) -> String {
    let rows = run(if quick { 60 } else { 200 }, &[1, 2, 4, 8]);
    section(&[table(&rows)], &verdicts(&rows))
}
