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

use crate::setup::{offer, sweep, tuned_config, Cell, Point, Regime, Wire};
use crate::table::{cells, opt2, section, verdict, Col, TextTable};
use amc_workload::{MixKind, MixSpec};

const COLS: [Col; 9] = [
    Col::fact("threads"),
    Col::fact("protocol"),
    Col::TXN_S,
    Col::fact("speedup"),
    Col::COMMITS,
    Col::FORCES,
    Col::GRP_FORCES,
    Col::BATCHED,
    Col::FORCES_PER_COMMIT,
];

/// Run the sweep, protocol by protocol. Low contention so the thread
/// sweep measures the engine hot path, not lock queueing: uniform access
/// over 64 counters per site, hot-key commuting increments.
pub fn run(txns: usize, thread_counts: &[usize]) -> Vec<Cell> {
    let spec = MixSpec {
        objects_per_site: 64,
        theta: 0.0,
        max_fanout: 2,
        ..MixSpec::default()
    };
    let point = |&threads: &usize| {
        let seed = 9_000 + threads as u64;
        Point::of_mix(threads as f64, MixKind::HotKey, &spec, seed, txns, threads)
    };
    let points: Vec<Point> = thread_counts.iter().map(point).collect();
    let lane = |regime| sweep(tuned_config, &[Wire::InProcess], &points, &[regime], offer);
    Regime::PROTOCOLS.into_iter().flat_map(lane).collect()
}

/// `cell`'s throughput relative to its protocol's run at the first (the
/// smallest) thread count.
fn speedup(rows: &[Cell], cell: &Cell) -> Option<f64> {
    let base = rows.iter().find(|c| c.regime == cell.regime)?;
    let (t, b) = (cell.m.throughput()?, base.m.throughput()?);
    (b > 0.0).then(|| t / b)
}

/// Render as the report table.
pub fn table(rows: &[Cell]) -> TextTable {
    let facts = |c: &Cell| [c.labels(), vec![opt2(speedup(rows, c))]].concat();
    cells(
        "E9 — threaded scaling: throughput & group-commit amortization vs worker threads",
        &COLS,
        rows.iter().map(|c| (facts(c), &c.m)),
    )
}

/// The shape checks for this experiment.
pub fn verdicts(rows: &[Cell]) -> Vec<String> {
    let mut out = Vec::new();
    // E9-1: group commit amortizes forces once ≥4 committers run — the
    // commit-before rows (the paper's protocol) must show < 1 force per
    // acknowledged record at every thread count ≥ 4.
    let hot: Vec<&Cell> = rows
        .iter()
        .filter(|c| c.regime == Regime::CommitBefore && c.x >= 4.0)
        .collect();
    let batched = !hot.is_empty()
        && hot
            .iter()
            .all(|c| c.m.forces_per_commit().is_some_and(|f| f < 1.0));
    let shown = hot
        .iter()
        .map(|c| format!("{}T {}", c.axis, opt2(c.m.forces_per_commit())))
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
    let max_threads = rows.iter().map(|c| c.x).fold(0.0, f64::max);
    let best = rows
        .iter()
        .filter(|c| c.x == max_threads)
        .filter_map(|c| speedup(rows, c).map(|s| (c.regime, s)))
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
        None => verdict(false, "E9-2: no speedup measured (n=0)"),
    });
    out
}

/// The report section.
pub fn report(quick: bool) -> String {
    let rows = run(if quick { 60 } else { 200 }, &[1, 2, 4, 8]);
    section(&[table(&rows)], &verdicts(&rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_is_relative_to_each_protocols_first_thread_count() {
        let rows = run(12, &[1, 2]);
        let order: Vec<_> = rows.iter().map(|c| (c.regime, c.x)).collect();
        let expected: Vec<_> = Regime::PROTOCOLS
            .into_iter()
            .flat_map(|r| [(r, 1.0), (r, 2.0)])
            .collect();
        assert_eq!(order, expected, "protocol by protocol, threads inside");
        for base in rows.iter().filter(|c| c.x == 1.0) {
            assert_eq!(speedup(&rows, base), Some(1.0));
            // One committer: every acknowledged record paid its own force.
            assert_eq!(base.m.forces_per_commit(), Some(1.0));
        }
        assert!(rows.iter().all(|c| speedup(&rows, c).is_some()));
    }
}
