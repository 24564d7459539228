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

use crate::setup::{offer, sizes, sweep, tuned_config, Cell, Point, Regime, Testbed, Wire};
use crate::table::{cells, f2, section, verdict, Col, TextTable};
use amc_workload::{MixKind, MixSpec};

const COLS: [Col; 7] = [
    Col::fact("p"),
    Col::TXN_S,
    Col::REDOS_PER_COMMIT,
    Col::MEAN_MS,
    Col::P50_MS.named("lat p50 ms"),
    Col::P99_MS.named("lat p99 ms"),
    Col::COMMITS,
];

/// Independent runs per probability; the median by throughput is kept.
const ROUNDS: u64 = 3;

/// Round `r` draws its programs from `SEED + r`.
const SEED: u64 = 2_000;

/// The generic read/increment/write mix over 3 sites of 128 objects.
fn spec() -> MixSpec {
    MixSpec {
        sites: 3,
        objects_per_site: 128,
        // Moderate contention: a repetition extends the transaction's lock
        // tenure, and that is what other transactions pay for — the paper's
        // "if local transactions have to be repeated frequently,
        // performance decreases" is a statement about a loaded system.
        theta: 0.6,
        intended_abort_prob: 0.0,
        max_fanout: 2,
    }
}

/// Run the sweep over injected probabilities. Each point is the median of
/// three independent runs (by throughput): rare distributed lock cycles
/// between a mandatory redo and a pre-vote submit resolve via timeouts and
/// can stall one run by ~a second, which would otherwise swamp the ~15%
/// effect under measurement.
pub fn run(txns: usize, threads: usize, probabilities: &[f64]) -> Vec<Cell> {
    let spec = spec();
    let rounds = |&p: &f64| (0..ROUNDS).map(move |round| (p, round));
    let points: Vec<Point> = probabilities
        .iter()
        .flat_map(rounds)
        .map(|(p, round)| {
            Point::of_mix(p, MixKind::Zipf, &spec, SEED + round, txns, threads).labelled(f2(p))
        })
        .collect();
    // The §3.2 hazard, injected at every communication manager before
    // the load is offered.
    let inject = |bed: &Testbed, point: &Point| {
        for (site, manager) in bed.fleet().managers() {
            let seed = 0xE2 + u64::from(site.raw()) + (point.seed - SEED) * 977;
            manager.inject_post_ready_aborts(point.x, seed);
        }
        offer(bed, point)
    };
    let regime = [Regime::CommitAfter];
    let mut cells = sweep(tuned_config, &[Wire::InProcess], &points, &regime, inject);
    let throughput = |c: &Cell| c.m.throughput().unwrap_or(0.0);
    for rounds in cells.chunks_mut(ROUNDS as usize) {
        rounds.sort_by(|a, b| throughput(a).total_cmp(&throughput(b)));
    }
    cells.into_iter().skip(1).step_by(ROUNDS as usize).collect()
}

/// Render the report table.
pub fn table(rows: &[Cell]) -> TextTable {
    cells(
        "E2 — commit-after redo cost vs post-ready erroneous-abort probability",
        &COLS,
        rows.iter().map(|c| (vec![c.axis.clone()], &c.m)),
    )
}

/// Shape checks.
pub fn verdicts(rows: &[Cell]) -> Vec<String> {
    let mut out = Vec::new();
    if let (Some(first), Some(last)) = (rows.first(), rows.last()) {
        let redos = |c: &Cell| c.m.redos_per_commit().unwrap_or(0.0);
        out.push(verdict(
            redos(last) > redos(first),
            format!(
                "C3a-1: redo rate grows with p ({:.3} at p={:.1} -> {:.3} at p={:.1})",
                redos(first),
                first.x,
                redos(last),
                last.x
            ),
        ));
        let first_t = first.m.throughput().unwrap_or(0.0);
        let last_t = last.m.throughput().unwrap_or(0.0);
        out.push(verdict(
            first.m.throughput().is_some() && last_t < first_t,
            format!(
                "C3a-2: throughput declines with p ({:.1} -> {:.1} txn/s)",
                first_t, last_t
            ),
        ));
        out.push(verdict(
            rows.iter().all(|c| c.m.committed > 0),
            format!(
                "C3a-3: atomicity holds — every submitted txn still commits ({} commits)",
                last.m.committed
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_probability_keeps_the_median_run_and_redo_counts_follow_the_injection() {
        let rows = run(12, 2, &[0.0, 0.5]);
        let ps: Vec<f64> = rows.iter().map(|c| c.x).collect();
        assert_eq!(ps, [0.0, 0.5], "one median cell per probability");
        // Atomicity is a count: every offered program commits, redo or not.
        assert!(rows.iter().all(|c| c.m.committed == 12));
        assert_eq!(rows[0].m.redo_runs, 0, "nothing injected, nothing redone");
        assert!(rows[1].m.redo_runs > 0, "p = 0.5 over 24 participants");
        assert_eq!(rows[0].m.redos_per_commit(), Some(0.0));
    }
}
