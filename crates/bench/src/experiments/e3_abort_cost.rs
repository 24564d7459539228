//! **E3 — intended-abort crossover** (§4.3 / claim C3-b).
//!
//! "The only drawback of commitment before global decision is the overhead
//! in case of an intended local transaction abort ... Intended transaction
//! aborts are handled better if local transactions are committed after the
//! global decision is made." Sweep the intended-abort rate and measure both
//! portable protocols: commit-before pays inverse transactions per abort;
//! commit-after aborts running locals for free. The shape to reproduce: the
//! commit-before advantage shrinks (or inverts) as the abort rate grows.

use crate::setup::{offer, sizes, sweep, tuned_config, Cell, Point, Regime, Wire};
use crate::table::{cells, f2, section, verdict, Col, TextTable};
use amc_workload::{OpMix, WorkloadSpec};

const COLS: [Col; 8] = [
    Col::fact("abort-rate"),
    Col::fact("protocol"),
    // Aborted work still costs time.
    Col::DONE_S.named("completions/s"),
    Col::UNDOS_PER_ABORT,
    Col::P50_MS.named("lat p50 ms"),
    Col::P99_MS.named("lat p99 ms"),
    Col::COMMITS,
    Col::INTENDED_ABORTS,
];

fn spec(abort_prob: f64) -> WorkloadSpec {
    WorkloadSpec {
        sites: 3,
        objects_per_site: 512,
        zipf_theta: 0.0,
        ops_per_txn: 6,
        sites_per_txn: 2,
        mix: OpMix::MIXED,
        intended_abort_prob: abort_prob,
    }
}

/// Run the sweep.
pub fn run(txns: usize, threads: usize, abort_rates: &[f64]) -> Vec<Cell> {
    let point =
        |&rate: &f64| Point::of_spec(rate, &spec(rate), 3_000, txns, threads).labelled(f2(rate));
    let points: Vec<Point> = abort_rates.iter().map(point).collect();
    let regimes = [Regime::CommitBefore, Regime::CommitAfter];
    sweep(tuned_config, &[Wire::InProcess], &points, &regimes, offer)
}

/// Render the report table.
pub fn table(rows: &[Cell]) -> TextTable {
    cells(
        "E3 — intended-abort handling: commit-before pays undo, commit-after aborts for free",
        &COLS,
        rows.iter().map(|c| (c.labels(), &c.m)),
    )
}

/// Shape checks.
pub fn verdicts(rows: &[Cell]) -> Vec<String> {
    let mut out = Vec::new();
    // The first cell of `regime` at a low (`<= 0.01`) or high (`>= 0.3`)
    // abort rate.
    let pick = |regime: Regime, high: bool| {
        rows.iter()
            .find(|c| c.regime == regime && if high { c.x >= 0.3 } else { c.x <= 0.01 })
    };
    // Commit-before must run >= 1 inverse transaction per intended abort
    // with committed locals; commit-after must run none.
    if let (Some(cb), Some(ca)) = (
        pick(Regime::CommitBefore, true),
        pick(Regime::CommitAfter, true),
    ) {
        let (cb, ca) = (cb.m.undos_per_abort(), ca.m.undos_per_abort());
        out.push(verdict(
            cb.is_some_and(|u| u > 0.0),
            format!(
                "C3b-1: commit-before runs inverse txns on intended aborts ({:.2}/abort)",
                cb.unwrap_or(0.0)
            ),
        ));
        out.push(verdict(
            ca == Some(0.0),
            format!(
                "C3b-2: commit-after needs no undo machinery ({:.2}/abort)",
                ca.unwrap_or(0.0)
            ),
        ));
    }
    // The relative gap between the protocols must shrink as aborts rise.
    let gap_at = |high: bool| -> Option<f64> {
        let done = |regime| pick(regime, high)?.m.completions_per_sec();
        Some(done(Regime::CommitBefore)? / done(Regime::CommitAfter)?.max(1e-9))
    };
    if let (Some(lo), Some(hi)) = (gap_at(false), gap_at(true)) {
        out.push(verdict(
            hi < lo,
            format!(
                "C3b-3: commit-before's edge shrinks as the abort rate grows \
                 (ratio {lo:.2} -> {hi:.2})"
            ),
        ));
    }
    out
}

/// The report section.
pub fn report(quick: bool) -> String {
    let rates: &[f64] = if quick {
        &[0.0, 0.4]
    } else {
        &[0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    };
    let (txns, threads) = sizes(quick);
    let rows = run(txns, threads, rates);
    section(&[table(&rows)], &verdicts(&rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_protocols_see_the_same_aborts_and_only_commit_before_undoes() {
        let rows = run(20, 2, &[0.0, 0.4]);
        assert_eq!(rows.len(), 4);
        let at = |regime, x: f64| {
            let cell = rows.iter().find(|c| c.regime == regime && c.x == x);
            &cell.expect("swept").m
        };
        let (cb, ca) = (at(Regime::CommitBefore, 0.4), at(Regime::CommitAfter, 0.4));
        // One seeded stream: the same programs intend their abort.
        assert!(cb.aborted_intended > 0);
        assert_eq!(cb.aborted_intended, ca.aborted_intended);
        assert_eq!(cb.committed + cb.aborted_intended, 20);
        assert!(cb.undo_runs > 0);
        assert_eq!(ca.undo_runs, 0);
        // Nothing intended an abort at rate 0: the ratio is absent, not 0.
        assert_eq!(at(Regime::CommitBefore, 0.0).undos_per_abort(), None);
        assert!(table(&rows).render().contains("n=0"));
    }
}
