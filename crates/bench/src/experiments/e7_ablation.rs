//! **E7 — ablation: where does the win come from?** (§4.1 / claim C4).
//!
//! Three configurations on the same increment-heavy hot workload:
//!
//! 1. commit-before + **semantic** L1 conflicts (the paper's proposal) —
//!    concurrent increments on the same object interleave;
//! 2. commit-before + **read/write** L1 conflicts — same protocol, but
//!    commutativity is ignored (what a system blind to operation semantics
//!    would do);
//! 3. **2PC flat** — single-level locking, the classical baseline.
//!
//! Isolates the multi-level-transaction contribution (1 vs 2) from the
//! commit-point contribution (2 vs 3).

use crate::setup::{offer, sizes, sweep, tuned_config, Cell, Point, Regime, Wire};
use crate::table::{cells, f2, section, verdict, Col, TextTable};
use amc_workload::{MixKind, MixSpec};

const COLS: [Col; 5] = [
    Col::fact("theta"),
    Col::fact("config"),
    Col::TXN_S,
    Col::L1_REJECTIONS,
    Col::COMMITS,
];

/// The three configurations, and what this table calls them.
const CONFIGS: [(Regime, &str); 3] = [
    (Regime::CommitBefore, "commit-before + semantic (MLT)"),
    (Regime::CommitBeforeRw, "commit-before + read/write"),
    (Regime::Classic2pc, "2PC flat"),
];

/// Hot-key commuting increments over 2 sites of 16 counters.
fn spec(theta: f64) -> MixSpec {
    MixSpec {
        sites: 2,
        objects_per_site: 16, // very hot: commutativity is the whole game
        theta,
        intended_abort_prob: 0.0,
        max_fanout: 2,
    }
}

/// Run the three configurations across `thetas`.
pub fn run(txns: usize, threads: usize, thetas: &[f64]) -> Vec<Cell> {
    let point = |&theta: &f64| {
        Point::of_mix(theta, MixKind::HotKey, &spec(theta), 0xE7, txns, threads).labelled(f2(theta))
    };
    let points: Vec<Point> = thetas.iter().map(point).collect();
    let regimes = CONFIGS.map(|(regime, _)| regime);
    sweep(tuned_config, &[Wire::InProcess], &points, &regimes, offer)
}

/// Render the report table.
pub fn table(rows: &[Cell]) -> TextTable {
    let config = |c: &Cell| {
        CONFIGS
            .iter()
            .find(|(r, _)| *r == c.regime)
            .expect("swept")
            .1
    };
    cells(
        "E7 — ablation: semantic (MLT) conflicts vs read/write conflicts vs flat 2PC (pure increments)",
        &COLS,
        rows.iter()
            .map(|c| (vec![c.axis.clone(), config(c).to_string()], &c.m)),
    )
}

/// Shape checks.
pub fn verdicts(rows: &[Cell]) -> Vec<String> {
    let mut out = Vec::new();
    let get = |r: Regime| rows.iter().find(|c| c.x >= 0.9 && c.regime == r);
    if let (Some(semantic), Some(rw), Some(flat)) = (
        get(Regime::CommitBefore),
        get(Regime::CommitBeforeRw),
        get(Regime::Classic2pc),
    ) {
        let [st, rt, ft] = [semantic, rw, flat].map(|c| c.m.throughput().unwrap_or(0.0));
        out.push(verdict(
            semantic.m.throughput().is_some() && st > rt,
            format!(
                "C4-1: semantic conflicts beat read/write conflicts on hot increments \
                 ({st:.1} vs {rt:.1} txn/s)"
            ),
        ));
        out.push(verdict(
            semantic.m.throughput().is_some() && st > ft,
            format!(
                "C4-2: semantic MLT beats flat 2PC ({:.1} vs {:.1} txn/s)",
                st, ft
            ),
        ));
        out.push(verdict(
            semantic.m.l1_rejections == 0,
            format!(
                "C4-3: increments never collide at L1 under the semantic policy ({} rejections)",
                semantic.m.l1_rejections
            ),
        ));
    }
    out
}

/// The report section.
pub fn report(quick: bool) -> String {
    let thetas: &[f64] = if quick { &[0.99] } else { &[0.0, 0.9, 0.99] };
    let (txns, threads) = sizes(quick);
    let rows = run(txns, threads, thetas);
    section(&[table(&rows)], &verdicts(&rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_three_configurations_are_three_regimes_of_one_sweep() {
        let rows = run(12, 2, &[0.99]);
        let regimes: Vec<Regime> = rows.iter().map(|c| c.regime).collect();
        assert_eq!(regimes, CONFIGS.map(|(regime, _)| regime));
        assert!(rows.iter().all(|c| c.m.committed == 12));
        // C4-3 is a count: commuting increments never collide at L1.
        assert_eq!(rows[0].m.l1_rejections, 0);
        let rendered = table(&rows).render();
        for (_, name) in CONFIGS {
            assert!(rendered.contains(name), "{rendered}");
        }
    }
}
