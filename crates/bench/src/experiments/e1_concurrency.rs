//! **E1 — degree of concurrency** (§4.3 / claim C2, Fig. 8).
//!
//! Sweep contention (Zipf θ over a hot object set) and measure, per
//! protocol: committed-transaction throughput and the mean L0 lock tenure
//! (first submit → local lock release). The paper's claim: commit-before +
//! MLT releases L0 locks at local commit, so its tenure stays flat and its
//! throughput degrades least as contention rises; 2PC and commit-after
//! hold L0 locks to the global end and lose the multi-level advantage.

use crate::setup::{offer, sizes, sweep, tuned_config, Cell, Point, Regime, Wire};
use crate::table::{cells, f2, section, verdict, Col, TextTable};
use amc_workload::{MixKind, MixSpec};

const COLS: [Col; 9] = [
    Col::fact("theta"),
    Col::fact("protocol"),
    Col::TXN_S,
    Col::L0_HOLD_MS,
    Col::MEAN_MS,
    Col::P50_MS.named("lat p50 ms"),
    Col::P99_MS.named("lat p99 ms"),
    Col::COMMITS,
    Col::CONTENTION_ABORTS,
];

/// Run the sweep: hot-key commuting increments (the MLT sweet spot), 3
/// sites, a small hot set of 64 counters so θ bites.
pub fn run(txns: usize, threads: usize, thetas: &[f64]) -> Vec<Cell> {
    let point = |&theta: &f64| {
        let seed = 7_000 + (theta * 100.0) as u64;
        let spec = MixSpec {
            objects_per_site: 64,
            theta,
            max_fanout: 2,
            ..MixSpec::default()
        };
        Point::of_mix(theta, MixKind::HotKey, &spec, seed, txns, threads).labelled(f2(theta))
    };
    let points: Vec<Point> = thetas.iter().map(point).collect();
    sweep(
        tuned_config,
        &[Wire::InProcess],
        &points,
        &Regime::PROTOCOLS,
        offer,
    )
}

/// Render as the report table.
pub fn table(rows: &[Cell]) -> TextTable {
    cells(
        "E1 — concurrency: throughput & L0 lock tenure vs contention (increment-heavy)",
        &COLS,
        rows.iter().map(|c| (c.labels(), &c.m)),
    )
}

/// The paper-shape checks for this experiment (returns human-readable
/// verdict lines).
pub fn verdicts(rows: &[Cell]) -> Vec<String> {
    let mut out = Vec::new();
    let get = |r: Regime| rows.iter().find(|c| c.x >= 0.9 && c.regime == r);
    if let (Some(before), Some(after), Some(two_pc)) = (
        get(Regime::CommitBefore),
        get(Regime::CommitAfter),
        get(Regime::Classic2pc),
    ) {
        // An absent measurement (n=0) can never PASS a superiority claim.
        let [bt, at, tt] = [before, after, two_pc].map(|c| c.m.throughput().unwrap_or(0.0));
        let [bh, ah, th] = [before, after, two_pc].map(|c| c.m.mean_l0_hold_ms());
        out.push(verdict(
            before.m.throughput().is_some() && bt >= at,
            format!(
                "C2a: commit-before throughput >= commit-after under contention \
                 ({bt:.1} vs {at:.1} txn/s)"
            ),
        ));
        out.push(verdict(
            before.m.throughput().is_some() && bt >= tt,
            format!(
                "C2b: commit-before throughput >= 2PC under contention ({:.1} vs {:.1} txn/s)",
                bt, tt
            ),
        ));
        let worst = |h: Option<f64>| h.unwrap_or(f64::MAX);
        out.push(verdict(
            bh.is_some() && worst(bh) <= worst(ah) && worst(bh) <= worst(th),
            format!(
                "C2c: commit-before holds L0 locks shortest ({:.2} ms vs {:.2} / {:.2})",
                bh.unwrap_or(0.0),
                ah.unwrap_or(0.0),
                th.unwrap_or(0.0)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_theta_runs_every_protocol_and_fills_every_column() {
        let rows = run(12, 2, &[0.0, 0.99]);
        let cells: Vec<_> = rows.iter().map(|c| (c.axis.as_str(), c.regime)).collect();
        let expected: Vec<_> = ["0.00", "0.99"]
            .into_iter()
            .flat_map(|theta| Regime::PROTOCOLS.map(|r| (theta, r)))
            .collect();
        assert_eq!(cells, expected);
        assert!(rows.iter().all(|c| c.m.committed == 12 && c.offered == 12));
        let rendered = table(&rows).render();
        assert_eq!(rendered.lines().count(), 3 + rows.len());
        assert!(!rendered.contains("n=0"), "{rendered}");
        assert_eq!(verdicts(&rows).len(), 3);
    }
}
