//! **E13 — the fast-path commit layer: vote piggyback + single-site
//! bypass** (amc-core).
//!
//! Sweep the single-site fraction of a disjoint transfer workload from 0%
//! to 100% and run each point through four commit layers: fast-path 2PC
//! (the tentpole: `SubmitPrepare` piggybacks the vote on the final op
//! dispatch, and single-site transactions bypass the global round
//! entirely) against the three baselines — classic 2PC, commit-after and
//! commit-before — on both wires (in-process dispatch and loopback TCP).
//!
//! The claimed shapes:
//!
//! * the piggyback saves one round trip per multi-site transaction —
//!   fast-path msgs/txn sits below classic 2PC at **every** sweep point
//!   (8 vs 12 for a pure 2-site mix), and the gap is at least the two
//!   messages of the folded prepare round;
//! * a 100%-single-site mix commits with **zero** global rounds — the
//!   solo dispatch and its reply are the only messages (2/txn, against
//!   classic 2PC's 6).

use crate::setup::{offer, sizes, sweep, wire_config, Cell, Point, ProgramBatch, Regime, Wire};
use crate::table::{cells, opt2, section, verdict, Col, TextTable};
use amc_types::SiteId;
use amc_workload::{object, transfer};

const SITES: u32 = 2;

/// The commit layers compared: classic 2PC, the fast path, and the two
/// portable baselines — [`Regime`] without its L1 ablation.
pub(crate) const LAYERS: &[Regime] = Regime::ALL.split_at(4).0;

const COLS: [Col; 7] = [
    Col::fact("single %"),
    Col::fact("layer"),
    Col::fact("wire"),
    Col::COMMITS,
    Col::MSG_PER_TXN,
    Col::P50_MS,
    Col::P99_MS,
];

/// Disjoint sum-neutral programs: transaction *i* touches only its own
/// objects, so the measured cost is the message path, not lock queueing.
/// `pct_single` percent of the mix (interleaved, not front-loaded) are
/// single-site two-op updates; the rest are 2-site transfers.
fn programs(txns: usize, pct_single: usize) -> ProgramBatch {
    (0..txns as u64)
        .map(|i| {
            let per_site = if (i % 100) < pct_single as u64 {
                let site = SiteId::new((i as u32 % SITES) + 1);
                transfer(object(site, txns as u64 + i), object(site, i), 3)
            } else {
                transfer(object(SiteId::new(1), i), object(SiteId::new(2), i), 3)
            };
            (per_site, false)
        })
        .collect()
}

/// The sweep points: single-site fraction 0% → 100%.
pub(crate) const SWEEP: [usize; 5] = [0, 25, 50, 75, 100];

/// Run the sweep. Engines carry no modelled delays (`wire_config`): the
/// fast path's win is fewer message rounds, so nothing synthetic is added.
pub fn run(txns: usize, clients: usize) -> Vec<Cell> {
    let points = SWEEP.map(|pct| Point {
        axis: pct.to_string(),
        x: pct as f64,
        sites: SITES,
        objects: 2 * txns as u64,
        seed: 0,
        programs: programs(txns, pct),
        clients,
    });
    sweep(wire_config, &Wire::ALL, &points, LAYERS, offer)
}

/// The report section.
pub fn report(quick: bool) -> String {
    let rows = run(if quick { 100 } else { 300 }, sizes(quick).1);
    section(&[table(&rows)], &verdicts(&rows))
}

/// Render as the report table.
pub fn table(rows: &[Cell]) -> TextTable {
    let facts = |c: &Cell| [c.labels(), vec![c.wire.label().to_string()]].concat();
    cells(
        "E13 — fast-path commit layer: vote piggyback + single-site bypass",
        &COLS,
        rows.iter().map(|c| (facts(c), &c.m)),
    )
}

/// The shape checks for this experiment.
pub fn verdicts(rows: &[Cell]) -> Vec<String> {
    let mut out = Vec::new();
    // Messages per committed transaction of one cell.
    let msgs = |layer: Regime, wire: Wire, pct: usize| {
        rows.iter()
            .find(|c| c.regime == layer && c.wire == wire && c.x == pct as f64)
            .and_then(|c| c.m.messages_per_commit())
    };

    // E13-1: every (layer, wire, fraction) cell commits.
    let all_commit = rows.iter().all(|c| c.m.committed > 0);
    out.push(verdict(
        all_commit,
        format!(
            "E13-1: every (layer, wire, fraction) cell commits transactions ({} cells)",
            rows.len()
        ),
    ));

    // E13-2: the piggyback saves at least one round trip per multi-site
    // transaction — fast-path msgs/txn < classic 2PC at EVERY sweep
    // point on both wires, by >= 2 messages whenever the mix has
    // multi-site transactions.
    let mut points = 0;
    let mut saved = 0;
    for wire in Wire::ALL {
        for pct in SWEEP {
            let (fast, classic) = (
                msgs(Regime::FastPath, wire, pct),
                msgs(Regime::Classic2pc, wire, pct),
            );
            if let (Some(f), Some(c)) = (fast, classic) {
                points += 1;
                let margin = if pct < 100 { 2.0 } else { 0.0 };
                if f < c && c - f >= margin {
                    saved += 1;
                }
            }
        }
    }
    out.push(verdict(
        points == 10 && saved == points,
        format!("E13-2: fast-path msgs/txn < classic 2pc at every sweep point ({saved}/{points})"),
    ));

    // E13-3: a 100%-single-site mix commits with zero global rounds —
    // the solo dispatch and its reply are the only messages.
    let mut solo_ok = true;
    for wire in Wire::ALL {
        match msgs(Regime::FastPath, wire, 100) {
            Some(m) if m <= 2.0 + 1e-9 => {}
            _ => solo_ok = false,
        }
    }
    out.push(verdict(
        solo_ok,
        format!(
            "E13-3: 100% single-site commits at 2 msgs/txn — no global round ({} / {})",
            opt2(msgs(Regime::FastPath, Wire::InProcess, 100)),
            opt2(msgs(Regime::FastPath, Wire::ThreadedPooled, 100))
        ),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_pins_the_fast_path_shapes() {
        let rows = run(40, 4);
        assert_eq!(rows.len(), 2 * SWEEP.len() * LAYERS.len());
        for v in verdicts(&rows) {
            assert!(v.starts_with("[PASS]"), "{v}");
        }
        // The exact failure-free message counts: a pure 2-site mix costs
        // the fast path 8 msgs/txn against classic 2PC's 12; a pure
        // single-site mix costs 2 against 6.
        let cell = |layer: Regime, pct: usize| {
            rows.iter()
                .find(|c| c.regime == layer && c.wire == Wire::InProcess && c.x == pct as f64)
                .and_then(|c| c.m.messages_per_commit())
                .unwrap()
        };
        assert_eq!(cell(Regime::FastPath, 0), 8.0);
        assert_eq!(cell(Regime::Classic2pc, 0), 12.0);
        assert_eq!(cell(Regime::FastPath, 100), 2.0);
        assert_eq!(cell(Regime::Classic2pc, 100), 6.0);
    }
}
