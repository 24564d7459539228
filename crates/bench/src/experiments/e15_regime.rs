//! **E15 — the protocol regime map**: the full protocol matrix against the
//! contention-aware workload engine (`amc_workload::mixes`).
//!
//! Four lanes, each sweeping one axis of workload shape while holding the
//! others fixed, all five regimes per cell:
//!
//! * **contention** — the hot-key commuting-counter mix over a small hot
//!   set, Zipf theta 0 → 1.2 (claims C2/C4: where does commit-before pull
//!   ahead, and what does semantic L1 locking buy over read/write?);
//! * **fan-out** — the TPC-C-style `NewOrder` profile at 1–3 participating
//!   sites (message complexity vs. lock tenure as transactions widen);
//! * **aborts** — the generic Zipf mix with an *intended*-abort dial
//!   (claim C3: commit-after's edge is transactions that abort through
//!   their own logic);
//! * **wire** — the `NewOrder` profile with its escrow [`Reserve`]s run
//!   over both the in-process dispatch and loopback TCP: the same seeded
//!   program stream on both, so the regime map's advice transfers from
//!   the DES numbers to the networked runtime.
//!
//! Every cell also replays the engine's correctness oracles where they
//! apply: the hot-key lane checks federation-wide counter conservation,
//! the wire lane checks the escrow bound (no stock counter below zero)
//! and pins that both wires consumed bit-identical program streams.
//!
//! The measured tables land in `bench_report.txt`; OPERATORS.md turns the
//! per-cell winners into the operator's regime map.
//!
//! [`Reserve`]: amc_types::Operation::Reserve

use crate::setup::{batch, mix_batch, tuned_config, wire_config, Regime, Testbed, Wire, WIRES};
use crate::table::{opt2, opt3, section, verdict, TextTable};
use amc_core::{Federation, RunMetrics};
use amc_net::marker::is_marker;
use amc_workload::{fingerprint, MixGen, MixKind, MixSpec};

const SITES: u32 = 3;

/// One measured cell of any lane. `axis` is the lane's sweep coordinate
/// (theta, fan-out, abort rate, or wire), formatted by the lane.
#[derive(Debug, Clone)]
pub struct Row {
    /// Sweep coordinate, pre-formatted (`"θ=0.9"`, `"fanout=2"`, ...).
    pub axis: String,
    /// Regime under test.
    pub regime: Regime,
    /// Commits achieved.
    pub committed: u64,
    /// Committed txns per second.
    pub txn_s: Option<f64>,
    /// Commits plus aborts per second (the C3 denominator).
    pub done_s: Option<f64>,
    /// Median commit latency, ms.
    pub p50_ms: Option<f64>,
    /// Tail commit latency, ms.
    pub p99_ms: Option<f64>,
    /// Total abort fraction.
    pub abort_rate: Option<f64>,
    /// Intended (transaction-logic) abort fraction.
    pub intended_rate: Option<f64>,
    /// Messages per committed transaction.
    pub msgs_per_txn: Option<f64>,
    /// Lane-specific oracle (conservation / escrow bound); `true` where
    /// the oracle does not apply.
    pub oracle_ok: bool,
}

impl Row {
    fn new(axis: String, regime: Regime, m: &RunMetrics, oracle_ok: bool) -> Row {
        Row {
            axis,
            regime,
            committed: m.committed,
            txn_s: m.throughput(),
            done_s: m.completions_per_sec(),
            p50_ms: m.latency_p50_ms(),
            p99_ms: m.latency_p99_ms(),
            abort_rate: m.abort_rate(),
            intended_rate: m.intended_abort_rate(),
            msgs_per_txn: m.messages_per_commit(),
            oracle_ok,
        }
    }
}

/// Run one in-process cell: build a tuned testbed for the regime, run the
/// seeded batch, then replay the lane oracle over the final dump.
fn run_cell(
    regime: Regime,
    kind: MixKind,
    spec: &MixSpec,
    seed: u64,
    axis: String,
    txns: usize,
    clients: usize,
) -> Row {
    let fed = Testbed::build(
        regime.config(spec.sites, tuned_config),
        Wire::InProcess,
        spec.objects_per_site,
    );
    let m = fed.run_concurrent(mix_batch(kind, spec, seed, txns), clients);
    // Commit-after may still owe redo executions; settle them so the
    // conservation oracle sees the final state.
    let _ = fed.resolve_pending();
    let oracle_ok = !(kind.conserves_sum() && spec.intended_abort_prob == 0.0)
        || counters(&fed).iter().sum::<i64>() == spec.initial_sum();
    Row::new(axis, regime, &m, oracle_ok)
}

/// Every user-object counter in the federation (markers excluded).
fn counters(fed: &Federation) -> Vec<i64> {
    let dumps = fed.dumps().expect("dumps");
    let user = dumps.values().flatten().filter(|(o, _)| !is_marker(**o));
    user.map(|(_, v)| v.counter).collect()
}

/// One in-process lane: every regime at every `(axis, spec)` sweep point
/// of the seeded `kind` mix.
fn run_lane(
    kind: MixKind,
    seed: u64,
    points: impl IntoIterator<Item = (String, MixSpec)>,
    txns: usize,
    clients: usize,
) -> Vec<Row> {
    let mut rows = Vec::new();
    for (axis, spec) in points {
        for regime in Regime::ALL {
            let axis = axis.clone();
            rows.push(run_cell(regime, kind, &spec, seed, axis, txns, clients));
        }
    }
    rows
}

/// A lane's spec: `SITES` sites, no intended aborts unless dialled.
fn spec(objects_per_site: u64, theta: f64, max_fanout: u32) -> MixSpec {
    MixSpec {
        sites: SITES,
        objects_per_site,
        theta,
        intended_abort_prob: 0.0,
        max_fanout,
    }
}

/// The contention sweep points.
pub const THETAS: [f64; 4] = [0.0, 0.6, 0.9, 1.2];

/// Lane 1 — contention: hot-key commuting counters over a small hot set
/// (48 objects/site), theta 0 → 1.2.
pub fn run_contention(txns: usize, clients: usize) -> Vec<Row> {
    let points = THETAS.map(|theta| (format!("theta={theta}"), spec(48, theta, 3)));
    run_lane(MixKind::HotKey, 0xE15A, points, txns, clients)
}

/// The fan-out sweep points (participating sites per `NewOrder`).
pub const FANOUTS: [u32; 3] = [1, 2, 3];

/// Lane 2 — fan-out: the TPC-C-style `NewOrder` profile capped at 1, 2,
/// then 3 participating sites.
pub fn run_fanout(txns: usize, clients: usize) -> Vec<Row> {
    let points = FANOUTS.map(|fanout| (format!("fanout<={fanout}"), spec(256, 0.6, fanout)));
    run_lane(MixKind::TpccLite, 0xE15B, points, txns, clients)
}

/// The intended-abort sweep points.
pub const ABORT_RATES: [f64; 3] = [0.0, 0.2, 0.4];

/// Lane 3 — intended aborts: the generic Zipf mix with the
/// transaction-logic abort dial at 0%, 20%, 40%.
pub fn run_aborts(txns: usize, clients: usize) -> Vec<Row> {
    let points = ABORT_RATES.map(|intended_abort_prob| {
        let spec = MixSpec {
            intended_abort_prob,
            ..spec(256, 0.6, 2)
        };
        (format!("abort={intended_abort_prob}"), spec)
    });
    run_lane(MixKind::Zipf, 0xE15C, points, txns, clients)
}

/// One wire-lane cell: `NewOrder` escrow reserves over a real transport.
#[derive(Debug, Clone)]
pub struct WireRow {
    /// Measurements (axis = wire label).
    pub row: Row,
    /// Wire under test.
    pub wire: Wire,
    /// Smallest stock counter after the run (escrow bound: must be >= 0).
    pub min_counter: i64,
    /// Fingerprint of the program stream this cell consumed.
    pub stream_fp: u64,
}

/// Lane 4 — the wire lane: the `NewOrder` profile (theta 0.9) with its
/// escrow reserves over in-process dispatch and loopback TCP. Engines run
/// without modelled delays (as in E10/E13): the wire itself is the cost
/// under test, and the seeded stream is pinned identical on both.
pub fn run_wire(txns: usize, clients: usize) -> Vec<WireRow> {
    let spec = spec(128, 0.9, 3);
    let mut rows = Vec::new();
    for wire in WIRES {
        for regime in Regime::ALL {
            rows.push(run_wire_cell(regime, wire, &spec, txns, clients));
        }
    }
    rows
}

fn run_wire_cell(
    regime: Regime,
    wire: Wire,
    spec: &MixSpec,
    txns: usize,
    clients: usize,
) -> WireRow {
    let fed = Testbed::build(
        regime.config(spec.sites, wire_config),
        wire,
        spec.objects_per_site,
    );
    // The determinism contract in action: both wires replay the same
    // seeded stream, and the fingerprint pins it.
    let programs = MixGen::new(MixKind::TpccLite, spec.clone(), 0xE15D).programs(txns);
    let stream_fp = fingerprint(&programs);
    let m = fed.run_concurrent(batch(programs), clients);
    let _ = fed.resolve_pending();
    // The escrow bound: a correct `Reserve` path never drives a stock
    // counter negative.
    let floor = counters(&fed).into_iter().min().unwrap_or(0);
    WireRow {
        row: Row::new(wire.label().to_string(), regime, &m, floor >= 0),
        wire,
        min_counter: floor,
        stream_fp,
    }
}

/// Render one lane's table.
pub fn table(title: &str, axis_header: &str, rows: &[Row]) -> TextTable {
    let mut t = TextTable::new(
        title,
        &[
            axis_header,
            "regime",
            "commits",
            "txn/s",
            "done/s",
            "p50 ms",
            "p99 ms",
            "abort",
            "intended",
            "msg/txn",
        ],
    );
    for r in rows {
        t.row(vec![
            r.axis.clone(),
            r.regime.label().to_string(),
            r.committed.to_string(),
            opt2(r.txn_s),
            opt2(r.done_s),
            opt2(r.p50_ms),
            opt2(r.p99_ms),
            opt3(r.abort_rate),
            opt3(r.intended_rate),
            opt2(r.msgs_per_txn),
        ]);
    }
    t
}

/// The per-cell winners — one line per sweep point naming the regime with
/// the highest committed throughput (ties broken toward the earlier
/// [`Regime::ALL`] entry). These lines are what OPERATORS.md's regime map
/// is built from; `done/s` is reported alongside because the C3 lane's
/// interesting quantity is completions, not just commits.
pub fn winners(lane: &str, rows: &[Row]) -> Vec<String> {
    let mut axes: Vec<&str> = Vec::new();
    for r in rows {
        if !axes.contains(&r.axis.as_str()) {
            axes.push(&r.axis);
        }
    }
    axes.iter()
        .map(|axis| {
            let best = rows
                .iter()
                .filter(|r| r.axis == *axis)
                .max_by(|a, b| {
                    a.txn_s
                        .unwrap_or(0.0)
                        .partial_cmp(&b.txn_s.unwrap_or(0.0))
                        .expect("throughputs are finite")
                })
                .expect("every axis has rows");
            format!(
                "winner[{lane}, {axis}]: {} ({} txn/s, {} done/s)",
                best.regime.label(),
                opt2(best.txn_s),
                opt2(best.done_s),
            )
        })
        .collect()
}

/// The shape checks for this experiment.
pub fn verdicts(
    contention: &[Row],
    fanout: &[Row],
    aborts: &[Row],
    wire: &[WireRow],
) -> Vec<String> {
    let mut out = Vec::new();
    let all: Vec<&Row> = contention
        .iter()
        .chain(fanout.iter())
        .chain(aborts.iter())
        .chain(wire.iter().map(|w| &w.row))
        .collect();

    // E15-1: every (lane, axis, regime) cell commits transactions.
    let committing = all.iter().filter(|r| r.committed > 0).count();
    out.push(verdict(
        committing == all.len(),
        format!(
            "E15-1: every (lane, axis, regime) cell commits ({committing}/{} cells)",
            all.len()
        ),
    ));

    // E15-2: the hot-key lane conserves the federation-wide counter sum in
    // every cell — aborted and retried programs roll back exactly, under
    // every regime and every theta.
    let conserved = contention.iter().filter(|r| r.oracle_ok).count();
    out.push(verdict(
        conserved == contention.len(),
        format!(
            "E15-2: counter sum conserved at every contention cell ({conserved}/{})",
            contention.len()
        ),
    ));

    // E15-3 (C4): at the hottest point (theta 1.2) semantic L1 locking
    // out-commits the read/write ablation — commuting increments should
    // not queue.
    let hot = |regime: Regime| {
        contention
            .iter()
            .find(|r| r.regime == regime && r.axis == "theta=1.2")
            .and_then(|r| r.txn_s)
    };
    let c4 = match (hot(Regime::CommitBefore), hot(Regime::CommitBeforeRw)) {
        (Some(sem), Some(rw)) => sem >= rw,
        _ => false,
    };
    out.push(verdict(
        c4,
        format!(
            "E15-3 (C4): semantic L1 >= read/write L1 at theta=1.2 ({} vs {} txn/s)",
            opt2(hot(Regime::CommitBefore)),
            opt2(hot(Regime::CommitBeforeRw))
        ),
    ));

    // E15-4: the measured intended-abort fraction tracks the dial in the
    // abort lane (within 0.15 absolute at every cell) — the dial acts
    // through transaction logic, not through a side channel.
    let mut tracked = 0;
    let mut total = 0;
    for rate in ABORT_RATES {
        for r in aborts.iter().filter(|r| r.axis == format!("abort={rate}")) {
            total += 1;
            if let Some(measured) = r.intended_rate {
                if (measured - rate).abs() <= 0.15 {
                    tracked += 1;
                }
            } else if rate == 0.0 && r.committed == 0 {
                // n=0 cell: nothing ran, nothing to track.
                tracked += 1;
            }
        }
    }
    out.push(verdict(
        tracked == total,
        format!(
            "E15-4 (C3 dial): measured intended-abort rate tracks the configured rate \
             ({tracked}/{total})"
        ),
    ));

    // E15-5: the wire lane's escrow bound holds (no stock counter below
    // zero on either wire) and both wires consumed bit-identical program
    // streams.
    let escrow_ok = wire.iter().all(|w| w.min_counter >= 0);
    let fp = |w: Wire, regime: Regime| {
        wire.iter()
            .find(|r| r.wire == w && r.row.regime == regime)
            .map(|r| r.stream_fp)
    };
    let streams_match = Regime::ALL
        .iter()
        .all(|&r| fp(WIRES[0], r) == fp(WIRES[1], r));
    out.push(verdict(
        escrow_ok && streams_match,
        format!(
            "E15-5: escrow bound holds over TCP and both wires replay one seeded stream \
             (min counter {}, streams {})",
            wire.iter().map(|w| w.min_counter).min().unwrap_or(0),
            if streams_match {
                "identical"
            } else {
                "DIVERGED"
            }
        ),
    ));
    out
}

/// The report section: the four lanes, their winners, the verdicts.
pub fn report(quick: bool) -> String {
    let (n, clients) = if quick { (40, 4) } else { (160, 6) };
    let contention = run_contention(n, clients);
    let fanout = run_fanout(n, clients);
    let aborts = run_aborts(n, clients);
    let wire = run_wire(if quick { 40 } else { 120 }, clients);
    let wire_rows: Vec<Row> = wire.iter().map(|w| w.row.clone()).collect();
    // Per lane: winner tag, axis column, title, rows.
    let lanes = [
        (
            "contention",
            "theta",
            "contention lane (hotkey mix, 48 hot counters/site)",
            &contention,
        ),
        (
            "fan-out",
            "fan-out",
            "fan-out lane (tpcc-lite NewOrder, theta 0.6)",
            &fanout,
        ),
        (
            "aborts",
            "abort dial",
            "intended-abort lane (zipf mix, theta 0.6)",
            &aborts,
        ),
        (
            "wire",
            "wire",
            "wire lane (tpcc-lite escrow reserves, theta 0.9)",
            &wire_rows,
        ),
    ];
    let tables: Vec<TextTable> = lanes
        .iter()
        .map(|(_, axis, title, rows)| table(&format!("E15 — regime map, {title}"), axis, rows))
        .collect();
    let mut lines: Vec<String> = lanes
        .iter()
        .flat_map(|(lane, _, _, rows)| winners(lane, rows))
        .collect();
    lines.extend(verdicts(&contention, &fanout, &aborts, &wire));
    section(&tables, &lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `report -- quick` smoke at CI size: every lane runs, every
    /// verdict passes, winners cover every sweep point.
    #[test]
    fn quick_regime_map_passes_all_verdicts() {
        let contention = run_contention(30, 4);
        let fanout = run_fanout(30, 4);
        let aborts = run_aborts(40, 4);
        let wire = run_wire(30, 4);
        assert_eq!(contention.len(), THETAS.len() * Regime::ALL.len());
        assert_eq!(fanout.len(), FANOUTS.len() * Regime::ALL.len());
        assert_eq!(aborts.len(), ABORT_RATES.len() * Regime::ALL.len());
        assert_eq!(wire.len(), 2 * Regime::ALL.len());
        for v in verdicts(&contention, &fanout, &aborts, &wire) {
            assert!(v.starts_with("[PASS]"), "{v}");
        }
        assert_eq!(winners("contention", &contention).len(), THETAS.len());
        assert_eq!(winners("fan-out", &fanout).len(), FANOUTS.len());
    }
}
