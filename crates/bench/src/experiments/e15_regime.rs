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
//!   (claim C3-b: commit-after's edge is transactions that abort through
//!   their own logic);
//! * **wire** — the `NewOrder` profile with its escrow [`Reserve`]s run
//!   over both the in-process dispatch and loopback TCP: the same seeded
//!   program stream on both, so the regime map's advice transfers from
//!   the DES numbers to the networked runtime.
//!
//! Every cell also replays the engine's correctness oracles where they
//! apply: the hot-key lane checks federation-wide counter conservation,
//! the wire lane checks the escrow bound (no stock counter below zero);
//! both wires are offered the program stream of one sweep point.
//!
//! The paper's C2 and C3-b shape claims are read off these cells (the
//! contention lane's hottest point, the abort lane's two ends), C4's off
//! E15-3's virtual-time stream and the contention lane's L1 count.
//!
//! The measured tables land in `bench_report.txt`; OPERATORS.md turns the
//! per-cell winners into the operator's regime map.
//!
//! [`Reserve`]: amc_types::Operation::Reserve

use crate::setup::{
    offer, sizes, sweep, tuned_config, wire_config, BaseConfig, Cell, Point, Regime, Testbed, Wire,
};
use crate::table::{cells, opt2, section, verdict, Col, TextTable};
use amc_core::{FederationConfig, SimConfig, SimFederation, SimReport};
use amc_mlt::ConflictPolicy;
use amc_net::marker::is_marker;
use amc_types::{ProtocolKind, SimDuration, SiteId};
use amc_workload::{MixGen, MixKind, MixSpec};

const SITES: u32 = 3;

/// One lane's columns, under its name for the sweep coordinate.
fn cols(axis: &'static str) -> [Col; 12] {
    [
        Col::fact(axis),
        Col::fact("regime"),
        Col::COMMITS,
        Col::TXN_S,
        Col::DONE_S,
        Col::P50_MS,
        Col::P99_MS,
        Col::L0_HOLD_MS,
        Col::ABORT_RATE,
        Col::INTENDED_RATE,
        Col::UNDOS_PER_ABORT,
        Col::MSG_PER_TXN,
    ]
}

/// Every user-object counter behind `bed` (markers excluded).
fn counters(bed: &Testbed) -> Vec<i64> {
    let dumps = bed.dumps().expect("dumps");
    let user = dumps.values().flatten().filter(|(o, _)| !is_marker(**o));
    user.map(|(_, v)| v.counter).collect()
}

/// What one lane holds fixed while it sweeps.
struct Lane {
    /// Engine tuning and the wires every cell runs on.
    base: BaseConfig,
    wires: &'static [Wire],
    /// The seeded mix offered.
    kind: MixKind,
    seed: u64,
    /// What precedes the sweep coordinate in the axis column.
    label: &'static str,
}

impl Lane {
    /// Every regime at every `(x, spec)` sweep point on every wire,
    /// `oracle` replayed over each cell's final counters.
    fn run<const N: usize>(
        &self,
        points: [(f64, MixSpec); N],
        (txns, clients): (usize, usize),
        oracle: impl Fn(&[i64]) -> bool,
    ) -> Vec<Cell> {
        let points = points.map(|(x, spec)| {
            Point::of_mix(x, self.kind, &spec, self.seed, txns, clients)
                .labelled(format!("{}{x}", self.label))
        });
        sweep(
            self.base,
            self.wires,
            &points,
            &Regime::ALL,
            |bed, point| {
                let (m, _) = offer(bed, point);
                // Commit-after may still owe redo executions; settle them so
                // the oracle sees the final state.
                let _ = bed.resolve_pending();
                (m, oracle(&counters(bed)))
            },
        )
    }
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
pub(crate) const THETAS: [f64; 4] = [0.0, 0.6, 0.9, 1.2];

/// Lane 1 — contention: hot-key commuting counters over a small hot set
/// (48 objects/site), theta 0 → 1.2. The mix conserves the federation-wide
/// counter sum, and the oracle checks it.
pub(crate) fn run_contention(txns: usize, clients: usize) -> Vec<Cell> {
    let lane = Lane {
        base: tuned_config,
        wires: &[Wire::InProcess],
        kind: MixKind::HotKey,
        seed: 0xE15A,
        label: "theta=",
    };
    let sum = spec(48, 0.0, 3).initial_sum();
    let conserved = |counters: &[i64]| counters.iter().sum::<i64>() == sum;
    let points = THETAS.map(|theta| (theta, spec(48, theta, 3)));
    lane.run(points, (txns, clients), conserved)
}

/// E15-3's lane: the contention lane's seeded stream at its hottest point
/// (theta 1.2), every program offered at virtual time 0, through the
/// discrete-event pump under commit-before — once with semantic L1 locks,
/// once with the read/write projection. Virtual time reads no clock: the
/// same seed gives the same turn-aways and finish times on any box.
pub(crate) fn run_hot_stream(txns: usize) -> [SimReport; 2] {
    let spec = spec(48, 1.2, 3);
    [ConflictPolicy::Semantic, ConflictPolicy::ReadWriteOnly].map(|policy| {
        let federation = FederationConfig {
            policy,
            ..FederationConfig::uniform(SITES, ProtocolKind::CommitBefore)
        };
        let sim = SimFederation::new(SimConfig::new(federation));
        let fed = sim.federation();
        for site in (1..=SITES).map(SiteId::new) {
            fed.load_site(site, &spec.initial_data(site)).unwrap();
        }
        let programs = MixGen::new(MixKind::HotKey, spec.clone(), 0xE15A).programs(txns);
        sim.run(
            programs
                .into_iter()
                .map(|p| (SimDuration::ZERO, p.per_site))
                .collect(),
        )
    })
}

/// The fan-out sweep points (participating sites per `NewOrder`).
pub(crate) const FANOUTS: [u32; 3] = [1, 2, 3];

/// Lane 2 — fan-out: the TPC-C-style `NewOrder` profile capped at 1, 2,
/// then 3 participating sites.
pub(crate) fn run_fanout(txns: usize, clients: usize) -> Vec<Cell> {
    let lane = Lane {
        base: tuned_config,
        wires: &[Wire::InProcess],
        kind: MixKind::TpccLite,
        seed: 0xE15B,
        label: "fanout<=",
    };
    let points = FANOUTS.map(|fanout| (f64::from(fanout), spec(256, 0.6, fanout)));
    lane.run(points, (txns, clients), |_| true)
}

/// The intended-abort sweep points.
pub(crate) const ABORT_RATES: [f64; 3] = [0.0, 0.2, 0.4];

/// Lane 3 — intended aborts: the generic Zipf mix with the
/// transaction-logic abort dial at 0%, 20%, 40%.
pub(crate) fn run_aborts(txns: usize, clients: usize) -> Vec<Cell> {
    let lane = Lane {
        base: tuned_config,
        wires: &[Wire::InProcess],
        kind: MixKind::Zipf,
        seed: 0xE15C,
        label: "abort=",
    };
    let points = ABORT_RATES.map(|intended_abort_prob| {
        let spec = MixSpec {
            intended_abort_prob,
            ..spec(256, 0.6, 2)
        };
        (intended_abort_prob, spec)
    });
    lane.run(points, (txns, clients), |_| true)
}

/// Lane 4 — the wire lane: the `NewOrder` profile (theta 0.9) with its
/// escrow reserves over in-process dispatch and loopback TCP. Engines run
/// without modelled delays (as in E10/E13): the wire itself is the cost
/// under test, and both wires replay the one seeded stream of the lane's
/// one [`Point`]. The oracle is the escrow bound: a correct `Reserve`
/// path never drives a stock counter negative. The axis column names the
/// wire.
pub(crate) fn run_wire(txns: usize, clients: usize) -> Vec<Cell> {
    let lane = Lane {
        base: wire_config,
        wires: &Wire::ALL,
        kind: MixKind::TpccLite,
        seed: 0xE15D,
        label: "theta=",
    };
    let bound = |counters: &[i64]| counters.iter().all(|&c| c >= 0);
    let mut rows = lane.run([(0.9, spec(128, 0.9, 3))], (txns, clients), bound);
    for cell in &mut rows {
        cell.axis = cell.wire.label().to_string();
    }
    rows
}

/// Render one lane's table.
pub fn table(title: &str, axis_header: &'static str, rows: &[Cell]) -> TextTable {
    cells(
        title,
        &cols(axis_header),
        rows.iter().map(|c| (c.labels(), &c.m)),
    )
}

/// A runner-up this close to the best txn/s ties it: one run cannot tell.
const TIE_MARGIN: f64 = 0.05;

/// The per-cell winners — one line per sweep point naming the regime with
/// the highest committed throughput, or every regime within [`TIE_MARGIN`]
/// of it as a tie. These lines are what OPERATORS.md's regime map is built
/// from; `done/s` is reported alongside because the C3 lane's interesting
/// quantity is completions, not just commits.
pub(crate) fn winners(lane: &str, rows: &[Cell]) -> Vec<String> {
    let mut axes: Vec<&str> = Vec::new();
    for r in rows {
        if !axes.contains(&r.axis.as_str()) {
            axes.push(&r.axis);
        }
    }
    let txn_s = |c: &Cell| c.m.throughput().unwrap_or(0.0);
    axes.iter()
        .map(|axis| {
            let on_axis = || rows.iter().filter(|r| r.axis == *axis);
            let best = on_axis()
                .max_by(|a, b| txn_s(a).total_cmp(&txn_s(b)))
                .expect("every axis has rows");
            let close = |r: &&Cell| txn_s(r) >= txn_s(best) * (1.0 - TIE_MARGIN);
            let tied: Vec<&str> = on_axis().filter(close).map(|r| r.regime.label()).collect();
            let tie = if tied.len() > 1 { "tie " } else { "" };
            format!(
                "winner[{lane}, {axis}]: {tie}{} ({} txn/s, {} done/s)",
                tied.join(" = "),
                opt2(best.m.throughput()),
                opt2(best.m.completions_per_sec()),
            )
        })
        .collect()
}

/// One sweep point's txn/s per regime, as information: no winner is
/// named. The wire lane's in-process cells are a few hundred transactions
/// of a few milliseconds each, and a few lock waits swing them 4× from one
/// run of the same commit to the next.
pub(crate) fn unranked(lane: &str, rows: &[Cell]) -> String {
    let axis = rows.first().map_or("", |r| r.axis.as_str());
    let each: Vec<String> = rows
        .iter()
        .map(|r| format!("{} {}", r.regime.label(), opt2(r.m.throughput())))
        .collect();
    format!(
        "unranked[{lane}, {axis}]: {} txn/s (cells too short to rank)",
        each.join(", ")
    )
}

/// The cell of `regime` at sweep point `x`.
fn cell(rows: &[Cell], x: f64, regime: Regime) -> Option<&Cell> {
    rows.iter().find(|c| c.x == x && c.regime == regime)
}

/// The paper's claims read off the lanes: C2 (§4.3) at the contention
/// lane's hottest point, C3-b (§4.3) at the abort lane's lowest and
/// highest dial, and C4-3 (§4.1) over every commit-before contention cell.
fn claims(contention: &[Cell], aborts: &[Cell]) -> Vec<String> {
    let mut out = Vec::new();
    let hottest = THETAS[THETAS.len() - 1];
    let hot = |regime| cell(contention, hottest, regime);
    if let (Some(before), Some(after), Some(two_pc)) = (
        hot(Regime::CommitBefore),
        hot(Regime::CommitAfter),
        hot(Regime::Classic2pc),
    ) {
        // An absent measurement (n=0) can never PASS a superiority claim.
        let [bt, at, tt] = [before, after, two_pc].map(|c| c.m.throughput().unwrap_or(0.0));
        let [bh, ah, th] = [before, after, two_pc].map(|c| c.m.mean_l0_hold_ms());
        let measured = before.m.throughput().is_some();
        out.push(verdict(
            measured && bt >= at,
            format!(
                "C2a: commit-before throughput >= commit-after under contention \
                 ({bt:.1} vs {at:.1} txn/s)"
            ),
        ));
        out.push(verdict(
            measured && bt >= tt,
            format!(
                "C2b: commit-before throughput >= 2PC under contention ({bt:.1} vs {tt:.1} txn/s)"
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

    let [low, high] = [ABORT_RATES[0], ABORT_RATES[ABORT_RATES.len() - 1]];
    let pair = |x| {
        let of = |regime| cell(aborts, x, regime);
        (of(Regime::CommitBefore), of(Regime::CommitAfter))
    };
    if let (Some(cb), Some(ca)) = pair(high) {
        // Commit-before must run >= 1 inverse transaction per intended
        // abort with committed locals; commit-after must run none.
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
    // Commit-before's completions/s over commit-after's must shrink as
    // the dial rises.
    let edge = |x| -> Option<f64> {
        let (cb, ca) = pair(x);
        Some(cb?.m.completions_per_sec()? / ca?.m.completions_per_sec()?.max(1e-9))
    };
    if let (Some(lo), Some(hi)) = (edge(low), edge(high)) {
        out.push(verdict(
            hi < lo,
            format!(
                "C3b-3: commit-before's edge shrinks as the abort rate grows \
                 (ratio {lo:.2} -> {hi:.2})"
            ),
        ));
    }

    let semantic: Vec<&Cell> = contention
        .iter()
        .filter(|c| c.regime == Regime::CommitBefore)
        .collect();
    let rejections: u64 = semantic.iter().map(|c| c.m.l1_rejections).sum();
    out.push(verdict(
        !semantic.is_empty() && rejections == 0,
        format!(
            "C4-3: increments never collide at L1 under the semantic policy \
             ({rejections} rejections over {} commit-before cells)",
            semantic.len()
        ),
    ));
    out
}

/// The shape checks for this experiment: the paper's claims it carries,
/// then its own.
pub fn verdicts(
    contention: &[Cell],
    fanout: &[Cell],
    aborts: &[Cell],
    wire: &[Cell],
    hot: &[SimReport; 2],
) -> Vec<String> {
    let mut out = claims(contention, aborts);
    let all = || contention.iter().chain(fanout).chain(aborts).chain(wire);

    // E15-1: every (lane, axis, regime) cell commits transactions.
    let committing = all().filter(|c| c.m.committed > 0).count();
    out.push(verdict(
        committing == all().count(),
        format!(
            "E15-1: every (lane, axis, regime) cell commits ({committing}/{} cells)",
            all().count()
        ),
    ));

    // E15-2: the hot-key lane conserves the federation-wide counter sum in
    // every cell — aborted and retried programs roll back exactly, under
    // every regime and every theta.
    let conserved = contention.iter().filter(|c| c.oracle_ok).count();
    out.push(verdict(
        conserved == contention.len(),
        format!(
            "E15-2: counter sum conserved at every contention cell ({conserved}/{})",
            contention.len()
        ),
    ));

    // E15-3 (C4): MLT admits interleavings read/write locking forbids. On
    // the hottest stream, read/write L1 turns starts away that semantic L1
    // admits — commuting increments never queue — and semantic finishes
    // no later in virtual time.
    let [semantic, read_write] = hot;
    let finished = |r: &SimReport| r.unresolved.is_empty() && r.errors.is_empty();
    let c4 = finished(semantic)
        && finished(read_write)
        && semantic.turned_away == 0
        && read_write.turned_away >= 1
        && semantic.end_time <= read_write.end_time;
    let virtual_ms = |r: &SimReport| r.end_time.micros() as f64 / 1e3;
    out.push(verdict(
        c4,
        format!(
            "E15-3 (C4): on one seeded DES hot-increment stream (theta=1.2, commit-before) \
             semantic L1 turns away {} starts and read/write L1 {}; semantic finishes no later \
             ({:.1} vs {:.1} virtual ms)",
            semantic.turned_away,
            read_write.turned_away,
            virtual_ms(semantic),
            virtual_ms(read_write),
        ),
    ));

    // E15-4: the measured intended-abort fraction tracks the dial in the
    // abort lane (within 0.15 absolute at every cell) — the dial acts
    // through transaction logic, not through a side channel.
    let tracks = |c: &&Cell| match c.m.intended_abort_rate() {
        Some(measured) => (measured - c.x).abs() <= 0.15,
        // n=0 cell: nothing ran, nothing to track.
        None => c.x == 0.0 && c.m.committed == 0,
    };
    let tracked = aborts.iter().filter(tracks).count();
    out.push(verdict(
        tracked == aborts.len(),
        format!(
            "E15-4 (C3 dial): measured intended-abort rate tracks the configured rate \
             ({tracked}/{})",
            aborts.len()
        ),
    ));

    // E15-5: the wire lane's escrow bound holds — no stock counter below
    // zero on either wire, under the one seeded stream both replay.
    let bounded = wire.iter().filter(|c| c.oracle_ok).count();
    out.push(verdict(
        bounded == wire.len(),
        format!(
            "E15-5: escrow bound holds over TCP and both wires replay one seeded stream \
             ({bounded}/{} cells keep every stock counter >= 0)",
            wire.len()
        ),
    ));
    out
}

/// The report section: the four lanes, their winners, the verdicts.
pub fn report(quick: bool) -> String {
    let (n, clients) = sizes(quick);
    let contention = run_contention(n, clients);
    let fanout = run_fanout(n, clients);
    let aborts = run_aborts(n, clients);
    let wire = run_wire(n, clients);
    let hot = run_hot_stream(n);
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
            &wire,
        ),
    ];
    let tables: Vec<TextTable> = lanes
        .iter()
        .map(|(_, axis, title, rows)| table(&format!("E15 — regime map, {title}"), axis, rows))
        .collect();
    // The wire lane's in-process cells are too short to rank (`unranked`).
    let (in_process, tcp): (Vec<Cell>, Vec<Cell>) = wire
        .iter()
        .cloned()
        .partition(|c| c.wire == Wire::InProcess);
    let mut lines: Vec<String> = lanes[..3]
        .iter()
        .flat_map(|(lane, _, _, rows)| winners(lane, rows))
        .collect();
    lines.push(unranked("wire", &in_process));
    lines.extend(winners("wire", &tcp));
    lines.extend(verdicts(&contention, &fanout, &aborts, &wire, &hot));
    section(&tables, &lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The verdicts that order wall-clock timings. Tier-1 asserts that
    /// each is printed; every other verdict is a count and must pass.
    const TIMINGS: [&str; 4] = ["C2a", "C2b", "C2c", "C3b-3"];

    /// The `report -- quick` smoke at CI size: every lane runs, every
    /// count verdict passes, every timing verdict is read, winners cover
    /// every sweep point.
    #[test]
    fn quick_regime_map_passes_all_verdicts() {
        let contention = run_contention(30, 4);
        let fanout = run_fanout(30, 4);
        let aborts = run_aborts(40, 4);
        let wire = run_wire(30, 4);
        let hot = run_hot_stream(30);
        assert_eq!(contention.len(), THETAS.len() * Regime::ALL.len());
        assert_eq!(fanout.len(), FANOUTS.len() * Regime::ALL.len());
        assert_eq!(aborts.len(), ABORT_RATES.len() * Regime::ALL.len());
        assert_eq!(wire.len(), 2 * Regime::ALL.len());
        let lines = verdicts(&contention, &fanout, &aborts, &wire, &hot);
        let id = |line: &str| line[7..].split(':').next().unwrap_or("").to_string();
        for line in &lines {
            assert!(
                TIMINGS.contains(&id(line).as_str()) || line.starts_with("[PASS]"),
                "{line}"
            );
        }
        for timing in TIMINGS {
            assert!(lines.iter().any(|l| id(l) == timing), "{timing} not read");
        }
        assert_eq!(lines.len(), TIMINGS.len() + 3 + 5, "{lines:?}");
        assert_eq!(winners("contention", &contention).len(), THETAS.len());
        assert_eq!(winners("fan-out", &fanout).len(), FANOUTS.len());
    }

    /// One seeded stream: every regime meets the same intended aborts, and
    /// only commit-before (either L1 policy) undoes committed locals.
    #[test]
    fn both_protocols_see_the_same_aborts_and_only_commit_before_undoes() {
        let rows = run_aborts(20, 2);
        let at = |x, regime| &cell(&rows, x, regime).expect("swept").m;
        let cb = at(0.4, Regime::CommitBefore);
        assert!(cb.aborted_intended > 0);
        assert_eq!(cb.committed + cb.aborted_intended, 20);
        for regime in Regime::ALL {
            let m = at(0.4, regime);
            assert_eq!(m.aborted_intended, cb.aborted_intended, "{regime:?}");
            let undoes = matches!(regime, Regime::CommitBefore | Regime::CommitBeforeRw);
            assert_eq!(m.undo_runs > 0, undoes, "{regime:?}");
        }
        // Nothing intended an abort at rate 0: the ratio is absent, not 0.
        assert_eq!(at(0.0, Regime::CommitBefore).undos_per_abort(), None);
        assert!(table("t", "abort dial", &rows).render().contains("n=0"));
    }

    /// A cell at sweep point `axis` that committed `committed` in 1 s.
    fn cell_at(axis: &str, regime: Regime, committed: u64) -> Cell {
        let m = amc_core::RunMetrics {
            committed,
            wall: std::time::Duration::from_secs(1),
            ..Default::default()
        };
        Cell {
            regime,
            ..Cell::of(axis.into(), 0.0, 0, m)
        }
    }

    #[test]
    fn a_runner_up_within_the_margin_ties() {
        let cell = |regime, committed| cell_at("x", regime, committed);
        let rows = [
            cell(Regime::Classic2pc, 90),
            cell(Regime::CommitAfter, 96),
            cell(Regime::CommitBefore, 100),
        ];
        let [line] = &winners("l", &rows)[..] else {
            panic!("one axis, one line")
        };
        assert!(line.starts_with("winner[l, x]: tie commit-after = commit-before (100.00 txn/s"));
        let [line] = &winners("l", &rows[..1])[..] else {
            panic!("one axis, one line")
        };
        assert!(line.starts_with("winner[l, x]: 2pc (90.00 txn/s"), "{line}");
    }

    #[test]
    fn a_runner_up_past_the_margin_does_not_tie() {
        let rows = [
            cell_at("x", Regime::Classic2pc, 94),
            cell_at("x", Regime::CommitBefore, 100),
        ];
        let [line] = &winners("l", &rows)[..] else {
            panic!("one axis, one line")
        };
        assert!(
            line.starts_with("winner[l, x]: commit-before (100.00 txn/s"),
            "{line}"
        );
    }

    /// An unranked sweep point lists every regime's txn/s and names no
    /// winner, however far ahead one regime is.
    #[test]
    fn an_unranked_point_names_no_winner() {
        let rows = [
            cell_at("in-process", Regime::Classic2pc, 10),
            cell_at("in-process", Regime::CommitBefore, 100),
        ];
        assert_eq!(
            unranked("wire", &rows),
            "unranked[wire, in-process]: 2pc 10.00, commit-before 100.00 txn/s \
             (cells too short to rank)"
        );
    }

    /// Each sweep point is judged on its own rows, in the order the sweep
    /// first names it: a regime that wins one point does not win another.
    #[test]
    fn each_sweep_point_names_its_own_winner() {
        let rows = [
            cell_at("b", Regime::Classic2pc, 100),
            cell_at("a", Regime::Classic2pc, 10),
            cell_at("b", Regime::CommitAfter, 50),
            cell_at("a", Regime::CommitAfter, 20),
        ];
        let lines = winners("l", &rows);
        assert_eq!(lines.len(), 2);
        assert!(
            lines[0].starts_with("winner[l, b]: 2pc (100.00"),
            "{lines:?}"
        );
        assert!(
            lines[1].starts_with("winner[l, a]: commit-after (20.00"),
            "{lines:?}"
        );
    }
}
