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

use crate::setup::{mix_batch, tuned_config};
use crate::table::{opt2, opt3, TextTable};
use amc_core::{submit_mode_for, Federation, FederationConfig};
use amc_engine::{TplConfig, TwoPLEngine};
use amc_mlt::ConflictPolicy;
use amc_net::comm::EngineHandle;
use amc_net::marker::is_marker;
use amc_net::transport::{FederationTransport, InProcessTransport};
use amc_net::LocalCommManager;
use amc_obs::ObsSink;
use amc_rpc::{RetryPolicy, SiteServer, TcpTransport};
use amc_types::{ProtocolKind, SiteId};
use amc_workload::{fingerprint, MixGen, MixKind, MixSpec};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

pub use super::e10_rpc::Wire;

const SITES: u32 = 3;

/// One column of the regime map: a commit protocol plus its L1 conflict
/// policy. `CommitBeforeRw` is the MLT-off ablation — same undo protocol,
/// read/write locks instead of semantic modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// Classic 2PC — explicit work, prepare and decision rounds.
    Classic2pc,
    /// 2PC with the fast path: vote piggyback + single-site bypass.
    FastPath,
    /// Commit-after (redo recovery), §3.2.
    CommitAfter,
    /// Commit-before (undo recovery) with semantic L1 locks, §3.3 + §4.
    CommitBefore,
    /// Commit-before with read/write L1 locks — MLT commutativity off.
    CommitBeforeRw,
}

impl Regime {
    /// Every regime, in table order.
    pub const ALL: [Regime; 5] = [
        Regime::Classic2pc,
        Regime::FastPath,
        Regime::CommitAfter,
        Regime::CommitBefore,
        Regime::CommitBeforeRw,
    ];

    /// Short label for the tables and OPERATORS.md.
    pub fn label(self) -> &'static str {
        match self {
            Regime::Classic2pc => "2pc",
            Regime::FastPath => "2pc+fast-path",
            Regime::CommitAfter => "commit-after",
            Regime::CommitBefore => "commit-before",
            Regime::CommitBeforeRw => "commit-before/rw",
        }
    }

    fn protocol(self) -> ProtocolKind {
        match self {
            Regime::Classic2pc | Regime::FastPath => ProtocolKind::TwoPhaseCommit,
            Regime::CommitAfter => ProtocolKind::CommitAfter,
            Regime::CommitBefore | Regime::CommitBeforeRw => ProtocolKind::CommitBefore,
        }
    }

    fn policy(self) -> ConflictPolicy {
        match self {
            Regime::CommitBeforeRw => ConflictPolicy::ReadWriteOnly,
            _ => ConflictPolicy::Semantic,
        }
    }

    fn config(self, sites: u32) -> FederationConfig {
        let cfg = tuned_config(sites, self.protocol(), self.policy());
        if self == Regime::FastPath {
            cfg.with_fast_path()
        } else {
            cfg
        }
    }
}

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

/// Run one DES-transport cell: build a tuned federation for the regime,
/// load the mix's initial counters, run the seeded batch, then replay the
/// lane oracle over the final dump.
fn run_cell(
    regime: Regime,
    kind: MixKind,
    spec: &MixSpec,
    seed: u64,
    axis: String,
    txns: usize,
    clients: usize,
) -> Row {
    let mut fed = Federation::new(regime.config(spec.sites));
    fed.set_recording(false, false);
    let fed = Arc::new(fed);
    for s in 1..=spec.sites {
        let site = SiteId::new(s);
        fed.load_site(site, &spec.initial_data(site)).expect("load");
    }
    let m = fed.run_concurrent(mix_batch(kind, spec, seed, txns), clients);
    // Commit-after may still owe redo executions; settle them so the
    // conservation oracle sees the final state.
    let _ = fed.resolve_pending();
    let oracle_ok = if kind.conserves_sum() && spec.intended_abort_prob == 0.0 {
        counter_sum(&fed) == spec.initial_sum()
    } else {
        true
    };
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

/// Federation-wide user-object counter sum (markers excluded).
fn counter_sum(fed: &Federation) -> i64 {
    fed.dumps()
        .expect("dumps")
        .values()
        .flat_map(|d| d.iter())
        .filter(|(o, _)| !is_marker(**o))
        .map(|(_, v)| v.counter)
        .sum()
}

/// Smallest user-object counter in the federation (the escrow bound: a
/// correct [`amc_types::Operation::Reserve`] path never drives a stock
/// counter negative).
fn min_counter(fed: &Federation) -> i64 {
    fed.dumps()
        .expect("dumps")
        .values()
        .flat_map(|d| d.iter())
        .filter(|(o, _)| !is_marker(**o))
        .map(|(_, v)| v.counter)
        .min()
        .unwrap_or(0)
}

/// The contention sweep points.
pub const THETAS: [f64; 4] = [0.0, 0.6, 0.9, 1.2];

/// Lane 1 — contention: hot-key commuting counters over a small hot set
/// (48 objects/site), theta 0 → 1.2.
pub fn run_contention(txns: usize, clients: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for theta in THETAS {
        let spec = MixSpec {
            sites: SITES,
            objects_per_site: 48,
            theta,
            intended_abort_prob: 0.0,
            max_fanout: 3,
        };
        for regime in Regime::ALL {
            rows.push(run_cell(
                regime,
                MixKind::HotKey,
                &spec,
                0xE15A,
                format!("theta={theta}"),
                txns,
                clients,
            ));
        }
    }
    rows
}

/// The fan-out sweep points (participating sites per `NewOrder`).
pub const FANOUTS: [u32; 3] = [1, 2, 3];

/// Lane 2 — fan-out: the TPC-C-style `NewOrder` profile capped at 1, 2,
/// then 3 participating sites.
pub fn run_fanout(txns: usize, clients: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for fanout in FANOUTS {
        let spec = MixSpec {
            sites: SITES,
            objects_per_site: 256,
            theta: 0.6,
            intended_abort_prob: 0.0,
            max_fanout: fanout,
        };
        for regime in Regime::ALL {
            rows.push(run_cell(
                regime,
                MixKind::TpccLite,
                &spec,
                0xE15B,
                format!("fanout<={fanout}"),
                txns,
                clients,
            ));
        }
    }
    rows
}

/// The intended-abort sweep points.
pub const ABORT_RATES: [f64; 3] = [0.0, 0.2, 0.4];

/// Lane 3 — intended aborts: the generic Zipf mix with the
/// transaction-logic abort dial at 0%, 20%, 40%.
pub fn run_aborts(txns: usize, clients: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for rate in ABORT_RATES {
        let spec = MixSpec {
            sites: SITES,
            objects_per_site: 256,
            theta: 0.6,
            intended_abort_prob: rate,
            max_fanout: 2,
        };
        for regime in Regime::ALL {
            rows.push(run_cell(
                regime,
                MixKind::Zipf,
                &spec,
                0xE15C,
                format!("abort={rate}"),
                txns,
                clients,
            ));
        }
    }
    rows
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
    let spec = MixSpec {
        sites: SITES,
        objects_per_site: 128,
        theta: 0.9,
        intended_abort_prob: 0.0,
        max_fanout: 3,
    };
    let mut rows = Vec::new();
    for wire in [Wire::InProcess, Wire::TcpLoopback] {
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
    let protocol = regime.protocol();
    let mode = submit_mode_for(protocol);
    let managers: BTreeMap<SiteId, Arc<LocalCommManager>> = (1..=spec.sites)
        .map(|s| {
            let site = SiteId::new(s);
            let cfg = TplConfig {
                lock_timeout: Duration::from_millis(100),
                deadlock_check: Duration::from_millis(1),
                ..TplConfig::default()
            };
            let engine = Arc::new(TwoPLEngine::new(cfg));
            (
                site,
                Arc::new(LocalCommManager::new(
                    site,
                    EngineHandle::Preparable(engine),
                )),
            )
        })
        .collect();

    let mut servers: Vec<SiteServer> = Vec::new();
    let transport: Arc<dyn FederationTransport> = match wire {
        Wire::InProcess => Arc::new(InProcessTransport::new(
            managers.clone(),
            mode,
            Duration::ZERO,
        )),
        Wire::TcpLoopback => {
            let mut addrs = BTreeMap::new();
            for (&site, manager) in &managers {
                let srv = SiteServer::spawn(
                    site,
                    Arc::clone(manager),
                    mode,
                    "127.0.0.1:0",
                    ObsSink::disabled(),
                )
                .expect("bind loopback");
                addrs.insert(site, srv.addr());
                servers.push(srv);
            }
            Arc::new(TcpTransport::new(
                addrs,
                RetryPolicy::default(),
                ObsSink::disabled(),
            ))
        }
    };

    let mut cfg = FederationConfig::uniform(spec.sites, protocol);
    if regime == Regime::FastPath {
        cfg = cfg.with_fast_path();
    }
    cfg.policy = regime.policy();
    cfg.l1_timeout = Duration::from_millis(500);
    let mut fed = Federation::with_transport(cfg, transport);
    fed.set_recording(false, false);
    let fed = Arc::new(fed);
    for s in 1..=spec.sites {
        let site = SiteId::new(s);
        fed.load_site(site, &spec.initial_data(site)).expect("load");
    }

    // The determinism contract in action: both wires replay the same
    // seeded stream, and the fingerprint pins it.
    let programs = MixGen::new(MixKind::TpccLite, spec.clone(), 0xE15D).programs(txns);
    let stream_fp = fingerprint(&programs);
    let batch = programs
        .into_iter()
        .map(|p| (p.per_site, p.intends_abort))
        .collect();
    let m = fed.run_concurrent(batch, clients);
    let _ = fed.resolve_pending();
    let floor = min_counter(&fed);
    drop(fed);
    for srv in servers {
        srv.shutdown();
    }
    WireRow {
        row: Row {
            axis: wire.label().to_string(),
            regime,
            committed: m.committed,
            txn_s: m.throughput(),
            done_s: m.completions_per_sec(),
            p50_ms: m.latency_p50_ms(),
            p99_ms: m.latency_p99_ms(),
            abort_rate: m.abort_rate(),
            intended_rate: m.intended_abort_rate(),
            msgs_per_txn: m.messages_per_commit(),
            oracle_ok: floor >= 0,
        },
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
    out.push(format!(
        "[{}] E15-1: every (lane, axis, regime) cell commits ({committing}/{} cells)",
        if committing == all.len() {
            "PASS"
        } else {
            "FAIL"
        },
        all.len(),
    ));

    // E15-2: the hot-key lane conserves the federation-wide counter sum in
    // every cell — aborted and retried programs roll back exactly, under
    // every regime and every theta.
    let conserved = contention.iter().filter(|r| r.oracle_ok).count();
    out.push(format!(
        "[{}] E15-2: counter sum conserved at every contention cell ({conserved}/{})",
        if conserved == contention.len() {
            "PASS"
        } else {
            "FAIL"
        },
        contention.len(),
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
    out.push(format!(
        "[{}] E15-3 (C4): semantic L1 >= read/write L1 at theta=1.2 ({} vs {} txn/s)",
        if c4 { "PASS" } else { "FAIL" },
        opt2(hot(Regime::CommitBefore)),
        opt2(hot(Regime::CommitBeforeRw)),
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
    out.push(format!(
        "[{}] E15-4 (C3 dial): measured intended-abort rate tracks the configured rate ({tracked}/{total})",
        if tracked == total { "PASS" } else { "FAIL" },
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
        .all(|&r| fp(Wire::InProcess, r) == fp(Wire::TcpLoopback, r));
    out.push(format!(
        "[{}] E15-5: escrow bound holds over TCP and both wires replay one seeded stream (min counter {}, streams {})",
        if escrow_ok && streams_match {
            "PASS"
        } else {
            "FAIL"
        },
        wire.iter().map(|w| w.min_counter).min().unwrap_or(0),
        if streams_match { "identical" } else { "DIVERGED" },
    ));
    out
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
