//! **E3 — intended-abort crossover** (§4.3 / claim C3-b).
//!
//! "The only drawback of commitment before global decision is the overhead
//! in case of an intended local transaction abort ... Intended transaction
//! aborts are handled better if local transactions are committed after the
//! global decision is made." Sweep the intended-abort rate and measure both
//! portable protocols: commit-before pays inverse transactions per abort;
//! commit-after aborts running locals for free. The shape to reproduce: the
//! commit-before advantage shrinks (or inverts) as the abort rate grows.

use crate::setup::{build_federation, program_batch, sizes};
use crate::table::{f2, f3, opt2, section, verdict, TextTable};
use amc_mlt::ConflictPolicy;
use amc_types::ProtocolKind;
use amc_workload::{OpMix, WorkloadSpec};

/// One measured point.
#[derive(Debug, Clone)]
pub struct Row {
    /// Protocol.
    pub protocol: ProtocolKind,
    /// Intended abort probability in the workload.
    pub abort_rate: f64,
    /// All-transaction completion rate (commits + aborts) per second —
    /// aborted work still costs time.
    pub completions_per_s: f64,
    /// Inverse transactions executed per intended abort.
    pub undos_per_abort: f64,
    /// Median commit latency (ms); `None` when nothing committed.
    pub latency_p50_ms: Option<f64>,
    /// Tail (p99) commit latency (ms); `None` when nothing committed.
    pub latency_p99_ms: Option<f64>,
    /// Commits achieved.
    pub committed: u64,
    /// Intended aborts observed.
    pub aborted: u64,
}

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
pub fn run(txns: usize, threads: usize, abort_rates: &[f64]) -> Vec<Row> {
    let mut rows = Vec::new();
    for &rate in abort_rates {
        for protocol in [ProtocolKind::CommitBefore, ProtocolKind::CommitAfter] {
            let spec = spec(rate);
            let fed = build_federation(protocol, ConflictPolicy::Semantic, &spec);
            let batch = program_batch(&spec, 3_000, txns);
            let m = fed.run_concurrent(batch, threads);
            let aborted = m.aborted_intended;
            rows.push(Row {
                protocol,
                abort_rate: rate,
                completions_per_s: if m.wall.is_zero() {
                    0.0
                } else {
                    (m.committed + m.aborted_intended + m.aborted_erroneous) as f64
                        / m.wall.as_secs_f64()
                },
                undos_per_abort: if aborted > 0 {
                    m.undo_runs as f64 / aborted as f64
                } else {
                    0.0
                },
                latency_p50_ms: m.latency_p50_ms(),
                latency_p99_ms: m.latency_p99_ms(),
                committed: m.committed,
                aborted,
            });
        }
    }
    rows
}

/// Render the report table.
pub fn table(rows: &[Row]) -> TextTable {
    let mut t = TextTable::new(
        "E3 — intended-abort handling: commit-before pays undo, commit-after aborts for free",
        &[
            "abort-rate",
            "protocol",
            "completions/s",
            "undos/abort",
            "lat p50 ms",
            "lat p99 ms",
            "commits",
            "aborts",
        ],
    );
    for r in rows {
        t.row(vec![
            f2(r.abort_rate),
            r.protocol.label().to_string(),
            f2(r.completions_per_s),
            f3(r.undos_per_abort),
            opt2(r.latency_p50_ms),
            opt2(r.latency_p99_ms),
            r.committed.to_string(),
            r.aborted.to_string(),
        ]);
    }
    t
}

/// Shape checks.
pub fn verdicts(rows: &[Row]) -> Vec<String> {
    let mut out = Vec::new();
    // Commit-before must run >= 1 inverse transaction per intended abort
    // with committed locals; commit-after must run none.
    let cb_high = rows
        .iter()
        .find(|r| r.protocol == ProtocolKind::CommitBefore && r.abort_rate >= 0.3);
    let ca_high = rows
        .iter()
        .find(|r| r.protocol == ProtocolKind::CommitAfter && r.abort_rate >= 0.3);
    if let (Some(cb), Some(ca)) = (cb_high, ca_high) {
        out.push(verdict(
            cb.undos_per_abort > 0.0,
            format!(
                "C3b-1: commit-before runs inverse txns on intended aborts ({:.2}/abort)",
                cb.undos_per_abort
            ),
        ));
        out.push(verdict(
            ca.undos_per_abort == 0.0,
            format!(
                "C3b-2: commit-after needs no undo machinery ({:.2}/abort)",
                ca.undos_per_abort
            ),
        ));
    }
    // The relative gap between the protocols must shrink as aborts rise.
    let gap_at = |rate_lo: bool| -> Option<f64> {
        let pick = |p: ProtocolKind| {
            rows.iter().filter(|r| r.protocol == p).find(|r| {
                if rate_lo {
                    r.abort_rate <= 0.01
                } else {
                    r.abort_rate >= 0.3
                }
            })
        };
        let cb = pick(ProtocolKind::CommitBefore)?;
        let ca = pick(ProtocolKind::CommitAfter)?;
        Some(cb.completions_per_s / ca.completions_per_s.max(1e-9))
    };
    if let (Some(lo), Some(hi)) = (gap_at(true), gap_at(false)) {
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
