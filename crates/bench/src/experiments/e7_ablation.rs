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

use crate::setup::{build_federation, program_batch, sizes};
use crate::table::{f2, opt2, section, verdict, TextTable};
use amc_mlt::ConflictPolicy;
use amc_types::ProtocolKind;
use amc_workload::{OpMix, WorkloadSpec};

/// One configuration's measurement.
#[derive(Debug, Clone)]
pub struct Row {
    /// Human-readable configuration name.
    pub config: &'static str,
    /// Zipf skew.
    pub theta: f64,
    /// Committed txns per second (`None` when the run measured nothing).
    pub throughput: Option<f64>,
    /// Transactions rejected at L1 (lock conflicts among globals).
    pub l1_rejections: u64,
    /// Commits.
    pub committed: u64,
}

fn spec(theta: f64) -> WorkloadSpec {
    WorkloadSpec {
        sites: 2,
        objects_per_site: 16, // very hot: commutativity is the whole game
        zipf_theta: theta,
        ops_per_txn: 4,
        sites_per_txn: 2,
        mix: OpMix {
            write: 0.0,
            increment: 1.0,
            reserve: 0.0,
        },
        intended_abort_prob: 0.0,
    }
}

/// Run the three configurations across `thetas`.
pub fn run(txns: usize, threads: usize, thetas: &[f64]) -> Vec<Row> {
    let configs: [(&'static str, ProtocolKind, ConflictPolicy); 3] = [
        (
            "commit-before + semantic (MLT)",
            ProtocolKind::CommitBefore,
            ConflictPolicy::Semantic,
        ),
        (
            "commit-before + read/write",
            ProtocolKind::CommitBefore,
            ConflictPolicy::ReadWriteOnly,
        ),
        (
            "2PC flat",
            ProtocolKind::TwoPhaseCommit,
            ConflictPolicy::Semantic, // unused: 2PC has no L1 layer
        ),
    ];
    let mut rows = Vec::new();
    for &theta in thetas {
        for (name, protocol, policy) in configs {
            let spec = spec(theta);
            let fed = build_federation(protocol, policy, &spec);
            let batch = program_batch(&spec, 0xE7, txns);
            let m = fed.run_concurrent(batch, threads);
            rows.push(Row {
                config: name,
                theta,
                throughput: m.throughput(),
                l1_rejections: m.l1_rejections,
                committed: m.committed,
            });
        }
    }
    rows
}

/// Render the report table.
pub fn table(rows: &[Row]) -> TextTable {
    let mut t = TextTable::new(
        "E7 — ablation: semantic (MLT) conflicts vs read/write conflicts vs flat 2PC (pure increments)",
        &["theta", "config", "txn/s", "l1-rejections", "commits"],
    );
    for r in rows {
        t.row(vec![
            f2(r.theta),
            r.config.to_string(),
            opt2(r.throughput),
            r.l1_rejections.to_string(),
            r.committed.to_string(),
        ]);
    }
    t
}

/// Shape checks.
pub fn verdicts(rows: &[Row]) -> Vec<String> {
    let mut out = Vec::new();
    let hot: Vec<&Row> = rows.iter().filter(|r| r.theta >= 0.9).collect();
    let get = |name: &str| hot.iter().find(|r| r.config.starts_with(name));
    if let (Some(semantic), Some(rw), Some(flat)) = (
        get("commit-before + semantic"),
        get("commit-before + read/write"),
        get("2PC"),
    ) {
        let st = semantic.throughput.unwrap_or(0.0);
        let rt = rw.throughput.unwrap_or(0.0);
        let ft = flat.throughput.unwrap_or(0.0);
        out.push(verdict(
            semantic.throughput.is_some() && st > rt,
            format!(
                "C4-1: semantic conflicts beat read/write conflicts on hot increments \
                 ({st:.1} vs {rt:.1} txn/s)"
            ),
        ));
        out.push(verdict(
            semantic.throughput.is_some() && st > ft,
            format!(
                "C4-2: semantic MLT beats flat 2PC ({:.1} vs {:.1} txn/s)",
                st, ft
            ),
        ));
        out.push(verdict(
            semantic.l1_rejections == 0,
            format!(
                "C4-3: increments never collide at L1 under the semantic policy ({} rejections)",
                semantic.l1_rejections
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
