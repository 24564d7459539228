//! **E6 — correctness sweep** (§2/§3's global ACID requirement).
//!
//! Randomised workloads × protocols × seeds, executed concurrently on the
//! threaded federation, then audited by the full oracle stack:
//!
//! 1. conflict-graph **serializability** of the committed transactions
//!    (semantic conflict definition, §4.1);
//! 2. **atomicity** of every decided transaction (marker audit);
//! 3. **final-state equivalence** against a serial replay of the committed
//!    transactions in the serialization order the conflict graph yields.
//!
//! The reproduced number is boring by design: **zero violations**.

use crate::setup::{batch, build_recording_federation, sizes};
use crate::table::{section, verdict, TextTable};
use amc_core::TxnOutcome;
use amc_mlt::ConflictPolicy;
use amc_types::{GlobalTxnId, GlobalVerdict, ObjectId, Operation, ProtocolKind, SiteId, Value};
use amc_verify::history::ConflictDefinition;
use amc_workload::{MixGen, MixKind, MixSpec};
use parking_lot::Mutex;
use std::collections::BTreeMap;

/// One audited run.
#[derive(Debug, Clone)]
pub struct Row {
    /// Protocol.
    pub protocol: ProtocolKind,
    /// Workload seed.
    pub seed: u64,
    /// Commits.
    pub committed: u64,
    /// Aborts (intended + erroneous).
    pub aborted: u64,
    /// Serializability violations (conflict cycles found).
    pub serializability_violations: u64,
    /// Atomicity violations (marker audit).
    pub atomicity_violations: u64,
    /// Final-state divergences from the serial replay.
    pub state_divergences: u64,
}

/// The generic read/increment/write mix over 3 sites of 48 objects.
fn spec() -> MixSpec {
    MixSpec {
        sites: 3,
        objects_per_site: 48, // small & hot: stress the interesting paths
        theta: 0.7,
        intended_abort_prob: 0.1,
        max_fanout: 2,
    }
}

/// Run one audited execution.
pub fn run_one(protocol: ProtocolKind, seed: u64, txns: usize, threads: usize) -> Row {
    let spec = spec();
    let fed = build_recording_federation(protocol, ConflictPolicy::Semantic, &spec);
    // Concurrent execution that keeps the gtx -> program mapping: every
    // attempt is audited, also the ones the driver offers again (an
    // aborted attempt must have left no net effect).
    let executed: Mutex<Vec<(GlobalTxnId, Vec<Operation>, TxnOutcome)>> = Mutex::new(Vec::new());
    let programs = batch(MixGen::new(MixKind::Zipf, spec.clone(), seed).programs(txns));
    amc_core::closed_loop(programs, threads, |program| {
        let report = fed.run_transaction(program).expect("run");
        let ops = program.values().flatten().copied().collect();
        executed.lock().push((report.gtx, ops, report.outcome));
        Ok(report)
    });

    let history = fed.history();
    let executed = executed.into_inner();
    let committed = executed
        .iter()
        .filter(|(_, _, o)| *o == TxnOutcome::Committed)
        .count() as u64;
    // Aborted attempts that were retried (erroneous) still appear in
    // `executed` for the oracle's atomicity audit; the reported abort count
    // is programs whose *final* outcome was an abort.
    let aborted = txns as u64 - committed;

    // 1. Serializability.
    let serialization = history.check_serializable(ConflictDefinition::Commutativity);
    let serializability_violations = u64::from(serialization.is_err());

    // 2. Atomicity (marker audit) — 2PC leaves no markers, skip there.
    let atomicity_violations = if protocol == ProtocolKind::TwoPhaseCommit {
        0
    } else {
        let dumps = fed.dumps().expect("dumps");
        let mut verdicts: BTreeMap<GlobalTxnId, GlobalVerdict> = BTreeMap::new();
        let mut participants: BTreeMap<GlobalTxnId, Vec<SiteId>> = BTreeMap::new();
        for (gtx, ops, outcome) in &executed {
            let verdict = match outcome {
                TxnOutcome::Committed => GlobalVerdict::Commit,
                TxnOutcome::Aborted => GlobalVerdict::Abort,
                TxnOutcome::L1Rejected(_) => continue,
            };
            verdicts.insert(*gtx, verdict);
            // Markers are written only where the transaction *updated*
            // something: read-only participants use the read-only
            // optimization and leave no trace by design.
            let sites: Vec<SiteId> = ops
                .iter()
                .filter(|op| op.is_update())
                .map(|op| amc_workload::site_of_object(op.object()))
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            participants.insert(*gtx, sites);
        }
        amc_verify::check_atomicity(&dumps, &verdicts, &participants).len() as u64
    };

    // 3. Final-state equivalence.
    let state_divergences = match serialization {
        Ok(order) => {
            let initial: BTreeMap<ObjectId, Value> = (1..=spec.sites)
                .flat_map(|s| spec.initial_data(SiteId::new(s)))
                .collect();
            let programs_by_gtx: BTreeMap<GlobalTxnId, Vec<Operation>> = executed
                .iter()
                .filter(|(_, _, o)| *o == TxnOutcome::Committed)
                .map(|(g, ops, _)| (*g, ops.clone()))
                .collect();
            let merged: BTreeMap<ObjectId, Value> = fed
                .dumps()
                .expect("dumps")
                .into_values()
                .flat_map(|d| d.into_iter())
                .collect();
            amc_verify::check_state_equivalence(&initial, &order, &programs_by_gtx, &merged).len()
                as u64
        }
        Err(_) => u64::MAX, // no order to replay
    };

    Row {
        protocol,
        seed,
        committed,
        aborted,
        serializability_violations,
        atomicity_violations,
        state_divergences,
    }
}

/// Run the sweep over protocols × seeds.
pub fn run(seeds: &[u64], txns: usize, threads: usize) -> Vec<Row> {
    let mut rows = Vec::new();
    for protocol in ProtocolKind::ALL {
        for &seed in seeds {
            rows.push(run_one(protocol, seed, txns, threads));
        }
    }
    rows
}

/// Render the report table.
pub fn table(rows: &[Row]) -> TextTable {
    let mut t = TextTable::new(
        "E6 — correctness sweep: oracle audit of concurrent executions",
        &[
            "protocol",
            "seed",
            "commits",
            "aborts",
            "serializability-violations",
            "atomicity-violations",
            "state-divergences",
        ],
    );
    for r in rows {
        t.row(vec![
            r.protocol.label().to_string(),
            r.seed.to_string(),
            r.committed.to_string(),
            r.aborted.to_string(),
            r.serializability_violations.to_string(),
            r.atomicity_violations.to_string(),
            r.state_divergences.to_string(),
        ]);
    }
    t
}

/// Shape check: zeros everywhere.
pub fn verdicts(rows: &[Row]) -> Vec<String> {
    let clean = rows.iter().all(|r| {
        r.serializability_violations == 0 && r.atomicity_violations == 0 && r.state_divergences == 0
    });
    vec![verdict(
        clean,
        format!("E6: zero violations across {} audited runs", rows.len()),
    )]
}

/// The report section.
pub fn report(quick: bool) -> String {
    let seeds: &[u64] = if quick { &[1] } else { &[1, 2, 3] };
    let rows = run(seeds, if quick { 40 } else { 120 }, sizes(quick).1);
    section(&[table(&rows)], &verdicts(&rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_audited_run_replays_from_every_sites_initial_data() {
        for protocol in ProtocolKind::ALL {
            let row = run_one(protocol, 1, 16, 2);
            assert_eq!(row.committed + row.aborted, 16, "{protocol}");
            assert!(row.committed > 0, "{protocol}");
            assert_eq!(
                (
                    row.serializability_violations,
                    row.atomicity_violations,
                    row.state_divergences
                ),
                (0, 0, 0),
                "{protocol}"
            );
        }
    }
}
