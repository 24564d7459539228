//! Restart recovery.
//!
//! Three passes over the durable log, in the spirit of ARIES but simplified
//! by value logging (every step idempotent):
//!
//! 1. **Analysis** — find the last checkpoint; classify every transaction
//!    the log names as *finished* (commit or abort record present),
//!    **in-doubt** (a forced `Prepare` but no decision — 2PC's ready state
//!    surviving the crash) or *loser*.
//! 2. **Redo** — forward from the checkpoint, re-apply every `Update` of a
//!    finished transaction (aborted ones included: their compensating
//!    updates come later in the log and net out the rollback).
//! 3. **Undo** — backward over the whole log, restore the `before` image of
//!    every update belonging to a loser, then log and force what it did as
//!    a runtime abort logs it: a compensating `Update` per restored image,
//!    in undo order, and the loser's `Abort` (ARIES's compensation
//!    records). A later recovery finds the loser finished, so its undone
//!    write never comes back over a later commit.
//!
//! The caller supplies an `apply` callback (`obj`, `image`) so the module is
//! independent of the concrete store; `amc-engine` wires it to its
//! `PageStore`.
//!
//! Before the analysis pass, recovery inspects the durable prefix for a
//! **torn tail**: a crash in the middle of a `force()` can leave exactly one
//! checksum-corrupt frame at the end of the log. That frame was never
//! acknowledged to anyone (the force did not return), so dropping it is
//! correct — recovery truncates it and proceeds over the intact prefix.
//! Corruption anywhere *earlier* means committed history was damaged and
//! stays fatal.

use crate::log::LogManager;
use crate::record::LogRecord;
use amc_obs::EventKind;
use amc_types::{AmcResult, GlobalTxnId, LocalTxnId, ObjectId, Value};
use std::collections::{BTreeMap, BTreeSet};

/// What recovery found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryOutcome {
    /// Transactions with a durable commit record.
    pub committed: BTreeSet<LocalTxnId>,
    /// Transactions with a durable abort record (rollback already logged).
    pub aborted: BTreeSet<LocalTxnId>,
    /// In-doubt: prepared but undecided (2PC ready state). Their updates
    /// are redone and must stay isolated until the coordinator decides.
    pub in_doubt: BTreeSet<LocalTxnId>,
    /// Every `Prepare` record that named its global transaction, decided
    /// or not: which local transaction served which global one.
    pub prepared: BTreeMap<LocalTxnId, GlobalTxnId>,
    /// Losers: active at the crash, rolled back by the undo pass.
    pub losers: BTreeSet<LocalTxnId>,
    /// Number of redo applications performed.
    pub redo_applied: u64,
    /// Number of undo applications performed.
    pub undo_applied: u64,
    /// True when a torn (checksum-corrupt) final frame was truncated before
    /// the analysis pass — evidence of a crash mid-`force()`.
    pub torn_tail_truncated: bool,
}

/// Run restart recovery over `log`, applying images through `apply`.
///
/// `apply(obj, Some(v))` must set the object to `v`; `apply(obj, None)` must
/// delete it. Both must be idempotent — trivially true for a store keyed by
/// object id.
pub fn recover(
    log: &mut LogManager,
    mut apply: impl FnMut(ObjectId, Option<Value>) -> AmcResult<()>,
) -> AmcResult<RecoveryOutcome> {
    // A torn final frame is the unacknowledged victim of a crash during
    // force(): truncate it. Mid-log corruption propagates as a fatal error.
    // A durable log may already have truncated a torn frame at open; that
    // counts as the same crash evidence and is consumed here exactly once.
    let torn_tail_truncated = log.truncate_torn_tail()? | log.take_torn_at_open();
    let records = log.stable_records()?;
    log.emit(EventKind::RecoveryStart {
        records: records.len() as u64,
    });

    // --- Analysis ---------------------------------------------------------
    // Redo starts after the last checkpoint record.
    let checkpoint = |(_, r): &(_, LogRecord)| matches!(r, LogRecord::Checkpoint { .. });
    let ckpt_idx = records.iter().rposition(checkpoint).map_or(0, |i| i + 1);

    let mut outcome = RecoveryOutcome {
        torn_tail_truncated,
        ..RecoveryOutcome::default()
    };
    let mut seen: BTreeSet<LocalTxnId> = BTreeSet::new();
    let mut prepared: BTreeSet<LocalTxnId> = BTreeSet::new();
    for (_, r) in &records {
        seen.extend(r.txn());
        match r {
            LogRecord::Prepare { txn, gtx } => {
                prepared.insert(*txn);
                if let Some(gtx) = gtx {
                    outcome.prepared.insert(*txn, *gtx);
                }
            }
            LogRecord::Commit { txn } => {
                outcome.committed.insert(*txn);
            }
            LogRecord::Abort { txn } => {
                outcome.aborted.insert(*txn);
            }
            _ => {}
        }
    }
    outcome.in_doubt = prepared
        .iter()
        .copied()
        .filter(|t| !outcome.committed.contains(t) && !outcome.aborted.contains(t))
        .collect();
    outcome.losers = seen
        .iter()
        .copied()
        .filter(|t| {
            !outcome.committed.contains(t)
                && !outcome.aborted.contains(t)
                && !outcome.in_doubt.contains(t)
        })
        .collect();

    // --- Redo -------------------------------------------------------------
    // Forward from the checkpoint: re-apply updates of finished txns.
    for (lsn, r) in &records[ckpt_idx.min(records.len())..] {
        if let LogRecord::Update {
            txn, obj, after, ..
        } = r
        {
            if outcome.committed.contains(txn)
                || outcome.aborted.contains(txn)
                || outcome.in_doubt.contains(txn)
            {
                apply(*obj, *after)?;
                outcome.redo_applied += 1;
                log.emit(EventKind::ReplayedRecord { lsn: lsn.raw() });
            }
        }
    }

    // --- Undo -------------------------------------------------------------
    // Backward over the whole log: restore before-images of losers, and
    // log each restored image as a compensation, then each loser's abort.
    let mut compensations = Vec::new();
    for (lsn, r) in records.iter().rev() {
        if let LogRecord::Update {
            txn,
            obj,
            before,
            after,
        } = r
        {
            if outcome.losers.contains(txn) {
                apply(*obj, *before)?;
                outcome.undo_applied += 1;
                log.emit(EventKind::ReplayedRecord { lsn: lsn.raw() });
                compensations.push(LogRecord::Update {
                    txn: *txn,
                    obj: *obj,
                    before: *after,
                    after: *before,
                });
            }
        }
    }
    let aborts = outcome.losers.iter().map(|&txn| LogRecord::Abort { txn });
    if !outcome.losers.is_empty() {
        for record in compensations.into_iter().chain(aborts) {
            log.append(&record);
        }
        log.force();
    }

    // Only the in-doubt transactions live on: no cut may pass them.
    let first = outcome.in_doubt.iter().filter_map(|t| {
        let first = records.iter().find(|(_, r)| r.txn() == Some(*t));
        first.map(|(lsn, _)| (*t, *lsn))
    });
    log.reset_live(first.collect());

    Ok(outcome)
}

/// Recover into a `BTreeMap` model (tests).
#[cfg(test)]
pub(crate) fn recover_into_map(
    log: &mut LogManager,
    state: &mut std::collections::BTreeMap<ObjectId, Value>,
) -> AmcResult<RecoveryOutcome> {
    recover(log, |obj, img| {
        match img {
            Some(v) => {
                state.insert(obj, v);
            }
            None => {
                state.remove(&obj);
            }
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn ltx(n: u64) -> LocalTxnId {
        LocalTxnId::new(n)
    }
    fn obj(n: u64) -> ObjectId {
        ObjectId::new(n)
    }
    fn v(n: i64) -> Value {
        Value::counter(n)
    }

    fn update(t: u64, o: u64, before: Option<i64>, after: Option<i64>) -> LogRecord {
        LogRecord::Update {
            txn: ltx(t),
            obj: obj(o),
            before: before.map(v),
            after: after.map(v),
        }
    }

    #[test]
    fn committed_transaction_is_redone() {
        let mut log = LogManager::new();
        log.append(&LogRecord::Begin { txn: ltx(1) });
        log.append(&update(1, 10, None, Some(5)));
        log.append(&LogRecord::Commit { txn: ltx(1) });
        log.force();

        let mut state = BTreeMap::new();
        let out = recover_into_map(&mut log, &mut state).unwrap();
        assert!(out.committed.contains(&ltx(1)));
        assert!(out.losers.is_empty());
        assert_eq!(state.get(&obj(10)), Some(&v(5)));
        assert_eq!(out.redo_applied, 1);
    }

    /// Every prepare that named its global transaction is reported with
    /// it, whatever became of the transaction; an unnamed one is in doubt
    /// all the same, but nameless.
    #[test]
    fn named_prepares_are_reported_decided_or_not() {
        let mut log = LogManager::new();
        let gtx = |n| Some(GlobalTxnId::new(n));
        for (t, name) in [(1, gtx(11)), (2, gtx(12)), (3, None)] {
            log.append(&update(t, t, None, Some(1)));
            log.append(&LogRecord::Prepare {
                txn: ltx(t),
                gtx: name,
            });
        }
        log.append(&LogRecord::Commit { txn: ltx(1) });
        log.force();

        let out = recover_into_map(&mut log, &mut BTreeMap::new()).unwrap();
        let named = [
            (ltx(1), GlobalTxnId::new(11)),
            (ltx(2), GlobalTxnId::new(12)),
        ];
        assert_eq!(out.prepared, BTreeMap::from(named));
        assert_eq!(out.in_doubt, [ltx(2), ltx(3)].into());
        assert!(out.committed.contains(&ltx(1)));
    }

    #[test]
    fn loser_is_undone_even_if_its_writes_hit_disk() {
        let mut log = LogManager::new();
        log.append(&LogRecord::Begin { txn: ltx(1) });
        log.append(&update(1, 10, Some(1), Some(99)));
        log.force(); // durable update record, no commit -> loser

        // Simulate the dirty page having been evicted pre-crash.
        let mut state = BTreeMap::from([(obj(10), v(99))]);
        let out = recover_into_map(&mut log, &mut state).unwrap();
        assert!(out.losers.contains(&ltx(1)));
        assert_eq!(state.get(&obj(10)), Some(&v(1)), "before image restored");
        assert_eq!(out.undo_applied, 1);
    }

    /// Undo logs what it restored, newest first, and the loser's abort,
    /// durably: the next recovery finds the loser finished, and its redo
    /// nets out under a later commit of the same object.
    #[test]
    fn undone_loser_is_logged_finished() {
        let mut log = LogManager::new();
        log.append(&update(1, 10, Some(1), Some(2)));
        log.append(&update(1, 10, Some(2), Some(3)));
        log.force();
        let mut state = BTreeMap::from([(obj(10), v(3))]);
        recover_into_map(&mut log, &mut state).unwrap();
        let logged: Vec<LogRecord> = log.stable_records().unwrap()[2..]
            .iter()
            .map(|(_, r)| r.clone())
            .collect();
        let abort = LogRecord::Abort { txn: ltx(1) };
        let undo = [
            update(1, 10, Some(3), Some(2)),
            update(1, 10, Some(2), Some(1)),
        ];
        assert_eq!(logged, [undo[0].clone(), undo[1].clone(), abort]);
        log.append(&update(2, 10, Some(1), Some(30)));
        log.append(&LogRecord::Commit { txn: ltx(2) });
        log.force();
        let out = recover_into_map(&mut log, &mut state).unwrap();
        assert!(out.losers.is_empty());
        assert!(out.aborted.contains(&ltx(1)));
        assert_eq!(state.get(&obj(10)), Some(&v(30)));
    }

    #[test]
    fn loser_insert_is_deleted_on_undo() {
        let mut log = LogManager::new();
        log.append(&LogRecord::Begin { txn: ltx(1) });
        log.append(&update(1, 10, None, Some(7)));
        log.force();

        let mut state = BTreeMap::from([(obj(10), v(7))]);
        recover_into_map(&mut log, &mut state).unwrap();
        assert!(!state.contains_key(&obj(10)));
    }

    #[test]
    fn cleanly_aborted_transaction_nets_out() {
        // Abort path: forward update then compensating update then Abort.
        let mut log = LogManager::new();
        log.append(&LogRecord::Begin { txn: ltx(1) });
        log.append(&update(1, 10, Some(1), Some(50)));
        log.append(&update(1, 10, Some(50), Some(1))); // compensation
        log.append(&LogRecord::Abort { txn: ltx(1) });
        log.force();

        let mut state = BTreeMap::from([(obj(10), v(1))]);
        let out = recover_into_map(&mut log, &mut state).unwrap();
        assert!(out.aborted.contains(&ltx(1)));
        assert!(out.losers.is_empty());
        assert_eq!(state.get(&obj(10)), Some(&v(1)));
    }

    #[test]
    fn unforced_commit_means_loser() {
        let mut log = LogManager::new();
        log.append(&LogRecord::Begin { txn: ltx(1) });
        log.append(&update(1, 10, Some(1), Some(2)));
        log.force();
        log.append(&LogRecord::Commit { txn: ltx(1) }); // never forced
        log.crash();

        let mut state = BTreeMap::from([(obj(10), v(2))]);
        let out = recover_into_map(&mut log, &mut state).unwrap();
        assert!(out.losers.contains(&ltx(1)));
        assert_eq!(state.get(&obj(10)), Some(&v(1)));
    }

    #[test]
    fn undo_runs_in_reverse_order() {
        // Loser wrote the same object twice; the *first* before-image must
        // win.
        let mut log = LogManager::new();
        log.append(&LogRecord::Begin { txn: ltx(1) });
        log.append(&update(1, 10, Some(1), Some(2)));
        log.append(&update(1, 10, Some(2), Some(3)));
        log.force();

        let mut state = BTreeMap::from([(obj(10), v(3))]);
        recover_into_map(&mut log, &mut state).unwrap();
        assert_eq!(state.get(&obj(10)), Some(&v(1)));
    }

    #[test]
    fn checkpoint_bounds_redo_but_not_undo() {
        let mut log = LogManager::new();
        // T1 commits before the checkpoint; its pages are on disk by the
        // checkpoint contract, so redo must skip it.
        log.append(&LogRecord::Begin { txn: ltx(1) });
        log.append(&update(1, 10, None, Some(1)));
        log.append(&LogRecord::Commit { txn: ltx(1) });
        // T2 is active across the checkpoint.
        log.append(&LogRecord::Begin { txn: ltx(2) });
        log.append(&update(2, 20, Some(5), Some(6)));
        log.append(&LogRecord::Checkpoint {
            active: vec![ltx(2)],
        });
        log.force();

        // Disk state at checkpoint: both updates flushed.
        let mut state = BTreeMap::from([(obj(10), v(1)), (obj(20), v(6))]);
        let out = recover_into_map(&mut log, &mut state).unwrap();
        assert_eq!(out.redo_applied, 0, "checkpoint bounds redo");
        assert!(out.losers.contains(&ltx(2)));
        assert_eq!(
            state.get(&obj(20)),
            Some(&v(5)),
            "pre-checkpoint update of a loser must still be undone"
        );
        assert_eq!(state.get(&obj(10)), Some(&v(1)));
    }

    #[test]
    fn recovery_is_idempotent() {
        let mut log = LogManager::new();
        log.append(&LogRecord::Begin { txn: ltx(1) });
        log.append(&update(1, 10, Some(0), Some(5)));
        log.append(&LogRecord::Commit { txn: ltx(1) });
        log.append(&LogRecord::Begin { txn: ltx(2) });
        log.append(&update(2, 11, Some(9), Some(100)));
        log.force();

        let mut s1 = BTreeMap::from([(obj(10), v(0)), (obj(11), v(100))]);
        recover_into_map(&mut log, &mut s1).unwrap();
        let snapshot = s1.clone();
        // Crash during recovery, recover again: same result (E8).
        recover_into_map(&mut log, &mut s1).unwrap();
        assert_eq!(s1, snapshot);
        assert_eq!(s1.get(&obj(10)), Some(&v(5)));
        assert_eq!(s1.get(&obj(11)), Some(&v(9)));
    }

    #[test]
    fn empty_log_recovers_to_nothing() {
        let mut log = LogManager::new();
        let mut state = BTreeMap::new();
        let out = recover_into_map(&mut log, &mut state).unwrap();
        assert_eq!(out, RecoveryOutcome::default());
        assert!(state.is_empty());
    }

    #[test]
    fn torn_tail_is_truncated_and_prefix_recovers() {
        // T1 commits durably; crash strikes mid-force of T2's records,
        // tearing the first in-flight frame. Recovery must truncate the torn
        // frame and recover T1 exactly as if the force never started.
        let mut log = LogManager::new();
        log.append(&LogRecord::Begin { txn: ltx(1) });
        log.append(&update(1, 10, Some(0), Some(5)));
        log.append(&LogRecord::Commit { txn: ltx(1) });
        log.force();
        log.append(&LogRecord::Begin { txn: ltx(2) });
        log.append(&update(2, 11, Some(9), Some(100)));
        log.crash_during_force(0, true);

        let mut state = BTreeMap::from([(obj(10), v(0)), (obj(11), v(9))]);
        let out = recover_into_map(&mut log, &mut state).unwrap();
        assert!(out.torn_tail_truncated);
        assert!(out.committed.contains(&ltx(1)));
        assert!(!out.losers.contains(&ltx(2)), "T2 left no durable trace");
        assert_eq!(state.get(&obj(10)), Some(&v(5)));
        assert_eq!(state.get(&obj(11)), Some(&v(9)));

        // Replaying recovery is idempotent (E8): same state, no torn flag.
        let snapshot = state.clone();
        let again = recover_into_map(&mut log, &mut state).unwrap();
        assert!(!again.torn_tail_truncated);
        assert_eq!(state, snapshot);
    }

    #[test]
    fn torn_commit_record_demotes_txn_to_loser() {
        // The commit record itself is the torn frame: the commit was never
        // acknowledged, so the transaction must roll back as a loser.
        let mut log = LogManager::new();
        log.append(&LogRecord::Begin { txn: ltx(1) });
        log.append(&update(1, 10, Some(1), Some(2)));
        log.force();
        log.append(&LogRecord::Commit { txn: ltx(1) });
        log.crash_during_force(0, true);

        let mut state = BTreeMap::from([(obj(10), v(2))]);
        let out = recover_into_map(&mut log, &mut state).unwrap();
        assert!(out.torn_tail_truncated);
        assert!(out.losers.contains(&ltx(1)));
        assert_eq!(state.get(&obj(10)), Some(&v(1)), "update undone");
    }

    #[test]
    fn mid_log_corruption_fails_recovery() {
        let mut log = LogManager::new();
        log.append(&LogRecord::Begin { txn: ltx(1) });
        log.append(&update(1, 10, Some(1), Some(2)));
        log.append(&LogRecord::Commit { txn: ltx(1) });
        log.force();
        log.corrupt_stable(1); // damage committed history, not the tail
        let mut state = BTreeMap::new();
        let err = recover_into_map(&mut log, &mut state).unwrap_err();
        assert!(matches!(err, amc_types::AmcError::Corruption(_)), "{err:?}");
        assert!(state.is_empty(), "no partial recovery happened");
    }
}
