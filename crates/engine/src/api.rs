//! Engine traits and shared reporting types.
//!
//! [`LocalEngine`] is the paper's integration contract: "we only demand each
//! of the existing systems to have a transaction management ... the
//! corresponding interface has to provide calls for *begin*, *abort* and
//! *commit* of a transaction" (§2). Everything the commit protocols of §3.2
//! and §3.3 do must go through this trait.
//!
//! [`PreparableEngine`] adds the ready state of §3.1. Real integrations do
//! not have it — it exists here so the 2PC baseline can be measured against
//! the two portable protocols.

use amc_obs::ObsSink;
use amc_types::{
    AbortReason, AmcResult, GlobalTxnId, LocalRunState, LocalTxnId, ObjectId, OpResult, Operation,
    SiteId, Value,
};
use amc_wal::LogStats;
use std::collections::BTreeMap;

/// Counters every engine maintains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Transactions begun.
    pub begins: u64,
    /// Transactions committed.
    pub commits: u64,
    /// Transactions aborted for any reason.
    pub aborts: u64,
    /// Aborts initiated by the engine itself (deadlock, timeout,
    /// validation, crash) — the paper's *erroneous* aborts.
    pub erroneous_aborts: u64,
    /// Operations executed.
    pub ops: u64,
    /// Lock waits observed (2PL engines only).
    pub lock_waits: u64,
}

/// What restart recovery did (surfaced to the federation for E5/E8).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Transactions whose commit survived.
    pub committed: Vec<LocalTxnId>,
    /// Transactions rolled back (losers at the crash).
    pub rolled_back: Vec<LocalTxnId>,
    /// 2PC in-doubt transactions awaiting a coordinator decision.
    pub in_doubt: Vec<LocalTxnId>,
    /// Every prepared transaction whose prepare named its global
    /// transaction ([`PreparableEngine::prepare_as`]), decided or not.
    pub prepared: Vec<(GlobalTxnId, LocalTxnId)>,
    /// WAL records applied during replay (redo + undo applications).
    pub replayed: u64,
    /// Whether a torn final WAL frame was truncated away at open.
    pub torn_tail: bool,
}

/// Terminal states of finished local transactions, kept so a duplicate
/// decision finds them. Local ids are dense and monotone, so the table is
/// indexed by the id: one byte per transaction ever begun, no hashing.
#[derive(Debug, Default)]
pub(crate) struct Terminated(Vec<Option<LocalRunState>>);

impl Terminated {
    /// Record that `txn` ended in `state`.
    pub(crate) fn insert(&mut self, txn: LocalTxnId, state: LocalRunState) {
        let at = txn.raw() as usize;
        if at >= self.0.len() {
            self.0.resize(at + 1, None);
        }
        self.0[at] = Some(state);
    }

    /// How `txn` ended, if it did.
    pub(crate) fn get(&self, txn: LocalTxnId) -> Option<LocalRunState> {
        self.0.get(txn.raw() as usize).copied().flatten()
    }

    /// Record the terminal states a log replay found — so that after a
    /// process restart a duplicate decision for an already-finished
    /// transaction is a no-op instead of an unknown-txn error — and report.
    pub(crate) fn absorb(&mut self, outcome: &amc_wal::RecoveryOutcome) -> RecoveryReport {
        for t in &outcome.committed {
            self.insert(*t, LocalRunState::Committed);
        }
        for t in outcome.aborted.iter().chain(&outcome.losers) {
            self.insert(*t, LocalRunState::Aborted);
        }
        RecoveryReport {
            committed: outcome.committed.iter().copied().collect(),
            rolled_back: outcome.losers.iter().copied().collect(),
            in_doubt: outcome.in_doubt.iter().copied().collect(),
            prepared: outcome.prepared.iter().map(|(t, g)| (*g, *t)).collect(),
            replayed: outcome.redo_applied + outcome.undo_applied,
            torn_tail: outcome.torn_tail_truncated,
        }
    }
}

/// The first local id above every one in `records`: when the table was
/// rebuilt from a durable log, fresh ids must not collide with replayed ones.
pub(crate) fn first_id_after(records: &[(amc_types::Lsn, amc_wal::LogRecord)]) -> u64 {
    let seen = records.iter().filter_map(|(_, r)| r.txn());
    seen.map(|t| t.raw() + 1).max().unwrap_or(0)
}

/// The unmodifiable local transaction manager interface (§2).
///
/// Implementations are `Sync`: the central system drives many global
/// transactions against the same engine concurrently.
pub trait LocalEngine: Send + Sync {
    /// Start a new local transaction.
    fn begin(&self) -> AmcResult<LocalTxnId>;

    /// Execute one operation inside `txn`.
    ///
    /// On an engine-initiated abort (deadlock victim, timeout, validation
    /// failure, crash) the transaction is already rolled back when the
    /// error surfaces; the caller must not call [`LocalEngine::abort`]
    /// again.
    fn execute(&self, txn: LocalTxnId, op: &Operation) -> AmcResult<OpResult>;

    /// Commit `txn`. For an unmodified engine this transition is **atomic**
    /// (§3.1): there is no observable intermediate state and no way to
    /// interpose a global decision.
    fn commit(&self, txn: LocalTxnId) -> AmcResult<()>;

    /// Abort `txn`, rolling back its effects.
    fn abort(&self, txn: LocalTxnId, reason: AbortReason) -> AmcResult<()>;

    /// Observed state of a transaction (`None` once forgotten).
    fn state_of(&self, txn: LocalTxnId) -> Option<LocalRunState>;

    /// Whether the site is up.
    fn is_up(&self) -> bool;

    /// Simulate a site crash: volatile state (buffer pool, log tail,
    /// active transactions, lock table) is lost.
    fn crash(&self);

    /// Simulate a crash **during a log force**: `keep_frames` frames of the
    /// volatile tail become durable and, when `torn_frame` is set, the next
    /// frame lands checksum-corrupt for restart recovery to truncate.
    ///
    /// The default falls back to a clean [`LocalEngine::crash`] (no tail
    /// survives) so engines without a partial-force model stay correct.
    fn crash_partial(&self, keep_frames: u32, torn_frame: bool) {
        let _ = (keep_frames, torn_frame);
        self.crash();
    }

    /// Run restart recovery after a crash; the engine accepts work again
    /// afterwards.
    fn recover(&self) -> AmcResult<RecoveryReport>;

    /// Engine flavour, for reports ("2pl", "occ").
    fn kind(&self) -> &'static str;

    /// Counters.
    fn stats(&self) -> EngineStats;

    /// Administrative snapshot of **committed** state. Only meaningful when
    /// no transaction is in flight (tests and the verification oracle call
    /// it at quiescence).
    fn dump(&self) -> AmcResult<BTreeMap<ObjectId, Value>>;

    /// Bulk-load committed initial data (setup path, outside any
    /// transaction). Flushes to stable storage; over a durable log the load
    /// is journalled as one committed transaction, so it survives restarts.
    fn bulk_load(&self, data: &[(ObjectId, Value)]) -> AmcResult<()>;

    /// Write-ahead-log counters (experiment E4).
    fn log_stats(&self) -> LogStats;

    /// Attach an observability sink (events attributed to `site`). The
    /// default discards the sink — an *unmodifiable* existing system owes
    /// us no telemetry; the in-tree engines forward it to their WAL so
    /// forces show up in per-transaction timelines.
    fn attach_obs(&self, sink: ObsSink, site: SiteId) {
        let _ = (sink, site);
    }
}

/// The *modified* engine interface classical 2PC needs (§3.1): a ready
/// state reachable before commit, durable across crashes.
pub trait PreparableEngine: LocalEngine {
    /// Drive `txn` to the ready state: all its changes are on stable
    /// storage and the transaction can follow either global decision, even
    /// across a crash.
    fn prepare(&self, txn: LocalTxnId) -> AmcResult<()>;

    /// [`prepare`](Self::prepare), naming the global transaction `txn`
    /// serves in the durable prepare record, so that restart recovery
    /// reports the pair ([`RecoveryReport::prepared`]) — XA's
    /// `xa_prepare(xid)` and `xa_recover`. The default forgets the name:
    /// an engine that wraps another must forward this call to keep it.
    fn prepare_as(&self, txn: LocalTxnId, gtx: GlobalTxnId) -> AmcResult<()> {
        let _ = gtx;
        self.prepare(txn)
    }

    /// The 1PC fast-path entry point: execute `ops` inside `txn` and drive
    /// it to the ready state in one call, so the op records and the
    /// prepare record land in the **same group-commit batch** — one log
    /// force covers both, and the reply to the combined dispatch doubles
    /// as the site's vote.
    ///
    /// The durable outcome is identical to `execute`* + `prepare_as`: restart
    /// recovery resurrects a piggybacked prepare exactly like a classic
    /// one. The default does exactly that sequence — engines whose
    /// `execute` appends its log records unforced and whose `prepare`
    /// forces the tail already get the single combined force for free.
    ///
    /// On an engine-initiated abort mid-ops the transaction is already
    /// rolled back when the error surfaces (same contract as
    /// [`LocalEngine::execute`]); the prepare record is never written.
    fn apply_and_prepare(
        &self,
        txn: LocalTxnId,
        gtx: GlobalTxnId,
        ops: &[Operation],
    ) -> AmcResult<Vec<OpResult>> {
        let mut results = Vec::with_capacity(ops.len());
        for op in ops {
            results.push(self.execute(txn, op)?);
        }
        self.prepare_as(txn, gtx)?;
        Ok(results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_default_is_zeroed() {
        let s = EngineStats::default();
        assert_eq!(s.begins, 0);
        assert_eq!(s.commits + s.aborts + s.ops, 0);
    }

    #[test]
    fn terminated_is_one_byte_per_id_and_sparse_ids_read_none() {
        assert_eq!(std::mem::size_of::<Option<LocalRunState>>(), 1);
        let mut t = Terminated::default();
        t.insert(LocalTxnId::new(3), LocalRunState::Committed);
        t.insert(LocalTxnId::new(1), LocalRunState::Aborted);
        assert_eq!(t.get(LocalTxnId::new(3)), Some(LocalRunState::Committed));
        assert_eq!(t.get(LocalTxnId::new(1)), Some(LocalRunState::Aborted));
        assert_eq!(t.get(LocalTxnId::new(2)), None);
        assert_eq!(t.get(LocalTxnId::new(u64::MAX)), None);
    }

    #[test]
    fn recovery_report_default_is_empty() {
        let r = RecoveryReport::default();
        assert!(r.committed.is_empty() && r.rolled_back.is_empty() && r.in_doubt.is_empty());
    }
}
