//! The L1 (global) lock manager.
//!
//! A policy wrapper over the generic blocking lock manager: object-grained,
//! owned by global transactions, with modes chosen from operation semantics.
//! Strict two-phase at L1: the protocols release a global transaction's L1
//! locks only at its global end (commit after undo/redo obligations are
//! discharged), which is what enforces both §3.2's and §3.3's
//! serializability requirements.
//!
//! [`ConflictPolicy`] selects between the semantic matrix (the paper's
//! proposal) and a read/write-only projection (E15's `commit-before/rw`
//! regime, E15-3 and C4-3: what a system ignorant of commutativity would
//! do).

use amc_lock::blocking::AcquireResult;
use amc_lock::{BlockingLockManager, LockStats, SemanticMode};
use amc_types::{GlobalTxnId, ObjectId, Operation};
use std::time::Duration;

/// How L1 modes are derived from operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictPolicy {
    /// Commutativity-based modes (§4.1): increments are compatible.
    Semantic,
    /// Read/write projection: every update is a writer (ablation baseline).
    ReadWriteOnly,
}

impl ConflictPolicy {
    /// The L1 mode an operation needs under this policy.
    pub fn mode_for(&self, op: &Operation) -> SemanticMode {
        match self {
            ConflictPolicy::Semantic => SemanticMode::for_operation(op),
            ConflictPolicy::ReadWriteOnly => SemanticMode::for_operation_rw_only(op),
        }
    }
}

/// Blocking L1 lock manager for global transactions.
pub struct L1LockManager {
    inner: BlockingLockManager<ObjectId, GlobalTxnId, SemanticMode>,
    policy: ConflictPolicy,
    timeout: Duration,
}

impl L1LockManager {
    /// New manager with the given conflict policy and acquisition timeout.
    pub fn new(policy: ConflictPolicy, timeout: Duration) -> Self {
        L1LockManager {
            inner: BlockingLockManager::new(Duration::from_millis(2)),
            policy,
            timeout,
        }
    }

    /// The active policy.
    pub fn policy(&self) -> ConflictPolicy {
        self.policy
    }

    /// Acquire an explicit mode on an object. Blocks; returns the raw
    /// acquire result so callers can map deadlock/timeout to a global
    /// abort. Callers that know a transaction's whole access set fold the per-operation modes with
    /// [`amc_lock::LockMode::combine`] and acquire each object **once** at
    /// its strongest mode — upgrades (and the classic upgrade deadlock)
    /// then cannot occur at L1.
    pub fn acquire_mode(
        &self,
        gtx: GlobalTxnId,
        obj: ObjectId,
        mode: SemanticMode,
    ) -> AcquireResult {
        self.inner.acquire(gtx, obj, mode, self.timeout)
    }

    /// Release `gtx`'s L1 locks on `objects` — the ones its program took
    /// — only at global end (strict 2PL at L1).
    pub fn release(&self, gtx: GlobalTxnId, objects: &[ObjectId]) {
        self.inner.release(gtx, objects);
    }

    /// Release every L1 lock of `gtx` by sweeping the whole table: for a
    /// central crash, which loses the programs that say what was taken.
    pub fn release_all(&self, gtx: GlobalTxnId) {
        self.inner.release_txn(gtx);
    }

    /// Locks currently granted (metrics).
    pub fn granted_count(&self) -> usize {
        self.inner.granted_count()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> LockStats {
        self.inner.stats()
    }

    /// Invariant pass-through for property tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.inner.check_invariants()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amc_types::Value;
    use std::sync::Arc;
    use std::time::Duration;

    fn gtx(n: u64) -> GlobalTxnId {
        GlobalTxnId::new(n)
    }
    fn obj(n: u64) -> ObjectId {
        ObjectId::new(n)
    }

    fn incr(o: u64) -> Operation {
        Operation::Increment {
            obj: obj(o),
            delta: 1,
        }
    }
    fn write(o: u64) -> Operation {
        Operation::Write {
            obj: obj(o),
            value: Value::ZERO,
        }
    }

    /// The L1 lock `op` needs, at the mode the manager's policy gives it.
    fn acquire(m: &L1LockManager, gtx: GlobalTxnId, op: &Operation) -> AcquireResult {
        m.acquire_mode(gtx, op.object(), m.policy().mode_for(op))
    }

    #[test]
    fn fig8_increments_interleave_under_semantic_policy() {
        let m = L1LockManager::new(ConflictPolicy::Semantic, Duration::from_millis(50));
        assert_eq!(acquire(&m, gtx(1), &incr(1)), AcquireResult::Granted);
        assert_eq!(acquire(&m, gtx(2), &incr(1)), AcquireResult::Granted);
        assert_eq!(
            m.granted_count(),
            2,
            "both transactions hold the increment lock"
        );
        m.release(gtx(1), &[obj(1)]);
        m.release(gtx(2), &[obj(1)]);
        assert_eq!(m.granted_count(), 0);
    }

    #[test]
    fn rw_only_policy_blocks_concurrent_increments() {
        let m = Arc::new(L1LockManager::new(
            ConflictPolicy::ReadWriteOnly,
            Duration::from_millis(30),
        ));
        assert_eq!(acquire(&m, gtx(1), &incr(1)), AcquireResult::Granted);
        // Under the ablation policy the second increment must wait (and here
        // time out, since nobody releases).
        assert_eq!(acquire(&m, gtx(2), &incr(1)), AcquireResult::Timeout);
        m.release_all(gtx(1));
        m.release_all(gtx(2));
    }

    #[test]
    fn writers_block_under_both_policies() {
        for policy in [ConflictPolicy::Semantic, ConflictPolicy::ReadWriteOnly] {
            let m = L1LockManager::new(policy, Duration::from_millis(20));
            assert_eq!(acquire(&m, gtx(1), &write(1)), AcquireResult::Granted);
            assert_eq!(acquire(&m, gtx(2), &write(1)), AcquireResult::Timeout);
            m.release_all(gtx(1));
            m.release_all(gtx(2));
        }
    }

    #[test]
    fn different_objects_never_conflict() {
        let m = L1LockManager::new(ConflictPolicy::ReadWriteOnly, Duration::from_millis(20));
        assert_eq!(acquire(&m, gtx(1), &write(1)), AcquireResult::Granted);
        assert_eq!(acquire(&m, gtx(2), &write(2)), AcquireResult::Granted);
        m.release_all(gtx(1));
        m.release_all(gtx(2));
    }

    #[test]
    fn release_wakes_waiter() {
        let m = Arc::new(L1LockManager::new(
            ConflictPolicy::Semantic,
            Duration::from_secs(5),
        ));
        assert_eq!(acquire(&m, gtx(1), &write(1)), AcquireResult::Granted);
        let m2 = m.clone();
        let h = std::thread::spawn(move || acquire(&m2, gtx(2), &write(1)));
        std::thread::sleep(Duration::from_millis(20));
        m.release(gtx(1), &[obj(1)]);
        assert_eq!(h.join().unwrap(), AcquireResult::Granted);
        m.release(gtx(2), &[obj(1)]);
        assert_eq!(m.granted_count(), 0);
    }

    /// A central crash loses the programs, so the sweep must free every
    /// L1 lock the transaction holds, and nobody else's.
    #[test]
    fn release_all_frees_every_lock_of_one_transaction_only() {
        let m = L1LockManager::new(ConflictPolicy::Semantic, Duration::from_millis(10));
        for o in 1..=3 {
            assert_eq!(acquire(&m, gtx(1), &write(o)), AcquireResult::Granted);
        }
        assert_eq!(acquire(&m, gtx(2), &write(4)), AcquireResult::Granted);
        m.release_all(gtx(1));
        assert_eq!(m.granted_count(), 1);
        m.check_invariants().unwrap();
        for o in 1..=3 {
            assert_eq!(acquire(&m, gtx(3), &write(o)), AcquireResult::Granted);
        }
        assert_ne!(acquire(&m, gtx(3), &write(4)), AcquireResult::Granted);
    }
}
