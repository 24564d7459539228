//! Blocking façade over the lock table for the threaded runtime.
//!
//! The table is **striped**: resources hash to one of N independently
//! mutexed [`LockTable`] shards, so unrelated acquisitions never contend on
//! a single manager mutex (the convoy the E9 experiment measures). Waiters
//! park on their stripe's condvar. A parked waiter periodically re-runs
//! deadlock detection over a **merged** wait-for snapshot (all stripes
//! locked in index order, held stripe released first — a cycle can span
//! stripes); victims are recorded in a *doomed* set so that every victim —
//! wherever it is parked — wakes up and reports [`AcquireResult::Deadlock`]
//! to its engine, which then aborts the transaction (an *erroneous* abort in
//! the paper's classification, §3.2).
//!
//! Lock ordering: a stripe mutex may be taken while holding nothing, or in
//! ascending index order (merged detection); the doomed set is a leaf taken
//! under at most one stripe. Nothing takes a stripe while holding `doomed`.

use crate::modes::LockMode;
use crate::table::{victims_from_edges, LockOutcome, LockStats, LockTable};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::fmt::Debug;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Result of a blocking acquire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcquireResult {
    /// Lock granted.
    Granted,
    /// The caller was chosen as a deadlock victim; it must abort.
    Deadlock,
    /// The request timed out; the caller should abort (an erroneous abort).
    Timeout,
}

/// Default stripe count — plenty for the worker-thread counts E9 sweeps.
const DEFAULT_STRIPES: usize = 16;

struct Stripe<R, T, M> {
    table: Mutex<LockTable<R, T, M>>,
    cv: Condvar,
}

/// Thread-safe, blocking, striped lock manager.
pub struct BlockingLockManager<R, T, M> {
    stripes: Vec<Stripe<R, T, M>>,
    /// Deadlock victims not yet aborted; global because a victim may be
    /// parked on any stripe.
    doomed: Mutex<HashSet<T>>,
    /// Victims chosen by the merged detector (per-stripe tables never run
    /// their own detection here).
    victims: AtomicU64,
    /// How often parked waiters re-check for deadlock.
    check_interval: Duration,
}

impl<R, T, M> BlockingLockManager<R, T, M>
where
    R: Copy + Eq + Hash + Debug,
    T: Copy + Eq + Ord + Hash + Debug,
    M: LockMode,
{
    /// A manager with the default stripe count whose parked waiters re-run
    /// deadlock detection every `check_interval`.
    pub fn new(check_interval: Duration) -> Self {
        Self::with_stripes(check_interval, DEFAULT_STRIPES)
    }

    /// A manager sharded into `stripes` independently mutexed tables.
    pub fn with_stripes(check_interval: Duration, stripes: usize) -> Self {
        let stripes = stripes.max(1);
        BlockingLockManager {
            stripes: (0..stripes)
                .map(|_| Stripe {
                    table: Mutex::new(LockTable::new()),
                    cv: Condvar::new(),
                })
                .collect(),
            doomed: Mutex::new(HashSet::new()),
            victims: AtomicU64::new(0),
            check_interval,
        }
    }

    /// Number of stripes (tests/metrics).
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    fn stripe_of(&self, resource: &R) -> &Stripe<R, T, M> {
        let mut h = DefaultHasher::new();
        resource.hash(&mut h);
        &self.stripes[(h.finish() as usize) % self.stripes.len()]
    }

    /// Whether `txn`'s grant on `resource` covers `mode` (the promoted mode
    /// covers the request iff combining changes nothing).
    fn covered(table: &LockTable<R, T, M>, txn: T, resource: R, mode: M) -> bool {
        table.holds(txn, resource)
            && table
                .held_mode(txn, resource)
                .is_some_and(|held| held.combine(mode) == held)
    }

    /// Acquire `mode` on `resource` for `txn`, blocking up to `timeout` (a
    /// zero timeout never blocks).
    ///
    /// On `Deadlock`/`Timeout` the queued request is cancelled; locks the
    /// transaction already holds stay held until [`Self::release_txn`] —
    /// the engine's abort path releases them after rollback, preserving
    /// strict 2PL.
    pub fn acquire(&self, txn: T, resource: R, mode: M, timeout: Duration) -> AcquireResult {
        let start = Instant::now();
        let stripe = self.stripe_of(&resource);
        let mut table = stripe.table.lock();
        if self.doomed.lock().contains(&txn) {
            return AcquireResult::Deadlock;
        }
        match table.request(txn, resource, mode) {
            LockOutcome::Granted => return AcquireResult::Granted,
            LockOutcome::Queued => {}
        }
        loop {
            if start.elapsed() >= timeout {
                Self::cancel_wait(stripe, &mut table, txn);
                return AcquireResult::Timeout;
            }
            stripe.cv.wait_for(&mut table, self.check_interval);
            if self.doomed.lock().contains(&txn) {
                Self::cancel_wait(stripe, &mut table, txn);
                return AcquireResult::Deadlock;
            }
            if Self::covered(&table, txn, resource, mode) {
                return AcquireResult::Granted;
            }
            // Merged detection needs every stripe; drop ours first so the
            // ascending-order sweep never deadlocks with another detector.
            drop(table);
            self.detect_and_doom();
            table = stripe.table.lock();
            if self.doomed.lock().contains(&txn) {
                Self::cancel_wait(stripe, &mut table, txn);
                return AcquireResult::Deadlock;
            }
            if Self::covered(&table, txn, resource, mode) {
                // Granted while we were detecting.
                return AcquireResult::Granted;
            }
        }
    }

    /// Run deadlock detection over the merged wait-for snapshot and doom
    /// every victim. Caller must hold **no** stripe lock.
    fn detect_and_doom(&self) {
        let victims = {
            let guards: Vec<MutexGuard<'_, LockTable<R, T, M>>> =
                self.stripes.iter().map(|s| s.table.lock()).collect();
            let mut edges = Vec::new();
            for g in &guards {
                edges.extend(g.wait_for_edges());
            }
            victims_from_edges(&edges)
        };
        if victims.is_empty() {
            return;
        }
        {
            let mut doomed = self.doomed.lock();
            for v in &victims {
                doomed.insert(*v);
            }
        }
        self.victims
            .fetch_add(victims.len() as u64, Ordering::Relaxed);
        // A victim may be parked on any stripe.
        for s in &self.stripes {
            s.cv.notify_all();
        }
    }

    /// Remove `txn`'s queued request while **keeping every grant it
    /// holds** — the victim's rollback still needs its locks (strict 2PL).
    /// Wakes anyone the cancellation unblocks.
    fn cancel_wait(stripe: &Stripe<R, T, M>, table: &mut LockTable<R, T, M>, txn: T) {
        let woken = table.cancel_waits(txn);
        if !woken.is_empty() {
            stripe.cv.notify_all();
        }
    }

    /// Release every lock `txn` holds (commit or post-rollback abort).
    pub fn release_txn(&self, txn: T) {
        self.doomed.lock().remove(&txn);
        for stripe in &self.stripes {
            let woken = stripe.table.lock().release_all(txn);
            if !woken.is_empty() {
                stripe.cv.notify_all();
            }
        }
    }

    /// Counters summed across stripes (victims come from the merged
    /// detector).
    pub fn stats(&self) -> LockStats {
        let mut total = LockStats::default();
        for stripe in &self.stripes {
            let s = stripe.table.lock().stats();
            total.requests += s.requests;
            total.immediate += s.immediate;
            total.waits += s.waits;
            total.upgrades += s.upgrades;
            total.victims += s.victims;
        }
        total.victims += self.victims.load(Ordering::Relaxed);
        total
    }

    /// Reset counters.
    pub fn reset_stats(&self) {
        for stripe in &self.stripes {
            stripe.table.lock().reset_stats();
        }
        self.victims.store(0, Ordering::Relaxed);
    }

    /// Number of locks currently granted (for tests/metrics).
    pub fn granted_count(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.table.lock().granted_count())
            .sum()
    }

    /// Invariant check pass-through for property tests. Grant compatibility
    /// is per-resource, and a resource lives on exactly one stripe, so
    /// checking each stripe covers the whole table.
    pub fn check_invariants(&self) -> Result<(), String> {
        for stripe in &self.stripes {
            stripe.table.lock().check_invariants()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modes::PageMode;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::thread;

    const LONG: Duration = Duration::from_secs(5);

    fn mgr() -> Arc<BlockingLockManager<u32, u64, PageMode>> {
        Arc::new(BlockingLockManager::new(Duration::from_millis(2)))
    }

    #[test]
    fn uncontended_acquire_is_immediate() {
        let m = mgr();
        assert_eq!(
            m.acquire(1, 10, PageMode::Exclusive, LONG),
            AcquireResult::Granted
        );
        m.release_txn(1);
    }

    #[test]
    fn waiter_wakes_on_release() {
        let m = mgr();
        assert_eq!(
            m.acquire(1, 10, PageMode::Exclusive, LONG),
            AcquireResult::Granted
        );
        let m2 = m.clone();
        let h = thread::spawn(move || m2.acquire(2, 10, PageMode::Exclusive, LONG));
        thread::sleep(Duration::from_millis(20));
        m.release_txn(1);
        assert_eq!(h.join().unwrap(), AcquireResult::Granted);
        m.release_txn(2);
    }

    #[test]
    fn deadlock_dooms_exactly_one() {
        let m = mgr();
        assert_eq!(
            m.acquire(1, 10, PageMode::Exclusive, LONG),
            AcquireResult::Granted
        );
        assert_eq!(
            m.acquire(2, 20, PageMode::Exclusive, LONG),
            AcquireResult::Granted
        );
        let ma = m.clone();
        let a = thread::spawn(move || {
            let r = ma.acquire(1, 20, PageMode::Exclusive, LONG);
            if r != AcquireResult::Granted {
                ma.release_txn(1);
            }
            r
        });
        let mb = m.clone();
        let b = thread::spawn(move || {
            let r = mb.acquire(2, 10, PageMode::Exclusive, LONG);
            if r != AcquireResult::Granted {
                mb.release_txn(2);
            }
            r
        });
        let ra = a.join().unwrap();
        let rb = b.join().unwrap();
        let deadlocks = [ra, rb]
            .iter()
            .filter(|r| **r == AcquireResult::Deadlock)
            .count();
        assert_eq!(deadlocks, 1, "exactly one victim: got {ra:?}/{rb:?}");
        assert_eq!(
            [ra, rb]
                .iter()
                .filter(|r| **r == AcquireResult::Granted)
                .count(),
            1
        );
        m.release_txn(1);
        m.release_txn(2);
    }

    #[test]
    fn cross_stripe_deadlock_is_detected() {
        // Force the two resources onto *different* stripes, so the cycle is
        // invisible to any single stripe's table and only the merged
        // snapshot can see it.
        let m = Arc::new(BlockingLockManager::<u32, u64, PageMode>::with_stripes(
            Duration::from_millis(2),
            4,
        ));
        let (mut r1, mut r2) = (1u32, 2u32);
        'search: for a in 0..1000u32 {
            for b in (a + 1)..1000u32 {
                let s = |r: u32| {
                    let mut h = DefaultHasher::new();
                    r.hash(&mut h);
                    (h.finish() as usize) % 4
                };
                if s(a) != s(b) {
                    (r1, r2) = (a, b);
                    break 'search;
                }
            }
        }
        assert_eq!(
            m.acquire(1, r1, PageMode::Exclusive, LONG),
            AcquireResult::Granted
        );
        assert_eq!(
            m.acquire(2, r2, PageMode::Exclusive, LONG),
            AcquireResult::Granted
        );
        let ma = m.clone();
        let a = thread::spawn(move || {
            let r = ma.acquire(1, r2, PageMode::Exclusive, LONG);
            if r != AcquireResult::Granted {
                ma.release_txn(1);
            }
            r
        });
        let mb = m.clone();
        let b = thread::spawn(move || {
            let r = mb.acquire(2, r1, PageMode::Exclusive, LONG);
            if r != AcquireResult::Granted {
                mb.release_txn(2);
            }
            r
        });
        let (ra, rb) = (a.join().unwrap(), b.join().unwrap());
        assert_eq!(
            [ra, rb]
                .iter()
                .filter(|r| **r == AcquireResult::Deadlock)
                .count(),
            1,
            "exactly one victim: got {ra:?}/{rb:?}"
        );
        assert!(m.stats().victims >= 1);
        m.release_txn(1);
        m.release_txn(2);
    }

    #[test]
    fn timeout_fires_when_holder_sits() {
        let m = mgr();
        assert_eq!(
            m.acquire(1, 10, PageMode::Exclusive, LONG),
            AcquireResult::Granted
        );
        let r = m.acquire(2, 10, PageMode::Exclusive, Duration::from_millis(30));
        assert_eq!(r, AcquireResult::Timeout);
        // Holder unaffected.
        assert_eq!(m.granted_count(), 1);
        m.release_txn(1);
    }

    #[test]
    fn hammer_counter_with_exclusive_locks() {
        // N threads × K increments on a shared counter guarded by the lock
        // manager: the counter must end exactly N*K — mutual exclusion.
        let m = mgr();
        let counter = Arc::new(AtomicU64::new(0));
        let n_threads = 8u64;
        let k = 50u64;
        let mut handles = Vec::new();
        for t in 0..n_threads {
            let m = m.clone();
            let counter = counter.clone();
            handles.push(thread::spawn(move || {
                for i in 0..k {
                    let txn = t * k + i + 1;
                    assert_eq!(
                        m.acquire(txn, 1, PageMode::Exclusive, LONG),
                        AcquireResult::Granted
                    );
                    let v = counter.load(Ordering::Relaxed);
                    // Non-atomic read-modify-write, protected only by the
                    // lock manager.
                    std::hint::black_box(&v);
                    counter.store(v + 1, Ordering::Relaxed);
                    m.release_txn(txn);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), n_threads * k);
        m.check_invariants().unwrap();
    }

    #[test]
    fn stripes_do_not_share_a_mutex() {
        // With one holder camped on each of many resources, every stripe's
        // grant is visible through the summed accessors.
        let m = mgr();
        assert!(m.stripe_count() > 1);
        for r in 0..64u32 {
            assert_eq!(
                m.acquire(u64::from(r) + 1, r, PageMode::Exclusive, LONG),
                AcquireResult::Granted
            );
        }
        assert_eq!(m.granted_count(), 64);
        assert_eq!(m.stats().requests, 64);
        for r in 0..64u64 {
            m.release_txn(r + 1);
        }
        assert_eq!(m.granted_count(), 0);
        m.check_invariants().unwrap();
    }

    #[test]
    fn readers_proceed_in_parallel() {
        let m = mgr();
        assert_eq!(
            m.acquire(1, 10, PageMode::Shared, LONG),
            AcquireResult::Granted
        );
        assert_eq!(
            m.acquire(2, 10, PageMode::Shared, LONG),
            AcquireResult::Granted
        );
        assert_eq!(m.granted_count(), 2);
        m.release_txn(1);
        m.release_txn(2);
    }
}
