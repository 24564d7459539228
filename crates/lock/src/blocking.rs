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
//! A holder [`BlockingLockManager::release`]s what it was granted: one lock
//! per stripe it used, and no other mutex while nobody is doomed.
//!
//! Lock ordering: a stripe mutex may be taken while holding nothing, or in
//! ascending index order (merged detection); the doomed set is a leaf under
//! one stripe or all of them. Nothing takes a stripe while holding `doomed`.

use crate::modes::LockMode;
use crate::table::{victims_from_edges, LockOutcome, LockStats, LockTable};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::HashSet;
use std::fmt::Debug;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
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

/// Stripe count — plenty for the worker-thread counts E9 sweeps.
const STRIPES: usize = 16;

struct Stripe<R, T, M> {
    table: Mutex<LockTable<R, T, M>>,
    cv: Condvar,
}

/// The stripe hash: `PageStore::bucket_page`'s multiplicative scramble
/// folded over the key's integer words, where SipHash would build a keyed
/// state per grant and per release. A key crafted to collide costs
/// sharing a stripe, nothing worse; the tables keep SipHash.
#[derive(Default)]
struct Scramble(u64);

impl Hasher for Scramble {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|b| self.write_u64(u64::from(*b)));
    }
    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Thread-safe, blocking, striped lock manager.
pub struct BlockingLockManager<R, T, M> {
    stripes: Vec<Stripe<R, T, M>>,
    /// Deadlock victims not yet aborted; global because a victim may be
    /// parked on any stripe.
    doomed: Mutex<HashSet<T>>,
    /// `doomed.len()`, read without the mutex: zero means nobody is doomed.
    doomed_len: AtomicUsize,
    /// Victims chosen by the merged detector.
    victims: AtomicU64,
    /// How often parked waiters re-check for deadlock.
    check_interval: Duration,
    /// Stripe mutex acquisitions so far.
    #[cfg(test)]
    taken: AtomicUsize,
}

impl<R, T, M> BlockingLockManager<R, T, M>
where
    R: Copy + Eq + Hash + Debug,
    T: Copy + Eq + Ord + Hash + Debug,
    M: LockMode,
{
    /// A manager whose parked waiters re-run deadlock detection every
    /// `check_interval`.
    pub fn new(check_interval: Duration) -> Self {
        BlockingLockManager {
            stripes: (0..STRIPES)
                .map(|_| Stripe {
                    table: Mutex::new(LockTable::new()),
                    cv: Condvar::new(),
                })
                .collect(),
            doomed: Mutex::new(HashSet::new()),
            doomed_len: AtomicUsize::new(0),
            victims: AtomicU64::new(0),
            check_interval,
            #[cfg(test)]
            taken: Default::default(),
        }
    }

    fn stripe_index(&self, resource: &R) -> usize {
        let mut h = Scramble::default();
        resource.hash(&mut h);
        (h.finish() % STRIPES as u64) as usize
    }

    fn lock_table<'a>(&self, stripe: &'a Stripe<R, T, M>) -> MutexGuard<'a, LockTable<R, T, M>> {
        #[cfg(test)]
        self.taken.fetch_add(1, Ordering::Relaxed);
        stripe.table.lock()
    }

    fn is_doomed(&self, txn: T) -> bool {
        self.doomed_len.load(Ordering::SeqCst) != 0 && self.doomed.lock().contains(&txn)
    }

    /// `txn` is gone: it stops being a victim.
    fn forget_doomed(&self, txn: T) {
        if self.doomed_len.load(Ordering::SeqCst) != 0 {
            let mut doomed = self.doomed.lock();
            doomed.remove(&txn);
            self.doomed_len.store(doomed.len(), Ordering::SeqCst);
        }
    }

    /// Whether `txn`'s grant on `resource` covers `mode` (the promoted mode
    /// covers the request iff combining changes nothing).
    fn covered(table: &LockTable<R, T, M>, txn: T, resource: R, mode: M) -> bool {
        table
            .held_mode(txn, resource)
            .is_some_and(|held| held.combine(mode) == held)
    }

    /// Acquire `mode` on `resource` for `txn`, blocking up to `timeout` (a
    /// zero timeout never blocks).
    ///
    /// On `Deadlock`/`Timeout` the queued request is cancelled; locks the
    /// transaction already holds stay held until [`Self::release`] — the
    /// engine's abort path releases them after rollback, preserving strict
    /// 2PL.
    pub fn acquire(&self, txn: T, resource: R, mode: M, timeout: Duration) -> AcquireResult {
        let start = Instant::now();
        let stripe = &self.stripes[self.stripe_index(&resource)];
        let mut table = self.lock_table(stripe);
        if self.is_doomed(txn) {
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
            // Look again; then once more after merged detection, which needs
            // every stripe (ours is let go first so the ascending-order sweep
            // never deadlocks with another detector). A grant made before the
            // doom is seen stands: the caller owns it, its release clears both.
            for detect in [false, true] {
                if detect {
                    drop(table);
                    self.detect_and_doom();
                    table = self.lock_table(stripe);
                }
                if Self::covered(&table, txn, resource, mode) {
                    return AcquireResult::Granted;
                }
                if self.is_doomed(txn) {
                    Self::cancel_wait(stripe, &mut table, txn);
                    return AcquireResult::Deadlock;
                }
            }
        }
    }

    /// Run deadlock detection over the merged wait-for snapshot and doom
    /// every victim. Caller must hold **no** stripe lock.
    fn detect_and_doom(&self) {
        let guards: Vec<MutexGuard<'_, LockTable<R, T, M>>> =
            self.stripes.iter().map(|s| self.lock_table(s)).collect();
        let edges: Vec<(T, T)> = guards.iter().flat_map(|g| g.wait_for_edges()).collect();
        let victims = victims_from_edges(&edges);
        if victims.is_empty() {
            return;
        }
        // Doom while the snapshot holds, so each victim is still parked and
        // its release clears the mark; a mark set later may outlive a victim
        // already released, and put every later grant on the doomed mutex.
        let mut doomed = self.doomed.lock();
        doomed.extend(&victims);
        self.doomed_len.store(doomed.len(), Ordering::SeqCst);
        drop((doomed, guards));
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

    /// Release `txn`'s grants on `held` — what it was granted (commit or
    /// post-rollback abort). Each distinct stripe of `held` is locked once,
    /// and only its waiters are woken. `txn` must have no queued request:
    /// [`Self::acquire`] cancels its own on every exit but a grant.
    pub fn release(&self, txn: T, held: &[R]) {
        self.forget_doomed(txn);
        for (i, first) in held.iter().enumerate() {
            let s = self.stripe_index(first);
            if held[..i].iter().any(|r| self.stripe_index(r) == s) {
                continue; // visited with the first resource on this stripe
            }
            let stripe = &self.stripes[s];
            let mut table = self.lock_table(stripe);
            let mut woken = false;
            for r in held[i..].iter().filter(|r| self.stripe_index(r) == s) {
                woken |= !table.release(txn, *r).is_empty();
            }
            drop(table);
            if woken {
                stripe.cv.notify_all();
            }
        }
    }

    /// Release every lock `txn` holds and purge its queued requests by
    /// sweeping every stripe — for a holder whose list of grants is lost
    /// (a crash), possibly while one of its requests was parked.
    pub fn release_txn(&self, txn: T) {
        self.forget_doomed(txn);
        for stripe in &self.stripes {
            let woken = self.lock_table(stripe).release_all(txn);
            if !woken.is_empty() {
                stripe.cv.notify_all();
            }
        }
    }

    /// Counters summed across stripes (victims come from the merged
    /// detector: the stripes never run their own).
    pub fn stats(&self) -> LockStats {
        let mut total = LockStats::default();
        for stripe in &self.stripes {
            let s = stripe.table.lock().stats();
            total.requests += s.requests;
            total.waits += s.waits;
        }
        total.victims += self.victims.load(Ordering::Relaxed);
        total
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

    /// Stripe mutex acquisitions so far.
    fn taken(m: &BlockingLockManager<u32, u64, PageMode>) -> usize {
        m.taken.load(Ordering::Relaxed)
    }

    /// Nothing granted and `txns` queued nowhere.
    fn drained(m: &BlockingLockManager<u32, u64, PageMode>, txns: &[u64]) -> bool {
        let waiting = |t: &u64| m.stripes.iter().any(|s| s.table.lock().is_waiting(*t));
        m.granted_count() == 0 && !txns.iter().any(waiting)
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
        m.release(1, &[10]);
        assert_eq!(h.join().unwrap(), AcquireResult::Granted);
        m.release(2, &[10]);
        assert!(drained(&m, &[1, 2]));
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
        // The victim rolls back and gives back what it held; the survivor
        // then holds both.
        let ma = m.clone();
        let a = thread::spawn(move || {
            let r = ma.acquire(1, 20, PageMode::Exclusive, LONG);
            if r != AcquireResult::Granted {
                ma.release(1, &[10]);
            }
            r
        });
        let mb = m.clone();
        let b = thread::spawn(move || {
            let r = mb.acquire(2, 10, PageMode::Exclusive, LONG);
            if r != AcquireResult::Granted {
                mb.release(2, &[20]);
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
        m.release(1, &[10, 20]);
        m.release(2, &[10, 20]);
        assert!(drained(&m, &[1, 2]));
        assert_eq!(
            m.doomed_len.load(Ordering::SeqCst),
            0,
            "the victim is forgotten"
        );
    }

    #[test]
    fn a_grant_made_before_the_doom_is_seen_stands() {
        let m = mgr();
        assert_eq!(
            m.acquire(1, 10, PageMode::Exclusive, LONG),
            AcquireResult::Granted
        );
        let m2 = m.clone();
        let parked = thread::spawn(move || m2.acquire(2, 10, PageMode::Exclusive, LONG));
        let stripe = &m.stripes[m.stripe_index(&10)];
        while !stripe.table.lock().is_waiting(2) {
            thread::yield_now();
        }
        {
            // Doomed and promoted in one step, before the waiter looks: it
            // must own the grant it reports, or nobody releases it.
            let mut table = stripe.table.lock();
            m.doomed.lock().insert(2);
            m.doomed_len.store(1, Ordering::SeqCst);
            assert_eq!(table.release(1, 10), vec![2]);
        }
        stripe.cv.notify_all();
        assert_eq!(parked.join().unwrap(), AcquireResult::Granted);
        // Still a victim at its next request; its release clears the mark.
        assert_eq!(
            m.acquire(2, 20, PageMode::Exclusive, LONG),
            AcquireResult::Deadlock
        );
        m.release(2, &[10, 20]);
        assert!(drained(&m, &[1, 2]));
        assert_eq!(m.doomed_len.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn racing_detectors_leave_no_mark_behind() {
        // Four clients cross two resources in opposite orders: every parked
        // one runs detection, so detectors race each other and the releases
        // of the victims they pick. A mark that outlived its victim would
        // keep every later grant on the doomed mutex.
        let m = mgr();
        let next = Arc::new(AtomicU64::new(1));
        let clients: Vec<_> = (0..4)
            .map(|k| {
                let (m, next) = (m.clone(), next.clone());
                thread::spawn(move || {
                    let order = if k % 2 == 0 { [10, 20] } else { [20, 10] };
                    for _ in 0..100 {
                        let txn = next.fetch_add(1, Ordering::Relaxed);
                        let mut held = Vec::new();
                        for r in order {
                            held.push(r);
                            if m.acquire(txn, r, PageMode::Exclusive, LONG)
                                != AcquireResult::Granted
                            {
                                break;
                            }
                            // Hold it long enough for the others to cross.
                            thread::sleep(Duration::from_micros(100));
                        }
                        m.release(txn, &held);
                    }
                })
            })
            .collect();
        for c in clients {
            c.join().unwrap();
        }
        assert!(m.stats().victims > 0, "no deadlock was resolved");
        assert!(drained(&m, &[]));
        assert_eq!(m.doomed_len.load(Ordering::SeqCst), 0);
        assert!(m.doomed.lock().is_empty());
    }

    #[test]
    fn cross_stripe_deadlock_is_detected() {
        // Force the two resources onto *different* stripes, so the cycle is
        // invisible to any single stripe's table and only the merged
        // snapshot can see it.
        let m = mgr();
        let r1 = 1u32;
        let r2 = (2..1000u32)
            .find(|r| m.stripe_index(r) != m.stripe_index(&r1))
            .expect("sixteen stripes");
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
        // Holder unaffected; the timed-out waiter held nothing.
        assert_eq!(m.granted_count(), 1);
        m.release(2, &[]);
        m.release(1, &[10]);
        assert!(drained(&m, &[1, 2]));
    }

    #[test]
    fn release_locks_each_held_stripe_once() {
        let m = mgr();
        let held: Vec<u32> = (0..40).collect();
        for r in &held {
            assert_eq!(
                m.acquire(1, *r, PageMode::Shared, LONG),
                AcquireResult::Granted
            );
        }
        let mut stripes: Vec<usize> = held.iter().map(|r| m.stripe_index(r)).collect();
        stripes.sort();
        stripes.dedup();
        assert!(stripes.len() > 1 && stripes.len() < held.len());
        // Repeats in the list cost nothing extra.
        let before = taken(&m);
        m.release(1, &[held.as_slice(), &held[..3]].concat());
        assert_eq!(taken(&m) - before, stripes.len(), "one lock per stripe");
        assert!(drained(&m, &[1]));
        // A transaction on one stripe takes one stripe mutex, not all.
        assert_eq!(
            m.acquire(2, 7, PageMode::Shared, LONG),
            AcquireResult::Granted
        );
        let before = taken(&m);
        m.release(2, &[7]);
        assert_eq!(taken(&m) - before, 1);
    }

    #[test]
    fn grant_and_release_with_nobody_doomed_take_only_their_stripe() {
        let m = mgr();
        // Whoever touches the doomed set now blocks until the guard goes.
        let doomed = m.doomed.lock();
        let (done, finished) = std::sync::mpsc::channel();
        let m2 = m.clone();
        thread::spawn(move || {
            let before = taken(&m2);
            let granted = m2.acquire(1, 10, PageMode::Exclusive, LONG);
            m2.release(1, &[10]);
            done.send((granted, taken(&m2) - before)).unwrap();
        });
        let grant_and_release = finished.recv_timeout(LONG);
        drop(doomed);
        assert_eq!(grant_and_release, Ok((AcquireResult::Granted, 2)));
        // A doomed transaction is refused at its next request, and its
        // release forgets it.
        m.doomed.lock().insert(99);
        m.doomed_len.store(1, Ordering::SeqCst);
        assert_eq!(
            m.acquire(99, 12, PageMode::Shared, LONG),
            AcquireResult::Deadlock
        );
        m.release(99, &[]);
        assert_eq!(m.doomed_len.load(Ordering::SeqCst), 0);
        assert!(drained(&m, &[1, 99]));
    }

    #[test]
    fn crash_sweep_purges_a_parked_upgrade_before_promoting() {
        // 1 and 2 share 10; 2 parks on an upgrade. Its site crashes: the
        // sweep must drop 2's queued upgrade along with its grant, or the
        // freed resource is promoted straight to the dead request.
        let m = mgr();
        for t in [1, 2] {
            assert_eq!(
                m.acquire(t, 10, PageMode::Shared, LONG),
                AcquireResult::Granted
            );
        }
        let m2 = m.clone();
        let parked = thread::spawn(move || {
            m2.acquire(2, 10, PageMode::Exclusive, Duration::from_millis(200))
        });
        while !m.stripes[m.stripe_index(&10)].table.lock().is_waiting(2) {
            thread::yield_now();
        }
        m.release_txn(2);
        assert_eq!(m.granted_count(), 1, "only 1's shared grant is left");
        m.release_txn(1);
        assert_eq!(parked.join().unwrap(), AcquireResult::Timeout);
        assert!(drained(&m, &[1, 2]));
        m.check_invariants().unwrap();
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
                    m.release(txn, &[1]);
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
