//! The sans-blocking lock table.
//!
//! Requests either succeed immediately or join a FIFO queue; nothing ever
//! parks a thread in here. Drivers decide what "waiting" means: the
//! deterministic simulator re-schedules the actor, the blocking wrapper
//! parks on a condvar.
//!
//! Fairness: a request joins the queue if it conflicts with the granted set
//! *or* if anyone is already queued (no barging), except that re-entrant
//! requests and in-place upgrades by a sole holder are always served.
//!
//! Deadlocks are detected on demand from the wait-for graph; victims are the
//! youngest transaction (largest id) on each cycle, matching the common
//! "restart the cheapest" heuristic and keeping tests deterministic.

use crate::modes::LockMode;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt::Debug;
use std::hash::Hash;

/// Outcome of a lock request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockOutcome {
    /// The lock is held (possibly it already was).
    Granted,
    /// The request joined the wait queue.
    Queued,
}

/// Accounting counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockStats {
    /// Total requests.
    pub requests: u64,
    /// Requests that had to queue.
    pub waits: u64,
    /// Deadlock victims chosen.
    pub victims: u64,
}

#[derive(Debug)]
struct ResourceState<T, M> {
    /// One entry per holder; a holder's mode is the `combine` of everything
    /// it acquired on this resource.
    granted: Vec<(T, M)>,
    /// FIFO wait queue.
    queue: VecDeque<(T, M)>,
}

impl<T, M> Default for ResourceState<T, M> {
    fn default() -> Self {
        ResourceState {
            granted: Vec::new(),
            queue: VecDeque::new(),
        }
    }
}

/// A lock table over resources `R`, owners `T` and modes `M`. It keeps no
/// per-owner index: a holder remembers what it was granted and releases
/// exactly that ([`LockTable::release`]); [`LockTable::release_all`] is the
/// sweep for a holder whose memory is lost.
#[derive(Debug)]
pub struct LockTable<R, T, M> {
    resources: HashMap<R, ResourceState<T, M>>,
    stats: LockStats,
}

impl<R, T, M> Default for LockTable<R, T, M>
where
    R: Copy + Eq + Hash + Debug,
    T: Copy + Eq + Ord + Hash + Debug,
    M: LockMode,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<R, T, M> LockTable<R, T, M>
where
    R: Copy + Eq + Hash + Debug,
    T: Copy + Eq + Ord + Hash + Debug,
    M: LockMode,
{
    /// An empty table.
    pub fn new() -> Self {
        LockTable {
            resources: HashMap::new(),
            stats: LockStats::default(),
        }
    }

    /// Request `mode` on `resource` for `txn`.
    pub fn request(&mut self, txn: T, resource: R, mode: M) -> LockOutcome {
        self.stats.requests += 1;
        let state = self.resources.entry(resource).or_default();

        if let Some(pos) = state.granted.iter().position(|(t, _)| *t == txn) {
            let current = state.granted[pos].1;
            let wanted = current.combine(mode);
            if wanted == current {
                // Re-entrant: already covered.
                return LockOutcome::Granted;
            }
            // Upgrade: allowed in place iff compatible with every *other*
            // holder. Upgrades do not respect the queue — queued requests
            // conflict with our existing grant anyway, so serving them first
            // would deadlock immediately.
            let ok = state
                .granted
                .iter()
                .all(|(t, m)| *t == txn || wanted.compatible(*m));
            if ok {
                state.granted[pos].1 = wanted;
                return LockOutcome::Granted;
            }
            // Upgrades queue at the *front*: they block everyone behind them
            // anyway, and front placement makes the upgrade deadlock (two
            // S-holders both upgrading) visible to the detector.
            state.queue.push_front((txn, wanted));
            self.stats.waits += 1;
            return LockOutcome::Queued;
        }

        let compatible_with_granted = state.granted.iter().all(|(_, m)| mode.compatible(*m));
        if compatible_with_granted && state.queue.is_empty() {
            state.granted.push((txn, mode));
            return LockOutcome::Granted;
        }
        state.queue.push_back((txn, mode));
        self.stats.waits += 1;
        LockOutcome::Queued
    }

    /// Release `txn`'s grant on `resource` (a no-op when it holds none).
    /// Returns the transactions newly granted as a result.
    pub fn release(&mut self, txn: T, resource: R) -> Vec<T> {
        match self.resources.get_mut(&resource) {
            Some(state) => state.granted.retain(|(t, _)| *t != txn),
            None => return Vec::new(),
        }
        self.promote(resource)
    }

    /// Release everything `txn` holds and cancel any wait it has queued, by
    /// sweeping the whole table. Returns the transactions newly granted as
    /// a result.
    pub fn release_all(&mut self, txn: T) -> Vec<T> {
        self.purge(txn, true)
    }

    /// Cancel `txn`'s queued requests without touching its grants (a
    /// deadlock victim or timed-out waiter keeps its locks until rollback
    /// has finished — strict 2PL). Returns transactions newly granted
    /// because the cancelled entry was blocking them.
    pub(crate) fn cancel_waits(&mut self, txn: T) -> Vec<T> {
        self.purge(txn, false)
    }

    /// Drop `txn`'s queued requests — and its grants, when `grants` — on
    /// every resource, then promote where anything went.
    fn purge(&mut self, txn: T, grants: bool) -> Vec<T> {
        // Every stale queue entry goes before anyone is promoted: promotion
        // could otherwise hand a freed resource straight back to the dead
        // transaction's own request.
        let touched: Vec<R> = self
            .resources
            .iter_mut()
            .filter_map(|(r, s)| {
                let before = s.granted.len() + s.queue.len();
                s.queue.retain(|(t, _)| *t != txn);
                if grants {
                    s.granted.retain(|(t, _)| *t != txn);
                }
                (s.granted.len() + s.queue.len() != before).then_some(*r)
            })
            .collect();
        let mut woken: Vec<T> = touched.into_iter().flat_map(|r| self.promote(r)).collect();
        woken.sort();
        woken.dedup();
        woken
    }

    /// Grant queued requests from the front while they fit.
    fn promote(&mut self, resource: R) -> Vec<T> {
        let mut woken = Vec::new();
        let Some(state) = self.resources.get_mut(&resource) else {
            return woken;
        };
        while let Some(&(txn, mode)) = state.queue.front() {
            // For an upgrade, ignore the requester's own existing grant.
            let ok = state
                .granted
                .iter()
                .all(|(t, m)| *t == txn || mode.compatible(*m));
            if !ok {
                break;
            }
            state.queue.pop_front();
            if let Some(pos) = state.granted.iter().position(|(t, _)| *t == txn) {
                state.granted[pos].1 = state.granted[pos].1.combine(mode);
            } else {
                state.granted.push((txn, mode));
            }
            woken.push(txn);
        }
        if state.granted.is_empty() && state.queue.is_empty() {
            self.resources.remove(&resource);
        }
        woken
    }

    /// The mode `txn` holds on `resource`, if any.
    pub(crate) fn held_mode(&self, txn: T, resource: R) -> Option<M> {
        self.resources
            .get(&resource)
            .and_then(|s| s.granted.iter().find(|(t, _)| *t == txn).map(|(_, m)| *m))
    }

    /// Number of distinct locks currently granted.
    pub fn granted_count(&self) -> usize {
        self.resources.values().map(|s| s.granted.len()).sum()
    }

    /// Build the wait-for graph: an edge `a -> b` when `a`'s queued request
    /// conflicts with `b`'s grant, or `a` is queued behind `b`'s conflicting
    /// queued request (FIFO order is a real dependency).
    pub fn wait_for_edges(&self) -> Vec<(T, T)> {
        let mut edges = Vec::new();
        for state in self.resources.values() {
            for (i, &(waiter, wmode)) in state.queue.iter().enumerate() {
                for &(holder, hmode) in &state.granted {
                    if holder != waiter && !wmode.compatible(hmode) {
                        edges.push((waiter, holder));
                    }
                }
                for &(ahead, amode) in state.queue.iter().take(i) {
                    if ahead != waiter && !wmode.compatible(amode) {
                        edges.push((waiter, ahead));
                    }
                }
            }
        }
        edges.sort();
        edges.dedup();
        edges
    }

    /// Accounting so far.
    pub fn stats(&self) -> LockStats {
        self.stats
    }

    /// Invariant check used by property tests: no two holders of a resource
    /// have incompatible modes.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (r, state) in &self.resources {
            for (i, &(t1, m1)) in state.granted.iter().enumerate() {
                for &(t2, m2) in state.granted.iter().skip(i + 1) {
                    if t1 != t2 && !m1.compatible(m2) {
                        return Err(format!(
                            "incompatible grants on {r:?}: {t1:?}:{m1:?} vs {t2:?}:{m2:?}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Pick one victim per cycle (the youngest, i.e. largest id) from a
/// wait-for edge list — one table's [`LockTable::wait_for_edges`], or the
/// striped blocking manager's **merged** snapshot of all its tables' edges
/// (a cycle can span stripes). The caller must abort the victims.
pub fn victims_from_edges<T>(edges: &[(T, T)]) -> Vec<T>
where
    T: Copy + Eq + Ord + Hash,
{
    let mut adj: HashMap<T, Vec<T>> = HashMap::new();
    for (a, b) in edges {
        adj.entry(*a).or_default().push(*b);
    }
    // Iterative DFS with colouring; collect one victim per cycle found,
    // then conceptually remove it and keep scanning (a single pass is
    // enough for the small graphs the engines produce; callers re-run
    // detection after aborting victims anyway).
    let mut victims: HashSet<T> = HashSet::new();
    let mut colour: HashMap<T, u8> = HashMap::new(); // 1 = on stack, 2 = done
    let nodes: Vec<T> = {
        let mut n: Vec<T> = adj.keys().copied().collect();
        n.sort();
        n
    };
    for start in nodes {
        if colour.get(&start).copied().unwrap_or(0) != 0 {
            continue;
        }
        // stack of (node, next child index)
        let mut stack: Vec<(T, usize)> = vec![(start, 0)];
        colour.insert(start, 1);
        while let Some(&mut (node, ref mut idx)) = stack.last_mut() {
            let children = adj.get(&node).cloned().unwrap_or_default();
            if *idx >= children.len() {
                colour.insert(node, 2);
                stack.pop();
                continue;
            }
            let child = children[*idx];
            *idx += 1;
            if victims.contains(&child) {
                continue; // already scheduled for abort; edge is moot
            }
            match colour.get(&child).copied().unwrap_or(0) {
                0 => {
                    colour.insert(child, 1);
                    stack.push((child, 0));
                }
                1 => {
                    // Found a cycle: everything on the stack from child
                    // to the top participates.
                    let cycle_start = stack
                        .iter()
                        .position(|(n, _)| *n == child)
                        .expect("on-stack node must be in stack");
                    let victim = stack[cycle_start..]
                        .iter()
                        .map(|(n, _)| *n)
                        .max()
                        .expect("cycle is non-empty");
                    victims.insert(victim);
                }
                _ => {}
            }
        }
    }
    let mut out: Vec<T> = victims.into_iter().collect();
    out.sort();
    out
}

#[cfg(test)]
impl<R, T, M> LockTable<R, T, M>
where
    R: Copy + Eq + Hash + Debug,
    T: Copy + Eq + Ord + Hash + Debug,
    M: LockMode,
{
    /// Whether `txn` currently holds a lock on `resource`.
    pub(crate) fn holds(&self, txn: T, resource: R) -> bool {
        self.held_mode(txn, resource).is_some()
    }

    /// Whether `txn` is queued anywhere.
    pub(crate) fn is_waiting(&self, txn: T) -> bool {
        self.resources
            .values()
            .any(|s| s.queue.iter().any(|(t, _)| *t == txn))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modes::{PageMode, SemanticMode};

    type T = LockTable<u32, u64, PageMode>;

    #[test]
    fn shared_locks_coexist() {
        let mut t = T::new();
        assert_eq!(t.request(1, 10, PageMode::Shared), LockOutcome::Granted);
        assert_eq!(t.request(2, 10, PageMode::Shared), LockOutcome::Granted);
        assert!(t.holds(1, 10) && t.holds(2, 10));
        t.check_invariants().unwrap();
    }

    #[test]
    fn exclusive_conflicts_queue_fifo() {
        let mut t = T::new();
        assert_eq!(t.request(1, 10, PageMode::Exclusive), LockOutcome::Granted);
        assert_eq!(t.request(2, 10, PageMode::Shared), LockOutcome::Queued);
        assert_eq!(t.request(3, 10, PageMode::Shared), LockOutcome::Queued);
        let woken = t.release_all(1);
        assert_eq!(woken, vec![2, 3], "both shared waiters wake together");
        assert!(t.holds(2, 10) && t.holds(3, 10));
    }

    #[test]
    fn no_barging_past_queue() {
        let mut t = T::new();
        t.request(1, 10, PageMode::Shared);
        t.request(2, 10, PageMode::Exclusive); // queued
                                               // A shared request would be compatible with the grant but must not
                                               // overtake the queued X.
        assert_eq!(t.request(3, 10, PageMode::Shared), LockOutcome::Queued);
        let woken = t.release_all(1);
        assert_eq!(woken, vec![2], "X goes first");
        assert!(!t.holds(3, 10));
        let woken = t.release_all(2);
        assert_eq!(woken, vec![3]);
    }

    #[test]
    fn reentrant_requests_are_free() {
        let mut t = T::new();
        t.request(1, 10, PageMode::Shared);
        assert_eq!(t.request(1, 10, PageMode::Shared), LockOutcome::Granted);
        assert_eq!(t.granted_count(), 1);
    }

    #[test]
    fn sole_holder_upgrades_in_place() {
        let mut t = T::new();
        t.request(1, 10, PageMode::Shared);
        assert_eq!(t.request(1, 10, PageMode::Exclusive), LockOutcome::Granted);
        assert_eq!(t.held_mode(1, 10), Some(PageMode::Exclusive));
        assert_eq!(t.stats().waits, 0);
    }

    #[test]
    fn contended_upgrade_waits_then_wins() {
        let mut t = T::new();
        t.request(1, 10, PageMode::Shared);
        t.request(2, 10, PageMode::Shared);
        assert_eq!(t.request(1, 10, PageMode::Exclusive), LockOutcome::Queued);
        let woken = t.release_all(2);
        assert_eq!(woken, vec![1]);
        assert_eq!(t.held_mode(1, 10), Some(PageMode::Exclusive));
    }

    #[test]
    fn upgrade_deadlock_is_detected() {
        let mut t = T::new();
        t.request(1, 10, PageMode::Shared);
        t.request(2, 10, PageMode::Shared);
        t.request(1, 10, PageMode::Exclusive); // waits on 2
        t.request(2, 10, PageMode::Exclusive); // waits on 1 -> cycle
        let victims = victims_from_edges(&t.wait_for_edges());
        assert_eq!(victims, vec![2], "youngest transaction dies");
        let woken = t.release_all(2);
        assert_eq!(woken, vec![1]);
        assert_eq!(t.held_mode(1, 10), Some(PageMode::Exclusive));
    }

    #[test]
    fn classic_two_resource_deadlock() {
        let mut t = T::new();
        t.request(1, 10, PageMode::Exclusive);
        t.request(2, 20, PageMode::Exclusive);
        t.request(1, 20, PageMode::Exclusive); // 1 waits on 2
        t.request(2, 10, PageMode::Exclusive); // 2 waits on 1
        assert_eq!(victims_from_edges(&t.wait_for_edges()), vec![2]);
    }

    #[test]
    fn no_false_deadlocks_on_chains() {
        let mut t = T::new();
        t.request(1, 10, PageMode::Exclusive);
        t.request(2, 10, PageMode::Exclusive);
        t.request(3, 10, PageMode::Exclusive);
        assert!(victims_from_edges(&t.wait_for_edges()).is_empty());
    }

    #[test]
    fn queue_order_dependency_detected() {
        // 1 holds S; 2 queues X; 3 queues S behind 2. 3 waits-for 2.
        let mut t = T::new();
        t.request(1, 10, PageMode::Shared);
        t.request(2, 10, PageMode::Exclusive);
        t.request(3, 10, PageMode::Shared);
        let edges = t.wait_for_edges();
        assert!(edges.contains(&(2, 1)));
        assert!(edges.contains(&(3, 2)));
        assert!(!edges.contains(&(3, 1)), "S does not conflict with S");
    }

    #[test]
    fn release_frees_one_grant_and_promotes_its_waiters() {
        let mut t = T::new();
        t.request(1, 10, PageMode::Exclusive);
        t.request(1, 20, PageMode::Exclusive);
        t.request(2, 10, PageMode::Shared);
        t.request(3, 10, PageMode::Shared);
        assert_eq!(t.release(1, 10), vec![2, 3]);
        assert!(t.holds(1, 20) && t.holds(2, 10) && t.holds(3, 10));
        assert!(t.release(1, 30).is_empty(), "nothing held, nothing moves");
        assert!(t.release(1, 20).is_empty());
        assert_eq!(t.granted_count(), 2);
        t.release(2, 10);
        t.release(3, 10);
        assert_eq!(t.resources.len(), 0);
    }

    #[test]
    fn release_all_cancels_waits() {
        let mut t = T::new();
        t.request(1, 10, PageMode::Exclusive);
        t.request(2, 10, PageMode::Exclusive);
        assert!(t.is_waiting(2));
        t.release_all(2); // victim aborted while waiting
        assert!(!t.is_waiting(2));
        assert!(t.holds(1, 10));
    }

    #[test]
    fn increment_mode_interleaves_fig8() {
        let mut t: LockTable<u64, u64, SemanticMode> = LockTable::new();
        // Fig. 8: T1 and T2 both increment x (object 1) — no waiting.
        assert_eq!(
            t.request(1, 1, SemanticMode::Increment),
            LockOutcome::Granted
        );
        assert_eq!(
            t.request(2, 1, SemanticMode::Increment),
            LockOutcome::Granted
        );
        // ... but a reader must wait for both.
        assert_eq!(t.request(3, 1, SemanticMode::Read), LockOutcome::Queued);
        t.release_all(1);
        assert!(!t.holds(3, 1));
        let woken = t.release_all(2);
        assert_eq!(woken, vec![3]);
    }

    #[test]
    fn stats_track_activity() {
        let mut t = T::new();
        t.request(1, 10, PageMode::Shared);
        t.request(2, 10, PageMode::Exclusive);
        let s = t.stats();
        assert_eq!(s.requests, 2);
        assert_eq!(s.waits, 1);
    }

    #[test]
    fn empty_resource_entries_are_cleaned_up() {
        let mut t = T::new();
        t.request(1, 10, PageMode::Exclusive);
        t.release_all(1);
        assert_eq!(t.resources.len(), 0);
    }
}
