//! The event queue: a virtual clock plus a priority queue of opaque events.
//!
//! Total order is `(time, sequence)` — two events scheduled for the same
//! instant fire in scheduling order, which is what makes whole simulations
//! bit-for-bit reproducible.

use amc_types::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A deterministic discrete-event queue.
#[derive(Debug)]
pub struct EventQueue<E> {
    now: SimTime,
    seq: u64,
    heap: BinaryHeap<Reverse<Entry<E>>>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            now: SimTime::ZERO,
            seq: 0,
            heap: BinaryHeap::new(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Pending event count.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `event` at absolute time `at`. Scheduling into the past is a
    /// bug in the driver; it is clamped to *now* so the queue stays
    /// monotone, and flagged in debug builds.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry { at, seq, event }));
    }

    /// Schedule `event` after a delay from now.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(entry) = self.heap.pop()?;
        self.now = entry.at;
        Some((entry.at, entry.event))
    }
}

#[cfg(test)]
impl<E> EventQueue<E> {
    /// Peek at the next event's timestamp without advancing.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(30), "c");
        q.schedule_at(SimTime(10), "a");
        q.schedule_at(SimTime(20), "b");
        assert_eq!(q.pop(), Some((SimTime(10), "a")));
        assert_eq!(q.pop(), Some((SimTime(20), "b")));
        assert_eq!(q.now(), SimTime(20));
        assert_eq!(q.pop(), Some((SimTime(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_in_scheduling_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(SimTime(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn schedule_after_uses_current_time() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(100), "x");
        q.pop();
        q.schedule_after(SimDuration(50), "y");
        assert_eq!(q.pop(), Some((SimTime(150), "y")));
    }

    #[test]
    fn clock_is_monotone_even_with_past_schedule() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(100), "x");
        q.pop();
        // Bug in driver: schedules at t=10 < now=100. Release builds clamp.
        if cfg!(debug_assertions) {
            // In debug, this is a panic (caught here to keep the test one
            // binary); skip the clamp check.
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                q.schedule_at(SimTime(10), "late");
            }));
            assert!(r.is_err());
        } else {
            q.schedule_at(SimTime(10), "late");
            let (t, _) = q.pop().unwrap();
            assert_eq!(t, SimTime(100));
        }
    }

    proptest! {
        /// Pops come out sorted by time, and equal-time events preserve
        /// scheduling order (the determinism contract).
        #[test]
        fn pops_are_time_ordered_and_stable(times in proptest::collection::vec(0u64..50, 1..100)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.schedule_at(SimTime(*t), (SimTime(*t), i));
            }
            let mut last: Option<(SimTime, usize)> = None;
            while let Some((at, (scheduled_at, seq))) = q.pop() {
                prop_assert_eq!(at, scheduled_at);
                if let Some((lt, lseq)) = last {
                    prop_assert!(at >= lt, "time went backwards");
                    if at == lt {
                        prop_assert!(seq > lseq, "equal-time order not FIFO");
                    }
                }
                prop_assert_eq!(q.now(), at);
                last = Some((at, seq));
            }
        }
    }

    #[test]
    fn len_and_is_empty() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule_at(SimTime(1), 1);
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime(1)));
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }
}
