//! The per-run ring-buffered event log, per-transaction timelines, and
//! the histogram statistics derived from them.

use crate::event::{Event, EventKind};
use crate::hist::Histogram;
use amc_types::{GlobalTxnId, GlobalVerdict, SimTime, SiteId};
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fmt::Write as _;

/// Default ring capacity: generous for any single nemesis run (a 30 s
/// horizon with 5 ms retransmission produces a few tens of thousands of
/// events) while bounding memory across a 200-seed sweep.
pub const DEFAULT_EVENT_CAP: usize = 65_536;

/// A bounded, ordered log of [`Event`]s for one run.
///
/// When the ring is full the **oldest** events are evicted (and counted in
/// [`EventLog::evicted`]); sequence numbers keep increasing, so eviction is
/// detectable and the retained suffix remains deterministic per seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventLog {
    cap: usize,
    events: VecDeque<Event>,
    next_seq: u64,
    evicted: u64,
}

impl Default for EventLog {
    fn default() -> Self {
        Self::new(DEFAULT_EVENT_CAP)
    }
}

impl EventLog {
    /// An empty log holding at most `cap` events (`cap` is clamped to ≥ 1).
    pub fn new(cap: usize) -> Self {
        EventLog {
            cap: cap.max(1),
            events: VecDeque::new(),
            next_seq: 0,
            evicted: 0,
        }
    }

    /// Append an event, evicting the oldest if the ring is full.
    pub fn push(&mut self, at: SimTime, txn: Option<GlobalTxnId>, site: SiteId, kind: EventKind) {
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.evicted += 1;
        }
        self.events.push_back(Event {
            seq: self.next_seq,
            at,
            txn,
            site,
            kind,
        });
        self.next_seq += 1;
    }

    /// Events currently retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total events ever pushed (retained + evicted).
    pub fn total_recorded(&self) -> u64 {
        self.next_seq
    }

    /// Events evicted because the ring was full.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The retained events touching one transaction, oldest first.
    pub fn timeline(&self, gtx: GlobalTxnId) -> Vec<&Event> {
        self.events.iter().filter(|e| e.txn == Some(gtx)).collect()
    }

    /// Every message of one transaction that entered the network —
    /// delivered (`MsgSend`) or lost (`MsgDrop`) — as `label:from->to`,
    /// oldest first: the golden-trace form of Figs. 2, 4 and 6.
    pub fn message_labels(&self, gtx: GlobalTxnId) -> Vec<String> {
        let label = |e: &&Event| match &e.kind {
            EventKind::MsgSend { label, from, to }
            | EventKind::MsgDrop {
                label, from, to, ..
            } => Some(format!("{label}:{}->{}", from.raw(), to.raw())),
            _ => None,
        };
        self.timeline(gtx).iter().filter_map(label).collect()
    }

    /// Render one transaction's timeline as text, one event per line.
    /// Empty string when the log holds nothing for that transaction.
    pub fn render_timeline(&self, gtx: GlobalTxnId) -> String {
        let mut out = String::new();
        for e in self.timeline(gtx) {
            let _ = writeln!(out, "{e}");
        }
        out
    }

    /// Render the full log as text (debugging aid).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            let _ = writeln!(out, "{e}");
        }
        out
    }

    /// Derive the histogram statistics the report tables print.
    ///
    /// Latencies pair each transaction's `TxnStart` with its `Done`;
    /// a transaction missing either endpoint simply contributes no sample:
    ///
    /// ```
    /// use amc_obs::{EventKind, EventLog};
    /// use amc_types::{GlobalTxnId, GlobalVerdict, SimTime, SiteId};
    ///
    /// let mut log = EventLog::new(1024);
    /// let (gtx, central) = (GlobalTxnId::new(1), SiteId::new(0));
    /// log.push(SimTime(10), Some(gtx), central, EventKind::TxnStart);
    /// log.push(
    ///     SimTime(260),
    ///     Some(gtx),
    ///     central,
    ///     EventKind::Done { verdict: GlobalVerdict::Commit },
    /// );
    ///
    /// let stats = log.derive();
    /// assert_eq!(stats.commit_latency_us.n(), 1);
    /// assert_eq!(stats.commit_latency_us.max(), Some(250));
    /// ```
    pub fn derive(&self) -> DerivedStats {
        let mut start: BTreeMap<GlobalTxnId, SimTime> = BTreeMap::new();
        let mut done: BTreeMap<GlobalTxnId, (SimTime, GlobalVerdict)> = BTreeMap::new();
        let mut block_open: BTreeMap<(GlobalTxnId, SiteId), SimTime> = BTreeMap::new();
        let mut redo_max: BTreeMap<GlobalTxnId, u64> = BTreeMap::new();
        let mut undo_max: BTreeMap<GlobalTxnId, u64> = BTreeMap::new();
        let mut msgs: BTreeMap<GlobalTxnId, u64> = BTreeMap::new();
        let mut stats = DerivedStats::default();

        for e in &self.events {
            match (&e.kind, e.txn) {
                (EventKind::TxnStart, Some(g)) => {
                    start.entry(g).or_insert(e.at);
                }
                (EventKind::Done { verdict }, Some(g)) => {
                    done.entry(g).or_insert((e.at, *verdict));
                }
                (EventKind::BlockEnter, Some(g)) => {
                    block_open.entry((g, e.site)).or_insert(e.at);
                }
                (EventKind::BlockExit { .. }, Some(g)) => {
                    if let Some(entered) = block_open.remove(&(g, e.site)) {
                        stats
                            .blocking_window_us
                            .record(e.at.since(entered).micros());
                    }
                }
                (EventKind::RedoRun { attempt }, Some(g)) => {
                    let m = redo_max.entry(g).or_insert(0);
                    *m = (*m).max(*attempt);
                }
                (EventKind::UndoRun { attempt }, Some(g)) => {
                    let m = undo_max.entry(g).or_insert(0);
                    *m = (*m).max(*attempt);
                }
                (EventKind::MsgSend { .. }, Some(g)) => {
                    *msgs.entry(g).or_insert(0) += 1;
                }
                _ => {}
            }
        }

        for (g, (at, verdict)) in &done {
            if let Some(s) = start.get(g) {
                let us = at.since(*s).micros();
                stats.resolve_latency_us.record(us);
                if *verdict == GlobalVerdict::Commit {
                    stats.commit_latency_us.record(us);
                }
            }
        }
        for depth in redo_max.values() {
            stats.redo_depth.record(*depth);
        }
        for depth in undo_max.values() {
            stats.undo_depth.record(*depth);
        }
        for n in msgs.values() {
            stats.msgs_per_txn.record(*n);
        }
        stats
    }
}

/// Histogram statistics derived from one [`EventLog`].
///
/// All histograms are empty (never NaN) when the log lacks the relevant
/// events — e.g. `blocking_window_us` is empty for the two portable
/// protocols, which have no in-doubt window.
#[derive(Debug, Clone, Default)]
pub struct DerivedStats {
    /// `TxnStart` → `Done(commit)` per committed transaction, microseconds.
    pub commit_latency_us: Histogram,
    /// `TxnStart` → `Done(any)` per resolved transaction, microseconds.
    pub resolve_latency_us: Histogram,
    /// `BlockEnter` → `BlockExit` per (transaction, site) in-doubt window,
    /// microseconds (2PC only).
    pub blocking_window_us: Histogram,
    /// Deepest `RedoRun` attempt per transaction that redid at all.
    pub redo_depth: Histogram,
    /// Deepest `UndoRun` attempt per transaction that undid at all.
    pub undo_depth: Histogram,
    /// Router `MsgSend` count per transaction.
    pub msgs_per_txn: Histogram,
}

#[cfg(test)]
mod tests {
    use super::*;
    use amc_types::LocalVote;

    fn central() -> SiteId {
        SiteId::new(0)
    }

    #[test]
    fn ring_evicts_oldest_and_keeps_seq_monotonic() {
        let mut log = EventLog::new(3);
        for i in 0..5u64 {
            log.push(SimTime(i), None, central(), EventKind::Restart);
        }
        assert_eq!(log.len(), 3);
        assert_eq!(log.evicted(), 2);
        assert_eq!(log.total_recorded(), 5);
        let seqs: Vec<u64> = log.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn timeline_filters_by_txn() {
        let mut log = EventLog::default();
        let g1 = GlobalTxnId::new(1);
        let g2 = GlobalTxnId::new(2);
        log.push(SimTime(0), Some(g1), central(), EventKind::TxnStart);
        log.push(SimTime(5), Some(g2), central(), EventKind::TxnStart);
        log.push(
            SimTime(9),
            Some(g1),
            central(),
            EventKind::Done {
                verdict: GlobalVerdict::Commit,
            },
        );
        assert_eq!(log.timeline(g1).len(), 2);
        assert_eq!(log.timeline(g2).len(), 1);
        let text = log.render_timeline(g1);
        assert!(text.contains("txn-start"), "{text}");
        assert!(text.contains("done commit"), "{text}");
        assert!(!text.contains("G2"), "{text}");
    }

    #[test]
    fn message_labels_list_sends_and_drops_of_one_txn() {
        let mut log = EventLog::default();
        let (g1, g2, s1) = (GlobalTxnId::new(1), GlobalTxnId::new(2), SiteId::new(1));
        let send = |label, from, to| EventKind::MsgSend { label, from, to };
        log.push(
            SimTime(1),
            Some(g1),
            central(),
            send("prepare", central(), s1),
        );
        log.push(
            SimTime(1),
            Some(g1),
            s1,
            EventKind::MsgDeliver {
                label: "prepare",
                from: central(),
            },
        );
        log.push(
            SimTime(2),
            Some(g1),
            s1,
            EventKind::MsgDrop {
                label: "ready",
                from: s1,
                to: central(),
                cause: crate::event::DropCause::Loss,
            },
        );
        log.push(
            SimTime(3),
            Some(g2),
            central(),
            send("prepare", central(), s1),
        );
        assert_eq!(log.message_labels(g1), ["prepare:0->1", "ready:1->0"]);
        assert_eq!(log.message_labels(g2), ["prepare:0->1"]);
        assert!(log.message_labels(GlobalTxnId::new(9)).is_empty());
    }

    #[test]
    fn derive_computes_latency_blocking_and_depth() {
        let mut log = EventLog::default();
        let g = GlobalTxnId::new(1);
        let s1 = SiteId::new(1);
        log.push(SimTime(100), Some(g), central(), EventKind::TxnStart);
        log.push(
            SimTime(150),
            Some(g),
            central(),
            EventKind::MsgSend {
                label: "submit",
                from: central(),
                to: s1,
            },
        );
        log.push(SimTime(200), Some(g), s1, EventKind::BlockEnter);
        log.push(
            SimTime(210),
            Some(g),
            central(),
            EventKind::Vote {
                from: s1,
                vote: LocalVote::Ready,
            },
        );
        log.push(SimTime(300), Some(g), s1, EventKind::RedoRun { attempt: 1 });
        log.push(SimTime(320), Some(g), s1, EventKind::RedoRun { attempt: 2 });
        log.push(
            SimTime(400),
            Some(g),
            s1,
            EventKind::BlockExit {
                verdict: GlobalVerdict::Commit,
            },
        );
        log.push(
            SimTime(600),
            Some(g),
            central(),
            EventKind::Done {
                verdict: GlobalVerdict::Commit,
            },
        );
        let d = log.derive();
        assert_eq!(d.commit_latency_us.p50(), Some(500));
        assert_eq!(d.resolve_latency_us.n(), 1);
        assert_eq!(d.blocking_window_us.p50(), Some(200));
        assert_eq!(d.redo_depth.max(), Some(2));
        assert!(d.undo_depth.is_empty());
        assert_eq!(d.msgs_per_txn.p50(), Some(1));
    }

    #[test]
    fn aborted_txns_count_in_resolve_but_not_commit_latency() {
        let mut log = EventLog::default();
        let g = GlobalTxnId::new(4);
        log.push(SimTime(0), Some(g), central(), EventKind::TxnStart);
        log.push(
            SimTime(70),
            Some(g),
            central(),
            EventKind::Done {
                verdict: GlobalVerdict::Abort,
            },
        );
        let d = log.derive();
        assert!(d.commit_latency_us.is_empty());
        assert_eq!(d.resolve_latency_us.p50(), Some(70));
    }
}
