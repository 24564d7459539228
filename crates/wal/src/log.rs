//! The append-only log manager.
//!
//! Records are appended to a **volatile tail** and become durable when the
//! tail is *forced* (the WAL rule: force up to a transaction's commit record
//! before acknowledging the commit). A crash discards the tail; the stable
//! prefix survives as encoded, checksummed frames.
//!
//! Force counts are tracked for experiment E4 (log-write complexity per
//! protocol, cf. [ML 83] in the paper's related work).

use crate::durable::{split_frame, DurableFile};
use crate::record::LogRecord;
use amc_obs::{EventKind, ObsSink};
use amc_types::{AmcResult, LocalTxnId, Lsn, SiteId};
use std::collections::BTreeMap;
use std::path::Path;

/// Log I/O accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogStats {
    /// Records appended (volatile).
    pub appends: u64,
    /// Force (fsync-equivalent) operations that actually wrote something.
    pub forces: u64,
    /// Records made durable.
    pub stable_records: u64,
    /// Bytes made durable.
    pub stable_bytes: u64,
    /// Forces issued by a group-commit leader on behalf of a batch.
    pub group_forces: u64,
    /// Commit acknowledgements amortized over those group forces. When
    /// `batched_commits > group_forces`, at least one force carried more
    /// than one commit — the group-commit win E9 measures.
    pub batched_commits: u64,
    /// Stable bytes truncated away: cut behind a checkpoint, or a torn
    /// final frame. `stable_bytes - truncated_bytes` is what the stable
    /// log holds.
    pub truncated_bytes: u64,
}

amc_types::wire_struct!(LogStats {
    appends: u64,
    forces: u64,
    stable_records: u64,
    stable_bytes: u64,
    group_forces: u64,
    batched_commits: u64,
    truncated_bytes: u64,
});

impl std::ops::AddAssign for LogStats {
    fn add_assign(&mut self, other: Self) {
        // Destructured in full: a new counter does not compile until it
        // is summed here.
        let LogStats {
            appends,
            forces,
            stable_records,
            stable_bytes,
            group_forces,
            batched_commits,
            truncated_bytes,
        } = other;
        self.appends += appends;
        self.forces += forces;
        self.stable_records += stable_records;
        self.stable_bytes += stable_bytes;
        self.group_forces += group_forces;
        self.batched_commits += batched_commits;
        self.truncated_bytes += truncated_bytes;
    }
}

/// Bytes one segment of the stable prefix holds before the next is opened.
const SEGMENT_BYTES: usize = 64 * 1024;

/// The stable prefix: whole frames, concatenated into fixed-size
/// segments. A log that is never truncated then grows by one modest
/// allocation per segment — not by one per frame plus an ever larger
/// table of them to reallocate. Frames carry their own length (see
/// [`crate::durable`]), so a segment needs no index.
#[derive(Debug, Default)]
struct Frames {
    segments: Vec<Vec<u8>>,
    len: usize,
}

impl Frames {
    fn len(&self) -> usize {
        self.len
    }

    /// The first `n` frames dropped; answers their bytes.
    fn drop_front(&mut self, n: usize) -> u64 {
        let gone: usize = self.iter().take(n).map(<[u8]>::len).sum();
        let kept: Frames = self.iter().skip(n).collect();
        *self = kept;
        gone as u64
    }

    fn push(&mut self, frame: &[u8]) {
        match self.segments.last_mut() {
            Some(seg) if seg.len() + frame.len() <= seg.capacity() => seg.extend_from_slice(frame),
            _ => {
                let mut seg = Vec::with_capacity(SEGMENT_BYTES.max(frame.len()));
                seg.extend_from_slice(frame);
                self.segments.push(seg);
            }
        }
        self.len += 1;
    }

    fn iter(&self) -> impl Iterator<Item = &[u8]> {
        self.segments.iter().flat_map(|seg| {
            let mut rest = seg.as_slice();
            std::iter::from_fn(move || {
                let (frame, tail) = split_frame(rest)?;
                rest = tail;
                Some(frame)
            })
        })
    }
}

impl<'a> FromIterator<&'a [u8]> for Frames {
    fn from_iter<I: IntoIterator<Item = &'a [u8]>>(frames: I) -> Self {
        let mut out = Frames::default();
        for frame in frames {
            out.push(frame);
        }
        out
    }
}

/// An append-only write-ahead log with a volatile tail.
///
/// By default the "stable" prefix lives only in memory (the simulator's
/// model of a disk). [`LogManager::open_durable`] attaches an on-disk
/// [`DurableFile`] sink: every force then also appends the drained frames
/// to the file and pays one `fsync`, and every stable-prefix mutation
/// (torn-tail truncation, prefix reclamation, the simulated-crash test
/// hooks) is mirrored to the file, so a killed process finds its full
/// stable prefix at the next [`LogManager::open_durable`].
#[derive(Debug, Default)]
pub struct LogManager {
    /// Durable frames, in LSN order; the first frame has LSN `truncated + 1`.
    stable: Frames,
    /// Volatile frames not yet forced.
    tail: Vec<Vec<u8>>,
    /// The first `written` tail frames are already in the durable sink,
    /// their fsync not yet returned (see [`LogManager::write_upto`]). The
    /// file holds the stable prefix followed by exactly these frames.
    written: usize,
    /// Records reclaimed from the front (see [`LogManager::truncate_before`]).
    truncated: u64,
    stats: LogStats,
    /// Observability sink; disabled (free) unless a driver attaches one.
    obs: ObsSink,
    /// The site this log belongs to, for event attribution.
    obs_site: Option<SiteId>,
    /// On-disk mirror of the stable prefix, when the log is durable.
    sink: Option<DurableFile>,
    /// Whether [`LogManager::open_durable`] truncated a torn final frame
    /// off the file; folded into the recovery outcome.
    torn_at_open: bool,
    /// The first LSN of every local transaction with no `Commit` or
    /// `Abort` record yet (a `Prepare` keeps it here): no cut passes one.
    live: BTreeMap<LocalTxnId, Lsn>,
    /// The first acceptor row. A mounted acceptor replays every row, so
    /// no cut passes it.
    acceptor_floor: Option<Lsn>,
}

impl LogManager {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a durable log backed by the frame file at `path`, loading the
    /// surviving stable prefix. A torn final frame is truncated (and
    /// reported by the next [`crate::recover`]); corruption anywhere
    /// earlier is fatal.
    ///
    /// `Checkpoint` records from the previous process are dropped (and the
    /// file compacted): a checkpoint's redo-bounding contract says "updates
    /// before me reached stable *page* storage", but the page store is
    /// volatile across process restarts, so redo must run from the log's
    /// origin. Analysis needs none either: recovery logged each loser's
    /// compensations and abort ([`crate::recover`]).
    pub fn open_durable(path: impl AsRef<Path>) -> AmcResult<Self> {
        let opened = DurableFile::open(path)?;
        let mut frames = opened.frames;
        let had = frames.len();
        frames.retain(|f| !matches!(LogRecord::decode(f), Ok(LogRecord::Checkpoint { .. })));
        let dropped_checkpoints = frames.len() != had;
        let mut log = LogManager {
            torn_at_open: opened.torn_truncated,
            sink: Some(opened.file),
            ..LogManager::default()
        };
        for frame in &frames {
            log.stats.stable_records += 1;
            log.stats.stable_bytes += frame.len() as u64;
        }
        log.stable = frames.iter().map(Vec::as_slice).collect();
        if dropped_checkpoints {
            // Keep the file frame-for-frame identical to the in-memory
            // stable prefix (torn-tail truncation indexes rely on it).
            log.mirror_stable();
        }
        Ok(log)
    }

    /// Whether this log persists its stable prefix to disk.
    pub fn is_durable(&self) -> bool {
        self.sink.is_some()
    }

    /// Consume the torn-at-open flag (recovery folds it into its outcome
    /// once; replaying recovery afterwards reports a clean open).
    pub(crate) fn take_torn_at_open(&mut self) -> bool {
        std::mem::take(&mut self.torn_at_open)
    }

    /// Emit an event through the attached sink, attributed to this log's
    /// site. Free when no sink is attached.
    pub(crate) fn emit(&self, kind: EventKind) {
        if self.obs.is_enabled() {
            self.obs
                .emit(None, self.obs_site.unwrap_or(SiteId::new(0)), kind);
        }
    }

    /// Append a record to the volatile tail, returning its LSN.
    pub fn append(&mut self, record: &LogRecord) -> Lsn {
        self.tail.push(record.encode());
        self.stats.appends += 1;
        let lsn = self.head();
        match (record, record.txn()) {
            (LogRecord::Commit { .. } | LogRecord::Abort { .. }, Some(txn)) => {
                self.live.remove(&txn);
            }
            (_, Some(txn)) => {
                self.live.entry(txn).or_insert(lsn);
            }
            (LogRecord::Checkpoint { .. }, None) => {}
            (_, None) => {
                self.acceptor_floor.get_or_insert(lsn);
            }
        }
        lsn
    }

    /// Where a checkpoint taken now may cut the log, once the log is
    /// durable through the head and every page a record up to it changed
    /// is written back: past the head, but not past the first record of a
    /// live local transaction nor the first acceptor row.
    pub fn cut_point(&self) -> Lsn {
        let floors = self.live.values().copied().chain(self.acceptor_floor);
        floors.fold(self.head().next(), Lsn::min)
    }

    /// After restart recovery only the in-doubt transactions are live:
    /// `first` maps each to its first LSN.
    pub(crate) fn reset_live(&mut self, first: BTreeMap<LocalTxnId, Lsn>) {
        self.live = first;
    }

    /// A crash lost every record past the durable point: no floor stays
    /// on one.
    fn forget_lost_floors(&mut self) {
        let durable = self.durable();
        self.live.retain(|_, first| *first <= durable);
        self.acceptor_floor = self.acceptor_floor.filter(|first| *first <= durable);
    }

    /// LSN of the most recently appended record (0 when empty).
    pub fn head(&self) -> Lsn {
        Lsn::new(self.truncated + (self.stable.len() + self.tail.len()) as u64)
    }

    /// LSN up to which the log is durable.
    pub fn durable(&self) -> Lsn {
        Lsn::new(self.truncated + self.stable.len() as u64)
    }

    /// Force the whole tail to stable storage.
    pub fn force(&mut self) {
        let head = self.head();
        self.force_upto(head, true);
    }

    /// The first half of a force whose fsync runs outside the caller's
    /// lock: append the tail up to `upto` to the durable sink, unsynced.
    /// The frames stay volatile until `force_upto(upto, false)`.
    pub(crate) fn write_upto(&mut self, upto: Lsn) {
        let n = upto.raw().saturating_sub(self.durable().raw()) as usize;
        if let Some(sink) = self.sink.as_mut() {
            let n = n.min(self.tail.len());
            for frame in &self.tail[self.written.min(n)..n] {
                sink.append(frame);
            }
            self.written = self.written.max(n);
        }
    }

    /// A clone of the durable sink's file, to fsync with the log unlocked.
    pub(crate) fn sync_handle(&self) -> Option<std::fs::File> {
        let sink = self.sink.as_ref()?;
        Some(sink.sync_handle().expect("clone the WAL file handle"))
    }

    /// Move the tail up to (and including) `upto` into the stable prefix:
    /// one force, returning the frames and bytes moved. Appends what
    /// `write_upto` has not, then fsyncs, unless `sync` is off (an fsync
    /// begun after `write_upto(upto)` has returned) and nothing was new.
    pub(crate) fn force_upto(&mut self, upto: Lsn, sync: bool) -> (u64, u64) {
        let durable = self.durable().raw();
        let target = upto.raw().min(self.head().raw());
        if target <= durable {
            return (0, 0);
        }
        let n = (target - durable) as usize;
        self.stats.forces += 1;
        let mut bytes = 0u64;
        let written = std::mem::take(&mut self.written);
        for (i, frame) in self.tail.drain(..n).enumerate() {
            self.stats.stable_records += 1;
            self.stats.stable_bytes += frame.len() as u64;
            bytes += frame.len() as u64;
            if let Some(sink) = self.sink.as_mut().filter(|_| i >= written) {
                sink.append(&frame);
            }
            self.stable.push(&frame);
        }
        self.written = written.saturating_sub(n);
        // One physical fsync per acknowledged force, however many frames
        // it carried — the cost group commit amortizes.
        if let Some(sink) = self.sink.as_mut().filter(|_| sync || n > written) {
            sink.sync();
        }
        let records = n as u64;
        self.emit(EventKind::LogForce { records, bytes });
        (records, bytes)
    }

    /// Record that a group-commit leader's force covered `commits` commit
    /// acknowledgements and `records` frames of `bytes` total. Bumps the
    /// group counters and emits [`EventKind::GroupForce`] when a sink is
    /// attached (the physical write was already accounted by
    /// [`LogManager::force_upto`]).
    pub(crate) fn note_group_batch(&mut self, commits: u64, records: u64, bytes: u64) {
        self.stats.group_forces += 1;
        self.stats.batched_commits += commits;
        self.emit(EventKind::GroupForce {
            commits,
            records,
            bytes,
        });
    }

    /// Attach an observability sink; subsequent [`LogManager::force`] calls
    /// emit [`EventKind::LogForce`] attributed to `site`.
    pub fn attach_obs(&mut self, sink: ObsSink, site: SiteId) {
        self.obs = sink;
        self.obs_site = Some(site);
    }

    /// Append and immediately force — the commit-record fast path.
    pub fn append_forced(&mut self, record: &LogRecord) -> Lsn {
        let lsn = self.append(record);
        self.force();
        lsn
    }

    /// Crash: the volatile tail is lost, and with it any frames written
    /// by a force whose fsync never returned — cut from the file too.
    pub fn crash(&mut self) {
        self.tail.clear();
        if let Some(sink) = self.sink.as_mut().filter(|_| self.written > 0) {
            sink.truncate_frames(self.stable.len());
        }
        self.written = 0;
        self.forget_lost_floors();
    }

    /// Crash **in the middle of a `force()`**: a prefix of the volatile tail
    /// reaches stable storage, the rest is lost, and — if `torn` is set and
    /// at least one more frame was in flight — the next frame lands
    /// checksum-corrupt (a torn write, the crash mode the per-frame FNV-1a
    /// checksums exist to catch).
    ///
    /// `keep_frames` is the number of tail frames that became fully durable
    /// (clamped to the tail length). No force is ever acknowledged here, so
    /// [`LogStats::forces`] is not incremented; the surviving frames do count
    /// toward `stable_records`/`stable_bytes` because they physically hit the
    /// medium.
    pub fn crash_during_force(&mut self, keep_frames: usize, torn: bool) {
        let keep = keep_frames.min(self.tail.len());
        for frame in self.tail.drain(..keep) {
            self.stats.stable_records += 1;
            self.stats.stable_bytes += frame.len() as u64;
            self.stable.push(&frame);
        }
        if torn {
            if let Some(mut frame) = self.tail.first().cloned() {
                // Flip the last payload byte: length header stays intact,
                // the checksum no longer matches — a classic torn frame.
                if let Some(last) = frame.last_mut() {
                    *last ^= 0xFF;
                }
                self.stats.stable_bytes += frame.len() as u64;
                self.stable.push(&frame);
            }
        }
        self.tail.clear();
        self.written = 0;
        self.forget_lost_floors();
        // A durable sink must reflect what physically hit the medium.
        self.mirror_stable();
    }

    /// Rewrite the durable sink (if any) from the current stable prefix —
    /// used by the simulated-crash test hooks, which edit `stable`
    /// directly instead of going through appends.
    fn mirror_stable(&mut self) {
        if let Some(sink) = self.sink.as_mut() {
            let written = self.tail[..self.written].iter().map(Vec::as_slice);
            sink.rewrite(self.stable.iter().chain(written));
        }
    }

    /// Drop a torn final frame from the durable prefix, if present.
    ///
    /// Returns `Ok(true)` when exactly the *last* stable frame failed to
    /// decode and was truncated, `Ok(false)` when every frame is intact.
    /// A corrupt frame anywhere **before** the end is not a torn tail — it
    /// is mid-log corruption, and recovery must not silently drop committed
    /// history — so that stays a fatal [`amc_types::AmcError::Corruption`].
    pub(crate) fn truncate_torn_tail(&mut self) -> AmcResult<bool> {
        let first_bad = self
            .stable
            .iter()
            .position(|frame| LogRecord::decode(frame).is_err());
        match first_bad {
            None => Ok(false),
            Some(i) if i + 1 == self.stable.len() => {
                let torn = self.stable.iter().nth(i).map_or(0, <[u8]>::len);
                self.stats.truncated_bytes += torn as u64;
                self.stable = self.stable.iter().take(i).collect();
                if let Some(sink) = self.sink.as_mut() {
                    sink.truncate_frames(i);
                }
                Ok(true)
            }
            Some(i) => Err(amc_types::AmcError::Corruption(format!(
                "mid-log corruption at LSN {} (not a torn tail; {} frames follow)",
                self.truncated + i as u64 + 1,
                self.stable.len() - i - 1
            ))),
        }
    }

    /// Decode and return all durable records in LSN order.
    pub fn stable_records(&self) -> AmcResult<Vec<(Lsn, LogRecord)>> {
        self.stable
            .iter()
            .enumerate()
            .map(|(i, frame)| {
                Ok((
                    Lsn::new(self.truncated + i as u64 + 1),
                    LogRecord::decode(frame)?,
                ))
            })
            .collect()
    }

    /// Accounting so far.
    pub fn stats(&self) -> LogStats {
        self.stats
    }

    /// Truncate the durable prefix before `lsn` (log reclamation after a
    /// checkpoint). Records with LSN < `lsn` are discarded; LSNs are **not**
    /// renumbered — subsequent reads simply start later.
    ///
    /// Only safe when recovery will never need the truncated records: at a
    /// [`LogManager::cut_point`] noted under a checkpoint.
    pub fn truncate_before(&mut self, lsn: Lsn) {
        let keep_from = lsn.raw().saturating_sub(self.truncated + 1) as usize;
        if keep_from == 0 || self.stable.len() == 0 {
            return;
        }
        let keep_from = keep_from.min(self.stable.len());
        self.truncated += keep_from as u64;
        self.stats.truncated_bytes += self.stable.drop_front(keep_from);
        self.mirror_stable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amc_types::LocalTxnId;

    impl LogManager {
        /// Corrupt the durable frame at `idx` (0-based into the current
        /// stable prefix) by flipping its final byte: the
        /// mid-log-corruption-is-fatal path.
        pub(crate) fn corrupt_stable(&mut self, idx: usize) {
            if idx < self.stable.len() {
                let mut frames: Vec<Vec<u8>> = self.stable.iter().map(<[u8]>::to_vec).collect();
                if let Some(last) = frames[idx].last_mut() {
                    *last ^= 0xFF;
                }
                self.stable = frames.iter().map(Vec::as_slice).collect();
                self.mirror_stable();
            }
        }

        /// Number of records truncated from the front (LSN offset).
        fn truncated(&self) -> u64 {
            self.truncated
        }
    }

    fn begin(n: u64) -> LogRecord {
        LogRecord::Begin {
            txn: LocalTxnId::new(n),
        }
    }

    #[test]
    fn lsns_are_sequential() {
        let mut log = LogManager::new();
        assert_eq!(log.append(&begin(1)), Lsn::new(1));
        assert_eq!(log.append(&begin(2)), Lsn::new(2));
        assert_eq!(log.head(), Lsn::new(2));
        assert_eq!(log.durable(), Lsn::ZERO);
    }

    #[test]
    fn force_makes_tail_durable() {
        let mut log = LogManager::new();
        log.append(&begin(1));
        log.append(&begin(2));
        log.force();
        assert_eq!(log.durable(), Lsn::new(2));
        let records = log.stable_records().unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].1, begin(1));
        assert_eq!(records[1].1, begin(2));
    }

    #[test]
    fn crash_drops_unforced_tail_only() {
        let mut log = LogManager::new();
        log.append(&begin(1));
        log.force();
        log.append(&begin(2));
        log.crash();
        let records = log.stable_records().unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].1, begin(1));
        // Head restarts from the durable point.
        assert_eq!(log.head(), Lsn::new(1));
    }

    #[test]
    fn empty_force_is_free() {
        let mut log = LogManager::new();
        log.force();
        log.force();
        assert_eq!(log.stats().forces, 0);
        log.append(&begin(1));
        log.force();
        assert_eq!(log.stats().forces, 1);
    }

    #[test]
    fn append_forced_is_durable_immediately() {
        let mut log = LogManager::new();
        log.append_forced(&begin(9));
        log.crash();
        assert_eq!(log.stable_records().unwrap().len(), 1);
    }

    #[test]
    fn truncation_preserves_lsns_and_tail_reads() {
        let mut log = LogManager::new();
        for i in 1..=6u64 {
            log.append(&begin(i));
        }
        log.force();
        assert_eq!(log.head(), Lsn::new(6));
        // Reclaim everything before LSN 4.
        log.truncate_before(Lsn::new(4));
        assert_eq!(log.truncated(), 3);
        let records = log.stable_records().unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].0, Lsn::new(4), "LSNs are not renumbered");
        assert_eq!(records[0].1, begin(4));
        // Appends continue from the same sequence.
        assert_eq!(log.append(&begin(7)), Lsn::new(7));
        log.force();
        assert_eq!(log.durable(), Lsn::new(7));
    }

    #[test]
    fn truncate_before_is_idempotent_and_clamped() {
        let mut log = LogManager::new();
        for i in 1..=3u64 {
            log.append(&begin(i));
        }
        log.force();
        log.truncate_before(Lsn::new(2));
        log.truncate_before(Lsn::new(2)); // repeat: no-op
        assert_eq!(log.truncated(), 1);
        // Truncating past the end clamps to the durable prefix.
        log.truncate_before(Lsn::new(100));
        assert_eq!(log.truncated(), 3);
        assert!(log.stable_records().unwrap().is_empty());
        assert_eq!(log.head(), Lsn::new(3));
    }

    #[test]
    fn stable_prefix_spans_segments_in_lsn_order() {
        let mut log = LogManager::new();
        let n = 3 * (SEGMENT_BYTES / begin(0).encode().len()) as u64;
        for i in 1..=n {
            log.append(&begin(i));
            if i % 7 == 0 {
                log.force();
            }
        }
        log.force();
        assert!(log.stable.segments.len() >= 3, "the log must roll over");
        let records = log.stable_records().unwrap();
        assert_eq!(records.len() as u64, n);
        for (i, (lsn, record)) in records.iter().enumerate() {
            assert_eq!(
                (*lsn, record),
                (Lsn::new(i as u64 + 1), &begin(i as u64 + 1))
            );
        }
        // Reclaiming a prefix that ends mid-segment keeps the rest intact.
        log.truncate_before(Lsn::new(n / 2));
        let kept = log.stable_records().unwrap();
        assert_eq!(kept.first().unwrap(), &(Lsn::new(n / 2), begin(n / 2)));
        assert_eq!(kept.last().unwrap(), &(Lsn::new(n), begin(n)));
    }

    #[test]
    fn checkpoint_truncate_recover_cycle() {
        use crate::recovery::recover_into_map;
        use amc_types::{ObjectId, Value};
        use std::collections::BTreeMap;

        let mut log = LogManager::new();
        let mut state: BTreeMap<ObjectId, Value> = BTreeMap::new();
        // Transaction 1 commits; state is "flushed" (our map plays the
        // disk); checkpoint with no active transactions; truncate.
        log.append(&LogRecord::Begin {
            txn: LocalTxnId::new(1),
        });
        log.append(&LogRecord::Update {
            txn: LocalTxnId::new(1),
            obj: ObjectId::new(9),
            before: None,
            after: Some(Value::counter(5)),
        });
        log.append(&LogRecord::Commit {
            txn: LocalTxnId::new(1),
        });
        log.force();
        state.insert(ObjectId::new(9), Value::counter(5)); // flushed
        log.append_forced(&LogRecord::Checkpoint { active: vec![] });
        log.truncate_before(log.durable());
        // A post-checkpoint transaction commits.
        log.append(&LogRecord::Begin {
            txn: LocalTxnId::new(2),
        });
        log.append(&LogRecord::Update {
            txn: LocalTxnId::new(2),
            obj: ObjectId::new(9),
            before: Some(Value::counter(5)),
            after: Some(Value::counter(6)),
        });
        log.append(&LogRecord::Commit {
            txn: LocalTxnId::new(2),
        });
        log.force();
        // Crash + recover over the truncated log: only txn 2 replays, and
        // the final state is correct.
        let out = recover_into_map(&mut log, &mut state).unwrap();
        assert!(out.committed.contains(&LocalTxnId::new(2)));
        assert!(!out.committed.contains(&LocalTxnId::new(1)), "reclaimed");
        assert_eq!(state[&ObjectId::new(9)], Value::counter(6));
    }

    /// A cut stops at the first record of a transaction with no decision
    /// yet (a prepare keeps it live) and at the first acceptor row; a
    /// crash forgets floors it took with the tail.
    #[test]
    fn the_cut_point_stops_at_live_transactions_and_acceptor_rows() {
        let mut log = LogManager::new();
        let t = LocalTxnId::new;
        let update = |n| LogRecord::Update {
            txn: t(n),
            obj: amc_types::ObjectId::new(n),
            before: None,
            after: None,
        };
        log.append(&update(1));
        log.append(&LogRecord::Commit { txn: t(1) });
        assert_eq!(log.cut_point(), Lsn::new(3), "nothing live: past the head");
        log.append(&update(2)); // 3
        log.append(&LogRecord::Prepare {
            txn: t(2),
            gtx: None,
        });
        log.append(&update(3)); // 5
        log.append(&LogRecord::Abort { txn: t(3) });
        assert_eq!(log.cut_point(), Lsn::new(3), "the prepared one is live");
        log.append(&LogRecord::Commit { txn: t(2) });
        assert_eq!(log.cut_point(), Lsn::new(8));
        log.append(&LogRecord::Decision {
            gtx: amc_types::GlobalTxnId::new(9),
            verdict: amc_types::GlobalVerdict::Commit,
        }); // 8
        log.append(&update(4));
        log.append(&LogRecord::Commit { txn: t(4) });
        assert_eq!(log.cut_point(), Lsn::new(8), "the first acceptor row");
        log.force();
        log.truncate_before(log.cut_point());
        let first = log.stable_records().unwrap()[0].clone();
        assert_eq!(first.0, Lsn::new(8));
        assert!(log.stats().truncated_bytes > 0);
        // A transaction whose first record the crash took is no floor.
        log.append(&update(5));
        log.crash();
        assert_eq!(log.cut_point(), Lsn::new(8));
    }

    #[test]
    fn crash_during_force_keeps_a_prefix() {
        let mut log = LogManager::new();
        log.append(&begin(1));
        log.append(&begin(2));
        log.append(&begin(3));
        log.crash_during_force(2, false);
        let records = log.stable_records().unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].1, begin(1));
        assert_eq!(records[1].1, begin(2));
        assert_eq!(log.head(), Lsn::new(2), "unforced frame 3 is gone");
        assert!(!log.truncate_torn_tail().unwrap(), "no torn frame written");
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let mut log = LogManager::new();
        log.append(&begin(1));
        log.force();
        log.append(&begin(2));
        log.append(&begin(3));
        // Crash mid-force: frame 2 lands intact, frame 3 lands torn.
        log.crash_during_force(1, true);
        assert!(
            log.stable_records().is_err(),
            "raw read still sees the torn frame"
        );
        assert!(log.truncate_torn_tail().unwrap());
        let records = log.stable_records().unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].1, begin(2));
        // Idempotent: a second pass finds nothing to do.
        assert!(!log.truncate_torn_tail().unwrap());
    }

    #[test]
    fn torn_frame_with_no_durable_prefix() {
        let mut log = LogManager::new();
        log.append(&begin(1));
        log.crash_during_force(0, true);
        assert!(log.truncate_torn_tail().unwrap());
        assert!(log.stable_records().unwrap().is_empty());
        assert_eq!(log.head(), Lsn::ZERO);
    }

    #[test]
    fn mid_log_corruption_stays_fatal() {
        let mut log = LogManager::new();
        log.append(&begin(1));
        log.append(&begin(2));
        log.append(&begin(3));
        log.force();
        log.corrupt_stable(1); // middle frame: committed history damaged
        let err = log.truncate_torn_tail().unwrap_err();
        assert!(
            matches!(err, amc_types::AmcError::Corruption(ref m) if m.contains("mid-log")),
            "{err:?}"
        );
        // Nothing was dropped.
        assert!(log.stable_records().is_err());
    }

    #[test]
    fn corrupt_final_frame_via_hook_is_a_torn_tail() {
        let mut log = LogManager::new();
        log.append(&begin(1));
        log.append(&begin(2));
        log.force();
        log.corrupt_stable(1);
        assert!(log.truncate_torn_tail().unwrap());
        assert_eq!(log.stable_records().unwrap().len(), 1);
    }

    #[test]
    fn crash_during_force_clamps_keep_frames() {
        let mut log = LogManager::new();
        log.append(&begin(1));
        log.crash_during_force(10, true);
        // Everything fit; no frame was left to tear.
        assert_eq!(log.stable_records().unwrap().len(), 1);
        assert!(!log.truncate_torn_tail().unwrap());
    }

    #[test]
    fn attached_obs_sees_acknowledged_forces_only() {
        let sink = amc_obs::ObsSink::enabled(16);
        let mut log = LogManager::new();
        log.attach_obs(sink.clone(), SiteId::new(3));
        log.append_forced(&begin(1));
        log.force(); // empty tail: no force, no event
        log.append(&begin(2));
        log.crash_during_force(1, false); // unacknowledged: no event
        let snap = sink.snapshot();
        assert_eq!(snap.len(), 1);
        let e = snap.events().next().unwrap();
        assert_eq!(e.site, SiteId::new(3));
        assert!(
            matches!(e.kind, EventKind::LogForce { records: 1, .. }),
            "{:?}",
            e.kind
        );
    }

    #[test]
    fn stats_count_bytes_and_records() {
        let mut log = LogManager::new();
        log.append(&begin(1));
        log.append(&begin(2));
        log.force();
        let s = log.stats();
        assert_eq!(s.appends, 2);
        assert_eq!(s.stable_records, 2);
        assert!(s.stable_bytes > 0);
    }
}
