//! The engine core both schedulers run on: the transaction table, the page
//! store behind the site's group committer, the checkpoint cut, crash and
//! restart recovery. A scheduler adds what decides *when* a transaction may
//! read and write — 2PL's page locks and undo lists, OCC's versions and
//! write buffers — and nothing that touches the log on its own.
//!
//! Synchronization: no single state mutex. The transaction table, the page
//! store and the WAL (behind [`GroupCommitter`]) each carry their own, taken
//! in the order `txns` → `store` → `wal`. An update is applied and its
//! record appended in one `store` critical section, and the store stamps
//! the record's LSN on every page the update dirtied: no page is written
//! back before the log is durable through it (the write-ahead rule).
//!
//! An in-memory log is cut behind a checkpoint: once the stable log grew
//! by the pool's size in bytes since the last cut, the committing thread
//! forces the log, writes every dirty page back and drops the records no
//! restart can need (see [`LogManager::cut_point`]). A durable log is never
//! cut: the page store does not outlive its process, so a restart redoes
//! from the log's origin.

use crate::api::{first_id_after, EngineStats, LocalEngine, RecoveryReport, Terminated};
use crate::tpl::TplConfig;
use amc_storage::{PageStore, PAGE_SIZE};
use amc_types::{AmcError, AmcResult, LocalRunState, LocalTxnId, Lsn, ObjectId, SiteId, Value};
use amc_wal::{GroupCommitter, LogManager, LogRecord, RecoveryOutcome};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// What a scheduler keeps per live transaction; the core reads its state.
pub(crate) trait Live {
    /// Where the transaction stands: running, or ready after a prepare.
    fn state(&self) -> LocalRunState;
}

/// Transaction metadata, liveness flag and counters.
pub(crate) struct TxnTable<C> {
    pub(crate) active: HashMap<LocalTxnId, C>,
    pub(crate) terminated: Terminated,
    pub(crate) next_txn: u64,
    pub(crate) up: bool,
    pub(crate) stats: EngineStats,
}

impl<C> TxnTable<C> {
    /// A local id no transaction has had.
    fn mint(&mut self) -> LocalTxnId {
        let txn = LocalTxnId::new(self.next_txn);
        self.next_txn += 1;
        txn
    }

    /// Record that `txn` ended aborted, by the engine's own hand if
    /// `erroneous` (§3.2).
    pub(crate) fn aborted(&mut self, txn: LocalTxnId, erroneous: bool) {
        self.terminated.insert(txn, LocalRunState::Aborted);
        self.stats.aborts += 1;
        if erroneous {
            self.stats.erroneous_aborts += 1;
        }
    }
}

/// The scheduler-independent part of a local engine, over the per-
/// transaction context `C`.
pub(crate) struct Core<C> {
    pub(crate) txns: Mutex<TxnTable<C>>,
    pub(crate) store: Mutex<PageStore>,
    /// Shared: a co-located Paxos acceptor writes through it too.
    pub(crate) wal: Arc<GroupCommitter>,
    pub(crate) cfg: TplConfig,
    /// The site this engine serves, carried in `SiteDown` errors so report
    /// tables attribute failures to the real site (0 = unattached).
    site: AtomicU32,
    /// The log's `stable_bytes` at which the next cut is due; never, for
    /// a durable log.
    next_cut: AtomicU64,
}

/// Open the engine `over` builds around a core on the durable frame file
/// at `path`, and replay what an earlier process left through the engine's
/// own `recover`: the core stays down until then.
pub(crate) fn open_durable<C: Live, E: LocalEngine>(
    cfg: TplConfig,
    site: SiteId,
    path: impl AsRef<std::path::Path>,
    over: impl FnOnce(Core<C>) -> E,
) -> AmcResult<(E, RecoveryReport)> {
    let engine = over(Core::over(cfg, site, LogManager::open_durable(path)?));
    let report = engine.recover()?;
    Ok((engine, report))
}

impl<C: Live> Core<C> {
    /// A core over a fresh simulated disk and an in-memory log.
    pub(crate) fn new(cfg: TplConfig, site: SiteId) -> Self {
        Self::over(cfg, site, LogManager::new())
    }

    /// A core over a fresh simulated disk and `log`, serving `site`; down
    /// over a durable log, until recovery replays it.
    fn over(cfg: TplConfig, site: SiteId, log: LogManager) -> Self {
        let durable = log.is_durable();
        let next_cut = if durable { u64::MAX } else { cut_every(&cfg) };
        let wal = Arc::new(GroupCommitter::new(log, cfg.group_commit));
        let mut store = PageStore::new(cfg.buckets, cfg.pool_frames);
        store.follow(wal.clone());
        Core {
            txns: Mutex::new(TxnTable {
                active: HashMap::new(),
                terminated: Terminated::default(),
                next_txn: 1,
                up: !durable,
                stats: EngineStats::default(),
            }),
            store: Mutex::new(store),
            wal,
            cfg,
            site: AtomicU32::new(site.raw()),
            next_cut: AtomicU64::new(next_cut),
        }
    }

    pub(crate) fn site_down(&self) -> AmcError {
        AmcError::SiteDown(SiteId::new(self.site.load(Ordering::Relaxed)))
    }

    /// Start a transaction with context `ctx`. Nothing is logged: the
    /// transaction's first record names it, and recovery knows a
    /// transaction by any record that does.
    pub(crate) fn begin(&self, ctx: C) -> AmcResult<LocalTxnId> {
        let mut txns = self.txns.lock();
        if !txns.up {
            return Err(self.site_down());
        }
        let txn = txns.mint();
        txns.active.insert(txn, ctx);
        txns.stats.begins += 1;
        Ok(txn)
    }

    /// The one write path: apply `f` to `obj` in `store` and append the
    /// update's record, stamped on the pages it dirtied.
    pub(crate) fn write(
        &self,
        store: &mut PageStore,
        txn: LocalTxnId,
        obj: ObjectId,
        f: impl FnOnce(Option<Value>) -> AmcResult<Option<Value>>,
    ) -> AmcResult<(Option<Value>, Option<Value>)> {
        let (before, after) = store.update(obj, f)?;
        let record = LogRecord::Update {
            txn,
            obj,
            before,
            after,
        };
        store.stamp(self.wal.append(&record));
        Ok((before, after))
    }

    /// Cut the log if it grew by [`cut_every`] since the last cut: under
    /// `store`, note where it may be cut, force it through the head, write
    /// every dirty page back, and drop what precedes the cut. Called by a
    /// committer that holds no component mutex.
    pub(crate) fn cut_if_due(&self) {
        let due = || self.wal.stable_bytes() >= self.next_cut.load(Ordering::Relaxed);
        if !due() {
            return;
        }
        let txns = self.txns.lock();
        if !txns.up {
            return;
        }
        // Holding `store` keeps a crash out until the cut is done: the
        // crash takes it to drop the pool, and the log with it.
        let mut store = self.store.lock();
        drop(txns);
        if !due() {
            return; // another committer cut first
        }
        let at = self.wal.with_log(|log| log.cut_point());
        if !self.wal.wait_durable(self.wal.mark()) || store.flush().is_err() {
            return;
        }
        let grown = self.wal.with_log(|log| {
            log.truncate_before(at);
            log.stats().stable_bytes
        });
        self.next_cut
            .store(grown + cut_every(&self.cfg), Ordering::Relaxed);
    }

    /// Crash: the pool, the unforced log tail and every live transaction
    /// but a prepared one are lost. `partial` carries `(keep_frames, torn)`
    /// when the crash strikes mid-force, persisting part of the tail.
    /// Returns the transactions it took out of the table, prepared ones
    /// included (recovery resurrects those from their forced `Prepare`).
    pub(crate) fn crash(&self, partial: Option<(u32, bool)>) -> Vec<LocalTxnId> {
        let mut txns = self.txns.lock();
        txns.up = false;
        // The pool and the log tail go together: no one holding the store
        // sees one crashed and not the other.
        let mut store = self.store.lock();
        store.crash();
        // Waking parked committers (epoch bump) happens here, while the
        // liveness flag is already down — they fail with SiteDown.
        match partial {
            Some((keep, torn)) => self.wal.crash_during_force(keep as usize, torn),
            None => self.wal.crash(),
        }
        drop(store);
        let victims: Vec<LocalTxnId> = txns.active.keys().copied().collect();
        for t in &victims {
            let ctx = txns.active.remove(t).expect("listed");
            if ctx.state() != LocalRunState::Ready {
                txns.aborted(*t, true);
            }
        }
        victims
    }

    /// Restart recovery: replay the durable log into the store, record the
    /// terminal states it found, let `resurrect` rebuild the in-doubt
    /// transactions from the outcome and the stable records, and write a
    /// checkpoint naming them. Returns the report and what `resurrect` did.
    pub(crate) fn recover<R>(
        &self,
        resurrect: impl FnOnce(&mut TxnTable<C>, &PageStore, &RecoveryOutcome, &[(Lsn, LogRecord)]) -> R,
    ) -> AmcResult<(RecoveryReport, R)> {
        // `txns` → `store` → `wal` — the engine-wide lock order; holding
        // the first two quiesces the engine for the whole replay.
        let mut txns = self.txns.lock();
        if txns.up {
            return Err(AmcError::InvalidState("recover on a running site".into()));
        }
        let mut store = self.store.lock();
        let outcome = self.wal.with_log(|log| {
            amc_wal::recover(log, |obj, img| store.update(obj, |_| Ok(img)).map(drop))
        })?;
        store.flush()?;
        let report = txns.terminated.absorb(&outcome);
        let records = self.wal.with_log(|log| log.stable_records())?;
        txns.next_txn = txns.next_txn.max(first_id_after(&records));
        let resurrected = resurrect(&mut txns, &store, &outcome, &records);
        // Everything replayed is flushed; in-doubt txns stay active across
        // the checkpoint.
        let active: Vec<LocalTxnId> = txns.active.keys().copied().collect();
        self.wal.with_log(|log| {
            log.append_forced(&LogRecord::Checkpoint { active });
        });
        txns.up = true;
        Ok((report, resurrected))
    }

    /// Load committed data outside any transaction. Over a durable log the
    /// load is one committed transaction, so it survives restarts.
    pub(crate) fn bulk_load(&self, data: &[(ObjectId, Value)]) -> AmcResult<()> {
        if !self.wal.with_log(|log| log.is_durable()) {
            let mut store = self.store.lock();
            for &(o, v) in data {
                store.put(o, v)?;
            }
            return store.flush();
        }
        let txn = self.txns.lock().mint();
        let mut store = self.store.lock();
        for &(o, v) in data {
            self.write(&mut store, txn, o, |_| Ok(Some(v)))?;
        }
        // Committed first, so the flush finds every record durable.
        if !self.wal.append_durable(&LogRecord::Commit { txn }) {
            return Err(self.site_down());
        }
        store.flush()
    }

    pub(crate) fn attach_obs(&self, sink: amc_obs::ObsSink, site: SiteId) {
        self.site.store(site.raw(), Ordering::Relaxed);
        self.wal.with_log(|log| log.attach_obs(sink, site));
    }
}

/// The [`LocalEngine`] methods a scheduler answers from its `core` alone,
/// spelled once for both; a crash ends in the scheduler's `after_crash`.
macro_rules! answered_by_the_core {
    () => {
        fn state_of(&self, txn: LocalTxnId) -> Option<LocalRunState> {
            let txns = self.core.txns.lock();
            let live = txns.active.get(&txn).map(crate::core::Live::state);
            live.or_else(|| txns.terminated.get(txn))
        }

        fn is_up(&self) -> bool {
            self.core.txns.lock().up
        }

        fn dump(&self) -> AmcResult<BTreeMap<ObjectId, Value>> {
            Ok(self.core.store.lock().scan()?.into_iter().collect())
        }

        fn bulk_load(&self, data: &[(ObjectId, Value)]) -> AmcResult<()> {
            self.core.bulk_load(data)
        }

        fn log_stats(&self) -> amc_wal::LogStats {
            self.core.wal.stats()
        }

        fn attach_obs(&self, sink: amc_obs::ObsSink, site: SiteId) {
            self.core.attach_obs(sink, site);
        }

        fn crash(&self) {
            self.after_crash(self.core.crash(None));
        }

        fn crash_partial(&self, keep_frames: u32, torn_frame: bool) {
            self.after_crash(self.core.crash(Some((keep_frames, torn_frame))));
        }
    };
}
pub(crate) use answered_by_the_core;

/// Stable log bytes between cuts: the buffer pool's size.
pub(crate) fn cut_every(cfg: &TplConfig) -> u64 {
    (cfg.pool_frames * PAGE_SIZE) as u64
}
