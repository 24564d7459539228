//! The local communication manager (§2, Fig. 1).
//!
//! One of these sits on top of each existing database system. It "listens
//! on the net for global calls and passes them to the existing database
//! system" — and, crucially, it is where the two portable commit protocols
//! put the machinery the unmodified engine lacks:
//!
//! * **commit-after** (§3.2): answer `prepare` with *ready* while the local
//!   transaction is still in the *running* state; on a post-ready erroneous
//!   abort, **repeat** the local transaction until it commits;
//! * **commit-before** (§3.3): commit the local transaction immediately
//!   after its last action; on a global abort, run the **inverse
//!   transaction** until it commits.
//!
//! Both repetition loops are made exactly-once across crashes by the
//! [`crate::marker`] scheme: every repeatable transaction also inserts a
//! marker object, so "marker present" ⇔ "transaction committed" — the
//! paper's "redo-log written into the existing database by the local
//! transaction".
//!
//! **The local database is the journal.** The manager keeps no file of its
//! own. What a restarted site must still answer for is written by the
//! local transactions themselves, so it commits — and is forced — with the
//! work it describes:
//!
//! * commit-before's forward transaction writes its marker and the before
//!   images its inverse will need (`crate::marker::before_image` rows);
//!   the rest of the inverse is a function of the forward program, which
//!   the coordinator re-ships in its `Undo`;
//! * a 2PC prepare names its global transaction in the engine's own
//!   prepare record ([`PreparableEngine::prepare_as`]), which is the
//!   modified local TM 2PC demands anyway;
//! * commit-after needs nothing: the coordinator re-ships the program in
//!   its `Redo` and the marker makes the repetition exactly-once (§3.2).
//!
//! The `gtx → work` map in memory is a cache of that. Every restart —
//! of a process, or of a site in place — replaces it with what can be
//! rebuilt from the markers and the prepared pairs
//! ([`LocalCommManager::restore_work`]).

use crate::marker::{before_image, forward_gtx, forward_marker, undo_marker};
use crate::message::Payload;
use crate::transport::CoLocatedAcceptor;
use amc_engine::{LocalEngine, PreparableEngine, RecoveryReport};
use amc_mlt::{inverse_of, needs_before_image};
use amc_obs::{EventKind, ObsSink};
use amc_types::{
    AbortReason, AmcError, AmcResult, GlobalTxnId, LocalRunState, LocalTxnId, LocalVote, ObjectId,
    Operation, SiteId, Value,
};
use parking_lot::{Mutex, MutexGuard};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Deterministic injector for post-ready erroneous aborts (experiment E2).
///
/// §3.2's hazard is an engine aborting a local transaction *after* the
/// ready vote was sent. In the wild this comes from timeouts, deadlock
/// victims or validation failures; the injector makes the probability a
/// controlled knob: after a commit-after manager votes ready, it aborts
/// the engine transaction with probability `p`, using a seeded counter
/// sequence so runs are reproducible.
#[derive(Debug)]
struct AbortInjector {
    p: f64,
    /// Deterministic low-discrepancy sequence (Weyl) — avoids dragging a
    /// full RNG into the manager.
    state: u64,
}

impl AbortInjector {
    fn fire(&mut self) -> bool {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let u = (self.state >> 11) as f64 / (1u64 << 53) as f64;
        u < self.p
    }
}

/// Which protocol flavour a submit runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitMode {
    /// 2PC baseline: run the operations, leave the transaction running,
    /// wait for `prepare`. No marker (the ready state is durable instead).
    TwoPhase,
    /// Commit-after: run the operations (plus marker), leave running, vote
    /// ready immediately — the §3.2 "answer prepare immediately after the
    /// last action".
    CommitAfter,
    /// Commit-before: run the operations (plus marker) and commit at once;
    /// the vote reports the commit outcome (§3.3).
    CommitBefore,
}

/// Counters for E2/E4/E8.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Submits handled.
    pub submits: u64,
    /// Ready votes sent.
    pub votes_ready: u64,
    /// Abort votes sent.
    pub votes_aborted: u64,
    /// Full re-executions in the commit-after redo loop.
    pub redo_runs: u64,
    /// Inverse-transaction executions in the commit-before undo loop.
    pub undo_runs: u64,
    /// Pre-vote retries after erroneous aborts.
    pub pre_vote_retries: u64,
    /// Marker lookups performed.
    pub marker_checks: u64,
}

amc_types::wire_struct!(CommStats {
    submits: u64,
    votes_ready: u64,
    votes_aborted: u64,
    redo_runs: u64,
    undo_runs: u64,
    pre_vote_retries: u64,
    marker_checks: u64,
});

impl std::ops::AddAssign for CommStats {
    fn add_assign(&mut self, other: Self) {
        // Destructured in full: a new counter does not compile until it
        // is summed here.
        let CommStats {
            submits,
            votes_ready,
            votes_aborted,
            redo_runs,
            undo_runs,
            pre_vote_retries,
            marker_checks,
        } = other;
        self.submits += submits;
        self.votes_ready += votes_ready;
        self.votes_aborted += votes_aborted;
        self.redo_runs += redo_runs;
        self.undo_runs += undo_runs;
        self.pre_vote_retries += pre_vote_retries;
        self.marker_checks += marker_checks;
    }
}

/// What the manager remembers of a global transaction while it may still
/// have to run it forward: its scalars, and the program.
#[derive(Debug)]
struct WorkEntry {
    scalars: Snapshot,
    /// The decomposed operations: commit-after's redo program.
    ops: Vec<Operation>,
}

impl WorkEntry {
    fn new(ops: Vec<Operation>, mut scalars: Snapshot) -> WorkEntry {
        scalars.read_only = ops.iter().all(|op| !op.is_update());
        WorkEntry { scalars, ops }
    }
}

/// What a handler reads of a slot once the stripe lock is released: the
/// scalars, not the program.
#[derive(Debug, Clone, Copy)]
struct Snapshot {
    /// Protocol flavour the submit ran under.
    mode: SubmitMode,
    /// The local transaction executing it.
    ltx: Option<LocalTxnId>,
    /// The local transaction committed (commit-before, a read-only vote,
    /// or a redo).
    committed_locally: bool,
    /// The vote reported to the coordinator.
    vote: LocalVote,
    read_only: bool,
    /// Rebuilt by [`LocalCommManager::restore_work`] after a process
    /// restart: the message that settles it resolves an in-doubt window,
    /// reported as an `InDoubtResolved` event.
    recovered: bool,
}

/// A settled slot is one word: the local id in the low `LTX_BITS` bits;
/// in the top byte 1 + the mode's discriminant (so no slot is 0), the
/// vote's, and four flags.
const LTX_BITS: u32 = 56;

impl Snapshot {
    /// The scalars of work that voted `vote`; not read-only, not restored.
    fn new(mode: SubmitMode, ltx: Option<LocalTxnId>, committed: bool, vote: LocalVote) -> Self {
        Snapshot {
            mode,
            ltx,
            committed_locally: committed,
            vote,
            read_only: false,
            recovered: false,
        }
    }

    /// A presumed-abort tombstone: the coordinator already treats this
    /// transaction as aborted, so a late `Submit` must not execute.
    fn tombstone(mode: SubmitMode) -> Snapshot {
        let mut dead = Snapshot::new(mode, None, false, LocalVote::Aborted);
        dead.read_only = true;
        dead
    }

    fn is_tombstone(&self) -> bool {
        self.ltx.is_none() && !self.committed_locally && self.vote == LocalVote::Aborted
    }

    fn pack(self) -> u64 {
        let ltx = self.ltx.map_or(0, LocalTxnId::raw);
        assert!(ltx >> LTX_BITS == 0, "local id {ltx} past {LTX_BITS} bits");
        let flags = u64::from(self.committed_locally)
            | u64::from(self.read_only) << 1
            | u64::from(self.recovered) << 2
            | u64::from(self.ltx.is_some()) << 3;
        (flags << 4 | (self.vote as u64) << 2 | (self.mode as u64 + 1)) << LTX_BITS | ltx
    }

    /// The scalars `word` packs; `None` for the empty word.
    fn unpack(word: u64) -> Option<Snapshot> {
        use {LocalVote::*, SubmitMode::*};
        let top = word >> LTX_BITS;
        let flag = |n: u32| top >> (4 + n) & 1 == 1;
        Some(Snapshot {
            mode: [TwoPhase, CommitAfter, CommitBefore][(top & 3).checked_sub(1)? as usize],
            ltx: flag(3).then(|| LocalTxnId::new(word & ((1 << LTX_BITS) - 1))),
            committed_locally: flag(0),
            vote: [Ready, ReadyReadOnly, Aborted][(top >> 2 & 3) as usize],
            read_only: flag(1),
            recovered: flag(2),
        })
    }
}

/// Consecutive slots of a stripe that one block of its dense table holds.
const BLOCK: usize = 64;

/// One stripe of the work map. Work that may still be run forward here
/// keeps its entry, program included, in a small map; every other slot is
/// settled, one packed word of a dense table whose blocks are keyed by
/// `gtx / WORK_STRIPES / BLOCK`, so a sparse id range costs one block.
/// Blocks pay while the site serves a fair share `f` of the ids: a slot
/// costs `8 / f` bytes (DESIGN §7 gives the break-even, about 10 sites).
/// Slots are never reclaimed (ROADMAP 6(a)): a finished transaction costs
/// a word at each site it touched, for good.
#[derive(Default)]
struct Stripe {
    live: HashMap<GlobalTxnId, WorkEntry>,
    done: BTreeMap<u64, Box<[u64; BLOCK]>>,
}

impl Stripe {
    /// The block key and offset of `gtx`'s word.
    fn place(gtx: GlobalTxnId) -> (u64, usize) {
        let at = gtx.raw() / WORK_STRIPES as u64;
        (at / BLOCK as u64, at as usize % BLOCK)
    }

    fn get(&self, gtx: GlobalTxnId) -> Option<Snapshot> {
        if let Some(entry) = self.live.get(&gtx) {
            return Some(entry.scalars);
        }
        let (block, at) = Stripe::place(gtx);
        Snapshot::unpack(self.done.get(&block)?[at])
    }

    /// Settle `gtx`'s slot as `scalars`: its program, if any, is freed.
    fn settle(&mut self, gtx: GlobalTxnId, scalars: Snapshot) {
        self.live.remove(&gtx);
        let (key, at) = Stripe::place(gtx);
        self.done.entry(key).or_insert_with(|| Box::new([0; BLOCK]))[at] = scalars.pack();
    }
}

/// Summary of one site-recovery pass, reported over the admin channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Local transactions whose commit record was replayed from the WAL.
    pub committed: u64,
    /// Loser transactions rolled back during restart (undo pass).
    pub rolled_back: u64,
    /// Prepared transactions resurrected in doubt, awaiting the
    /// coordinator's final state (§3.1's blocking window).
    pub in_doubt: u64,
    /// WAL records replayed (redo + undo applications).
    pub replayed: u64,
    /// Work-map slots rebuilt from the local database
    /// ([`LocalCommManager::restore_work`]).
    pub restored_entries: u64,
    /// Whether a torn tail was truncated from the WAL at open.
    pub torn_tail: bool,
}

amc_types::wire_struct!(RecoveryStats {
    committed: u64,
    rolled_back: u64,
    in_doubt: u64,
    replayed: u64,
    restored_entries: u64,
    torn_tail: bool,
});

/// Handle to a sealed engine, optionally with the 2PC-only prepare
/// extension.
#[derive(Clone)]
pub enum EngineHandle {
    /// An unmodifiable engine (the integration reality).
    Plain(Arc<dyn LocalEngine>),
    /// A "modified" engine exposing the ready state (2PC baseline only).
    Preparable(Arc<dyn PreparableEngine>),
}

impl EngineHandle {
    /// The engine as the universal sealed interface.
    pub fn engine(&self) -> &dyn LocalEngine {
        match self {
            EngineHandle::Plain(e) => e.as_ref(),
            EngineHandle::Preparable(e) => e.as_ref(),
        }
    }
}

/// Repetition bound — the paper argues repetitions terminate; we bound
/// them anyway so a sick test fails loudly instead of spinning.
const MAX_ATTEMPTS: u32 = 100;

/// The two bounded repetitions of §3: commit-after's redo of the forward
/// program, commit-before's undo by the inverse program.
#[derive(Clone, Copy)]
enum Repeat {
    Redo,
    Undo,
}

/// How many independently locked maps the per-transaction state is
/// spread over.
const WORK_STRIPES: usize = 16;

/// The per-site communication manager.
pub struct LocalCommManager {
    site: SiteId,
    handle: EngineHandle,
    /// Per-transaction protocol state, striped by transaction id, so that
    /// handlers of different transactions rarely meet on one lock.
    work: [Mutex<Stripe>; WORK_STRIPES],
    stats: Mutex<CommStats>,
    /// Pre-vote retry bound. Deliberately small: a submit that keeps
    /// hitting erroneous aborts may be one leg of a *distributed* lock
    /// cycle with another transaction's mandatory redo — and before the
    /// vote nothing has been promised, so giving up (voting abort) is
    /// always safe and breaks the cycle. This is the paper's "aborted by
    /// the local transaction manager, e.g. because of time out".
    pre_vote_retries: u32,
    injector: Mutex<Option<AbortInjector>>,
    /// Stats from the last restart recovery pass, for the admin channel.
    recovery: Mutex<Option<RecoveryStats>>,
    /// Weyl counter feeding the retry-backoff jitter.
    backoff_seed: std::sync::atomic::AtomicU64,
    /// Observability sink (disabled unless a driver attaches one).
    obs: ObsSink,
    /// The Paxos Commit acceptor on this site's log, if it hosts one.
    pub(crate) acceptor: Option<Arc<dyn CoLocatedAcceptor>>,
}

impl LocalCommManager {
    /// Manager for `site` over `handle`.
    pub fn new(site: SiteId, handle: EngineHandle) -> Self {
        LocalCommManager {
            site,
            handle,
            work: std::array::from_fn(|_| Mutex::default()),
            stats: Mutex::new(CommStats::default()),
            pre_vote_retries: 5,
            injector: Mutex::new(None),
            recovery: Mutex::new(None),
            backoff_seed: std::sync::atomic::AtomicU64::new(site.raw() as u64 * 7919),
            obs: ObsSink::disabled(),
            acceptor: None,
        }
    }

    /// Attach an observability sink; redo/undo attempts and the 2PC
    /// in-doubt window emit events attributed to this site. Also forwarded
    /// to the engine's WAL so log forces are attributed correctly.
    pub fn set_obs(&mut self, sink: ObsSink) {
        self.handle.engine().attach_obs(sink.clone(), self.site);
        self.obs = sink;
    }

    /// Host `acceptor`: every dispatch to this manager reaches it first.
    pub fn set_acceptor(&mut self, acceptor: Arc<dyn CoLocatedAcceptor>) {
        self.acceptor = Some(acceptor);
    }

    /// The prepare extension 2PC needs: a plain engine under 2PC is a
    /// federation configuration error.
    fn preparable(&self) -> AmcResult<&dyn PreparableEngine> {
        match &self.handle {
            EngineHandle::Preparable(e) => Ok(e.as_ref()),
            EngineHandle::Plain(_) => Err(AmcError::Protocol(format!(
                "{} runs a non-preparable engine under 2PC",
                self.site
            ))),
        }
    }

    /// Stats from the last restart recovery pass, if this process went
    /// through one.
    pub(crate) fn recovery_stats(&self) -> Option<RecoveryStats> {
        *self.recovery.lock()
    }

    /// Record `gtx`'s freshly voted work: its program `ops` and `scalars`.
    /// Commit-before work is over here at its vote (committed, or
    /// aborted), and a vote that leaves the decision round has nothing to
    /// run forward: both settle at once. An `Undo` brings its own program.
    fn record_work(&self, gtx: GlobalTxnId, ops: Vec<Operation>, scalars: Snapshot) {
        let entry = WorkEntry::new(ops, scalars);
        let left = matches!(scalars.vote, LocalVote::ReadyReadOnly | LocalVote::Aborted);
        let mut stripe = self.work(gtx);
        match scalars.mode == SubmitMode::CommitBefore || left {
            true => stripe.settle(gtx, entry.scalars),
            false => drop(stripe.live.insert(gtx, entry)),
        }
    }

    /// Replace the work map, tombstones included, with what the local
    /// database remembers (see the module docs), as a new process over the
    /// same log knows it: every forward marker is committed work (ready,
    /// nothing to redo), every named prepare of the engine's recovery
    /// `report` 2PC work the log resurrected in doubt or finished. Work the
    /// database has no trace of died uncommitted and needs no slot; nor
    /// does a decided prepare a log cut dropped
    /// ([`LocalCommManager::handle_decision`]). Restored slots emit an
    /// `InDoubtResolved` event when a message settles them. Called before
    /// the site serves again; returns the stats the admin `Recovery` serves.
    pub fn restore_work(&self, report: &RecoveryReport) -> AmcResult<RecoveryStats> {
        let committed = self
            .handle
            .engine()
            .dump()?
            .into_keys()
            .filter_map(forward_gtx);
        let committed = committed.map(|gtx| (gtx, SubmitMode::CommitBefore, None));
        let prepared = report
            .prepared
            .iter()
            .map(|&(gtx, ltx)| (gtx, SubmitMode::TwoPhase, Some(ltx)));
        let restored: Vec<_> = committed.chain(prepared).collect();
        for stripe in &self.work {
            *stripe.lock() = Stripe::default();
        }
        for &(gtx, mode, ltx) in &restored {
            let mut slot = Snapshot::new(mode, ltx, ltx.is_none(), LocalVote::Ready);
            slot.recovered = true;
            self.work(gtx).settle(gtx, slot);
        }
        let stats = RecoveryStats {
            committed: report.committed.len() as u64,
            rolled_back: report.rolled_back.len() as u64,
            in_doubt: report.in_doubt.len() as u64,
            replayed: report.replayed,
            restored_entries: restored.len() as u64,
            torn_tail: report.torn_tail,
        };
        *self.recovery.lock() = Some(stats);
        Ok(stats)
    }

    /// The stripe of the work map that holds `gtx`, locked.
    fn work(&self, gtx: GlobalTxnId) -> MutexGuard<'_, Stripe> {
        self.work[gtx.raw() as usize % WORK_STRIPES].lock()
    }

    /// Settle `gtx`'s slot, if it has one, as `f` leaves its scalars: nothing
    /// will be run forward here again. Returns the scalars `f` was given.
    fn settle(&self, gtx: GlobalTxnId, f: impl FnOnce(&mut Snapshot)) -> Option<Snapshot> {
        let mut stripe = self.work(gtx);
        let before = stripe.get(gtx)?;
        let mut after = before;
        f(&mut after);
        stripe.settle(gtx, after);
        Some(before)
    }

    /// This message settled `gtx` here. If the slot was restored after a
    /// restart, the message also resolved its in-doubt window: emit that
    /// once.
    fn finish(&self, gtx: GlobalTxnId, verdict: amc_types::GlobalVerdict) {
        let restored = self.settle(gtx, |s| s.recovered = false);
        if restored.is_some_and(|s| s.recovered) {
            self.obs
                .emit(Some(gtx), self.site, EventKind::InDoubtResolved { verdict });
        }
    }

    /// Jittered backoff between repetition attempts. Retries restart with a
    /// *fresh* local transaction id, which makes them the youngest — and
    /// therefore the preferred deadlock victim — every time; without
    /// spacing, two colliding repetition loops can victimise each other
    /// indefinitely.
    fn backoff(&self, attempt: u32) {
        if attempt == 0 {
            return;
        }
        let weyl = self
            .backoff_seed
            .fetch_add(0x9e37_79b9_7f4a_7c15, std::sync::atomic::Ordering::Relaxed);
        let jitter_us = (weyl >> 48) % 700; // 0..700 µs
        let base_us = u64::from(attempt.min(20)) * 200;
        std::thread::sleep(std::time::Duration::from_micros(base_us + jitter_us));
    }

    /// Arm the E2 injector: after each commit-after ready vote, the local
    /// transaction is erroneously aborted with probability `p` (seeded,
    /// deterministic). Pass `0.0` to disarm.
    pub fn inject_post_ready_aborts(&self, p: f64, seed: u64) {
        *self.injector.lock() = (p > 0.0).then_some(AbortInjector { p, state: seed });
    }

    /// This manager's site.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// The underlying engine handle.
    pub fn handle(&self) -> &EngineHandle {
        &self.handle
    }

    /// Counters.
    pub fn stats(&self) -> CommStats {
        *self.stats.lock()
    }

    /// The local transaction currently associated with `gtx` (none once
    /// commit-before work has committed: that local transaction is over).
    pub(crate) fn local_txn_of(&self, gtx: GlobalTxnId) -> Option<LocalTxnId> {
        self.work(gtx).get(gtx)?.ltx
    }

    /// Check whether a marker committed, via a small read-only transaction.
    fn marker_present(&self, obj: ObjectId) -> AmcResult<bool> {
        self.stats.lock().marker_checks += 1;
        Ok(self.read_committed(&[obj])?[0].is_some())
    }

    /// The committed values of `objs` (`None` where absent), read in one
    /// small read-only transaction. Retries erroneous aborts (the read
    /// itself can be a deadlock victim).
    fn read_committed(&self, objs: &[ObjectId]) -> AmcResult<Vec<Option<Value>>> {
        if objs.is_empty() {
            return Ok(Vec::new());
        }
        let engine = self.handle.engine();
        'attempt: for attempt in 0..MAX_ATTEMPTS {
            self.backoff(attempt);
            let t = engine.begin()?;
            let mut values = Vec::with_capacity(objs.len());
            for &obj in objs {
                match engine.execute(t, &Operation::Read { obj }) {
                    Ok(read) => values.push(read.value()),
                    Err(AmcError::NotFound(_)) => values.push(None),
                    Err(AmcError::Aborted(r)) if r.is_erroneous() => continue 'attempt,
                    Err(e) => {
                        let _ = engine.abort(t, AbortReason::Intended);
                        return Err(e);
                    }
                }
            }
            engine.commit(t)?;
            return Ok(values);
        }
        Err(AmcError::Protocol("committed read never succeeded".into()))
    }

    /// Execute `ops`, then the `marker` insert if there is one, inside a
    /// fresh local transaction, leaving it in the state `commit_now`
    /// dictates. Returns the local txn id on success, or the abort
    /// classification.
    ///
    /// With `images`, every update that overwrites or removes a value is
    /// preceded by a read of its before image, which the same transaction
    /// stores as the operation's [`before_image`] row of that global
    /// transaction — §3.3's undo-log, committed with the work it undoes.
    /// Commutative increments need neither: MLT's site-side advantage (its
    /// L1 side is E15's `commit-before/rw` regime, E15-3 and C4-3).
    fn run_ops(
        &self,
        ops: &[Operation],
        marker: Option<ObjectId>,
        commit_now: bool,
        images: Option<GlobalTxnId>,
    ) -> AmcResult<Result<LocalTxnId, AbortReason>> {
        let engine = self.handle.engine();
        let ltx = engine.begin()?;
        let failed = |e| self.failed(ltx, e);
        let value = Value::ZERO;
        let marker = marker.map(|obj| Operation::Insert { obj, value });
        for (i, op) in ops.iter().chain(&marker).enumerate() {
            let row = match images.filter(|_| i < ops.len() && needs_before_image(op)) {
                None => None,
                Some(gtx) => {
                    // No row id (`before_image`'s range): the work could not
                    // be undone, so it must not run.
                    let Some(obj) = before_image(gtx, i) else {
                        let e = format!("op {i} of {gtx} has no before-image row");
                        return failed(AmcError::InvalidState(e));
                    };
                    match engine.execute(ltx, &Operation::Read { obj: op.object() }) {
                        Ok(read) => read.value().map(|value| Operation::Insert { obj, value }),
                        Err(AmcError::NotFound(_)) => None,
                        Err(e) => return failed(e),
                    }
                }
            };
            for step in std::iter::once(op).chain(&row) {
                if let Err(e) = engine.execute(ltx, step) {
                    return failed(e);
                }
            }
        }
        if commit_now {
            match engine.commit(ltx) {
                Ok(()) => {}
                Err(AmcError::Aborted(r)) => return Ok(Err(r)), // e.g. OCC validation
                Err(e) => return Err(e),
            }
        }
        Ok(Ok(ltx))
    }

    /// How `ltx` ends after an operation failed with `e`: an engine abort
    /// is already rolled back; NotFound, AlreadyExists and the like are
    /// transaction logic saying no — an *intended* abort (§3.2's
    /// distinction).
    fn failed(&self, ltx: LocalTxnId, e: AmcError) -> AmcResult<Result<LocalTxnId, AbortReason>> {
        match e {
            AmcError::Aborted(r) => Ok(Err(r)),
            AmcError::SiteDown(s) => Err(AmcError::SiteDown(s)),
            _logical => {
                self.handle.engine().abort(ltx, AbortReason::Intended)?;
                Ok(Err(AbortReason::Intended))
            }
        }
    }

    /// Count `vote` and wrap it as the reply.
    fn vote_reply(&self, gtx: GlobalTxnId, vote: LocalVote) -> Payload {
        let mut stats = self.stats.lock();
        if vote.is_yes() {
            stats.votes_ready += 1;
        } else {
            stats.votes_aborted += 1;
        }
        Payload::Vote { gtx, vote }
    }

    /// The vote an earlier copy of this submit already produced, if any.
    /// Duplicate or superseded submits must not execute again:
    ///
    /// * a tombstone (an `Aborted` vote with no local transaction) means
    ///   the coordinator already presumed this transaction aborted (an
    ///   abort decision or post-crash inquiry beat the submit here) —
    ///   executing now would resurrect dead work;
    /// * any other vote means an earlier copy of this submit already ran
    ///   (at-least-once delivery) — re-executing would collide with the
    ///   running original (or double-commit); answer idempotently.
    fn prior_vote(&self, gtx: GlobalTxnId) -> Option<LocalVote> {
        Some(self.work(gtx).get(gtx)?.vote)
    }

    /// Run `attempt` until it succeeds, aborts for a reason repetition
    /// cannot cure, or the pre-vote retry budget is spent: nothing has
    /// been promised before the vote, so giving up is always safe.
    fn retry_pre_vote(
        &self,
        mut attempt: impl FnMut() -> AmcResult<Result<LocalTxnId, AbortReason>>,
    ) -> AmcResult<Result<LocalTxnId, AbortReason>> {
        let mut retries = 0;
        loop {
            match attempt()? {
                Err(r) if r.is_erroneous() && retries < self.pre_vote_retries => {
                    self.stats.lock().pre_vote_retries += 1;
                    retries += 1;
                    self.backoff(retries);
                }
                outcome => return Ok(outcome),
            }
        }
    }

    /// Handle a `Submit`: run the decomposed local transaction and vote.
    pub fn handle_submit(
        &self,
        gtx: GlobalTxnId,
        ops: Vec<Operation>,
        mode: SubmitMode,
    ) -> AmcResult<Payload> {
        self.stats.lock().submits += 1;
        if let Some(vote) = self.prior_vote(gtx) {
            return Ok(self.vote_reply(gtx, vote));
        }
        // Read-only optimization (cf. the derived 2PC protocols of §5): a
        // local transaction with no updates has nothing to redo or undo —
        // under the portable protocols it commits right here (releasing its
        // read locks) and drops out of the decision round. 2PC applies the
        // same optimization at prepare time instead.
        let read_only = ops.iter().all(|op| !op.is_update());
        // The marker participates in the transaction for the two portable
        // protocols (see module docs) — read-only transactions skip it
        // (nothing to repeat, nothing to invert).
        let with_marker = mode != SubmitMode::TwoPhase && !read_only;
        let commit_now =
            mode == SubmitMode::CommitBefore || (mode == SubmitMode::CommitAfter && read_only);

        // Commit-before's undo-log is the before images its local
        // transaction writes beside the work, committed and forced with it.
        let images = (mode == SubmitMode::CommitBefore).then_some(gtx);
        let marker = with_marker.then(|| forward_marker(gtx));
        let outcome = self.retry_pre_vote(|| self.run_ops(&ops, marker, commit_now, images))?;

        let vote = match outcome {
            Ok(_) if read_only && mode != SubmitMode::TwoPhase => LocalVote::ReadyReadOnly,
            Ok(_) => LocalVote::Ready,
            Err(_) => LocalVote::Aborted,
        };
        let ltx = outcome.ok();
        let scalars = Snapshot::new(mode, ltx, commit_now && ltx.is_some(), vote);
        self.record_work(gtx, ops, scalars);
        // E2 injection: the §3.2 hazard — an erroneous abort strikes the
        // still-running transaction *after* the ready vote.
        if mode == SubmitMode::CommitAfter && vote == LocalVote::Ready {
            let fire = self.injector.lock().as_mut().map(AbortInjector::fire);
            if let (Some(true), Some(l)) = (fire, ltx) {
                let _ = self.handle.engine().abort(l, AbortReason::LockTimeout);
            }
        }
        Ok(self.vote_reply(gtx, vote))
    }

    /// Handle a `SubmitPrepare` — the 1PC fast path: the final op dispatch
    /// carries the prepare, so this reply doubles as the site's vote.
    ///
    /// * `solo`: the transaction touches only this site — commit locally
    ///   with no global round. The commit-before machinery (forward marker,
    ///   before-image rows) is reused verbatim, so a lost
    ///   reply is safe: the coordinator presumes abort and its `Undo`
    ///   obligation finds the before images and the exactly-once markers.
    /// * piggyback under 2PC: run the ops **and** drive the engine to the
    ///   ready state in one [`PreparableEngine::apply_and_prepare`] call —
    ///   op records and the prepare record share one group-commit force,
    ///   and recovery resurrects the prepare exactly like a classic one.
    /// * piggyback under the portable protocols: their vote already rides
    ///   the submit reply, so the ordinary submit path *is* the fast path.
    pub(crate) fn handle_submit_prepare(
        &self,
        gtx: GlobalTxnId,
        ops: Vec<Operation>,
        solo: bool,
        mode: SubmitMode,
    ) -> AmcResult<Payload> {
        if solo || mode != SubmitMode::TwoPhase {
            let mode = if solo { SubmitMode::CommitBefore } else { mode };
            return self.handle_submit(gtx, ops, mode);
        }
        self.stats.lock().submits += 1;
        if let Some(vote) = self.prior_vote(gtx) {
            return Ok(self.vote_reply(gtx, vote));
        }
        let prep = self.preparable()?;
        // Read-only optimization, applied at the combined dispatch: nothing
        // to prepare — commit now and drop out of the decision round.
        let read_only = ops.iter().all(|op| !op.is_update());
        let outcome = self.retry_pre_vote(|| {
            if read_only {
                return self.run_ops(&ops, None, true, None);
            }
            let ltx = self.handle.engine().begin()?;
            match prep.apply_and_prepare(ltx, gtx, &ops) {
                Ok(_) => Ok(Ok(ltx)),
                Err(e) => self.failed(ltx, e),
            }
        })?;
        let vote = match outcome {
            Ok(_) if read_only => LocalVote::ReadyReadOnly,
            Ok(_) => LocalVote::Ready,
            Err(_) => LocalVote::Aborted,
        };
        let scalars = Snapshot::new(mode, outcome.ok(), read_only && outcome.is_ok(), vote);
        self.record_work(gtx, ops, scalars);
        if vote == LocalVote::Ready {
            // The §5 blocking hazard starts at the piggybacked prepare too.
            self.obs.emit(Some(gtx), self.site, EventKind::BlockEnter);
        }
        Ok(self.vote_reply(gtx, vote))
    }

    /// Handle a `Prepare` inquiry.
    ///
    /// * 2PC: drive the engine to the ready state (requires a preparable
    ///   engine — a plain engine here is a federation configuration error).
    /// * commit-after / commit-before: report the current knowledge; after
    ///   a crash the markers are the source of truth (§3.3: "after the
    ///   local recovery is finished ... the answer to the prepare message
    ///   is abort" — unless the commit survived).
    pub fn handle_prepare(&self, gtx: GlobalTxnId) -> AmcResult<Payload> {
        let snapshot = self.work(gtx).get(gtx);
        let vote = match snapshot {
            Some(w) => match w.mode {
                SubmitMode::TwoPhase => {
                    let prep = self.preparable()?;
                    let engine = self.handle.engine();
                    match w.ltx.map(|ltx| (ltx, engine.state_of(ltx))) {
                        // Re-inquiry of an already-prepared transaction.
                        Some((_, Some(LocalRunState::Ready))) => LocalVote::Ready,
                        // Read-only optimization: commit now, drop out of
                        // the decision round, and settle as any vote that
                        // leaves it does (the recorded vote stays the
                        // submit's).
                        Some((ltx, Some(LocalRunState::Running))) if w.read_only => {
                            match engine.commit(ltx) {
                                Ok(()) => {
                                    self.settle(gtx, |s| s.committed_locally = true);
                                    LocalVote::ReadyReadOnly
                                }
                                Err(_) => LocalVote::Aborted,
                            }
                        }
                        // Duplicate prepare after the read-only commit.
                        Some((_, Some(LocalRunState::Committed))) if w.read_only => {
                            LocalVote::ReadyReadOnly
                        }
                        Some((ltx, _)) => match prep.prepare_as(ltx, gtx) {
                            Ok(()) => {
                                // The §5 blocking hazard starts here: the
                                // participant is in doubt until a decision
                                // arrives.
                                self.obs.emit(Some(gtx), self.site, EventKind::BlockEnter);
                                LocalVote::Ready
                            }
                            Err(_) => LocalVote::Aborted,
                        },
                        None => LocalVote::Aborted,
                    }
                }
                SubmitMode::CommitAfter => match w.ltx {
                    // Voted ready and the transaction still exists in some
                    // live form (running, or already committed via redo).
                    Some(ltx) => match self.handle.engine().state_of(ltx) {
                        Some(LocalRunState::Running) | Some(LocalRunState::Committed) => {
                            LocalVote::Ready
                        }
                        // Erroneously aborted after ready: *still ready* —
                        // the redo mechanism guarantees eventual commit
                        // (§3.2). Intended aborts voted Aborted at submit.
                        _ if w.vote == LocalVote::Ready => LocalVote::Ready,
                        _ => LocalVote::Aborted,
                    },
                    None => LocalVote::Aborted,
                },
                // Committed at submit; else ready only if a crash raced
                // the bookkeeping and the marker shows the commit survived.
                SubmitMode::CommitBefore if w.committed_locally => LocalVote::Ready,
                SubmitMode::CommitBefore => self.vote_marked(gtx)?,
            },
            // Unknown transaction: the submit never reached us, or our
            // engine crashed before anything durable happened — unless a
            // marker proves a commit-before transaction made it. A no-marker
            // answer leaves a tombstone so a late submit cannot resurrect
            // the transaction after we reported it aborted.
            None => {
                let vote = self.vote_marked(gtx)?;
                if vote == LocalVote::Aborted {
                    self.lay_tombstone(gtx, SubmitMode::CommitBefore);
                }
                vote
            }
        };
        Ok(self.vote_reply(gtx, vote))
    }

    /// Ready iff `gtx`'s forward marker proves its commit.
    fn vote_marked(&self, gtx: GlobalTxnId) -> AmcResult<LocalVote> {
        Ok(match self.marker_present(forward_marker(gtx))? {
            true => LocalVote::Ready,
            false => LocalVote::Aborted,
        })
    }

    /// Leave a presumed-abort tombstone for `gtx` unless work for it is
    /// already known. It lives in memory only: after a restart no `Submit`
    /// older than the restart can arrive (every connection died with the
    /// process, and a coordinator never re-sends a `Submit`: it inquires).
    fn lay_tombstone(&self, gtx: GlobalTxnId, mode: SubmitMode) {
        let mut stripe = self.work(gtx);
        if stripe.get(gtx).is_none() {
            stripe.settle(gtx, Snapshot::tombstone(mode));
        }
    }

    /// Mark `gtx`'s work committed locally — by the repetition `redo`
    /// when there was one, else by its original local transaction.
    fn note_local_commit(&self, gtx: GlobalTxnId, redo: Option<LocalTxnId>) {
        if let Some(entry) = self.work(gtx).live.get_mut(&gtx) {
            entry.scalars.committed_locally = true;
            entry.scalars.ltx = redo.or(entry.scalars.ltx);
        }
    }

    /// The commit-after redo loop (§3.2, Fig. 4's double arrow): repeat the
    /// local transaction until its marker proves a commit.
    ///
    /// Fast path first: when the *original* local transaction is still
    /// running (e.g. the commit decision was lost in transit and arrives
    /// again as a `Redo`), simply commit it — repetition is only for
    /// transactions that no longer exist.
    fn redo_until_committed(&self, gtx: GlobalTxnId, ops: &[Operation]) -> AmcResult<()> {
        if let Some(ltx) = self.local_txn_of(gtx) {
            if self.handle.engine().state_of(ltx) == Some(LocalRunState::Running)
                && self.handle.engine().commit(ltx).is_ok()
            {
                self.note_local_commit(gtx, None);
                return Ok(());
            }
        }
        if let Some(ltx) = self.repeat_until_marked(gtx, ops, Repeat::Redo)? {
            self.note_local_commit(gtx, Some(ltx));
        }
        Ok(())
    }

    /// §3.2's redo and §3.3's undo are one loop (Fig. 4's and Fig. 6's
    /// double arrows): back off; if the marker proves an earlier run
    /// committed, done; else run `ops` plus the marker insert as one local
    /// transaction, again while it aborts erroneously. Returns the local
    /// transaction that committed, `None` when the marker already had.
    fn repeat_until_marked(
        &self,
        gtx: GlobalTxnId,
        ops: &[Operation],
        kind: Repeat,
    ) -> AmcResult<Option<LocalTxnId>> {
        let (marker, program, name) = match kind {
            Repeat::Redo => (forward_marker(gtx), "redo", "redo"),
            Repeat::Undo => (undo_marker(gtx), "inverse transaction", "undo"),
        };
        for attempt in 0..MAX_ATTEMPTS {
            self.backoff(attempt);
            if self.marker_present(marker)? {
                return Ok(None);
            }
            let attempt = u64::from(attempt) + 1;
            let event = match kind {
                Repeat::Redo => {
                    self.stats.lock().redo_runs += 1;
                    EventKind::RedoRun { attempt }
                }
                Repeat::Undo => {
                    self.stats.lock().undo_runs += 1;
                    EventKind::UndoRun { attempt }
                }
            };
            self.obs.emit(Some(gtx), self.site, event);
            match self.run_ops(ops, Some(marker), true, None)? {
                Ok(ltx) => return Ok(Some(ltx)),
                Err(r) if r.is_erroneous() => continue,
                Err(r) => {
                    // The termination arguments of §3.2/§3.3: the first run
                    // finished all actions, so neither its repetition nor
                    // its inverse can fail for logical reasons. If one
                    // does, a protocol invariant is broken.
                    return Err(AmcError::Protocol(format!(
                        "{program} of {gtx} failed with intended abort ({r})"
                    )));
                }
            }
        }
        Err(AmcError::Protocol(format!(
            "{name} of {gtx} exceeded {MAX_ATTEMPTS} attempts"
        )))
    }

    /// Handle a `Decision` for work submitted under `mode`.
    pub fn handle_decision(
        &self,
        gtx: GlobalTxnId,
        verdict: amc_types::GlobalVerdict,
        mode: SubmitMode,
    ) -> AmcResult<Payload> {
        use amc_types::GlobalVerdict;
        let snapshot = self.work(gtx).get(gtx);
        let engine = self.handle.engine();
        match snapshot {
            // A commit decision can never legitimately follow a presumed
            // abort: the coordinator decided commit only on unanimous ready
            // votes, and a tombstone means we never voted ready.
            Some(w) if w.is_tombstone() && verdict == GlobalVerdict::Commit => {
                return Err(AmcError::Protocol(format!(
                    "commit decision for presumed-aborted {gtx} at {}",
                    self.site
                )));
            }
            Some(w) => match (w.mode, verdict) {
                (SubmitMode::TwoPhase, GlobalVerdict::Commit) => {
                    let ltx = w.ltx.ok_or_else(|| {
                        AmcError::Protocol(format!("commit decision for unstarted {gtx}"))
                    })?;
                    match engine.state_of(ltx) {
                        Some(LocalRunState::Committed) => {} // duplicate decision
                        _ => engine.commit(ltx)?,
                    }
                    self.obs
                        .emit(Some(gtx), self.site, EventKind::BlockExit { verdict });
                }
                (SubmitMode::TwoPhase, GlobalVerdict::Abort) => {
                    if let Some(ltx) = w.ltx {
                        match engine.state_of(ltx) {
                            Some(LocalRunState::Aborted) | None => {}
                            // Read-only participant: it committed at its
                            // vote and dropped out of the decision round.
                            // The coordinator can still ship us the abort
                            // when our ReadyReadOnly raced another site's
                            // no vote — a read-only commit wrote nothing,
                            // so the global abort needs no local work.
                            Some(LocalRunState::Committed) if w.committed_locally => {}
                            _ => engine.abort(ltx, AbortReason::GlobalDecision)?,
                        }
                    }
                    self.obs
                        .emit(Some(gtx), self.site, EventKind::BlockExit { verdict });
                }
                (SubmitMode::CommitAfter, GlobalVerdict::Commit) => {
                    if w.committed_locally {
                        // Read-only participant: already committed at
                        // submit; a stray decision needs no work.
                        self.finish(gtx, verdict);
                        return Ok(Payload::Finished { gtx });
                    }
                    // Fast path: the original transaction is still running.
                    if w.ltx.is_some_and(|ltx| engine.commit(ltx).is_ok()) {
                        self.note_local_commit(gtx, None);
                    } else {
                        // Erroneous abort after ready (or crash): repeat
                        // until committed. A duplicate has no program: the
                        // marker ends the loop at once.
                        let live = self.work(gtx).live.get(&gtx).map(|e| e.ops.clone());
                        let ops = live.unwrap_or_default();
                        self.redo_until_committed(gtx, &ops)?;
                    }
                }
                (SubmitMode::CommitBefore, GlobalVerdict::Commit) => {
                    // Already committed locally; the decision is a no-op
                    // (§3.3: "the global transaction manager does not need
                    // to start further actions").
                }
                (_, GlobalVerdict::Abort) => {
                    // Anything but Running is already gone: it aborted on
                    // its own, or committed before (whose undo travels in a
                    // separate `Undo` message).
                    let running = |ltx| engine.state_of(ltx) == Some(LocalRunState::Running);
                    if let Some(ltx) = w.ltx.filter(|&ltx| running(ltx)) {
                        engine.abort(ltx, AbortReason::GlobalDecision)?;
                    }
                }
            },
            // Unknown gtx: tolerate duplicate/late abort decisions — the
            // protocols retransmit — but leave a tombstone so a late submit
            // cannot start work the coordinator already aborted.
            None if verdict == GlobalVerdict::Abort => {
                self.lay_tombstone(gtx, SubmitMode::CommitAfter);
            }
            // 2PC work this process does not know: a commit decision follows
            // this site's forced ready vote, and prepared work cannot abort
            // on its own, so it committed here before a restart whose log
            // cut passed its prepare. Nothing is left to do.
            None if mode == SubmitMode::TwoPhase => {}
            // A commit for portable work this process does not know:
            // committed here before a restart with only the reply lost (the
            // marker says so), or commit-after work whose running local
            // transaction died with the process — and whose program only
            // the coordinator still has. An outage answer makes it re-ship
            // the program as `Redo` (§3.2).
            None => {
                if !self.marker_present(forward_marker(gtx))? {
                    return Err(AmcError::TransientIo(format!(
                        "{gtx} unknown at {}: re-ship its program",
                        self.site
                    )));
                }
            }
        }
        self.finish(gtx, verdict);
        Ok(Payload::Finished { gtx })
    }

    /// Handle a `Redo` retransmission (commit-after, after a site crash).
    pub fn handle_redo(&self, gtx: GlobalTxnId, ops: Vec<Operation>) -> AmcResult<Payload> {
        // Adopt the shipped ops if the submit predates our knowledge.
        let mut stripe = self.work(gtx);
        if stripe.get(gtx).is_none() {
            let adopted = Snapshot::new(SubmitMode::CommitAfter, None, false, LocalVote::Ready);
            let entry = WorkEntry::new(ops.clone(), adopted);
            stripe.live.insert(gtx, entry);
        }
        drop(stripe);
        self.redo_until_committed(gtx, &ops)?;
        self.finish(gtx, amc_types::GlobalVerdict::Commit);
        Ok(Payload::Finished { gtx })
    }

    /// Handle an `Undo` (commit-before, §3.3): run the inverse transaction
    /// until it commits; the undo marker makes it exactly-once.
    ///
    /// `ops` is the forward program, re-shipped by the coordinator as
    /// commit-after's `Redo` re-ships it. Its inverse is a function of the
    /// operations for increments, reserves and inserts (§4's L1 inverse
    /// actions); writes and deletes take their before images from the
    /// rows the forward transaction committed. Nothing of it lives in the
    /// manager's memory, so a site restarted since its local commit undoes
    /// exactly like one that was not.
    pub fn handle_undo(&self, gtx: GlobalTxnId, ops: Vec<Operation>) -> AmcResult<Payload> {
        let program = self.inverse_program(gtx, &ops)?;
        self.repeat_until_marked(gtx, &program, Repeat::Undo)?;
        self.finish(gtx, amc_types::GlobalVerdict::Abort);
        Ok(Payload::Finished { gtx })
    }

    /// The inverse of `gtx`'s forward program `ops`, newest first: the
    /// forward marker, inserted last, is deleted first. A program without
    /// updates has nothing to invert.
    fn inverse_program(&self, gtx: GlobalTxnId, ops: &[Operation]) -> AmcResult<Vec<Operation>> {
        let missing = |i| {
            let site = self.site;
            AmcError::Protocol(format!(
                "undo of {gtx} at {site}: op {i} has no before image"
            ))
        };
        let imaged = |(i, op): (usize, &Operation)| needs_before_image(op).then_some(i);
        let rows: Vec<_> = ops.iter().enumerate().filter_map(imaged).collect();
        let objs = rows
            .iter()
            .map(|&i| before_image(gtx, i).ok_or_else(|| missing(i)));
        let images = self.read_committed(&objs.collect::<AmcResult<Vec<_>>>()?)?;
        let mut program = Vec::with_capacity(ops.len() + 1);
        for (i, op) in ops.iter().enumerate() {
            let before = match rows.binary_search(&i) {
                Ok(at) => Some(images[at].ok_or_else(|| missing(i))?),
                Err(_) => None,
            };
            program.extend(inverse_of(op, before));
        }
        if !program.is_empty() {
            let obj = forward_marker(gtx);
            program.push(Operation::Delete { obj });
        }
        program.reverse();
        Ok(program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amc_engine::{TplConfig, TwoPLEngine};
    use amc_types::{GlobalVerdict, Operation as Op};
    use std::collections::BTreeMap;

    fn obj(n: u64) -> ObjectId {
        ObjectId::new(n)
    }
    fn v(n: i64) -> Value {
        Value::counter(n)
    }
    fn gtx(n: u64) -> GlobalTxnId {
        GlobalTxnId::new(n)
    }

    fn manager_with(data: &[(u64, i64)]) -> (LocalCommManager, Arc<TwoPLEngine>) {
        let engine = Arc::new(TwoPLEngine::new_at(TplConfig::default(), SiteId::new(1)));
        engine
            .bulk_load(
                &data
                    .iter()
                    .map(|&(o, val)| (obj(o), v(val)))
                    .collect::<Vec<_>>(),
            )
            .unwrap();
        let mgr = LocalCommManager::new(SiteId::new(1), EngineHandle::Preparable(engine.clone()));
        (mgr, engine)
    }

    #[test]
    fn commit_before_submit_commits_immediately() {
        let (mgr, engine) = manager_with(&[(1, 10)]);
        let p = mgr
            .handle_submit(
                gtx(1),
                vec![Op::Increment {
                    obj: obj(1),
                    delta: 5,
                }],
                SubmitMode::CommitBefore,
            )
            .unwrap();
        assert_eq!(
            p,
            Payload::Vote {
                gtx: gtx(1),
                vote: LocalVote::Ready
            }
        );
        // Durably committed, marker included.
        assert_eq!(engine.dump().unwrap().get(&obj(1)), Some(&v(15)));
        assert!(mgr.marker_present(forward_marker(gtx(1))).unwrap());
    }

    #[test]
    fn commit_after_submit_leaves_running() {
        let (mgr, engine) = manager_with(&[(1, 10)]);
        let p = mgr
            .handle_submit(
                gtx(1),
                vec![Op::Increment {
                    obj: obj(1),
                    delta: 5,
                }],
                SubmitMode::CommitAfter,
            )
            .unwrap();
        assert_eq!(
            p,
            Payload::Vote {
                gtx: gtx(1),
                vote: LocalVote::Ready
            }
        );
        let ltx = mgr.local_txn_of(gtx(1)).unwrap();
        assert_eq!(engine.state_of(ltx), Some(LocalRunState::Running));
        // Decision commit completes it.
        let f = mgr
            .handle_decision(gtx(1), GlobalVerdict::Commit, SubmitMode::CommitAfter)
            .unwrap();
        assert_eq!(f, Payload::Finished { gtx: gtx(1) });
        assert_eq!(engine.dump().unwrap().get(&obj(1)), Some(&v(15)));
    }

    #[test]
    fn intended_failure_votes_abort() {
        let (mgr, engine) = manager_with(&[(1, 10)]);
        let p = mgr
            .handle_submit(
                gtx(1),
                vec![Op::Read { obj: obj(99) }], // does not exist
                SubmitMode::CommitBefore,
            )
            .unwrap();
        assert_eq!(
            p,
            Payload::Vote {
                gtx: gtx(1),
                vote: LocalVote::Aborted
            }
        );
        assert_eq!(engine.dump().unwrap().get(&obj(1)), Some(&v(10)));
        // No marker: nothing committed.
        assert!(!mgr.marker_present(forward_marker(gtx(1))).unwrap());
    }

    #[test]
    fn redo_after_erroneous_abort_commits_eventually() {
        let (mgr, engine) = manager_with(&[(1, 10)]);
        mgr.handle_submit(
            gtx(1),
            vec![Op::Increment {
                obj: obj(1),
                delta: 5,
            }],
            SubmitMode::CommitAfter,
        )
        .unwrap();
        // Simulate the §3.2 hazard: the engine erroneously aborts the
        // running transaction after the ready vote.
        let ltx = mgr.local_txn_of(gtx(1)).unwrap();
        engine.abort(ltx, AbortReason::LockTimeout).unwrap();
        // The decision still succeeds via the redo loop.
        mgr.handle_decision(gtx(1), GlobalVerdict::Commit, SubmitMode::CommitAfter)
            .unwrap();
        assert_eq!(engine.dump().unwrap().get(&obj(1)), Some(&v(15)));
        assert_eq!(mgr.stats().redo_runs, 1);
    }

    #[test]
    fn redo_is_exactly_once_across_crash() {
        let (mgr, engine) = manager_with(&[(1, 10)]);
        mgr.handle_submit(
            gtx(1),
            vec![Op::Increment {
                obj: obj(1),
                delta: 5,
            }],
            SubmitMode::CommitAfter,
        )
        .unwrap();
        mgr.handle_decision(gtx(1), GlobalVerdict::Commit, SubmitMode::CommitAfter)
            .unwrap();
        assert_eq!(engine.dump().unwrap().get(&obj(1)), Some(&v(15)));
        // Site crashes *after* the commit; the retransmitted Redo must not
        // double-apply (E8).
        engine.crash();
        engine.recover().unwrap();
        mgr.handle_redo(
            gtx(1),
            vec![Op::Increment {
                obj: obj(1),
                delta: 5,
            }],
        )
        .unwrap();
        assert_eq!(engine.dump().unwrap().get(&obj(1)), Some(&v(15)));
        assert_eq!(mgr.stats().redo_runs, 0, "marker short-circuits the redo");
    }

    #[test]
    fn redo_after_crash_before_commit_applies_once() {
        let (mgr, engine) = manager_with(&[(1, 10)]);
        mgr.handle_submit(
            gtx(1),
            vec![Op::Increment {
                obj: obj(1),
                delta: 5,
            }],
            SubmitMode::CommitAfter,
        )
        .unwrap();
        // Crash while still running: the local transaction evaporates.
        engine.crash();
        engine.recover().unwrap();
        mgr.handle_redo(
            gtx(1),
            vec![Op::Increment {
                obj: obj(1),
                delta: 5,
            }],
        )
        .unwrap();
        assert_eq!(engine.dump().unwrap().get(&obj(1)), Some(&v(15)));
        assert_eq!(mgr.stats().redo_runs, 1);
        // A duplicate redo changes nothing.
        mgr.handle_redo(
            gtx(1),
            vec![Op::Increment {
                obj: obj(1),
                delta: 5,
            }],
        )
        .unwrap();
        assert_eq!(engine.dump().unwrap().get(&obj(1)), Some(&v(15)));
    }

    #[test]
    fn undo_reverses_committed_work_exactly_once() {
        let (mgr, engine) = manager_with(&[(1, 10)]);
        mgr.handle_submit(
            gtx(1),
            vec![Op::Increment {
                obj: obj(1),
                delta: 5,
            }],
            SubmitMode::CommitBefore,
        )
        .unwrap();
        assert_eq!(engine.dump().unwrap().get(&obj(1)), Some(&v(15)));
        // Global abort: the undo carries the forward program; the site runs
        // its inverse.
        let forward = vec![Op::Increment {
            obj: obj(1),
            delta: 5,
        }];
        mgr.handle_undo(gtx(1), forward.clone()).unwrap();
        assert_eq!(engine.dump().unwrap().get(&obj(1)), Some(&v(10)));
        assert_eq!(mgr.stats().undo_runs, 1);
        // Duplicate undo (retransmission): marker stops it (E8).
        mgr.handle_undo(gtx(1), forward).unwrap();
        assert_eq!(engine.dump().unwrap().get(&obj(1)), Some(&v(10)));
        assert_eq!(mgr.stats().undo_runs, 1);
    }

    /// §3.3's undo-log lives in the local database: the forward
    /// transaction commits one before-image row per overwrite or removal,
    /// and nothing for operations whose inverse is a function of the
    /// operation. The `Undo` re-ships the program; a fresh manager over the
    /// same database (nothing in memory) restores everything from both.
    #[test]
    fn undo_derives_the_inverse_from_the_program_and_the_before_image_rows() {
        let (mgr, engine) = manager_with(&[(1, 10), (2, 20), (4, 40)]);
        let forward = vec![
            Op::Write {
                obj: obj(1),
                value: v(111),
            },
            Op::Increment {
                obj: obj(2),
                delta: 7,
            },
            Op::Insert {
                obj: obj(3),
                value: v(3),
            },
            Op::Delete { obj: obj(4) },
            Op::Write {
                obj: obj(1),
                value: v(222),
            },
        ];
        mgr.handle_submit(gtx(1), forward.clone(), SubmitMode::CommitBefore)
            .unwrap();
        let d = engine.dump().unwrap();
        assert_eq!(d.get(&obj(1)), Some(&v(222)));
        assert_eq!(d.get(&obj(2)), Some(&v(27)));
        assert_eq!(d.get(&obj(3)), Some(&v(3)));
        assert_eq!(d.get(&obj(4)), None);
        let rows: BTreeMap<_, _> = [0, 3, 4]
            .map(|i| (before_image(gtx(1), i).unwrap(), ()))
            .into();
        let images = |d: &BTreeMap<ObjectId, Value>| {
            let kept = d.iter().filter(|(o, _)| rows.contains_key(o));
            kept.map(|(_, v)| *v).collect::<Vec<_>>()
        };
        assert_eq!(images(&d), [v(10), v(40), v(111)], "ops 0, 3 and 4");
        let reserved = d.keys().filter(|o| o.is_reserved()).count();
        assert_eq!(reserved, 4, "three rows and the forward marker");

        let restarted = LocalCommManager::new(SiteId::new(1), mgr.handle().clone());
        restarted.handle_undo(gtx(1), forward).unwrap();
        let d = engine.dump().unwrap();
        assert_eq!(d.get(&obj(1)), Some(&v(10)));
        assert_eq!(d.get(&obj(2)), Some(&v(20)));
        assert_eq!(d.get(&obj(3)), None);
        assert_eq!(d.get(&obj(4)), Some(&v(40)));
    }

    /// A program whose before images have no row ids cannot be undone, so
    /// commit-before refuses to run it: an abort vote, nothing written.
    #[test]
    fn a_program_past_the_before_image_rows_votes_abort() {
        let (mgr, engine) = manager_with(&[(1, 10)]);
        let mut ops = vec![Op::Read { obj: obj(1) }; 4_096];
        ops.push(Op::Write {
            obj: obj(1),
            value: v(5),
        });
        let vote = mgr.handle_submit(gtx(1), ops, SubmitMode::CommitBefore);
        assert!(matches!(
            vote,
            Ok(Payload::Vote {
                vote: LocalVote::Aborted,
                ..
            })
        ));
        let d = engine.dump().unwrap();
        assert_eq!(d.get(&obj(1)), Some(&v(10)));
        assert!(d.keys().all(|o| !o.is_reserved()), "{d:?}");
    }

    /// A forward transaction that aborts takes its before-image rows with
    /// it: they commit with the work or not at all.
    #[test]
    fn an_aborted_forward_transaction_leaves_no_before_image() {
        let (mgr, engine) = manager_with(&[(1, 10)]);
        let ops = vec![
            Op::Write {
                obj: obj(1),
                value: v(5),
            },
            Op::Read { obj: obj(404) },
        ];
        let vote = mgr.handle_submit(gtx(1), ops, SubmitMode::CommitBefore);
        assert!(matches!(
            vote,
            Ok(Payload::Vote {
                vote: LocalVote::Aborted,
                ..
            })
        ));
        let d = engine.dump().unwrap();
        assert_eq!(d.get(&obj(1)), Some(&v(10)));
        assert!(d.keys().all(|o| !o.is_reserved()), "{d:?}");
    }

    #[test]
    fn prepare_after_crash_answers_from_markers() {
        let (mgr, engine) = manager_with(&[(1, 10)]);
        // Committed-before transaction, then crash.
        mgr.handle_submit(
            gtx(1),
            vec![Op::Increment {
                obj: obj(1),
                delta: 5,
            }],
            SubmitMode::CommitBefore,
        )
        .unwrap();
        engine.crash();
        engine.recover().unwrap();
        // §3.3: after recovery the answer comes from durable state.
        let p = mgr.handle_prepare(gtx(1)).unwrap();
        assert_eq!(
            p,
            Payload::Vote {
                gtx: gtx(1),
                vote: LocalVote::Ready
            }
        );
        // And for a transaction that never committed:
        let p = mgr.handle_prepare(gtx(99)).unwrap();
        assert_eq!(
            p,
            Payload::Vote {
                gtx: gtx(99),
                vote: LocalVote::Aborted
            }
        );
    }

    /// The whole life of commit-before work across a crash that found no
    /// page flushed: the window pages, their list and the directory all come
    /// back from the log replay, and the markers keep redo and undo
    /// exactly-once.
    #[test]
    fn unflushed_commit_before_work_recovers_its_markers_and_undoes_once() {
        let (mgr, engine) = manager_with(&[(1, 10)]);
        let work = |g| {
            let ops = vec![Op::Increment {
                obj: obj(1),
                delta: 5,
            }];
            mgr.handle_submit(gtx(g), ops, SubmitMode::CommitBefore)
                .unwrap();
        };
        // Two windows of forward markers, nothing flushed since the load.
        work(1);
        work(1_000);
        engine.crash();
        engine.recover().unwrap();
        assert_eq!(engine.dump().unwrap().get(&obj(1)), Some(&v(20)));
        for g in [1, 1_000] {
            assert!(mgr.marker_present(forward_marker(gtx(g))).unwrap());
            assert!(!mgr.marker_present(undo_marker(gtx(g))).unwrap());
        }
        // Global abort of the first, delivered twice, across another crash.
        let forward = || {
            vec![Op::Increment {
                obj: obj(1),
                delta: 5,
            }]
        };
        mgr.handle_undo(gtx(1), forward()).unwrap();
        engine.crash();
        engine.recover().unwrap();
        mgr.handle_undo(gtx(1), forward()).unwrap();
        assert_eq!(mgr.stats().undo_runs, 1);
        assert_eq!(engine.dump().unwrap().get(&obj(1)), Some(&v(15)));
        assert!(mgr.marker_present(undo_marker(gtx(1))).unwrap());
        assert!(!mgr.marker_present(forward_marker(gtx(1))).unwrap());
        assert!(mgr.marker_present(forward_marker(gtx(1_000))).unwrap());
    }

    /// A marker costs the same page touches whatever came before it: the
    /// engine's buffer accesses per commit-before submit over two whole
    /// marker windows are equal early and late in 5 000 transactions.
    #[test]
    fn marker_cost_is_flat_in_the_number_of_markers() {
        // `amc_storage::Page::CAPACITY` (this crate sees engines only).
        const WINDOW: u64 = 203;
        let (mgr, engine) = manager_with(&[(1, 0)]);
        let accesses = || {
            let pool = engine.io_stats().1;
            pool.hits + pool.misses
        };
        let submit_two_windows_from = |first: u64| {
            let before = accesses();
            for g in first..first + 2 * WINDOW {
                let ops = vec![Op::Increment {
                    obj: obj(1),
                    delta: 1,
                }];
                let vote = mgr.handle_submit(gtx(g), ops, SubmitMode::CommitBefore);
                assert!(matches!(vote, Ok(Payload::Vote { vote, .. }) if vote.is_yes()));
            }
            accesses() - before
        };
        let early = submit_two_windows_from(WINDOW);
        let mut next = 3 * WINDOW;
        while next < 5_000 - 2 * WINDOW {
            submit_two_windows_from(next);
            next += 2 * WINDOW;
        }
        let late = submit_two_windows_from(next);
        assert_eq!(early, late, "accesses per {} submits", 2 * WINDOW);
        // The counter's page and the window page — and the meta page, the
        // list's last page and the fresh one once per window opened.
        assert_eq!(late, 2 * (2 * WINDOW) + 2 * 2);
        let dump = engine.dump().unwrap();
        for g in WINDOW..next + 2 * WINDOW {
            assert!(dump.contains_key(&forward_marker(gtx(g))), "marker {g}");
            assert!(mgr.marker_present(forward_marker(gtx(g))).unwrap());
        }
        assert_eq!(dump[&obj(1)], v((next + WINDOW) as i64));
    }

    #[test]
    fn two_phase_prepare_then_commit() {
        let (mgr, engine) = manager_with(&[(1, 10)]);
        mgr.handle_submit(
            gtx(1),
            vec![Op::Write {
                obj: obj(1),
                value: v(42),
            }],
            SubmitMode::TwoPhase,
        )
        .unwrap();
        let p = mgr.handle_prepare(gtx(1)).unwrap();
        assert_eq!(
            p,
            Payload::Vote {
                gtx: gtx(1),
                vote: LocalVote::Ready
            }
        );
        let ltx = mgr.local_txn_of(gtx(1)).unwrap();
        assert_eq!(engine.state_of(ltx), Some(LocalRunState::Ready));
        mgr.handle_decision(gtx(1), GlobalVerdict::Commit, SubmitMode::TwoPhase)
            .unwrap();
        assert_eq!(engine.dump().unwrap().get(&obj(1)), Some(&v(42)));
    }

    #[test]
    fn two_phase_on_plain_engine_is_a_config_error() {
        let engine = Arc::new(TwoPLEngine::new_at(TplConfig::default(), SiteId::new(1)));
        engine.bulk_load(&[(obj(1), v(1))]).unwrap();
        // Wrap as *plain* — the integration reality.
        let mgr = LocalCommManager::new(SiteId::new(1), EngineHandle::Plain(engine));
        mgr.handle_submit(gtx(1), vec![Op::Read { obj: obj(1) }], SubmitMode::TwoPhase)
            .unwrap();
        assert!(matches!(
            mgr.handle_prepare(gtx(1)),
            Err(AmcError::Protocol(_))
        ));
    }

    #[test]
    fn decision_abort_rolls_back_running_work() {
        let (mgr, engine) = manager_with(&[(1, 10)]);
        mgr.handle_submit(
            gtx(1),
            vec![Op::Write {
                obj: obj(1),
                value: v(42),
            }],
            SubmitMode::CommitAfter,
        )
        .unwrap();
        mgr.handle_decision(gtx(1), GlobalVerdict::Abort, SubmitMode::CommitAfter)
            .unwrap();
        assert_eq!(engine.dump().unwrap().get(&obj(1)), Some(&v(10)));
    }

    #[test]
    fn submit_prepare_piggybacks_the_vote_in_one_exchange() {
        let (mgr, engine) = manager_with(&[(1, 10)]);
        let p = mgr
            .handle_submit_prepare(
                gtx(1),
                vec![Op::Increment {
                    obj: obj(1),
                    delta: 5,
                }],
                false,
                SubmitMode::TwoPhase,
            )
            .unwrap();
        assert_eq!(
            p,
            Payload::Vote {
                gtx: gtx(1),
                vote: LocalVote::Ready
            }
        );
        // The engine is already in the ready state — no Prepare round needed.
        let ltx = mgr.local_txn_of(gtx(1)).unwrap();
        assert_eq!(engine.state_of(ltx), Some(LocalRunState::Ready));
        // A late Prepare inquiry (retransmission) answers idempotently.
        let p = mgr.handle_prepare(gtx(1)).unwrap();
        assert_eq!(
            p,
            Payload::Vote {
                gtx: gtx(1),
                vote: LocalVote::Ready
            }
        );
        mgr.handle_decision(gtx(1), GlobalVerdict::Commit, SubmitMode::TwoPhase)
            .unwrap();
        assert_eq!(engine.dump().unwrap().get(&obj(1)), Some(&v(15)));
    }

    /// The 1PC fast path's prepare rides the ops' force and names its
    /// global transaction like a classic one, so a manager restarted over
    /// the recovered engine finds the in-doubt work and an abort decision
    /// rolls it back.
    #[test]
    fn a_piggybacked_prepare_is_restored_by_its_name_after_a_restart() {
        let (first, engine) = manager_with(&[(1, 10)]);
        let ops = vec![Op::Increment {
            obj: obj(1),
            delta: 5,
        }];
        first
            .handle_submit_prepare(gtx(1), ops, false, SubmitMode::TwoPhase)
            .unwrap();
        let ltx = first.local_txn_of(gtx(1)).unwrap();
        engine.crash();
        let report = engine.recover().unwrap();
        assert_eq!(report.prepared, vec![(gtx(1), ltx)]);
        assert_eq!(engine.state_of(ltx), Some(LocalRunState::Ready));

        let mgr = LocalCommManager::new(SiteId::new(1), first.handle().clone());
        assert_eq!(mgr.restore_work(&report).unwrap().restored_entries, 1);
        assert_eq!(mgr.local_txn_of(gtx(1)), Some(ltx));
        mgr.handle_decision(gtx(1), GlobalVerdict::Abort, SubmitMode::TwoPhase)
            .unwrap();
        assert_eq!(engine.state_of(ltx), Some(LocalRunState::Aborted));
        assert_eq!(engine.dump().unwrap().get(&obj(1)), Some(&v(10)));
    }

    #[test]
    fn submit_prepare_duplicate_answers_idempotently() {
        let (mgr, engine) = manager_with(&[(1, 10)]);
        let ops = vec![Op::Increment {
            obj: obj(1),
            delta: 5,
        }];
        let first = mgr
            .handle_submit_prepare(gtx(1), ops.clone(), false, SubmitMode::TwoPhase)
            .unwrap();
        let second = mgr
            .handle_submit_prepare(gtx(1), ops, false, SubmitMode::TwoPhase)
            .unwrap();
        assert_eq!(first, second);
        mgr.handle_decision(gtx(1), GlobalVerdict::Commit, SubmitMode::TwoPhase)
            .unwrap();
        assert_eq!(
            engine.dump().unwrap().get(&obj(1)),
            Some(&v(15)),
            "applied exactly once"
        );
    }

    #[test]
    fn submit_prepare_solo_commits_locally_with_undo_obligations() {
        let (mgr, engine) = manager_with(&[(1, 10)]);
        let p = mgr
            .handle_submit_prepare(
                gtx(1),
                vec![Op::Increment {
                    obj: obj(1),
                    delta: 5,
                }],
                true,
                SubmitMode::TwoPhase,
            )
            .unwrap();
        assert_eq!(
            p,
            Payload::Vote {
                gtx: gtx(1),
                vote: LocalVote::Ready
            }
        );
        // Committed at once, marker written — no global round needed.
        assert_eq!(engine.dump().unwrap().get(&obj(1)), Some(&v(15)));
        assert!(mgr.marker_present(forward_marker(gtx(1))).unwrap());
        // If the reply had been lost, the coordinator's presumed-abort
        // obligation re-ships the program and the site inverts it.
        let forward = vec![Op::Increment {
            obj: obj(1),
            delta: 5,
        }];
        mgr.handle_undo(gtx(1), forward).unwrap();
        assert_eq!(engine.dump().unwrap().get(&obj(1)), Some(&v(10)));
    }

    #[test]
    fn submit_prepare_intended_failure_votes_abort() {
        let (mgr, engine) = manager_with(&[(1, 10)]);
        let p = mgr
            .handle_submit_prepare(
                gtx(1),
                vec![Op::Read { obj: obj(99) }],
                false,
                SubmitMode::TwoPhase,
            )
            .unwrap();
        assert_eq!(
            p,
            Payload::Vote {
                gtx: gtx(1),
                vote: LocalVote::Aborted
            }
        );
        assert_eq!(engine.dump().unwrap().get(&obj(1)), Some(&v(10)));
    }

    #[test]
    fn submit_prepare_read_only_commits_and_drops_out() {
        let (mgr, engine) = manager_with(&[(1, 10)]);
        let p = mgr
            .handle_submit_prepare(
                gtx(1),
                vec![Op::Read { obj: obj(1) }],
                false,
                SubmitMode::TwoPhase,
            )
            .unwrap();
        assert_eq!(
            p,
            Payload::Vote {
                gtx: gtx(1),
                vote: LocalVote::ReadyReadOnly
            }
        );
        let ltx = mgr.local_txn_of(gtx(1)).unwrap();
        assert_eq!(engine.state_of(ltx), Some(LocalRunState::Committed));
    }

    /// A read-only 2PC participant commits at its vote; if another site
    /// then votes no, the coordinator can still ship us the global abort
    /// (our ReadyReadOnly may not have reached it before it decided). A
    /// read-only commit wrote nothing, so the abort must be a no-op — not
    /// an `UnknownTxn` error from aborting a terminated transaction.
    #[test]
    fn abort_decision_after_read_only_local_commit_is_a_no_op() {
        let (mgr, engine) = manager_with(&[(1, 10)]);
        mgr.handle_submit_prepare(
            gtx(1),
            vec![Op::Read { obj: obj(1) }],
            false,
            SubmitMode::TwoPhase,
        )
        .unwrap();
        let ltx = mgr.local_txn_of(gtx(1)).unwrap();
        assert_eq!(engine.state_of(ltx), Some(LocalRunState::Committed));
        let p = mgr
            .handle_decision(gtx(1), GlobalVerdict::Abort, SubmitMode::TwoPhase)
            .unwrap();
        assert_eq!(p, Payload::Finished { gtx: gtx(1) });
        assert_eq!(engine.state_of(ltx), Some(LocalRunState::Committed));
        assert_eq!(engine.dump().unwrap().get(&obj(1)), Some(&v(10)));
    }

    /// The classic twin: a read-only 2PC participant commits at the
    /// prepare inquiry, and an abort decision that raced its
    /// `ReadyReadOnly` vote is a no-op there too.
    #[test]
    fn abort_decision_after_a_read_only_prepare_is_a_no_op() {
        let (mgr, engine) = manager_with(&[(1, 10)]);
        let read = vec![Op::Read { obj: obj(1) }];
        mgr.handle_submit(gtx(1), read, SubmitMode::TwoPhase)
            .unwrap();
        let vote = read_vote(mgr.handle_prepare(gtx(1)).unwrap());
        assert_eq!(vote, LocalVote::ReadyReadOnly);
        let ltx = mgr.local_txn_of(gtx(1)).unwrap();
        let p = mgr
            .handle_decision(gtx(1), GlobalVerdict::Abort, SubmitMode::TwoPhase)
            .unwrap();
        assert_eq!(p, Payload::Finished { gtx: gtx(1) });
        assert_eq!(engine.state_of(ltx), Some(LocalRunState::Committed));
        assert_eq!(engine.dump().unwrap().get(&obj(1)), Some(&v(10)));
    }

    /// The engine's log counters as `(appends, forces)`.
    fn logged(engine: &TwoPLEngine) -> (u64, u64) {
        let stats = engine.log_stats();
        (stats.appends, stats.forces)
    }

    fn read_vote(p: Payload) -> LocalVote {
        match p {
            Payload::Vote { vote, .. } => vote,
            other => panic!("not a vote: {other:?}"),
        }
    }

    /// A read-only participant under the portable protocols commits at its
    /// vote with nothing written: no log record, no force.
    #[test]
    fn a_portable_read_only_vote_forces_nothing() {
        let (mgr, engine) = manager_with(&[(1, 10)]);
        let before = logged(&engine);
        for (n, mode) in [(1, SubmitMode::CommitAfter), (2, SubmitMode::CommitBefore)] {
            let read = vec![Op::Read { obj: obj(1) }];
            let vote = read_vote(mgr.handle_submit(gtx(n), read, mode).unwrap());
            assert_eq!(vote, LocalVote::ReadyReadOnly, "{mode:?}");
        }
        assert_eq!(logged(&engine), before);
        assert_eq!(engine.stats().commits, 2);
    }

    /// 2PC applies the read-only optimization at the prepare inquiry: the
    /// participant commits there, unlogged, and a duplicate inquiry is
    /// answered the same way without touching the engine.
    #[test]
    fn a_two_phase_read_only_prepare_forces_nothing() {
        let (mgr, engine) = manager_with(&[(1, 10)]);
        let before = logged(&engine);
        let read = vec![Op::Read { obj: obj(1) }];
        let work = mgr
            .handle_submit(gtx(1), read, SubmitMode::TwoPhase)
            .unwrap();
        assert_eq!(read_vote(work), LocalVote::Ready);
        for _ in 0..2 {
            let vote = read_vote(mgr.handle_prepare(gtx(1)).unwrap());
            assert_eq!(vote, LocalVote::ReadyReadOnly);
        }
        let ltx = mgr.local_txn_of(gtx(1)).unwrap();
        assert_eq!(engine.state_of(ltx), Some(LocalRunState::Committed));
        assert_eq!(logged(&engine), before);
    }

    /// The 1PC piggyback's read-only participant commits at the combined
    /// dispatch, unlogged.
    #[test]
    fn a_piggybacked_read_only_vote_forces_nothing() {
        let (mgr, engine) = manager_with(&[(1, 10)]);
        let before = logged(&engine);
        let read = vec![Op::Read { obj: obj(1) }];
        let p = mgr
            .handle_submit_prepare(gtx(1), read, false, SubmitMode::TwoPhase)
            .unwrap();
        assert_eq!(read_vote(p), LocalVote::ReadyReadOnly);
        assert_eq!(logged(&engine), before);
    }

    /// A redo after a crash checks its exactly-once marker with a read-only
    /// local transaction before it runs: only the redo itself forces. A
    /// duplicate finds the marker and forces nothing.
    #[test]
    fn a_redo_forces_only_its_own_commit() {
        let (mgr, engine) = manager_with(&[(1, 10)]);
        let bump = vec![Op::Increment {
            obj: obj(1),
            delta: 5,
        }];
        mgr.handle_submit(gtx(1), bump.clone(), SubmitMode::CommitAfter)
            .unwrap();
        engine.crash();
        engine.recover().unwrap();
        let forces = || engine.log_stats().forces;
        let before = forces();
        mgr.handle_redo(gtx(1), bump.clone()).unwrap();
        assert_eq!(forces() - before, 1, "the redo's commit");
        mgr.handle_redo(gtx(1), bump).unwrap();
        assert_eq!(forces() - before, 1, "the duplicate only reads its marker");
        assert_eq!(mgr.stats().redo_runs, 1);
        assert_eq!(engine.dump().unwrap().get(&obj(1)), Some(&v(15)));
    }

    /// An undo forces its inverse once; a retransmitted undo reads the
    /// undo marker and forces nothing.
    #[test]
    fn a_duplicate_undo_forces_nothing() {
        let (mgr, engine) = manager_with(&[(1, 10)]);
        let bump = vec![Op::Increment {
            obj: obj(1),
            delta: 5,
        }];
        mgr.handle_submit(gtx(1), bump.clone(), SubmitMode::CommitBefore)
            .unwrap();
        let forces = || engine.log_stats().forces;
        let before = forces();
        mgr.handle_undo(gtx(1), bump.clone()).unwrap();
        assert_eq!(forces() - before, 1, "the inverse transaction");
        mgr.handle_undo(gtx(1), bump).unwrap();
        assert_eq!(forces() - before, 1, "the duplicate only reads its marker");
        assert_eq!(engine.dump().unwrap().get(&obj(1)), Some(&v(10)));
    }

    #[test]
    fn late_abort_decision_for_unknown_gtx_is_tolerated() {
        let (mgr, _) = manager_with(&[]);
        let p = mgr
            .handle_decision(gtx(9), GlobalVerdict::Abort, SubmitMode::CommitAfter)
            .unwrap();
        assert_eq!(p, Payload::Finished { gtx: gtx(9) });
        assert!(matches!(
            mgr.handle_decision(gtx(9), GlobalVerdict::Commit, SubmitMode::CommitAfter),
            Err(AmcError::Protocol(_))
        ));
    }

    /// A commit-after site restarted between its ready vote and the commit
    /// decision has lost the running transaction and its program. It asks
    /// for the program with an outage answer; the coordinator's `Redo`
    /// brings it, and the marker answers every later duplicate.
    #[test]
    fn a_commit_for_forgotten_work_asks_for_the_program() {
        let (mgr, engine) = manager_with(&[(1, 10)]);
        let ops = vec![Op::Increment {
            obj: obj(1),
            delta: 5,
        }];
        mgr.handle_submit(gtx(1), ops.clone(), SubmitMode::CommitAfter)
            .unwrap();
        engine.crash();
        engine.recover().unwrap();
        let restarted = LocalCommManager::new(SiteId::new(1), mgr.handle().clone());
        assert!(matches!(
            restarted.handle_decision(gtx(1), GlobalVerdict::Commit, SubmitMode::CommitAfter),
            Err(AmcError::TransientIo(_))
        ));
        restarted.handle_redo(gtx(1), ops).unwrap();
        assert_eq!(engine.dump().unwrap().get(&obj(1)), Some(&v(15)));
        let again = LocalCommManager::new(SiteId::new(1), mgr.handle().clone());
        let p = again
            .handle_decision(gtx(1), GlobalVerdict::Commit, SubmitMode::CommitAfter)
            .unwrap();
        assert_eq!(p, Payload::Finished { gtx: gtx(1) });
        assert_eq!(engine.dump().unwrap().get(&obj(1)), Some(&v(15)));
    }

    fn in_doubt_resolutions(sink: &ObsSink) -> usize {
        let log = sink.snapshot();
        log.events()
            .filter(|e| matches!(e.kind, EventKind::InDoubtResolved { .. }))
            .count()
    }

    /// A manager process restarted over the same database rebuilds its
    /// work map from it: the forward marker of committed commit-before work
    /// and the named prepare record of in-doubt 2PC work. The message that
    /// settles each resolves its in-doubt window, reported once; neither
    /// needs anything the dead process knew.
    #[test]
    fn a_restarted_manager_restores_its_work_from_markers_and_prepare_records() {
        let (first, engine) = manager_with(&[(1, 10), (2, 20)]);
        let bump = vec![Op::Increment {
            obj: obj(1),
            delta: 5,
        }];
        first
            .handle_submit(gtx(1), bump.clone(), SubmitMode::CommitBefore)
            .unwrap();
        let write = vec![Op::Write {
            obj: obj(2),
            value: v(7),
        }];
        first
            .handle_submit(gtx(2), write, SubmitMode::TwoPhase)
            .unwrap();
        first.handle_prepare(gtx(2)).unwrap();
        // A third transaction never got past its submit: no trace survives.
        first
            .handle_submit(gtx(3), bump.clone(), SubmitMode::TwoPhase)
            .unwrap();
        engine.crash();
        let report = engine.recover().unwrap();
        let in_doubt = first.local_txn_of(gtx(2)).unwrap();
        assert_eq!(report.prepared, vec![(gtx(2), in_doubt)]);

        let mut mgr = LocalCommManager::new(SiteId::new(1), first.handle().clone());
        let sink = ObsSink::enabled(64);
        mgr.set_obs(sink.clone());
        assert_eq!(mgr.restore_work(&report).unwrap().restored_entries, 2);
        assert_eq!(mgr.local_txn_of(gtx(2)), Some(in_doubt));
        let vote = |p: Payload| match p {
            Payload::Vote { vote, .. } => vote,
            other => panic!("not a vote: {other:?}"),
        };
        assert_eq!(vote(mgr.handle_prepare(gtx(1)).unwrap()), LocalVote::Ready);
        assert_eq!(vote(mgr.handle_prepare(gtx(2)).unwrap()), LocalVote::Ready);
        assert_eq!(
            vote(mgr.handle_prepare(gtx(3)).unwrap()),
            LocalVote::Aborted
        );

        mgr.handle_decision(gtx(1), GlobalVerdict::Abort, SubmitMode::CommitBefore)
            .unwrap();
        assert_eq!(in_doubt_resolutions(&sink), 1);
        mgr.handle_undo(gtx(1), bump.clone()).unwrap();
        mgr.handle_decision(gtx(2), GlobalVerdict::Commit, SubmitMode::TwoPhase)
            .unwrap();
        assert_eq!(in_doubt_resolutions(&sink), 2);
        let d = engine.dump().unwrap();
        assert_eq!((d[&obj(1)], d[&obj(2)]), (v(10), v(7)));
        // A duplicate of any message changes and reports nothing more.
        mgr.handle_decision(gtx(1), GlobalVerdict::Abort, SubmitMode::CommitBefore)
            .unwrap();
        mgr.handle_undo(gtx(1), bump).unwrap();
        mgr.handle_decision(gtx(2), GlobalVerdict::Commit, SubmitMode::TwoPhase)
            .unwrap();
        let d = engine.dump().unwrap();
        assert_eq!((d[&obj(1)], d[&obj(2)]), (v(10), v(7)));
        assert_eq!(in_doubt_resolutions(&sink), 2);
    }

    /// Undone work leaves nothing to restore: its inverse deleted the
    /// forward marker, and neither the undo marker nor a before-image row
    /// is taken for work. A duplicate `Undo` after the restart still
    /// repeats nothing.
    #[test]
    fn undone_work_is_not_restored_after_a_restart() {
        let (first, engine) = manager_with(&[(1, 10)]);
        let forward = vec![Op::Write {
            obj: obj(1),
            value: v(5),
        }];
        first
            .handle_submit(gtx(1), forward.clone(), SubmitMode::CommitBefore)
            .unwrap();
        first.handle_undo(gtx(1), forward.clone()).unwrap();
        engine.crash();
        let report = engine.recover().unwrap();
        let mgr = LocalCommManager::new(SiteId::new(1), first.handle().clone());
        assert_eq!(mgr.restore_work(&report).unwrap().restored_entries, 0);
        mgr.handle_undo(gtx(1), forward).unwrap();
        assert_eq!(mgr.stats().undo_runs, 0, "the undo marker stops it");
        assert_eq!(engine.dump().unwrap().get(&obj(1)), Some(&v(10)));
    }

    /// What a slot keeps from the vote on: a vote that leaves the decision
    /// round (read-only, aborted) keeps one word, and so does
    /// commit-before's local commit (its `Undo` brings the program); only
    /// commit-after, and 2PC until its decision, keep their program. A 2PC
    /// read-only participant leaves at its prepare.
    #[test]
    fn a_slot_keeps_only_what_a_later_message_can_ask_for() {
        let (mgr, _) = manager_with(&[(1, 10), (2, 20), (3, 30)]);
        let read = vec![Op::Read { obj: obj(1) }];
        let missing = vec![Op::Increment {
            obj: obj(404),
            delta: 1,
        }];
        let bump = |o| {
            vec![Op::Increment {
                obj: obj(o),
                delta: 1,
            }]
        };
        let submit = |n, ops, mode| read_vote(mgr.handle_submit(gtx(n), ops, mode).unwrap());
        // One word of the dense table, and no live entry.
        let settled = |n| {
            let work = mgr.work(gtx(n));
            let (block, at) = Stripe::place(gtx(n));
            let word = work.done.get(&block).map_or(0, |words| words[at]);
            !work.live.contains_key(&gtx(n)) && Snapshot::unpack(word).is_some()
        };
        use SubmitMode::{CommitAfter, CommitBefore, TwoPhase};
        assert_eq!(
            submit(1, read.clone(), CommitAfter),
            LocalVote::ReadyReadOnly
        );
        assert_eq!(submit(2, missing.clone(), CommitAfter), LocalVote::Aborted);
        assert_eq!(submit(3, missing, CommitBefore), LocalVote::Aborted);
        assert_eq!(submit(4, bump(1), CommitBefore), LocalVote::Ready);
        assert!((1..=4).all(settled));
        assert_eq!(submit(5, bump(2), CommitAfter), LocalVote::Ready);
        assert_eq!(submit(6, read, TwoPhase), LocalVote::Ready);
        assert_eq!(submit(7, bump(3), TwoPhase), LocalVote::Ready);
        assert!(!(5..=7).any(settled));
        let prepare = |n| read_vote(mgr.handle_prepare(gtx(n)).unwrap());
        assert_eq!(prepare(6), LocalVote::ReadyReadOnly);
        assert_eq!(prepare(7), LocalVote::Ready);
        assert!(settled(6) && !settled(7));
        // Duplicates are answered from the word, as the first copy was.
        let again = |n, mode| read_vote(mgr.handle_submit(gtx(n), Vec::new(), mode).unwrap());
        assert_eq!(again(1, CommitAfter), LocalVote::ReadyReadOnly);
        assert_eq!(again(3, CommitBefore), LocalVote::Aborted);
        assert_eq!(again(4, CommitBefore), LocalVote::Ready);
        assert_eq!(again(6, TwoPhase), LocalVote::Ready);
        assert_eq!(prepare(6), LocalVote::ReadyReadOnly);
        // Every slot of a finished transaction is settled.
        for (n, mode) in [(5, CommitAfter), (7, TwoPhase)] {
            mgr.handle_decision(gtx(n), GlobalVerdict::Commit, mode)
                .unwrap();
        }
        assert!((1..=7).all(settled));
    }

    /// A word holds every scalar a handler reads, and no slot packs to the
    /// empty word; a local id past 56 bits is refused, not truncated.
    #[test]
    fn a_settled_slot_packs_into_one_word() {
        use {LocalVote::*, SubmitMode::*};
        let ltxs = [None, Some(0), Some((1 << 56) - 1)].map(|l| l.map(LocalTxnId::new));
        let modes = [TwoPhase, CommitAfter, CommitBefore];
        let votes = [Ready, ReadyReadOnly, Aborted];
        let all = modes.map(|m| votes.map(|v| ltxs.map(|l| (m, v, l))));
        for (mode, vote, ltx) in all.into_iter().flatten().flatten() {
            for flags in 0..8u8 {
                let slot = Snapshot {
                    mode,
                    ltx,
                    committed_locally: flags & 1 != 0,
                    vote,
                    read_only: flags & 2 != 0,
                    recovered: flags & 4 != 0,
                };
                let word = slot.pack();
                assert_ne!(word, 0);
                assert_eq!(
                    format!("{:?}", Snapshot::unpack(word)),
                    format!("{:?}", Some(slot))
                );
            }
        }
        assert!(Snapshot::unpack(0).is_none());
        let wide = Snapshot {
            ltx: Some(LocalTxnId::new(1 << 56)),
            ..Snapshot::tombstone(SubmitMode::TwoPhase)
        };
        assert!(std::panic::catch_unwind(|| wide.pack()).is_err());
    }

    /// A sealed engine whose next `aborts` writes each abort their
    /// transaction erroneously — a deadlock victim on demand. Reads pass,
    /// so the marker checks between runs are not disturbed.
    struct VictimEngine {
        inner: Arc<TwoPLEngine>,
        aborts: std::sync::atomic::AtomicU32,
    }

    impl amc_engine::LocalEngine for VictimEngine {
        fn execute(&self, txn: LocalTxnId, op: &Operation) -> AmcResult<amc_types::OpResult> {
            use std::sync::atomic::Ordering::SeqCst;
            let armed = |n: u32| n.checked_sub(1);
            if !matches!(op, Op::Read { .. })
                && self.aborts.fetch_update(SeqCst, SeqCst, armed).is_ok()
            {
                self.inner.abort(txn, AbortReason::Deadlock)?;
                return Err(AmcError::Aborted(AbortReason::Deadlock));
            }
            self.inner.execute(txn, op)
        }
        fn begin(&self) -> AmcResult<LocalTxnId> {
            self.inner.begin()
        }
        fn commit(&self, txn: LocalTxnId) -> AmcResult<()> {
            self.inner.commit(txn)
        }
        fn abort(&self, txn: LocalTxnId, reason: AbortReason) -> AmcResult<()> {
            self.inner.abort(txn, reason)
        }
        fn state_of(&self, txn: LocalTxnId) -> Option<LocalRunState> {
            self.inner.state_of(txn)
        }
        fn is_up(&self) -> bool {
            self.inner.is_up()
        }
        fn crash(&self) {
            self.inner.crash()
        }
        fn recover(&self) -> AmcResult<amc_engine::api::RecoveryReport> {
            self.inner.recover()
        }
        fn kind(&self) -> &'static str {
            self.inner.kind()
        }
        fn stats(&self) -> amc_engine::api::EngineStats {
            amc_engine::LocalEngine::stats(&*self.inner)
        }
        fn dump(&self) -> AmcResult<std::collections::BTreeMap<ObjectId, Value>> {
            self.inner.dump()
        }
        fn bulk_load(&self, data: &[(ObjectId, Value)]) -> AmcResult<()> {
            self.inner.bulk_load(data)
        }
        fn log_stats(&self) -> amc_wal::LogStats {
            self.inner.log_stats()
        }
    }

    /// §3.2's redo and §3.3's undo through `K` erroneous aborts each: the
    /// repetition runs exactly `K + 1` times, leaves exactly one marker,
    /// and applies its program exactly once.
    #[test]
    fn redo_and_undo_repeat_through_k_erroneous_aborts_exactly_once() {
        const K: u32 = 3;
        let engine = Arc::new(VictimEngine {
            inner: Arc::new(TwoPLEngine::new_at(TplConfig::default(), SiteId::new(1))),
            aborts: 0.into(),
        });
        engine.bulk_load(&[(obj(1), v(10))]).unwrap();
        let mgr = LocalCommManager::new(SiteId::new(1), EngineHandle::Plain(engine.clone()));
        let bump = || {
            vec![Op::Increment {
                obj: obj(1),
                delta: 5,
            }]
        };
        let state = || {
            let dump = engine.dump().unwrap();
            let markers = dump
                .keys()
                .filter(|o| crate::marker::is_marker(**o))
                .count();
            (dump[&obj(1)], markers)
        };

        // Redo: the voted-ready transaction is lost, then K repetitions are.
        mgr.handle_submit(gtx(1), bump(), SubmitMode::CommitAfter)
            .unwrap();
        let lost = mgr.local_txn_of(gtx(1)).unwrap();
        engine.abort(lost, AbortReason::LockTimeout).unwrap();
        engine.aborts.store(K, std::sync::atomic::Ordering::SeqCst);
        mgr.handle_decision(gtx(1), GlobalVerdict::Commit, SubmitMode::CommitAfter)
            .unwrap();
        assert_eq!(mgr.stats().redo_runs, u64::from(K) + 1);
        assert_eq!(state(), (v(15), 1));
        assert!(engine.dump().unwrap().contains_key(&forward_marker(gtx(1))));

        // Undo: a locally committed commit-before transaction, K lost inverses.
        mgr.handle_submit(gtx(2), bump(), SubmitMode::CommitBefore)
            .unwrap();
        assert_eq!(state(), (v(20), 2));
        engine.aborts.store(K, std::sync::atomic::Ordering::SeqCst);
        mgr.handle_undo(gtx(2), bump()).unwrap();
        assert_eq!(mgr.stats().undo_runs, u64::from(K) + 1);
        // The inverse deleted gtx 2's forward marker and left its undo marker.
        assert_eq!(state(), (v(15), 2));
        assert!(engine.dump().unwrap().contains_key(&undo_marker(gtx(2))));
        // A duplicate of either message repeats nothing.
        mgr.handle_redo(gtx(1), bump()).unwrap();
        mgr.handle_undo(gtx(2), bump()).unwrap();
        assert_eq!(
            mgr.stats().redo_runs + mgr.stats().undo_runs,
            2 * u64::from(K) + 2
        );
        assert_eq!(state(), (v(15), 2));
    }
}
