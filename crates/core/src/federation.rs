//! The threaded federation runtime.
//!
//! This is the "real machine" driver: communication-manager calls are
//! synchronous function calls (zero network latency), many worker threads
//! push global transactions through the same [`Coordinator`] state machine
//! the simulator uses, and the engines' blocking lock managers provide the
//! contention. It exists for the throughput experiments (E1–E3, E7), where
//! wall-clock concurrency — not failure behaviour — is the measured
//! quantity. Crashes belong to the discrete-event driver.
//!
//! Global concurrency control: for the two portable protocols, every L1
//! lock of a global transaction is acquired (in canonical object order)
//! *before* any engine work and released only at global end — the strict
//! L1 two-phase discipline of §4.3 that discharges both serializability
//! requirements. The 2PC baseline runs without an L1 layer; distributed
//! 2PL at L0 (page locks held to the global end) is its isolation story,
//! and participants are always submitted in ascending site order so
//! cross-site lock cycles cannot form.

use crate::config::{FederationConfig, PaxosCommitConfig};
use crate::coordinator::{CoordAction, CoordEvent, Coordinator};
use crate::drive::closed_loop;
use crate::metrics::RunMetrics;
use amc_mlt::L1LockManager;
use amc_net::comm::SubmitMode;
use amc_net::transport::{AdminReply, AdminRequest, FederationTransport, InProcessTransport};
use amc_net::{Envelope, LocalCommManager, MessageTrace, Payload};
use amc_paxos::{majority, AcceptorHost, AcceptorTransport, CommitLedger, ReplicaDriver};
use amc_types::{
    AbortReason, AmcError, AmcResult, GlobalTxnId, GlobalVerdict, ObjectId, Operation,
    ProtocolKind, SimTime, SiteId, Value,
};
use amc_verify::{History, OpEvent};
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Outcome of one global transaction attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnOutcome {
    /// Globally committed.
    Committed,
    /// Globally aborted (a participant voted no).
    Aborted,
    /// Rejected at L1 lock acquisition before any engine work; the caller
    /// should retry.
    L1Rejected(AbortReason),
}

amc_types::wire_enum!(TxnOutcome, "txn-outcome" {
    0 => Committed,
    1 => Aborted,
    2 => L1Rejected(reason: AbortReason),
});

/// Per-transaction measurements returned to the driver loop.
#[derive(Debug, Clone)]
pub struct TxnReport {
    /// The global transaction id this attempt ran under (oracle mapping).
    pub gtx: GlobalTxnId,
    /// What happened.
    pub outcome: TxnOutcome,
    /// End-to-end latency of the attempt.
    pub latency: Duration,
    /// L0 lock tenures per participating site (first submit → local
    /// release), only populated for committed transactions. Observed at
    /// the coordinator per message round: a round's submits count from
    /// when the round is handed to the transport, its releases from when
    /// the round's replies are processed.
    pub l0_holds: Vec<Duration>,
    /// Messages exchanged (requests + replies).
    pub messages: u64,
}

/// One pass of a coordinator through [`Federation::drive`], with what
/// the pass measures.
struct Run<'a> {
    coordinator: Coordinator,
    /// Replicated coordination (2PC federations that configure it).
    paxos: Option<PaxosRun<'a>>,
    /// Messages exchanged in the coordinator's rounds (requests + replies).
    messages: u64,
    /// Per site: when its submit was handed to the transport, and when the
    /// reply that released its L0 locks was processed.
    l0: BTreeMap<SiteId, (Instant, Option<Instant>)>,
}

impl<'a> Run<'a> {
    fn new(coordinator: Coordinator, paxos: Option<PaxosRun<'a>>) -> Self {
        Run {
            coordinator,
            paxos,
            messages: 0,
            l0: BTreeMap::new(),
        }
    }
}

/// Paxos Commit bookkeeping of one transaction: the acceptor group, where
/// the instance set is open, which prepare votes are chosen.
struct PaxosRun<'a> {
    px: &'a PaxosCommitConfig,
    participants: Vec<SiteId>,
    /// Acceptors that durably acknowledged the registration; `None` until
    /// the instance set is opened.
    registered_at: Option<Vec<SiteId>>,
    ledger: CommitLedger,
    /// Messages exchanged with the acceptor group.
    messages: u64,
}

/// The submit mode a protocol uses on the wire.
pub fn submit_mode_for(protocol: ProtocolKind) -> SubmitMode {
    match protocol {
        ProtocolKind::TwoPhaseCommit => SubmitMode::TwoPhase,
        ProtocolKind::CommitAfter => SubmitMode::CommitAfter,
        ProtocolKind::CommitBefore => SubmitMode::CommitBefore,
    }
}

/// Whether `payload` starts a site's work, and with it its L0 tenure.
fn is_submit(payload: &Payload) -> bool {
    matches!(
        payload,
        Payload::Submit { .. } | Payload::SubmitPrepare { .. }
    )
}

/// A running federation: central system + communication managers + sealed
/// engines.
pub struct Federation {
    cfg: FederationConfig,
    managers: BTreeMap<SiteId, Arc<LocalCommManager>>,
    transport: Arc<dyn FederationTransport>,
    l1: L1LockManager,
    next_gtx: AtomicU64,
    history: Mutex<History>,
    trace: Mutex<MessageTrace>,
    seq: AtomicU64,
    record_history: bool,
    record_trace: bool,
    /// Coordinators that decided but still owe an unreachable site its
    /// final state.
    unresolved: Mutex<Vec<Coordinator>>,
    /// In-process acceptor group (Paxos federations built by
    /// [`Federation::new`] only — TCP deployments mount acceptors in
    /// their site servers).
    paxos_transport: Option<Arc<AcceptorTransport<InProcessTransport>>>,
    /// Fault injection: simulate the incumbent coordinator dying after
    /// this many more replicated votes, leaving the transaction in doubt.
    paxos_crash_after: Mutex<Option<u32>>,
}

impl Federation {
    /// Build a federation (fresh engines) from `cfg`.
    ///
    /// # Panics
    /// When `cfg` is not runnable (2PC over a non-preparable engine) — the
    /// paper's point is that such deployments cannot exist.
    pub fn new(cfg: FederationConfig) -> Self {
        assert!(
            cfg.is_runnable(),
            "2PC cannot run on a federation with non-preparable engines (§3.1)"
        );
        let managers: BTreeMap<SiteId, Arc<LocalCommManager>> = cfg
            .build_managers()
            .into_iter()
            .map(|m| (m.site(), m))
            .collect();
        let inner = InProcessTransport::new(
            managers.clone(),
            submit_mode_for(cfg.protocol),
            cfg.message_delay,
        );
        let Some(px) = &cfg.paxos else {
            let transport = Arc::new(inner);
            return Self::assemble(cfg, managers, transport);
        };
        // Replicated coordination: mount a durable acceptor at each
        // configured site by decorating the transport — the same
        // interception the TCP site server performs.
        assert_eq!(
            cfg.protocol,
            ProtocolKind::TwoPhaseCommit,
            "Paxos Commit replicates the 2PC prepare/decision structure; the \
             portable protocols have no prepared state to make durable"
        );
        assert!(
            px.acceptors.iter().all(|a| managers.contains_key(a)),
            "acceptors must be co-located with existing sites"
        );
        std::fs::create_dir_all(&px.log_dir).expect("create acceptor log dir");
        let hosts: BTreeMap<SiteId, AcceptorHost> = px
            .acceptors
            .iter()
            .map(|a| {
                let path = px.log_dir.join(format!("acceptor-{}.log", a.raw()));
                let host = AcceptorHost::open_with_linger(*a, path, px.acceptor_linger)
                    .expect("open acceptor log");
                (*a, host)
            })
            .collect();
        let decorated = Arc::new(AcceptorTransport::new(inner, hosts));
        let mut fed = Self::assemble(
            cfg,
            managers,
            Arc::clone(&decorated) as Arc<dyn FederationTransport>,
        );
        fed.paxos_transport = Some(decorated);
        fed
    }

    /// Build a federation whose sites are reached through an externally
    /// supplied transport (e.g. the TCP transport of `amc-rpc`). The sites'
    /// engines live behind the transport; [`Federation::manager`] returns
    /// `None` for every site.
    pub fn with_transport(cfg: FederationConfig, transport: Arc<dyn FederationTransport>) -> Self {
        Self::assemble(cfg, BTreeMap::new(), transport)
    }

    fn assemble(
        cfg: FederationConfig,
        managers: BTreeMap<SiteId, Arc<LocalCommManager>>,
        transport: Arc<dyn FederationTransport>,
    ) -> Self {
        let l1 = L1LockManager::new(cfg.policy, cfg.l1_timeout);
        // A sharded coordinator allocates from its slot's disjoint id
        // range; slot 0 (and every unsharded federation) starts at 1.
        let first_gtx = match &cfg.coordinator {
            Some(id) => u64::from(id.slot) * crate::config::COORD_GTX_SPAN + 1,
            None => 1,
        };
        Federation {
            cfg,
            managers,
            transport,
            l1,
            next_gtx: AtomicU64::new(first_gtx),
            history: Mutex::new(History::new()),
            trace: Mutex::new(MessageTrace::new()),
            seq: AtomicU64::new(1),
            record_history: true,
            record_trace: true,
            unresolved: Mutex::new(Vec::new()),
            paxos_transport: None,
            paxos_crash_after: Mutex::new(None),
        }
    }

    /// Disable oracle/trace recording (benchmark hot paths).
    pub fn set_recording(&mut self, history: bool, trace: bool) {
        self.record_history = history;
        self.record_trace = trace;
    }

    /// The configuration.
    pub fn config(&self) -> &FederationConfig {
        &self.cfg
    }

    /// The communication manager of `site` — only available when the
    /// federation runs in-process (transports hide remote managers).
    pub fn manager(&self, site: SiteId) -> Option<&Arc<LocalCommManager>> {
        self.managers.get(&site)
    }

    /// The transport sites are reached through.
    pub fn transport(&self) -> &Arc<dyn FederationTransport> {
        &self.transport
    }

    /// Load initial data into a site's engine.
    pub fn load_site(&self, site: SiteId, data: &[(ObjectId, Value)]) -> AmcResult<()> {
        match self
            .transport
            .admin(site, AdminRequest::Load(data.to_vec()))?
        {
            AdminReply::Loaded => Ok(()),
            other => Err(AmcError::Protocol(format!(
                "unexpected admin reply {other:?}"
            ))),
        }
    }

    /// Final committed state of every site (markers included).
    pub fn dumps(&self) -> AmcResult<BTreeMap<SiteId, BTreeMap<ObjectId, Value>>> {
        self.transport
            .sites()
            .into_iter()
            .map(|s| match self.transport.admin(s, AdminRequest::Dump)? {
                AdminReply::Dump(d) => Ok((s, d)),
                other => Err(AmcError::Protocol(format!(
                    "unexpected admin reply {other:?}"
                ))),
            })
            .collect()
    }

    /// Snapshot of the recorded history (oracle input).
    pub fn history(&self) -> History {
        self.history.lock().clone()
    }

    /// Snapshot of the message trace.
    pub fn trace(&self) -> MessageTrace {
        self.trace.lock().clone()
    }

    /// Aggregate communication-manager counters.
    pub fn comm_stats(&self) -> amc_net::CommStats {
        let mut total = amc_net::CommStats::default();
        for site in self.transport.sites() {
            if let Ok(AdminReply::CommStats(s)) =
                self.transport.admin(site, AdminRequest::CommStats)
            {
                total += s;
            }
        }
        total
    }

    /// Aggregate engine log counters (E4).
    pub fn log_stats(&self) -> amc_wal::LogStats {
        let mut total = amc_wal::LogStats::default();
        for site in self.transport.sites() {
            if let Ok(AdminReply::LogStats(s)) = self.transport.admin(site, AdminRequest::LogStats)
            {
                total += s;
            }
        }
        total
    }

    /// L1 lock-manager counters.
    pub fn l1_stats(&self) -> amc_lock::LockStats {
        self.l1.stats()
    }

    /// The message trace's copy of an outgoing message, when a trace is
    /// kept (the message itself moves into the transport).
    fn traced(&self, payload: &Payload) -> Option<Payload> {
        self.record_trace.then(|| payload.clone())
    }

    /// Record one exchange as a (request, reply) pair.
    fn record_exchange(&self, site: SiteId, request: Option<Payload>, reply: &AmcResult<Payload>) {
        let Some(request) = request else { return };
        let mut trace = self.trace.lock();
        trace.record(SimTime::ZERO, Envelope::new(SiteId::CENTRAL, site, request));
        if let Ok(reply) = reply {
            trace.record(
                SimTime::ZERO,
                Envelope::new(site, SiteId::CENTRAL, reply.clone()),
            );
        }
    }

    /// The one place messages leave the central system. `sends` — one per
    /// site, mutually independent — go to the transport together when
    /// `whole`, which may overlap them on the wire instead of paying one
    /// round trip each; otherwise one call at a time, in order. Either way
    /// `on_reply` gets each site's reply (or failure) in emission order,
    /// with the time its request was handed over, so a coordinator sees
    /// exactly the serial schedule.
    fn exchange(
        &self,
        sends: Vec<(SiteId, Payload)>,
        whole: bool,
        mut on_reply: impl FnMut(SiteId, Instant, AmcResult<Payload>) -> AmcResult<()>,
    ) -> AmcResult<()> {
        if whole {
            let requests: Vec<(SiteId, Option<Payload>)> =
                sends.iter().map(|(s, p)| (*s, self.traced(p))).collect();
            let sent_at = Instant::now();
            let replies = self.transport.call_round(sends);
            for ((site, request), reply) in requests.into_iter().zip(replies) {
                self.record_exchange(site, request, &reply);
                on_reply(site, sent_at, reply)?;
            }
        } else {
            for (site, payload) in sends {
                let request = self.traced(&payload);
                let sent_at = Instant::now();
                let reply = self.transport.call(site, payload);
                self.record_exchange(site, request, &reply);
                on_reply(site, sent_at, reply)?;
            }
        }
        Ok(())
    }

    /// One message outside a coordinator's rounds (the acceptor group's
    /// side of a transaction) and its reply.
    fn dispatch(&self, site: SiteId, payload: Payload) -> AmcResult<Payload> {
        let mut answer = None;
        self.exchange(vec![(site, payload)], false, |_, _, reply| {
            answer = Some(reply);
            Ok(())
        })?;
        answer.expect("one send, one reply")
    }

    /// Number of final-state messages still owed to unreachable sites: the
    /// outstanding sites of every parked coordinator.
    pub fn pending_obligations(&self) -> usize {
        let parked = self.unresolved.lock();
        parked.iter().map(|c| c.outstanding().len()).sum()
    }

    /// Re-drive every parked coordinator — the coordinator side of a
    /// recovered site's inquiry (§3.1): once the site answers again, it
    /// learns the verdict it missed, redoes or undoes as the protocol
    /// demands, and the transaction's retained L1 locks are finally
    /// released.
    ///
    /// One pass per coordinator per call, from what it has
    /// [outstanding](Coordinator::outstanding); one whose sites are still
    /// down stays parked, and so does every coordinator not yet done when
    /// a pass fails with something other than an outage — that error is
    /// returned. Otherwise returns how many owed messages were discharged.
    pub fn resolve_pending(&self) -> AmcResult<usize> {
        let parked = std::mem::take(&mut *self.unresolved.lock());
        let mut discharged = 0usize;
        let mut result = Ok(());
        for coordinator in parked {
            let mut run = Run::new(coordinator, None);
            if result.is_ok() {
                let owed = run.coordinator.outstanding();
                let before = owed.len();
                let resend = owed
                    .into_iter()
                    .map(|(site, payload)| CoordAction::Send { site, payload })
                    .collect();
                result = self.drive(&mut run, resend);
                discharged += before.saturating_sub(run.coordinator.outstanding().len());
            }
            if run.coordinator.is_done() {
                self.release_l1(run.coordinator.gtx());
            } else {
                self.unresolved.lock().push(run.coordinator);
            }
        }
        result.map(|()| discharged)
    }

    /// Global end of `gtx` under the portable protocols (2PC takes no L1
    /// locks).
    fn release_l1(&self, gtx: GlobalTxnId) {
        if self.cfg.protocol != ProtocolKind::TwoPhaseCommit {
            self.l1.release_all(gtx);
        }
    }

    /// Start numbering transactions at `first` instead of 1. A
    /// *replacement* coordinator replica must not reuse the ids its dead
    /// predecessor already burned at the sites — ids only need to be
    /// unique, not dense.
    pub fn set_first_gtx(&self, first: u64) {
        self.next_gtx.store(first.max(1), Ordering::Relaxed);
    }

    /// The in-process acceptor group, when this federation was built with
    /// a [`PaxosCommitConfig`] (fault-injection switchboard for tests and
    /// experiments).
    pub fn paxos_transport(&self) -> Option<&Arc<AcceptorTransport<InProcessTransport>>> {
        self.paxos_transport.as_ref()
    }

    /// A recovery driver speaking as coordinator replica `replica` over
    /// this federation's acceptor group.
    ///
    /// # Panics
    /// When the federation has no Paxos configuration.
    pub fn replica_driver(&self, replica: u32) -> ReplicaDriver<'_> {
        let px = self.cfg.paxos.as_ref().expect("paxos not configured");
        ReplicaDriver::new(&*self.transport, px.acceptors.clone(), replica)
    }

    /// Fault injection: the incumbent coordinator "dies" (the current
    /// `run_transaction` returns an error without delivering a decision)
    /// right after the `votes`-th replicated prepare vote — leaving the
    /// transaction in doubt for a standby to finish.
    pub fn inject_coordinator_crash_after_votes(&self, votes: u32) {
        *self.paxos_crash_after.lock() = Some(votes.max(1));
    }

    fn paxos_crash_due(&self) -> bool {
        let mut slot = self.paxos_crash_after.lock();
        if let Some(n) = slot.as_mut() {
            *n -= 1;
            if *n == 0 {
                *slot = None;
                return true;
            }
        }
        false
    }

    /// Whether the 1PC fast path applies to this federation's runs.
    fn fast_path_active(&self) -> bool {
        self.cfg.fast_path
            && self.cfg.protocol == ProtocolKind::TwoPhaseCommit
            && self.cfg.paxos.is_none()
    }

    /// Run one global transaction until its coordinator is done, or has
    /// decided and can get no further: a site it could not reach is still
    /// owed its final state. That coordinator is parked — with the
    /// transaction's L1 locks, the obligation being part of the
    /// transaction (§4.3) — for [`Federation::resolve_pending`].
    pub fn run_transaction(
        &self,
        per_site: &BTreeMap<SiteId, Vec<Operation>>,
    ) -> AmcResult<TxnReport> {
        let start = Instant::now();
        let gtx = GlobalTxnId::new(self.next_gtx.fetch_add(1, Ordering::Relaxed));

        // --- L1 acquisition (portable protocols only) ---------------------
        if self.cfg.protocol != ProtocolKind::TwoPhaseCommit {
            // The whole lock set is known before execution starts, so fold
            // each object's accesses into one *strongest* mode and acquire
            // in canonical object order. Ordered acquisition removes lock
            // cycles across objects; one-shot strongest-mode acquisition
            // removes upgrade deadlocks on the same object. L1 deadlock is
            // impossible by construction (timeouts remain the overload
            // safety valve).
            use amc_lock::LockMode;
            let mut needed: BTreeMap<ObjectId, amc_lock::SemanticMode> = BTreeMap::new();
            for op in per_site.values().flatten() {
                let mode = self.cfg.policy.mode_for(op);
                needed
                    .entry(op.object())
                    .and_modify(|m| *m = m.combine(mode))
                    .or_insert(mode);
            }
            for (obj, mode) in needed {
                use amc_lock::blocking::AcquireResult;
                match self.l1.acquire_mode(gtx, obj, mode) {
                    AcquireResult::Granted => {}
                    AcquireResult::Deadlock => {
                        self.l1.release_all(gtx);
                        return Ok(TxnReport {
                            gtx,
                            outcome: TxnOutcome::L1Rejected(AbortReason::Deadlock),
                            latency: start.elapsed(),
                            l0_holds: Vec::new(),
                            messages: 0,
                        });
                    }
                    AcquireResult::Timeout => {
                        self.l1.release_all(gtx);
                        return Ok(TxnReport {
                            gtx,
                            outcome: TxnOutcome::L1Rejected(AbortReason::LockTimeout),
                            latency: start.elapsed(),
                            l0_holds: Vec::new(),
                            messages: 0,
                        });
                    }
                }
            }
        }

        // --- Drive the coordinator synchronously --------------------------
        let mut coordinator = Coordinator::new(gtx, self.cfg.protocol, per_site.clone());
        if self.fast_path_active() {
            coordinator = coordinator.with_piggyback();
        }
        let paxos = self.cfg.paxos.as_ref().map(|px| PaxosRun {
            px,
            participants: per_site.keys().copied().collect(),
            registered_at: None,
            ledger: CommitLedger::new(),
            messages: 0,
        });
        let mut run = Run::new(coordinator, paxos);
        let first = run.coordinator.on_event(CoordEvent::Start);
        let result = self.drive(&mut run, first).and_then(|()| {
            let verdict = run.coordinator.verdict();
            verdict.ok_or_else(|| AmcError::Protocol("coordinator never decided".into()))
        });
        // Strict L1 2PL: release only at global end, and a transaction
        // that still owes a site its final state has not ended.
        let parked = result.is_ok() && !run.coordinator.is_done();
        if !parked {
            self.release_l1(gtx);
        }
        let verdict = result?;
        let mut messages = run.messages;
        if let Some(paxos) = &mut run.paxos {
            paxos.close(self, gtx, verdict);
            messages += paxos.messages;
        }
        if self.record_history {
            self.history.lock().set_outcome(gtx, verdict);
        }

        // 2PC and commit-after hold L0 locks until the decision round; the
        // sites that never saw a finish (commit-before commit path) already
        // released at their vote.
        let l0_holds = if verdict == GlobalVerdict::Commit {
            run.l0
                .values()
                .filter_map(|(t0, t1)| Some((*t1)?.duration_since(*t0)))
                .collect()
        } else {
            Vec::new()
        };
        if parked {
            self.unresolved.lock().push(run.coordinator);
        }

        Ok(TxnReport {
            gtx,
            outcome: match verdict {
                GlobalVerdict::Commit => TxnOutcome::Committed,
                GlobalVerdict::Abort => TxnOutcome::Aborted,
            },
            latency: start.elapsed(),
            l0_holds,
            messages,
        })
    }

    /// Push `run`'s coordinator as far as the sites let it go: perform its
    /// actions, feed every reply or failure back as an event, repeat until
    /// no message is in flight. Both `run_transaction` and
    /// `resolve_pending` come through here, so a final-state message is
    /// whatever the state machine says it is, the first time and every
    /// later time.
    fn drive(&self, run: &mut Run<'_>, mut actions: Vec<CoordAction>) -> AmcResult<()> {
        let mut events = VecDeque::new();
        loop {
            if let Some(verdict) = self.perform(run, actions, &mut events)? {
                // The replicated verdict departs from (or pre-empts) the
                // machine's own — e.g. a crashed voter whose durable
                // Prepared survived it. The acceptors win, exactly as a
                // decision log wins after a crash: restart from it.
                events.clear();
                actions = run.coordinator.resume(Some(verdict));
                continue;
            }
            let Some(event) = events.pop_front() else {
                return Ok(());
            };
            actions = run.coordinator.on_event(event);
        }
    }

    /// Perform one batch of coordinator actions: ship its sends as one
    /// message round and queue, per send, the event its reply or failure
    /// means. Returns the acceptor group's verdict when that overrules the
    /// batch (nothing of which has then been sent).
    ///
    /// Two kinds of round go out one call at a time, in site order. Paxos
    /// rounds: registration and vote replication interleave with the
    /// sends. And the submit round of a protocol that keeps the L0 locks
    /// it takes until the decision (all but commit-before): reaching the
    /// sites in one global order is what keeps two transactions from each
    /// holding a page at one site while waiting for the other's at the
    /// next — a distributed deadlock no site can see and only
    /// `lock_timeout` breaks.
    fn perform(
        &self,
        run: &mut Run<'_>,
        actions: Vec<CoordAction>,
        events: &mut VecDeque<CoordEvent>,
    ) -> AmcResult<Option<GlobalVerdict>> {
        let gtx = run.coordinator.gtx();
        let protocol = run.coordinator.protocol();
        let mut sends = Vec::new();
        for action in actions {
            match action {
                CoordAction::Send { site, payload } => sends.push((site, payload)),
                CoordAction::Decided(v) => {
                    if let Some(paxos) = &mut run.paxos {
                        if let Some(verdict) = paxos.on_decided(self, gtx, v)? {
                            return Ok(Some(verdict));
                        }
                    }
                }
                CoordAction::Done(_) => {}
            }
        }
        let submits = sends.iter().any(|(_, p)| is_submit(p));
        let prepares = sends
            .iter()
            .any(|(_, p)| matches!(p, Payload::Prepare { .. }));
        if let (true, Some(paxos)) = (prepares, &mut run.paxos) {
            if let Some(verdict) = paxos.before_prepare(self, gtx)? {
                return Ok(Some(verdict));
            }
        }
        let keeps_l0 = protocol != ProtocolKind::CommitBefore;
        let whole = run.paxos.is_none() && sends.len() > 1 && !(keeps_l0 && submits);
        run.messages += 2 * sends.len() as u64; // request + reply
        self.exchange(sends, whole, |site, sent_at, reply| {
            if submits {
                run.l0.insert(site, (sent_at, None));
            }
            // L0 release points: commit-before releases at local commit
            // (submit reply); the others at the decision/redo/undo reply.
            let released = match &reply {
                Ok(Payload::Vote { vote, .. }) => {
                    if vote.is_yes() && self.record_history {
                        self.record_site_ops(gtx, site, run.coordinator.program(site));
                    }
                    if let (true, Some(paxos)) = (prepares, &mut run.paxos) {
                        paxos.on_prepare_vote(self, gtx, site, vote.is_yes())?;
                    }
                    protocol == ProtocolKind::CommitBefore
                }
                Ok(Payload::Finished { .. }) => true,
                _ => false,
            };
            if released {
                if let Some((_, t1)) = run.l0.get_mut(&site) {
                    *t1 = Some(Instant::now());
                }
            }
            events.push_back(CoordEvent::from_reply(site, reply)?);
            Ok(())
        })?;
        Ok(None)
    }

    fn record_site_ops(&self, gtx: GlobalTxnId, site: SiteId, ops: &[Operation]) {
        let mut history = self.history.lock();
        // An inquiry retry can re-fetch a site's cached yes vote;
        // recording its ops twice would fabricate conflict edges.
        if history.has_events_for(gtx, site) {
            return;
        }
        for op in ops {
            let seq = self.seq.fetch_add(1, Ordering::Relaxed);
            history.record_op(OpEvent {
                gtx,
                site,
                seq,
                op: *op,
            });
        }
    }

    /// Run a batch of programs on `threads` closed-loop clients
    /// ([`closed_loop`](crate::drive::closed_loop): FIFO, casualties of
    /// contention retried boundedly, intended aborts final) and add the
    /// counters only the federation can read off its sites.
    ///
    /// # Panics
    /// When a transaction returns an error: the in-process lanes this
    /// serves have no failure to survive.
    pub fn run_concurrent(
        self: &Arc<Self>,
        programs: Vec<(BTreeMap<SiteId, Vec<Operation>>, bool)>,
        threads: usize,
    ) -> RunMetrics {
        let sheds_before = self.transport.load_sheds();
        let mut metrics = closed_loop(programs, threads, |program| {
            Ok(self
                .run_transaction(program)
                .unwrap_or_else(|e| panic!("federation error: {e}")))
        });
        metrics.load_sheds = self.transport.load_sheds().saturating_sub(sheds_before);
        let comm = self.comm_stats();
        metrics.redo_runs = comm.redo_runs;
        metrics.undo_runs = comm.undo_runs;
        metrics.pre_vote_retries = comm.pre_vote_retries;
        let log = self.log_stats();
        metrics.log_forces = log.forces;
        metrics.log_bytes = log.stable_bytes;
        metrics.group_forces = log.group_forces;
        metrics.batched_commits = log.batched_commits;
        metrics
    }
}

impl PaxosRun<'_> {
    /// Before the first `Prepare` leaves: open the transaction's instance
    /// set at the acceptor group (*BeginCommit*), between the work and
    /// prepare rounds, so that prepare-round votes (and only those) double
    /// as ballot-0 accepts. Returns the abort that pre-empts the round
    /// when the instances cannot be opened durably at a majority — before
    /// any site prepares that is unilateral-safe: no acceptor can ever
    /// choose Prepared.
    fn before_prepare(
        &mut self,
        fed: &Federation,
        gtx: GlobalTxnId,
    ) -> AmcResult<Option<GlobalVerdict>> {
        if self.registered_at.is_some() {
            return Ok(None);
        }
        let mut acked = Vec::new();
        for a in &self.px.acceptors {
            self.messages += 2;
            let payload = Payload::PaxosRegister {
                gtx,
                participants: self.participants.clone(),
            };
            match fed.dispatch(*a, payload) {
                Ok(Payload::PaxosAck { .. }) => acked.push(*a),
                Ok(other) => {
                    return Err(AmcError::Protocol(format!(
                        "unexpected registration reply {other}"
                    )))
                }
                Err(AmcError::SiteDown(_)) | Err(AmcError::TransientIo(_)) => {}
                Err(e) => return Err(e),
            }
        }
        let minority = acked.len() < majority(self.px.acceptors.len());
        self.registered_at = Some(acked);
        Ok(minority.then_some(GlobalVerdict::Abort))
    }

    /// A prepare vote arrived: cross-replicate it at ballot 0. The voting
    /// site's co-located acceptor already holds the accept (the vote reply
    /// *was* the accept — co-location); the other acceptors get an
    /// explicit phase-2a message. Successful Prepared accepts feed the
    /// commit gate.
    fn on_prepare_vote(
        &mut self,
        fed: &Federation,
        gtx: GlobalTxnId,
        site: SiteId,
        prepared: bool,
    ) -> AmcResult<()> {
        let registered_at = self.registered_at.as_deref().unwrap_or_default();
        for a in &self.px.acceptors {
            if *a == site && registered_at.contains(a) {
                if prepared {
                    self.ledger.record_prepared(site, *a);
                }
                continue;
            }
            self.messages += 2;
            let payload = Payload::PaxosP2a {
                gtx,
                site,
                ballot: 0,
                prepared,
            };
            // A non-accept (a recovery ballot superseded 0, the acceptor is
            // unreachable, or the reply is malformed) just means the instance
            // is not chosen at this acceptor — the commit gate decides what
            // that means.
            let accepted = matches!(
                fed.dispatch(*a, payload),
                Ok(Payload::PaxosP2b { accepted: true, .. })
            );
            if prepared && accepted {
                self.ledger.record_prepared(site, *a);
            }
        }
        if fed.paxos_crash_due() {
            return Err(AmcError::InvalidState(format!(
                "injected coordinator crash: {gtx} left in doubt"
            )));
        }
        Ok(())
    }

    /// The coordinator decided `v` on its own. Returns the acceptors'
    /// verdict when it departs from that.
    fn on_decided(
        &mut self,
        fed: &Federation,
        gtx: GlobalTxnId,
        v: GlobalVerdict,
    ) -> AmcResult<Option<GlobalVerdict>> {
        // Work-round abort: nothing was ever registered, no acceptor can
        // choose Prepared — unilateral abort is safe.
        if self.registered_at.is_none() {
            return Ok(None);
        }
        // Every instance chose Prepared at a majority at ballot 0: the
        // commit is already the replicated, durable fact.
        let acceptors = self.px.acceptors.len();
        if v == GlobalVerdict::Commit && self.ledger.all_chosen(&self.participants, acceptors) {
            return Ok(None);
        }
        // Anything else after registration — an abort, or a commit whose
        // ballot-0 replication fell short — must be run through a recovery
        // ballot: a unilateral decision could contradict what a standby
        // reads from the acceptor logs.
        self.messages += 2 * acceptors as u64 * (1 + self.participants.len() as u64);
        let driver =
            ReplicaDriver::new(&*fed.transport, self.px.acceptors.clone(), self.px.replica);
        let (verdict, _) = driver.decide(gtx, &self.participants)?;
        Ok((verdict != v).then_some(verdict))
    }

    /// Close the instances at acceptors that are not participants —
    /// participants' co-located acceptors noted the decision when the
    /// `Decision` payload passed through them. Best-effort: a missed note
    /// keeps the transaction "open" there, and re-finishing an
    /// already-decided transaction is idempotent.
    fn close(&mut self, fed: &Federation, gtx: GlobalTxnId, verdict: GlobalVerdict) {
        if self.registered_at.is_none() {
            return;
        }
        for a in &self.px.acceptors {
            if !self.participants.contains(a) {
                self.messages += 2;
                let _ = fed.dispatch(*a, Payload::PaxosDecided { gtx, verdict });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amc_net::marker::is_marker;
    use amc_verify::history::ConflictDefinition;

    fn site(n: u32) -> SiteId {
        SiteId::new(n)
    }
    fn obj(site_n: u32, idx: u64) -> ObjectId {
        // Mirror the workload naming scheme without depending on it.
        ObjectId::new(u64::from(site_n) * (1 << 32) + idx)
    }
    fn v(n: i64) -> Value {
        Value::counter(n)
    }

    fn loaded(protocol: ProtocolKind, sites: u32) -> Arc<Federation> {
        let fed = Federation::new(FederationConfig::uniform(sites, protocol));
        for s in 1..=sites {
            let data: Vec<(ObjectId, Value)> = (0..50).map(|i| (obj(s, i), v(100))).collect();
            fed.load_site(site(s), &data).unwrap();
        }
        Arc::new(fed)
    }

    fn transfer(from_site: u32, to_site: u32, amount: i64) -> BTreeMap<SiteId, Vec<Operation>> {
        BTreeMap::from([
            (
                site(from_site),
                vec![Operation::Increment {
                    obj: obj(from_site, 0),
                    delta: -amount,
                }],
            ),
            (
                site(to_site),
                vec![Operation::Increment {
                    obj: obj(to_site, 0),
                    delta: amount,
                }],
            ),
        ])
    }

    fn user_sum(fed: &Federation) -> i64 {
        fed.dumps()
            .unwrap()
            .values()
            .flat_map(|d| d.iter())
            .filter(|(o, _)| !is_marker(**o))
            .map(|(_, val)| val.counter)
            .sum()
    }

    #[test]
    fn all_protocols_commit_a_simple_transfer() {
        for protocol in ProtocolKind::ALL {
            let fed = loaded(protocol, 2);
            let report = fed.run_transaction(&transfer(1, 2, 30)).unwrap();
            assert_eq!(report.outcome, TxnOutcome::Committed, "{protocol}");
            let dumps = fed.dumps().unwrap();
            assert_eq!(dumps[&site(1)][&obj(1, 0)], v(70), "{protocol}");
            assert_eq!(dumps[&site(2)][&obj(2, 0)], v(130), "{protocol}");
            assert!(report.messages >= 4);
        }
    }

    #[test]
    fn intended_abort_leaves_no_net_effect_under_all_protocols() {
        for protocol in ProtocolKind::ALL {
            let fed = loaded(protocol, 2);
            let mut program = transfer(1, 2, 30);
            // Site 2's program additionally reads a missing object: the
            // transaction logic fails there.
            program.get_mut(&site(2)).unwrap().push(Operation::Read {
                obj: obj(2, 999_999),
            });
            let report = fed.run_transaction(&program).unwrap();
            assert_eq!(report.outcome, TxnOutcome::Aborted, "{protocol}");
            // Atomicity: no site shows any effect (commit-before undid
            // site 1 via the inverse transaction).
            assert_eq!(user_sum(&fed), 100 * 2 * 50, "{protocol}");
            let dumps = fed.dumps().unwrap();
            assert_eq!(dumps[&site(1)][&obj(1, 0)], v(100), "{protocol}");
        }
    }

    /// An in-process transport whose sites can be taken "down": calls to a
    /// down site fail like a dead TCP peer, while admin (used by
    /// `load_site`/`dumps`) keeps working so tests can observe state.
    struct FlakyTransport {
        inner: InProcessTransport,
        down: Mutex<std::collections::BTreeSet<SiteId>>,
        fail_finish_for: Mutex<Option<SiteId>>,
        /// This site *answers* final-state messages, with a rejection: a
        /// protocol error, not an outage.
        reject_finish_for: Mutex<Option<SiteId>>,
        /// The labels of every round handed over whole.
        rounds: Mutex<Vec<Vec<&'static str>>>,
    }

    impl FederationTransport for FlakyTransport {
        fn sites(&self) -> Vec<SiteId> {
            self.inner.sites()
        }
        fn call(&self, site: SiteId, payload: Payload) -> AmcResult<Payload> {
            if self.down.lock().contains(&site) {
                return Err(AmcError::SiteDown(site));
            }
            let finish = matches!(
                payload,
                Payload::Decision { .. } | Payload::Redo { .. } | Payload::Undo { .. }
            );
            if finish && *self.fail_finish_for.lock() == Some(site) {
                return Err(AmcError::SiteDown(site));
            }
            if finish && *self.reject_finish_for.lock() == Some(site) {
                return Err(AmcError::Protocol(format!("{site} rejects {payload}")));
            }
            self.inner.call(site, payload)
        }
        fn admin(&self, site: SiteId, request: AdminRequest) -> AmcResult<AdminReply> {
            self.inner.admin(site, request)
        }
        fn call_round(&self, sends: Vec<(SiteId, Payload)>) -> Vec<AmcResult<Payload>> {
            let labels = sends.iter().map(|(_, p)| p.label()).collect();
            self.rounds.lock().push(labels);
            sends.into_iter().map(|(s, p)| self.call(s, p)).collect()
        }
    }

    fn flaky(protocol: ProtocolKind, sites: u32) -> (Arc<Federation>, Arc<FlakyTransport>) {
        flaky_with(FederationConfig::uniform(sites, protocol))
    }

    fn flaky_with(cfg: FederationConfig) -> (Arc<Federation>, Arc<FlakyTransport>) {
        let sites = cfg.site_count();
        let protocol = cfg.protocol;
        let managers: BTreeMap<SiteId, Arc<LocalCommManager>> = cfg
            .build_managers()
            .into_iter()
            .map(|m| (m.site(), m))
            .collect();
        let transport = Arc::new(FlakyTransport {
            inner: InProcessTransport::new(managers, submit_mode_for(protocol), cfg.message_delay),
            down: Mutex::new(Default::default()),
            fail_finish_for: Mutex::new(None),
            reject_finish_for: Mutex::new(None),
            rounds: Mutex::new(Vec::new()),
        });
        let fed = Federation::with_transport(cfg, transport.clone());
        for s in 1..=sites {
            let data: Vec<(ObjectId, Value)> = (0..50).map(|i| (obj(s, i), v(100))).collect();
            fed.load_site(site(s), &data).unwrap();
        }
        (Arc::new(fed), transport)
    }

    /// Rounds go to the transport whole — except a submit round whose L0
    /// locks outlive it: those submits must reach the sites one at a
    /// time, in site order, or two transactions could each hold a page at
    /// one site while waiting for the other's at the next.
    #[test]
    fn only_rounds_that_cannot_deadlock_across_sites_are_handed_over_whole() {
        let expected = [
            (
                ProtocolKind::TwoPhaseCommit,
                vec![vec!["prepare", "prepare"], vec!["commit", "commit"]],
            ),
            (ProtocolKind::CommitAfter, vec![vec!["commit", "commit"]]),
            (ProtocolKind::CommitBefore, vec![vec!["submit", "submit"]]),
        ];
        for (protocol, rounds) in expected {
            let (fed, transport) = flaky(protocol, 2);
            let report = fed.run_transaction(&transfer(1, 2, 1)).unwrap();
            assert_eq!(report.outcome, TxnOutcome::Committed);
            assert_eq!(*transport.rounds.lock(), rounds, "{protocol:?}");
        }
    }

    #[test]
    fn down_site_during_votes_forces_abort_and_queues_an_obligation() {
        for protocol in ProtocolKind::ALL {
            let (fed, transport) = flaky(protocol, 2);
            transport.down.lock().insert(site(2));
            let report = fed.run_transaction(&transfer(1, 2, 30)).unwrap();
            assert_eq!(report.outcome, TxnOutcome::Aborted, "{protocol}");
            // The crashed voter is owed the abort it never heard.
            assert_eq!(fed.pending_obligations(), 1, "{protocol}");
            // While it stays down the obligation stays queued.
            assert_eq!(fed.resolve_pending().unwrap(), 0, "{protocol}");
            assert_eq!(fed.pending_obligations(), 1, "{protocol}");
            // Recovery: the site answers again, the abort lands, locks free.
            transport.down.lock().remove(&site(2));
            assert_eq!(fed.resolve_pending().unwrap(), 1, "{protocol}");
            assert_eq!(fed.pending_obligations(), 0, "{protocol}");
            assert_eq!(user_sum(&fed), 100 * 2 * 50, "{protocol}");
            // The released L1 locks admit new transactions on the same set.
            let report = fed.run_transaction(&transfer(1, 2, 30)).unwrap();
            assert_eq!(report.outcome, TxnOutcome::Committed, "{protocol}");
            assert_eq!(user_sum(&fed), 100 * 2 * 50, "{protocol}");
        }
    }

    #[test]
    fn down_site_during_finish_defers_the_decision_and_resolves_on_recovery() {
        for protocol in ProtocolKind::ALL {
            let (fed, transport) = flaky(protocol, 2);
            *transport.fail_finish_for.lock() = Some(site(2));
            let report = fed.run_transaction(&transfer(1, 2, 30)).unwrap();
            // Every vote was yes before the crash: the decision stands.
            assert_eq!(report.outcome, TxnOutcome::Committed, "{protocol}");
            let expect_pending = match protocol {
                // Commit-before's commit path sends no finish message to
                // make idempotent later — the site already committed at
                // submit, so the deferred ack (if any) still counts.
                ProtocolKind::CommitBefore => fed.pending_obligations(),
                _ => 1,
            };
            assert_eq!(fed.pending_obligations(), expect_pending, "{protocol}");
            *transport.fail_finish_for.lock() = None;
            fed.resolve_pending().unwrap();
            assert_eq!(fed.pending_obligations(), 0, "{protocol}");
            // Exactly-once: the transfer shows on both sides, once.
            let dumps = fed.dumps().unwrap();
            assert_eq!(dumps[&site(1)][&obj(1, 0)], v(70), "{protocol}");
            assert_eq!(dumps[&site(2)][&obj(2, 0)], v(130), "{protocol}");
            assert_eq!(user_sum(&fed), 100 * 2 * 50, "{protocol}");
        }
    }

    #[test]
    fn rejected_final_state_message_surfaces_and_loses_no_obligation() {
        // Regression: `resolve_pending` used to return the error after
        // re-queuing only the obligations already found undeliverable —
        // the rejected one and every one not yet tried were dropped, and
        // their L1 locks never released.
        let write_at_2 = BTreeMap::from([(
            site(2),
            vec![Operation::Write {
                obj: obj(2, 0),
                value: v(7),
            }],
        )]);
        for protocol in ProtocolKind::ALL {
            let mut cfg = FederationConfig::uniform(4, protocol);
            cfg.l1_timeout = Duration::from_millis(20);
            let (fed, transport) = flaky_with(cfg);
            // Two transactions park. The first aborts at site 1 while site
            // 2, which did its work, cannot be told: it is owed the abort
            // (for commit-before, the undo of its local commit). The
            // second finds site 4 down.
            *transport.fail_finish_for.lock() = Some(site(2));
            transport.down.lock().insert(site(4));
            let mut failing = transfer(1, 2, 30);
            failing.get_mut(&site(1)).unwrap().push(Operation::Read {
                obj: obj(1, 999_999),
            });
            for program in [failing, transfer(3, 4, 30)] {
                let report = fed.run_transaction(&program).unwrap();
                assert_eq!(report.outcome, TxnOutcome::Aborted, "{protocol}");
            }
            assert_eq!(fed.pending_obligations(), 2, "{protocol}");

            // Both sites answer again — site 2 with a rejection. The error
            // surfaces, and neither the rejected transaction nor the one
            // not yet tried has lost what it owes.
            *transport.fail_finish_for.lock() = None;
            transport.down.lock().clear();
            *transport.reject_finish_for.lock() = Some(site(2));
            let err = fed.resolve_pending().unwrap_err();
            assert!(matches!(err, AmcError::Protocol(_)), "{protocol}: {err}");
            assert_eq!(fed.pending_obligations(), 2, "{protocol}");
            if protocol != ProtocolKind::TwoPhaseCommit {
                // Their L1 locks are still held: a conflicting write waits.
                let blocked = fed.run_transaction(&write_at_2).unwrap();
                assert!(
                    matches!(blocked.outcome, TxnOutcome::L1Rejected(_)),
                    "{protocol}: {blocked:?}"
                );
            }

            // The fault clears: one more pass drains them all, and the
            // same objects take a new transaction.
            *transport.reject_finish_for.lock() = None;
            assert_eq!(fed.resolve_pending().unwrap(), 2, "{protocol}");
            assert_eq!(fed.pending_obligations(), 0, "{protocol}");
            assert_eq!(user_sum(&fed), 100 * 4 * 50, "{protocol}");
            let report = fed.run_transaction(&write_at_2).unwrap();
            assert_eq!(report.outcome, TxnOutcome::Committed, "{protocol}");
        }
    }

    /// A 2PC federation with Paxos Commit: `acceptors` durable acceptors
    /// co-located with the first sites, logs under a per-test temp dir.
    fn paxos_loaded(sites: u32, acceptors: u32, tag: &str) -> Arc<Federation> {
        let dir = std::env::temp_dir().join(format!("amc-fed-paxos-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = FederationConfig::uniform(sites, ProtocolKind::TwoPhaseCommit)
            .with_paxos_commit(acceptors, &dir);
        let fed = Federation::new(cfg);
        for s in 1..=sites {
            let data: Vec<(ObjectId, Value)> = (0..50).map(|i| (obj(s, i), v(100))).collect();
            fed.load_site(site(s), &data).unwrap();
        }
        Arc::new(fed)
    }

    #[test]
    fn paxos_commit_happy_path_replicates_and_commits() {
        let fed = paxos_loaded(3, 3, "happy");
        let report = fed.run_transaction(&transfer(1, 2, 30)).unwrap();
        assert_eq!(report.outcome, TxnOutcome::Committed);
        let dumps = fed.dumps().unwrap();
        assert_eq!(dumps[&site(1)][&obj(1, 0)], v(70));
        assert_eq!(dumps[&site(2)][&obj(2, 0)], v(130));
        // Every acceptor — the participants' co-located ones (which saw
        // the Decision pass through) and the bystander at site 3 (which
        // got an explicit PaxosDecided) — holds the commit durably and
        // reports no open instances.
        let transport = fed.paxos_transport().unwrap();
        for a in 1..=3 {
            let host = transport.host(site(a)).unwrap();
            host.with_acceptor(|acc| {
                assert_eq!(
                    acc.state().decision(report.gtx),
                    Some(GlobalVerdict::Commit),
                    "acceptor {a}"
                );
                assert!(acc.state().open_entries().is_empty(), "acceptor {a}");
                assert!(acc.frame_count() > 0, "acceptor {a} must have logged");
            });
        }
        // The prepare votes of the two participants were accepted at a
        // majority at ballot 0, so the commit took the fast path — but it
        // still paid for registration and cross-replication.
        assert!(report.messages > 8, "{}", report.messages);
    }

    #[test]
    fn paxos_registration_minority_aborts_before_any_prepare() {
        // Acceptors at sites 1–3; two of them unreachable means the
        // instance set cannot be opened durably at a majority, and the
        // transaction (on the disjoint sites 4 and 5) aborts cleanly
        // before any site prepares.
        let fed = paxos_loaded(5, 3, "minority");
        let transport = fed.paxos_transport().unwrap();
        transport.set_down(site(2), true);
        transport.set_down(site(3), true);
        let report = fed.run_transaction(&transfer(4, 5, 30)).unwrap();
        assert_eq!(report.outcome, TxnOutcome::Aborted);
        transport.set_down(site(2), false);
        transport.set_down(site(3), false);
        assert_eq!(user_sum(&fed), 100 * 5 * 50);
        // With the acceptor majority back, the same program commits.
        let report = fed.run_transaction(&transfer(4, 5, 30)).unwrap();
        assert_eq!(report.outcome, TxnOutcome::Committed);
        assert_eq!(user_sum(&fed), 100 * 5 * 50);
    }

    #[test]
    fn standby_replica_aborts_a_partially_prepared_in_doubt_transaction() {
        // The incumbent dies right after replicating the FIRST prepare
        // vote: site 1 is prepared and in doubt, site 2 never saw a
        // prepare. A standby surveys the acceptors — instance 2 is free,
        // so presume-abort — and finishes the transaction itself.
        let fed = paxos_loaded(3, 3, "standby-abort");
        fed.inject_coordinator_crash_after_votes(1);
        let err = fed.run_transaction(&transfer(1, 2, 30)).unwrap_err();
        assert!(matches!(err, AmcError::InvalidState(_)), "{err}");
        let finished = fed.replica_driver(7).run_once().unwrap();
        assert_eq!(finished, vec![(GlobalTxnId::new(1), GlobalVerdict::Abort)]);
        assert_eq!(user_sum(&fed), 100 * 3 * 50);
        // Nothing stays wedged: the prepared site released its locks, so
        // the same accounts accept the next transfer.
        let report = fed.run_transaction(&transfer(1, 2, 30)).unwrap();
        assert_eq!(report.outcome, TxnOutcome::Committed);
        assert_eq!(user_sum(&fed), 100 * 3 * 50);
    }

    #[test]
    fn standby_replica_commits_a_fully_replicated_in_doubt_transaction() {
        // The incumbent dies after BOTH prepare votes were replicated:
        // every instance already chose Prepared at a majority, so the
        // standby must conclude commit — aborting here would contradict
        // the replicated decision.
        let fed = paxos_loaded(3, 3, "standby-commit");
        fed.inject_coordinator_crash_after_votes(2);
        let err = fed.run_transaction(&transfer(1, 2, 30)).unwrap_err();
        assert!(matches!(err, AmcError::InvalidState(_)), "{err}");
        let finished = fed.replica_driver(7).run_once().unwrap();
        assert_eq!(finished, vec![(GlobalTxnId::new(1), GlobalVerdict::Commit)]);
        // Exactly-once: the transfer shows on both sides, once.
        let dumps = fed.dumps().unwrap();
        assert_eq!(dumps[&site(1)][&obj(1, 0)], v(70));
        assert_eq!(dumps[&site(2)][&obj(2, 0)], v(130));
        assert_eq!(user_sum(&fed), 100 * 3 * 50);
        // And the group remembers: a second standby sweep finds nothing.
        assert!(fed.replica_driver(8).run_once().unwrap().is_empty());
    }

    fn fast_loaded(sites: u32) -> Arc<Federation> {
        let cfg = FederationConfig::uniform(sites, ProtocolKind::TwoPhaseCommit).with_fast_path();
        let fed = Federation::new(cfg);
        for s in 1..=sites {
            let data: Vec<(ObjectId, Value)> = (0..50).map(|i| (obj(s, i), v(100))).collect();
            fed.load_site(site(s), &data).unwrap();
        }
        Arc::new(fed)
    }

    #[test]
    fn fast_path_piggyback_saves_the_prepare_round() {
        let classic = loaded(ProtocolKind::TwoPhaseCommit, 2);
        let classic_report = classic.run_transaction(&transfer(1, 2, 30)).unwrap();
        let fast = fast_loaded(2);
        let fast_report = fast.run_transaction(&transfer(1, 2, 30)).unwrap();
        assert_eq!(fast_report.outcome, TxnOutcome::Committed);
        let dumps = fast.dumps().unwrap();
        assert_eq!(dumps[&site(1)][&obj(1, 0)], v(70));
        assert_eq!(dumps[&site(2)][&obj(2, 0)], v(130));
        // Classic 2PC: work + prepare + decision = 3 rounds × 2 sites × 2
        // legs = 12. Piggyback folds prepare into work: 8 — one round trip
        // per site saved.
        assert_eq!(classic_report.messages, 12);
        assert_eq!(fast_report.messages, 8);
    }

    #[test]
    fn fast_path_single_site_commits_with_no_global_round() {
        let classic = loaded(ProtocolKind::TwoPhaseCommit, 1);
        let program = BTreeMap::from([(
            site(1),
            vec![Operation::Increment {
                obj: obj(1, 0),
                delta: 5,
            }],
        )]);
        let classic_report = classic.run_transaction(&program).unwrap();
        let fast = fast_loaded(1);
        let report = fast.run_transaction(&program).unwrap();
        assert_eq!(report.outcome, TxnOutcome::Committed);
        assert_eq!(fast.dumps().unwrap()[&site(1)][&obj(1, 0)], v(105));
        // One exchange total: the combined dispatch and its vote-reply.
        assert_eq!(report.messages, 2);
        assert_eq!(classic_report.messages, 6);
    }

    #[test]
    fn fast_path_abort_vote_leaves_no_net_effect() {
        let fed = fast_loaded(2);
        let mut program = transfer(1, 2, 30);
        program.get_mut(&site(2)).unwrap().push(Operation::Read {
            obj: obj(2, 999_999),
        });
        let report = fed.run_transaction(&program).unwrap();
        assert_eq!(report.outcome, TxnOutcome::Aborted);
        // Site 1's piggybacked prepare must have seen the abort decision.
        assert_eq!(user_sum(&fed), 100 * 2 * 50);
        assert_eq!(fed.dumps().unwrap()[&site(1)][&obj(1, 0)], v(100));
    }

    #[test]
    fn fast_path_single_site_lost_reply_presumes_abort_and_owes_an_undo() {
        let cfg = FederationConfig::uniform(2, ProtocolKind::TwoPhaseCommit).with_fast_path();
        let (fed, transport) = flaky_with(cfg);
        transport.down.lock().insert(site(1));
        let program = BTreeMap::from([(
            site(1),
            vec![Operation::Increment {
                obj: obj(1, 0),
                delta: 5,
            }],
        )]);
        let report = fed.run_transaction(&program).unwrap();
        assert_eq!(report.outcome, TxnOutcome::Aborted);
        assert_eq!(fed.pending_obligations(), 1);
        // The site recovers; the undo obligation lands and the presumed
        // abort becomes fact (the site never committed, so the undo is a
        // no-op guarded by its journal).
        transport.down.lock().remove(&site(1));
        assert_eq!(fed.resolve_pending().unwrap(), 1);
        assert_eq!(user_sum(&fed), 100 * 2 * 50);
        // The same program now commits in one exchange.
        let report = fed.run_transaction(&program).unwrap();
        assert_eq!(report.outcome, TxnOutcome::Committed);
        assert_eq!(report.messages, 2);
        assert_eq!(fed.dumps().unwrap()[&site(1)][&obj(1, 0)], v(105));
    }

    #[test]
    fn fast_path_down_voter_forces_abort_and_the_prepared_site_learns_it() {
        let cfg = FederationConfig::uniform(2, ProtocolKind::TwoPhaseCommit).with_fast_path();
        let (fed, transport) = flaky_with(cfg);
        transport.down.lock().insert(site(2));
        let report = fed.run_transaction(&transfer(1, 2, 30)).unwrap();
        assert_eq!(report.outcome, TxnOutcome::Aborted);
        // Site 1 holds a piggybacked prepare and was told to abort in the
        // decision round; site 2 is owed the abort it never heard.
        assert_eq!(fed.pending_obligations(), 1);
        transport.down.lock().remove(&site(2));
        assert_eq!(fed.resolve_pending().unwrap(), 1);
        assert_eq!(user_sum(&fed), 100 * 2 * 50);
        let report = fed.run_transaction(&transfer(1, 2, 30)).unwrap();
        assert_eq!(report.outcome, TxnOutcome::Committed);
    }

    #[test]
    fn fast_path_concurrent_transfers_preserve_the_invariant() {
        let fed = fast_loaded(3);
        let programs: Vec<(BTreeMap<SiteId, Vec<Operation>>, bool)> = (0..60)
            .map(|i| {
                if i % 2 == 0 {
                    // Single-site: exercises the bypass under concurrency.
                    let s = 1 + (i % 3) as u32;
                    (
                        BTreeMap::from([(
                            site(s),
                            vec![Operation::Increment {
                                obj: obj(s, 1),
                                delta: 0,
                            }],
                        )]),
                        false,
                    )
                } else {
                    let a = 1 + (i % 3) as u32;
                    let b = 1 + ((i + 1) % 3) as u32;
                    (transfer(a, b, 1 + (i % 7) as i64), false)
                }
            })
            .collect();
        let metrics = fed.run_concurrent(programs, 4);
        assert_eq!(metrics.committed, 60, "{metrics:?}");
        assert_eq!(user_sum(&fed), 100 * 3 * 50);
        fed.history()
            .check_serializable(amc_verify::history::ConflictDefinition::Commutativity)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn commit_before_uses_fewest_messages_on_the_commit_path() {
        let mut counts = BTreeMap::new();
        for protocol in ProtocolKind::ALL {
            let fed = loaded(protocol, 2);
            let report = fed.run_transaction(&transfer(1, 2, 5)).unwrap();
            counts.insert(protocol.label(), report.messages);
        }
        // E4's shape: commit-before (4: 2×submit/vote) < commit-after (8)
        // < 2PC (12: work + prepare + decision rounds).
        assert!(counts["commit-before"] < counts["commit-after"]);
        assert!(counts["commit-after"] < counts["2pc"]);
    }

    #[test]
    fn concurrent_transfers_preserve_the_invariant() {
        for protocol in ProtocolKind::ALL {
            let fed = loaded(protocol, 3);
            let programs: Vec<(BTreeMap<SiteId, Vec<Operation>>, bool)> = (0..60)
                .map(|i| {
                    let a = 1 + (i % 3) as u32;
                    let b = 1 + ((i + 1) % 3) as u32;
                    (transfer(a, b, 1 + (i % 7) as i64), false)
                })
                .collect();
            let metrics = fed.run_concurrent(programs, 4);
            assert_eq!(metrics.committed, 60, "{protocol}: {metrics:?}");
            // Money conservation across the federation.
            assert_eq!(user_sum(&fed), 100 * 3 * 50, "{protocol}");
            // Oracle: conflict-serializable.
            fed.history()
                .check_serializable(ConflictDefinition::Commutativity)
                .unwrap_or_else(|e| panic!("{protocol}: {e}"));
        }
    }

    #[test]
    fn history_and_equivalence_oracle_pass_end_to_end() {
        let fed = loaded(ProtocolKind::CommitBefore, 2);
        let initial: BTreeMap<ObjectId, Value> = (1..=2u32)
            .flat_map(|s| (0..50).map(move |i| (obj(s, i), v(100))))
            .collect();
        let mut programs_by_gtx: BTreeMap<GlobalTxnId, Vec<Operation>> = BTreeMap::new();
        for i in 0..20 {
            let p = transfer(1, 2, i % 5);
            let report = fed.run_transaction(&p).unwrap();
            assert_eq!(report.outcome, TxnOutcome::Committed);
            let gtx = GlobalTxnId::new(i as u64 + 1);
            programs_by_gtx.insert(gtx, p.values().flatten().copied().collect());
        }
        let history = fed.history();
        let order = history
            .check_serializable(ConflictDefinition::Commutativity)
            .unwrap();
        let merged: BTreeMap<ObjectId, Value> = fed
            .dumps()
            .unwrap()
            .into_values()
            .flat_map(|d| d.into_iter())
            .collect();
        let divergences =
            amc_verify::check_state_equivalence(&initial, &order, &programs_by_gtx, &merged);
        assert!(divergences.is_empty(), "{divergences:?}");
    }

    #[test]
    fn fig8_interleaving_commits_under_commit_before_semantic_locks() {
        // Two global increments on the same objects, concurrently: must
        // both commit without L1 rejections under the semantic policy.
        let fed = loaded(ProtocolKind::CommitBefore, 2);
        let programs = vec![(transfer(1, 2, 3), false); 20];
        let metrics = fed.run_concurrent(programs, 8);
        assert_eq!(metrics.committed, 20);
        assert_eq!(metrics.l1_rejections, 0, "increments never conflict at L1");
    }

    #[test]
    fn run_concurrent_drains_programs_in_submission_order() {
        // Regression: the work queue was drained LIFO (`Vec::pop`), so the
        // last-submitted program ran first. With one worker thread the
        // execution order is exactly the drain order; make each program
        // overwrite the same object and require the *last submitted* write
        // to be the survivor.
        let fed = loaded(ProtocolKind::CommitBefore, 1);
        let n = 12i64;
        let programs: Vec<(BTreeMap<SiteId, Vec<Operation>>, bool)> = (0..n)
            .map(|i| {
                (
                    BTreeMap::from([(
                        site(1),
                        vec![Operation::Write {
                            obj: obj(1, 0),
                            value: v(1000 + i),
                        }],
                    )]),
                    false,
                )
            })
            .collect();
        let metrics = fed.run_concurrent(programs, 1);
        assert_eq!(metrics.committed, n as u64);
        assert_eq!(
            fed.dumps().unwrap()[&site(1)][&obj(1, 0)],
            v(1000 + n - 1),
            "FIFO: the last-submitted write must win"
        );
    }

    #[test]
    fn message_delay_applies_to_both_legs() {
        // Regression: only the request leg slept, so a transaction of n
        // modelled hops cost n/2 delays. Every hop must pay.
        let delay = Duration::from_millis(4);
        let mut cfg = FederationConfig::uniform(1, ProtocolKind::CommitBefore);
        cfg.message_delay = delay;
        let fed = Federation::new(cfg);
        fed.load_site(site(1), &[(obj(1, 0), v(100))]).unwrap();
        let report = fed
            .run_transaction(&BTreeMap::from([(
                site(1),
                vec![Operation::Increment {
                    obj: obj(1, 0),
                    delta: 1,
                }],
            )]))
            .unwrap();
        assert_eq!(report.outcome, TxnOutcome::Committed);
        assert!(
            report.latency >= delay * report.messages as u32,
            "latency {:?} must cover {} hops × {:?}",
            report.latency,
            report.messages,
            delay
        );
    }

    #[test]
    fn trace_respects_star_topology() {
        let fed = loaded(ProtocolKind::CommitAfter, 2);
        fed.run_transaction(&transfer(1, 2, 1)).unwrap();
        for entry in fed.trace().entries() {
            assert!(entry.envelope.respects_star_topology());
        }
    }

    #[test]
    #[should_panic(expected = "2PC cannot run")]
    fn two_pc_panics_on_heterogeneous_federation() {
        Federation::new(FederationConfig::heterogeneous(
            2,
            ProtocolKind::TwoPhaseCommit,
        ));
    }

    #[test]
    fn heterogeneous_federation_works_under_portable_protocols() {
        for protocol in [ProtocolKind::CommitAfter, ProtocolKind::CommitBefore] {
            let cfg = FederationConfig::heterogeneous(2, protocol);
            let fed = Federation::new(cfg);
            for s in 1..=2u32 {
                let data: Vec<(ObjectId, Value)> = (0..10).map(|i| (obj(s, i), v(100))).collect();
                fed.load_site(site(s), &data).unwrap();
            }
            let fed = Arc::new(fed);
            let report = fed.run_transaction(&transfer(1, 2, 9)).unwrap();
            assert_eq!(report.outcome, TxnOutcome::Committed, "{protocol}");
            let dumps = fed.dumps().unwrap();
            assert_eq!(dumps[&site(2)][&obj(2, 0)], v(109));
        }
    }
}
