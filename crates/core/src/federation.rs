//! The central system and its blocking pump.
//!
//! A [`Federation`] is the paper's central system (§2) — L1 lock table,
//! parked coordinators, decision log, the transport to the sites — and a
//! [`Txn`] is one global transaction in it, sans IO:
//! [`Federation::begin`] takes its L1 locks and builds its
//! [`Coordinator`], [`Federation::step`] feeds it one [`Completion`] and
//! returns the messages to send, [`Federation::end`] releases or parks
//! it. No other code constructs, feeds, logs for, parks or resumes a
//! coordinator. [`Federation::run_transaction`] and
//! [`Federation::resolve_pending`] are the blocking pump over it (one OS
//! thread per transaction over a [`FederationTransport`]); the
//! discrete-event pump is [`SimFederation`](crate::SimFederation).

use crate::config::{FederationConfig, PaxosCommitConfig};
use crate::coordinator::{CoordAction, CoordEvent, Coordinator};
use crate::drive::{closed_loop, Program};
use crate::metrics::RunMetrics;
use amc_mlt::L1LockManager;
use amc_net::comm::SubmitMode;
use amc_net::transport::{AdminReply, AdminRequest, FederationTransport, InProcessTransport};
use amc_net::{LocalCommManager, Payload};
use amc_obs::{EventKind, EventLog, ObsSink};
use amc_paxos::{majority, AcceptorHost, AcceptorTransport, CommitLedger, ReplicaDriver};
use amc_types::{
    AbortReason, AmcError, AmcResult, GlobalTxnId, GlobalVerdict, ObjectId, Operation,
    ProtocolKind, SiteId, Value,
};
use amc_verify::{History, OpEvent};
use amc_wal::{GroupCommitter, LogManager};
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

/// One global transaction at the central system: created by
/// [`Federation::begin`], advanced by [`Federation::step`], closed by
/// [`Federation::end`]. Performs no IO itself.
pub struct Txn {
    coordinator: Coordinator,
    /// Replicated coordination (2PC federations that configure it).
    paxos: Option<PaxosRun>,
    /// The verdict once it stands: the acceptor group let it through, the
    /// decision log has it. The coordinator's own runs ahead of this — a
    /// gate that fails leaves it set, and the transaction in doubt.
    decided: Option<GlobalVerdict>,
    /// Messages exchanged in the coordinator's rounds (requests + replies).
    messages: u64,
}

impl Txn {
    /// Around a new coordinator, or a parked one (which has decided).
    fn new(coordinator: Coordinator, paxos: Option<PaxosRun>) -> Self {
        Txn {
            decided: coordinator.verdict(),
            coordinator,
            paxos,
            messages: 0,
        }
    }

    /// This transaction's id.
    pub fn gtx(&self) -> GlobalTxnId {
        self.coordinator.gtx()
    }

    /// True once every site has its final state (global end).
    pub fn is_done(&self) -> bool {
        self.coordinator.is_done()
    }
}

/// What a pump feeds a [`Txn`].
pub enum Completion {
    /// `site` answered a message of this transaction, or the pump stopped
    /// waiting for it: an outage (`SiteDown`, `TransientIo`) is the
    /// coordinator's `Unreachable` event, any other error is the pump's.
    Reply {
        /// The answering (or silent) site.
        site: SiteId,
        /// Its answer.
        reply: AmcResult<Payload>,
    },
    /// The retransmission timer fired (the pump decides the cadence).
    Timer,
}

/// The messages a [`Txn`] asks its pump to send: one per site, independent.
pub type Sends = Vec<(SiteId, Payload)>;

/// What moves a coordinator: an event, or the verdict a decision log
/// remembers (none: presume abort) overruling whatever it knew.
enum Input {
    Event(CoordEvent),
    Resume(Option<GlobalVerdict>),
}

/// Paxos Commit bookkeeping of one transaction: where the instance set is
/// open, which prepare votes are chosen.
#[derive(Default)]
struct PaxosRun {
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

/// Per site: when its submit was handed to the transport, and when the
/// reply that released its L0 locks was processed.
type L0Tenures = BTreeMap<SiteId, (Instant, Option<Instant>)>;

/// A running federation: central system + communication managers + sealed
/// engines.
pub struct Federation {
    cfg: FederationConfig,
    pub(crate) managers: BTreeMap<SiteId, Arc<LocalCommManager>>,
    transport: Arc<dyn FederationTransport>,
    l1: L1LockManager,
    next_gtx: AtomicU64,
    history: Mutex<History>,
    seq: AtomicU64,
    record_history: bool,
    /// Coordinators that decided but still owe an unreachable site its
    /// final state.
    unresolved: Mutex<Vec<Coordinator>>,
    /// Given to every coordinator: the simulator's sink, an event log
    /// opted into by [`Federation::set_recording`], else disabled.
    obs: ObsSink,
    /// The central decision log: a verdict is recorded (the acceptors'
    /// under Paxos Commit) before any message carrying it leaves `step`,
    /// and a restart resumes from it. In memory, kept only under the
    /// simulator (ROADMAP item 8 makes it durable and universal).
    decisions: Option<Mutex<BTreeMap<GlobalTxnId, GlobalVerdict>>>,
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
        Self::build(cfg, ObsSink::disabled(), false)
    }

    /// [`Federation::new`] for the discrete-event pump: `obs` attached to
    /// the sites and every coordinator, the decision log kept on request.
    pub(crate) fn build(cfg: FederationConfig, obs: ObsSink, decision_log: bool) -> Self {
        assert!(
            cfg.is_runnable(),
            "2PC cannot run on a federation with non-preparable engines (§3.1)"
        );
        let managers: BTreeMap<SiteId, Arc<LocalCommManager>> = cfg
            .build_managers()
            .into_iter()
            .map(|mut m| {
                if obs.is_enabled() {
                    Arc::get_mut(&mut m)
                        .expect("freshly built manager is unshared")
                        .set_obs(obs.clone());
                }
                (m.site(), m)
            })
            .collect();
        let inner = InProcessTransport::new(
            managers.clone(),
            submit_mode_for(cfg.protocol),
            cfg.message_delay,
        );
        let mut paxos_transport = None;
        let transport: Arc<dyn FederationTransport> = match &cfg.paxos {
            None => Arc::new(inner),
            // Replicated coordination: mount an acceptor at each
            // configured site by decorating the transport — the same
            // interception the TCP site server performs. Each writes
            // through an in-memory log and group committer of its own,
            // as the in-process engines do.
            Some(px) => {
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
                let host = |a: &SiteId| {
                    let wal = GroupCommitter::new(LogManager::new(), cfg.tpl.group_commit);
                    let host = AcceptorHost::mount(*a, Arc::new(wal));
                    (*a, host.expect("an empty log replays"))
                };
                let hosts = px.acceptors.iter().map(host).collect();
                let decorated = Arc::new(AcceptorTransport::new(inner, hosts));
                paxos_transport = Some(Arc::clone(&decorated));
                decorated
            }
        };
        Federation {
            obs,
            decisions: decision_log.then(Mutex::default),
            paxos_transport,
            ..Self::assemble(cfg, managers, transport)
        }
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
            seq: AtomicU64::new(1),
            record_history: false,
            unresolved: Mutex::new(Vec::new()),
            obs: ObsSink::disabled(),
            decisions: None,
            paxos_transport: None,
            paxos_crash_after: Mutex::new(None),
        }
    }

    /// Opt in to oracle bookkeeping: the operation [`History`] the
    /// `amc-verify` checkers replay, and (`trace`) an event log of every
    /// message and coordinator transition, read back through
    /// [`Federation::events`]. Both are off by default — each grows under
    /// a federation-wide mutex taken per message, which an embedding that
    /// only wants transactions run must not pay for (or forget to switch
    /// off).
    pub fn set_recording(&mut self, history: bool, trace: bool) {
        self.record_history = history;
        if trace && !self.obs.is_enabled() {
            self.obs = ObsSink::enabled(amc_obs::log::DEFAULT_EVENT_CAP);
        }
    }

    /// The communication manager of `site` — only available when the
    /// federation runs in-process (transports hide remote managers).
    pub fn manager(&self, site: SiteId) -> Option<&Arc<LocalCommManager>> {
        self.managers.get(&site)
    }

    /// The configuration this federation was built from.
    pub fn config(&self) -> &FederationConfig {
        &self.cfg
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

    /// Snapshot of the event log (empty unless one is kept).
    pub fn events(&self) -> EventLog {
        self.obs.snapshot()
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

    /// The L1 lock table (invariant checks, granted count).
    pub fn l1(&self) -> &L1LockManager {
        &self.l1
    }

    /// L1 lock-manager counters.
    pub fn l1_stats(&self) -> amc_lock::LockStats {
        self.l1.stats()
    }

    /// The blocking pump's message events: `request` went out to `site`
    /// and `reply`, if one came, back in — what the simulator's router
    /// and the rpc client emit on their wires. A request that met an
    /// outage is a `MsgSend` nobody received.
    fn observe_exchange(
        &self,
        gtx: GlobalTxnId,
        site: SiteId,
        request: &'static str,
        reply: &AmcResult<Payload>,
    ) {
        if !self.obs.is_enabled() {
            return;
        }
        let send = |label, from: SiteId, to: SiteId| {
            let sent = EventKind::MsgSend { label, from, to };
            self.obs.emit(Some(gtx), from, sent);
        };
        let deliver = |label, from: SiteId, to: SiteId| {
            let delivered = EventKind::MsgDeliver { label, from };
            self.obs.emit(Some(gtx), to, delivered);
        };
        send(request, SiteId::CENTRAL, site);
        // Only an answer shows that the request arrived.
        if let Ok(reply) = reply {
            deliver(request, SiteId::CENTRAL, site);
            send(reply.label(), site, SiteId::CENTRAL);
            deliver(reply.label(), site, SiteId::CENTRAL);
        }
    }

    /// One message and its reply.
    fn dispatch(&self, site: SiteId, payload: Payload) -> AmcResult<Payload> {
        let (gtx, request) = (payload.gtx(), payload.label());
        let reply = self.transport.call(site, payload);
        self.observe_exchange(gtx, site, request, &reply);
        reply
    }

    /// Number of final-state messages still owed to unreachable sites: the
    /// outstanding sites of every parked coordinator.
    pub fn pending_obligations(&self) -> usize {
        let parked = self.unresolved.lock();
        parked.iter().map(|c| c.outstanding().len()).sum()
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

    fn paxos_config(&self) -> &PaxosCommitConfig {
        self.cfg.paxos.as_ref().expect("paxos not configured")
    }

    /// A recovery driver speaking as coordinator replica `replica` over
    /// this federation's acceptor group (panics when it has none).
    pub fn replica_driver(&self, replica: u32) -> ReplicaDriver<'_> {
        let acceptors = self.paxos_config().acceptors.clone();
        ReplicaDriver::new(&*self.transport, acceptors, replica)
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

    // --- The central system: begin → step → end ----------------------------

    /// Acquire every L1 lock `program` needs for `gtx`, or none of them
    /// (2PC has no L1 layer). The whole lock set is known before execution
    /// starts, so each object's accesses fold into one *strongest* mode,
    /// acquired in canonical object order. Ordered acquisition removes lock
    /// cycles across objects; one-shot strongest-mode acquisition removes
    /// upgrade deadlocks on the same object. L1 deadlock is impossible by
    /// construction (timeouts remain the overload safety valve).
    fn acquire_l1(&self, gtx: GlobalTxnId, program: &Program) -> Result<(), AbortReason> {
        use amc_lock::blocking::AcquireResult;
        use amc_lock::LockMode;
        if self.cfg.protocol == ProtocolKind::TwoPhaseCommit {
            return Ok(());
        }
        let mut needed: BTreeMap<ObjectId, amc_lock::SemanticMode> = BTreeMap::new();
        for op in program.values().flatten() {
            let mode = self.cfg.policy.mode_for(op);
            needed
                .entry(op.object())
                .and_modify(|m| *m = m.combine(mode))
                .or_insert(mode);
        }
        for (&obj, &mode) in &needed {
            let reason = match self.l1.acquire_mode(gtx, obj, mode) {
                AcquireResult::Granted => continue,
                AcquireResult::Deadlock => AbortReason::Deadlock,
                AcquireResult::Timeout => AbortReason::LockTimeout,
            };
            self.release_l1(gtx, needed.range(..obj).map(|(o, _)| *o));
            return Err(reason);
        }
        Ok(())
    }

    /// Global end of `gtx`: release the L1 locks it took on `objects`
    /// (2PC takes none).
    fn release_l1(&self, gtx: GlobalTxnId, objects: impl Iterator<Item = ObjectId>) {
        if self.cfg.protocol != ProtocolKind::TwoPhaseCommit {
            self.l1.release(gtx, &objects.collect::<Vec<_>>());
        }
    }

    /// The coordinator of `gtx` as it is before anything happened to it —
    /// at `begin`, and again when a restarted central system recovers it.
    fn open(&self, gtx: GlobalTxnId, program: &Program) -> Txn {
        let mut coordinator = Coordinator::new(gtx, self.cfg.protocol, program.clone());
        // The 1PC fast path piggybacks 2PC's prepare, and Paxos Commit
        // hangs its ballot-0 accepts off the explicit prepare round.
        if self.cfg.fast_path
            && self.cfg.protocol == ProtocolKind::TwoPhaseCommit
            && self.cfg.paxos.is_none()
        {
            coordinator = coordinator.with_piggyback();
        }
        let paxos = self.cfg.paxos.as_ref().map(|_| PaxosRun {
            participants: program.keys().copied().collect(),
            ..PaxosRun::default()
        });
        Txn::new(coordinator, paxos)
    }

    /// Admit one global transaction: allocate its id, take its L1 locks
    /// before any local work (§4.3), build its coordinator and start it.
    /// Returns the transaction and the messages that ship its programs —
    /// or the id it burned and why L1 turned it away (retry).
    pub fn begin(&self, program: &Program) -> Result<(Txn, Sends), (GlobalTxnId, AbortReason)> {
        let gtx = GlobalTxnId::new(self.next_gtx.fetch_add(1, Ordering::Relaxed));
        self.acquire_l1(gtx, program).map_err(|why| (gtx, why))?;
        self.obs
            .emit(Some(gtx), SiteId::CENTRAL, EventKind::TxnStart);
        let mut txn = self.open(gtx, program);
        txn.coordinator.set_obs(self.obs.clone());
        let first = self.advance(&mut txn, Input::Event(CoordEvent::Start));
        Ok((txn, first.expect("no acceptor is asked at a start")))
    }

    /// Rebuild `gtx` after a central restart from the decision log: a
    /// logged decision resumes its finish round, anything else is presumed
    /// aborted. Either way it retakes its L1 locks first — the repair still
    /// owed (redo, undo) needs the isolation the original work had — so the
    /// caller recovers every unfinished transaction before admitting a new one.
    pub(crate) fn recover(&self, gtx: GlobalTxnId, program: &Program) -> (Txn, Sends) {
        self.acquire_l1(gtx, program)
            .expect("transactions that held their L1 locks together can retake them");
        let logged = self
            .decisions
            .as_ref()
            .and_then(|log| log.lock().get(&gtx).copied());
        self.obs
            .emit(Some(gtx), SiteId::CENTRAL, EventKind::Resume { logged });
        let mut txn = self.open(gtx, program);
        let sends = self.advance(&mut txn, Input::Resume(logged));
        // Observed only from here on: the log's verdict is not news.
        txn.coordinator.set_obs(self.obs.clone());
        (txn, sends.expect("no acceptor is asked at a restart"))
    }

    /// Central crash: everything volatile is lost — the `live`
    /// transactions, the parked coordinators, and with them the whole L1
    /// table, swept per lost transaction. The decision log survives.
    pub(crate) fn crash(&self, live: impl IntoIterator<Item = Txn>) {
        let parked = std::mem::take(&mut *self.unresolved.lock());
        let lost = live.into_iter().map(|txn| txn.coordinator).chain(parked);
        lost.for_each(|coordinator| self.l1.release_all(coordinator.gtx()));
    }

    /// Feed `txn` one completion; returns the messages to send next. An
    /// `Err` — a reply no participant should send, a failed acceptor group
    /// — is the pump's to surface, after [`end`](Federation::end)ing `txn`.
    pub fn step(&self, txn: &mut Txn, completion: Completion) -> AmcResult<Sends> {
        let gtx = txn.gtx();
        let (site, reply) = match completion {
            Completion::Timer => return self.advance(txn, Input::Event(CoordEvent::Timer)),
            Completion::Reply { site, reply } => (site, reply),
        };
        if let Ok(Payload::Vote { vote, .. }) = &reply {
            if vote.is_yes() && self.record_history {
                self.record_site_ops(gtx, site, txn.coordinator.program(site));
            }
            if let Some(paxos) = &mut txn.paxos {
                paxos.on_vote(self, gtx, site, vote.is_yes())?;
            }
        }
        self.advance(txn, Input::Event(CoordEvent::from_reply(site, reply)?))
    }

    /// Move `txn`'s coordinator by `input` and interpret what it asks for.
    /// Sends are returned; a decision is first gated by the acceptor group
    /// when there is one — its verdict overrules the machine's as a
    /// decision log does after a crash: restart from it — and recorded in
    /// the decision log when one is kept. Only then does it stand.
    fn advance(&self, txn: &mut Txn, mut input: Input) -> AmcResult<Sends> {
        let gtx = txn.gtx();
        loop {
            let actions = match input {
                Input::Event(event) => txn.coordinator.on_event(event),
                Input::Resume(logged) => {
                    let actions = txn.coordinator.resume(logged);
                    txn.decided = txn.coordinator.verdict();
                    actions
                }
            };
            let mut sends = Vec::new();
            let mut overruled = None;
            for action in actions {
                match action {
                    CoordAction::Send { site, payload } => sends.push((site, payload)),
                    CoordAction::Decided(v) => {
                        if let Some(paxos) = &mut txn.paxos {
                            overruled = paxos.on_decided(self, gtx, v)?;
                        }
                        let stands = overruled.unwrap_or(v);
                        if let Some(log) = &self.decisions {
                            log.lock().insert(gtx, stands);
                        }
                        txn.decided = Some(stands);
                    }
                    CoordAction::Done(_) => {}
                }
            }
            if let Some(paxos) = &mut txn.paxos {
                let prepares = sends
                    .iter()
                    .any(|(_, p)| matches!(p, Payload::Prepare { .. }));
                if overruled.is_none() && prepares {
                    overruled = paxos.before_prepare(self, gtx)?;
                }
            }
            match overruled {
                // Nothing of the overruled batch is sent.
                Some(verdict) => input = Input::Resume(Some(verdict)),
                None => {
                    txn.messages += 2 * sends.len() as u64; // request + reply
                    return Ok(sends);
                }
            }
        }
    }

    /// Close `txn`: at global end its L1 locks are released. One whose
    /// verdict stands but still owes a site its final state has not ended:
    /// its coordinator is parked with the locks (the obligation is part of
    /// the transaction, §4.3) for [`Federation::resolve_pending`], whatever
    /// stopped its pump. One whose acceptor group failed it is dropped in
    /// doubt — a standby decides it. Returns the verdict, if any, and
    /// messages exchanged.
    pub fn end(&self, mut txn: Txn) -> (Option<GlobalVerdict>, u64) {
        let gtx = txn.gtx();
        let verdict = txn.decided;
        let mut messages = txn.messages;
        if let Some(verdict) = verdict {
            if let Some(paxos) = &mut txn.paxos {
                paxos.close(self, gtx, verdict);
                messages += paxos.messages;
            }
            if self.record_history {
                self.history.lock().set_outcome(gtx, verdict);
            }
        }
        if verdict.is_some() && !txn.is_done() {
            self.unresolved.lock().push(txn.coordinator);
        } else {
            self.release_l1(gtx, txn.coordinator.objects());
        }
        (verdict, messages)
    }

    // --- The blocking pump --------------------------------------------------

    /// Push `txn` as far as the sites let it go: hand each batch of sends
    /// to the transport as one message round, feed every reply or failure
    /// to [`Federation::step`] in emission order, repeat until no message
    /// is in flight. Both `run_transaction` and `resolve_pending` come
    /// through here, so a final-state message is whatever the state
    /// machine says it is, the first time and every later time. Which
    /// rounds go whole: DESIGN.md §9, "One round primitive". A message the
    /// machine stopped owing after it emitted it is neither shipped nor
    /// counted: a dispatch queued behind the vote that decided, an inquiry
    /// a later reply of its round answered.
    fn pump(&self, txn: &mut Txn, first: Sends, l0: &mut L0Tenures) -> AmcResult<()> {
        let gtx = txn.gtx();
        let keeps_l0 = txn.coordinator.protocol() != ProtocolKind::CommitBefore;
        let mut batches = VecDeque::from([first]);
        while let Some(mut sends) = batches.pop_front() {
            sends.retain(|(site, p)| {
                let owed = txn.coordinator.owes(*site, p);
                txn.messages -= 2 * u64::from(!owed);
                owed
            });
            let is_submit =
                |p: &Payload| matches!(p, Payload::Submit { .. } | Payload::SubmitPrepare { .. });
            let submits = sends.iter().any(|(_, p)| is_submit(p));
            let whole = txn.paxos.is_none() && sends.len() > 1 && !(keeps_l0 && submits);
            if !whole && sends.len() > 1 {
                // One at a time: the rest is owed, or not, after this reply.
                batches.push_front(sends.split_off(1));
            }
            let requests: Vec<(SiteId, &'static str)> =
                sends.iter().map(|(s, p)| (*s, p.label())).collect();
            let sent_at = Instant::now();
            let replies = if whole {
                self.transport.call_round(sends)
            } else {
                let call = |(site, p)| self.transport.call(site, p);
                sends.into_iter().map(call).collect()
            };
            for ((site, request), reply) in requests.into_iter().zip(replies) {
                self.observe_exchange(gtx, site, request, &reply);
                if submits {
                    l0.insert(site, (sent_at, None));
                }
                // L0 release points: commit-before releases at local commit
                // (submit reply); the others at the decision/redo/undo reply.
                let released = match &reply {
                    Ok(Payload::Vote { .. }) => !keeps_l0,
                    Ok(Payload::Finished { .. }) => true,
                    _ => false,
                };
                if let (true, Some((_, t1))) = (released, l0.get_mut(&site)) {
                    *t1 = Some(Instant::now());
                }
                let next = self.step(txn, Completion::Reply { site, reply })?;
                if !next.is_empty() {
                    batches.push_back(next);
                }
            }
        }
        Ok(())
    }

    /// Run one global transaction until its coordinator is done, or has
    /// decided and can get no further: a site it could not reach is still
    /// owed its final state. That coordinator is parked — with the
    /// transaction's L1 locks — for [`Federation::resolve_pending`].
    pub fn run_transaction(&self, per_site: &Program) -> AmcResult<TxnReport> {
        let start = Instant::now();
        let report = |gtx, outcome, l0_holds, messages| TxnReport {
            gtx,
            outcome,
            latency: start.elapsed(),
            l0_holds,
            messages,
        };
        let (mut txn, first) = match self.begin(per_site) {
            Ok(begun) => begun,
            Err((gtx, why)) => return Ok(report(gtx, TxnOutcome::L1Rejected(why), Vec::new(), 0)),
        };
        let gtx = txn.gtx();
        let mut l0 = L0Tenures::new();
        let pumped = self.pump(&mut txn, first, &mut l0);
        let (verdict, messages) = self.end(txn);
        pumped?;
        // 2PC and commit-after hold L0 locks until the decision round; the
        // sites that never saw a finish (commit-before commit path) already
        // released at their vote.
        let tenure = |(t0, t1): &(Instant, Option<Instant>)| Some((*t1)?.duration_since(*t0));
        let (outcome, l0_holds) = match verdict {
            Some(GlobalVerdict::Commit) => {
                let l0_holds = l0.values().filter_map(tenure).collect();
                (TxnOutcome::Committed, l0_holds)
            }
            Some(GlobalVerdict::Abort) => (TxnOutcome::Aborted, Vec::new()),
            None => return Err(AmcError::Protocol("coordinator never decided".into())),
        };
        Ok(report(gtx, outcome, l0_holds, messages))
    }

    /// Re-drive every parked coordinator — the coordinator side of a
    /// recovered site's inquiry (§3.1): once the site answers again, it
    /// learns the verdict it missed, redoes or undoes as the protocol
    /// demands, and the transaction's retained L1 locks are finally
    /// released.
    ///
    /// One pass per coordinator per call, from what it has outstanding;
    /// one whose sites are still down stays parked, and so does every
    /// coordinator not yet done when a pass fails with something other
    /// than an outage — that error is returned. Otherwise returns how many
    /// owed messages were discharged.
    pub fn resolve_pending(&self) -> AmcResult<usize> {
        let parked = std::mem::take(&mut *self.unresolved.lock());
        let mut discharged = 0usize;
        let mut result = Ok(());
        for coordinator in parked {
            let mut txn = Txn::new(coordinator, None);
            if result.is_ok() {
                let owed = txn.coordinator.outstanding();
                let before = owed.len();
                result = self.pump(&mut txn, owed, &mut L0Tenures::new());
                discharged += before.saturating_sub(txn.coordinator.outstanding().len());
            }
            self.end(txn);
        }
        result.map(|()| discharged)
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
    /// ([`closed_loop`]: FIFO, casualties of
    /// contention retried boundedly, intended aborts final) and add the
    /// counters only the federation can read off its sites.
    ///
    /// # Panics
    /// When a transaction returns an error: the in-process lanes this
    /// serves have no failure to survive.
    pub fn run_concurrent(
        self: &Arc<Self>,
        programs: Vec<(Program, bool)>,
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

impl PaxosRun {
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
        let acceptors = &fed.paxos_config().acceptors;
        let mut acked = Vec::new();
        for a in acceptors {
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
        let minority = acked.len() < majority(acceptors.len());
        self.registered_at = Some(acked);
        Ok(minority.then_some(GlobalVerdict::Abort))
    }

    /// A vote arrived. Once the instance set is open every vote answers a
    /// `Prepare`: cross-replicate it at ballot 0. The voting site's
    /// co-located acceptor already holds the accept (the vote reply *was*
    /// the accept — co-location); the other acceptors get an explicit
    /// phase-2a message. Successful Prepared accepts feed the commit gate.
    fn on_vote(
        &mut self,
        fed: &Federation,
        gtx: GlobalTxnId,
        site: SiteId,
        prepared: bool,
    ) -> AmcResult<()> {
        let Some(registered_at) = self.registered_at.as_deref() else {
            return Ok(()); // a work-round vote
        };
        for a in &fed.paxos_config().acceptors {
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
    /// verdict when it departs from that — e.g. a crashed voter whose
    /// durable Prepared survived it.
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
        let acceptors = fed.paxos_config().acceptors.len();
        if v == GlobalVerdict::Commit && self.ledger.all_chosen(&self.participants, acceptors) {
            return Ok(None);
        }
        // Anything else after registration — an abort, or a commit whose
        // ballot-0 replication fell short — must be run through a recovery
        // ballot: a unilateral decision could contradict what a standby
        // reads from the acceptor logs.
        self.messages += 2 * acceptors as u64 * (1 + self.participants.len() as u64);
        let driver = fed.replica_driver(0); // the incumbent
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
        for a in &fed.paxos_config().acceptors {
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

    /// `cfg`'s federation, oracle recording on, 50 counters of 100 per site.
    fn loaded_with(cfg: FederationConfig) -> Arc<Federation> {
        let sites = cfg.site_count();
        let mut fed = Federation::new(cfg);
        fed.set_recording(true, true);
        for s in 1..=sites {
            let data: Vec<(ObjectId, Value)> = (0..50).map(|i| (obj(s, i), v(100))).collect();
            fed.load_site(site(s), &data).unwrap();
        }
        Arc::new(fed)
    }

    fn loaded(protocol: ProtocolKind, sites: u32) -> Arc<Federation> {
        loaded_with(FederationConfig::uniform(sites, protocol))
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
            // Site 1 also overwrites a value: its undo needs a before image.
            program.get_mut(&site(1)).unwrap().push(Operation::Write {
                obj: obj(1, 1),
                value: v(7),
            });
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
            assert_eq!(dumps[&site(1)][&obj(1, 1)], v(100), "{protocol}");
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
        /// Just before this site's next final-state message, its manager
        /// process restarts: a fresh manager over the same database,
        /// rebuilt from it as a restarted site server rebuilds.
        restart_before_finish: Mutex<Option<SiteId>>,
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
            if finish
                && self
                    .restart_before_finish
                    .lock()
                    .take_if(|s| *s == site)
                    .is_some()
            {
                let old = self.inner.remove_site(site).expect("a member");
                let engine = old.handle().engine();
                engine.crash();
                let report = engine.recover()?;
                let fresh = LocalCommManager::new(site, old.handle().clone());
                fresh.restore_work(&report.prepared)?;
                self.inner.add_site(site, Arc::new(fresh));
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
            restart_before_finish: Mutex::new(None),
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

    /// A site whose manager process restarts inside the decision window —
    /// after its vote, before its final-state message lands — has lost
    /// everything it held in memory. The transaction still finishes from
    /// what its database kept: 2PC's decision finds the local transaction
    /// its prepare record names; commit-before's `Undo` brings the program
    /// to invert; commit-after's site answers the decision with an outage,
    /// and the obligation re-ships the program as `Redo`.
    #[test]
    fn a_site_restarted_inside_the_decision_window_finishes_from_its_database() {
        for protocol in ProtocolKind::ALL {
            let (fed, transport) = flaky(protocol, 2);
            *transport.restart_before_finish.lock() = Some(site(2));
            let mut program = transfer(1, 2, 30);
            if protocol == ProtocolKind::CommitBefore {
                // Site 2 hears of the outcome only if it must undo.
                program.get_mut(&site(1)).unwrap().push(Operation::Read {
                    obj: obj(1, 999_999),
                });
            }
            let report = fed.run_transaction(&program).unwrap();
            assert_eq!(*transport.restart_before_finish.lock(), None, "{protocol}");
            fed.resolve_pending().unwrap();
            assert_eq!(fed.pending_obligations(), 0, "{protocol}");
            // What the restarted site had to repeat from a shipped program.
            let Ok(AdminReply::CommStats(stats)) =
                transport.admin(site(2), AdminRequest::CommStats)
            else {
                panic!("{protocol}: no stats");
            };
            let repeated = match protocol {
                ProtocolKind::TwoPhaseCommit => (0, 0),
                ProtocolKind::CommitAfter => (1, 0),
                ProtocolKind::CommitBefore => (0, 1),
            };
            assert_eq!((stats.redo_runs, stats.undo_runs), repeated, "{protocol}");
            let expected = match report.outcome {
                TxnOutcome::Committed => v(130),
                _ => v(100),
            };
            assert_eq!(
                fed.dumps().unwrap()[&site(2)][&obj(2, 0)],
                expected,
                "{protocol}"
            );
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

            // The same rejection on the *first* pass after the decision:
            // `run_transaction` used to release the L1 locks and drop the
            // coordinator with its outstanding site on any `Err`.
            *transport.reject_finish_for.lock() = Some(site(2));
            let mut failing = transfer(1, 2, 30);
            failing.get_mut(&site(1)).unwrap().push(Operation::Read {
                obj: obj(1, 999_999),
            });
            let err = fed.run_transaction(&failing).unwrap_err();
            assert!(matches!(err, AmcError::Protocol(_)), "{protocol}: {err}");
            assert_eq!(fed.pending_obligations(), 1, "{protocol}");
            if protocol != ProtocolKind::TwoPhaseCommit {
                let blocked = fed.run_transaction(&write_at_2).unwrap();
                assert!(
                    matches!(blocked.outcome, TxnOutcome::L1Rejected(_)),
                    "{protocol}: {blocked:?}"
                );
            }
            *transport.reject_finish_for.lock() = None;
            assert_eq!(fed.resolve_pending().unwrap(), 1, "{protocol}");
            assert_eq!(fed.pending_obligations(), 0, "{protocol}");
            assert_eq!(fed.l1().granted_count(), 0, "{protocol}");
            let report = fed.run_transaction(&write_at_2).unwrap();
            assert_eq!(report.outcome, TxnOutcome::Committed, "{protocol}");
        }
    }

    /// Drive `begin` / `step` / `end` by hand: every send is delivered at
    /// once and its reply kept, then the replies are fed in an order, and
    /// with repetitions, the blocking pump never produces.
    #[test]
    fn txn_tolerates_replies_out_of_order_duplicated_and_after_done() {
        for protocol in ProtocolKind::ALL {
            let fed = loaded(protocol, 2);
            let deliver = |sends: Sends| -> Vec<Completion> {
                let reply = |(site, payload)| Completion::Reply {
                    site,
                    reply: fed.transport().call(site, payload),
                };
                sends.into_iter().map(reply).collect()
            };
            let again = |c: &Completion| match c {
                Completion::Reply { site, reply } => Completion::Reply {
                    site: *site,
                    reply: reply.clone(),
                },
                Completion::Timer => Completion::Timer,
            };
            let (mut txn, first) = fed
                .begin(&transfer(1, 2, 30))
                .unwrap_or_else(|e| panic!("{e:?}"));
            let mut seen = Vec::new();
            let mut inbox = deliver(first);
            assert_eq!(inbox.len(), 2, "{protocol}");
            while let Some(completion) = inbox.pop() {
                // Last sent, first answered (site 2 before site 1), and
                // every reply twice.
                seen.push(again(&completion));
                let duplicate = again(&completion);
                let next = fed.step(&mut txn, completion).unwrap();
                assert!(
                    fed.step(&mut txn, duplicate).unwrap().is_empty(),
                    "{protocol}: a duplicate reply asked for more messages"
                );
                inbox.extend(deliver(next));
            }
            assert!(txn.is_done(), "{protocol}");
            // Everything once more, after the end: nothing moves.
            for completion in seen.iter().map(again).chain([Completion::Timer]) {
                assert!(
                    fed.step(&mut txn, completion).unwrap().is_empty(),
                    "{protocol}"
                );
            }
            assert!(txn.is_done(), "{protocol}");
            let (verdict, messages) = fed.end(txn);
            assert_eq!(verdict, Some(GlobalVerdict::Commit), "{protocol}");
            assert!(messages >= 4, "{protocol}: {messages}");
            assert_eq!(fed.pending_obligations(), 0, "{protocol}");
            assert_eq!(fed.l1().granted_count(), 0, "{protocol}");
            let dumps = fed.dumps().unwrap();
            assert_eq!(dumps[&site(1)][&obj(1, 0)], v(70), "{protocol}");
            assert_eq!(dumps[&site(2)][&obj(2, 0)], v(130), "{protocol}");
        }
    }

    /// A decided transaction whose pump stops is parked by `end` with its
    /// locks; an undecided one is not, and holds nothing afterwards.
    #[test]
    fn end_parks_exactly_the_decided_and_unfinished() {
        let fed = loaded(ProtocolKind::CommitAfter, 2);
        // Undecided: the submits were never delivered.
        let (txn, first) = fed
            .begin(&transfer(1, 2, 5))
            .unwrap_or_else(|e| panic!("{e:?}"));
        assert_eq!(first.len(), 2);
        assert!(fed.l1().granted_count() > 0);
        assert_eq!(fed.end(txn), (None, 4));
        assert_eq!(
            (fed.pending_obligations(), fed.l1().granted_count()),
            (0, 0)
        );
        // Decided, site 2 never told: both votes in, no decision delivered.
        let (mut txn, first) = fed
            .begin(&transfer(1, 2, 5))
            .unwrap_or_else(|e| panic!("{e:?}"));
        let mut decision = Vec::new();
        for (site, payload) in first {
            let reply = fed.transport().call(site, payload);
            decision.extend(
                fed.step(&mut txn, Completion::Reply { site, reply })
                    .unwrap(),
            );
        }
        assert_eq!(decision.len(), 2, "{decision:?}");
        let (verdict, _) = fed.end(txn);
        assert_eq!(verdict, Some(GlobalVerdict::Commit));
        assert_eq!(fed.pending_obligations(), 2);
        assert!(fed.l1().granted_count() > 0, "parked with its locks");
        assert_eq!(fed.resolve_pending().unwrap(), 2);
        assert_eq!(
            (fed.pending_obligations(), fed.l1().granted_count()),
            (0, 0)
        );
        assert_eq!(user_sum(&fed), 100 * 2 * 50);
    }

    /// Every L1 release path — global end, a first-pass rejection giving
    /// back what it got, a parked coordinator resolved later — frees
    /// exactly what its program took: under contention nothing is left.
    #[test]
    fn contended_l1_run_releases_every_lock_it_took() {
        for protocol in [ProtocolKind::CommitAfter, ProtocolKind::CommitBefore] {
            let mut cfg = FederationConfig::uniform(3, protocol);
            cfg.policy = amc_mlt::ConflictPolicy::ReadWriteOnly;
            cfg.l1_timeout = Duration::from_millis(1);
            let (fed, transport) = flaky_with(cfg);
            // Site 3 hears no final state: its aborts (and, commit-after,
            // its commits) park with their locks, rejecting later work.
            *transport.fail_finish_for.lock() = Some(site(3));
            let (rejected, aborted) = (AtomicU64::new(0), AtomicU64::new(0));
            std::thread::scope(|scope| {
                for client in 0..3u32 {
                    let (fed, rejected, aborted) = (&fed, &rejected, &aborted);
                    scope.spawn(move || {
                        for i in 0..40u32 {
                            let from = 1 + (client + i) % 3;
                            let mut program = transfer(from, 1 + from % 3, 1);
                            if i % 4 == 0 {
                                let at_from = program.get_mut(&site(from)).unwrap();
                                at_from.insert(
                                    0,
                                    Operation::Read {
                                        obj: obj(from, 999),
                                    },
                                );
                            }
                            match fed.run_transaction(&program).unwrap().outcome {
                                TxnOutcome::L1Rejected(_) => rejected,
                                TxnOutcome::Aborted => aborted,
                                TxnOutcome::Committed => continue,
                            }
                            .fetch_add(1, Ordering::Relaxed);
                            if i == 20 {
                                fed.resolve_pending().unwrap();
                            }
                        }
                    });
                }
            });
            assert!(fed.pending_obligations() > 0, "{protocol}: nothing parked");
            assert!(rejected.into_inner() > 0, "{protocol}: no L1 rejection");
            assert!(aborted.into_inner() > 0, "{protocol}");
            *transport.fail_finish_for.lock() = None;
            fed.resolve_pending().unwrap();
            assert_eq!(fed.pending_obligations(), 0, "{protocol}");
            assert_eq!(fed.l1().granted_count(), 0, "{protocol}");
            fed.l1().check_invariants().unwrap();
            assert_eq!(user_sum(&fed), 100 * 3 * 50, "{protocol}");
        }
    }

    /// A 2PC federation with Paxos Commit: `acceptors` acceptors
    /// co-located with the first sites.
    fn paxos_loaded(sites: u32, acceptors: u32) -> Arc<Federation> {
        loaded_with(
            FederationConfig::uniform(sites, ProtocolKind::TwoPhaseCommit)
                .with_paxos_commit(acceptors),
        )
    }

    #[test]
    fn paxos_commit_happy_path_replicates_and_commits() {
        let fed = paxos_loaded(3, 3);
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
            host.with_state(|acc| {
                assert_eq!(
                    acc.decision(report.gtx),
                    Some(GlobalVerdict::Commit),
                    "acceptor {a}"
                );
                assert!(acc.open_entries().is_empty(), "acceptor {a}");
            });
            let log = host.wal().stats();
            assert!(log.forces > 0, "acceptor {a} must have forced its rows");
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
        let fed = paxos_loaded(5, 3);
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
        let fed = paxos_loaded(3, 3);
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
        let fed = paxos_loaded(3, 3);
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

    /// The coordinator reaches its own verdict before the acceptor group
    /// is asked. When the group then fails it (majority lost after the
    /// registration), that verdict does not stand: `end` must not close the
    /// instances, record an outcome or park a coordinator that would later
    /// deliver it — the transaction is a standby's to decide.
    #[test]
    fn paxos_gate_failure_leaves_the_transaction_in_doubt_not_parked() {
        let fed = paxos_loaded(5, 3);
        let acceptors = fed.paxos_transport().unwrap();
        let (mut txn, mut sends) = fed
            .begin(&transfer(4, 5, 30))
            .unwrap_or_else(|e| panic!("{e:?}"));
        let gtx = txn.gtx();
        let mut failed = None;
        while !sends.is_empty() && failed.is_none() {
            if matches!(sends[0].1, Payload::Prepare { .. }) {
                // Registered at all three; now two of them are gone.
                acceptors.set_down(site(2), true);
                acceptors.set_down(site(3), true);
            }
            let mut next = Vec::new();
            for (site, payload) in sends {
                let reply = fed.transport().call(site, payload);
                match fed.step(&mut txn, Completion::Reply { site, reply }) {
                    Ok(more) => next.extend(more),
                    Err(e) => failed = Some(e),
                }
            }
            sends = next;
        }
        assert!(failed.is_some(), "no majority, yet the gate let it through");
        assert_eq!(fed.end(txn).0, None);
        assert_eq!(fed.pending_obligations(), 0);
        assert_eq!(fed.history().outcome(gtx), None);
        // A standby that reads the other majority finds nothing chosen.
        acceptors.set_down(site(2), false);
        acceptors.set_down(site(3), false);
        acceptors.set_down(site(1), true);
        let finished = fed.replica_driver(7).run_once().unwrap();
        assert_eq!(finished, vec![(gtx, GlobalVerdict::Abort)]);
        acceptors.set_down(site(1), false);
        assert_eq!(fed.resolve_pending().unwrap(), 0);
        assert_eq!(user_sum(&fed), 100 * 5 * 50);
        let dumps = fed.dumps().unwrap();
        assert_eq!(dumps[&site(4)][&obj(4, 0)], v(100));
        assert_eq!(dumps[&site(5)][&obj(5, 0)], v(100));
    }

    fn fast_loaded(sites: u32) -> Arc<Federation> {
        loaded_with(FederationConfig::uniform(sites, ProtocolKind::TwoPhaseCommit).with_fast_path())
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
        // The site recovers; the obligation lands and the presumed abort
        // becomes fact (the site never committed, so nothing is undone).
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

    /// A round of the in-process transport with a modelled delay overlaps
    /// its exchanges: all of them are in flight together, so it costs one
    /// exchange (two legs) however many sites it addresses.
    #[test]
    fn a_round_costs_its_slowest_exchange() {
        let delay = Duration::from_millis(4);
        let mut cfg = FederationConfig::uniform(2, ProtocolKind::TwoPhaseCommit);
        cfg.message_delay = delay;
        let managers = cfg.build_managers().into_iter().map(|m| (m.site(), m));
        let mode = submit_mode_for(cfg.protocol);
        let transport = Arc::new(InProcessTransport::new(managers.collect(), mode, delay));
        let fed = Federation::with_transport(cfg, transport.clone());
        fed.load_site(site(1), &[(obj(1, 0), v(100))]).unwrap();
        fed.load_site(site(2), &[(obj(2, 0), v(100))]).unwrap();
        let inc = |s, delta| {
            (
                site(s),
                vec![Operation::Increment {
                    obj: obj(s, 0),
                    delta,
                }],
            )
        };
        let report = fed
            .run_transaction(&BTreeMap::from([inc(1, -7), inc(2, 7)]))
            .unwrap();
        assert_eq!(report.outcome, TxnOutcome::Committed);
        // The submits keep their L0 locks, so they go one at a time in site
        // order; the prepare and decision rounds go whole.
        let rounds = 4;
        assert_eq!(report.messages, 12, "3 exchanges per site");
        assert!(
            report.latency >= 2 * delay * rounds,
            "latency {:?} must cover {rounds} rounds of two legs",
            report.latency
        );
        assert_eq!(
            transport.peak_in_flight(),
            2,
            "a 2-site round has both exchanges in flight at once"
        );
    }

    /// Recording is opt-in: an embedding that never asks for the oracle
    /// bookkeeping accumulates none of it.
    #[test]
    fn a_default_federation_records_no_history_and_no_trace() {
        for transport in [false, true] {
            let cfg = FederationConfig::uniform(2, ProtocolKind::CommitBefore);
            let fed = if transport {
                let managers = cfg.build_managers().into_iter().map(|m| (m.site(), m));
                let inner = InProcessTransport::new(
                    managers.collect(),
                    SubmitMode::CommitBefore,
                    Duration::ZERO,
                );
                Federation::with_transport(cfg, Arc::new(inner))
            } else {
                Federation::new(cfg)
            };
            for s in 1..=2 {
                fed.load_site(site(s), &[(obj(s, 0), v(100))]).unwrap();
            }
            let report = fed.run_transaction(&transfer(1, 2, 30)).unwrap();
            assert_eq!(report.outcome, TxnOutcome::Committed);
            assert!(report.messages > 0);
            let history = fed.history();
            assert!(history.events().is_empty(), "transport={transport}");
            assert_eq!(history.outcome(report.gtx), None, "transport={transport}");
            assert!(fed.events().is_empty(), "transport={transport}");
        }
    }

    /// The blocking pump's event log: every message is a `MsgSend` at its
    /// sender followed by its `MsgDeliver` at the receiver, one end of
    /// every hop is the central system, and the coordinator's own
    /// transitions share the log.
    #[test]
    fn the_blocking_pump_logs_each_hop_as_send_then_deliver() {
        let fed = loaded(ProtocolKind::CommitAfter, 2);
        let gtx = fed.run_transaction(&transfer(1, 2, 1)).unwrap().gtx;
        let log = fed.events();
        let events: Vec<_> = log.timeline(gtx);
        let mut hops = 0;
        for (i, e) in events.iter().enumerate() {
            if let EventKind::MsgSend { label, from, to } = e.kind {
                hops += 1;
                assert!(from.is_central() != to.is_central(), "{e}");
                assert_eq!(e.site, from);
                let next = events[i + 1];
                assert_eq!(next.kind, EventKind::MsgDeliver { label, from });
                assert_eq!(next.site, to);
            }
        }
        assert_eq!(hops, 8, "submit, ready, commit, finished with each site");
        assert_eq!(log.message_labels(gtx).len(), 8);
        let done = EventKind::Done {
            verdict: GlobalVerdict::Commit,
        };
        assert!(events.iter().any(|e| e.kind == done));
    }

    /// A request that meets an outage is logged as sent, never as
    /// delivered, and has no reply.
    #[test]
    fn an_unanswered_request_is_logged_as_sent_and_not_delivered() {
        let (mut fed, transport) = flaky(ProtocolKind::CommitAfter, 2);
        let recording = Arc::get_mut(&mut fed).expect("nobody else holds the federation yet");
        recording.set_recording(false, true);
        *transport.fail_finish_for.lock() = Some(site(2));
        let gtx = fed.run_transaction(&transfer(1, 2, 5)).unwrap().gtx;
        let log = fed.events();
        let labels = log.message_labels(gtx);
        assert_eq!(labels.last().map(String::as_str), Some("commit:0->2"));
        assert!(!labels.contains(&"finished:2->0".to_string()), "{labels:?}");
        let lost = EventKind::MsgDeliver {
            label: "commit",
            from: SiteId::CENTRAL,
        };
        let received_at = |s| {
            log.timeline(gtx)
                .iter()
                .any(|e| e.site == site(s) && e.kind == lost)
        };
        assert!(received_at(1) && !received_at(2));
        assert_eq!(fed.pending_obligations(), 1);
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
