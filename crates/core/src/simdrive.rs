//! The discrete-event pump over the central system.
//!
//! Same [`Federation`], managers and engines as the blocking pump — but
//! messages travel through the seeded [`amc_net::Router`] with latency and
//! loss, sites and the central system crash and restart on a
//! [`amc_sim::FaultPlan`], and all timing is virtual. What lives here is
//! scheduling, fault injection and the report.
//!
//! Modelling notes:
//!
//! * A local handler runs at message-delivery time; its reply is shipped
//!   after a fixed *service time* (engine work is modelled as instantaneous
//!   state change plus virtual delay — the protocols only care about
//!   ordering).
//! * A retransmission timer is re-armed per transaction until the protocol
//!   completes. Messages to a down site are dropped by the router; the
//!   timer is what eventually gets the protocol unstuck — the paper's "the
//!   global transaction manager has to wait for the local system to come
//!   up again" (§3.3).
//! * One simulation thread: no lock can be released while an acquisition
//!   waits, so L1 never waits. A start it turns away is offered again a
//!   retransmission period later, like one against a dead central system:
//!   conflicting transactions serialise at the central system.

use crate::config::FederationConfig;
use crate::drive::Program;
use crate::federation::{Completion, Federation, Sends, Txn};
use amc_net::router::{NetStats, RouterConfig, Routing};
use amc_net::{Envelope, Payload, Router};
use amc_obs::{EventKind, EventLog, ObsSink};
use amc_sim::{EventQueue, FaultEvent, FaultKind, FaultPlan, LinkDir, SimRng};
use amc_types::{AmcError, GlobalTxnId, GlobalVerdict, SimDuration, SimTime, SiteId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Federation to build.
    pub federation: FederationConfig,
    /// Network behaviour.
    pub router: RouterConfig,
    /// RNG seed (drives latency and loss).
    pub seed: u64,
    /// Fault schedule: crashes (optionally with torn WAL tails), link
    /// partitions, loss bursts.
    pub faults: FaultPlan,
    /// Local handler service time (per message).
    pub service_time: SimDuration,
    /// Coordinator retransmission period.
    pub retransmit_every: SimDuration,
    /// Hard stop for the virtual clock.
    pub horizon: SimDuration,
    /// **Chaos-harness knob, deliberately unsafe**: skip forcing global
    /// decisions to the central decision log. A central crash then forgets
    /// decided-commit transactions and presumed abort tears them apart —
    /// exactly the bug the chaos sweep + shrinker demo must catch. Never
    /// set outside tests.
    pub unsafe_skip_decision_log: bool,
}

impl SimConfig {
    /// Sensible defaults over `federation`: 0.5 ms latency, 0.2 ms service
    /// time, 20 ms retransmit, 10 s horizon, no failures.
    pub fn new(mut federation: FederationConfig) -> Self {
        // The event loop is single-threaded: an engine lock wait blocks the
        // whole simulation, so make accidental conflicts fail fast instead
        // of stalling for the default 2 s — and an L1 wait can only time
        // out, so do not wait at all.
        federation.tpl.lock_timeout = std::time::Duration::from_millis(50);
        federation.l1_timeout = std::time::Duration::ZERO;
        SimConfig {
            federation,
            router: RouterConfig::default(),
            seed: 42,
            faults: FaultPlan::none(),
            service_time: SimDuration::from_micros(200),
            retransmit_every: SimDuration::from_millis(20),
            horizon: SimDuration::from_millis(10_000),
            unsafe_skip_decision_log: false,
        }
    }
}

/// What one simulated run produced.
#[derive(Debug)]
pub struct SimReport {
    /// Verdict per global transaction (missing = unresolved at horizon).
    pub outcomes: BTreeMap<GlobalTxnId, GlobalVerdict>,
    /// Virtual start→done duration per transaction.
    pub resolution: BTreeMap<GlobalTxnId, SimDuration>,
    /// Network accounting: messages admitted, dropped (loss, down sites,
    /// partitions), duplicated.
    pub net: NetStats,
    /// Coordinator timer firings that retransmitted something.
    pub retransmissions: u64,
    /// Starts the L1 lock table turned away (each offered again a
    /// retransmission period later): the conflicts the central system's
    /// conflict policy serialised.
    pub turned_away: u64,
    /// Transactions unresolved when the horizon hit.
    pub unresolved: Vec<GlobalTxnId>,
    /// Handler errors observed (site-down races are expected; anything
    /// else indicates a bug).
    pub errors: Vec<String>,
    /// Final virtual time.
    pub end_time: SimTime,
    /// Structured event log: every protocol transition, message fate,
    /// fault and recovery step, stamped with the virtual clock (equal
    /// seeds give bit-identical logs), in a ring of
    /// [`DEFAULT_EVENT_CAP`](amc_obs::log::DEFAULT_EVENT_CAP) events. Every
    /// message that entered the network is a `MsgSend` or `MsgDrop` here
    /// ([`EventLog::message_labels`]). Feed to
    /// [`EventLog::timeline`] / [`EventLog::derive`] for per-transaction
    /// explanations and histogram metrics.
    pub events: EventLog,
}

enum Event {
    Deliver(Envelope),
    Fault(FaultEvent),
    Start(GlobalTxnId),
    Timer(GlobalTxnId),
}

/// The discrete-event pump over one [`Federation`].
pub struct SimFederation {
    cfg: SimConfig,
    fed: Arc<Federation>,
    router: Router,
    queue: EventQueue<Event>,
    /// In flight at the central system — volatile: a central crash drops
    /// them, a restart recovers them from `programs` and the decision log.
    txns: BTreeMap<GlobalTxnId, Txn>,
    programs: BTreeMap<GlobalTxnId, Program>,
    retransmissions: u64,
    turned_away: u64,
    errors: Vec<String>,
    /// When each transaction was admitted.
    start_times: BTreeMap<GlobalTxnId, SimTime>,
    completed: BTreeMap<GlobalTxnId, (GlobalVerdict, SimTime)>,
    /// Master observability sink: shared (via clone) with the router, the
    /// managers (and through them engines and WALs) and every coordinator.
    obs: ObsSink,
}

impl SimFederation {
    /// Build the federation, router and queue from `cfg`.
    pub fn new(cfg: SimConfig) -> Self {
        cfg.faults.validate().expect("invalid fault plan");
        let obs = ObsSink::enabled(amc_obs::log::DEFAULT_EVENT_CAP);
        let mut fed = Federation::build(
            cfg.federation.clone(),
            obs.clone(),
            !cfg.unsafe_skip_decision_log,
        );
        // The simulator is the oracle driver: every run feeds the checkers.
        fed.set_recording(true, false);
        let mut rng = SimRng::new(cfg.seed);
        let mut router = Router::new(cfg.router.clone(), rng.fork());
        router.attach_obs(obs.clone());
        SimFederation {
            cfg,
            fed: Arc::new(fed),
            router,
            queue: EventQueue::new(),
            txns: BTreeMap::new(),
            programs: BTreeMap::new(),
            retransmissions: 0,
            turned_away: 0,
            errors: Vec::new(),
            start_times: BTreeMap::new(),
            completed: BTreeMap::new(),
            obs,
        }
    }

    /// The federation this pump drives; it outlives `run`.
    pub fn federation(&self) -> Arc<Federation> {
        Arc::clone(&self.fed)
    }

    /// Put a message on the network `after` a local delay (a site's
    /// service time; none at the central system).
    fn send(&mut self, from: SiteId, to: SiteId, payload: Payload, after: SimDuration) {
        let env = Envelope::new(from, to, payload);
        match self.router.route(&env) {
            Routing::Deliver(latency) => {
                self.queue
                    .schedule_after(after + latency, Event::Deliver(env));
            }
            Routing::DeliverTwice(a, b) => {
                self.queue
                    .schedule_after(after + a, Event::Deliver(env.clone()));
                self.queue.schedule_after(after + b, Event::Deliver(env));
            }
            Routing::Dropped => {}
        }
    }

    /// Ship what `gtx` asked for; at its global end, close it.
    fn ship(&mut self, gtx: GlobalTxnId, sends: Sends) {
        for (site, payload) in sends {
            self.send(SiteId::CENTRAL, site, payload, SimDuration::ZERO);
        }
        if self.txns.get(&gtx).is_some_and(Txn::is_done) {
            let txn = self.txns.remove(&gtx).expect("just seen");
            let (verdict, _) = self.fed.end(txn);
            let verdict = verdict.expect("a finished transaction has a verdict");
            self.completed.insert(gtx, (verdict, self.queue.now()));
        }
    }

    /// Feed `gtx` a completion and ship what it asks for (returns how many
    /// messages) — if the central system still has the transaction: a
    /// finished one ignores stragglers, a dead coordinator hears nothing.
    /// An error ends the transaction here, unresolved, and is reported.
    fn step(&mut self, gtx: GlobalTxnId, completion: Completion) -> Option<usize> {
        match self.fed.step(self.txns.get_mut(&gtx)?, completion) {
            Ok(sends) => {
                let sent = sends.len();
                self.ship(gtx, sends);
                Some(sent)
            }
            Err(e) => {
                self.errors.push(format!("central: {e}"));
                let txn = self.txns.remove(&gtx).expect("just stepped");
                self.fed.end(txn);
                None
            }
        }
    }

    fn retry_later(&mut self, event: Event) {
        self.queue.schedule_after(self.cfg.retransmit_every, event);
    }

    fn handle_at_site(&mut self, site: SiteId, payload: Payload) {
        if !self.fed.sites[&site].manager().handle().engine().is_up() {
            return; // crashed between routing and delivery
        }
        match self.fed.transport().call(site, payload) {
            // Service time then network back to the central system.
            Ok(reply) => self.send(site, SiteId::CENTRAL, reply, self.cfg.service_time),
            Err(AmcError::SiteDown(_)) => {} // crash race: timer will retry
            Err(e) => self.errors.push(format!("{site}: {e}")),
        }
    }

    /// Central crash: the transactions in flight and the L1 table are lost,
    /// the decision log survives (its force is modelled as atomic: a torn
    /// WAL tail has no analogue here).
    fn crash_central(&mut self) {
        self.router.site_down(SiteId::CENTRAL);
        self.fed
            .central
            .crash(std::mem::take(&mut self.txns).into_keys());
    }

    /// Central restart: recover every unfinished transaction from the
    /// decision log (presumed abort where no decision survived) before
    /// any new start is admitted.
    fn restart_central(&mut self) {
        self.router.site_up(SiteId::CENTRAL);
        let unfinished: Vec<GlobalTxnId> = self
            .start_times
            .keys()
            .filter(|g| !self.completed.contains_key(g))
            .copied()
            .collect();
        for gtx in unfinished {
            let (txn, sends) = self.fed.recover(gtx, &self.programs[&gtx]);
            self.txns.insert(gtx, txn);
            self.ship(gtx, sends);
            if self.txns.contains_key(&gtx) {
                self.retry_later(Event::Timer(gtx));
            }
        }
    }

    /// Run `programs` (each starting at its given virtual time) to
    /// completion or horizon.
    pub fn run(mut self, programs: Vec<(SimDuration, Program)>) -> SimReport {
        // Seed starts, failures.
        for (i, (at, program)) in programs.into_iter().enumerate() {
            let gtx = GlobalTxnId::new(i as u64 + 1);
            self.programs.insert(gtx, program);
            self.queue
                .schedule_at(SimTime::ZERO + at, Event::Start(gtx));
        }
        let mut pending_failures = 0u32;
        for ev in self.cfg.faults.events() {
            self.queue.schedule_at(ev.at, Event::Fault(ev));
            pending_failures += 1;
        }

        let horizon = SimTime::ZERO + self.cfg.horizon;
        while let Some((at, event)) = self.queue.pop() {
            if at > horizon {
                break;
            }
            // Mirror the virtual clock into the sink so every emission —
            // including those from managers and engines that never see the
            // queue — carries the event's time.
            self.obs.set_now(at);
            match event {
                Event::Start(gtx) => {
                    // Transactions are numbered by program, whatever order
                    // they start in. The client retries against a dead
                    // central system, and after L1 turned it away.
                    self.fed.set_first_gtx(gtx.raw());
                    let begun = match self.router.is_down(SiteId::CENTRAL) {
                        true => None,
                        false => match self.fed.begin(&self.programs[&gtx]) {
                            Ok(begun) => Some(begun),
                            Err(_) => {
                                self.turned_away += 1;
                                None
                            }
                        },
                    };
                    let Some((txn, sends)) = begun else {
                        self.retry_later(Event::Start(gtx));
                        continue;
                    };
                    self.start_times.insert(gtx, at);
                    self.txns.insert(gtx, txn);
                    self.ship(gtx, sends);
                    self.retry_later(Event::Timer(gtx));
                }
                Event::Timer(gtx) => {
                    // Timers die with the coordinator, and with the transaction.
                    let Some(sent) = self.step(gtx, Completion::Timer) else {
                        continue;
                    };
                    self.retransmissions += u64::from(sent > 0);
                    self.retry_later(Event::Timer(gtx));
                }
                Event::Deliver(env) => {
                    let gtx = env.payload.gtx();
                    self.obs.emit(
                        Some(gtx),
                        env.to,
                        EventKind::MsgDeliver {
                            label: env.payload.label(),
                            from: env.from,
                        },
                    );
                    if env.to.is_central() {
                        let (site, reply) = (env.from, Ok(env.payload));
                        self.step(gtx, Completion::Reply { site, reply });
                    } else {
                        self.handle_at_site(env.to, env.payload);
                    }
                }
                Event::Fault(ev) => {
                    pending_failures -= 1;
                    match ev.kind {
                        FaultKind::Crash { torn } => self.obs.emit(
                            None,
                            ev.site,
                            EventKind::Crash {
                                torn: torn.is_some(),
                            },
                        ),
                        FaultKind::Restart => self.obs.emit(None, ev.site, EventKind::Restart),
                        _ => {}
                    }
                    match (ev.kind, ev.site.is_central()) {
                        // One logical coordinator: a replica crash is a
                        // central outage, the takeover a restart from the
                        // decision log. The replicated (blocking-pump)
                        // runtime gives those events their Paxos semantics.
                        (FaultKind::Crash { .. }, true)
                        | (FaultKind::CoordinatorCrash { .. }, _) => self.crash_central(),
                        (FaultKind::Restart, true) | (FaultKind::CoordinatorTakeover { .. }, _) => {
                            self.restart_central()
                        }
                        (FaultKind::Crash { torn }, false) => {
                            self.router.site_down(ev.site);
                            self.fed.sites[&ev.site].crash(torn.map(|t| t.keep_frames));
                        }
                        (FaultKind::Restart, false) => {
                            self.router.site_up(ev.site);
                            if let Err(e) = self.fed.sites[&ev.site].recover() {
                                self.errors.push(format!("recovery at {}: {e}", ev.site));
                            }
                        }
                        (FaultKind::PartitionStart { dir }, _) => match dir {
                            LinkDir::ToCentral => self.router.partition(ev.site, SiteId::CENTRAL),
                            LinkDir::FromCentral => self.router.partition(SiteId::CENTRAL, ev.site),
                            LinkDir::Both => self.router.partition_both(ev.site, SiteId::CENTRAL),
                        },
                        // Heal whatever direction(s) the start severed.
                        (FaultKind::PartitionHeal, _) => {
                            self.router.heal_both(ev.site, SiteId::CENTRAL)
                        }
                        (FaultKind::LossBurstStart { probability }, _) => {
                            self.router.set_loss_burst(probability)
                        }
                        (FaultKind::LossBurstEnd, _) => self.router.clear_loss_burst(),
                    }
                }
            }
            // Early exit: everything resolved — but only after every
            // scheduled failure has fired, so sites end the run recovered
            // (a dump of a crashed, unrecovered site would show stale
            // pages: committed work lives in its log until restart).
            if pending_failures == 0 && self.completed.len() == self.programs.len() {
                break;
            }
        }

        let mut outcomes = BTreeMap::new();
        let mut resolution = BTreeMap::new();
        let mut unresolved = Vec::new();
        for gtx in self.programs.keys() {
            match self.completed.get(gtx) {
                Some((v, done_at)) => {
                    outcomes.insert(*gtx, *v);
                    resolution.insert(*gtx, done_at.since(self.start_times[gtx]));
                }
                None => unresolved.push(*gtx),
            }
        }
        SimReport {
            outcomes,
            resolution,
            net: self.router.stats(),
            retransmissions: self.retransmissions,
            turned_away: self.turned_away,
            unresolved,
            errors: self.errors,
            end_time: self.queue.now(),
            events: self.obs.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amc_types::{ObjectId, Operation, ProtocolKind, Value};

    fn site(n: u32) -> SiteId {
        SiteId::new(n)
    }
    fn obj(s: u32, i: u64) -> ObjectId {
        ObjectId::new(u64::from(s) * (1 << 32) + i)
    }

    fn transfer(a: u32, b: u32, amt: i64) -> BTreeMap<SiteId, Vec<Operation>> {
        BTreeMap::from([
            (
                site(a),
                vec![Operation::Increment {
                    obj: obj(a, 0),
                    delta: -amt,
                }],
            ),
            (
                site(b),
                vec![Operation::Increment {
                    obj: obj(b, 0),
                    delta: amt,
                }],
            ),
        ])
    }

    fn sim(protocol: ProtocolKind, failures: FaultPlan) -> SimFederation {
        let mut cfg = SimConfig::new(FederationConfig::uniform(2, protocol));
        cfg.faults = failures;
        let fed = SimFederation::new(cfg);
        load(&fed);
        fed
    }

    #[test]
    fn failure_free_run_commits_under_all_protocols() {
        for protocol in ProtocolKind::ALL {
            let fed = sim(protocol, FaultPlan::none());
            let federation = fed.federation();
            let report = fed.run(vec![(SimDuration::ZERO, transfer(1, 2, 30))]);
            assert!(report.errors.is_empty(), "{protocol}: {:?}", report.errors);
            assert_eq!(
                report.outcomes.get(&GlobalTxnId::new(1)),
                Some(&GlobalVerdict::Commit),
                "{protocol}"
            );
            assert!(report.unresolved.is_empty());
            let dumps = federation.dumps().unwrap();
            assert_eq!(
                dumps[&site(1)][&obj(1, 0)],
                Value::counter(70),
                "{protocol}"
            );
            assert_eq!(
                dumps[&site(2)][&obj(2, 0)],
                Value::counter(130),
                "{protocol}"
            );
        }
    }

    #[test]
    fn golden_trace_commit_before_matches_fig6_commit_path() {
        let fed = sim(ProtocolKind::CommitBefore, FaultPlan::none());
        let report = fed.run(vec![(SimDuration::ZERO, transfer(1, 2, 5))]);
        // §3.3 commit path: work ships, locals commit and report; the
        // coordinator needs no further messages ("does not need to start
        // further actions").
        assert_eq!(
            report.events.message_labels(GlobalTxnId::new(1)),
            vec!["submit:0->1", "submit:0->2", "ready:1->0", "ready:2->0",]
        );
    }

    #[test]
    fn golden_trace_2pc_matches_fig2() {
        let fed = sim(ProtocolKind::TwoPhaseCommit, FaultPlan::none());
        let report = fed.run(vec![(SimDuration::ZERO, transfer(1, 2, 5))]);
        assert_eq!(
            report.events.message_labels(GlobalTxnId::new(1)),
            vec![
                "submit:0->1",
                "submit:0->2",
                "ready:1->0",
                "ready:2->0",
                "prepare:0->1",
                "prepare:0->2",
                "ready:1->0",
                "ready:2->0",
                "commit:0->1",
                "commit:0->2",
                "finished:1->0",
                "finished:2->0",
            ]
        );
    }

    fn sim_fast(failures: FaultPlan) -> SimFederation {
        let mut cfg = SimConfig::new(
            FederationConfig::uniform(2, ProtocolKind::TwoPhaseCommit).with_fast_path(),
        );
        cfg.faults = failures;
        let fed = SimFederation::new(cfg);
        load(&fed);
        fed
    }

    #[test]
    fn golden_trace_fast_path_2pc_cuts_the_prepare_round() {
        // Vote piggyback: the submit carries PREPARE, so the work ack *is*
        // the vote — 8 messages instead of the classic 12 (fig. 2 minus the
        // explicit prepare round).
        let fed = sim_fast(FaultPlan::none());
        let federation = fed.federation();
        let report = fed.run(vec![(SimDuration::ZERO, transfer(1, 2, 5))]);
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        assert_eq!(
            report.events.message_labels(GlobalTxnId::new(1)),
            vec![
                "submit-prepare:0->1",
                "submit-prepare:0->2",
                "ready:1->0",
                "ready:2->0",
                "commit:0->1",
                "commit:0->2",
                "finished:1->0",
                "finished:2->0",
            ]
        );
        let dumps = federation.dumps().unwrap();
        assert_eq!(dumps[&site(1)][&obj(1, 0)], Value::counter(95));
        assert_eq!(dumps[&site(2)][&obj(2, 0)], Value::counter(105));
    }

    /// `fast_path` is a public field: set where the fast path does not
    /// apply — a portable protocol, or 2PC under Paxos Commit — it changes
    /// nothing, exactly as under the blocking pump (the simulator used to
    /// piggyback regardless: a debug assertion in debug builds, a silent
    /// `submit-prepare` in release).
    #[test]
    fn fast_path_flag_is_inert_where_the_blocking_pump_ignores_it() {
        let configs = [
            FederationConfig::uniform(2, ProtocolKind::CommitAfter),
            FederationConfig::uniform(2, ProtocolKind::CommitBefore),
            FederationConfig::uniform(2, ProtocolKind::TwoPhaseCommit).with_paxos_commit(2),
        ];
        for plain in configs {
            let labels = |federation: FederationConfig| {
                let fed = SimFederation::new(SimConfig::new(federation));
                load(&fed);
                let report = fed.run(vec![(SimDuration::ZERO, transfer(1, 2, 5))]);
                assert!(report.errors.is_empty(), "{:?}", report.errors);
                assert_eq!(report.outcomes[&GlobalTxnId::new(1)], GlobalVerdict::Commit);
                report.events.message_labels(GlobalTxnId::new(1))
            };
            let mut flagged = plain.clone();
            flagged.fast_path = true;
            let expected = labels(plain);
            assert!(!expected.iter().any(|l| l.starts_with("submit-prepare")));
            assert_eq!(labels(flagged), expected);
        }
    }

    fn sim_paxos(faults: FaultPlan) -> SimFederation {
        let federation =
            FederationConfig::uniform(2, ProtocolKind::TwoPhaseCommit).with_paxos_commit(2);
        let mut cfg = SimConfig::new(federation);
        cfg.faults = faults;
        let fed = SimFederation::new(cfg);
        load(&fed);
        fed
    }

    /// Retransmission is the only thing that gets a Paxos Commit run past a
    /// lost message too: a timer re-asks the silent sites, nothing waits
    /// for an answer that will never come.
    #[test]
    fn paxos_commit_survives_a_loss_burst() {
        let burst = FaultPlan::none().loss_burst(SimTime(0), SimDuration::from_millis(2), 1.0);
        let fed = sim_paxos(burst);
        let federation = fed.federation();
        let report = fed.run(vec![(SimDuration::ZERO, transfer(1, 2, 30))]);
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        assert_eq!(
            report.outcomes.get(&GlobalTxnId::new(1)),
            Some(&GlobalVerdict::Commit),
            "unresolved: {:?}",
            report.unresolved
        );
        assert!(report.net.dropped > 0, "the burst never bit");
        assert!(
            report.retransmissions > 0,
            "the lost submits needed the timer"
        );
        let dumps = federation.dumps().unwrap();
        assert_eq!(dumps[&site(1)][&obj(1, 0)], Value::counter(70));
        assert_eq!(dumps[&site(2)][&obj(2, 0)], Value::counter(130));
    }

    /// The commit the acceptors let through is in the central decision log
    /// like any other: a central outage while the decision is in flight
    /// resumes it, where presuming abort would tear the transfer apart.
    #[test]
    fn paxos_commit_decision_survives_a_central_outage() {
        // The decision falls at 2.4 ms and reaches the sites at 2.9 ms;
        // their acks, due at 3.6 ms, find the central system down.
        let outage = FaultPlan::none().outage(
            SiteId::CENTRAL,
            SimTime(3_000),
            SimDuration::from_millis(10),
        );
        let fed = sim_paxos(outage);
        let federation = fed.federation();
        let report = fed.run(vec![(SimDuration::ZERO, transfer(1, 2, 30))]);
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        assert_eq!(
            report.outcomes.get(&GlobalTxnId::new(1)),
            Some(&GlobalVerdict::Commit),
            "unresolved: {:?}",
            report.unresolved
        );
        let resumed = report.events.events().any(|e| {
            let logged = Some(GlobalVerdict::Commit);
            e.kind == EventKind::Resume { logged }
        });
        assert!(resumed, "the outage missed the window");
        let dumps = federation.dumps().unwrap();
        assert_eq!(dumps[&site(1)][&obj(1, 0)], Value::counter(70));
        assert_eq!(dumps[&site(2)][&obj(2, 0)], Value::counter(130));
    }

    /// A transaction whose step fails is ended on the spot: reported, and
    /// holding no L1 lock a later start would be turned away by.
    #[test]
    fn a_failed_step_ends_the_transaction_and_frees_its_locks() {
        let mut fed = sim(ProtocolKind::CommitAfter, FaultPlan::none());
        let (txn, _) = fed.fed.begin(&transfer(1, 2, 5)).expect("admitted");
        let gtx = txn.gtx();
        fed.txns.insert(gtx, txn);
        assert!(fed.fed.l1().unwrap().granted_count() > 0);
        let reply = Err(AmcError::Protocol("no participant says this".into()));
        let site = site(1);
        assert_eq!(fed.step(gtx, Completion::Reply { site, reply }), None);
        assert_eq!(fed.errors.len(), 1);
        assert!(fed.txns.is_empty());
        assert_eq!(fed.fed.l1().unwrap().granted_count(), 0);
        assert_eq!(fed.fed.pending_obligations(), 0);
    }

    #[test]
    fn fast_path_lost_vote_is_reinquired_with_classic_prepare() {
        // Site 2 applies the piggybacked op (prepare is durable) but its
        // READY is severed by a one-way partition. The coordinator's timer
        // re-inquires with a *classic* PREPARE, which the already-prepared
        // manager answers idempotently — commit, one RTT late.
        let mut cfg = SimConfig::new(
            FederationConfig::uniform(2, ProtocolKind::TwoPhaseCommit).with_fast_path(),
        );
        cfg.faults = FaultPlan::none().partition_window(
            site(2),
            SimTime(100),
            SimDuration::from_millis(30),
            LinkDir::ToCentral,
        );
        let fed = SimFederation::new(cfg);
        load(&fed);
        let federation = fed.federation();
        let report = fed.run(vec![(SimDuration::ZERO, transfer(1, 2, 30))]);
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        assert_eq!(
            report.outcomes.get(&GlobalTxnId::new(1)),
            Some(&GlobalVerdict::Commit),
            "unresolved: {:?}",
            report.unresolved
        );
        assert!(report.net.partitioned_drops > 0, "the partition never bit");
        assert!(report.retransmissions > 0, "the lost vote needed the timer");
        let labels = report.events.message_labels(GlobalTxnId::new(1));
        assert!(
            labels.iter().any(|l| l == "prepare:0->2"),
            "re-inquiry must use the classic prepare: {labels:?}"
        );
        let dumps = federation.dumps().unwrap();
        assert_eq!(dumps[&site(1)][&obj(1, 0)], Value::counter(70));
        assert_eq!(dumps[&site(2)][&obj(2, 0)], Value::counter(130));
    }

    #[test]
    fn fast_path_runs_are_deterministic() {
        let run = || {
            let failures =
                FaultPlan::none().outage(site(2), SimTime(300), SimDuration::from_millis(10));
            let fed = sim_fast(failures);
            let report = fed.run(vec![
                (SimDuration::ZERO, transfer(1, 2, 3)),
                (SimDuration::from_millis(1), transfer(2, 1, 7)),
            ]);
            (
                report.outcomes,
                report.net,
                report.end_time,
                report.events.render(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn participant_crash_before_commit_aborts_commit_before_txn() {
        // Site 2 crashes just after the submit leaves the central system
        // but before executing it, and restarts later; §3.3: the answer to
        // the post-recovery inquiry is abort, and site 1 gets undone.
        let failures =
            FaultPlan::none().outage(site(2), SimTime(100), SimDuration::from_millis(50));
        let fed = sim(ProtocolKind::CommitBefore, failures);
        let federation = fed.federation();
        let report = fed.run(vec![(SimDuration::ZERO, transfer(1, 2, 30))]);
        assert_eq!(
            report.outcomes.get(&GlobalTxnId::new(1)),
            Some(&GlobalVerdict::Abort),
            "unresolved: {:?}, errors: {:?}",
            report.unresolved,
            report.errors
        );
        let dumps = federation.dumps().unwrap();
        // Undone at site 1, never applied at site 2.
        assert_eq!(dumps[&site(1)][&obj(1, 0)], Value::counter(100));
        assert_eq!(dumps[&site(2)][&obj(2, 0)], Value::counter(100));
        assert!(report.retransmissions > 0, "recovery needed the timer");
    }

    #[test]
    fn participant_crash_after_decision_still_commits_commit_after_txn() {
        // Crash site 2 *after* the votes are in (decision made) but while
        // the commit decision is in flight; the Redo retransmission must
        // finish the job after restart (§3.2).
        let failures = FaultPlan::none().outage(
            site(2),
            SimTime(1_200), // after both votes (~2×(500+200) ≈ 1400us)... tuned below
            SimDuration::from_millis(30),
        );
        let fed = sim(ProtocolKind::CommitAfter, failures);
        let federation = fed.federation();
        let report = fed.run(vec![(SimDuration::ZERO, transfer(1, 2, 30))]);
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        let outcome = report.outcomes.get(&GlobalTxnId::new(1)).copied();
        // Depending on where the crash lands relative to the votes the
        // transaction either commits (crash after decision, redo repairs)
        // or aborts (crash before site 2 voted). Both are atomic; neither
        // may leave a partial transfer.
        let dumps = federation.dumps().unwrap();
        let v1 = dumps[&site(1)][&obj(1, 0)].counter;
        let v2 = dumps[&site(2)][&obj(2, 0)].counter;
        match outcome {
            Some(GlobalVerdict::Commit) => {
                assert_eq!((v1, v2), (70, 130), "committed everywhere");
            }
            Some(GlobalVerdict::Abort) => {
                assert_eq!((v1, v2), (100, 100), "aborted everywhere");
            }
            None => panic!("unresolved: {:?}", report.unresolved),
        }
    }

    fn load(fed: &SimFederation) {
        let federation = fed.federation();
        for s in 1..=2u32 {
            let data: Vec<(ObjectId, Value)> =
                (0..10).map(|i| (obj(s, i), Value::counter(100))).collect();
            federation.load_site(site(s), &data).unwrap();
        }
    }

    #[test]
    fn partition_window_delays_but_does_not_prevent_commit() {
        // Sever both directions of site 2's link mid-protocol while both
        // endpoints stay live; retransmission after the heal finishes the
        // job. This is the non-crash failure 2PC's blocking argument is
        // really about.
        let mut cfg = SimConfig::new(FederationConfig::uniform(2, ProtocolKind::TwoPhaseCommit));
        cfg.faults = FaultPlan::none().partition_window(
            site(2),
            SimTime(100),
            SimDuration::from_millis(30),
            LinkDir::Both,
        );
        let fed = SimFederation::new(cfg);
        load(&fed);
        let federation = fed.federation();
        let report = fed.run(vec![(SimDuration::ZERO, transfer(1, 2, 30))]);
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        assert_eq!(
            report.outcomes.get(&GlobalTxnId::new(1)),
            Some(&GlobalVerdict::Commit),
            "unresolved: {:?}",
            report.unresolved
        );
        assert!(report.net.partitioned_drops > 0, "the partition never bit");
        assert!(report.retransmissions > 0, "the heal needed the timer");
        let dumps = federation.dumps().unwrap();
        assert_eq!(dumps[&site(1)][&obj(1, 0)], Value::counter(70));
        assert_eq!(dumps[&site(2)][&obj(2, 0)], Value::counter(130));
    }

    #[test]
    fn torn_tail_crash_mid_txn_still_ends_atomic() {
        // Site 2 crashes mid-force while the transfer is in flight: one
        // tail frame becomes durable, the next lands torn. Restart recovery
        // truncates the tear, the protocol repairs, and whatever the
        // verdict is the transfer must be all-or-nothing.
        let mut cfg = SimConfig::new(FederationConfig::uniform(2, ProtocolKind::CommitAfter));
        cfg.faults = FaultPlan::none()
            .crash_torn(site(2), SimTime(800), 1)
            .restart(site(2), SimTime(30_000));
        let fed = SimFederation::new(cfg);
        load(&fed);
        let federation = fed.federation();
        let report = fed.run(vec![(SimDuration::ZERO, transfer(1, 2, 30))]);
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        let dumps = federation.dumps().unwrap();
        let v1 = dumps[&site(1)][&obj(1, 0)].counter;
        let v2 = dumps[&site(2)][&obj(2, 0)].counter;
        assert_eq!(v1 + v2, 200, "conservation violated: {v1} + {v2}");
        match report.outcomes.get(&GlobalTxnId::new(1)) {
            Some(GlobalVerdict::Commit) => assert_eq!((v1, v2), (70, 130)),
            Some(GlobalVerdict::Abort) => assert_eq!((v1, v2), (100, 100)),
            None => panic!("unresolved: {:?}", report.unresolved),
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let failures =
                FaultPlan::none().outage(site(2), SimTime(300), SimDuration::from_millis(10));
            let fed = sim(ProtocolKind::CommitBefore, failures);
            let report = fed.run(vec![
                (SimDuration::ZERO, transfer(1, 2, 3)),
                (SimDuration::from_millis(1), transfer(2, 1, 7)),
            ]);
            (
                report.outcomes,
                report.net,
                report.end_time,
                report.events.render(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn message_counts_per_protocol_match_e4_shape() {
        let mut per_protocol = BTreeMap::new();
        for protocol in ProtocolKind::ALL {
            let fed = sim(protocol, FaultPlan::none());
            let report = fed.run(vec![(SimDuration::ZERO, transfer(1, 2, 1))]);
            per_protocol.insert(protocol.label(), report.net.sent);
        }
        assert_eq!(per_protocol["commit-before"], 4);
        assert_eq!(per_protocol["commit-after"], 8);
        assert_eq!(per_protocol["2pc"], 12);
    }
}
