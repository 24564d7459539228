//! The federation transport abstraction.
//!
//! The coordinator's view of a local system is two request/reply surfaces:
//! the *protocol* surface (submit / prepare / decision / redo / undo, each
//! answered with a vote or a finished ack) and a small *admin* surface
//! (load, dump, counters) that experiments and tests use around runs. A
//! [`FederationTransport`] carries both. Two implementations exist:
//!
//! * [`InProcessTransport`] — the historical runtime: the manager lives in
//!   the same address space and a "message" is a function call, with
//!   `message_delay` slept on each leg to model the wire. Its site
//!   membership is mutable and it carries a chaos down-set, so it also
//!   serves online reconfiguration (`amc-shard`);
//! * `TcpTransport` (in `amc-rpc`) — each site is a separate TCP server
//!   and messages really cross the OS socket layer, with deadlines,
//!   retries, and reconnects.
//!
//! Both speak the same [`Payload`] vocabulary, and every runtime — the
//! in-process transport, both TCP site servers, the deterministic
//! simulator — reaches a site through [`dispatch_to_manager`] and
//! [`admin_to_manager`]. Those two functions are also where a site's
//! co-located Paxos Commit acceptor ([`CoLocatedAcceptor`]) answers its
//! messages, so no runtime wires an acceptor of its own.

use crate::comm::{CommStats, LocalCommManager, RecoveryStats, SubmitMode};
use crate::message::Payload;
use amc_types::{AmcError, AmcResult, ObjectId, SiteId, Value};
use amc_wal::LogStats;
use parking_lot::RwLock;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Out-of-band requests a driver sends to a site around protocol runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdminRequest {
    /// Liveness probe.
    Ping,
    /// Bulk-load initial data into the site's engine.
    Load(Vec<(ObjectId, Value)>),
    /// Dump the committed state (markers included).
    Dump,
    /// Fetch the communication-manager counters.
    CommStats,
    /// Fetch the engine's WAL counters.
    LogStats,
    /// Fetch the stats of the site's last restart recovery pass.
    Recovery,
    /// Ask the site's co-located Paxos acceptor for every registered
    /// transaction that has no durably noted decision. A recovery replica
    /// unions these across a majority of acceptors to find the in-doubt
    /// transactions it must finish.
    PaxosOpen,
}

/// One in-doubt transaction reported by an acceptor's durable log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PaxosOpenEntry {
    /// The registered transaction.
    pub gtx: amc_types::GlobalTxnId,
    /// Its participant sites (one Paxos instance each).
    pub participants: Vec<SiteId>,
}

amc_types::wire_struct!(PaxosOpenEntry {
    gtx: amc_types::GlobalTxnId,
    participants: Vec<SiteId>,
});

amc_types::wire_enum!(AdminRequest, "admin-request" {
    0 => Ping,
    1 => Load(data: Vec<(ObjectId, Value)>),
    2 => Dump,
    3 => CommStats,
    4 => LogStats,
    5 => Recovery,
    6 => PaxosOpen,
});

/// Replies to [`AdminRequest`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdminReply {
    /// The site is alive.
    Pong,
    /// The load completed.
    Loaded,
    /// The committed state.
    Dump(BTreeMap<ObjectId, Value>),
    /// Communication-manager counters.
    CommStats(CommStats),
    /// WAL counters.
    LogStats(LogStats),
    /// Stats of the last restart recovery pass (None if this site process
    /// started fresh rather than recovering from durable state).
    Recovery(Option<RecoveryStats>),
    /// The acceptor's registered-but-undecided transactions.
    PaxosOpen(Vec<PaxosOpenEntry>),
}

amc_types::wire_enum!(AdminReply, "admin-reply" {
    0 => Pong,
    1 => Loaded,
    2 => Dump(data: BTreeMap<ObjectId, Value>),
    3 => CommStats(stats: CommStats),
    4 => LogStats(stats: LogStats),
    5 => Recovery(stats: Option<RecoveryStats>),
    6 => PaxosOpen(entries: Vec<PaxosOpenEntry>),
});

/// A bidirectional request/reply channel from the central system to every
/// site of the federation.
pub trait FederationTransport: Send + Sync {
    /// The sites reachable through this transport, ascending.
    fn sites(&self) -> Vec<SiteId>;

    /// Send one protocol message to `to` and wait for its reply.
    fn call(&self, to: SiteId, payload: Payload) -> AmcResult<Payload>;

    /// Send one admin request to `to` and wait for its reply.
    fn admin(&self, to: SiteId, req: AdminRequest) -> AmcResult<AdminReply>;

    /// Send one message round — the central system addresses every
    /// participating site, then waits for all of them — and return the
    /// replies in *send* order. The default is serial [`call`]s; an
    /// override overlaps the sends, so a round costs its slowest exchange.
    ///
    /// [`call`]: FederationTransport::call
    fn call_round(&self, sends: Vec<(SiteId, Payload)>) -> Vec<AmcResult<Payload>> {
        sends
            .into_iter()
            .map(|(to, payload)| self.call(to, payload))
            .collect()
    }

    /// Whether the TCP transports' [`FederationTransport::call_round`]
    /// pipelines its sends on the wire. Informational only.
    fn supports_pipelining(&self) -> bool {
        false
    }

    /// How many requests the sites answered with a load-shed
    /// (`BufferExhausted`) since this transport was created. The
    /// in-process transport never sheds; networked transports report
    /// their clients' counters, so a run's backpressure is visible
    /// instead of being silently retried away.
    fn load_sheds(&self) -> u64 {
        0
    }
}

/// A Paxos Commit acceptor co-located with a site (Gray & Lamport §5),
/// answering its messages ahead of the site's communication manager.
/// [`dispatch_to_manager`] and [`admin_to_manager`] are its only callers,
/// so every runtime that reaches a site reaches its acceptor the same way.
pub trait CoLocatedAcceptor: Send + Sync {
    /// Intercept a request before the manager sees it. `Ok(Some(reply))`
    /// means the acceptor answered it; `Ok(None)` means it continues to
    /// the manager.
    fn pre_dispatch(&self, payload: &Payload) -> AmcResult<Option<Payload>>;

    /// Observe the manager's reply before it leaves the site: a vote is
    /// the site's ballot-0 accept. An error means the reply must not be
    /// sent.
    fn post_dispatch(&self, reply: &Payload) -> AmcResult<()>;

    /// Intercept an admin request; `Some` when the acceptor answered it.
    fn admin_pre(&self, req: &AdminRequest) -> Option<AdminReply>;
}

/// Run one protocol message against a local communication manager and the
/// acceptor it hosts, if any: the one dispatch point of every runtime, so
/// all of them interpret the vocabulary identically.
pub fn dispatch_to_manager(
    manager: &LocalCommManager,
    payload: Payload,
    mode: SubmitMode,
) -> AmcResult<Payload> {
    let Some(acceptor) = manager.acceptor.as_deref() else {
        return serve(manager, payload, mode);
    };
    if let Some(reply) = acceptor.pre_dispatch(&payload)? {
        return Ok(reply);
    }
    let reply = serve(manager, payload, mode)?;
    acceptor.post_dispatch(&reply)?;
    Ok(reply)
}

/// What the communication manager answers to `payload`.
fn serve(manager: &LocalCommManager, payload: Payload, mode: SubmitMode) -> AmcResult<Payload> {
    match payload {
        Payload::Submit { gtx, ops } => manager.submit(gtx, ops, mode, false),
        // The 1PC fast path: a solo submit commits on commit-before's
        // machinery, so a lost reply is undone like any (§3.3); a 2PC
        // piggyback ends prepared; a portable vote rides every submit.
        Payload::SubmitPrepare { gtx, ops, solo } => {
            let mode = if solo { SubmitMode::CommitBefore } else { mode };
            manager.submit(gtx, ops, mode, mode == SubmitMode::TwoPhase)
        }
        Payload::Prepare { gtx } => manager.handle_prepare(gtx),
        Payload::Decision { gtx, verdict } => manager.handle_decision(gtx, verdict, mode),
        Payload::Redo { gtx, ops } => manager.handle_redo(gtx, ops),
        Payload::Undo { gtx, ops } => manager.handle_undo(gtx, ops),
        // Paxos messages address a site's co-located acceptor, which
        // answers them before the manager; reaching here means the site
        // hosts none.
        Payload::PaxosRegister { .. }
        | Payload::PaxosP1a { .. }
        | Payload::PaxosP2a { .. }
        | Payload::PaxosDecided { .. } => {
            Err(AmcError::Protocol("site hosts no Paxos acceptor".into()))
        }
        Payload::Vote { .. }
        | Payload::Finished { .. }
        | Payload::PaxosAck { .. }
        | Payload::PaxosP1b { .. }
        | Payload::PaxosP2b { .. } => {
            Err(AmcError::Protocol("central received its own reply".into()))
        }
    }
}

/// Run one admin request against a local communication manager and the
/// acceptor it hosts, if any (every runtime's one admin dispatch).
pub fn admin_to_manager(manager: &LocalCommManager, req: AdminRequest) -> AmcResult<AdminReply> {
    if let Some(reply) = manager.acceptor.as_ref().and_then(|a| a.admin_pre(&req)) {
        return Ok(reply);
    }
    match req {
        AdminRequest::Ping => Ok(AdminReply::Pong),
        AdminRequest::Load(data) => {
            manager.handle().engine().bulk_load(&data)?;
            Ok(AdminReply::Loaded)
        }
        AdminRequest::Dump => Ok(AdminReply::Dump(manager.handle().engine().dump()?)),
        AdminRequest::CommStats => Ok(AdminReply::CommStats(manager.stats())),
        AdminRequest::LogStats => Ok(AdminReply::LogStats(manager.handle().engine().log_stats())),
        AdminRequest::Recovery => Ok(AdminReply::Recovery(manager.recovery_stats())),
        // As with the Paxos payloads: the acceptor answered it, if any.
        AdminRequest::PaxosOpen => Err(AmcError::Protocol("site hosts no Paxos acceptor".into())),
    }
}

/// Who is reachable: the member sites and which of them are simulated
/// as crashed.
struct Fleet {
    members: BTreeMap<SiteId, Arc<LocalCommManager>>,
    /// Members currently simulated as crashed: calls answer `SiteDown`
    /// without reaching the manager, exactly like a dead TCP peer.
    down: BTreeSet<SiteId>,
}

/// The in-process transport: managers live in the same address space and a
/// message is a function call, with `message_delay` slept on each leg.
///
/// Site membership sits behind a lock, so sites can be added and removed
/// *while coordinators are driving traffic* — the substrate for
/// `amc-shard`'s online reconfiguration — and a nemesis-style down-set
/// lets chaos tests crash a site mid-migration without tearing down its
/// manager. Every coordinator of a sharded federation holds the **same**
/// `Arc<InProcessTransport>`, so a membership change made by the
/// reconfiguration protocol is observed by all shards at once;
/// transactions already past the membership read (in flight on the old
/// epoch) are exactly the ones the router's drain gate waits out.
pub struct InProcessTransport {
    fleet: RwLock<Fleet>,
    mode: SubmitMode,
    message_delay: Duration,
    /// Delayed exchanges sent and not yet answered, and the most ever.
    in_flight: AtomicUsize,
    peak_in_flight: AtomicUsize,
}

impl InProcessTransport {
    /// Wrap the initial fleet `managers`; protocol submits will use
    /// `mode`.
    pub fn new(
        managers: BTreeMap<SiteId, Arc<LocalCommManager>>,
        mode: SubmitMode,
        message_delay: Duration,
    ) -> Self {
        InProcessTransport {
            fleet: RwLock::new(Fleet {
                members: managers,
                down: BTreeSet::new(),
            }),
            mode,
            message_delay,
            in_flight: AtomicUsize::new(0),
            peak_in_flight: AtomicUsize::new(0),
        }
    }

    /// The most delayed exchanges ever in flight at once (sent, reply not
    /// yet in): a round's width if it overlaps them, else 1.
    pub fn peak_in_flight(&self) -> usize {
        self.peak_in_flight.load(Ordering::Relaxed)
    }

    /// `n` delayed requests leave; `exchange` lands each reply.
    fn send(&self, n: usize) {
        let now = self.in_flight.fetch_add(n, Ordering::Relaxed) + n;
        self.peak_in_flight.fetch_max(now, Ordering::Relaxed);
    }

    /// One exchange counted by `send`, `message_delay` slept on each leg.
    fn exchange(&self, to: SiteId, payload: Payload) -> AmcResult<Payload> {
        let reply = self.manager(to).and_then(|manager| {
            std::thread::sleep(self.message_delay);
            let reply = dispatch_to_manager(&manager, payload, self.mode)?;
            // Reply leg: the model charges both directions of the exchange.
            std::thread::sleep(self.message_delay);
            Ok(reply)
        });
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
        reply
    }

    /// Add `site` to the fleet (idempotent: re-adding replaces the manager).
    pub fn add_site(&self, site: SiteId, manager: Arc<LocalCommManager>) {
        let mut fleet = self.fleet.write();
        fleet.members.insert(site, manager);
        fleet.down.remove(&site);
    }

    /// Remove `site` from the fleet, returning its manager if it was a
    /// member. Calls to a removed site fail with `SiteDown`.
    pub fn remove_site(&self, site: SiteId) -> Option<Arc<LocalCommManager>> {
        let mut fleet = self.fleet.write();
        fleet.down.remove(&site);
        fleet.members.remove(&site)
    }

    /// Simulate a crash (`down = true`) or a recovery (`down = false`) of a
    /// member site. A down member stays in the fleet — its engine state is
    /// retained — but every call to it answers `SiteDown`.
    pub fn set_down(&self, site: SiteId, down: bool) {
        let mut fleet = self.fleet.write();
        if down {
            fleet.down.insert(site);
        } else {
            fleet.down.remove(&site);
        }
    }

    /// Whether `site` is currently a fleet member (regardless of up/down).
    pub fn is_member(&self, site: SiteId) -> bool {
        self.fleet.read().members.contains_key(&site)
    }

    /// The manager of `site`, if it is a member and not simulated down.
    /// One read lock covers both checks; the manager is cloned out so a
    /// long dispatch never holds membership changes up.
    fn manager(&self, site: SiteId) -> AmcResult<Arc<LocalCommManager>> {
        let fleet = self.fleet.read();
        match fleet.members.get(&site) {
            Some(manager) if !fleet.down.contains(&site) => Ok(Arc::clone(manager)),
            _ => Err(AmcError::SiteDown(site)),
        }
    }
}

impl FederationTransport for InProcessTransport {
    fn sites(&self) -> Vec<SiteId> {
        self.fleet.read().members.keys().copied().collect()
    }

    fn call(&self, to: SiteId, payload: Payload) -> AmcResult<Payload> {
        if self.message_delay.is_zero() {
            let manager = self.manager(to)?;
            return dispatch_to_manager(&manager, payload, self.mode);
        }
        self.send(1);
        self.exchange(to, payload)
    }

    /// With a modelled delay the exchanges overlap: every request leaves
    /// before any reply is awaited, the first on the caller, the rest on
    /// scoped threads. With no delay there is nothing in flight to
    /// overlap, and a spawn costs more than the exchange.
    fn call_round(&self, sends: Vec<(SiteId, Payload)>) -> Vec<AmcResult<Payload>> {
        let mut sends = sends.into_iter();
        if self.message_delay.is_zero() || sends.len() < 2 {
            return sends.map(|(to, payload)| self.call(to, payload)).collect();
        }
        self.send(sends.len());
        let (to, payload) = sends.next().expect("two or more sends");
        std::thread::scope(|scope| {
            let rest: Vec<_> = sends
                .map(|(to, payload)| scope.spawn(move || self.exchange(to, payload)))
                .collect();
            let first = self.exchange(to, payload);
            let rest = rest.into_iter().map(|h| h.join().unwrap());
            std::iter::once(first).chain(rest).collect()
        })
    }

    fn admin(&self, to: SiteId, req: AdminRequest) -> AmcResult<AdminReply> {
        let manager = self.manager(to)?;
        admin_to_manager(&manager, req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::EngineHandle;
    use amc_engine::{TplConfig, TwoPLEngine};
    use amc_types::{GlobalTxnId, GlobalVerdict, Operation};

    fn transport(sites: u32) -> InProcessTransport {
        delayed(sites, Duration::ZERO)
    }

    /// `sites` managers, object 1 loaded at each, `delay` slept per leg.
    fn delayed(sites: u32, delay: Duration) -> InProcessTransport {
        let managers = (1..=sites).map(|s| (SiteId::new(s), manager(s))).collect();
        let t = InProcessTransport::new(managers, SubmitMode::CommitBefore, delay);
        for s in t.sites() {
            let load = AdminRequest::Load(vec![(ObjectId::new(1), Value::counter(10))]);
            t.admin(s, load).unwrap();
        }
        t
    }

    /// One submit per site, each under its own gtx (10 + site) so a reply
    /// names the send it answers; site 3's reads a missing object and
    /// votes abort.
    fn submit_round(sites: u32) -> Vec<(SiteId, Payload)> {
        (1..=sites)
            .map(|s| {
                let obj = ObjectId::new(if s == 3 { 99 } else { 1 });
                let ops = vec![Operation::Read { obj }];
                let gtx = GlobalTxnId::new(10 + u64::from(s));
                (SiteId::new(s), Payload::Submit { gtx, ops })
            })
            .collect()
    }

    fn voted(reply: &AmcResult<Payload>) -> Option<(u64, bool)> {
        match reply {
            Ok(Payload::Vote { gtx, vote }) => Some((gtx.raw(), vote.is_yes())),
            _ => None,
        }
    }

    #[test]
    fn a_delayed_round_answers_a_down_site_in_its_slot() {
        let t = delayed(3, Duration::from_millis(1));
        t.set_down(SiteId::new(2), true);
        let replies = t.call_round(submit_round(3));
        assert_eq!(replies.len(), 3);
        assert_eq!(voted(&replies[0]), Some((11, true)));
        assert!(matches!(replies[1], Err(AmcError::SiteDown(s)) if s == SiteId::new(2)));
        assert_eq!(voted(&replies[2]), Some((13, false)));
    }

    /// A count, not a clock: all three delayed exchanges are in flight at
    /// once, so the round sleeps one exchange's two legs where a serial
    /// loop would sleep three.
    #[test]
    fn a_delayed_round_costs_one_exchange_not_one_per_site() {
        let t = delayed(3, Duration::from_millis(20));
        let replies = t.call_round(submit_round(3));
        assert!(replies.iter().all(|r| voted(r).is_some()), "{replies:?}");
        assert_eq!(t.peak_in_flight(), 3, "the exchanges ran one after another");
    }

    /// The peak counts delayed exchanges sent and not yet answered: a
    /// serial call is one, an overlapped round its width, and the peak
    /// keeps the most once the round is in. Undelayed calls are never in
    /// flight.
    #[test]
    fn peak_in_flight_is_the_widest_overlap_of_delayed_exchanges() {
        let t = delayed(3, Duration::from_millis(1));
        assert_eq!(t.peak_in_flight(), 0);
        let (to, payload) = submit_round(1).remove(0);
        assert!(voted(&t.call(to, payload)).is_some());
        assert_eq!(t.peak_in_flight(), 1);
        t.call_round(submit_round(3));
        assert_eq!(t.peak_in_flight(), 3);
        let (to, payload) = submit_round(2).remove(1);
        t.call(to, payload).unwrap();
        assert_eq!(t.peak_in_flight(), 3, "a later call lowers nothing");

        let undelayed = transport(3);
        undelayed.call_round(submit_round(3));
        assert_eq!(undelayed.peak_in_flight(), 0);
    }

    #[test]
    fn a_zero_delay_round_answers_as_serial_calls() {
        let (round, serial) = (transport(4), transport(4));
        for t in [&round, &serial] {
            t.set_down(SiteId::new(2), true);
        }
        let by_round = round.call_round(submit_round(4));
        let by_call: Vec<_> = submit_round(4)
            .into_iter()
            .map(|(to, payload)| serial.call(to, payload))
            .collect();
        assert_eq!(by_round, by_call);
    }

    #[test]
    fn sites_are_ascending() {
        let t = transport(3);
        assert_eq!(
            t.sites(),
            vec![SiteId::new(1), SiteId::new(2), SiteId::new(3)]
        );
    }

    #[test]
    fn admin_load_then_dump_round_trips() {
        let t = transport(1);
        let site = SiteId::new(1);
        let data = vec![(ObjectId::new(7), Value::counter(42))];
        assert_eq!(
            t.admin(site, AdminRequest::Load(data)).unwrap(),
            AdminReply::Loaded
        );
        match t.admin(site, AdminRequest::Dump).unwrap() {
            AdminReply::Dump(d) => assert_eq!(d[&ObjectId::new(7)], Value::counter(42)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn call_runs_a_commit_before_submit_to_a_vote() {
        let t = transport(1);
        let site = SiteId::new(1);
        t.admin(
            site,
            AdminRequest::Load(vec![(ObjectId::new(1), Value::counter(10))]),
        )
        .unwrap();
        let gtx = GlobalTxnId::new(1);
        let reply = t
            .call(
                site,
                Payload::Submit {
                    gtx,
                    ops: vec![Operation::Increment {
                        obj: ObjectId::new(1),
                        delta: 5,
                    }],
                },
            )
            .unwrap();
        assert!(matches!(reply, Payload::Vote { vote, .. } if vote.is_yes()));
        let fin = t
            .call(
                site,
                Payload::Decision {
                    gtx,
                    verdict: GlobalVerdict::Commit,
                },
            )
            .unwrap();
        assert!(matches!(fin, Payload::Finished { .. }));
    }

    #[test]
    fn call_to_unknown_site_is_site_down() {
        let t = transport(1);
        let err = t
            .call(
                SiteId::new(9),
                Payload::Prepare {
                    gtx: GlobalTxnId::new(1),
                },
            )
            .unwrap_err();
        assert!(matches!(err, AmcError::SiteDown(s) if s == SiteId::new(9)));
    }

    #[test]
    fn reply_payloads_are_rejected_as_requests() {
        let t = transport(1);
        let err = t
            .call(
                SiteId::new(1),
                Payload::Finished {
                    gtx: GlobalTxnId::new(1),
                },
            )
            .unwrap_err();
        assert!(matches!(err, AmcError::Protocol(_)));
    }

    fn manager(site: u32) -> Arc<LocalCommManager> {
        let engine = Arc::new(TwoPLEngine::new_at(TplConfig::default(), SiteId::new(1)));
        Arc::new(LocalCommManager::new(
            SiteId::new(site),
            EngineHandle::Preparable(engine),
        ))
    }

    #[test]
    fn membership_changes_are_visible_in_sites() {
        let t = transport(2);
        assert_eq!(t.sites(), vec![SiteId::new(1), SiteId::new(2)]);
        t.add_site(SiteId::new(3), manager(3));
        assert_eq!(
            t.sites(),
            vec![SiteId::new(1), SiteId::new(2), SiteId::new(3)]
        );
        assert!(t.remove_site(SiteId::new(1)).is_some());
        assert_eq!(t.sites(), vec![SiteId::new(2), SiteId::new(3)]);
        assert!(!t.is_member(SiteId::new(1)));
    }

    #[test]
    fn removed_site_answers_site_down() {
        let t = transport(1);
        t.remove_site(SiteId::new(1));
        let err = t.admin(SiteId::new(1), AdminRequest::Ping).unwrap_err();
        assert!(matches!(err, AmcError::SiteDown(s) if s == SiteId::new(1)));
    }

    #[test]
    fn down_site_answers_site_down_but_keeps_state() {
        let t = transport(1);
        let site = SiteId::new(1);
        t.admin(
            site,
            AdminRequest::Load(vec![(ObjectId::new(5), Value::counter(9))]),
        )
        .unwrap();
        t.set_down(site, true);
        assert!(matches!(
            t.admin(site, AdminRequest::Ping),
            Err(AmcError::SiteDown(_))
        ));
        t.set_down(site, false);
        match t.admin(site, AdminRequest::Dump).unwrap() {
            AdminReply::Dump(d) => assert_eq!(d[&ObjectId::new(5)], Value::counter(9)),
            other => panic!("unexpected {other:?}"),
        }
    }
}
