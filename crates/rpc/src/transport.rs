//! [`FederationTransport`] over TCP: one request core per site, over
//! pooled blocking connections or a single multiplexed pipelining
//! connection. Over either, a message round is split-phase: every
//! request is written before the first reply is awaited.

use crate::client::{Core, Link, PooledLink, RetryPolicy};
use crate::mux::MuxLink;
use amc_net::transport::{AdminReply, AdminRequest, FederationTransport};
use amc_net::Payload;
use amc_obs::ObsSink;
use amc_types::{AmcError, AmcResult, SiteId};
use std::collections::BTreeMap;
use std::net::SocketAddr;

/// The networked transport: the coordinator reaches every site through a
/// deadline/retry RPC client over loopback (or any) TCP.
pub struct TcpTransport {
    clients: BTreeMap<SiteId, Core<Box<dyn Link>>>,
}

impl TcpTransport {
    fn with_links<L: Link + Default + 'static>(
        addrs: BTreeMap<SiteId, SocketAddr>,
        policy: RetryPolicy,
        obs: ObsSink,
    ) -> Self {
        let clients = addrs
            .into_iter()
            .map(|(site, addr)| {
                let link: Box<dyn Link> = Box::new(L::default());
                (site, Core::new(site, addr, policy, obs.clone(), link))
            })
            .collect();
        TcpTransport { clients }
    }

    /// A transport for the sites at `addrs`, all sharing `policy` and
    /// emitting client-side events into `obs`. Uses pooled blocking
    /// connections (one per in-flight call), like
    /// [`RpcClient`](crate::RpcClient).
    pub fn new(addrs: BTreeMap<SiteId, SocketAddr>, policy: RetryPolicy, obs: ObsSink) -> Self {
        Self::with_links::<PooledLink>(addrs, policy, obs)
    }

    /// Like [`TcpTransport::new`], but every site is reached over a
    /// single multiplexed connection, like
    /// [`MuxClient`](crate::MuxClient), and concurrent calls pipeline.
    pub fn new_mux(addrs: BTreeMap<SiteId, SocketAddr>, policy: RetryPolicy, obs: ObsSink) -> Self {
        Self::with_links::<MuxLink>(addrs, policy, obs)
    }
}

impl FederationTransport for TcpTransport {
    fn sites(&self) -> Vec<SiteId> {
        self.clients.keys().copied().collect()
    }

    fn call(&self, to: SiteId, payload: Payload) -> AmcResult<Payload> {
        self.clients
            .get(&to)
            .ok_or(AmcError::SiteDown(to))?
            .call(payload)
    }

    fn admin(&self, to: SiteId, req: AdminRequest) -> AmcResult<AdminReply> {
        self.clients
            .get(&to)
            .ok_or(AmcError::SiteDown(to))?
            .admin(req)
    }

    /// Start every send, then finish them in send order: the round's
    /// requests are all on the wire before the first reply is awaited. A
    /// send whose first attempt fails or is shed retries inside its own
    /// finish, while the later sends' replies wait in their sockets.
    fn call_round(&self, sends: Vec<(SiteId, Payload)>) -> Vec<AmcResult<Payload>> {
        let started: Vec<_> = sends
            .iter()
            .map(|(to, payload)| {
                let client = self.clients.get(to)?;
                Some((client, client.start_call(payload)))
            })
            .collect();
        started
            .into_iter()
            .zip(sends)
            .map(|(started, (to, payload))| match started {
                Some((client, first)) => client.finish_call(payload, first),
                None => Err(AmcError::SiteDown(to)),
            })
            .collect()
    }

    fn supports_pipelining(&self) -> bool {
        true
    }

    /// Load-shed (`BufferExhausted`) answers across every site's client,
    /// retried and terminal alike.
    fn load_sheds(&self) -> u64 {
        self.clients.values().map(Core::sheds).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventServer, SiteServer};
    use amc_core::{Federation, FederationConfig, TxnOutcome};
    use amc_engine::{TplConfig, TwoPLEngine};
    use amc_net::comm::EngineHandle;
    use amc_net::transport::InProcessTransport;
    use amc_net::{LocalCommManager, SubmitMode};
    use amc_types::{
        GlobalTxnId, GlobalVerdict, LocalVote, ObjectId, Operation, ProtocolKind, Value,
    };
    use std::any::Any;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn manager(site: SiteId) -> Arc<LocalCommManager> {
        let cfg = TplConfig {
            lock_timeout: Duration::from_secs(5),
            ..TplConfig::default()
        };
        let engine = Arc::new(TwoPLEngine::new_at(cfg, SiteId::new(1)));
        Arc::new(LocalCommManager::new(
            site,
            EngineHandle::Preparable(engine),
        ))
    }

    /// Both link kinds against their natural server: pooled connections
    /// to thread-per-connection servers, one multiplexed connection to
    /// event-loop servers. The servers live as long as the returned boxes.
    fn rig(
        mux: bool,
        managers: &BTreeMap<SiteId, Arc<LocalCommManager>>,
        dead: &[(SiteId, SocketAddr)],
        policy: RetryPolicy,
    ) -> (TcpTransport, Vec<Box<dyn Any>>) {
        let mut addrs: BTreeMap<SiteId, SocketAddr> = dead.iter().copied().collect();
        let mut servers: Vec<Box<dyn Any>> = Vec::new();
        let (mode, listen) = (SubmitMode::TwoPhase, "127.0.0.1:0");
        for (&site, manager) in managers {
            let (manager, obs) = (Arc::clone(manager), ObsSink::disabled());
            let (addr, server): (SocketAddr, Box<dyn Any>) = if mux {
                let server = EventServer::spawn(site, manager, mode, listen, obs).unwrap();
                (server.addr(), Box::new(server))
            } else {
                let server = SiteServer::spawn(site, manager, mode, listen, obs).unwrap();
                (server.addr(), Box::new(server))
            };
            addrs.insert(site, addr);
            servers.push(server);
        }
        let transport = if mux {
            TcpTransport::new_mux(addrs, policy, ObsSink::disabled())
        } else {
            TcpTransport::new(addrs, policy, ObsSink::disabled())
        };
        (transport, servers)
    }

    fn obj(site: u32, i: u64) -> ObjectId {
        ObjectId::new(u64::from(site) * (1 << 32) + i)
    }

    fn increment(site: u32) -> Operation {
        Operation::Increment {
            obj: obj(site, 0),
            delta: 1,
        }
    }

    /// A round's replies come back in *send* order even when the site
    /// addressed second answers first: site 1's submit is wedged behind
    /// an L0 lock until site 2 is seen to have voted.
    #[test]
    fn call_round_returns_replies_in_send_order() {
        let (s1, s2) = (SiteId::new(1), SiteId::new(2));
        for mux in [false, true] {
            let managers = BTreeMap::from([(s1, manager(s1)), (s2, manager(s2))]);
            let (transport, _servers) = rig(mux, &managers, &[], RetryPolicy::default());
            for s in [1, 2] {
                let load = AdminRequest::Load(vec![(obj(s, 0), Value::counter(0))]);
                transport.admin(SiteId::new(s), load).unwrap();
            }
            // Two-phase mode: the holder keeps its page lock until told
            // the decision, so the round's submit to site 1 must wait.
            let holder = GlobalTxnId::new(1);
            let held = Payload::Submit {
                gtx: holder,
                ops: vec![increment(1)],
            };
            transport.call(s1, held).unwrap();

            let gtx = GlobalTxnId::new(2);
            let replies = std::thread::scope(|scope| {
                let round = scope.spawn(|| {
                    transport.call_round(vec![
                        (
                            s1,
                            Payload::Submit {
                                gtx,
                                ops: vec![increment(1)],
                            },
                        ),
                        // Fails on a missing object: an abort vote, told
                        // apart from site 1's ready.
                        (
                            s2,
                            Payload::Submit {
                                gtx,
                                ops: vec![Operation::Read { obj: obj(2, 999) }],
                            },
                        ),
                    ])
                });
                let deadline = Instant::now() + Duration::from_secs(10);
                while managers[&s2].stats().votes_aborted == 0 {
                    assert!(Instant::now() < deadline, "site 2 never voted");
                    std::thread::yield_now();
                }
                let site_1 = managers[&s1].stats();
                assert_eq!(
                    site_1.votes_ready, 1,
                    "mux={mux}: site 1 answered the round before site 2 did"
                );
                let release = Payload::Decision {
                    gtx: holder,
                    verdict: GlobalVerdict::Abort,
                };
                transport.call(s1, release).unwrap();
                round.join().unwrap()
            });
            let votes: Vec<LocalVote> = replies
                .into_iter()
                .map(|r| match r.unwrap() {
                    Payload::Vote { vote, .. } => vote,
                    other => panic!("unexpected {other}"),
                })
                .collect();
            assert_eq!(votes, [LocalVote::Ready, LocalVote::Aborted], "mux={mux}");
        }
    }

    /// A listener that accepts, counts and immediately drops every
    /// connection: a site that is reachable but dead.
    fn dead_site(dials: Arc<AtomicU32>) -> (SocketAddr, impl FnOnce()) {
        let stop = Arc::new(AtomicBool::new(false));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        listener.set_nonblocking(true).unwrap();
        let stopped = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            while !stopped.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok(_) => {
                        dials.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(1)),
                }
            }
        });
        (addr, move || {
            stop.store(true, Ordering::Relaxed);
            thread.join().unwrap();
        })
    }

    /// One dead site in a round costs exactly `max_attempts` dials and
    /// fails exactly its own slot; the coordinator turns that into the
    /// outcome the serial in-process path gives for a down site.
    #[test]
    fn a_dead_site_fails_only_its_slot_of_the_round() {
        let (s1, s2, s3) = (SiteId::new(1), SiteId::new(2), SiteId::new(3));
        let policy = RetryPolicy {
            connect_timeout: Duration::from_millis(200),
            request_timeout: Duration::from_millis(200),
            max_attempts: 3,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(2),
        };
        let program = BTreeMap::from([(s1, vec![increment(1)]), (s3, vec![increment(3)])]);
        let data = [(obj(1, 0), Value::counter(0))];
        let cfg = || FederationConfig::uniform(3, ProtocolKind::TwoPhaseCommit);

        // The serial reference: the in-process transport with site 3 down.
        let reference = {
            let managers: BTreeMap<_, _> = [s1, s2, s3].map(|s| (s, manager(s))).into();
            let transport = InProcessTransport::new(managers, SubmitMode::TwoPhase, Duration::ZERO);
            transport.set_down(s3, true);
            let fed = Federation::with_transport(cfg(), Arc::new(transport));
            fed.load_site(s1, &data).unwrap();
            let report = fed.run_transaction(&program).unwrap();
            (report.outcome, report.messages, fed.pending_obligations())
        };
        // Site 1 votes ready; site 3's submit finds it down, which decides
        // the abort. Both are sent it, and site 3 stays owed its abort: four
        // exchanges, eight messages.
        assert_eq!(reference, (TxnOutcome::Aborted, 8, 1));

        for mux in [false, true] {
            let dials = Arc::new(AtomicU32::new(0));
            let (dead_addr, stop_dead) = dead_site(Arc::clone(&dials));
            let managers = BTreeMap::from([(s1, manager(s1)), (s2, manager(s2))]);
            let (transport, _servers) = rig(mux, &managers, &[(s3, dead_addr)], policy);

            // A transaction the federation below never numbers: an inquiry
            // leaves a tombstone that would turn its own submit away.
            let gtx = GlobalTxnId::new(99);
            let replies = transport.call_round(vec![
                (s1, Payload::Prepare { gtx }),
                (s3, Payload::Prepare { gtx }),
                (s2, Payload::Prepare { gtx }),
            ]);
            assert!(
                replies[0].is_ok() && replies[2].is_ok(),
                "mux={mux}: {replies:?}"
            );
            assert!(
                matches!(replies[1], Err(AmcError::SiteDown(s)) if s == s3),
                "mux={mux}: {replies:?}"
            );
            assert_eq!(
                dials.load(Ordering::Relaxed),
                policy.max_attempts,
                "mux={mux}"
            );

            let fed = Federation::with_transport(cfg(), Arc::new(transport));
            fed.load_site(s1, &data).unwrap();
            let report = fed.run_transaction(&program).unwrap();
            assert_eq!(
                (report.outcome, report.messages, fed.pending_obligations()),
                reference,
                "mux={mux}"
            );
            stop_dead();
        }
    }
}
