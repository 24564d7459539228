//! The deployment axis and the one loopback fleet builder.
//!
//! Every comparison this repository reproduces holds the Fig. 1 system
//! fixed and sweeps one thing. [`Wire`] is the "how do messages reach the
//! sites" axis — each deployment named and labelled exactly once — and
//! [`Fleet`] is the only code that turns a set of communication managers
//! into that deployment on loopback: the experiments, the CLI's site
//! server and the process tests all come through here, so two cells that
//! differ in their wire differ in nothing else.

use crate::{EventServer, RetryPolicy, SiteServer, TcpTransport};
use amc_net::transport::{FederationTransport, InProcessTransport};
use amc_net::{LocalCommManager, SubmitMode};
use amc_obs::ObsSink;
use amc_paxos::AcceptorHost;
use amc_types::SiteId;
use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// How the central system reaches its sites: the server runtime fronting
/// each site and the client link dialling it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    /// No sockets: a message is a call into the manager
    /// ([`InProcessTransport`]).
    InProcess,
    /// Thread-per-connection [`SiteServer`]s, pooled blocking client (a
    /// connection checked out per in-flight request).
    ThreadedPooled,
    /// Event-loop [`EventServer`]s, pooled blocking client.
    EventPooled,
    /// Event-loop [`EventServer`]s, multiplexed pipelining client (one
    /// shared connection per site).
    EventMux,
}

impl Wire {
    /// Every deployment, cheapest wire first.
    pub const ALL: [Wire; 4] = [
        Wire::InProcess,
        Wire::ThreadedPooled,
        Wire::EventPooled,
        Wire::EventMux,
    ];

    /// The name tables, flags and docs use: `<runtime>+<client>` for the
    /// TCP deployments, the halves being the values of `amc-site-server
    /// --runtime` and `amc-loadgen --client`.
    pub fn label(self) -> &'static str {
        match self {
            Wire::InProcess => "in-process",
            Wire::ThreadedPooled => "threaded+pooled",
            Wire::EventPooled => "event-loop+pooled",
            Wire::EventMux => "event-loop+mux",
        }
    }

    /// The deployment labelled `label`.
    pub fn parse(label: &str) -> Option<Wire> {
        Wire::ALL.into_iter().find(|w| w.label() == label)
    }

    /// The server half alone, as `amc-site-server --runtime` names it:
    /// that runtime under the pooled client.
    pub(crate) fn with_runtime(runtime: &str) -> Option<Wire> {
        Wire::parse(&format!("{runtime}+pooled"))
    }

    /// The client half alone, as `amc-loadgen --client` names it: that
    /// link against event-loop servers.
    pub(crate) fn with_client(client: &str) -> Option<Wire> {
        Wire::parse(&format!("event-loop+{client}"))
    }

    /// Whether messages cross a socket.
    pub fn is_tcp(self) -> bool {
        self != Wire::InProcess
    }

    /// The client half: a transport dialling `addrs` over this wire's
    /// link (multiplexed for [`Wire::EventMux`], pooled otherwise).
    pub fn connect(
        self,
        addrs: BTreeMap<SiteId, SocketAddr>,
        policy: RetryPolicy,
        obs: ObsSink,
    ) -> TcpTransport {
        match self {
            Wire::EventMux => TcpTransport::new_mux(addrs, policy, obs),
            _ => TcpTransport::new(addrs, policy, obs),
        }
    }
}

/// The server half: one site's listener on either runtime. Dropping it
/// stops the listener and joins its threads.
pub(crate) enum Server {
    Threaded(SiteServer),
    Event(EventServer),
}

impl Server {
    /// Bind `listen` and serve `manager` on `wire`'s runtime (the
    /// event loop for [`Wire::EventPooled`] and [`Wire::EventMux`],
    /// thread-per-connection otherwise), mounting `acceptor` if given.
    pub(crate) fn spawn(
        wire: Wire,
        manager: Arc<LocalCommManager>,
        mode: SubmitMode,
        listen: &str,
        acceptor: Option<Arc<AcceptorHost>>,
    ) -> io::Result<Server> {
        let (site, obs) = (manager.site(), ObsSink::disabled());
        Ok(match wire {
            Wire::EventPooled | Wire::EventMux => Server::Event(EventServer::spawn_with_acceptor(
                site, manager, mode, listen, obs, acceptor,
            )?),
            Wire::InProcess | Wire::ThreadedPooled => Server::Threaded(
                SiteServer::spawn_with_acceptor(site, manager, mode, listen, obs, acceptor)?,
            ),
        })
    }

    pub(crate) fn addr(&self) -> SocketAddr {
        match self {
            Server::Threaded(s) => s.addr(),
            Server::Event(s) => s.addr(),
        }
    }

    /// Connections this server carried: the threaded runtime's retained
    /// connection threads (each live connection is a thread), the event
    /// loop's high-water mark.
    fn connections(&self) -> u64 {
        match self {
            Server::Threaded(s) => s.connection_threads() as u64,
            Server::Event(s) => s.stats().peak_connections,
        }
    }
}

/// A set of sites deployed on loopback over one [`Wire`]: the transport
/// the central system drives them through, and the servers behind it.
/// Dropping the fleet stops every listener and joins every server thread.
pub struct Fleet {
    wire: Wire,
    mode: SubmitMode,
    transport: Arc<dyn FederationTransport>,
    managers: BTreeMap<SiteId, Arc<LocalCommManager>>,
    servers: BTreeMap<SiteId, Server>,
}

impl Fleet {
    /// Deploy `managers` over `wire` with the production retry policy.
    /// `delay` is the modelled cost of one message leg on the in-process
    /// wire; sockets pay their own.
    pub fn spawn(
        managers: Vec<Arc<LocalCommManager>>,
        mode: SubmitMode,
        wire: Wire,
        delay: Duration,
    ) -> io::Result<Fleet> {
        let (policy, obs) = (RetryPolicy::default(), ObsSink::disabled());
        Fleet::spawn_with(managers, mode, wire, delay, policy, obs)
    }

    /// [`Fleet::spawn`] with the client's retry `policy` chosen and its
    /// events (retries, reconnects, sheds) emitted into `obs`.
    pub fn spawn_with(
        managers: Vec<Arc<LocalCommManager>>,
        mode: SubmitMode,
        wire: Wire,
        delay: Duration,
        policy: RetryPolicy,
        obs: ObsSink,
    ) -> io::Result<Fleet> {
        let managers: BTreeMap<_, _> = managers.into_iter().map(|m| (m.site(), m)).collect();
        let mut servers = BTreeMap::new();
        let transport: Arc<dyn FederationTransport> = if wire.is_tcp() {
            for (&site, manager) in &managers {
                let server = Server::spawn(wire, Arc::clone(manager), mode, "127.0.0.1:0", None)?;
                servers.insert(site, server);
            }
            let addrs = servers.iter().map(|(&s, srv)| (s, srv.addr())).collect();
            Arc::new(wire.connect(addrs, policy, obs))
        } else {
            Arc::new(InProcessTransport::new(managers.clone(), mode, delay))
        };
        Ok(Fleet {
            wire,
            mode,
            transport,
            managers,
            servers,
        })
    }

    /// The transport to build a federation on
    /// (`amc_core::Federation::with_transport`).
    pub fn transport(&self) -> Arc<dyn FederationTransport> {
        Arc::clone(&self.transport)
    }

    /// The sites' communication managers (fault injection, counters).
    pub fn managers(&self) -> &BTreeMap<SiteId, Arc<LocalCommManager>> {
        &self.managers
    }

    /// Where each site listens; empty on the in-process wire.
    pub fn addrs(&self) -> BTreeMap<SiteId, SocketAddr> {
        self.servers
            .iter()
            .map(|(&s, srv)| (s, srv.addr()))
            .collect()
    }

    /// Server-side connections carried so far, summed over the sites.
    pub fn connections(&self) -> u64 {
        self.servers.values().map(Server::connections).sum()
    }

    /// Kill `site` and restart it in place: its server goes down (sockets
    /// die), its engine crashes and recovers, and a new server binds the
    /// **same port** — what a restarted production process does, leaning
    /// on the bind retry to ride out the old listener's `TIME_WAIT`. The
    /// transport needs no repointing; its client reconnects.
    pub fn restart_site(&mut self, site: SiteId) -> io::Result<()> {
        let manager = Arc::clone(&self.managers[&site]);
        let addr = self.servers.remove(&site).map(|old| old.addr());
        let engine = manager.handle().engine();
        engine.crash();
        engine.recover().map_err(io::Error::other)?;
        if let Some(addr) = addr {
            let server = Server::spawn(self.wire, manager, self.mode, &addr.to_string(), None)?;
            self.servers.insert(site, server);
        }
        Ok(())
    }
}
