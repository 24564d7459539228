//! The deployment axis and the one loopback fleet builder.
//!
//! Every comparison this repository reproduces holds the Fig. 1 system
//! fixed and sweeps one thing. [`Wire`] is the "how do messages reach the
//! sites" axis — each deployment named and labelled exactly once — and
//! [`Fleet`] is the only code that turns a set of communication managers
//! into that deployment on loopback: the experiments and the process
//! tests all come through here, so two cells that differ in their wire
//! differ in nothing else. `amc-site-server` serves on the same
//! [`SiteServer`], one per process.

use crate::{RetryPolicy, SiteServer, TcpTransport};
use amc_net::transport::{FederationTransport, InProcessTransport};
use amc_net::{LocalCommManager, SubmitMode};
use amc_obs::ObsSink;
use amc_types::SiteId;
use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// How the central system reaches its sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    /// No sockets: a message is a call into the manager
    /// ([`InProcessTransport`]).
    InProcess,
    /// Thread-per-connection [`SiteServer`]s, pooled blocking client (a
    /// connection checked out per in-flight request): the one deployed
    /// wire.
    ThreadedPooled,
}

impl Wire {
    /// Every deployment, cheapest wire first.
    pub const ALL: [Wire; 2] = [Wire::InProcess, Wire::ThreadedPooled];

    /// The name tables and docs use: `<runtime>+<client>` for the TCP
    /// deployment.
    pub fn label(self) -> &'static str {
        match self {
            Wire::InProcess => "in-process",
            Wire::ThreadedPooled => "threaded+pooled",
        }
    }

    /// The deployment labelled `label`.
    pub fn parse(label: &str) -> Option<Wire> {
        Wire::ALL.into_iter().find(|w| w.label() == label)
    }

    /// Whether messages cross a socket.
    pub fn is_tcp(self) -> bool {
        self != Wire::InProcess
    }
}

/// A set of sites deployed on loopback over one [`Wire`]: the transport
/// the central system drives them through, and the servers behind it.
/// Dropping the fleet stops every listener and joins every server thread.
pub struct Fleet {
    mode: SubmitMode,
    transport: Arc<dyn FederationTransport>,
    managers: BTreeMap<SiteId, Arc<LocalCommManager>>,
    servers: BTreeMap<SiteId, SiteServer>,
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
                let (manager, quiet) = (Arc::clone(manager), ObsSink::disabled());
                let server = SiteServer::spawn(site, manager, mode, "127.0.0.1:0", quiet)?;
                servers.insert(site, server);
            }
            let addrs = servers.iter().map(|(&s, srv)| (s, srv.addr())).collect();
            Arc::new(TcpTransport::new(addrs, policy, obs))
        } else {
            Arc::new(InProcessTransport::new(managers.clone(), mode, delay))
        };
        Ok(Fleet {
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
            let (listen, obs) = (addr.to_string(), ObsSink::disabled());
            let server = SiteServer::spawn(site, manager, self.mode, &listen, obs)?;
            self.servers.insert(site, server);
        }
        Ok(())
    }
}
