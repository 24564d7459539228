//! The deployment axis and the one loopback fleet builder.
//!
//! Every comparison this repository reproduces holds the Fig. 1 system
//! fixed and sweeps one thing. [`Wire`] is the "how do messages reach the
//! sites" axis — each deployment named and labelled exactly once — and
//! [`Fleet`] is the only code that turns a federation's sites into that
//! deployment on loopback: the experiments and the process
//! tests all come through here, so two cells that differ in their wire
//! differ in nothing else. `amc-site-server` serves on the same
//! [`SiteServer`], one per process.

use crate::{RetryPolicy, SiteServer, TcpTransport};
use amc_core::{site::Site, submit_mode_for, FederationConfig};
use amc_net::transport::{FederationTransport, InProcessTransport};
use amc_net::SubmitMode;
use amc_obs::ObsSink;
use amc_types::SiteId;
use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;

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

/// A federation's sites deployed on loopback over one [`Wire`]: the
/// transport the central system drives them through, and the servers
/// behind it. Dropping the fleet stops every listener and joins every
/// server thread.
pub struct Fleet {
    mode: SubmitMode,
    transport: Arc<dyn FederationTransport>,
    sites: BTreeMap<SiteId, Site>,
    servers: BTreeMap<SiteId, SiteServer>,
}

impl Fleet {
    /// Open `cfg`'s sites and deploy them over `wire`: the in-process wire
    /// pays `cfg.message_delay` per message leg, sockets pay their own, and
    /// the TCP client retries under `policy`, emitting its retries,
    /// reconnects and sheds into `obs`.
    pub fn spawn(
        cfg: &FederationConfig,
        wire: Wire,
        policy: RetryPolicy,
        obs: ObsSink,
    ) -> io::Result<Fleet> {
        let mode = submit_mode_for(cfg.protocol);
        let sites: BTreeMap<_, _> = cfg
            .open_sites()
            .into_iter()
            .map(|site| (site.manager().site(), site))
            .collect();
        let mut servers = BTreeMap::new();
        let transport: Arc<dyn FederationTransport> = if wire.is_tcp() {
            for (&id, site) in &sites {
                let (manager, quiet) = (Arc::clone(site.manager()), ObsSink::disabled());
                let server = SiteServer::spawn(id, manager, mode, "127.0.0.1:0", quiet)?;
                servers.insert(id, server);
            }
            let addrs = servers.iter().map(|(&s, srv)| (s, srv.addr())).collect();
            Arc::new(TcpTransport::new(addrs, policy, obs))
        } else {
            let managers = sites
                .iter()
                .map(|(&id, site)| (id, Arc::clone(site.manager())));
            let delay = cfg.message_delay;
            Arc::new(InProcessTransport::new(managers.collect(), mode, delay))
        };
        Ok(Fleet {
            mode,
            transport,
            sites,
            servers,
        })
    }

    /// The transport to build a federation on
    /// (`amc_core::Federation::with_transport`).
    pub fn transport(&self) -> Arc<dyn FederationTransport> {
        Arc::clone(&self.transport)
    }

    /// The sites (fault injection, counters).
    pub fn sites(&self) -> &BTreeMap<SiteId, Site> {
        &self.sites
    }

    /// Where each site listens; empty on the in-process wire.
    pub fn addrs(&self) -> BTreeMap<SiteId, SocketAddr> {
        self.servers
            .iter()
            .map(|(&s, srv)| (s, srv.addr()))
            .collect()
    }

    /// Kill `site` and restart it in place: its server goes down (sockets
    /// die), the site restarts as a killed process would ([`Site::restart`])
    /// and a new server binds the **same port** (the bind retry rides out
    /// `TIME_WAIT`); the transport's client reconnects.
    pub fn restart_site(&mut self, site: SiteId) -> io::Result<()> {
        let addr = self.servers.remove(&site).map(|old| old.addr());
        self.sites[&site].restart().map_err(io::Error::other)?;
        if let Some(addr) = addr {
            let manager = Arc::clone(self.sites[&site].manager());
            let (listen, obs) = (addr.to_string(), ObsSink::disabled());
            let server = SiteServer::spawn(site, manager, self.mode, &listen, obs)?;
            self.servers.insert(site, server);
        }
        Ok(())
    }
}
