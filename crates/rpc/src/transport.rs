//! [`FederationTransport`] over TCP: one request core per site, over
//! pooled blocking connections or a single multiplexed pipelining
//! connection.

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
    pipelining: bool,
}

impl TcpTransport {
    fn with_links<L: Link + Default + 'static>(
        addrs: BTreeMap<SiteId, SocketAddr>,
        policy: RetryPolicy,
        obs: ObsSink,
        pipelining: bool,
    ) -> Self {
        let clients = addrs
            .into_iter()
            .map(|(site, addr)| {
                let link: Box<dyn Link> = Box::new(L::default());
                (site, Core::new(site, addr, policy, obs.clone(), link))
            })
            .collect();
        TcpTransport {
            clients,
            pipelining,
        }
    }

    /// A transport for the sites at `addrs`, all sharing `policy` and
    /// emitting client-side events into `obs`. Uses pooled blocking
    /// connections (one per in-flight call), like
    /// [`RpcClient`](crate::RpcClient).
    pub fn new(addrs: BTreeMap<SiteId, SocketAddr>, policy: RetryPolicy, obs: ObsSink) -> Self {
        Self::with_links::<PooledLink>(addrs, policy, obs, false)
    }

    /// Like [`TcpTransport::new`], but every site is reached over a
    /// single multiplexed connection, like
    /// [`MuxClient`](crate::MuxClient), and concurrent calls pipeline.
    /// The transport reports [`FederationTransport::supports_pipelining`],
    /// so the coordinator fans message rounds out in parallel.
    pub fn new_mux(addrs: BTreeMap<SiteId, SocketAddr>, policy: RetryPolicy, obs: ObsSink) -> Self {
        Self::with_links::<MuxLink>(addrs, policy, obs, true)
    }

    /// Repoint one site's client (a restarted site server may listen on a
    /// new port).
    pub fn set_site_addr(&self, site: SiteId, addr: SocketAddr) {
        if let Some(c) = self.clients.get(&site) {
            c.set_addr(addr);
        }
    }

    /// Total load-shed (`BufferExhausted`) answers across every site's
    /// client, retried and terminal alike.
    pub fn sheds(&self) -> u64 {
        self.clients.values().map(Core::sheds).sum()
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

    fn supports_pipelining(&self) -> bool {
        self.pipelining
    }

    fn load_sheds(&self) -> u64 {
        self.sheds()
    }
}
