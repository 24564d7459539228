//! An acceptor-hosting decorator over any [`FederationTransport`].
//!
//! The in-process runtimes (threaded federation, nemesis sweeps) get
//! co-located acceptors by wrapping their transport: Paxos messages to a
//! hosting site are answered by its [`AcceptorHost`] (writing through a
//! group committer of its own), everything else flows to the inner
//! transport, and
//! vote replies are run through the vote-as-accept hook on the way out —
//! the same interception the TCP site server performs, so the in-process
//! sweeps exercise the identical protocol logic.
//!
//! For fault schedules the decorator adds an explicit reachability
//! switch: [`AcceptorTransport::set_down`] makes a site (and its
//! acceptor) unreachable, modelling a site-process crash or partition
//! deterministically.

use crate::host::AcceptorHost;
use amc_net::{AdminReply, AdminRequest, FederationTransport, Payload};
use amc_types::{AmcError, AmcResult, SiteId};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};

/// Wraps `inner`, mounting an [`AcceptorHost`] at some of its sites.
pub struct AcceptorTransport<T> {
    inner: T,
    hosts: BTreeMap<SiteId, AcceptorHost>,
    down: Mutex<BTreeSet<SiteId>>,
}

impl<T: FederationTransport> AcceptorTransport<T> {
    /// Mount `hosts` over `inner`.
    pub fn new(inner: T, hosts: BTreeMap<SiteId, AcceptorHost>) -> Self {
        AcceptorTransport {
            inner,
            hosts,
            down: Mutex::new(BTreeSet::new()),
        }
    }

    /// Make `site` (un)reachable — both its acceptor and its manager.
    pub fn set_down(&self, site: SiteId, down: bool) {
        let mut d = self.down.lock();
        if down {
            d.insert(site);
        } else {
            d.remove(&site);
        }
    }

    /// The host mounted at `site`, if any.
    pub fn host(&self, site: SiteId) -> Option<&AcceptorHost> {
        self.hosts.get(&site)
    }

    /// The inner transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }
}

impl<T: FederationTransport> FederationTransport for AcceptorTransport<T> {
    fn sites(&self) -> Vec<SiteId> {
        self.inner.sites()
    }

    fn call(&self, to: SiteId, payload: Payload) -> AmcResult<Payload> {
        if self.down.lock().contains(&to) {
            return Err(AmcError::SiteDown(to));
        }
        match self.hosts.get(&to) {
            None => self.inner.call(to, payload),
            Some(host) => {
                if let Some(reply) = host.pre_dispatch(&payload)? {
                    return Ok(reply);
                }
                let reply = self.inner.call(to, payload)?;
                host.post_dispatch(&reply)?;
                Ok(reply)
            }
        }
    }

    fn admin(&self, to: SiteId, req: AdminRequest) -> AmcResult<AdminReply> {
        if self.down.lock().contains(&to) {
            return Err(AmcError::SiteDown(to));
        }
        if let Some(host) = self.hosts.get(&to) {
            if let Some(reply) = host.admin_pre(&req) {
                return Ok(reply);
            }
        }
        self.inner.admin(to, req)
    }
}
