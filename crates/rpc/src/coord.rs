//! The TCP coordinator server and its client: the router↔coordinator
//! surface of the sharded topology.
//!
//! A [`CoordServer`] fronts one [`Federation`] coordinator — one shard
//! slot of the multi-coordinator deployment — behind a loopback listener
//! speaking frame kinds `5`/`6` of the wire codec. A remote router (or
//! `amc-loadgen --coordinators`) discovers the coordinator's identity
//! with [`CoordRequest::Describe`] and drives whole global transactions
//! through [`CoordRequest::Exec`]: the per-site operation buckets travel
//! in one frame, the coordinator runs the full commit protocol against
//! its site fleet, and one [`CoordReply::Done`] comes back with the
//! outcome and the coordinator-side measurements.
//!
//! The server is the same blocking runtime as
//! [`SiteServer`](crate::SiteServer) with a different frame handler:
//! thread-per-connection, malformed frames kill their own connection and
//! nothing else. Application failures travel as `ErrorReply` frames —
//! the transport stays healthy; the answer is an error.
//!
//! [`Federation`]: amc_core::Federation

use crate::client::{Core, PooledLink, RetryPolicy};
use crate::server::{BlockingServer, Handler};
use crate::wire::{CoordReply, CoordRequest, Frame};
use amc_core::{Federation, TxnReport};
use amc_obs::ObsSink;
use amc_types::{AmcError, AmcResult, Operation, SiteId};
use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// A coordinator's advertised identity: what [`CoordRequest::Describe`]
/// answers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoordInfo {
    /// The coordinator's id-range slot.
    pub slot: u32,
    /// Total coordinator count in the topology.
    pub coordinators: u32,
    /// The shard-map epoch this coordinator serves. The TCP lane runs a
    /// fixed topology, so this is static for the server's lifetime.
    pub epoch: u64,
    /// The site fleet the coordinator drives, ascending.
    pub sites: Vec<SiteId>,
}

/// A running coordinator server. Dropping it (or calling
/// [`CoordServer::shutdown`]) stops the listener and joins every
/// connection thread.
pub struct CoordServer {
    inner: BlockingServer,
}

impl CoordServer {
    /// Bind `listen` (e.g. `127.0.0.1:0`) and serve `federation` on it,
    /// advertising `info` to [`CoordRequest::Describe`]. The federation's
    /// configuration must match `info` (same slot/width via
    /// [`FederationConfig::sharded`]) — the server only reports, never
    /// checks.
    ///
    /// [`FederationConfig::sharded`]: amc_core::FederationConfig::sharded
    pub fn spawn(
        federation: Arc<Federation>,
        info: CoordInfo,
        listen: &str,
    ) -> io::Result<CoordServer> {
        let handler: Handler =
            Arc::new(move |frame| coord_reply_for_frame(frame, &federation, &info));
        Ok(CoordServer {
            inner: BlockingServer::spawn(listen, handler)?,
        })
    }

    /// The address the server actually listens on.
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr()
    }

    /// Stop accepting, close the listener, and join every thread.
    pub fn shutdown(self) {
        drop(self);
    }
}

/// Serve one coordinator request: run it and build the reply frame.
/// `None` for frames a coordinator must never receive (drop the
/// connection).
fn coord_reply_for_frame(frame: Frame, federation: &Federation, info: &CoordInfo) -> Option<Frame> {
    let Frame::CoordRequest { req_id, req } = frame else {
        return None;
    };
    Some(match req {
        CoordRequest::Ping => Frame::CoordReply {
            req_id,
            reply: CoordReply::Pong,
        },
        CoordRequest::Describe => Frame::CoordReply {
            req_id,
            reply: CoordReply::Coord {
                slot: info.slot,
                coordinators: info.coordinators,
                epoch: info.epoch,
                sites: info.sites.clone(),
            },
        },
        CoordRequest::Exec { per_site } => match federation.run_transaction(&per_site) {
            Ok(report) => Frame::CoordReply {
                req_id,
                reply: CoordReply::Done {
                    gtx: report.gtx,
                    outcome: report.outcome,
                    latency_us: report.latency.as_micros() as u64,
                    messages: report.messages,
                },
            },
            Err(error) => Frame::ErrorReply { req_id, error },
        },
    })
}

// ---------------------------------------------------------------- client --

/// A blocking client for one coordinator server.
///
/// [`CoordClient::ping`] and `CoordClient::describe` retry with the
/// policy's backoff (they are idempotent); [`CoordClient::exec`] makes
/// exactly **one** attempt — a transaction is not idempotent, and a
/// transport failure after the frame left leaves the outcome unknown, so
/// the client surfaces `SiteDown` and lets the caller decide (the load
/// generator counts it as an error, never as a silent retry that could
/// double-apply).
pub struct CoordClient {
    /// The shared request core over pooled connections. The peer is the
    /// central system, so an unreachable coordinator surfaces as
    /// `SiteDown(CENTRAL)`.
    core: Core<PooledLink>,
}

impl CoordClient {
    /// A client for the coordinator at `addr`.
    pub fn new(addr: SocketAddr, policy: RetryPolicy) -> Self {
        let link = PooledLink::default();
        CoordClient {
            core: Core::new(SiteId::CENTRAL, addr, policy, ObsSink::disabled(), link),
        }
    }

    /// Liveness probe, retried per the policy.
    pub fn ping(&self) -> AmcResult<()> {
        match self.request(CoordRequest::Ping, self.core.ep.policy.max_attempts)? {
            CoordReply::Pong => Ok(()),
            other => Err(AmcError::Protocol(format!(
                "coordinator answered ping with {other:?}"
            ))),
        }
    }

    /// Ask the coordinator who it is, retried per the policy.
    pub(crate) fn describe(&self) -> AmcResult<CoordInfo> {
        match self.request(CoordRequest::Describe, self.core.ep.policy.max_attempts)? {
            CoordReply::Coord {
                slot,
                coordinators,
                epoch,
                sites,
            } => Ok(CoordInfo {
                slot,
                coordinators,
                epoch,
                sites,
            }),
            other => Err(AmcError::Protocol(format!(
                "coordinator answered describe with {other:?}"
            ))),
        }
    }

    /// Run one global transaction through the coordinator. Exactly one
    /// attempt (see the type docs). The report is the coordinator's own:
    /// its latency excludes this hop, and L0 tenures do not cross the wire.
    pub fn exec(&self, per_site: BTreeMap<SiteId, Vec<Operation>>) -> AmcResult<TxnReport> {
        match self.request(CoordRequest::Exec { per_site }, 1)? {
            CoordReply::Done {
                gtx,
                outcome,
                latency_us,
                messages,
            } => Ok(TxnReport {
                gtx,
                outcome,
                latency: Duration::from_micros(latency_us),
                l0_holds: Vec::new(),
                messages,
            }),
            other => Err(AmcError::Protocol(format!(
                "coordinator answered exec with {other:?}"
            ))),
        }
    }

    fn request(&self, req: CoordRequest, max_attempts: u32) -> AmcResult<CoordReply> {
        let make_frame = |req_id| Frame::CoordRequest {
            req_id,
            req: req.clone(),
        };
        match self.core.request(None, max_attempts, make_frame, None)? {
            Frame::CoordReply { reply, .. } => Ok(reply),
            Frame::ErrorReply { error, .. } => Err(error),
            other => Err(AmcError::Protocol(format!(
                "coordinator sent a non-coordinator frame {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amc_core::{FederationConfig, ProtocolKind, TxnOutcome};
    use amc_types::{ObjectId, Operation, Value};
    use std::time::Duration;

    fn spawn_coord(slot: u32, coordinators: u32) -> (CoordServer, Arc<Federation>) {
        let cfg =
            FederationConfig::uniform(2, ProtocolKind::TwoPhaseCommit).sharded(slot, coordinators);
        let fed = Arc::new(Federation::new(cfg));
        let info = CoordInfo {
            slot,
            coordinators,
            epoch: 1,
            sites: vec![SiteId::new(1), SiteId::new(2)],
        };
        let srv = CoordServer::spawn(Arc::clone(&fed), info, "127.0.0.1:0").unwrap();
        (srv, fed)
    }

    #[test]
    fn serves_describe_and_exec_over_tcp() {
        let (srv, fed) = spawn_coord(2, 4);
        let obj = ObjectId::new(77);
        fed.load_site(SiteId::new(1), &[(obj, Value::counter(10))])
            .unwrap();

        let client = CoordClient::new(srv.addr(), RetryPolicy::default());
        client.ping().unwrap();
        let info = client.describe().unwrap();
        assert_eq!(info.slot, 2);
        assert_eq!(info.coordinators, 4);
        assert_eq!(info.sites, vec![SiteId::new(1), SiteId::new(2)]);

        let report = client
            .exec(BTreeMap::from([(
                SiteId::new(1),
                vec![Operation::Increment { obj, delta: 5 }],
            )]))
            .unwrap();
        assert_eq!(report.outcome, TxnOutcome::Committed);
        // The gtx landed in slot 2's id range.
        assert_eq!(amc_core::coord_slot_of(report.gtx), 2);
        srv.shutdown();
    }

    #[test]
    fn failed_transactions_come_back_as_aborted_not_poisoned() {
        let (srv, _fed) = spawn_coord(0, 1);
        let client = CoordClient::new(srv.addr(), RetryPolicy::default());
        // Incrementing a missing object makes the site vote no: the
        // commit protocol aborts globally and the reply says so.
        let report = client
            .exec(BTreeMap::from([(
                SiteId::new(1),
                vec![Operation::Increment {
                    obj: ObjectId::new(999),
                    delta: 1,
                }],
            )]))
            .unwrap();
        assert_eq!(report.outcome, TxnOutcome::Aborted);
        // The connection survives the abort.
        client.ping().unwrap();
        srv.shutdown();
    }
    /// A coordinator that never answers is dialed exactly `max_attempts`
    /// times, then reported down as the central system.
    #[test]
    fn unreachable_coordinator_is_down_after_bounded_attempts() {
        // Bound but never accepting: dials complete in the kernel's
        // backlog, requests go unanswered, and the backlog afterwards
        // holds one connection per dial.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let policy = RetryPolicy {
            connect_timeout: Duration::from_millis(200),
            request_timeout: Duration::from_millis(100),
            max_attempts: 3,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(2),
        };
        let client = CoordClient::new(listener.local_addr().unwrap(), policy);
        let err = client.ping().unwrap_err();
        assert!(matches!(err, AmcError::SiteDown(s) if s == SiteId::CENTRAL));
        listener.set_nonblocking(true).unwrap();
        let dials = std::iter::from_fn(|| listener.accept().ok()).count();
        assert_eq!(dials, 3);
    }
}
