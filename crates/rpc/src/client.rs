//! The request core every client shares, and the pooled link.
//!
//! One `Core` fronts one peer. Every request gets a fresh id, a
//! per-request deadline, and up to [`RetryPolicy::max_attempts`] tries
//! separated by capped, jittered exponential backoff. *How* one attempt
//! reaches the peer is the `Link`'s business — a connection checked out
//! of a pool per request (`PooledLink`, behind [`RpcClient`]) or one
//! shared multiplexed connection (`MuxLink`, behind
//! [`MuxClient`](crate::MuxClient)); everything else exists once, here.
//!
//! Any transport failure — connect refused, write failed, deadline
//! expired, reply garbled, id mismatch — discards the connection (the
//! next attempt dials a fresh one) and counts one attempt. A load-shed
//! (`BufferExhausted`) is retried with the same backoff. Every other
//! application error carried in an `ErrorReply` frame is NOT retried:
//! the peer answered; the answer is an error.
//!
//! Retrying protocol messages is safe by construction: every manager
//! handler is idempotent (work map, tombstones, durable markers), which
//! is exactly the property the paper's inquiry/repetition machinery
//! already depends on.

use crate::mux::{Channel, Slot};
use crate::wire::{read_frame, write_frame, Frame};
use amc_net::transport::{AdminReply, AdminRequest};
use amc_net::Payload;
use amc_obs::{EventKind, ObsSink};
use amc_types::{AmcError, AmcResult, GlobalTxnId, SiteId};
use parking_lot::Mutex;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Deadlines and retry shape for one client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Deadline for establishing a connection.
    pub connect_timeout: Duration,
    /// Per-request deadline (applies to the write and to the reply read).
    pub request_timeout: Duration,
    /// Total attempts before the site is declared down.
    pub max_attempts: u32,
    /// Backoff before the 2nd attempt; doubles per attempt.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            connect_timeout: Duration::from_millis(500),
            request_timeout: Duration::from_secs(2),
            max_attempts: 10,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(200),
        }
    }
}

impl RetryPolicy {
    /// The backoff *envelope* after failed attempt number `attempt`
    /// (1-based): base · 2^(attempt−1), capped. The client sleeps a
    /// jittered value inside `[envelope/2, envelope]` (equal jitter) so
    /// that the many clients a coordinator runs — one per site — do not
    /// re-dial a recovering site in lockstep after a shared outage.
    pub(crate) fn backoff_after(&self, attempt: u32) -> Duration {
        let exp = attempt.saturating_sub(1).min(16);
        self.backoff_base
            .saturating_mul(1u32 << exp)
            .min(self.backoff_cap)
    }

    /// Apply equal jitter to an envelope: uniform in `[d/2, d]`, driven
    /// by `r` (any uniformly distributed word).
    pub(crate) fn jittered(d: Duration, r: u64) -> Duration {
        let nanos = d.as_nanos() as u64;
        let half = nanos / 2;
        if half == 0 {
            return d;
        }
        Duration::from_nanos(half + r % (nanos - half + 1))
    }
}

/// What a [`Link`] needs from its client to run one attempt: where to
/// dial, how long to wait, and where to report what it does.
pub(crate) struct Endpoint {
    site: SiteId,
    addr: SocketAddr,
    pub(crate) policy: RetryPolicy,
    ever_connected: AtomicBool,
    obs: ObsSink,
}

impl Endpoint {
    /// Dial a fresh connection; every dial after the first is a
    /// reconnect and is traced as one.
    pub(crate) fn dial(&self) -> Result<TcpStream, ()> {
        let conn =
            TcpStream::connect_timeout(&self.addr, self.policy.connect_timeout).map_err(|_| ())?;
        let _ = conn.set_nodelay(true);
        if self.ever_connected.swap(true, Ordering::Relaxed) {
            self.obs.emit(
                None,
                SiteId::CENTRAL,
                EventKind::RpcReconnect { to: self.site },
            );
        }
        Ok(conn)
    }

    /// Trace `frame` leaving for the site. Links call this once they
    /// hold a connection, just before the write: an attempt that never
    /// got a connection sent nothing.
    pub(crate) fn sending(&self, frame: &Frame) {
        if let Frame::Request { payload, .. } = frame {
            self.obs.emit(
                Some(payload.gtx()),
                SiteId::CENTRAL,
                EventKind::MsgSend {
                    label: payload.label(),
                    from: SiteId::CENTRAL,
                    to: self.site,
                },
            );
        }
    }
}

/// One request on the wire: what [`Link::start`] leaves for
/// [`Link::finish`] — the request id to wait for and the connection it
/// went out on.
pub(crate) struct InFlight {
    pub(crate) req_id: u64,
    pub(crate) conn: InFlightConn,
}

/// Where a request is in flight, per link kind.
pub(crate) enum InFlightConn {
    /// The connection checked out of a [`PooledLink`] for this request.
    Pooled(TcpStream),
    /// The shared channel of a `MuxLink` and this request's parking spot.
    Mux(Arc<Channel>, Arc<Slot>),
}

/// A connection strategy: the one thing [`RpcClient`] and
/// [`MuxClient`](crate::MuxClient) differ in.
///
/// An attempt is split in two so that a caller can put several requests
/// on the wire — to different peers, or to one — before it waits for
/// any reply. Any thread may `start` at any time; every `InFlight` must
/// be handed to `finish` on the link that produced it. `Err` from either
/// half is a transport failure — nothing trustworthy came back and the
/// connection it happened on is not reused.
pub(crate) trait Link: Send + Sync {
    /// First half of an attempt: obtain a connection and write `frame`.
    fn start(&self, ep: &Endpoint, frame: &Frame) -> Result<InFlight, ()>;

    /// Second half: wait, for at most `ep.policy.request_timeout` from
    /// now, for the reply carrying the request's id.
    fn finish(&self, ep: &Endpoint, sent: InFlight) -> Result<Frame, ()>;

    /// One whole attempt.
    fn attempt(&self, ep: &Endpoint, frame: &Frame) -> Result<Frame, ()> {
        self.finish(ep, self.start(ep, frame)?)
    }
}

impl Link for Box<dyn Link> {
    fn start(&self, ep: &Endpoint, frame: &Frame) -> Result<InFlight, ()> {
        (**self).start(ep, frame)
    }
    fn finish(&self, ep: &Endpoint, sent: InFlight) -> Result<Frame, ()> {
        (**self).finish(ep, sent)
    }
}

/// The request core every client shares: request ids, the
/// attempt/backoff/jitter loop, shed accounting, trace events and reply
/// matching. Parameterised only by how one attempt reaches the peer.
pub(crate) struct Core<L> {
    pub(crate) ep: Endpoint,
    next_req: AtomicU64,
    /// SplitMix64 state for backoff jitter (seeded per peer, so two
    /// clients retrying the same outage desynchronise).
    jitter_state: AtomicU64,
    /// Requests the peer answered with a load-shed (`BufferExhausted`).
    sheds: AtomicU64,
    pub(crate) link: L,
}

impl<L: Link> Core<L> {
    pub(crate) fn new(
        site: SiteId,
        addr: SocketAddr,
        policy: RetryPolicy,
        obs: ObsSink,
        link: L,
    ) -> Self {
        Core {
            ep: Endpoint {
                site,
                addr,
                policy,
                ever_connected: AtomicBool::new(false),
                obs,
            },
            next_req: AtomicU64::new(1),
            jitter_state: AtomicU64::new(
                0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(site.raw()) + 1),
            ),
            sheds: AtomicU64::new(0),
            link,
        }
    }

    pub(crate) fn sheds(&self) -> u64 {
        self.sheds.load(Ordering::Relaxed)
    }

    /// Next jitter word (SplitMix64).
    fn jitter_word(&self) -> u64 {
        let x = self
            .jitter_state
            .fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed)
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        amc_types::splitmix64(x)
    }

    /// Send the frame `make_frame` builds (a fresh request id per
    /// attempt) until the peer answers, for at most `max_attempts`
    /// tries separated by jittered backoff. `gtx` attributes the
    /// retry/shed events to the transaction being retried for.
    ///
    /// `first` is attempt 1 when the caller already put it on the wire
    /// (see [`Core::start_call`]): the loop then begins by waiting for
    /// it, so a send that fails or is shed inside a round is retried,
    /// counted and traced exactly like one that was never split.
    ///
    /// Two things are retried. A transport failure discards the
    /// connection and ends as `SiteDown`. A load-shed
    /// (`BufferExhausted`) is an answer, not a failure — but backing off
    /// and asking again beats bubbling an overload spike up as an abort;
    /// every shed is counted and traced distinctly from a transport
    /// retry so backpressure stays observable. Any other `ErrorReply` is
    /// the peer's answer and is returned as is.
    pub(crate) fn request(
        &self,
        gtx: Option<GlobalTxnId>,
        max_attempts: u32,
        make_frame: impl Fn(u64) -> Frame,
        mut first: Option<Result<InFlight, ()>>,
    ) -> AmcResult<Frame> {
        let to = self.ep.site;
        for attempt in 1..=max_attempts {
            let last = attempt == max_attempts;
            let outcome = match first.take() {
                Some(sent) => sent.and_then(|sent| self.link.finish(&self.ep, sent)),
                None => self.link.attempt(&self.ep, &make_frame(self.next_req_id())),
            };
            let failure = match outcome {
                Ok(Frame::ErrorReply {
                    error: AmcError::BufferExhausted,
                    ..
                }) => {
                    self.sheds.fetch_add(1, Ordering::Relaxed);
                    let shed = EventKind::RpcShed { to, attempt };
                    self.ep.obs.emit(gtx, SiteId::CENTRAL, shed);
                    AmcError::BufferExhausted
                }
                Ok(reply) => return Ok(reply),
                Err(()) => {
                    if !last {
                        let retry = EventKind::RpcRetry { to, attempt };
                        self.ep.obs.emit(gtx, SiteId::CENTRAL, retry);
                    }
                    AmcError::SiteDown(to)
                }
            };
            if last {
                return Err(failure);
            }
            std::thread::sleep(RetryPolicy::jittered(
                self.ep.policy.backoff_after(attempt),
                self.jitter_word(),
            ));
        }
        Err(AmcError::SiteDown(to))
    }

    fn next_req_id(&self) -> u64 {
        self.next_req.fetch_add(1, Ordering::Relaxed)
    }

    /// Send one protocol message and wait for the site's reply.
    pub(crate) fn call(&self, payload: Payload) -> AmcResult<Payload> {
        let first = self.start_call(&payload);
        self.finish_call(payload, first)
    }

    /// Put the first attempt of a [`Core::call`] on the wire without
    /// waiting for its reply; [`Core::finish_call`] takes it from there.
    pub(crate) fn start_call(&self, payload: &Payload) -> Result<InFlight, ()> {
        let frame = Frame::Request {
            req_id: self.next_req_id(),
            payload: payload.clone(),
        };
        self.link.start(&self.ep, &frame)
    }

    /// Wait for the reply to a started call, retrying like any other
    /// request if the first attempt did not get one.
    pub(crate) fn finish_call(
        &self,
        payload: Payload,
        first: Result<InFlight, ()>,
    ) -> AmcResult<Payload> {
        let gtx = payload.gtx();
        let make_frame = |req_id| Frame::Request {
            req_id,
            payload: payload.clone(),
        };
        let max_attempts = self.ep.policy.max_attempts;
        match self.request(Some(gtx), max_attempts, make_frame, Some(first))? {
            Frame::Reply { payload, .. } => {
                self.ep.obs.emit(
                    Some(gtx),
                    SiteId::CENTRAL,
                    EventKind::MsgDeliver {
                        label: payload.label(),
                        from: self.ep.site,
                    },
                );
                Ok(payload)
            }
            Frame::ErrorReply { error, .. } => Err(error),
            other => Err(AmcError::Protocol(format!(
                "site answered {} with a non-protocol frame {other:?}",
                payload.label()
            ))),
        }
    }

    /// Send one admin request and wait for the site's reply.
    pub(crate) fn admin(&self, req: AdminRequest) -> AmcResult<AdminReply> {
        let make_frame = |req_id| Frame::AdminRequest {
            req_id,
            req: req.clone(),
        };
        match self.request(None, self.ep.policy.max_attempts, make_frame, None)? {
            Frame::AdminReply { reply, .. } => Ok(reply),
            Frame::ErrorReply { error, .. } => Err(error),
            other => Err(AmcError::Protocol(format!(
                "site answered admin with a non-admin frame {other:?}"
            ))),
        }
    }
}

/// The client surface [`RpcClient`] and [`MuxClient`](crate::MuxClient)
/// share, forwarded to the one [`Core`].
macro_rules! client_surface {
    ($client:ident, $link:ty) => {
        impl $client {
            /// A client for `site` at `addr`. No connection is made until
            /// the first call.
            pub fn new(site: SiteId, addr: SocketAddr, policy: RetryPolicy, obs: ObsSink) -> Self {
                $client {
                    core: Core::new(site, addr, policy, obs, <$link>::default()),
                }
            }

            /// How many requests the site answered with a load-shed
            /// (`BufferExhausted`) since this client was created —
            /// retried and terminal sheds both count.
            pub fn sheds(&self) -> u64 {
                self.core.sheds()
            }

            /// Send one protocol message and wait for the site's reply.
            pub fn call(&self, payload: Payload) -> AmcResult<Payload> {
                self.core.call(payload)
            }

            /// Send one admin request and wait for the site's reply.
            pub fn admin(&self, req: AdminRequest) -> AmcResult<AdminReply> {
                self.core.admin(req)
            }
        }
    };
}
pub(crate) use client_surface;

/// The pooled link: every in-flight request checks a whole connection
/// out (dialing when the pool is empty), so N concurrent requests use N
/// sockets. A failed attempt drops its connection instead of returning
/// it.
#[derive(Default)]
pub(crate) struct PooledLink {
    idle: Mutex<Vec<TcpStream>>,
}

impl Link for PooledLink {
    fn start(&self, ep: &Endpoint, frame: &Frame) -> Result<InFlight, ()> {
        let pooled = self.idle.lock().pop();
        let mut conn = match pooled {
            Some(c) => c,
            None => {
                // The deadlines are the endpoint's, fixed for its life:
                // set once per connection, not once per request.
                let c = ep.dial()?;
                c.set_read_timeout(Some(ep.policy.request_timeout))
                    .map_err(|_| ())?;
                c.set_write_timeout(Some(ep.policy.request_timeout))
                    .map_err(|_| ())?;
                c
            }
        };
        ep.sending(frame);
        write_frame(&mut conn, frame).map_err(|_| ())?;
        Ok(InFlight {
            req_id: frame.req_id(),
            conn: InFlightConn::Pooled(conn),
        })
    }

    fn finish(&self, _ep: &Endpoint, sent: InFlight) -> Result<Frame, ()> {
        let InFlightConn::Pooled(mut conn) = sent.conn else {
            unreachable!("a pooled link finishes what a pooled link started")
        };
        let reply = read_frame(&mut conn).map_err(|_| ())?;
        if reply.req_id() != sent.req_id {
            // A stale reply can only come from a connection we should
            // have discarded; never trust it.
            return Err(());
        }
        self.idle.lock().push(conn);
        Ok(reply)
    }
}

/// A client for one site over pooled blocking connections.
///
/// Round-trip against a real [`SiteServer`](crate::SiteServer) on an
/// ephemeral loopback port:
///
/// ```
/// use amc_core::{FederationConfig, ProtocolKind};
/// use amc_net::{AdminReply, AdminRequest, SubmitMode};
/// use amc_obs::ObsSink;
/// use amc_rpc::{RetryPolicy, RpcClient, SiteServer};
/// use amc_types::SiteId;
/// use std::sync::Arc;
///
/// let sites = FederationConfig::uniform(1, ProtocolKind::CommitBefore).open_sites();
/// let (site, manager) = (SiteId::new(1), Arc::clone(sites[0].manager()));
/// let server = SiteServer::spawn(
///     site, manager, SubmitMode::CommitBefore, "127.0.0.1:0", ObsSink::disabled(),
/// )?;
///
/// let client = RpcClient::new(site, server.addr(), RetryPolicy::default(), ObsSink::disabled());
/// assert!(matches!(client.admin(AdminRequest::Ping)?, AdminReply::Pong));
/// server.shutdown();
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct RpcClient {
    core: Core<PooledLink>,
}

client_surface!(RpcClient, PooledLink);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(100),
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff_after(1), Duration::from_millis(10));
        assert_eq!(p.backoff_after(2), Duration::from_millis(20));
        assert_eq!(p.backoff_after(3), Duration::from_millis(40));
        assert_eq!(p.backoff_after(4), Duration::from_millis(80));
        assert_eq!(p.backoff_after(5), Duration::from_millis(100));
        assert_eq!(p.backoff_after(30), Duration::from_millis(100));
    }

    #[test]
    fn jitter_stays_in_the_equal_jitter_band() {
        let d = Duration::from_millis(100);
        for r in [0u64, 1, 49, 50, 51, 99, u64::MAX, 0xDEAD_BEEF] {
            let j = RetryPolicy::jittered(d, r);
            assert!(j >= d / 2 && j <= d, "{j:?} outside [{:?}, {d:?}]", d / 2);
        }
        // Degenerate envelopes pass through unchanged.
        assert_eq!(RetryPolicy::jittered(Duration::ZERO, 7), Duration::ZERO);
        assert_eq!(
            RetryPolicy::jittered(Duration::from_nanos(1), 7),
            Duration::from_nanos(1)
        );
    }

    #[test]
    fn jitter_words_differ_across_draws_and_clients() {
        let addr = "127.0.0.1:1".parse().unwrap();
        let a = RpcClient::new(
            SiteId::new(1),
            addr,
            RetryPolicy::default(),
            ObsSink::disabled(),
        );
        let b = RpcClient::new(
            SiteId::new(2),
            addr,
            RetryPolicy::default(),
            ObsSink::disabled(),
        );
        assert_ne!(a.core.jitter_word(), a.core.jitter_word());
        assert_ne!(a.core.jitter_word(), b.core.jitter_word());
    }

    #[test]
    fn unreachable_site_is_down_after_bounded_attempts() {
        // A port nothing listens on: every attempt fails to connect, and
        // the client gives up with SiteDown after max_attempts.
        let policy = RetryPolicy {
            connect_timeout: Duration::from_millis(50),
            request_timeout: Duration::from_millis(50),
            max_attempts: 3,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(2),
        };
        // Bind-then-drop to get a port that is closed right now.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let client = RpcClient::new(SiteId::new(1), addr, policy, ObsSink::disabled());
        let err = client
            .call(Payload::Prepare {
                gtx: amc_types::GlobalTxnId::new(1),
            })
            .unwrap_err();
        assert!(matches!(err, AmcError::SiteDown(s) if s == SiteId::new(1)));
    }
}
