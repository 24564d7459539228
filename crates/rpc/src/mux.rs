//! The multiplexed, pipelining link and its client.
//!
//! Where [`RpcClient`](crate::RpcClient) checks a whole connection out
//! of a pool per request — N concurrent requests need N sockets — a
//! [`MuxClient`] shares **one** connection among every caller. Each
//! request is tagged with a fresh id and written to the shared socket;
//! a dedicated reader thread decodes replies incrementally (through a
//! [`FrameBuffer`], so partial frames survive read-timeout ticks) and
//! completes whichever caller's id each reply names — in whatever order
//! the server finished them. That is the client half of pipelining: many
//! requests in flight on one stream, out-of-order completion, no
//! head-of-line coupling between callers.
//!
//! Only the connection strategy lives here (`MuxLink`); request ids,
//! retries, backoff, shed accounting and trace events are the shared
//! request core's ([`crate::client`]). A request that cannot be delivered
//! or answered inside the deadline is one failed attempt; a dead
//! connection fails *every* pending request, each of which the core
//! retries independently, and the next attempt redials.

use crate::client::{client_surface, Core, Endpoint, InFlight, InFlightConn, Link, RetryPolicy};
use crate::wire::{write_frame, Frame, FrameBuffer};
use amc_net::transport::{AdminReply, AdminRequest};
use amc_net::Payload;
use amc_obs::ObsSink;
use amc_types::{AmcResult, SiteId};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::io::Read as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often the reader thread's blocked read wakes to check for
/// shutdown.
const READ_TICK: Duration = Duration::from_millis(100);

/// One caller's parking spot: its own mutex + condvar, so completing a
/// reply wakes exactly that caller — never the whole herd of waiters.
pub(crate) struct Slot {
    reply: Mutex<Option<Frame>>,
    cv: Condvar,
}

impl Slot {
    fn new() -> Arc<Slot> {
        Arc::new(Slot {
            reply: Mutex::new(None),
            cv: Condvar::new(),
        })
    }
}

/// One live multiplexed connection: the shared write half, the pending
/// table the reader thread completes into, and the reader itself.
pub(crate) struct Channel {
    /// Writers serialize frame writes through this lock; a frame is
    /// written atomically, so interleaved callers never corrupt framing.
    writer: Mutex<TcpStream>,
    /// `req_id` → the caller waiting for that reply.
    pending: Mutex<HashMap<u64, Arc<Slot>>>,
    /// The reader saw EOF/garbage/reset: nothing further will complete.
    dead: AtomicBool,
    stop: AtomicBool,
}

impl Channel {
    /// Kill the channel and wake every waiter so they can fail fast.
    fn poison(&self) {
        self.dead.store(true, Ordering::SeqCst);
        for (_, slot) in self.pending.lock().drain() {
            // Lock-then-notify: the waiter either holds the slot lock
            // (and will observe `dead` on its next check) or is parked
            // in `wait_for` (and this wakes it).
            let _guard = slot.reply.lock();
            slot.cv.notify_one();
        }
    }
}

/// Reader thread: pump bytes into a [`FrameBuffer`], route each decoded
/// frame to its pending slot by request id.
fn reader_loop(mut stream: TcpStream, chan: Arc<Channel>) {
    if stream.set_read_timeout(Some(READ_TICK)).is_err() {
        chan.poison();
        return;
    }
    let mut buf = FrameBuffer::new();
    let mut chunk = [0u8; 64 * 1024];
    loop {
        if chan.stop.load(Ordering::SeqCst) {
            chan.poison();
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                chan.poison();
                return;
            }
            Ok(n) => buf.extend(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted =>
            {
                continue
            }
            Err(_) => {
                chan.poison();
                return;
            }
        }
        loop {
            match buf.next_frame() {
                Ok(Some(frame)) => {
                    // An id nobody waits for is a reply whose caller
                    // already timed out and withdrew: drop it.
                    let slot = chan.pending.lock().remove(&frame.req_id());
                    if let Some(slot) = slot {
                        // Notify while holding the slot lock so the
                        // caller cannot slip into `wait_for` between the
                        // fill and the wakeup.
                        let mut reply = slot.reply.lock();
                        *reply = Some(frame);
                        slot.cv.notify_one();
                    }
                }
                Ok(None) => break,
                Err(_) => {
                    chan.poison();
                    return;
                }
            }
        }
    }
}

/// The multiplexed link: one shared connection, lazily (re)dialed, with
/// a reader thread completing callers by request id.
#[derive(Default)]
pub(crate) struct MuxLink {
    /// The current channel. Dead channels are replaced on the next
    /// attempt.
    chan: Mutex<Option<Arc<Channel>>>,
    reader: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Link for MuxLink {
    /// Register a parking spot under the request's id, then write the
    /// frame to the shared connection (callers serialize on the write
    /// lock, one whole frame each).
    fn start(&self, ep: &Endpoint, frame: &Frame) -> Result<InFlight, ()> {
        let chan = self.channel(ep)?;
        let req_id = frame.req_id();
        let slot = Slot::new();
        chan.pending.lock().insert(req_id, Arc::clone(&slot));
        ep.sending(frame);
        let written = write_frame(&mut *chan.writer.lock(), frame);
        if written.is_err() {
            chan.pending.lock().remove(&req_id);
            self.discard(&chan);
            return Err(());
        }
        Ok(InFlight {
            req_id,
            conn: InFlightConn::Mux(chan, slot),
        })
    }

    /// A deadline that expires withdraws only this request: the
    /// connection and every other pending request stay healthy, and a
    /// late reply to this id is dropped by the reader. A dead channel
    /// fails every pending request, each of which retries independently.
    fn finish(&self, ep: &Endpoint, sent: InFlight) -> Result<Frame, ()> {
        let req_id = sent.req_id;
        let InFlightConn::Mux(chan, slot) = sent.conn else {
            unreachable!("a mux link finishes what a mux link started")
        };
        let mut deadline = Some(Instant::now() + ep.policy.request_timeout);
        let mut reply = slot.reply.lock();
        loop {
            if let Some(frame) = reply.take() {
                return Ok(frame);
            }
            if chan.dead.load(Ordering::SeqCst) {
                drop(reply);
                chan.pending.lock().remove(&req_id);
                self.discard(&chan);
                return Err(());
            }
            let wait = match deadline.map(|d| d.saturating_duration_since(Instant::now())) {
                Some(left) if left.is_zero() => {
                    drop(reply);
                    if chan.pending.lock().remove(&req_id).is_some() {
                        return Err(());
                    }
                    // The withdraw lost a race: this id is no longer
                    // pending because the reader (or poison) already
                    // claimed it. The reader fills the slot right after
                    // unpending, so the reply is ours — reporting a
                    // timeout here would discard an answer that arrived
                    // in time and retry a request the site already
                    // served. Keep waiting, deadline-free, for the fill
                    // (or for poison to mark the channel dead).
                    deadline = None;
                    reply = slot.reply.lock();
                    continue;
                }
                Some(left) => left,
                None => READ_TICK,
            };
            slot.cv.wait_for(&mut reply, wait);
        }
    }

    fn reset(&self) {
        if let Some(chan) = self.chan.lock().take() {
            chan.stop.store(true, Ordering::SeqCst);
            chan.poison();
        }
    }
}

impl MuxLink {
    /// The live channel, dialing a fresh one if there is none or the
    /// current one is dead.
    fn channel(&self, ep: &Endpoint) -> Result<Arc<Channel>, ()> {
        let mut current = self.chan.lock();
        if let Some(chan) = current.as_ref() {
            if !chan.dead.load(Ordering::SeqCst) {
                return Ok(Arc::clone(chan));
            }
        }
        // (Re)dial. Join the previous reader first so dead readers don't
        // pile up across reconnects.
        if let Some(h) = self.reader.lock().take() {
            let _ = h.join();
        }
        let stream = ep.dial()?;
        let read_half = stream.try_clone().map_err(|_| ())?;
        let chan = Arc::new(Channel {
            writer: Mutex::new(stream),
            pending: Mutex::new(HashMap::new()),
            dead: AtomicBool::new(false),
            stop: AtomicBool::new(false),
        });
        let reader_chan = Arc::clone(&chan);
        *self.reader.lock() = Some(std::thread::spawn(move || {
            reader_loop(read_half, reader_chan);
        }));
        *current = Some(Arc::clone(&chan));
        Ok(chan)
    }

    /// Drop `chan` if it is still the current channel (a racing caller
    /// may already have redialed).
    fn discard(&self, chan: &Arc<Channel>) {
        chan.poison();
        let mut current = self.chan.lock();
        if current.as_ref().is_some_and(|c| Arc::ptr_eq(c, chan)) {
            *current = None;
        }
    }
}

impl Drop for MuxLink {
    fn drop(&mut self) {
        self.reset();
        if let Some(h) = self.reader.lock().take() {
            let _ = h.join();
        }
    }
}

/// A multiplexed pipelining client for one site.
///
/// Cheap to clone-share via `Arc`; any number of threads may
/// [`MuxClient::call`] concurrently and their requests share one
/// connection.
pub struct MuxClient {
    core: Core<MuxLink>,
}

client_surface!(MuxClient, MuxLink);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::PooledLink;
    use amc_obs::EventKind;
    use amc_types::AmcError;
    use std::net::TcpListener;

    /// The timeout-withdraw vs reader-completion race, replayed by hand:
    /// the reader has already pulled the caller's id out of `pending`
    /// (so the withdraw at the deadline finds nothing) but the slot fill
    /// lands only after the deadline — exactly what happens when the
    /// reply's bytes arrive while the caller holds the slot lock for its
    /// final deadline check. The caller must claim the reply rather than
    /// report a timeout for a request the site answered.
    #[test]
    fn timed_out_caller_claims_a_reply_the_reader_already_unpended() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let policy = RetryPolicy {
            request_timeout: Duration::from_millis(50),
            max_attempts: 1,
            ..RetryPolicy::default()
        };
        let client = Arc::new(MuxClient::new(
            SiteId::new(1),
            addr,
            policy,
            ObsSink::disabled(),
        ));
        let caller = {
            let client = Arc::clone(&client);
            std::thread::spawn(move || client.admin(AdminRequest::Ping))
        };
        // Act as the server: accept and read the request, which proves
        // the caller's slot is registered (insert happens before write).
        let (mut conn, _) = listener.accept().unwrap();
        let frame = crate::wire::read_frame(&mut conn).unwrap();
        let req_id = frame.req_id();
        // The reader's winning interleaving: unpend before the caller's
        // deadline, fill only after it.
        let chan = client
            .core
            .link
            .chan
            .lock()
            .clone()
            .expect("channel dialed");
        let slot = chan
            .pending
            .lock()
            .remove(&req_id)
            .expect("caller is pending");
        std::thread::sleep(Duration::from_millis(120));
        {
            let mut reply = slot.reply.lock();
            *reply = Some(Frame::AdminReply {
                req_id,
                reply: AdminReply::Pong,
            });
            slot.cv.notify_one();
        }
        let got = caller.join().unwrap();
        assert_eq!(got.unwrap(), AdminReply::Pong);
    }

    /// Load-shed replies are retried away, but never invisibly — over
    /// either link: every `BufferExhausted` answer bumps the client's
    /// shed counter and lands in the observability log as a distinct
    /// `rpc-shed` event carrying the attempt it answered.
    #[test]
    fn shed_replies_are_counted_and_traced_even_when_the_retry_succeeds() {
        let links: [(&str, Box<dyn Link>); 2] = [
            ("pooled", Box::new(PooledLink::default())),
            ("mux", Box::new(MuxLink::default())),
        ];
        for (kind, link) in links {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let policy = RetryPolicy {
                request_timeout: Duration::from_millis(500),
                max_attempts: 3,
                backoff_base: Duration::from_millis(1),
                backoff_cap: Duration::from_millis(2),
                ..RetryPolicy::default()
            };
            let obs = ObsSink::enabled(64);
            let client = Arc::new(Core::new(SiteId::new(1), addr, policy, obs.clone(), link));
            // Once as a whole request, once split-phase as a message
            // round sends it: the first shed then answers an attempt that
            // was already on the wire when the retry loop was entered.
            let gtx = amc_types::GlobalTxnId::new(7);
            let caller = {
                let client = Arc::clone(&client);
                std::thread::spawn(move || {
                    let pong = client.admin(AdminRequest::Ping);
                    let payload = Payload::Prepare { gtx };
                    let first = client.start_call(&payload);
                    (pong, client.finish_call(payload, first))
                })
            };
            // Act as the server on one persistent connection: of each
            // request, shed the first two attempts and answer the third.
            let (mut conn, _) = listener.accept().unwrap();
            for attempt in 0..6 {
                let frame = crate::wire::read_frame(&mut conn).unwrap();
                let req_id = frame.req_id();
                let reply = match frame {
                    _ if attempt % 3 < 2 => Frame::ErrorReply {
                        req_id,
                        error: AmcError::BufferExhausted,
                    },
                    Frame::Request { .. } => Frame::Reply {
                        req_id,
                        payload: Payload::Finished { gtx },
                    },
                    _ => Frame::AdminReply {
                        req_id,
                        reply: AdminReply::Pong,
                    },
                };
                crate::wire::write_frame(&mut conn, &reply).unwrap();
            }
            let (pong, finished) = caller.join().unwrap();
            assert_eq!(pong.unwrap(), AdminReply::Pong, "{kind}");
            assert_eq!(finished.unwrap(), Payload::Finished { gtx }, "{kind}");
            assert_eq!(
                client.sheds(),
                4,
                "{kind}: every shed answer must be counted"
            );
            let shed_attempts: Vec<u32> = obs
                .snapshot()
                .events()
                .filter_map(|e| match e.kind {
                    EventKind::RpcShed { attempt, .. } => Some(attempt),
                    _ => None,
                })
                .collect();
            assert_eq!(
                shed_attempts,
                [1, 2, 1, 2],
                "{kind}: each shed must be traced as rpc-shed with its attempt"
            );
        }
    }
}
