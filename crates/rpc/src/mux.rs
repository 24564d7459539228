//! The multiplexed, pipelining link and its client.
//!
//! No deployment dials with it: `amc-loadgen` and the fleet use the pooled
//! [`RpcClient`](crate::RpcClient), which measured faster. It stays as the
//! client half of the benchmark's `tcp-mux` workload.
//!
//! Where [`RpcClient`](crate::RpcClient) checks a whole connection out
//! of a pool per request — N concurrent requests need N sockets — a
//! [`MuxClient`] shares **one** connection among every caller. Each
//! request is tagged with a fresh id and written to the shared socket,
//! and the callers read the replies themselves: a waiting caller that
//! finds nobody reading claims the read half, decodes replies
//! incrementally (through a [`FrameBuffer`], so partial frames survive
//! read timeouts and a change of reader) and completes whichever
//! caller's id each reply names — in whatever order the server finished
//! them — until its own reply is in. When it leaves it wakes the callers
//! still waiting, and one of them takes over reading. That is the client
//! half of pipelining: many requests in flight on one stream,
//! out-of-order completion, no head-of-line coupling between callers,
//! and no thread between the socket and the caller.
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
use std::io::{ErrorKind, Read as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The longest one blocking read (or one park) lasts before its caller
/// looks at its slot and the channel again.
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

/// The read side of a channel: the socket and what has been read off it
/// but not yet decoded.
struct ReadHalf {
    stream: TcpStream,
    buf: FrameBuffer,
    /// The read timeout currently set on `stream`.
    timeout: Option<Duration>,
}

/// One live multiplexed connection: the shared write half, the read half
/// whichever caller claims it reads for everyone, and the pending table
/// that reader completes into.
pub(crate) struct Channel {
    /// Writers serialize frame writes through this lock; a frame is
    /// written atomically, so interleaved callers never corrupt framing.
    writer: Mutex<TcpStream>,
    reader: Mutex<ReadHalf>,
    /// A caller holds `reader`. Claimed by swap before the lock is taken
    /// and cleared after it is released, so a waiting caller can tell
    /// whether anyone will read for it.
    reading: AtomicBool,
    /// `req_id` → the caller waiting for that reply.
    pending: Mutex<HashMap<u64, Arc<Slot>>>,
    /// A read hit EOF/garbage/reset or a write failed: nothing further
    /// will complete.
    dead: AtomicBool,
}

impl Channel {
    /// Kill the channel and wake every waiter so they can fail fast.
    fn poison(&self) {
        self.dead.store(true, Ordering::SeqCst);
        self.wake(self.pending.lock().drain().map(|(_, slot)| slot));
    }

    /// Wake each of `slots`. Lock-then-notify: the waiter either holds
    /// the slot lock (and will see what changed on its next check) or is
    /// parked in `wait_for` (and this wakes it).
    fn wake(&self, slots: impl Iterator<Item = Arc<Slot>>) {
        for slot in slots {
            let _guard = slot.reply.lock();
            slot.cv.notify_one();
        }
    }

    /// Read for every caller until `mine` holds a reply, `deadline`
    /// passes or the channel dies.
    fn read_for(&self, half: &mut ReadHalf, mine: &Arc<Slot>, deadline: Instant) {
        let mut chunk = [0u8; 16 * 1024];
        while mine.reply.lock().is_none() && !self.dead.load(Ordering::SeqCst) {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return;
            }
            // Never block past the deadline — and never ask for a zero
            // timeout, which the socket refuses.
            let timeout = Some(left.min(READ_TICK));
            if half.timeout != timeout {
                if half.stream.set_read_timeout(timeout).is_err() {
                    return self.poison();
                }
                half.timeout = timeout;
            }
            match (&half.stream).read(&mut chunk) {
                Ok(0) => return self.poison(),
                Ok(n) => half.buf.extend(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) =>
                {
                    continue
                }
                Err(_) => return self.poison(),
            }
            loop {
                match half.buf.next_frame() {
                    Ok(Some(frame)) => self.complete(frame, mine),
                    Ok(None) => break,
                    Err(_) => return self.poison(),
                }
            }
        }
    }

    /// Fill the slot of the caller `frame` answers. An id nobody waits
    /// for is a reply whose caller already timed out and withdrew: drop
    /// it.
    fn complete(&self, frame: Frame, mine: &Arc<Slot>) {
        let Some(slot) = self.pending.lock().remove(&frame.req_id()) else {
            return;
        };
        // Notify while holding the slot lock so the caller cannot slip
        // into `wait_for` between the fill and the wakeup. The reader's
        // own slot has nobody parked on it.
        let mut reply = slot.reply.lock();
        *reply = Some(frame);
        if !Arc::ptr_eq(&slot, mine) {
            slot.cv.notify_one();
        }
    }
}

/// The multiplexed link: one shared connection, lazily (re)dialed, read
/// by its waiting callers.
#[derive(Default)]
pub(crate) struct MuxLink {
    /// The current channel. Dead channels are replaced on the next
    /// attempt.
    chan: Mutex<Option<Arc<Channel>>>,
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

    /// Wait for the reply — reading it off the socket when nobody else
    /// is. A deadline that expires withdraws only this request: the
    /// connection and every other pending request stay healthy, and a
    /// late reply to this id is dropped by whoever reads it. A dead
    /// channel fails every pending request, each of which retries
    /// independently.
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
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if left == Some(Duration::ZERO) {
                drop(reply);
                if chan.pending.lock().remove(&req_id).is_some() {
                    return Err(());
                }
                // The withdraw lost a race: this id is no longer
                // pending because a reader (or poison) already claimed
                // it. The reader fills the slot right after unpending,
                // so the reply is ours — reporting a timeout here would
                // discard an answer that arrived in time and retry a
                // request the site already served. Keep waiting,
                // deadline-free, for the fill (or for poison to mark
                // the channel dead).
                deadline = None;
                reply = slot.reply.lock();
                continue;
            }
            // Nobody is reading (checked under the slot lock, so a
            // reader leaving after this check wakes the park below):
            // read for everyone until this reply is in, then hand the
            // read half on to whoever still waits.
            if let (Some(deadline), false) = (deadline, chan.reading.load(Ordering::SeqCst)) {
                drop(reply);
                if !chan.reading.swap(true, Ordering::SeqCst) {
                    chan.read_for(&mut chan.reader.lock(), &slot, deadline);
                    chan.reading.store(false, Ordering::SeqCst);
                    chan.wake(chan.pending.lock().values().cloned());
                }
                reply = slot.reply.lock();
                continue;
            }
            slot.cv
                .wait_for(&mut reply, left.unwrap_or(READ_TICK).min(READ_TICK));
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
        let stream = ep.dial()?;
        let read_half = stream.try_clone().map_err(|_| ())?;
        let chan = Arc::new(Channel {
            writer: Mutex::new(stream),
            reader: Mutex::new(ReadHalf {
                stream: read_half,
                buf: FrameBuffer::new(),
                timeout: None,
            }),
            reading: AtomicBool::new(false),
            pending: Mutex::new(HashMap::new()),
            dead: AtomicBool::new(false),
        });
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
