//! The event-loop site-server runtime.
//!
//! No deployment serves on it: the fleet and `amc-site-server` run the
//! thread-per-connection [`SiteServer`](crate::SiteServer), which measured
//! faster for every protocol. It stays as the subject the benchmark's
//! `tcp-mux` workload prices against that server.
//!
//! A fixed set of symmetric threads waits on one epoll instance; whichever
//! thread is told a socket is readable reads it and serves what it read.
//! There is no loop thread and no hand-off to a worker on the common path:
//!
//! - **One-shot readiness.** The listener, the waker and every connection
//!   are armed `EPOLLONESHOT`, so each readiness report goes to exactly
//!   one thread and the fd stays silent until that thread re-arms it.
//!   Nothing else serialises the threads.
//! - **Reads** are nonblocking and incremental. Bytes land in the
//!   connection's [`FrameBuffer`]; a frame that arrives in ten pieces is
//!   ten cheap appends and one decode. There is no `read_exact`
//!   anywhere, so there is no way for a timeout to eat half a frame.
//! - **The reader serves.** After the read the thread re-arms the
//!   connection and runs the first decoded request itself. Requests
//!   behind it in the same read go to a shared queue, and the `eventfd`
//!   waker rouses a polling thread for them; threads also drain the
//!   queue on their way back to waiting. A request that blocks (a WAL
//!   fsync, a lock wait) stalls one thread, and concurrent threads
//!   hitting the WAL together are exactly what
//!   [`amc_wal::GroupCommitter`] needs to merge their fsyncs.
//! - **The last poller only reads.** A thread serves a request only
//!   while another thread is polling. When every other thread is wedged
//!   the last poller queues work instead of running it, so the server
//!   always keeps reading, shedding and accepting.
//! - **Writes** are made by whoever has the reply: it is written to the
//!   non-blocking socket directly. Only what the socket would not take
//!   (or a reply finishing behind queued output) lands in the
//!   connection's write buffer, and the connection is re-armed for
//!   writing there and then. A slow reader causes buffering, never a
//!   blocked thread.
//! - **Backpressure** is per connection and explicit. At most
//!   [`MAX_IN_FLIGHT_PER_CONN`] requests may be dispatched concurrently
//!   per connection; excess requests are not queued but *shed* with an
//!   [`ErrorReply`](Frame::ErrorReply) carrying
//!   [`AmcError::BufferExhausted`], so an overloaded server stays
//!   responsive and the client learns immediately instead of timing out.
//!
//! Replies are written in completion order, not arrival order: the
//! request id — echoed verbatim in every reply — is what lets a
//! pipelining client match them up again.

use crate::server::{bind_with_retry, site_handler, Handler};
use crate::wire::{encode_frame, Frame, FrameBuffer};
use amc_epoll::{Event, Interest, Poller, Waker};
use amc_net::{LocalCommManager, SubmitMode};
use amc_obs::ObsSink;
use amc_types::{AmcError, SiteId};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Max requests dispatched concurrently per connection before load
/// shedding kicks in. Small on purpose: a well-behaved pipelining client
/// keeps fewer in flight, and anything past this bound is better
/// answered "overloaded" now than queued towards a timeout.
pub const MAX_IN_FLIGHT_PER_CONN: usize = 64;

/// Cap on bytes buffered as un-flushed replies for one connection. A
/// peer that keeps sending requests while never reading replies piles
/// output up here; past this bound the connection is closed (its
/// unread replies are dropped with it) rather than letting one stalled
/// reader grow the server's memory without limit. Honest clients never
/// get near it: [`MAX_IN_FLIGHT_PER_CONN`] bounds outstanding real
/// replies, and shed replies only accumulate while the peer floods
/// without reading — exactly the behaviour this cap punishes.
pub(crate) const MAX_WBUF_BYTES: usize = 256 * 1024;

/// Epoll tokens 0/1 are the listener and the waker; connections start
/// above them.
const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const TOKEN_FIRST_CONN: u64 = 2;

/// How long one epoll wait sleeps before re-checking the stop flag.
/// Shutdown does not wait it out: the waker is passed from thread to
/// thread instead.
const WAIT_TICK: Duration = Duration::from_millis(100);

/// How the listener, the waker and a connection awaiting requests are armed.
const READ_ONESHOT: Interest = Interest {
    oneshot: true,
    ..Interest::READ
};

/// Counters the server maintains; cheap enough to read any time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventServerStats {
    /// Connections currently registered with the poller.
    pub current_connections: u64,
    /// High-water mark of concurrently registered connections.
    pub peak_connections: u64,
    /// Requests answered with a load-shed `ErrorReply` instead of being
    /// dispatched.
    pub load_sheds: u64,
    /// Requests dispatched to the handler.
    pub dispatched: u64,
    /// Connections closed because a stalled reader let its write buffer
    /// exceed `MAX_WBUF_BYTES`.
    pub wbuf_overflows: u64,
}

#[derive(Default)]
struct SharedStats {
    peak: AtomicU64,
    load_sheds: AtomicU64,
    dispatched: AtomicU64,
    wbuf_overflows: AtomicU64,
}

/// A dispatched request: which connection asked, and what it asked.
struct Job {
    conn: Arc<Peer>,
    frame: Frame,
}

/// One connection: the socket, its read side and its output side.
/// Whoever holds `out` may write to the socket, so frames never
/// interleave.
struct Peer {
    token: u64,
    stream: TcpStream,
    /// Bytes read but not yet decoded. Only the thread holding the
    /// connection's one-shot report reads, so this lock is uncontended
    /// unless a reply re-armed the connection mid-read.
    rbuf: Mutex<FrameBuffer>,
    out: Mutex<Outbox>,
}

#[derive(Default)]
struct Outbox {
    /// Output the socket would not take yet; `wpos` is how much of it
    /// has already been written. Empty on the fast path: a reply goes
    /// straight from the thread that made it to the socket.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Requests dispatched for this connection and not yet answered.
    in_flight: usize,
    /// Reads hit EOF; the connection closes as soon as the write buffer
    /// drains and the in-flight count is zero.
    eof: bool,
    /// No further output is accepted: a write failed, the backlog passed
    /// [`MAX_WBUF_BYTES`], or the server is shutting down. A reply that
    /// completes after this is discarded.
    dead: bool,
    /// The connection has been deregistered and shut down.
    closed: bool,
}

impl Outbox {
    fn pending(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Queue `bytes` behind whatever is already waiting — or, when
    /// nothing is, write them to the socket directly and queue only
    /// what it would not take. Marks the outbox dead on a failed write
    /// or a backlog past [`MAX_WBUF_BYTES`] (the peer has stopped
    /// reading; close rather than buffer without bound).
    fn send(&mut self, stream: &TcpStream, bytes: &[u8], stats: &SharedStats) {
        if self.pending() > 0 {
            self.wbuf.extend_from_slice(bytes);
        } else {
            match write_some(stream, bytes) {
                Ok(n) => self.wbuf.extend_from_slice(&bytes[n..]),
                Err(_) => self.dead = true,
            }
        }
        // Give the socket one chance to take the backlog, then close.
        if self.pending() > MAX_WBUF_BYTES {
            self.flush(stream);
            if !self.dead && self.pending() > MAX_WBUF_BYTES {
                stats.wbuf_overflows.fetch_add(1, Ordering::Relaxed);
                self.dead = true;
            }
        }
    }

    /// Write as much queued output as the socket takes right now.
    fn flush(&mut self, stream: &TcpStream) {
        match write_some(stream, &self.wbuf[self.wpos..]) {
            Ok(n) => self.wpos += n,
            Err(_) => self.dead = true,
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        } else if self.wpos > 64 * 1024 {
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
    }
}

/// Write `bytes` to a non-blocking socket until it would block; returns
/// how many it took.
fn write_some(mut stream: &TcpStream, bytes: &[u8]) -> io::Result<usize> {
    let mut done = 0;
    while done < bytes.len() {
        match stream.write(&bytes[done..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => done += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(done)
}

/// Everything the server's threads share.
struct Server {
    poller: Poller,
    listener: TcpListener,
    waker: Waker,
    handler: Handler,
    /// Live connections by epoll token.
    conns: Mutex<HashMap<u64, Arc<Peer>>>,
    next_token: AtomicU64,
    /// Requests decoded behind the one their reader serves itself.
    queue: Mutex<VecDeque<Job>>,
    /// Threads currently waiting in the poller.
    polling: AtomicUsize,
    stop: AtomicBool,
    stats: SharedStats,
}

/// A running event-loop site server. Same spawn surface and wire
/// vocabulary as [`SiteServer`](crate::SiteServer), acceptor included,
/// different concurrency model.
pub struct EventServer {
    site: SiteId,
    addr: SocketAddr,
    server: Arc<Server>,
    threads: Vec<JoinHandle<()>>,
}

impl EventServer {
    /// Bind `listen` and serve `manager` on the event-loop runtime.
    pub fn spawn(
        site: SiteId,
        manager: Arc<LocalCommManager>,
        mode: SubmitMode,
        listen: &str,
        obs: ObsSink,
    ) -> io::Result<EventServer> {
        let listener = bind_with_retry(listen)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let poller = Poller::new()?;
        let waker = Waker::new()?;
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, READ_ONESHOT)?;
        poller.register(waker.fd(), TOKEN_WAKER, READ_ONESHOT)?;
        let server = Arc::new(Server {
            poller,
            listener,
            waker,
            handler: site_handler(site, manager, mode, obs),
            conns: Mutex::new(HashMap::new()),
            next_token: AtomicU64::new(TOKEN_FIRST_CONN),
            queue: Mutex::new(VecDeque::new()),
            polling: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            stats: SharedStats::default(),
        });

        // Threads spend most of their life *waiting* — on locks, on the
        // group committer's fsync — not computing, so there are well
        // more than cores: enough that a burst of wedged requests (every
        // thread parked on the same hot lock) still leaves hands free for
        // the requests behind it, few enough that hundreds of connections
        // don't mean hundreds of threads.
        let n_threads = (2 * std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4))
        .clamp(16, 32);
        let threads = (0..n_threads)
            .map(|_| {
                let server = Arc::clone(&server);
                std::thread::spawn(move || server.run())
            })
            .collect();
        Ok(EventServer {
            site,
            addr,
            server,
            threads,
        })
    }

    /// The site this server fronts.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// The address the server actually listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current counters.
    pub fn stats(&self) -> EventServerStats {
        let stats = &self.server.stats;
        EventServerStats {
            current_connections: self.server.conns.lock().len() as u64,
            peak_connections: stats.peak.load(Ordering::Relaxed),
            load_sheds: stats.load_sheds.load(Ordering::Relaxed),
            dispatched: stats.dispatched.load(Ordering::Relaxed),
            wbuf_overflows: stats.wbuf_overflows.load(Ordering::Relaxed),
        }
    }

    /// Stop every thread, dropping every connection.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for EventServer {
    fn drop(&mut self) {
        self.server.stop.store(true, Ordering::SeqCst);
        self.server.waker.wake();
        // With the threads gone this is the last handle on the server:
        // every connection and queued request is dropped with it.
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
    }
}

impl Server {
    /// One thread: serve what was queued, then wait for the next
    /// readiness report and act on it.
    fn run(&self) {
        loop {
            self.drain();
            if self.stop.load(Ordering::SeqCst) {
                return;
            }
            // Work queued while the last poller could not serve it waits
            // for the next thread to come by: this one, if another thread
            // is polling now.
            if self.polling.fetch_add(1, Ordering::SeqCst) > 0 && !self.queue.lock().is_empty() {
                self.polling.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            let ev = self.poller.wait_one(Some(WAIT_TICK));
            self.polling.fetch_sub(1, Ordering::SeqCst);
            match ev {
                Ok(Some(ev)) => self.on_report(ev),
                Ok(None) => {}
                Err(_) => return,
            }
        }
    }

    /// May this thread run a request now? Only while another thread is
    /// polling: the last poller must stay free to read, shed and accept.
    fn may_serve(&self) -> bool {
        self.polling.load(Ordering::SeqCst) > 0
    }

    /// Serve queued requests while the last-poller rule allows, ringing
    /// the waker for another thread whenever more remain behind the one
    /// taken, so that a queue is never served one after another by one
    /// thread while the others sleep.
    fn drain(&self) {
        while self.may_serve() {
            let (job, more) = {
                let mut queue = self.queue.lock();
                (queue.pop_front(), !queue.is_empty())
            };
            if more {
                self.waker.wake();
            }
            match job {
                Some(job) => self.answer(job),
                None => return,
            }
        }
    }

    fn on_report(&self, ev: Event) {
        let fd = match ev.token {
            TOKEN_LISTENER => {
                self.accept_ready();
                self.listener.as_raw_fd()
            }
            TOKEN_WAKER => {
                // On shutdown the waker is left readable, so re-arming
                // it passes the wake-up on to the next waiting thread.
                if !self.stop.load(Ordering::SeqCst) {
                    self.waker.drain();
                }
                self.waker.fd()
            }
            token => {
                let peer = self.conns.lock().get(&token).cloned();
                if let Some(job) = peer.and_then(|peer| self.on_ready(peer, ev)) {
                    self.answer(job);
                }
                return;
            }
        };
        let _ = self.poller.reregister(fd, ev.token, READ_ONESHOT);
    }

    /// Accept every pending connection (the listener is nonblocking).
    fn accept_ready(&self) {
        loop {
            let Ok((stream, _)) = self.listener.accept() else {
                return;
            };
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let token = self.next_token.fetch_add(1, Ordering::Relaxed);
            let fd = stream.as_raw_fd();
            let peer = Arc::new(Peer {
                token,
                stream,
                rbuf: Mutex::new(FrameBuffer::new()),
                out: Mutex::new(Outbox::default()),
            });
            let mut conns = self.conns.lock();
            if self.poller.register(fd, token, READ_ONESHOT).is_ok() {
                conns.insert(token, peer);
                let now = conns.len() as u64;
                self.stats.peak.fetch_max(now, Ordering::Relaxed);
            }
        }
    }

    /// Act on one report for `peer`: flush what is pending, drain the
    /// socket into the frame buffer, decode every complete frame, shed
    /// past the in-flight bound, re-arm — and return the first request
    /// for this thread to serve; the rest are queued. A poisoned stream,
    /// or a peer that sends reply-kind frames, kills the connection.
    fn on_ready(&self, peer: Arc<Peer>, ev: Event) -> Option<Job> {
        let mut rbuf = peer.rbuf.lock();
        let mut eof = false;
        let mut poisoned = ev.error;
        if ev.readable && !poisoned {
            let mut chunk = [0u8; 16 * 1024];
            loop {
                match (&peer.stream).read(&mut chunk) {
                    // EOF: no new requests, but in-flight replies still
                    // get written back before the close.
                    Ok(0) => {
                        eof = true;
                        break;
                    }
                    Ok(n) => rbuf.extend(&chunk[..n]),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        poisoned = true;
                        break;
                    }
                }
            }
        }
        let mut out = peer.out.lock();
        if ev.writable {
            out.flush(&peer.stream);
        }
        out.eof |= eof;
        let mut first = None;
        let mut queued = 0;
        // One queue lock for however many frames arrived, taken only once
        // there is a job to queue.
        let mut queue = None;
        while !poisoned {
            match rbuf.next_frame() {
                Ok(Some(frame @ (Frame::Request { .. } | Frame::AdminRequest { .. }))) => {
                    if out.in_flight >= MAX_IN_FLIGHT_PER_CONN {
                        // Load shed: answer now, dispatch never. A peer that
                        // floods requests while never reading these replies
                        // runs the outbox past its bound and is closed.
                        self.stats.load_sheds.fetch_add(1, Ordering::Relaxed);
                        let shed = Frame::ErrorReply {
                            req_id: frame.req_id(),
                            error: AmcError::BufferExhausted,
                        };
                        out.send(&peer.stream, &encode_frame(&shed), &self.stats);
                        continue;
                    }
                    out.in_flight += 1;
                    self.stats.dispatched.fetch_add(1, Ordering::Relaxed);
                    let job = Job {
                        conn: Arc::clone(&peer),
                        frame,
                    };
                    if first.is_none() && self.may_serve() {
                        first = Some(job);
                    } else {
                        queue
                            .get_or_insert_with(|| self.queue.lock())
                            .push_back(job);
                        queued += 1;
                    }
                }
                Ok(None) => break,
                // A server only accepts requests (cf. the blocking runtime).
                Ok(Some(_)) | Err(_) => poisoned = true,
            }
        }
        drop(rbuf);
        out.dead |= poisoned;
        self.settle(&peer, &mut out, true);
        drop(out);
        drop(queue);
        if queued > 0 {
            self.waker.wake();
        }
        first
    }

    /// Run one request through the shared site handler and answer the
    /// peer. Only request-kind frames are ever dispatched, so the handler
    /// always produces a reply here.
    fn answer(&self, job: Job) {
        let Job { conn, frame } = job;
        let reply = (self.handler)(frame).map(|reply| encode_frame(&reply));
        let mut out = conn.out.lock();
        out.in_flight -= 1;
        let was_pending = out.pending() > 0;
        if let (Some(bytes), false) = (&reply, out.dead) {
            out.send(&conn.stream, bytes, &self.stats);
        }
        // Output the socket would not take arms the connection for
        // writing; output already pending has armed it before.
        let arm = !was_pending && out.pending() > 0;
        self.settle(&conn, &mut out, arm);
    }

    /// Under `peer`'s outbox lock: close the connection — exactly once —
    /// if it is dead or finished (EOF, nothing to write, nothing in
    /// flight); otherwise, when `arm`, re-arm its one-shot registration
    /// for what it now waits on. After EOF that is writing alone, and
    /// only while output is pending: a half-closed socket is readable
    /// for ever and must not keep reporting it.
    fn settle(&self, peer: &Peer, out: &mut Outbox, arm: bool) {
        if out.closed {
            return;
        }
        let fd = peer.stream.as_raw_fd();
        let want = Interest {
            readable: !out.eof,
            writable: out.pending() > 0,
            oneshot: true,
        };
        let finished = out.eof && !want.writable && out.in_flight == 0;
        if !out.dead && !finished {
            let rearm = arm && (want.readable || want.writable);
            if !rearm || self.poller.reregister(fd, peer.token, want).is_ok() {
                return;
            }
        }
        out.dead = true;
        out.closed = true;
        self.poller.deregister(fd);
        // Replies still being made hold the socket open; the peer must
        // see the close now, not when the last of them is dropped.
        let _ = peer.stream.shutdown(Shutdown::Both);
        self.conns.lock().remove(&peer.token);
    }
}
