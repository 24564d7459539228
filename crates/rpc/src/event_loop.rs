//! The event-loop site-server runtime.
//!
//! One epoll thread reads every socket; a small worker pool owns every
//! dispatch and, normally, the reply. The loop never blocks on I/O or on
//! the engine:
//!
//! - **Reads** are nonblocking and incremental. Bytes land in a
//!   per-connection [`FrameBuffer`]; a frame that arrives in ten pieces
//!   is ten cheap appends and one decode. There is no `read_exact`
//!   anywhere, so there is no way for a timeout to eat half a frame.
//! - **Dispatch** happens off-loop. Each decoded request becomes a job
//!   for the worker pool, so a dispatch that blocks (a WAL fsync, a lock
//!   wait) stalls one worker, not the loop — and concurrent workers
//!   hitting the WAL together are exactly what
//!   [`amc_wal::GroupCommitter`] needs to merge their fsyncs.
//! - **Writes** are made by whoever has the reply. The worker that
//!   produced it encodes it and, when the connection has no queued
//!   output, writes it to the non-blocking socket itself — no hop back
//!   through the loop. Only what the socket would not take (or a reply
//!   finishing behind queued output) lands in the connection's write
//!   buffer; the worker then rings the loop, which flushes on
//!   `EPOLLOUT`. A slow reader causes buffering, never a blocked thread.
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
use amc_epoll::{Interest, Poller, Waker};
use amc_net::{LocalCommManager, SubmitMode};
use amc_obs::ObsSink;
use amc_paxos::AcceptorHost;
use amc_types::{AmcError, SiteId};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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
pub const MAX_WBUF_BYTES: usize = 256 * 1024;

/// Epoll tokens 0/1 are the listener and the waker; connections start
/// above them.
const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const TOKEN_FIRST_CONN: u64 = 2;

/// How long one epoll wait sleeps before re-checking the stop flag.
const WAIT_TICK: Duration = Duration::from_millis(100);

/// Counters the loop maintains; cheap enough to read any time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventServerStats {
    /// Connections currently registered with the poller.
    pub current_connections: u64,
    /// High-water mark of concurrently registered connections.
    pub peak_connections: u64,
    /// Requests answered with a load-shed `ErrorReply` instead of being
    /// dispatched.
    pub load_sheds: u64,
    /// Requests dispatched to the worker pool.
    pub dispatched: u64,
    /// Connections closed because a stalled reader let its write buffer
    /// exceed [`MAX_WBUF_BYTES`].
    pub wbuf_overflows: u64,
}

#[derive(Default)]
struct SharedStats {
    current: AtomicU64,
    peak: AtomicU64,
    load_sheds: AtomicU64,
    dispatched: AtomicU64,
    wbuf_overflows: AtomicU64,
}

/// A dispatch job: which connection asked, and what it asked.
struct Job {
    conn: Arc<Peer>,
    frame: Frame,
}

/// Worker-pool plumbing: the job queue the loop pushes into, and the
/// list of connections a worker left for the loop to look at, with the
/// eventfd waker as the loop's doorbell.
struct Pool {
    jobs: Mutex<VecDeque<Job>>,
    jobs_cv: Condvar,
    /// Tokens of connections whose [`Outbox`] a worker left in a state
    /// only the loop can act on: output the socket would not take (arm
    /// `EPOLLOUT`), or a connection that must now close.
    attention: Mutex<Vec<u64>>,
    waker: Waker,
    stop: AtomicBool,
}

/// The half of a connection the loop shares with the workers: the
/// socket, and everything about its output side. Whoever holds `out`
/// may write to the socket, so frames never interleave.
struct Peer {
    token: u64,
    stream: TcpStream,
    out: Mutex<Outbox>,
}

#[derive(Default)]
struct Outbox {
    /// Output the socket would not take yet; `wpos` is how much of it
    /// has already been written. Empty on the fast path: a reply goes
    /// straight from the worker that made it to the socket.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Requests currently dispatched to the pool for this connection.
    in_flight: usize,
    /// Reads hit EOF; the connection closes as soon as the write buffer
    /// drains and the in-flight count is zero.
    closing: bool,
    /// No further output is accepted: a write failed, the backlog passed
    /// [`MAX_WBUF_BYTES`], or the loop has dropped the connection. A
    /// reply that completes after this is discarded.
    dead: bool,
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

/// Per-connection state owned by the event loop.
struct Conn {
    peer: Arc<Peer>,
    rbuf: FrameBuffer,
    /// The interest currently registered with the poller.
    interest: Interest,
}

/// A running event-loop site server. Drop-in replacement for
/// [`SiteServer`](crate::SiteServer): same spawn surface, same wire
/// vocabulary, same acceptor hook — different concurrency model.
pub struct EventServer {
    site: SiteId,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    pool: Arc<Pool>,
    stats: Arc<SharedStats>,
    loop_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
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
        Self::spawn_with_acceptor(site, manager, mode, listen, obs, None)
    }

    /// Like [`EventServer::spawn`], additionally mounting a co-located
    /// Paxos Commit acceptor (see
    /// [`SiteServer::spawn_with_acceptor`](crate::SiteServer::spawn_with_acceptor)).
    pub fn spawn_with_acceptor(
        site: SiteId,
        manager: Arc<LocalCommManager>,
        mode: SubmitMode,
        listen: &str,
        obs: ObsSink,
        acceptor: Option<Arc<AcceptorHost>>,
    ) -> io::Result<EventServer> {
        let listener = bind_with_retry(listen)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(SharedStats::default());
        let pool = Arc::new(Pool {
            jobs: Mutex::new(VecDeque::new()),
            jobs_cv: Condvar::new(),
            attention: Mutex::new(Vec::new()),
            waker: Waker::new()?,
            stop: AtomicBool::new(false),
        });

        // Workers spend most of their life *waiting* — on locks, on the
        // group committer's fsync — not computing, so the pool is sized
        // well past the core count: enough that a burst of wedged
        // dispatches (every worker parked on the same hot lock) still
        // leaves hands free for the requests behind it, few enough that
        // hundreds of connections don't mean hundreds of threads.
        let n_workers = (2 * std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4))
        .clamp(16, 32);
        let handler = site_handler(site, manager, mode, obs, acceptor);
        let workers = (0..n_workers)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let handler = Arc::clone(&handler);
                let stats = Arc::clone(&stats);
                std::thread::spawn(move || worker_loop(&pool, &handler, &stats))
            })
            .collect();

        let loop_thread = {
            let stop = Arc::clone(&stop);
            let pool = Arc::clone(&pool);
            let stats = Arc::clone(&stats);
            std::thread::spawn(move || {
                // A loop that cannot set itself up serves nothing; every
                // connection attempt will see ECONNREFUSED once the
                // listener drops.
                let _ = event_loop(listener, stop, pool, stats);
            })
        };

        Ok(EventServer {
            site,
            addr,
            stop,
            pool,
            stats,
            loop_thread: Some(loop_thread),
            workers,
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

    /// Current loop counters.
    pub fn stats(&self) -> EventServerStats {
        EventServerStats {
            current_connections: self.stats.current.load(Ordering::Relaxed),
            peak_connections: self.stats.peak.load(Ordering::Relaxed),
            load_sheds: self.stats.load_sheds.load(Ordering::Relaxed),
            dispatched: self.stats.dispatched.load(Ordering::Relaxed),
            wbuf_overflows: self.stats.wbuf_overflows.load(Ordering::Relaxed),
        }
    }

    /// Stop the loop and the workers, dropping every connection.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for EventServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.pool.waker.wake();
        if let Some(h) = self.loop_thread.take() {
            let _ = h.join();
        }
        self.pool.stop.store(true, Ordering::SeqCst);
        self.pool.jobs_cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// One worker: pull a job, run it through the shared site handler and
/// answer the peer itself. The loop hears of it only when the socket
/// would not take the whole reply, or the connection is now due to close.
fn worker_loop(pool: &Pool, handler: &Handler, stats: &SharedStats) {
    loop {
        let job = {
            let mut jobs = pool.jobs.lock();
            loop {
                if let Some(job) = jobs.pop_front() {
                    break job;
                }
                if pool.stop.load(Ordering::SeqCst) {
                    return;
                }
                pool.jobs_cv.wait(&mut jobs);
            }
        };
        let Job { conn, frame } = job;
        // Only request-kind frames are ever enqueued, so the handler
        // always produces a reply here.
        let reply = handler(frame).map(|reply| encode_frame(&reply));
        let mut out = conn.out.lock();
        out.in_flight -= 1;
        if let (Some(bytes), false) = (&reply, out.dead) {
            out.send(&conn.stream, bytes, stats);
        }
        let ring = out.dead || out.pending() > 0 || (out.closing && out.in_flight == 0);
        drop(out);
        if ring {
            pool.attention.lock().push(conn.token);
            pool.waker.wake();
        }
    }
}

/// The loop itself: accept, read/decode, hand out jobs, and finish what
/// the workers could not: flush backed-up output, close connections.
fn event_loop(
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    pool: Arc<Pool>,
    stats: Arc<SharedStats>,
) -> io::Result<()> {
    let poller = Poller::new()?;
    poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
    poller.register(pool.waker.fd(), TOKEN_WAKER, Interest::READ)?;

    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = TOKEN_FIRST_CONN;
    let mut events = Vec::new();
    let mut chunk = [0u8; 64 * 1024];

    while !stop.load(Ordering::SeqCst) {
        poller.wait(&mut events, Some(WAIT_TICK))?;
        for ev in &events {
            match ev.token {
                TOKEN_LISTENER => {
                    accept_ready(&listener, &poller, &mut conns, &mut next_token, &stats);
                }
                TOKEN_WAKER => {
                    pool.waker.drain();
                    let tokens = std::mem::take(&mut *pool.attention.lock());
                    for token in tokens {
                        finish_or_update(&poller, &mut conns, token, &stats);
                    }
                }
                token => {
                    let Some(conn) = conns.get_mut(&token) else {
                        continue;
                    };
                    if ev.error {
                        conn.peer.out.lock().dead = true;
                    } else {
                        if ev.readable {
                            read_ready(conn, &mut chunk, &pool, &stats);
                        }
                        if ev.writable {
                            conn.peer.out.lock().flush(&conn.peer.stream);
                        }
                    }
                    finish_or_update(&poller, &mut conns, token, &stats);
                }
            }
        }
    }

    // Shutdown: deregister and drop everything. Replies still in
    // workers' hands find their outbox dead.
    for (_, conn) in conns.drain() {
        conn.peer.out.lock().dead = true;
        poller.deregister(conn.peer.stream.as_raw_fd());
    }
    poller.deregister(listener.as_raw_fd());
    poller.deregister(pool.waker.fd());
    Ok(())
}

/// Accept every pending connection (the listener is level-triggered and
/// nonblocking).
fn accept_ready(
    listener: &TcpListener,
    poller: &Poller,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
    stats: &SharedStats,
) {
    loop {
        let (stream, _) = match listener.accept() {
            Ok(s) => s,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(_) => return,
        };
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        let _ = stream.set_nodelay(true);
        let token = *next_token;
        *next_token += 1;
        if poller
            .register(stream.as_raw_fd(), token, Interest::READ)
            .is_err()
        {
            continue;
        }
        conns.insert(
            token,
            Conn {
                peer: Arc::new(Peer {
                    token,
                    stream,
                    out: Mutex::new(Outbox::default()),
                }),
                rbuf: FrameBuffer::new(),
                interest: Interest::READ,
            },
        );
        let now = conns.len() as u64;
        stats.current.store(now, Ordering::Relaxed);
        stats.peak.fetch_max(now, Ordering::Relaxed);
    }
}

/// Drain the socket into the frame buffer, decode every complete frame
/// and queue it for the workers (or shed it). A poisoned stream, or a
/// peer that sends reply-kind frames, marks the outbox dead: the
/// connection must die *immediately*.
fn read_ready(conn: &mut Conn, chunk: &mut [u8], pool: &Pool, stats: &SharedStats) {
    let peer = &conn.peer;
    let mut eof = false;
    let mut poisoned = false;
    loop {
        match (&peer.stream).read(chunk) {
            // EOF: no new requests, but in-flight replies still get
            // written back before the close.
            Ok(0) => {
                eof = true;
                break;
            }
            Ok(n) => conn.rbuf.extend(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                poisoned = true;
                break;
            }
        }
    }
    let mut out = peer.out.lock();
    out.closing |= eof;
    // One queue lock for however many frames arrived, taken only once
    // there is a job to push.
    let mut queue = None;
    let mut queued = 0;
    while !poisoned {
        match conn.rbuf.next_frame() {
            Ok(Some(frame @ (Frame::Request { .. } | Frame::AdminRequest { .. }))) => {
                if out.in_flight >= MAX_IN_FLIGHT_PER_CONN {
                    // Load shed: answer now, dispatch never. A peer that
                    // floods requests while never reading these replies
                    // runs the outbox past its bound and is closed.
                    stats.load_sheds.fetch_add(1, Ordering::Relaxed);
                    let shed = Frame::ErrorReply {
                        req_id: frame.req_id(),
                        error: AmcError::BufferExhausted,
                    };
                    out.send(&peer.stream, &encode_frame(&shed), stats);
                } else {
                    out.in_flight += 1;
                    stats.dispatched.fetch_add(1, Ordering::Relaxed);
                    let conn = Arc::clone(peer);
                    queue
                        .get_or_insert_with(|| pool.jobs.lock())
                        .push_back(Job { conn, frame });
                    queued += 1;
                }
            }
            Ok(None) => break,
            // A server only accepts requests (cf. the blocking runtime).
            Ok(Some(_)) | Err(_) => poisoned = true,
        }
    }
    drop(queue);
    // Wake one worker per job, not the whole pool: `notify_all` here
    // stampedes every idle worker onto one queue lock per request.
    for _ in 0..queued {
        pool.jobs_cv.notify_one();
    }
    out.dead |= poisoned;
}

/// Close a connection that is done (or dead), or fix up its poller
/// interest to match whether output is pending.
fn finish_or_update(
    poller: &Poller,
    conns: &mut HashMap<u64, Conn>,
    token: u64,
    stats: &SharedStats,
) {
    let Some(conn) = conns.get_mut(&token) else {
        return;
    };
    let mut out = conn.peer.out.lock();
    let drained = out.pending() == 0;
    if out.dead || (out.closing && drained && out.in_flight == 0) {
        out.dead = true;
        drop(out);
        poller.deregister(conn.peer.stream.as_raw_fd());
        conns.remove(&token);
        stats.current.store(conns.len() as u64, Ordering::Relaxed);
        return;
    }
    drop(out);
    let want = if drained {
        Interest::READ
    } else {
        Interest::READ_WRITE
    };
    if want != conn.interest
        && poller
            .reregister(conn.peer.stream.as_raw_fd(), token, want)
            .is_ok()
    {
        conn.interest = want;
    }
}
