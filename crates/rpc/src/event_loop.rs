//! The event-loop site-server runtime.
//!
//! One epoll thread owns every socket; a small worker pool owns every
//! dispatch. The loop never blocks on I/O or on the engine:
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
//! - **Writes** are batched. Finished replies are serialized into the
//!   connection's write buffer; whatever has accumulated by the time the
//!   socket is writable goes out in one syscall. A slow reader causes
//!   `EPOLLOUT`-driven flushing, never a blocked thread.
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
    conn: u64,
    frame: Frame,
}

/// A finished dispatch: which connection to answer, and the reply frame.
struct Completion {
    conn: u64,
    reply: Frame,
}

/// Worker-pool plumbing: a bounded job queue the loop pushes into and a
/// completion queue the workers push back, with the eventfd waker as the
/// loop's doorbell.
struct Pool {
    jobs: Mutex<VecDeque<Job>>,
    jobs_cv: Condvar,
    completions: Mutex<Vec<Completion>>,
    waker: Waker,
    stop: AtomicBool,
}

/// Per-connection state owned by the event loop.
struct Conn {
    stream: TcpStream,
    rbuf: FrameBuffer,
    /// Batched outgoing bytes; `wpos` is how much has already been
    /// written. Replies append here and are flushed together.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Requests currently dispatched to the pool for this connection.
    in_flight: usize,
    /// The interest currently registered with the poller.
    interest: Interest,
    /// Reads hit EOF or a fatal decode error; the connection closes as
    /// soon as the write buffer drains and the in-flight count is zero.
    closing: bool,
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
            completions: Mutex::new(Vec::new()),
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
                std::thread::spawn(move || worker_loop(&pool, &handler))
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

/// One worker: pull a job, run it through the shared site handler, hand
/// the reply back to the loop, ring the doorbell.
fn worker_loop(pool: &Pool, handler: &Handler) {
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
        // Only request-kind frames are ever enqueued, so the handler
        // always produces a reply here.
        let Some(reply) = handler(job.frame) else {
            continue;
        };
        pool.completions.lock().push(Completion {
            conn: job.conn,
            reply,
        });
        pool.waker.wake();
    }
}

/// The loop itself: accept, read/decode, hand out jobs, collect
/// completions, batch-write replies.
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
        // Tokens whose connection state changed this round and may need
        // closing or interest updates.
        for ev in events.clone() {
            match ev.token {
                TOKEN_LISTENER => {
                    accept_ready(&listener, &poller, &mut conns, &mut next_token, &stats);
                }
                TOKEN_WAKER => {
                    pool.waker.drain();
                    drain_completions(&pool, &poller, &mut conns, &stats);
                }
                token => {
                    let Some(conn) = conns.get_mut(&token) else {
                        continue;
                    };
                    let mut dead = ev.error;
                    if ev.readable && !dead {
                        dead = read_ready(conn, token, &mut chunk, &pool, &stats);
                    }
                    if ev.writable && !dead {
                        dead = flush(conn).is_err();
                    }
                    finish_or_update(&poller, &mut conns, token, dead, &stats);
                }
            }
        }
    }

    // Shutdown: deregister and drop everything.
    for (_, conn) in conns.drain() {
        poller.deregister(conn.stream.as_raw_fd());
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
                stream,
                rbuf: FrameBuffer::new(),
                wbuf: Vec::new(),
                wpos: 0,
                in_flight: 0,
                interest: Interest::READ,
                closing: false,
            },
        );
        let now = conns.len() as u64;
        stats.current.store(now, Ordering::Relaxed);
        stats.peak.fetch_max(now, Ordering::Relaxed);
    }
}

/// Drain the socket into the frame buffer and decode every complete
/// frame. Returns `true` when the connection must die *immediately*
/// (poisoned stream or peer sent reply-kind frames).
fn read_ready(
    conn: &mut Conn,
    token: u64,
    chunk: &mut [u8],
    pool: &Pool,
    stats: &SharedStats,
) -> bool {
    loop {
        match conn.stream.read(chunk) {
            // EOF: no new requests, but in-flight replies still get
            // written back before the close.
            Ok(0) => {
                conn.closing = true;
                break;
            }
            Ok(n) => conn.rbuf.extend(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return true,
        }
    }
    let mut jobs = Vec::new();
    loop {
        match conn.rbuf.next_frame() {
            Ok(Some(frame @ (Frame::Request { .. } | Frame::AdminRequest { .. }))) => {
                if conn.in_flight >= MAX_IN_FLIGHT_PER_CONN {
                    // Load shed: answer now, dispatch never. The reply
                    // goes through the same batched write path.
                    stats.load_sheds.fetch_add(1, Ordering::Relaxed);
                    let shed = Frame::ErrorReply {
                        req_id: frame.req_id(),
                        error: AmcError::BufferExhausted,
                    };
                    conn.wbuf.extend_from_slice(&encode_frame(&shed));
                } else {
                    conn.in_flight += 1;
                    stats.dispatched.fetch_add(1, Ordering::Relaxed);
                    jobs.push(Job { conn: token, frame });
                }
            }
            // A server only accepts requests (cf. the blocking runtime).
            Ok(Some(_)) => return true,
            Ok(None) => break,
            Err(_) => return true,
        }
    }
    // Shed replies landed in the write buffer above; a peer that floods
    // requests while never reading replies must not grow it without
    // bound. Give the socket one chance to take the backlog, then close.
    if conn.wbuf.len() - conn.wpos > MAX_WBUF_BYTES
        && (flush(conn).is_err() || conn.wbuf.len() - conn.wpos > MAX_WBUF_BYTES)
    {
        stats.wbuf_overflows.fetch_add(1, Ordering::Relaxed);
        return true;
    }
    if !jobs.is_empty() {
        let n = jobs.len();
        let mut q = pool.jobs.lock();
        q.extend(jobs);
        drop(q);
        // Wake one worker per job, not the whole pool: `notify_all` here
        // stampedes every idle worker onto one queue lock per request.
        for _ in 0..n {
            pool.jobs_cv.notify_one();
        }
    }
    false
}

/// Serialize finished replies into their connections' write buffers and
/// flush what the sockets will take.
fn drain_completions(
    pool: &Pool,
    poller: &Poller,
    conns: &mut HashMap<u64, Conn>,
    stats: &SharedStats,
) {
    let completions = std::mem::take(&mut *pool.completions.lock());
    let mut touched: Vec<u64> = Vec::new();
    for c in completions {
        // The connection may have died while its request was in flight;
        // the reply is then undeliverable and simply dropped.
        let Some(conn) = conns.get_mut(&c.conn) else {
            continue;
        };
        conn.in_flight -= 1;
        conn.wbuf.extend_from_slice(&encode_frame(&c.reply));
        if !touched.contains(&c.conn) {
            touched.push(c.conn);
        }
    }
    // One flush per touched connection: replies that completed together
    // leave in one write.
    for token in touched {
        let dead = {
            let conn = conns.get_mut(&token).expect("touched conns exist");
            if flush(conn).is_err() {
                true
            } else if conn.wbuf.len() - conn.wpos > MAX_WBUF_BYTES {
                // The socket would not take the backlog: the peer has
                // stopped reading. Close rather than buffer without
                // bound; its unread replies die with the connection.
                stats.wbuf_overflows.fetch_add(1, Ordering::Relaxed);
                true
            } else {
                false
            }
        };
        finish_or_update(poller, conns, token, dead, stats);
    }
}

/// Write as much buffered output as the socket takes right now.
fn flush(conn: &mut Conn) -> io::Result<()> {
    while conn.wpos < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => conn.wpos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    if conn.wpos == conn.wbuf.len() {
        conn.wbuf.clear();
        conn.wpos = 0;
    } else if conn.wpos > 64 * 1024 {
        conn.wbuf.drain(..conn.wpos);
        conn.wpos = 0;
    }
    Ok(())
}

/// Close a connection that is done (or dead), or fix up its poller
/// interest to match whether output is pending.
fn finish_or_update(
    poller: &Poller,
    conns: &mut HashMap<u64, Conn>,
    token: u64,
    dead: bool,
    stats: &SharedStats,
) {
    let Some(conn) = conns.get_mut(&token) else {
        return;
    };
    let drained = conn.wpos == conn.wbuf.len();
    let done = conn.closing && drained && conn.in_flight == 0;
    if dead || done {
        poller.deregister(conn.stream.as_raw_fd());
        conns.remove(&token);
        stats.current.store(conns.len() as u64, Ordering::Relaxed);
        return;
    }
    let want = if drained {
        Interest::READ
    } else {
        Interest::READ_WRITE
    };
    if want != conn.interest
        && poller
            .reregister(conn.stream.as_raw_fd(), token, want)
            .is_ok()
    {
        conn.interest = want;
    }
}
