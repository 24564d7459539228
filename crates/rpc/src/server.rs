//! The blocking server runtime, and the TCP site server on it: one
//! independent process (or thread) per local system, owning its engine +
//! WAL behind a loopback listener.
//!
//! Concurrency model: thread-per-connection. Every connection runs its
//! own request loop — decode a frame, hand it to the server's
//! `Handler`, write the reply with the echoed request id. The site
//! handler dispatches to the shared [`LocalCommManager`] (the same
//! dispatch the in-process transport uses); the coordinator server
//! ([`crate::coord`]) runs the same loop with its own handler. A
//! malformed frame poisons only its own connection: the loop drops the
//! socket and returns, while the listener keeps accepting and every
//! other connection keeps being served.

use crate::wire::{write_frame, Frame, FrameBuffer};
use amc_net::transport::{admin_to_manager, dispatch_to_manager};
use amc_net::{LocalCommManager, SubmitMode};
use amc_obs::{EventKind, ObsSink};
use amc_types::SiteId;
use parking_lot::Mutex;
use std::io::{self, Read as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How often a blocked connection read wakes up to check the stop flag.
const STOP_POLL: Duration = Duration::from_millis(100);

/// What a server does with one decoded frame: the reply to send, or
/// `None` for a frame it must never receive (the peer is confused and
/// its connection is dropped).
pub(crate) type Handler = Arc<dyn Fn(Frame) -> Option<Frame> + Send + Sync>;

/// The blocking runtime: an accept thread plus one thread per
/// connection, each feeding decoded frames to one [`Handler`]. Dropping
/// it stops the listener and joins every thread.
pub(crate) struct BlockingServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl BlockingServer {
    /// Bind `listen` and serve `handler` on it.
    ///
    /// Binding retries briefly on `AddrInUse`: a server restarted **in
    /// place** (same port, after a crash or shutdown) can race the kernel
    /// reclaiming the old listener — the previous socket may linger in
    /// `TIME_WAIT` even though `SO_REUSEADDR` is set by default on Unix
    /// listeners. The retry lives here, not in callers, so every runtime
    /// (binary, tests, embedding) gets restart-in-place for free.
    pub(crate) fn spawn(listen: &str, handler: Handler) -> io::Result<BlockingServer> {
        let listener = bind_with_retry(listen)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_thread = {
            let stop = Arc::clone(&stop);
            let conn_threads = Arc::clone(&conn_threads);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let handler = Arc::clone(&handler);
                    let stop = Arc::clone(&stop);
                    let handle =
                        std::thread::spawn(move || serve_connection(stream, &handler, &stop));
                    // Reap finished handles on every accept: a long-running
                    // server seeing many short-lived connections must not
                    // retain a JoinHandle (and its thread's unreclaimed
                    // resources) per connection that ever existed.
                    let mut threads = conn_threads.lock();
                    threads.retain(|h: &JoinHandle<()>| !h.is_finished());
                    threads.push(handle);
                }
            })
        };
        Ok(BlockingServer {
            addr,
            stop,
            accept_thread: Some(accept_thread),
            conn_threads,
        })
    }

    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connection-thread handles currently retained.
    pub(crate) fn connection_threads(&self) -> usize {
        self.conn_threads.lock().len()
    }
}

impl Drop for BlockingServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        for h in self.conn_threads.lock().drain(..) {
            let _ = h.join();
        }
    }
}

/// Bounded `AddrInUse` retry around [`TcpListener::bind`] (see
/// [`BlockingServer::spawn`]). Ephemeral-port binds (`:0`) never collide
/// and return on the first attempt.
pub(crate) fn bind_with_retry(listen: &str) -> io::Result<TcpListener> {
    const ATTEMPTS: u32 = 50;
    let mut last = None;
    for attempt in 0..ATTEMPTS {
        if attempt > 0 {
            std::thread::sleep(Duration::from_millis(100));
        }
        match TcpListener::bind(listen) {
            Ok(l) => return Ok(l),
            Err(e) if e.kind() == io::ErrorKind::AddrInUse => last = Some(e),
            Err(e) => return Err(e),
        }
    }
    Err(last.expect("loop ran at least once"))
}

/// One connection's request loop. Returns (dropping the connection) on
/// any read/decode error, on a frame the handler refuses, or when the
/// stop flag is raised.
///
/// Reads go through a [`FrameBuffer`], never `read_exact`: a read
/// deadline that ticks mid-frame leaves the consumed bytes buffered, so
/// a slow writer dribbling a frame across many 100 ms windows still
/// parses. (The old loop discarded partially-read bytes on every
/// timeout and resumed mid-frame — desyncing the stream and killing a
/// healthy connection.)
fn serve_connection(mut stream: TcpStream, handler: &Handler, stop: &AtomicBool) {
    // Short read timeout so the thread notices shutdown promptly even on
    // an idle connection.
    if stream.set_read_timeout(Some(STOP_POLL)).is_err() {
        return;
    }
    let _ = stream.set_nodelay(true);
    let mut buf = FrameBuffer::new();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match stream.read(&mut chunk) {
            // EOF: the peer closed cleanly.
            Ok(0) => return,
            Ok(n) => buf.extend(&chunk[..n]),
            // A deadline tick with no bytes: whatever is buffered stays
            // buffered; just re-check the stop flag.
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                continue
            }
            // Closed, reset: this connection is done — and only this one.
            Err(_) => return,
        }
        loop {
            let frame = match buf.next_frame() {
                Ok(Some(f)) => f,
                // Partial frame: wait for more bytes.
                Ok(None) => break,
                // Garbage, oversized: frame boundaries are gone — drop
                // the connection (never the server).
                Err(_) => return,
            };
            let Some(reply) = handler(frame) else {
                return;
            };
            if write_frame(&mut stream, &reply).is_err() {
                return;
            }
        }
    }
}

/// A running site server. Dropping it (or calling
/// [`SiteServer::shutdown`]) stops the listener and joins every
/// connection thread.
pub struct SiteServer {
    site: SiteId,
    inner: BlockingServer,
}

impl SiteServer {
    /// Bind `listen` (e.g. `127.0.0.1:0` for an ephemeral loopback port)
    /// and serve `manager` on it. `mode` selects how submits run — it must
    /// match the protocol the coordinator drives. A site restarted in
    /// place may reuse its port: binding retries briefly on `AddrInUse`.
    pub fn spawn(
        site: SiteId,
        manager: Arc<LocalCommManager>,
        mode: SubmitMode,
        listen: &str,
        obs: ObsSink,
    ) -> io::Result<SiteServer> {
        let handler = site_handler(site, manager, mode, obs);
        Ok(SiteServer {
            site,
            inner: BlockingServer::spawn(listen, handler)?,
        })
    }

    /// The site this server fronts.
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// The address the server actually listens on.
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr()
    }

    /// Connection-thread handles currently retained (live connections
    /// plus any finished since the last accept). Bounded by the reap on
    /// accept — a churn of thousands of short-lived connections must not
    /// grow this without bound.
    pub fn connection_threads(&self) -> usize {
        self.inner.connection_threads()
    }

    /// Stop accepting, close the listener, and join every thread.
    pub fn shutdown(self) {
        drop(self);
    }
}

/// The site servers' [`Handler`]: [`reply_for_frame`] over one site's
/// manager. Both site runtimes serve exactly this.
pub(crate) fn site_handler(
    site: SiteId,
    manager: Arc<LocalCommManager>,
    mode: SubmitMode,
    obs: ObsSink,
) -> Handler {
    Arc::new(move |frame| reply_for_frame(frame, site, &manager, mode, &obs))
}

/// Serve one request frame: dispatch it and build the reply frame.
/// Returns `None` for frames a server must never receive (a peer sending
/// *replies* is broken and its connection should be dropped).
///
/// This is the single request-handling path shared by the blocking
/// thread-per-connection server and the event-loop runtime (through
/// [`site_handler`]); the dispatch it calls is the in-process
/// transport's, acceptor and all.
fn reply_for_frame(
    frame: Frame,
    site: SiteId,
    manager: &LocalCommManager,
    mode: SubmitMode,
    obs: &ObsSink,
) -> Option<Frame> {
    match frame {
        Frame::Request { req_id, payload } => {
            obs.emit(
                Some(payload.gtx()),
                site,
                EventKind::MsgDeliver {
                    label: payload.label(),
                    from: SiteId::CENTRAL,
                },
            );
            Some(match dispatch_to_manager(manager, payload, mode) {
                Ok(payload) => {
                    obs.emit(
                        Some(payload.gtx()),
                        site,
                        EventKind::MsgSend {
                            label: payload.label(),
                            from: site,
                            to: SiteId::CENTRAL,
                        },
                    );
                    Frame::Reply { req_id, payload }
                }
                Err(error) => Frame::ErrorReply { req_id, error },
            })
        }
        Frame::AdminRequest { req_id, req } => Some(match admin_to_manager(manager, req) {
            Ok(reply) => Frame::AdminReply { req_id, reply },
            Err(error) => Frame::ErrorReply { req_id, error },
        }),
        // Coordinator frames belong to the router↔coordinator surface; a
        // site server receiving one has a confused peer — drop it.
        Frame::Reply { .. }
        | Frame::AdminReply { .. }
        | Frame::ErrorReply { .. }
        | Frame::CoordRequest { .. }
        | Frame::CoordReply { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::read_frame;
    use amc_engine::{TplConfig, TwoPLEngine};
    use amc_net::comm::EngineHandle;
    use amc_net::transport::{AdminReply, AdminRequest};
    use amc_types::{GlobalTxnId, ObjectId, Operation, Value};
    use std::io::Write as _;

    fn server() -> SiteServer {
        let site = SiteId::new(1);
        let engine = Arc::new(TwoPLEngine::new_at(TplConfig::default(), SiteId::new(1)));
        let manager = Arc::new(LocalCommManager::new(
            site,
            EngineHandle::Preparable(engine),
        ));
        SiteServer::spawn(
            site,
            manager,
            SubmitMode::CommitBefore,
            "127.0.0.1:0",
            ObsSink::disabled(),
        )
        .expect("bind loopback")
    }

    fn roundtrip(stream: &mut TcpStream, frame: &Frame) -> Frame {
        write_frame(stream, frame).unwrap();
        loop {
            match read_frame(stream) {
                Ok(f) => return f,
                Err(e) if e.is_timeout() => continue,
                Err(e) => panic!("read: {e}"),
            }
        }
    }

    #[test]
    fn serves_a_submit_over_tcp() {
        let srv = server();
        let mut conn = TcpStream::connect(srv.addr()).unwrap();
        let reply = roundtrip(
            &mut conn,
            &Frame::AdminRequest {
                req_id: 1,
                req: AdminRequest::Load(vec![(ObjectId::new(1), Value::counter(10))]),
            },
        );
        assert_eq!(
            reply,
            Frame::AdminReply {
                req_id: 1,
                reply: AdminReply::Loaded
            }
        );
        let reply = roundtrip(
            &mut conn,
            &Frame::Request {
                req_id: 2,
                payload: amc_net::Payload::Submit {
                    gtx: GlobalTxnId::new(1),
                    ops: vec![Operation::Increment {
                        obj: ObjectId::new(1),
                        delta: 5,
                    }],
                },
            },
        );
        match reply {
            Frame::Reply {
                req_id: 2,
                payload: amc_net::Payload::Vote { vote, .. },
            } => assert!(vote.is_yes()),
            other => panic!("unexpected {other:?}"),
        }
        srv.shutdown();
    }

    #[test]
    fn garbage_frame_drops_only_that_connection() {
        let srv = server();
        // A healthy connection established first.
        let mut healthy = TcpStream::connect(srv.addr()).unwrap();
        // A hostile connection: oversized length prefix.
        let mut hostile = TcpStream::connect(srv.addr()).unwrap();
        hostile.write_all(&[0xFF; 4]).unwrap();
        // The hostile connection gets dropped: the next read sees EOF.
        hostile
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut buf = [0u8; 1];
        use std::io::Read as _;
        assert_eq!(hostile.read(&mut buf).unwrap_or(0), 0, "must be closed");
        // The healthy connection still serves.
        let reply = roundtrip(
            &mut healthy,
            &Frame::AdminRequest {
                req_id: 7,
                req: AdminRequest::Ping,
            },
        );
        assert_eq!(
            reply,
            Frame::AdminReply {
                req_id: 7,
                reply: AdminReply::Pong
            }
        );
        srv.shutdown();
    }
}
