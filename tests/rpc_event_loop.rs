//! The event-loop runtime and the framing/leak fixes it rides with.
//!
//! Four families:
//!
//! 1. **Slow-writer framing** — a client dribbling a valid frame one
//!    byte per read-timeout window must still be served by the blocking
//!    [`SiteServer`]. The old loop used `read_exact` under a 100 ms
//!    deadline: the first timeout mid-frame discarded the consumed
//!    bytes, desyncing the stream and killing a healthy connection.
//! 2. **Handle churn** — hundreds of sequential short-lived connections
//!    must not leave hundreds of retained `JoinHandle`s behind; the
//!    accept loop reaps finished handles.
//! 3. **Pipelining on the event loop** — many requests written
//!    back-to-back on one connection all get answered, matched by
//!    request id regardless of completion order; the thread that reads
//!    them serves only the first and queues the rest for its peers;
//!    flooding past the per-connection in-flight bound is answered with
//!    explicit `BufferExhausted` load-shed replies, not queueing or
//!    collapse — even with every thread but the last poller wedged.
//! 4. **End-to-end over mux** — callers that read their own replies hand
//!    the read half on and keep their deadlines; the full coordinator
//!    stack over [`TcpTransport::new_mux`] against [`EventServer`]s:
//!    concurrent transfer workloads commit, conserve the global sum, and
//!    survive a site-server restart in place.

use amc::core::{submit_mode_for, Federation, FederationConfig, TxnOutcome};
use amc::engine::{TplConfig, TwoPLEngine};
use amc::net::comm::EngineHandle;
use amc::net::transport::{AdminReply, AdminRequest, FederationTransport};
use amc::net::{LocalCommManager, Payload, SubmitMode};
use amc::obs::ObsSink;
use amc::rpc::wire::{read_frame, write_frame, CoordReply, CoordRequest};
use amc::rpc::{
    CoordInfo, CoordServer, EventServer, Frame, MuxClient, RetryPolicy, SiteServer, TcpTransport,
    MAX_IN_FLIGHT_PER_CONN,
};
use amc::types::{AmcError, GlobalTxnId, ObjectId, Operation, ProtocolKind, SiteId, Value};
use std::collections::BTreeMap;
use std::io::{Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn obj(site: u32, i: u64) -> ObjectId {
    ObjectId::new(u64::from(site) * (1 << 32) + i)
}

fn manager(site: SiteId, lock_timeout: Duration) -> Arc<LocalCommManager> {
    let cfg = TplConfig {
        lock_timeout,
        deadlock_check: Duration::from_millis(1),
        ..TplConfig::default()
    };
    let engine = Arc::new(TwoPLEngine::new_at(cfg, SiteId::new(1)));
    Arc::new(LocalCommManager::new(
        site,
        EngineHandle::Preparable(engine),
    ))
}

fn read_until(stream: &mut TcpStream, deadline: Instant) -> Frame {
    loop {
        match read_frame(stream) {
            Ok(f) => return f,
            Err(e) if e.is_timeout() && Instant::now() < deadline => continue,
            Err(e) => panic!("read: {e}"),
        }
    }
}

// ------------------------------------------------- slow-writer framing --

/// Feed `request` to the server at `addr` one byte per 110 ms — every
/// byte lands in a different 100 ms server read window, so the server
/// sees ~as many timeouts as bytes while the frame accumulates — and
/// return its reply.
fn dribble(addr: std::net::SocketAddr, request: &Frame) -> Frame {
    let mut conn = TcpStream::connect(addr).unwrap();
    for b in &amc::rpc::wire::encode_frame(request) {
        conn.write_all(std::slice::from_ref(b)).unwrap();
        conn.flush().unwrap();
        std::thread::sleep(Duration::from_millis(110));
    }
    conn.set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    read_until(&mut conn, Instant::now() + Duration::from_secs(5))
}

/// A frame fed one byte per (server) read-timeout window must parse; the
/// consumed prefix survives every timeout tick in between. Both servers
/// on the blocking runtime — site and coordinator — share the one serve
/// loop this pins.
#[test]
fn blocking_server_survives_one_byte_per_timeout_window() {
    let site = SiteId::new(1);
    let srv = SiteServer::spawn(
        site,
        manager(site, Duration::from_millis(200)),
        SubmitMode::CommitBefore,
        "127.0.0.1:0",
        ObsSink::disabled(),
    )
    .expect("bind loopback");
    let federation = Federation::new(FederationConfig::uniform(1, ProtocolKind::TwoPhaseCommit));
    let info = CoordInfo {
        slot: 0,
        coordinators: 1,
        epoch: 1,
        sites: vec![site],
    };
    let coord = CoordServer::spawn(Arc::new(federation), info, "127.0.0.1:0").expect("bind");

    let (site_reply, coord_reply) = std::thread::scope(|s| {
        let site_reply = s.spawn(|| {
            dribble(
                srv.addr(),
                &Frame::AdminRequest {
                    req_id: 9,
                    req: AdminRequest::Ping,
                },
            )
        });
        let coord_reply = dribble(
            coord.addr(),
            &Frame::CoordRequest {
                req_id: 11,
                req: CoordRequest::Ping,
            },
        );
        (site_reply.join().unwrap(), coord_reply)
    });
    assert_eq!(
        site_reply,
        Frame::AdminReply {
            req_id: 9,
            reply: AdminReply::Pong
        }
    );
    assert_eq!(
        coord_reply,
        Frame::CoordReply {
            req_id: 11,
            reply: CoordReply::Pong
        }
    );
    srv.shutdown();
    coord.shutdown();
}

// ----------------------------------------------------------- churn leak --

/// Several hundred sequential connections must not accumulate several
/// hundred retained connection-thread handles.
#[test]
fn connection_churn_keeps_retained_handles_bounded() {
    let site = SiteId::new(1);
    let srv = SiteServer::spawn(
        site,
        manager(site, Duration::from_millis(200)),
        SubmitMode::CommitBefore,
        "127.0.0.1:0",
        ObsSink::disabled(),
    )
    .expect("bind loopback");

    const CHURN: usize = 300;
    for i in 0..CHURN {
        let mut conn = TcpStream::connect(srv.addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        write_frame(
            &mut conn,
            &Frame::AdminRequest {
                req_id: i as u64,
                req: AdminRequest::Ping,
            },
        )
        .unwrap();
        let reply = read_until(&mut conn, Instant::now() + Duration::from_secs(5));
        assert_eq!(reply.req_id(), i as u64);
        // Dropping `conn` closes it; its server thread finishes within a
        // read-timeout tick and the next accept reaps the handle.
    }
    // Give the last few threads a moment to notice their sockets closed,
    // then churn one more connection so the accept loop reaps.
    std::thread::sleep(Duration::from_millis(300));
    let _probe = TcpStream::connect(srv.addr()).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    let retained = srv.connection_threads();
    assert!(
        retained < CHURN / 4,
        "{retained} connection-thread handles retained after churning {CHURN} connections"
    );
    srv.shutdown();
}

// ------------------------------------------------ event-loop pipelining --

/// N requests written back-to-back on one connection all come back,
/// matched by request id, regardless of the order the workers finish.
#[test]
fn event_server_answers_pipelined_requests_by_id() {
    let site = SiteId::new(1);
    let srv = EventServer::spawn(
        site,
        manager(site, Duration::from_millis(200)),
        SubmitMode::CommitBefore,
        "127.0.0.1:0",
        ObsSink::disabled(),
    )
    .expect("bind loopback");

    let mut conn = TcpStream::connect(srv.addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    // Fewer than the in-flight bound, so none shed. A mix of instant
    // pings and real submits keeps worker completion order honest.
    const N: u64 = 32;
    let mut batch = Vec::new();
    for i in 0..N {
        let frame = if i.is_multiple_of(2) {
            Frame::AdminRequest {
                req_id: 1000 + i,
                req: AdminRequest::Ping,
            }
        } else {
            Frame::Request {
                req_id: 1000 + i,
                payload: Payload::Submit {
                    gtx: GlobalTxnId::new(i),
                    ops: vec![Operation::Read { obj: obj(1, 0) }],
                },
            }
        };
        batch.extend_from_slice(&amc::rpc::wire::encode_frame(&frame));
    }
    conn.write_all(&batch).unwrap();

    let deadline = Instant::now() + Duration::from_secs(10);
    let mut seen = std::collections::BTreeSet::new();
    while seen.len() < N as usize {
        let reply = read_until(&mut conn, deadline);
        assert!(
            (1000..1000 + N).contains(&reply.req_id()),
            "reply to unknown id {}",
            reply.req_id()
        );
        assert!(seen.insert(reply.req_id()), "duplicate reply");
        match reply {
            Frame::AdminReply { .. } | Frame::Reply { .. } => {}
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(srv.stats().load_sheds, 0, "nothing should have shed");
    srv.shutdown();
}

/// One read, two requests: a submit that blocks on a held page lock and
/// the holder's decision that releases it. The thread that read them
/// serves one and queues the other for a peer, so the decision never
/// waits behind the blocked submit on one thread — both replies come
/// back long before the 5 s lock timeout.
#[test]
fn event_server_serves_the_first_request_inline_and_queues_the_rest() {
    let site = SiteId::new(1);
    let mgr = manager(site, Duration::from_secs(5));
    mgr.handle()
        .engine()
        .bulk_load(&[(obj(1, 0), Value::counter(0))])
        .unwrap();
    let srv = EventServer::spawn(
        site,
        mgr,
        SubmitMode::TwoPhase,
        "127.0.0.1:0",
        ObsSink::disabled(),
    )
    .expect("bind loopback");
    let submit = |gtx: u64| Frame::Request {
        req_id: gtx,
        payload: Payload::Submit {
            gtx: GlobalTxnId::new(gtx),
            ops: vec![Operation::Increment {
                obj: obj(1, 0),
                delta: 1,
            }],
        },
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut holder = TcpStream::connect(srv.addr()).unwrap();
    holder
        .set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    write_frame(&mut holder, &submit(1)).unwrap();
    let held = read_until(&mut holder, deadline);
    assert!(
        matches!(&held, Frame::Reply { payload: Payload::Vote { vote, .. }, .. } if vote.is_yes()),
        "the holder must vote yes and keep its page lock: {held:?}"
    );

    let mut conn = TcpStream::connect(srv.addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    let mut batch = amc::rpc::wire::encode_frame(&submit(2));
    batch.extend_from_slice(&amc::rpc::wire::encode_frame(&Frame::Request {
        req_id: 3,
        payload: Payload::Decision {
            gtx: GlobalTxnId::new(1),
            verdict: amc::types::GlobalVerdict::Abort,
        },
    }));
    let started = Instant::now();
    conn.write_all(&batch).unwrap();
    let answered: std::collections::BTreeSet<u64> = (0..2)
        .map(|_| read_until(&mut conn, deadline).req_id())
        .collect();
    let took = started.elapsed();
    assert_eq!(answered, [2, 3].into());
    assert!(
        took < Duration::from_secs(2),
        "the decision queued behind the submit it unblocks: {took:?}"
    );
    srv.shutdown();
}

/// Flooding one connection far past the in-flight bound while every
/// worker is wedged behind a lock produces explicit `BufferExhausted`
/// load-shed replies for the excess — the server answers instead of
/// queueing without bound.
#[test]
fn event_server_sheds_load_past_the_in_flight_bound() {
    let site = SiteId::new(1);
    // Two-phase mode: a submit executes and *holds its locks* until the
    // decision, so one committed-to-lock transaction wedges every later
    // submit on the same object for the whole lock timeout.
    let srv = EventServer::spawn(
        site,
        manager(site, Duration::from_secs(3)),
        SubmitMode::TwoPhase,
        "127.0.0.1:0",
        ObsSink::disabled(),
    )
    .expect("bind loopback");

    let mut conn = TcpStream::connect(srv.addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    write_frame(
        &mut conn,
        &Frame::Request {
            req_id: 1,
            payload: Payload::Submit {
                gtx: GlobalTxnId::new(1),
                ops: vec![Operation::Increment {
                    obj: obj(1, 0),
                    delta: 1,
                }],
            },
        },
    )
    .unwrap();
    let first = read_until(&mut conn, Instant::now() + Duration::from_secs(5));
    assert!(matches!(first, Frame::Reply { req_id: 1, .. }), "{first:?}");

    // The lock on obj(1,0) is now held. Flood: every one of these blocks
    // a worker (or waits dispatched); past the bound they must shed.
    const FLOOD: u64 = 3 * MAX_IN_FLIGHT_PER_CONN as u64;
    let mut batch = Vec::new();
    for i in 0..FLOOD {
        batch.extend_from_slice(&amc::rpc::wire::encode_frame(&Frame::Request {
            req_id: 100 + i,
            payload: Payload::Submit {
                gtx: GlobalTxnId::new(100 + i),
                ops: vec![Operation::Increment {
                    obj: obj(1, 0),
                    delta: 1,
                }],
            },
        }));
    }
    conn.write_all(&batch).unwrap();

    let deadline = Instant::now() + Duration::from_secs(30);
    let mut shed = 0u64;
    let mut answered = 0u64;
    while answered < FLOOD {
        let reply = read_until(&mut conn, deadline);
        answered += 1;
        if matches!(
            reply,
            Frame::ErrorReply {
                error: AmcError::BufferExhausted,
                ..
            }
        ) {
            shed += 1;
        }
    }
    assert!(
        shed > 0,
        "flooding {FLOOD} requests past the {MAX_IN_FLIGHT_PER_CONN} bound shed nothing"
    );
    assert_eq!(srv.stats().load_sheds, shed, "stats disagree with the wire");
    // Unwedge: abort the lock holder so shutdown isn't stuck behind it.
    write_frame(
        &mut conn,
        &Frame::Request {
            req_id: 2,
            payload: Payload::Decision {
                gtx: GlobalTxnId::new(1),
                verdict: amc::types::GlobalVerdict::Abort,
            },
        },
    )
    .unwrap();
    srv.shutdown();
}

/// The last poller only reads. A first flood of `MAX_IN_FLIGHT_PER_CONN`
/// submits behind a held page lock wedges every thread that may serve;
/// a second flood on the same connection must still be read and shed at
/// once — by the one thread the server keeps polling — not when the
/// first lock wait times out.
#[test]
fn event_server_keeps_reading_and_shedding_with_every_thread_wedged() {
    let site = SiteId::new(1);
    let lock_timeout = Duration::from_secs(1);
    let mgr = manager(site, lock_timeout);
    mgr.handle()
        .engine()
        .bulk_load(&[(obj(1, 0), Value::counter(0))])
        .unwrap();
    let srv = EventServer::spawn(
        site,
        mgr,
        SubmitMode::TwoPhase,
        "127.0.0.1:0",
        ObsSink::disabled(),
    )
    .expect("bind loopback");
    let submit = |gtx: u64| Frame::Request {
        req_id: gtx,
        payload: Payload::Submit {
            gtx: GlobalTxnId::new(gtx),
            ops: vec![Operation::Increment {
                obj: obj(1, 0),
                delta: 1,
            }],
        },
    };
    let flood = |from: u64| -> Vec<u8> {
        (from..from + MAX_IN_FLIGHT_PER_CONN as u64)
            .flat_map(|gtx| amc::rpc::wire::encode_frame(&submit(gtx)))
            .collect()
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut holder = TcpStream::connect(srv.addr()).unwrap();
    holder
        .set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    write_frame(&mut holder, &submit(1)).unwrap();
    let held = read_until(&mut holder, deadline);
    assert!(
        matches!(&held, Frame::Reply { payload: Payload::Vote { vote, .. }, .. } if vote.is_yes()),
        "the holder must vote yes and keep its page lock: {held:?}"
    );

    let mut conn = TcpStream::connect(srv.addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    conn.write_all(&flood(100)).unwrap();
    // Give the first flood's queue time to wake every thread onto the lock.
    std::thread::sleep(Duration::from_millis(100));
    let started = Instant::now();
    conn.write_all(&flood(1_000)).unwrap();
    for _ in 0..MAX_IN_FLIGHT_PER_CONN {
        let reply = read_until(&mut conn, deadline);
        assert!(
            matches!(
                reply,
                Frame::ErrorReply {
                    error: AmcError::BufferExhausted,
                    ..
                }
            ),
            "{reply:?}"
        );
    }
    let took = started.elapsed();
    assert!(
        took < lock_timeout / 2,
        "the second flood waited for a wedged thread: {took:?}"
    );
    srv.shutdown();
}

/// A peer that floods requests while never reading a single reply must
/// not grow the server's per-connection write buffer without bound: past
/// `MAX_WBUF_BYTES` of unread replies the server closes the connection —
/// and keeps serving everyone else. Mirrors the slow-writer test above,
/// from the other side of the socket.
#[test]
fn event_server_closes_a_stalled_reader_instead_of_buffering_without_bound() {
    let site = SiteId::new(1);
    let mgr = manager(site, Duration::from_millis(200));
    let srv = EventServer::spawn(
        site,
        Arc::clone(&mgr),
        SubmitMode::CommitBefore,
        "127.0.0.1:0",
        ObsSink::disabled(),
    )
    .expect("bind loopback");
    // A large committed state makes every Dump reply big, so a few
    // unread replies overflow the bound even past the kernel's socket
    // buffers.
    let data: Vec<(ObjectId, Value)> = (0..40_000)
        .map(|i| (obj(1, i), Value::counter(i as i64)))
        .collect();
    mgr.handle().engine().bulk_load(&data).unwrap();

    let mut stalled = TcpStream::connect(srv.addr()).unwrap();
    const DUMPS: u64 = 32;
    let mut batch = Vec::new();
    for i in 0..DUMPS {
        batch.extend_from_slice(&amc::rpc::wire::encode_frame(&Frame::AdminRequest {
            req_id: i,
            req: AdminRequest::Dump,
        }));
    }
    stalled.write_all(&batch).unwrap();
    // Never read. The replies pile up server-side until the bound trips.
    let deadline = Instant::now() + Duration::from_secs(30);
    while srv.stats().wbuf_overflows == 0 {
        assert!(
            Instant::now() < deadline,
            "server never shed the stalled reader: {:?}",
            srv.stats()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // The stalled connection was closed: draining what the kernel
    // already buffered must end in EOF or a reset, not more replies
    // forever.
    stalled
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut sink = [0u8; 64 * 1024];
    loop {
        match stalled.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => continue,
        }
    }
    // Everyone else is still served.
    let mut probe = TcpStream::connect(srv.addr()).unwrap();
    probe
        .set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    write_frame(
        &mut probe,
        &Frame::AdminRequest {
            req_id: 99,
            req: AdminRequest::Ping,
        },
    )
    .unwrap();
    let reply = read_until(&mut probe, Instant::now() + Duration::from_secs(5));
    assert_eq!(
        reply,
        Frame::AdminReply {
            req_id: 99,
            reply: AdminReply::Pong
        }
    );
    srv.shutdown();
}

/// A peer that hangs up while a worker still holds its reply: the worker
/// answers into a closed connection without panicking, and the loop drops
/// the connection once that last in-flight request is accounted for.
#[test]
fn event_server_drops_a_peer_that_left_before_its_reply() {
    let site = SiteId::new(1);
    let srv = EventServer::spawn(
        site,
        manager(site, Duration::from_secs(10)),
        SubmitMode::TwoPhase,
        "127.0.0.1:0",
        ObsSink::disabled(),
    )
    .expect("bind loopback");
    let submit = |gtx: u64| Frame::Request {
        req_id: gtx,
        payload: Payload::Submit {
            gtx: GlobalTxnId::new(gtx),
            ops: vec![Operation::Increment {
                obj: obj(1, 0),
                delta: 1,
            }],
        },
    };
    let deadline = Instant::now() + Duration::from_secs(10);

    // The holder's submit keeps its page lock until the decision...
    let mut holder = TcpStream::connect(srv.addr()).unwrap();
    holder
        .set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    write_frame(&mut holder, &submit(1)).unwrap();
    read_until(&mut holder, deadline);
    // ...so the leaver's submit wedges a worker, and the leaver hangs up
    // on it.
    let mut leaver = TcpStream::connect(srv.addr()).unwrap();
    write_frame(&mut leaver, &submit(2)).unwrap();
    while srv.stats().dispatched < 2 {
        assert!(Instant::now() < deadline, "{:?}", srv.stats());
        std::thread::yield_now();
    }
    drop(leaver);
    // Release the lock: the wedged worker finishes and answers nobody.
    write_frame(
        &mut holder,
        &Frame::Request {
            req_id: 3,
            payload: Payload::Decision {
                gtx: GlobalTxnId::new(1),
                verdict: amc::types::GlobalVerdict::Abort,
            },
        },
    )
    .unwrap();
    read_until(&mut holder, deadline);
    drop(holder);
    while srv.stats().current_connections > 0 {
        assert!(
            Instant::now() < deadline,
            "connection leaked: {:?}",
            srv.stats()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(srv.stats().dispatched, 3);
    srv.shutdown();
}

// ------------------------------------------------------ mux end-to-end --

/// Hammer the mux client's timeout path: a server whose reply delays
/// straddle the client's request timeout forces constant races between
/// the caller's deadline withdraw and the reading caller's completion.
/// Every call must eventually succeed (retries absorb the genuinely
/// late replies), none may panic, cross replies, or wedge the channel.
#[test]
fn mux_client_survives_short_timeouts_racing_delayed_replies() {
    // A hand-rolled server so the reply delay is controllable: each
    // request is answered from its own thread after a deterministic
    // per-request delay spanning 2..26 ms around the client's 12 ms
    // deadline. Accepts any number of connections so a client redial
    // (poisoned channel) is also served.
    use std::sync::atomic::{AtomicBool, Ordering};
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let server = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            listener.set_nonblocking(true).unwrap();
            std::thread::scope(|scope| {
                while !stop.load(Ordering::Relaxed) {
                    let (stream, _) = match listener.accept() {
                        Ok(s) => s,
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(5));
                            continue;
                        }
                        Err(_) => return,
                    };
                    let stop = Arc::clone(&stop);
                    scope.spawn(move || {
                        stream.set_nonblocking(false).unwrap();
                        // As the real servers do: without it Nagle holds
                        // a reply behind an unacknowledged one, past the
                        // delay this server means to give it.
                        stream.set_nodelay(true).unwrap();
                        let write_half =
                            std::sync::Mutex::new(stream.try_clone().expect("clone socket"));
                        let mut read_half = stream;
                        read_half
                            .set_read_timeout(Some(Duration::from_millis(100)))
                            .unwrap();
                        std::thread::scope(|replies| loop {
                            if stop.load(Ordering::Relaxed) {
                                return;
                            }
                            let frame = match amc::rpc::wire::read_frame(&mut read_half) {
                                Ok(f) => f,
                                Err(e) if e.is_timeout() => continue,
                                Err(_) => return,
                            };
                            let req_id = frame.req_id();
                            let reply = match frame {
                                Frame::Request { payload, .. } => Frame::Reply {
                                    req_id,
                                    payload: Payload::Finished { gtx: payload.gtx() },
                                },
                                _ => Frame::AdminReply {
                                    req_id,
                                    reply: AdminReply::Pong,
                                },
                            };
                            let write_half = &write_half;
                            replies.spawn(move || {
                                std::thread::sleep(Duration::from_millis(2 + (req_id * 7) % 25));
                                let _ = write_frame(&mut *write_half.lock().unwrap(), &reply);
                            });
                        });
                    });
                }
            });
        })
    };

    let policy = RetryPolicy {
        connect_timeout: Duration::from_millis(500),
        request_timeout: Duration::from_millis(12),
        max_attempts: 40,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(4),
    };
    let client = Arc::new(MuxClient::new(
        SiteId::new(1),
        addr,
        policy,
        ObsSink::disabled(),
    ));
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let client = Arc::clone(&client);
            scope.spawn(move || {
                for _ in 0..40 {
                    let reply = client.admin(AdminRequest::Ping).expect("eventually served");
                    assert_eq!(reply, AdminReply::Pong);
                }
            });
        }
    });
    // The same race through split-phase rounds: both of a round's
    // requests are in flight together, and a send whose first attempt
    // timed out retries inside its own finish while the other's reply
    // waits in its slot.
    let sites = [SiteId::new(1), SiteId::new(2)];
    let addrs = sites.iter().map(|&s| (s, addr)).collect();
    let transport = TcpTransport::new_mux(addrs, policy, ObsSink::disabled());
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let transport = &transport;
            scope.spawn(move || {
                for i in 0..20 {
                    let gtx = GlobalTxnId::new(1 + t * 100 + i);
                    let round = sites.map(|s| (s, Payload::Prepare { gtx })).to_vec();
                    for reply in transport.call_round(round) {
                        assert_eq!(reply.expect("eventually served"), Payload::Finished { gtx });
                    }
                }
            });
        }
    });
    stop.store(true, Ordering::Relaxed);
    drop(client); // closes the socket; the connection handler sees EOF
    drop(transport);
    server.join().unwrap();
}

/// Two callers share one `MuxClient` against a server that answers the
/// first request it reads at once and the second 20 ms later. Whichever
/// caller reads the first reply leaves the read half to the other; a
/// missed hand-off would park that caller for a whole 100 ms read tick.
#[test]
fn mux_caller_hands_the_read_half_to_the_caller_still_waiting() {
    const ROUNDS: usize = 20;
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        let mut answer = |delay: Duration| {
            let req_id = read_frame(&mut conn).unwrap().req_id();
            std::thread::sleep(delay);
            let pong = Frame::AdminReply {
                req_id,
                reply: AdminReply::Pong,
            };
            write_frame(&mut conn, &pong).unwrap();
        };
        for _ in 0..ROUNDS {
            answer(Duration::ZERO);
            answer(Duration::from_millis(20));
        }
    });
    let policy = RetryPolicy {
        max_attempts: 1,
        ..RetryPolicy::default()
    };
    let client = MuxClient::new(SiteId::new(1), addr, policy, ObsSink::disabled());
    for round in 0..ROUNDS {
        let barrier = std::sync::Barrier::new(2);
        let slowest = std::thread::scope(|s| {
            let callers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        let started = Instant::now();
                        assert_eq!(client.admin(AdminRequest::Ping).unwrap(), AdminReply::Pong);
                        started.elapsed()
                    })
                })
                .collect();
            callers.into_iter().map(|c| c.join().unwrap()).max()
        });
        let slowest = slowest.unwrap();
        assert!(
            slowest < Duration::from_millis(80),
            "round {round}: the second caller took {slowest:?}"
        );
    }
    server.join().unwrap();
}

/// A caller reading for itself never blocks past its own deadline:
/// against a server that accepts and never answers, a 30 ms request
/// timeout with one attempt ends in `SiteDown` well inside one 100 ms
/// read tick.
#[test]
fn mux_caller_reading_its_own_reply_keeps_its_deadline() {
    // Connections complete in the listener's backlog; nobody accepts.
    let silent = TcpListener::bind("127.0.0.1:0").unwrap();
    let policy = RetryPolicy {
        request_timeout: Duration::from_millis(30),
        max_attempts: 1,
        ..RetryPolicy::default()
    };
    let client = MuxClient::new(
        SiteId::new(1),
        silent.local_addr().unwrap(),
        policy,
        ObsSink::disabled(),
    );
    let started = Instant::now();
    let err = client.admin(AdminRequest::Ping).unwrap_err();
    let took = started.elapsed();
    assert!(matches!(err, AmcError::SiteDown(_)), "{err:?}");
    assert!(took < Duration::from_millis(80), "took {took:?}");
}

/// Many threads calling through ONE `MuxClient` — one socket — all get
/// their own answers back.
#[test]
fn mux_client_multiplexes_concurrent_callers() {
    let site = SiteId::new(1);
    let srv = EventServer::spawn(
        site,
        manager(site, Duration::from_millis(500)),
        SubmitMode::CommitBefore,
        "127.0.0.1:0",
        ObsSink::disabled(),
    )
    .expect("bind loopback");

    let client = Arc::new(MuxClient::new(
        site,
        srv.addr(),
        RetryPolicy::default(),
        ObsSink::disabled(),
    ));
    client
        .admin(AdminRequest::Load(vec![(obj(1, 0), Value::counter(0))]))
        .expect("load");

    std::thread::scope(|scope| {
        for t in 0..16u64 {
            let client = Arc::clone(&client);
            scope.spawn(move || {
                for i in 0..20u64 {
                    let gtx = GlobalTxnId::new(1 + t * 100 + i);
                    let reply = client
                        .call(Payload::Submit {
                            gtx,
                            ops: vec![Operation::Increment {
                                obj: obj(1, 0),
                                delta: 1,
                            }],
                        })
                        .expect("submit");
                    match reply {
                        Payload::Vote { gtx: g, vote } => {
                            assert_eq!(g, gtx, "reply crossed to the wrong caller");
                            assert!(vote.is_yes());
                        }
                        other => panic!("unexpected {other}"),
                    }
                }
            });
        }
    });
    // 16 threads × 20 increments over one socket: all applied.
    match client.admin(AdminRequest::Dump).expect("dump") {
        AdminReply::Dump(d) => assert_eq!(d.get(&obj(1, 0)).map(|v| v.counter), Some(320)),
        other => panic!("unexpected {other:?}"),
    }
    // All of that rode exactly one connection.
    assert_eq!(srv.stats().peak_connections, 1);
    srv.shutdown();
}

/// The full coordinator stack over the mux transport against event-loop
/// servers: concurrent transfers commit, the sum is conserved, and a
/// server restart in place is survived.
#[test]
fn federation_over_mux_and_event_servers_conserves_and_survives_restart() {
    const SITES: u32 = 2;
    const OBJS: u64 = 8;
    const PER_OBJ: i64 = 100;
    let protocol = ProtocolKind::TwoPhaseCommit;
    let mut cfg = FederationConfig::uniform(SITES, protocol);
    cfg.tpl.lock_timeout = Duration::from_millis(200);
    cfg.tpl.deadlock_check = Duration::from_millis(1);
    let policy = RetryPolicy {
        connect_timeout: Duration::from_millis(200),
        request_timeout: Duration::from_secs(2),
        max_attempts: 6,
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(40),
    };
    let mode = submit_mode_for(protocol);
    let spawn = |manager: &Arc<LocalCommManager>, listen: &str| {
        let site = manager.site();
        EventServer::spawn(site, Arc::clone(manager), mode, listen, ObsSink::disabled())
            .expect("bind loopback")
    };
    let sites = cfg.open_sites();
    let mut servers: Vec<EventServer> = sites
        .iter()
        .map(|s| spawn(s.manager(), "127.0.0.1:0"))
        .collect();
    let addrs = servers.iter().map(|s| (s.site(), s.addr())).collect();
    let transport = Arc::new(TcpTransport::new_mux(addrs, policy, ObsSink::disabled()));
    assert!(transport.supports_pipelining());
    let fed = Arc::new(Federation::with_transport(cfg, transport));
    for s in 1..=SITES {
        let data: Vec<(ObjectId, Value)> = (0..OBJS)
            .map(|i| (obj(s, i), Value::counter(PER_OBJ)))
            .collect();
        fed.load_site(SiteId::new(s), &data).expect("load");
    }

    let run = |base: u64, n: u64| {
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for t in 0..4u64 {
                let fed = Arc::clone(&fed);
                handles.push(scope.spawn(move || {
                    let mut committed = 0u64;
                    for i in 0..n {
                        let k = base + t * n + i;
                        let amt = 1 + (k % 5) as i64;
                        let (a, b) = if k.is_multiple_of(2) {
                            (1u32, 2u32)
                        } else {
                            (2, 1)
                        };
                        let program = BTreeMap::from([
                            (
                                SiteId::new(a),
                                vec![Operation::Increment {
                                    obj: obj(a, k % OBJS),
                                    delta: -amt,
                                }],
                            ),
                            (
                                SiteId::new(b),
                                vec![Operation::Increment {
                                    obj: obj(b, (k + 3) % OBJS),
                                    delta: amt,
                                }],
                            ),
                        ]);
                        for attempt in 0..8 {
                            match fed.run_transaction(&program) {
                                Ok(r) => {
                                    if r.outcome == TxnOutcome::Committed {
                                        committed += 1;
                                    }
                                    break;
                                }
                                Err(_) if attempt < 7 => {
                                    std::thread::sleep(Duration::from_millis(50))
                                }
                                Err(e) => panic!("txn {k} never got through: {e}"),
                            }
                        }
                    }
                    committed
                }));
            }
            handles.into_iter().map(|h| h.join().unwrap()).sum::<u64>()
        })
    };

    let before = run(0, 8);
    assert!(before > 0, "nothing committed before restart");

    // Restart site 2's server in place: its listener goes down, the site
    // restarts as a killed process would, and a new server binds the same
    // port.
    // The mux client must redial through its retry path.
    let old = servers.pop().expect("site 2's server");
    assert_eq!(old.site(), SiteId::new(2));
    let addr = old.addr();
    old.shutdown();
    sites[1].restart().expect("restart site 2");
    servers.push(spawn(sites[1].manager(), &addr.to_string()));
    assert_eq!(servers[1].addr(), addr);

    let after = run(1000, 8);
    assert!(after > 0, "nothing committed after restart");

    let dumps = fed.dumps().expect("dumps");
    let sum: i64 = dumps
        .values()
        .flat_map(|d| d.values())
        .map(|v| v.counter)
        .sum();
    assert_eq!(sum, i64::from(SITES) * OBJS as i64 * PER_OBJ);
}
