//! Layer probes: single-threaded timed loops over each layer's public
//! functions, in isolation. They price the steps a protocol is made of
//! (Gray & Lamport's message delays and forced writes, in this machine's
//! microseconds) for the budget table of the traced run.

use crate::run::Metric;
use crate::stats::median;
use amc_core::{CoordAction, CoordEvent, Coordinator};
use amc_engine::api::{EngineStats, RecoveryReport};
use amc_engine::{LocalEngine, PreparableEngine, TplConfig, TwoPLEngine};
use amc_epoll::{Interest, Poller, Waker};
use amc_lock::{BlockingLockManager, PageMode, SemanticMode};
use amc_mlt::{ConflictPolicy, L1LockManager};
use amc_net::comm::{EngineHandle, SubmitMode};
use amc_net::transport::{dispatch_to_manager, AdminRequest};
use amc_net::{LocalCommManager, Payload};
use amc_obs::{EventKind, ObsSink};
use amc_rpc::wire::{decode_frame, encode_frame};
use amc_rpc::{EventServer, Frame, FrameBuffer, MuxClient, RetryPolicy, RpcClient, SiteServer};
use amc_storage::PageStore;
use amc_types::{
    AbortReason, AmcResult, GlobalTxnId, GlobalVerdict, LocalRunState, LocalTxnId, LocalVote,
    ObjectId, OpResult, Operation, PageId, ProtocolKind, SiteId, Value,
};
use amc_wal::{GroupCommitConfig, GroupCommitter, LogManager, LogRecord, LogStats};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const BATCHES: usize = 7;
const BATCH_TIME: Duration = Duration::from_millis(12);

/// Median ns per call of `op` over [`BATCHES`] batches of about
/// [`BATCH_TIME`] each. `fresh` builds the state one batch works on, so a
/// structure that only grows (a log, a work map) starts each batch small.
fn time_ns<S>(mut fresh: impl FnMut() -> S, mut op: impl FnMut(&mut S, u64)) -> f64 {
    let mut batch = |iters: u64| {
        let mut state = fresh();
        let started = Instant::now();
        for i in 0..iters {
            op(&mut state, i);
        }
        started.elapsed()
    };
    let mut iters = 1u64;
    while batch(iters) < BATCH_TIME / 4 && iters < 1 << 24 {
        iters *= 4;
    }
    let iters = (iters as f64 * BATCH_TIME.as_secs_f64() / batch(iters).as_secs_f64().max(1e-9))
        .clamp(1.0, (1u64 << 26) as f64) as u64;
    let per_call: Vec<f64> = (0..BATCHES)
        .map(|_| batch(iters).as_nanos() as f64 / iters as f64)
        .collect();
    median(&per_call)
}

fn site(n: u32) -> SiteId {
    SiteId::new(n)
}

fn two_site_program() -> BTreeMap<SiteId, Vec<Operation>> {
    let incr = |obj, delta| Operation::Increment {
        obj: ObjectId::new(obj),
        delta,
    };
    BTreeMap::from([(site(1), vec![incr(1, -3)]), (site(2), vec![incr(2, 3)])])
}

/// One full coordinator cycle on a 2-site program, all votes yes: feed
/// every `Send` its expected reply until `Done`.
fn fsm_cycle(protocol: ProtocolKind, gtx: u64) {
    let mut coordinator = Coordinator::new(GlobalTxnId::new(gtx), protocol, two_site_program());
    let mut events = std::collections::VecDeque::from([CoordEvent::Start]);
    while let Some(event) = events.pop_front() {
        for action in coordinator.on_event(event) {
            if let CoordAction::Send { site, payload } = action {
                events.push_back(match payload {
                    Payload::Submit { .. } | Payload::Prepare { .. } => CoordEvent::Vote {
                        site,
                        vote: LocalVote::Ready,
                    },
                    _ => CoordEvent::Finished { site },
                });
            }
        }
    }
    assert!(coordinator.is_done(), "probe cycle must finish");
}

/// An engine that does nothing, so `net.dispatch_ns` prices the
/// communication manager alone.
struct NullEngine;

impl LocalEngine for NullEngine {
    fn begin(&self) -> AmcResult<LocalTxnId> {
        Ok(LocalTxnId::new(1))
    }
    fn execute(&self, _: LocalTxnId, _: &Operation) -> AmcResult<OpResult> {
        Ok(OpResult::Done)
    }
    fn commit(&self, _: LocalTxnId) -> AmcResult<()> {
        Ok(())
    }
    fn abort(&self, _: LocalTxnId, _: AbortReason) -> AmcResult<()> {
        Ok(())
    }
    fn state_of(&self, _: LocalTxnId) -> Option<LocalRunState> {
        Some(LocalRunState::Running)
    }
    fn is_up(&self) -> bool {
        true
    }
    fn crash(&self) {}
    fn recover(&self) -> AmcResult<RecoveryReport> {
        Ok(RecoveryReport::default())
    }
    fn kind(&self) -> &'static str {
        "null"
    }
    fn stats(&self) -> EngineStats {
        EngineStats::default()
    }
    fn dump(&self) -> AmcResult<BTreeMap<ObjectId, Value>> {
        Ok(BTreeMap::new())
    }
    fn bulk_load(&self, _: &[(ObjectId, Value)]) -> AmcResult<()> {
        Ok(())
    }
    fn log_stats(&self) -> LogStats {
        LogStats::default()
    }
}

impl PreparableEngine for NullEngine {
    fn prepare(&self, _: LocalTxnId) -> AmcResult<()> {
        Ok(())
    }
}

fn loaded_engine(objects: u64) -> Arc<TwoPLEngine> {
    let engine = TwoPLEngine::new_at(TplConfig::default(), site(1));
    let data: Vec<_> = (0..objects)
        .map(|i| (ObjectId::new(i), Value::counter(100)))
        .collect();
    engine.bulk_load(&data).expect("probe load");
    Arc::new(engine)
}

fn loaded_store(objects: u64) -> PageStore {
    let tpl = TplConfig::default();
    let mut store = PageStore::new(tpl.buckets, tpl.pool_frames);
    // Page by page, as the workloads load: in id order a store larger
    // than the pool pays an eviction per put.
    let mut ids: Vec<ObjectId> = (0..objects).map(ObjectId::new).collect();
    ids.sort_by_key(|id| store.page_of(*id));
    for id in ids {
        store.put(id, Value::counter(100)).expect("probe put");
    }
    store
}

fn submit_frame(req_id: u64) -> Frame {
    Frame::Request {
        req_id,
        payload: Payload::Submit {
            gtx: GlobalTxnId::new(req_id),
            ops: two_site_program().into_values().flatten().collect(),
        },
    }
}

/// `Waker::wake` → `Poller::wait` and back, across two threads: the
/// hand-off an event loop and its worker pool pay per request.
fn epoll_wake_rtt_us() -> f64 {
    let ping = (
        Poller::new().expect("epoll"),
        Waker::new().expect("eventfd"),
    );
    let pong = (
        Poller::new().expect("epoll"),
        Waker::new().expect("eventfd"),
    );
    ping.0
        .register(ping.1.fd(), 1, Interest::READ)
        .expect("register");
    pong.0
        .register(pong.1.fd(), 1, Interest::READ)
        .expect("register");
    let stop = std::sync::atomic::AtomicBool::new(false);
    let wait = |side: &(Poller, Waker)| {
        let mut events = Vec::new();
        while side
            .0
            .wait(&mut events, Some(Duration::from_millis(50)))
            .expect("wait")
            == 0
        {}
        side.1.drain();
    };
    std::thread::scope(|scope| {
        scope.spawn(|| loop {
            wait(&ping);
            if stop.load(std::sync::atomic::Ordering::SeqCst) {
                return;
            }
            pong.1.wake();
        });
        let ns = time_ns(
            || (),
            |_, _| {
                ping.1.wake();
                wait(&pong);
            },
        );
        stop.store(true, std::sync::atomic::Ordering::SeqCst);
        ping.1.wake();
        ns / 1e3
    })
}

/// Admin `Ping` round trip over loopback against a live site server.
fn ping_rtt_us(mux: bool) -> f64 {
    let manager = Arc::new(LocalCommManager::new(
        site(1),
        EngineHandle::Preparable(Arc::new(NullEngine)),
    ));
    let (mode, listen, obs) = (SubmitMode::CommitBefore, "127.0.0.1:0", ObsSink::disabled);
    let policy = RetryPolicy::default();
    if mux {
        let server = EventServer::spawn(site(1), manager, mode, listen, obs()).expect("bind");
        let client = MuxClient::new(site(1), server.addr(), policy, obs());
        let ns = time_ns(
            || (),
            |_, _| drop(black_box(client.admin(AdminRequest::Ping))),
        );
        drop(client);
        server.shutdown();
        ns / 1e3
    } else {
        let server = SiteServer::spawn(site(1), manager, mode, listen, obs()).expect("bind");
        let client = RpcClient::new(site(1), server.addr(), policy, obs());
        let ns = time_ns(
            || (),
            |_, _| drop(black_box(client.admin(AdminRequest::Ping))),
        );
        drop(client);
        server.shutdown();
        ns / 1e3
    }
}

/// A scratch directory inside the build tree (the benchmark may write
/// nowhere else), removed on drop.
struct ScratchDir(std::path::PathBuf);

impl ScratchDir {
    fn new() -> ScratchDir {
        let base = std::env::current_exe()
            .ok()
            .and_then(|exe| exe.parent().map(std::path::Path::to_path_buf))
            .unwrap_or_else(|| ".".into());
        let dir = base.join(format!("perf-probe-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create probe scratch dir");
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run every probe. Names and units are those of BENCHMARK.json.
pub fn all() -> Vec<Metric> {
    let mut out = Vec::new();
    let mut ns = |name: &str, value: f64| out.push(Metric::new(name, value, "ns"));

    for protocol in ProtocolKind::ALL {
        let cycle = time_ns(|| (), |_, i| fsm_cycle(protocol, i + 1));
        ns(&format!("core.fsm_cycle_ns.{}", protocol.label()), cycle);
    }

    // Submit + commit decision through the manager: its work map, vote
    // bookkeeping and marker op, over an engine that costs nothing.
    let ops: Vec<Operation> = two_site_program().remove(&site(1)).expect("site 1 ops");
    ns(
        "net.dispatch_ns",
        time_ns(
            || LocalCommManager::new(site(1), EngineHandle::Preparable(Arc::new(NullEngine))),
            |manager, i| {
                let gtx = GlobalTxnId::new(i + 1);
                let mode = SubmitMode::CommitAfter;
                let submit = Payload::Submit {
                    gtx,
                    ops: ops.clone(),
                };
                let decision = Payload::Decision {
                    gtx,
                    verdict: GlobalVerdict::Commit,
                };
                black_box(dispatch_to_manager(manager, submit, mode)).expect("submit");
                black_box(dispatch_to_manager(manager, decision, mode)).expect("decision");
            },
        ),
    );

    let bytes = encode_frame(&submit_frame(7));
    ns(
        "rpc.encode_ns",
        time_ns(
            || submit_frame(7),
            |frame, _| drop(black_box(encode_frame(frame))),
        ),
    );
    ns(
        "rpc.decode_ns",
        time_ns(|| (), |_, _| drop(black_box(decode_frame(&bytes)))),
    );
    ns(
        "rpc.framebuffer_ns",
        time_ns(FrameBuffer::new, |buf, _| {
            buf.extend(&bytes);
            black_box(buf.next_frame()).expect("whole frame");
        }),
    );

    let engine = loaded_engine(1_024);
    ns(
        "engine.txn_ns",
        time_ns(
            || (),
            |_, i| {
                let txn = engine.begin().expect("begin");
                for k in [i % 1_024, (i * 7 + 1) % 1_024] {
                    let op = Operation::Increment {
                        obj: ObjectId::new(k),
                        delta: 1,
                    };
                    engine.execute(txn, &op).expect("increment");
                }
                engine.commit(txn).expect("commit");
            },
        ),
    );

    let l0: BlockingLockManager<PageId, LocalTxnId, PageMode> =
        BlockingLockManager::new(Duration::from_millis(2));
    ns(
        "lock.l0_grant_release_ns",
        time_ns(
            || (),
            |_, i| {
                let txn = LocalTxnId::new(i + 1);
                let page = PageId::new((i % 64) as u32);
                black_box(l0.acquire(txn, page, PageMode::Exclusive, Duration::from_secs(1)));
                l0.release_txn(txn);
            },
        ),
    );
    let l1 = L1LockManager::new(ConflictPolicy::Semantic, Duration::from_secs(1));
    ns(
        "mlt.l1_grant_release_ns",
        time_ns(
            || (),
            |_, i| {
                let gtx = GlobalTxnId::new(i + 1);
                black_box(l1.acquire_mode(gtx, ObjectId::new(i % 64), SemanticMode::Increment));
                l1.release_all(gtx);
            },
        ),
    );

    let update = |i: u64| LogRecord::Update {
        txn: LocalTxnId::new(i),
        obj: ObjectId::new(i),
        before: Some(Value::counter(1)),
        after: Some(Value::counter(2)),
    };
    ns(
        "wal.append_ns",
        time_ns(LogManager::new, |log, i| {
            black_box(log.append(&update(i)));
        }),
    );
    ns(
        "wal.force_mem_ns",
        time_ns(LogManager::new, |log, i| {
            log.append(&update(i));
            log.force();
        }),
    );
    let group = || GroupCommitter::new(LogManager::new(), GroupCommitConfig::default());
    let group_ns = time_ns(group, |gc, i| {
        let txn = LocalTxnId::new(i);
        black_box(gc.append_durable(&LogRecord::Commit { txn }));
    });
    let scratch = ScratchDir::new();
    let fsync_ns = time_ns(
        || {
            let path = scratch.0.join("probe.wal");
            let _ = std::fs::remove_file(&path);
            LogManager::open_durable(&path).expect("open durable log")
        },
        |log, i| {
            log.append(&update(i));
            log.force();
        },
    );
    drop(scratch);

    let mut fit = loaded_store(1_024);
    let mut spill = loaded_store(65_536);
    // Weyl sequence: scattered keys without a random-number generator in
    // the timed loop.
    let key = |i: u64, n: u64| ObjectId::new(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) % n);
    ns(
        "storage.get_ns.fit",
        time_ns(|| (), |_, i| drop(black_box(fit.get(key(i, 1_024))))),
    );
    ns(
        "storage.put_ns.fit",
        time_ns(
            || (),
            |_, i| drop(black_box(fit.put(key(i, 1_024), Value::counter(i as i64)))),
        ),
    );
    ns(
        "storage.get_ns.spill",
        time_ns(|| (), |_, i| drop(black_box(spill.get(key(i, 65_536))))),
    );

    let disabled = ObsSink::disabled();
    ns(
        "obs.emit_disabled_ns",
        time_ns(
            || (),
            |_, _| black_box(&disabled).emit(None, site(1), EventKind::TxnStart),
        ),
    );
    ns(
        "obs.emit_enabled_ns",
        time_ns(
            || ObsSink::enabled(4_096),
            |sink, _| sink.emit(None, site(1), EventKind::TxnStart),
        ),
    );

    let mut us = |name: &str, value: f64| out.push(Metric::new(name, value, "us"));
    us("wal.group_append_durable_us", group_ns / 1e3);
    us("wal.force_fsync_us", fsync_ns / 1e3);
    us("rpc.ping_rtt_us.threaded", ping_rtt_us(false));
    us("rpc.ping_rtt_us.mux", ping_rtt_us(true));
    us("epoll.wake_rtt_us", epoll_wake_rtt_us());
    out
}
