//! Spans recorded from outside the program: timing decorators around the
//! two trait boundaries the federation exposes — [`FederationTransport`]
//! (one `call` span per coordinator→site exchange) and
//! [`LocalEngine`]/[`PreparableEngine`] (one span per engine entry point)
//! — plus the `txn` span the client loop records around
//! `run_transaction`. Spans stay in memory until the slice ends.
//!
//! Linking: a `call` carries the global transaction id of its payload, so
//! it joins its `txn` exactly, fan-out threads included. An engine span
//! takes the `call` open on its own thread as parent — exact in-process,
//! where the manager runs on the caller's thread. Behind TCP the engine
//! runs on a server thread the benchmark cannot see into, so those spans
//! carry site and time only (parent 0); joining them is in-program
//! tracing, ROADMAP item 3.

use amc_engine::api::{EngineStats, RecoveryReport};
use amc_engine::{LocalEngine, PreparableEngine, TwoPLEngine};
use amc_net::transport::{AdminReply, AdminRequest, FederationTransport};
use amc_net::Payload;
use amc_types::{
    AbortReason, AmcResult, LocalRunState, LocalTxnId, ObjectId, OpResult, Operation, SiteId, Value,
};
use amc_wal::LogStats;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What a span measured. `Txn*` is the client's view of one
/// `run_transaction` attempt, by outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    TxnCommitted,
    TxnAborted,
    TxnRejected,
    Call(&'static str),
    EngineBegin,
    EngineExecute,
    EnginePrepare,
    EngineCommit,
    EngineAbort,
}

impl SpanKind {
    pub fn is_txn(self) -> bool {
        matches!(
            self,
            SpanKind::TxnCommitted | SpanKind::TxnAborted | SpanKind::TxnRejected
        )
    }

    pub fn is_call(self) -> bool {
        matches!(self, SpanKind::Call(_))
    }

    pub fn is_engine(self) -> bool {
        matches!(
            self,
            SpanKind::EngineBegin
                | SpanKind::EngineExecute
                | SpanKind::EnginePrepare
                | SpanKind::EngineCommit
                | SpanKind::EngineAbort
        )
    }

    fn name(self) -> String {
        match self {
            SpanKind::TxnCommitted => "txn.committed".into(),
            SpanKind::TxnAborted => "txn.aborted".into(),
            SpanKind::TxnRejected => "txn.l1-rejected".into(),
            SpanKind::Call(label) => format!("call.{label}"),
            SpanKind::EngineBegin => "engine.begin".into(),
            SpanKind::EngineExecute => "engine.execute".into(),
            SpanKind::EnginePrepare => "engine.prepare".into(),
            SpanKind::EngineCommit => "engine.commit".into(),
            SpanKind::EngineAbort => "engine.abort".into(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// The causing span; 0 for a root (or an unjoinable server-side span).
    pub parent: u64,
    /// Global transaction id shared by every span of one attempt; 0 when
    /// unknown (server-side engine spans).
    pub gtx: u64,
    pub kind: SpanKind,
    /// Site the work ran at; 0 for the central system.
    pub site: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans are pushed from client threads and from every server thread;
/// sharding the buffer keeps the recorder itself off the contended path.
const SHARDS: usize = 16;

thread_local! {
    /// The `call` span open on this thread: (span id, gtx).
    static OPEN_CALL: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    next_shard: AtomicUsize,
    shards: Vec<Mutex<Vec<Span>>>,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            next_shard: AtomicUsize::new(0),
            shards: (0..SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) {
        let shard = SHARD.with(|s| {
            if s.get() == usize::MAX {
                s.set(self.next_shard.fetch_add(1, Ordering::Relaxed) % SHARDS);
            }
            s.get()
        });
        self.shards[shard].lock().expect("span shard").push(span);
    }

    /// Time `f` as a span of `kind` under the call open on this thread.
    fn timed<R>(&self, kind: SpanKind, site: SiteId, f: impl FnOnce() -> R) -> R {
        let (parent, gtx) = OPEN_CALL.with(Cell::get);
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.push(Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            gtx,
            kind,
            site: site.raw(),
            start_ns,
            end_ns,
        });
        out
    }

    /// Record the client-side span of one finished `run_transaction`.
    pub fn record_txn(&self, kind: SpanKind, gtx: u64, started: Instant, ended: Instant) {
        self.push(Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: 0,
            gtx,
            kind,
            site: 0,
            start_ns: started.duration_since(self.epoch).as_nanos() as u64,
            end_ns: ended.duration_since(self.epoch).as_nanos() as u64,
        });
    }

    /// Drop everything recorded so far (the warm-up). Callers quiesce the
    /// federation first.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().expect("span shard").clear();
        }
    }

    /// Take every span, with each `call` re-parented onto the `txn` span
    /// of its global transaction.
    pub fn drain(&self) -> Vec<Span> {
        let mut spans: Vec<Span> = Vec::new();
        for shard in &self.shards {
            spans.append(&mut shard.lock().expect("span shard"));
        }
        let txn_of: std::collections::HashMap<u64, u64> = spans
            .iter()
            .filter(|s| s.kind.is_txn())
            .map(|s| (s.gtx, s.id))
            .collect();
        for s in spans.iter_mut().filter(|s| s.kind.is_call()) {
            s.parent = txn_of.get(&s.gtx).copied().unwrap_or(0);
        }
        spans.sort_by_key(|s| s.start_ns);
        spans
    }
}

/// Append `spans` to `out` as tab-separated rows: protocol, id, parent,
/// gtx, name, site, start_ns, end_ns.
pub fn write_spans(
    out: &mut impl std::io::Write,
    protocol: &str,
    spans: &[Span],
) -> std::io::Result<()> {
    for s in spans {
        writeln!(
            out,
            "{protocol}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id,
            s.parent,
            s.gtx,
            s.kind.name(),
            s.site,
            s.start_ns,
            s.end_ns
        )?;
    }
    Ok(())
}

/// A transport that records one `call` span per protocol exchange.
pub struct TimedTransport {
    pub inner: Arc<dyn FederationTransport>,
    pub tracer: Arc<Tracer>,
}

impl FederationTransport for TimedTransport {
    fn sites(&self) -> Vec<SiteId> {
        self.inner.sites()
    }

    fn call(&self, to: SiteId, payload: Payload) -> AmcResult<Payload> {
        let t = &self.tracer;
        let (id, gtx) = (
            t.next_id.fetch_add(1, Ordering::Relaxed),
            payload.gtx().raw(),
        );
        let kind = SpanKind::Call(payload.label());
        let outer = OPEN_CALL.with(|c| c.replace((id, gtx)));
        let start_ns = t.now_ns();
        let reply = self.inner.call(to, payload);
        let end_ns = t.now_ns();
        OPEN_CALL.with(|c| c.set(outer));
        t.push(Span {
            id,
            parent: 0,
            gtx,
            kind,
            site: to.raw(),
            start_ns,
            end_ns,
        });
        reply
    }

    fn admin(&self, to: SiteId, req: AdminRequest) -> AmcResult<AdminReply> {
        self.inner.admin(to, req)
    }

    fn supports_pipelining(&self) -> bool {
        self.inner.supports_pipelining()
    }

    fn load_sheds(&self) -> u64 {
        self.inner.load_sheds()
    }
}

/// An engine that records one span per transaction-management entry
/// point and forwards everything else untouched.
pub struct TimedEngine {
    pub inner: Arc<TwoPLEngine>,
    pub site: SiteId,
    pub tracer: Arc<Tracer>,
}

impl LocalEngine for TimedEngine {
    fn begin(&self) -> AmcResult<LocalTxnId> {
        self.tracer
            .timed(SpanKind::EngineBegin, self.site, || self.inner.begin())
    }

    fn execute(&self, txn: LocalTxnId, op: &Operation) -> AmcResult<OpResult> {
        self.tracer.timed(SpanKind::EngineExecute, self.site, || {
            self.inner.execute(txn, op)
        })
    }

    fn commit(&self, txn: LocalTxnId) -> AmcResult<()> {
        self.tracer
            .timed(SpanKind::EngineCommit, self.site, || self.inner.commit(txn))
    }

    fn abort(&self, txn: LocalTxnId, reason: AbortReason) -> AmcResult<()> {
        self.tracer.timed(SpanKind::EngineAbort, self.site, || {
            self.inner.abort(txn, reason)
        })
    }

    fn state_of(&self, txn: LocalTxnId) -> Option<LocalRunState> {
        self.inner.state_of(txn)
    }

    fn is_up(&self) -> bool {
        self.inner.is_up()
    }

    fn crash(&self) {
        self.inner.crash()
    }

    fn recover(&self) -> AmcResult<RecoveryReport> {
        self.inner.recover()
    }

    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn stats(&self) -> EngineStats {
        self.inner.stats()
    }

    fn dump(&self) -> AmcResult<BTreeMap<ObjectId, Value>> {
        self.inner.dump()
    }

    fn bulk_load(&self, data: &[(ObjectId, Value)]) -> AmcResult<()> {
        self.inner.bulk_load(data)
    }

    fn log_stats(&self) -> LogStats {
        self.inner.log_stats()
    }
}

impl PreparableEngine for TimedEngine {
    fn prepare(&self, txn: LocalTxnId) -> AmcResult<()> {
        self.tracer.timed(SpanKind::EnginePrepare, self.site, || {
            self.inner.prepare(txn)
        })
    }
}
