//! The four workloads and the federation each slice runs on.
//!
//! Every workload is three sites of uniform `TwoPLEngine`s behind
//! `EngineHandle::Preparable` (so all three protocols run on identical
//! engines), `ConflictPolicy::Semantic`, recording off and
//! `ObsSink::disabled()`. What differs is the wire, the delay model, the
//! mix and the key-space size — see README.md for why each exists.

use crate::spans::{TimedEngine, TimedTransport, Tracer};
use amc_bench::setup::tuned_config;
use amc_core::{submit_mode_for, Federation, FederationConfig};
use amc_engine::{LocalEngine, TplConfig, TwoPLEngine};
use amc_mlt::ConflictPolicy;
use amc_net::comm::EngineHandle;
use amc_net::transport::{FederationTransport, InProcessTransport};
use amc_net::LocalCommManager;
use amc_obs::ObsSink;
use amc_rpc::{EventServer, RetryPolicy, SiteServer, TcpTransport};
use amc_storage::PageStore;
use amc_types::{ProtocolKind, SiteId};
use amc_workload::{GlobalProgram, MixGen, MixKind, MixSpec};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const SITES: u32 = 3;

/// How coordinator messages reach the sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    /// `InProcessTransport`: a message is a function call.
    InProcess,
    /// `SiteServer` (thread per connection) + pooled blocking `RpcClient`.
    TcpThreaded,
    /// `EventServer` (epoll loop + worker pool) + `MuxClient`.
    TcpMux,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub wire: Wire,
    pub mix: MixKind,
    pub spec: MixSpec,
    /// Apply the 1991-scale delay model of `amc_bench::setup::tuned_config`
    /// (150 µs per message leg, 50 µs per operation, 500 µs per force,
    /// 200 µs group-commit linger) instead of zero injected delay.
    pub modelled_delays: bool,
}

pub const NAMES: [&str; 4] = [
    "inproc-uniform",
    "tcp-threaded",
    "tcp-mux",
    "delay-hot-abort",
];

/// Hot-key space of `delay-hot-abort`, sized so that measured
/// `lock.l0_wait_frac.2pc` stays at or above 0.10 (README.md records the
/// calibration).
pub const HOT_KEYS_PER_SITE: u64 = 8;

pub fn by_name(name: &str) -> Option<Workload> {
    let transfer = |name, wire, objects_per_site| Workload {
        name,
        wire,
        mix: MixKind::Transfer,
        spec: MixSpec {
            sites: SITES,
            objects_per_site,
            theta: 0.0,
            intended_abort_prob: 0.0,
            max_fanout: 2,
        },
        modelled_delays: false,
    };
    Some(match name {
        // 65 536 objects hash to ~5x the default 128-frame pool: evictions.
        "inproc-uniform" => transfer("inproc-uniform", Wire::InProcess, 65_536),
        // 1 024 objects fit the pool: storage is quiet, the wire dominates.
        "tcp-threaded" => transfer("tcp-threaded", Wire::TcpThreaded, 1_024),
        "tcp-mux" => transfer("tcp-mux", Wire::TcpMux, 1_024),
        "delay-hot-abort" => Workload {
            name: "delay-hot-abort",
            wire: Wire::InProcess,
            mix: MixKind::HotKey,
            spec: MixSpec {
                sites: SITES,
                objects_per_site: HOT_KEYS_PER_SITE,
                theta: 1.2,
                intended_abort_prob: 0.2,
                max_fanout: 2,
            },
            modelled_delays: true,
        },
        _ => return None,
    })
}

impl Workload {
    /// The seeded program stream every slice of a run replays.
    pub fn programs(&self, seed: u64, n: usize) -> Vec<GlobalProgram> {
        MixGen::new(self.mix, self.spec.clone(), seed).programs(n)
    }

    fn config(&self, protocol: ProtocolKind) -> FederationConfig {
        if self.modelled_delays {
            return tuned_config(SITES, protocol, ConflictPolicy::Semantic);
        }
        let mut cfg = FederationConfig::uniform(SITES, protocol);
        // Short timeouts (as E10): the rare page-lock cycle between two
        // clients resolves in milliseconds, not the default 2 s.
        cfg.tpl = TplConfig {
            lock_timeout: Duration::from_millis(10),
            deadlock_check: Duration::from_millis(1),
            ..TplConfig::default()
        };
        cfg.l1_timeout = Duration::from_millis(500);
        cfg
    }

    /// Modelled per-leg message delay (zero unless `modelled_delays`).
    pub fn message_delay(&self) -> Duration {
        self.config(ProtocolKind::TwoPhaseCommit).message_delay
    }
}

/// Layer counters summed over the three sites, read from the existing
/// `*Stats` structs. Monotone, so a window's share is `after - before`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// `TwoPLEngine::lock_stats`: L0 page-lock requests, those that had
    /// to wait, deadlock victims.
    pub l0_requests: u64,
    pub l0_waits: u64,
    pub l0_victims: u64,
    /// `Federation::l1_stats`.
    pub l1_requests: u64,
    pub l1_waits: u64,
    /// `LogStats`.
    pub forces: u64,
    pub stable_bytes: u64,
    pub group_forces: u64,
    pub batched_commits: u64,
    /// `BufferStats` of `TwoPLEngine::io_stats`.
    pub buffer_hits: u64,
    pub buffer_misses: u64,
    pub evictions: u64,
    /// `CommStats`.
    pub redo_runs: u64,
    pub undo_runs: u64,
    pub pre_vote_retries: u64,
    /// `FederationTransport::load_sheds`.
    pub sheds: u64,
}

impl std::ops::Sub for Counters {
    type Output = Counters;

    fn sub(self, b: Counters) -> Counters {
        Counters {
            l0_requests: self.l0_requests - b.l0_requests,
            l0_waits: self.l0_waits - b.l0_waits,
            l0_victims: self.l0_victims - b.l0_victims,
            l1_requests: self.l1_requests - b.l1_requests,
            l1_waits: self.l1_waits - b.l1_waits,
            forces: self.forces - b.forces,
            stable_bytes: self.stable_bytes - b.stable_bytes,
            group_forces: self.group_forces - b.group_forces,
            batched_commits: self.batched_commits - b.batched_commits,
            buffer_hits: self.buffer_hits - b.buffer_hits,
            buffer_misses: self.buffer_misses - b.buffer_misses,
            evictions: self.evictions - b.evictions,
            redo_runs: self.redo_runs - b.redo_runs,
            undo_runs: self.undo_runs - b.undo_runs,
            pre_vote_retries: self.pre_vote_retries - b.pre_vote_retries,
            sheds: self.sheds - b.sheds,
        }
    }
}

enum Servers {
    None,
    Threaded(Vec<SiteServer>),
    Event(Vec<EventServer>),
}

/// One freshly built, loaded federation with handles on every layer's
/// counters.
pub struct Rig {
    pub fed: Federation,
    pub engines: Vec<Arc<TwoPLEngine>>,
    pub managers: Vec<Arc<LocalCommManager>>,
    servers: Servers,
    /// Wall time of the build: engines, managers, servers, transport,
    /// federation, initial load.
    pub setup: Duration,
}

impl Rig {
    /// Build and load a federation for `workload` under `protocol`. With a
    /// tracer, engines and transport are wrapped in the timing decorators.
    pub fn build(workload: &Workload, protocol: ProtocolKind, tracer: Option<&Arc<Tracer>>) -> Rig {
        let started = Instant::now();
        let cfg = workload.config(protocol);
        let mode = submit_mode_for(protocol);
        let buckets = cfg.tpl.buckets;
        let mut engines = Vec::new();
        let mut managers = BTreeMap::new();
        for s in 1..=SITES {
            let site = SiteId::new(s);
            let engine = Arc::new(TwoPLEngine::new_at(cfg.tpl.clone(), site));
            let handle = match tracer {
                Some(tracer) => EngineHandle::Preparable(Arc::new(TimedEngine {
                    inner: Arc::clone(&engine),
                    site,
                    tracer: Arc::clone(tracer),
                })),
                None => EngineHandle::Preparable(Arc::clone(&engine) as _),
            };
            engines.push(engine);
            managers.insert(site, Arc::new(LocalCommManager::new(site, handle)));
        }

        let listen = "127.0.0.1:0";
        let mut addrs = BTreeMap::new();
        let servers = match workload.wire {
            Wire::InProcess => Servers::None,
            Wire::TcpThreaded => Servers::Threaded(
                managers
                    .iter()
                    .map(|(&site, m)| {
                        let srv = SiteServer::spawn(
                            site,
                            Arc::clone(m),
                            mode,
                            listen,
                            ObsSink::disabled(),
                        )
                        .expect("bind loopback");
                        addrs.insert(site, srv.addr());
                        srv
                    })
                    .collect(),
            ),
            Wire::TcpMux => Servers::Event(
                managers
                    .iter()
                    .map(|(&site, m)| {
                        let srv = EventServer::spawn(
                            site,
                            Arc::clone(m),
                            mode,
                            listen,
                            ObsSink::disabled(),
                        )
                        .expect("bind loopback");
                        addrs.insert(site, srv.addr());
                        srv
                    })
                    .collect(),
            ),
        };
        let policy = RetryPolicy::default();
        let transport: Arc<dyn FederationTransport> = match workload.wire {
            Wire::InProcess => Arc::new(InProcessTransport::new(
                managers.clone(),
                mode,
                cfg.message_delay,
            )),
            Wire::TcpThreaded => Arc::new(TcpTransport::new(addrs, policy, ObsSink::disabled())),
            Wire::TcpMux => Arc::new(TcpTransport::new_mux(addrs, policy, ObsSink::disabled())),
        };
        let transport = match tracer {
            Some(tracer) => Arc::new(TimedTransport {
                inner: transport,
                tracer: Arc::clone(tracer),
            }),
            None => transport,
        };

        let mut fed = Federation::with_transport(cfg, transport);
        fed.set_recording(false, false);
        // Load page by page: in id order every put lands on another hash
        // chain, and a key space larger than the pool then pays an
        // eviction per object (seconds per slice, all of it untimed).
        let layout = PageStore::new(buckets, 1);
        for s in 1..=SITES {
            let site = SiteId::new(s);
            let mut data = workload.spec.initial_data(site);
            data.sort_by_key(|(obj, _)| layout.page_of(*obj));
            fed.load_site(site, &data).expect("load site");
        }
        Rig {
            fed,
            engines,
            managers: managers.into_values().collect(),
            servers,
            setup: started.elapsed(),
        }
    }

    /// Read every layer's counters. Call with the federation quiescent.
    pub fn counters(&self) -> Counters {
        let l1 = self.fed.l1_stats();
        let mut c = Counters {
            l1_requests: l1.requests,
            l1_waits: l1.waits,
            sheds: self.fed.transport().load_sheds(),
            ..Counters::default()
        };
        for engine in &self.engines {
            let (l0, log, (_, buffer)) =
                (engine.lock_stats(), engine.log_stats(), engine.io_stats());
            c.l0_requests += l0.requests;
            c.l0_waits += l0.waits;
            c.l0_victims += l0.victims;
            c.forces += log.forces;
            c.stable_bytes += log.stable_bytes;
            c.group_forces += log.group_forces;
            c.batched_commits += log.batched_commits;
            c.buffer_hits += buffer.hits;
            c.buffer_misses += buffer.misses;
            c.evictions += buffer.evictions;
        }
        for manager in &self.managers {
            let comm = manager.stats();
            c.redo_runs += comm.redo_runs;
            c.undo_runs += comm.undo_runs;
            c.pre_vote_retries += comm.pre_vote_retries;
        }
        c
    }

    /// Peak server-side connections, summed over the site servers (0
    /// in-process).
    pub fn peak_connections(&self) -> u64 {
        match &self.servers {
            Servers::None => 0,
            Servers::Threaded(s) => s.iter().map(|s| s.connection_threads() as u64).sum(),
            Servers::Event(s) => s.iter().map(|s| s.stats().peak_connections).sum(),
        }
    }

    /// Drop the federation (closing client connections), then stop and
    /// join every server thread.
    pub fn shutdown(self) {
        drop(self.fed);
        match self.servers {
            Servers::None => {}
            Servers::Threaded(s) => s.into_iter().for_each(SiteServer::shutdown),
            Servers::Event(s) => s.into_iter().for_each(EventServer::shutdown),
        }
    }
}
