//! `amc-loadgen` — offer a seeded workload mix to a running deployment.
//!
//! ```text
//! amc-loadgen --sites 127.0.0.1:7101,127.0.0.1:7102 \
//!     --protocol commit-before --txns 200 --clients 4
//! amc-loadgen --coordinators 127.0.0.1:7201,127.0.0.1:7202 --workload hotkey
//! ```
//!
//! **Site mode** (`--sites`): site *i* (1-based) is the *i*-th address.
//! The generator embeds the coordinator: it waits for every site to answer
//! a ping, loads the mix's initial counters through the admin channel and
//! runs the programs through the full coordinator + TCP transport stack.
//! Its transaction ids start at 1, so it refuses (exit 1) a site that has
//! already handled a submit: run it once per fresh set of site servers.
//!
//! **Sharded mode** (`--coordinators`): the addresses are running
//! `amc-coord-server` processes. The generator discovers each one's slot
//! and the site fleet with `Describe`, loads the initial counters as
//! ordinary `Insert` transactions, routes every program to the
//! coordinator owning its minimum key ([`amc_core::owner_slot_of`], the
//! shard map's rule) and sends it whole in one `Exec` frame. Protocol and
//! site addresses live with the coordinator servers.
//!
//! Both modes offer `--txns` programs of `--workload
//! {transfer|zipf|hotkey|tpcc-lite|read-heavy}` (default `transfer`;
//! `--theta` sets the Zipf skew, 0 = uniform, 0.9–1.2 = hot, default 0.6)
//! from `--clients` closed-loop clients ([`amc_core::closed_loop`]: FIFO,
//! casualties of contention retried boundedly, an error ends its
//! program). The stream is a pure function of `(workload, sites, objects,
//! theta, seed)` — bit-identical to what the DES benchmarks (E15) replay
//! for the same parameters. One summary line follows,
//!
//! ```text
//! committed=N aborted=N errors=N throughput=T txn/s p50=Xms p99=Yms \
//!     workload=W theta=θ ops_read=N ops_inc=N ops_write=N ops_reserve=N
//! ```
//!
//! (`aborted` counts attempts, intended and erroneous; the `ops_*` columns
//! make the mix's shape visible from the wire side), then in sharded mode
//! one `coord k: committed=N aborted=N` line per coordinator. Exit status
//! is nonzero when nothing committed.
//!
//! With `--events-out <path>` an event log is dumped as TSV (`seq  at_us
//! txn  site  event`) for `explain --events`: in site mode the client-side
//! observability log — rpc-retry rows included, so retry storms are
//! attributable per transaction; in sharded mode one row per `Exec`, with
//! `C<k>` in the site column so `explain --events --coordinator <k>` can
//! isolate one shard's traffic.

use super::{site_addrs, Flags};
use crate::{CoordClient, RetryPolicy, TcpTransport};
use amc_core::{
    closed_loop, owner_slot_of, Federation, FederationConfig, Program, RunMetrics, TxnOutcome,
    TxnReport,
};
use amc_net::transport::{AdminReply, AdminRequest, FederationTransport};
use amc_obs::ObsSink;
use amc_types::{AmcResult, Operation, ProtocolKind, SiteId};
use amc_workload::{MixGen, MixKind, MixSpec};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const USAGE: &str = "amc-loadgen --sites <addr,addr,...> \
     --protocol <2pc|commit-after|commit-before> <load>\n\
     \x20  or: amc-loadgen --coordinators <addr,addr,...> <load>\n\
     load: [--txns <n>] [--clients <n>] [--objects <n, at least 8>] [--seed <n>] \
     [--workload <transfer|zipf|hotkey|tpcc-lite|read-heavy>] [--theta <0..=2>] \
     [--events-out <path>]";

fn fail(message: String) -> ! {
    eprintln!("{message}");
    std::process::exit(1);
}

/// Poll `probe` until it answers; servers may still be binding.
fn wait_for<T>(who: &str, probe: impl Fn() -> Option<T>) -> T {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match probe() {
            Some(answer) => return answer,
            None if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(100)),
            None => fail(format!("{who} never answered")),
        }
    }
}

/// The load both modes offer.
struct Load {
    txns: usize,
    clients: usize,
    objects: u64,
    seed: u64,
    kind: MixKind,
    theta: f64,
    /// Whether an event log was asked for.
    record: bool,
}

/// What a mode measured: the driver's tally, the summary's `workload=…`
/// columns, `(committed, aborted)` per coordinator (sharded mode) and the
/// `--events-out` rows.
struct Outcome {
    metrics: RunMetrics,
    shape: String,
    per_coord: Vec<(u64, u64)>,
    events: Vec<String>,
}

impl Load {
    fn spec(&self, sites: u32) -> MixSpec {
        MixSpec {
            sites,
            objects_per_site: self.objects,
            theta: self.theta,
            intended_abort_prob: 0.0,
            max_fanout: sites.min(3),
        }
    }

    /// Offer the seeded stream for a fleet of `sites` to `run`; the tally
    /// and the summary's `workload=…` columns (the stream's shape).
    fn offer(
        &self,
        sites: u32,
        run: impl Fn(&Program) -> AmcResult<TxnReport> + Sync,
    ) -> (RunMetrics, String) {
        // The same seeded stream the DES benchmarks (E15) replay for
        // these parameters — determinism contract, DESIGN.md §14.
        let programs = MixGen::new(self.kind, self.spec(sites), self.seed).programs(self.txns);
        let (mut reads, mut incs, mut writes, mut reserves) = (0u64, 0u64, 0u64, 0u64);
        for op in programs.iter().flat_map(|p| p.per_site.values()).flatten() {
            match op {
                Operation::Read { .. } => reads += 1,
                Operation::Increment { .. } => incs += 1,
                Operation::Write { .. } | Operation::Insert { .. } | Operation::Delete { .. } => {
                    writes += 1
                }
                Operation::Reserve { .. } => reserves += 1,
            }
        }
        let shape = format!(
            "workload={} theta={} ops_read={reads} ops_inc={incs} ops_write={writes} \
             ops_reserve={reserves}",
            self.kind.label(),
            self.theta,
        );
        let batch = programs
            .into_iter()
            .map(|p| (p.per_site, p.intends_abort))
            .collect();
        (closed_loop(batch, self.clients, run), shape)
    }
}

/// The binary's entry point: parse the process arguments, run, exit.
pub fn main() {
    let mut flags = Flags::from_env(USAGE);
    let sites: Vec<SocketAddr> = flags.list("--sites");
    let coordinators: Vec<SocketAddr> = flags.list("--coordinators");
    let protocol = flags.value_with("--protocol", ProtocolKind::parse);
    let events_out: Option<String> = flags.value("--events-out");
    let load = Load {
        txns: flags.value("--txns").unwrap_or(100),
        clients: flags.value("--clients").unwrap_or(4),
        objects: flags.value("--objects").unwrap_or(50),
        seed: flags.value("--seed").unwrap_or(1),
        kind: flags
            .value_with("--workload", MixKind::parse)
            .unwrap_or(MixKind::Transfer),
        theta: flags
            .value_with("--theta", |v| {
                v.parse().ok().filter(|t| (0.0..=2.0).contains(t))
            })
            .unwrap_or(0.6),
        record: events_out.is_some(),
    };
    flags.finish();
    if load.objects < 8 {
        flags.usage();
    }
    let outcome = if !coordinators.is_empty() {
        // Protocol and site addresses live with the coordinator servers.
        sharded_mode(&load, &coordinators)
    } else if let (false, Some(protocol)) = (sites.is_empty(), protocol) {
        site_mode(&load, &sites, protocol)
    } else {
        flags.usage()
    };

    let m = &outcome.metrics;
    println!(
        "committed={} aborted={} errors={} throughput={:.1} txn/s p50={:.2}ms p99={:.2}ms {}",
        m.committed,
        m.aborted_intended + m.aborted_erroneous,
        m.errors,
        m.throughput().unwrap_or(0.0),
        m.latency_p50_ms().unwrap_or(0.0),
        m.latency_p99_ms().unwrap_or(0.0),
        outcome.shape,
    );
    for (k, (committed, aborted)) in outcome.per_coord.iter().enumerate() {
        println!("coord {k}: committed={committed} aborted={aborted}");
    }
    if let Some(path) = events_out {
        if let Err(e) = std::fs::write(&path, outcome.events.concat()) {
            fail(format!("write {path}: {e}"));
        }
    }
    if m.committed == 0 {
        fail("no transaction committed".into());
    }
}

/// Site mode: the generator is the coordinator, over `addrs`.
fn site_mode(load: &Load, addrs: &[SocketAddr], protocol: ProtocolKind) -> Outcome {
    let obs = if load.record {
        ObsSink::enabled(1 << 20)
    } else {
        ObsSink::disabled()
    };
    let tcp: Arc<dyn FederationTransport> = Arc::new(TcpTransport::new(
        site_addrs(addrs),
        RetryPolicy::default(),
        obs.clone(),
    ));
    let sites = addrs.len() as u32;
    let spec = load.spec(sites);
    for (site, addr) in site_addrs(addrs) {
        wait_for(&format!("{site} at {addr}"), || {
            matches!(tcp.admin(site, AdminRequest::Ping), Ok(AdminReply::Pong)).then_some(())
        });
        // This run's gtx start at 1 again, and a site answers an id it
        // already holds with its old vote without running the program:
        // the work would be reported, never done (ROADMAP 26).
        if let Ok(AdminReply::CommStats(stats)) = tcp.admin(site, AdminRequest::CommStats) {
            if stats.submits > 0 {
                fail(format!(
                    "{site} at {addr} has already handled {} submits: this run would reuse \
                     its transaction ids and report work that never ran (ROADMAP 26); \
                     restart the site servers",
                    stats.submits
                ));
            }
        }
        if let Err(e) = tcp.admin(site, AdminRequest::Load(spec.initial_data(site))) {
            fail(format!("load {site}: {e}"));
        }
    }

    let cfg = FederationConfig::uniform(sites, protocol);
    let fed = Federation::with_transport(cfg, tcp);
    let (metrics, shape) = load.offer(sites, |p| fed.run_transaction(p));

    let events = obs
        .snapshot()
        .events()
        .map(|e| {
            let txn = e.txn.map_or("-".to_string(), |g| g.to_string());
            format!("{}\t{}\t{txn}\t{}\t{}\n", e.seq, e.at.0, e.site, e.kind)
        })
        .collect();
    Outcome {
        metrics,
        shape,
        per_coord: Vec::new(),
        events,
    }
}

/// Sharded mode: drive the `amc-coord-server`s at `addrs` through `Exec`
/// frames, each program to the coordinator owning its minimum key.
fn sharded_mode(load: &Load, addrs: &[SocketAddr]) -> Outcome {
    // Every coordinator must announce a distinct slot of the same width
    // as the list given, over one and the same site fleet.
    let n = addrs.len() as u32;
    let mut by_slot: BTreeMap<u32, (CoordClient, Vec<SiteId>)> = BTreeMap::new();
    for addr in addrs {
        let client = CoordClient::new(*addr, RetryPolicy::default());
        let info = wait_for(&format!("coordinator at {addr}"), || client.describe().ok());
        if info.coordinators != n
            || info.slot >= n
            || by_slot.insert(info.slot, (client, info.sites)).is_some()
        {
            fail(format!(
                "coordinator at {addr} announces slot {} of {}: {n} distinct slots expected",
                info.slot, info.coordinators
            ));
        }
    }
    let fleet = by_slot[&0].1.clone();
    if fleet.is_empty() || by_slot.values().any(|(_, sites)| *sites != fleet) {
        fail("the coordinators must drive one non-empty site fleet".into());
    }
    let coords: Vec<CoordClient> = by_slot.into_values().map(|(client, _)| client).collect();
    let sites = fleet.len() as u32;

    // The generator has no site admin channel here: the initial counters
    // travel as ordinary committed transactions through coordinator 0.
    let spec = load.spec(sites);
    for site in (1..=sites).map(SiteId::new) {
        for chunk in spec.initial_data(site).chunks(32) {
            let inserts = chunk
                .iter()
                .map(|&(obj, value)| Operation::Insert { obj, value })
                .collect();
            match coords[0].exec(BTreeMap::from([(site, inserts)])) {
                Ok(report) if report.outcome == TxnOutcome::Committed => {}
                Ok(report) => fail(format!("load {site}: {:?}", report.outcome)),
                Err(e) => fail(format!("load {site}: {e}")),
            }
        }
    }

    let tally: Vec<[AtomicU64; 2]> = coords.iter().map(|_| Default::default()).collect();
    let rows: Mutex<Vec<(u64, String)>> = Mutex::new(Vec::new());
    let start = Instant::now();
    let (metrics, shape) = load.offer(sites, |p| {
        let owner = owner_slot_of(p, n) as usize;
        // One attempt inside the client (a transaction is not idempotent);
        // what the driver does with the answer is its contract.
        let result = coords[owner].exec(p.clone());
        if let Ok(report) = &result {
            let committed = report.outcome == TxnOutcome::Committed;
            tally[owner][usize::from(!committed)].fetch_add(1, Ordering::Relaxed);
        }
        if load.record {
            let row = match &result {
                Ok(r) => format!(
                    "{}\tC{owner}\texec-done outcome={:?} latency_us={} messages={}\n",
                    r.gtx.raw(),
                    r.outcome,
                    r.latency.as_micros(),
                    r.messages
                ),
                Err(e) => format!("-\tC{owner}\texec-failed {e}\n"),
            };
            rows.lock().push((start.elapsed().as_micros() as u64, row));
        }
        result
    });

    let mut rows = rows.into_inner();
    rows.sort_by_key(|(at_us, _)| *at_us);
    let events = rows
        .iter()
        .enumerate()
        .map(|(seq, (at_us, row))| format!("{seq}\t{at_us}\t{row}"))
        .collect();
    let per_coord = tally
        .iter()
        .map(|[c, a]| (c.load(Ordering::Relaxed), a.load(Ordering::Relaxed)))
        .collect();
    Outcome {
        metrics,
        shape,
        per_coord,
        events,
    }
}
