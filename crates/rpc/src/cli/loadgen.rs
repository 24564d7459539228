//! `amc-loadgen` — drive a mixed workload against running site servers.
//!
//! ```text
//! amc-loadgen --sites 127.0.0.1:7101,127.0.0.1:7102 \
//!     --protocol commit-before --txns 200 --clients 4
//! ```
//!
//! Site *i* (1-based) is the *i*-th address. The generator waits for
//! every site to answer a ping, loads initial counters, runs `--txns`
//! mixed global transactions (cross-site transfers, single-site updates,
//! read-only probes) on `--clients` worker threads through the full
//! coordinator + TCP transport stack, and prints
//!
//! ```text
//! committed=N aborted=N site_down=N throughput=T txn/s p50=Xms p99=Yms
//! ```
//!
//! **Workload mixes** — `--workload
//! {transfer|zipf|hotkey|tpcc-lite|read-heavy}` swaps the legacy mixed
//! stream for one of the contention-aware engine's mixes
//! (`amc_workload::mixes`), with `--theta` setting the Zipf skew
//! (0 = uniform, 0.9–1.2 = hot; default 0.6). The stream is a pure
//! function of `(workload, sites, objects, theta, seed)` — bit-identical
//! to what the DES benchmarks (E15) replay for the same parameters — and
//! the summary line gains `workload=/theta=` plus per-op-class counts
//! (`ops_read=/ops_inc=/ops_write=/ops_reserve=`), so the tpcc-lite
//! escrow reserves are visible end-to-end over real TCP. Mixes drive
//! site mode only; sharded mode keeps the legacy stream.
//!
//! Exit status is nonzero when nothing committed. With `--events-out
//! <path>` the client-side observability log is dumped as TSV
//! (`seq  at_us  txn  site  event`) for `explain --events` — rpc-shed
//! and rpc-retry rows included, so backpressure and retry storms are
//! attributable per transaction.
//!
//! **Sharded mode** — `--coordinators <addr,addr,...>` targets running
//! `amc-coord-server` processes instead of site servers. The generator
//! discovers each coordinator's slot with `Describe`, routes every
//! transaction to the coordinator owning its minimum key (the shard
//! map's ownership rule), and sends whole programs as `Exec` frames.
//! The summary gains one `coord k: ...` line per coordinator, and
//! `--events-out` rows carry `C<k>` in the site column so
//! `explain --events --coordinator <k>` can isolate one shard's traffic.

use crate::{CoordClient, RetryPolicy, TcpTransport};
use amc_core::{Federation, FederationConfig, TxnOutcome};
use amc_net::transport::{AdminReply, AdminRequest, FederationTransport};
use amc_obs::ObsSink;
use amc_types::{ObjectId, Operation, ProtocolKind, SiteId, Value};
use amc_workload::{MixGen, MixKind, MixSpec};
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn usage() -> ! {
    eprintln!(
        "usage: amc-loadgen --sites <addr,addr,...> \
         --protocol <2pc|commit-after|commit-before> [--txns <n>] [--clients <n>] \
         [--objects <n>] [--seed <n>] \
         [--workload <transfer|zipf|hotkey|tpcc-lite|read-heavy>] [--theta <0..=2>] \
         [--events-out <path>] [--client <mux|pooled>]\n\
       or: amc-loadgen --coordinators <addr,addr,...> [--txns <n>] [--clients <n>] \
         [--objects <n>] [--seed <n>] [--events-out <path>]"
    );
    std::process::exit(2);
}

/// splitmix64: deterministic program generation without a rand dep.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn obj(site: u32, idx: u64) -> ObjectId {
    ObjectId::new(u64::from(site) * (1 << 32) + idx)
}

/// One decomposed global program: operations per participating site.
type Program = BTreeMap<SiteId, Vec<Operation>>;

/// The shard map's ownership rule, restated: hash (splitmix64) of the
/// minimum object id touched, modulo the coordinator count. Must match
/// `amc_shard::ShardMap::owner_of` byte for byte.
fn owner_of(p: &Program, coordinators: u32) -> u32 {
    let min_obj = p.values().flatten().map(|op| op.object().raw()).min();
    match min_obj {
        Some(o) => {
            let mut state = o;
            (mix(&mut state) % u64::from(coordinators)) as u32
        }
        None => 0,
    }
}

/// One mixed program: mostly 2-site transfers, some single-site updates,
/// ~1 in 8 read-only.
fn program(rng: &mut u64, sites: u32, objects: u64) -> Program {
    let a = 1 + (mix(rng) % u64::from(sites)) as u32;
    let kind = mix(rng) % 8;
    let x = mix(rng) % objects;
    let y = mix(rng) % objects;
    if kind == 0 {
        // Read-only probe across one or two sites.
        let b = 1 + (mix(rng) % u64::from(sites)) as u32;
        let mut p = BTreeMap::from([(SiteId::new(a), vec![Operation::Read { obj: obj(a, x) }])]);
        p.entry(SiteId::new(b))
            .or_insert_with(Vec::new)
            .push(Operation::Read { obj: obj(b, y) });
        p
    } else if sites > 1 && kind < 6 {
        // Cross-site transfer: conserves the global sum.
        let mut b = 1 + (mix(rng) % u64::from(sites)) as u32;
        if b == a {
            b = 1 + (a % sites);
        }
        let amt = 1 + (mix(rng) % 7) as i64;
        BTreeMap::from([
            (
                SiteId::new(a),
                vec![Operation::Increment {
                    obj: obj(a, x),
                    delta: -amt,
                }],
            ),
            (
                SiteId::new(b),
                vec![Operation::Increment {
                    obj: obj(b, y),
                    delta: amt,
                }],
            ),
        ])
    } else {
        // Single-site multi-op update (sum-neutral).
        let amt = 1 + (mix(rng) % 5) as i64;
        BTreeMap::from([(
            SiteId::new(a),
            vec![
                Operation::Increment {
                    obj: obj(a, x),
                    delta: amt,
                },
                Operation::Increment {
                    obj: obj(a, y),
                    delta: -amt,
                },
            ],
        )])
    }
}

/// Per-op-class totals of a program stream: (reads, increments,
/// writes/inserts/deletes, escrow reserves) — the summary columns that
/// make a mix's shape visible from the wire side.
fn op_class_counts(programs: &[Program]) -> (u64, u64, u64, u64) {
    let mut reads = 0;
    let mut incs = 0;
    let mut writes = 0;
    let mut reserves = 0;
    for op in programs.iter().flat_map(|p| p.values()).flatten() {
        match op {
            Operation::Read { .. } => reads += 1,
            Operation::Increment { .. } => incs += 1,
            Operation::Write { .. } | Operation::Insert { .. } | Operation::Delete { .. } => {
                writes += 1
            }
            Operation::Reserve { .. } => reserves += 1,
        }
    }
    (reads, incs, writes, reserves)
}

/// The binary's entry point: parse `std::env::args`, run, exit.
pub fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addrs: Vec<SocketAddr> = Vec::new();
    let mut coord_addrs: Vec<SocketAddr> = Vec::new();
    let mut protocol = None;
    let mut txns = 100usize;
    let mut clients = 4usize;
    let mut objects = 50u64;
    let mut seed = 1u64;
    let mut workload: Option<MixKind> = None;
    let mut theta = 0.6f64;
    let mut events_out: Option<String> = None;
    // Mux by default: one pipelined connection per site regardless of
    // how many worker threads drive transactions through it.
    let mut mux = true;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--sites" => {
                i += 1;
                let list = args.get(i).unwrap_or_else(|| usage());
                addrs = list
                    .split(',')
                    .map(|a| a.parse().unwrap_or_else(|_| usage()))
                    .collect();
            }
            "--coordinators" => {
                i += 1;
                let list = args.get(i).unwrap_or_else(|| usage());
                coord_addrs = list
                    .split(',')
                    .map(|a| a.parse().unwrap_or_else(|_| usage()))
                    .collect();
            }
            "--protocol" => {
                i += 1;
                protocol = match args.get(i).map(String::as_str) {
                    Some("2pc") => Some(ProtocolKind::TwoPhaseCommit),
                    Some("commit-after") => Some(ProtocolKind::CommitAfter),
                    Some("commit-before") => Some(ProtocolKind::CommitBefore),
                    _ => usage(),
                };
            }
            "--txns" => {
                i += 1;
                txns = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--clients" => {
                i += 1;
                clients = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--objects" => {
                i += 1;
                objects = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--workload" => {
                i += 1;
                workload = Some(
                    args.get(i)
                        .and_then(|v| MixKind::parse(v))
                        .unwrap_or_else(|| usage()),
                );
            }
            "--theta" => {
                i += 1;
                theta = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|t| (0.0..=2.0).contains(t))
                    .unwrap_or_else(|| usage());
            }
            "--events-out" => {
                i += 1;
                events_out = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--client" => {
                i += 1;
                mux = match args.get(i).map(String::as_str) {
                    Some("mux") => true,
                    Some("pooled") => false,
                    _ => usage(),
                };
            }
            _ => usage(),
        }
        i += 1;
    }
    if !coord_addrs.is_empty() {
        if workload.is_some() {
            eprintln!("--workload mixes drive --sites mode; sharded mode keeps the legacy stream");
            std::process::exit(2);
        }
        // Sharded mode: protocol and site addresses live with the
        // coordinator servers; everything routes through Exec frames.
        run_sharded(coord_addrs, txns, clients, objects, seed, events_out);
    }
    if addrs.is_empty() {
        usage();
    }
    let Some(protocol) = protocol else { usage() };
    let sites = addrs.len() as u32;

    let obs = if events_out.is_some() {
        ObsSink::enabled(1 << 20)
    } else {
        ObsSink::disabled()
    };
    let site_addrs: BTreeMap<SiteId, SocketAddr> = addrs
        .iter()
        .enumerate()
        .map(|(idx, addr)| (SiteId::new(idx as u32 + 1), *addr))
        .collect();
    let tcp = Arc::new(if mux {
        TcpTransport::new_mux(site_addrs, RetryPolicy::default(), obs.clone())
    } else {
        TcpTransport::new(site_addrs, RetryPolicy::default(), obs.clone())
    });
    let transport = tcp.clone();

    // Wait for every site to answer a ping (servers may still be binding).
    let deadline = Instant::now() + Duration::from_secs(10);
    for s in 1..=sites {
        let site = SiteId::new(s);
        loop {
            match transport.admin(site, AdminRequest::Ping) {
                Ok(AdminReply::Pong) => break,
                _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(100)),
                _ => {
                    eprintln!("site {s} at {} never answered", addrs[s as usize - 1]);
                    std::process::exit(1);
                }
            }
        }
    }

    // Initial data: every object starts at 100.
    for s in 1..=sites {
        let data: Vec<(ObjectId, Value)> = (0..objects)
            .map(|i| (obj(s, i), Value::counter(100)))
            .collect();
        if let Err(e) = transport.admin(SiteId::new(s), AdminRequest::Load(data)) {
            eprintln!("load site {s}: {e}");
            std::process::exit(1);
        }
    }

    let cfg = FederationConfig::uniform(sites, protocol);
    let mut fed =
        Federation::with_transport(cfg, transport.clone() as Arc<dyn FederationTransport>);
    fed.set_recording(false, false);
    let fed = Arc::new(fed);

    let programs: Vec<Program> = match workload {
        Some(kind) => {
            if objects < 8 {
                eprintln!("--workload mixes need --objects >= 8");
                std::process::exit(2);
            }
            // The same seeded stream the DES benchmarks (E15) replay for
            // these parameters — determinism contract, DESIGN.md §14.
            let spec = MixSpec {
                sites,
                objects_per_site: objects,
                theta,
                intended_abort_prob: 0.0,
                max_fanout: sites.min(3),
            };
            MixGen::new(kind, spec, seed)
                .programs(txns)
                .into_iter()
                .map(|p| p.per_site)
                .collect()
        }
        None => {
            let mut rng = seed;
            (0..txns)
                .map(|_| program(&mut rng, sites, objects))
                .collect()
        }
    };
    let op_counts = op_class_counts(&programs);
    let queue: Arc<Mutex<VecDeque<Program>>> = Arc::new(Mutex::new(programs.into()));
    let committed = Arc::new(Mutex::new(Vec::<Duration>::new()));
    let aborted = Arc::new(Mutex::new(0u64));
    let site_down = Arc::new(Mutex::new(0u64));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients.max(1) {
            let fed = Arc::clone(&fed);
            let queue = Arc::clone(&queue);
            let committed = Arc::clone(&committed);
            let aborted = Arc::clone(&aborted);
            let site_down = Arc::clone(&site_down);
            scope.spawn(move || loop {
                let Some(p) = queue.lock().pop_front() else {
                    return;
                };
                // A site mid-restart surfaces as SiteDown after the
                // client's own retries; give the program a few more
                // chances before counting it lost.
                for attempt in 0..5 {
                    match fed.run_transaction(&p) {
                        Ok(report) => {
                            match report.outcome {
                                TxnOutcome::Committed => committed.lock().push(report.latency),
                                TxnOutcome::Aborted => *aborted.lock() += 1,
                                TxnOutcome::L1Rejected(_) if attempt < 4 => continue,
                                TxnOutcome::L1Rejected(_) => *aborted.lock() += 1,
                            }
                            break;
                        }
                        Err(_) if attempt < 4 => {
                            std::thread::sleep(Duration::from_millis(200));
                        }
                        Err(_) => {
                            *site_down.lock() += 1;
                            break;
                        }
                    }
                }
            });
        }
    });
    let wall = start.elapsed();

    let mut lats = committed.lock().clone();
    lats.sort();
    let n = lats.len();
    let pct = |p: f64| -> f64 {
        if n == 0 {
            return 0.0;
        }
        let idx = ((n as f64 - 1.0) * p).round() as usize;
        lats[idx].as_secs_f64() * 1e3
    };
    let throughput = n as f64 / wall.as_secs_f64().max(1e-9);
    // Legacy invocations keep the exact historical summary line; a mix
    // appends its shape columns after the percentiles.
    let mix_cols = match workload {
        Some(kind) => {
            let (reads, incs, writes, reserves) = op_counts;
            format!(
                " workload={} theta={theta} ops_read={reads} ops_inc={incs} \
                 ops_write={writes} ops_reserve={reserves}",
                kind.label(),
            )
        }
        None => String::new(),
    };
    println!(
        "committed={} aborted={} site_down={} sheds={} throughput={:.1} txn/s p50={:.2}ms p99={:.2}ms{mix_cols}",
        n,
        *aborted.lock(),
        *site_down.lock(),
        tcp.sheds(),
        throughput,
        pct(0.50),
        pct(0.99),
    );

    if let Some(path) = events_out {
        let log = obs.snapshot();
        let mut out = String::new();
        for e in log.events() {
            let txn = e
                .txn
                .map(|g| g.to_string())
                .unwrap_or_else(|| "-".to_string());
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\t{}\n",
                e.seq, e.at.0, txn, e.site, e.kind
            ));
        }
        if let Err(e) = std::fs::write(&path, out) {
            eprintln!("write {path}: {e}");
            std::process::exit(1);
        }
    }

    if n == 0 {
        eprintln!("no transaction committed");
        std::process::exit(1);
    }
}

/// One TSV event row produced in sharded mode: the site column carries
/// `C<slot>` so `explain --events --coordinator <slot>` can filter.
struct CoordEvent {
    at_us: u64,
    txn: Option<u64>,
    coord: u32,
    event: String,
}

/// Sharded mode: drive `amc-coord-server` processes through `Exec`
/// frames, routing each program to the coordinator owning its minimum
/// key. Never returns.
fn run_sharded(
    coord_addrs: Vec<SocketAddr>,
    txns: usize,
    clients: usize,
    objects: u64,
    seed: u64,
    events_out: Option<String>,
) -> ! {
    let policy = RetryPolicy::default();
    let conns: Vec<CoordClient> = coord_addrs
        .iter()
        .map(|a| CoordClient::new(*a, policy))
        .collect();

    // Wait for every coordinator, then discover slots and the fleet.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut by_slot: Vec<Option<(CoordClient, Vec<SiteId>)>> = Vec::new();
    by_slot.resize_with(conns.len(), || None);
    for (idx, client) in conns.into_iter().enumerate() {
        let info = loop {
            match client.describe() {
                Ok(info) => break info,
                _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(100)),
                _ => {
                    eprintln!("coordinator at {} never answered", coord_addrs[idx]);
                    std::process::exit(1);
                }
            }
        };
        if info.coordinators as usize != coord_addrs.len() {
            eprintln!(
                "coordinator at {} expects {} coordinators, {} given",
                coord_addrs[idx],
                info.coordinators,
                coord_addrs.len()
            );
            std::process::exit(1);
        }
        let slot = info.slot as usize;
        if slot >= by_slot.len() || by_slot[slot].is_some() {
            eprintln!("duplicate or out-of-range slot {slot}");
            std::process::exit(1);
        }
        by_slot[slot] = Some((client, info.sites));
    }
    let mut coords: Vec<CoordClient> = Vec::new();
    let mut fleet: Vec<SiteId> = Vec::new();
    for (slot, entry) in by_slot.into_iter().enumerate() {
        let Some((client, sites)) = entry else {
            eprintln!("no coordinator announced slot {slot}");
            std::process::exit(1);
        };
        if slot == 0 {
            fleet = sites;
        } else if fleet != sites {
            eprintln!("coordinator slot {slot} drives a different site fleet");
            std::process::exit(1);
        }
        coords.push(client);
    }
    let coordinators = coords.len() as u32;
    let sites = fleet.len() as u32;
    if sites == 0 {
        eprintln!("coordinators drive an empty site fleet");
        std::process::exit(1);
    }

    // Initial data travels as ordinary committed transactions (the
    // generator has no site admin channel in sharded mode): batches of
    // inserts through coordinator 0.
    for s in 1..=sites {
        for chunk in (0..objects).collect::<Vec<_>>().chunks(32) {
            let ops: Vec<Operation> = chunk
                .iter()
                .map(|&i| Operation::Insert {
                    obj: obj(s, i),
                    value: Value::counter(100),
                })
                .collect();
            let program = BTreeMap::from([(SiteId::new(s), ops)]);
            match coords[0].exec(program) {
                Ok(report) if report.outcome == TxnOutcome::Committed => {}
                Ok(report) => {
                    eprintln!("load site {s}: {:?}", report.outcome);
                    std::process::exit(1);
                }
                Err(e) => {
                    eprintln!("load site {s}: {e}");
                    std::process::exit(1);
                }
            }
        }
    }

    let mut rng = seed;
    let queue: Arc<Mutex<VecDeque<Program>>> = Arc::new(Mutex::new(
        (0..txns)
            .map(|_| program(&mut rng, sites, objects))
            .collect(),
    ));
    let coords = Arc::new(coords);
    let committed = Arc::new(Mutex::new(Vec::<Duration>::new()));
    let aborted = Arc::new(Mutex::new(0u64));
    let down = Arc::new(Mutex::new(0u64));
    let per_coord: Arc<Vec<Mutex<(u64, u64)>>> = Arc::new(
        (0..coordinators)
            .map(|_| Mutex::new((0u64, 0u64)))
            .collect(),
    );
    let events: Arc<Mutex<Vec<CoordEvent>>> = Arc::new(Mutex::new(Vec::new()));
    let record = events_out.is_some();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients.max(1) {
            let coords = Arc::clone(&coords);
            let queue = Arc::clone(&queue);
            let committed = Arc::clone(&committed);
            let aborted = Arc::clone(&aborted);
            let down = Arc::clone(&down);
            let per_coord = Arc::clone(&per_coord);
            let events = Arc::clone(&events);
            scope.spawn(move || loop {
                let Some(p) = queue.lock().pop_front() else {
                    return;
                };
                let owner = owner_of(&p, coordinators);
                for attempt in 0..5 {
                    match coords[owner as usize].exec(p.clone()) {
                        Ok(report) => {
                            if record {
                                events.lock().push(CoordEvent {
                                    at_us: start.elapsed().as_micros() as u64,
                                    txn: Some(report.gtx.raw()),
                                    coord: owner,
                                    event: format!(
                                        "exec-done outcome={:?} latency_us={} messages={}",
                                        report.outcome, report.latency_us, report.messages
                                    ),
                                });
                            }
                            match report.outcome {
                                TxnOutcome::Committed => {
                                    committed
                                        .lock()
                                        .push(Duration::from_micros(report.latency_us));
                                    per_coord[owner as usize].lock().0 += 1;
                                }
                                TxnOutcome::L1Rejected(_) if attempt < 4 => continue,
                                _ => {
                                    *aborted.lock() += 1;
                                    per_coord[owner as usize].lock().1 += 1;
                                }
                            }
                            break;
                        }
                        Err(e) => {
                            // Exec never retries inside the client (a
                            // transaction is not idempotent); the failure
                            // is final here too.
                            if record {
                                events.lock().push(CoordEvent {
                                    at_us: start.elapsed().as_micros() as u64,
                                    txn: None,
                                    coord: owner,
                                    event: format!("exec-failed {e}"),
                                });
                            }
                            *down.lock() += 1;
                            break;
                        }
                    }
                }
            });
        }
    });
    let wall = start.elapsed();

    let mut lats = committed.lock().clone();
    lats.sort();
    let n = lats.len();
    let pct = |p: f64| -> f64 {
        if n == 0 {
            return 0.0;
        }
        let idx = ((n as f64 - 1.0) * p).round() as usize;
        lats[idx].as_secs_f64() * 1e3
    };
    let throughput = n as f64 / wall.as_secs_f64().max(1e-9);
    println!(
        "committed={} aborted={} coord_down={} throughput={:.1} txn/s p50={:.2}ms p99={:.2}ms",
        n,
        *aborted.lock(),
        *down.lock(),
        throughput,
        pct(0.50),
        pct(0.99),
    );
    for (k, stats) in per_coord.iter().enumerate() {
        let (c, a) = *stats.lock();
        println!("coord {k}: committed={c} aborted={a}");
    }

    if let Some(path) = events_out {
        let mut rows = events.lock();
        rows.sort_by_key(|e| e.at_us);
        let mut out = String::new();
        for (seq, e) in rows.iter().enumerate() {
            let txn = e
                .txn
                .map(|g| g.to_string())
                .unwrap_or_else(|| "-".to_string());
            out.push_str(&format!(
                "{}\t{}\t{}\tC{}\t{}\n",
                seq, e.at_us, txn, e.coord, e.event
            ));
        }
        if let Err(e) = std::fs::write(&path, out) {
            eprintln!("write {path}: {e}");
            std::process::exit(1);
        }
    }

    if n == 0 {
        eprintln!("no transaction committed");
        std::process::exit(1);
    }
    std::process::exit(0);
}
