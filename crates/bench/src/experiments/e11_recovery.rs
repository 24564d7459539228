//! **E11 — durable recovery: restart cost vs log length, fsync cost vs
//! group-commit batching** (amc-wal + amc-engine durable backend).
//!
//! Two measurements on the on-disk WAL that backs `--wal-dir` sites:
//!
//! * **Recovery time vs log length.** Build logs of increasing length
//!   (one committed increment per transaction), then time a cold
//!   [`Site::open`] over the log's directory — the same open a killed
//!   site server performs at restart. The claimed shape: replay cost scales
//!   roughly linearly with the log (per-record cost stays in one narrow
//!   band across a 20× length spread, once the fixed open cost is
//!   amortized).
//!
//! * **Fsync cost vs committer concurrency.** 1 / 2 / 8 committer threads
//!   against one durable engine under the default config: no timer, the
//!   group-commit leader waits for the real `fsync` outside the log
//!   mutex, so commits arriving during one fsync share the next. The
//!   claimed shape: one committer pays exactly one fsync per commit, and
//!   eight share them — concurrency, not a knob, sets the batch.

use crate::table::{opt2, section, verdict, TextTable};
use amc_core::config::EngineKind;
use amc_core::site::{Site, SiteLog, SiteSpec};
use amc_engine::{LocalEngine, TplConfig};
use amc_net::RecoveryStats;
use amc_types::{ObjectId, Operation, ProtocolKind, SiteId, Value};
use std::path::{Path, PathBuf};
use std::time::Instant;

const OBJECTS: u64 = 64;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("amc-e11-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Site 1 over `dir` (its log is `site-1.wal`), under the default config.
fn open(dir: &Path) -> (Site, RecoveryStats) {
    Site::open(SiteSpec {
        id: SiteId::new(1),
        engine: EngineKind::TwoPL,
        protocol: ProtocolKind::TwoPhaseCommit,
        log: SiteLog::Dir(dir.to_path_buf()),
        acceptor: false,
        tpl: TplConfig::default(),
    })
    .expect("open site")
}

fn loaded_durable(dir: &Path) -> Site {
    let (site, _) = open(dir);
    let data: Vec<(ObjectId, Value)> = (0..OBJECTS)
        .map(|i| (ObjectId::new(i), Value::counter(0)))
        .collect();
    let engine = site.manager().handle().engine();
    engine.bulk_load(&data).expect("bulk load");
    site
}

/// One committed single-increment transaction.
fn commit_one(engine: &dyn LocalEngine, obj: u64, delta: i64) {
    let t = engine.begin().expect("begin");
    engine
        .execute(
            t,
            &Operation::Increment {
                obj: ObjectId::new(obj),
                delta,
            },
        )
        .expect("execute");
    engine.commit(t).expect("commit");
}

// --- part A: recovery time vs log length ----------------------------------

/// One measured recovery.
#[derive(Debug, Clone)]
pub struct RecoveryRow {
    /// Committed transactions written before the simulated kill.
    pub txns: usize,
    /// WAL size on disk, bytes.
    pub wal_bytes: u64,
    /// Transactions the replay re-committed (includes the bulk load).
    pub committed: usize,
    /// Redo/undo operations applied during replay.
    pub replayed: u64,
    /// Cold-open recovery wall time, ms.
    pub recover_ms: f64,
    /// Replay cost normalized per 1000 committed transactions.
    pub ms_per_1k: Option<f64>,
}

/// Build a log of `n` committed transactions, then time recovering it.
fn run_recovery_cell(n: usize) -> RecoveryRow {
    let dir = scratch_dir(&format!("recover-{n}"));
    {
        let site = loaded_durable(&dir);
        for i in 0..n {
            commit_one(site.manager().handle().engine(), i as u64 % OBJECTS, 1);
        }
    }
    let wal = dir.join("site-1.wal");
    let wal_bytes = std::fs::metadata(&wal).map(|m| m.len()).unwrap_or(0);
    let t0 = Instant::now();
    let (site, stats) = open(&dir);
    let recover_ms = t0.elapsed().as_secs_f64() * 1e3;
    drop(site);
    let _ = std::fs::remove_dir_all(&dir);
    RecoveryRow {
        txns: n,
        wal_bytes,
        committed: stats.committed as usize,
        replayed: stats.replayed,
        recover_ms,
        ms_per_1k: (n > 0).then(|| recover_ms * 1000.0 / n as f64),
    }
}

// --- part B: fsync cost vs group-commit batching --------------------------

/// One measured committer count.
#[derive(Debug, Clone)]
pub struct FsyncRow {
    /// Committer threads.
    pub clients: usize,
    /// Committed transactions.
    pub commits: u64,
    /// Physical forces (real fsyncs) the workload cost.
    pub forces: u64,
    /// Commit acknowledgements amortized per force.
    pub commits_per_force: Option<f64>,
    /// Committed transactions per second.
    pub throughput: Option<f64>,
}

/// Run `txns` commits over `clients` threads.
fn run_fsync_cell(clients: usize, txns: usize) -> FsyncRow {
    let dir = scratch_dir(&format!("fsync-{clients}"));
    let site = loaded_durable(&dir);
    let engine = site.manager().handle().engine();
    let base = engine.log_stats();
    let per_client = txns / clients;
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            scope.spawn(move || {
                // Disjoint objects per thread: the measured contention is
                // on the log's force path, not on page locks.
                for i in 0..per_client {
                    commit_one(engine, (c as u64 * 7 + i as u64) % OBJECTS, 1);
                }
            });
        }
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let stats = engine.log_stats();
    drop(site);
    let _ = std::fs::remove_dir_all(&dir);
    let commits = (per_client * clients) as u64;
    let forces = stats.forces.saturating_sub(base.forces);
    FsyncRow {
        clients,
        commits,
        forces,
        commits_per_force: (forces > 0).then(|| commits as f64 / forces as f64),
        throughput: (elapsed > 0.0).then(|| commits as f64 / elapsed),
    }
}

/// Run both sweeps.
pub fn run(
    lengths: &[usize],
    clients: &[usize],
    fsync_txns: usize,
) -> (Vec<RecoveryRow>, Vec<FsyncRow>) {
    let recovery = lengths.iter().map(|&n| run_recovery_cell(n)).collect();
    let fsync = clients
        .iter()
        .map(|&c| run_fsync_cell(c, fsync_txns))
        .collect();
    (recovery, fsync)
}

/// Render part A.
pub(crate) fn recovery_table(rows: &[RecoveryRow]) -> TextTable {
    let mut t = TextTable::new(
        "E11a — restart recovery time vs durable log length",
        &[
            "txns",
            "wal KiB",
            "recommitted",
            "ops replayed",
            "recover ms",
            "ms / 1k txns",
        ],
    );
    for r in rows {
        t.row(vec![
            r.txns.to_string(),
            (r.wal_bytes / 1024).to_string(),
            r.committed.to_string(),
            r.replayed.to_string(),
            format!("{:.2}", r.recover_ms),
            opt2(r.ms_per_1k),
        ]);
    }
    t
}

/// Render part B.
pub(crate) fn fsync_table(rows: &[FsyncRow]) -> TextTable {
    let mut t = TextTable::new(
        "E11b — fsync cost vs committer threads (default config, no timer)",
        &["clients", "commits", "forces", "commits/force", "txn/s"],
    );
    for r in rows {
        t.row(vec![
            r.clients.to_string(),
            r.commits.to_string(),
            r.forces.to_string(),
            opt2(r.commits_per_force),
            opt2(r.throughput),
        ]);
    }
    t
}

/// The shape checks for this experiment.
pub fn verdicts(recovery: &[RecoveryRow], fsync: &[FsyncRow]) -> Vec<String> {
    let mut out = Vec::new();
    // E11-1: every recovery re-commits exactly its log: n transactions
    // plus the bulk load, nothing lost, nothing in doubt.
    let exact = recovery.iter().all(|r| r.committed == r.txns + 1);
    out.push(verdict(
        exact,
        format!(
            "E11-1: every replay re-commits its full log (n + bulk load), across {} lengths",
            recovery.len()
        ),
    ));
    // E11-2: replay scales with the log — per-transaction cost stays in
    // one generous band (25×) across the length spread, i.e. no
    // super-linear blowup as logs grow.
    let per_1k: Vec<f64> = recovery.iter().filter_map(|r| r.ms_per_1k).collect();
    let linearish = match (
        per_1k.iter().cloned().reduce(f64::min),
        per_1k.iter().cloned().reduce(f64::max),
    ) {
        (Some(lo), Some(hi)) if lo > 0.0 => hi / lo <= 25.0,
        _ => false,
    };
    out.push(verdict(
        linearish,
        "E11-2: per-transaction replay cost stays within a 25x band across log lengths",
    ));
    // E11-3: group commit amortizes fsync with no timer — a lone
    // committer pays exactly one fsync per commit, and eight committers,
    // arriving during each other's fsyncs, share them at >= 2 per force.
    let per_force = |n| {
        fsync
            .iter()
            .find(|r| r.clients == n)
            .and_then(|r| r.commits_per_force)
    };
    let amortizes = per_force(1) == Some(1.0) && per_force(8).is_some_and(|c| c >= 2.0);
    out.push(verdict(
        amortizes,
        "E11-3: one committer pays 1.00 fsync per commit; 8 share them at >= 2 commits/force, no timer",
    ));
    out
}

/// The report section.
pub fn report(quick: bool) -> String {
    let lengths: &[usize] = if quick {
        &[100, 1000]
    } else {
        &[200, 1000, 4000]
    };
    let clients = [1, 2, 8];
    let (recovery, fsync) = run(lengths, &clients, if quick { 400 } else { 1600 });
    section(
        &[recovery_table(&recovery), fsync_table(&fsync)],
        &verdicts(&recovery, &fsync),
    )
}
