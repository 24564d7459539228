//! What a finished transaction keeps for good (ROADMAP 6(c)'s first
//! ledger number). Work-map slots, markers and the engines' terminated
//! tables are never reclaimed — the piggy-backed low-water mark is ROADMAP
//! 6(a) — so whatever a finished transaction retains is what every
//! transaction costs until teardown, and at tens of thousands of
//! transactions per second it is what decides a run's peak RSS. A settled
//! work-map slot is one packed word in a dense per-stripe table, 8 B a site
//! (27 B of each transfer's figure over three sites, block slack
//! included). The in-memory WAL is not among them: a checkpoint cuts it
//! each time it grew by the buffer pool's size, so it stays within twice
//! the pool.
//!
//! A counting global allocator measures live-heap growth over 10 000
//! two-site transfers on an in-process three-site federation — all 2PL,
//! and 2PL/OCC/2PL under the portable protocols — and holds it to a
//! per-protocol budget; a 2PC lane adds a read-only third participant.
//! Each site's pool is 8 frames, so its log is cut every 32 KB, about
//! twenty times in the run, and what is left of it at the end is one
//! 64 KB segment per site — 20 B of each transfer's figure, wherever the
//! last cut fell. Every lane prints its figure and its per-size-class
//! table (`cargo test --release --test retained_memory -- --nocapture`).

use amc::core::{Federation, FederationConfig, ProtocolKind, TxnOutcome};
use amc::storage::PAGE_SIZE;
use amc::types::{Operation, SiteId};
use amc::workload::{initial_counters, object, transfer};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering::Relaxed};

/// Power-of-two size classes: class `c` counts allocations of
/// `(2^(c-1), 2^c]` bytes.
const CLASSES: usize = 32;

struct Counting;

static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static LIVE_BY_CLASS: [AtomicI64; CLASSES] = [const { AtomicI64::new(0) }; CLASSES];
static BYTES_BY_CLASS: [AtomicI64; CLASSES] = [const { AtomicI64::new(0) }; CLASSES];

fn note(size: usize, sign: i64) {
    let class = (size.next_power_of_two().trailing_zeros() as usize).min(CLASSES - 1);
    LIVE_BYTES.fetch_add(sign * size as i64, Relaxed);
    LIVE_BY_CLASS[class].fetch_add(sign, Relaxed);
    BYTES_BY_CLASS[class].fetch_add(sign * size as i64, Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// statistics (relaxed atomics) and never influence what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), 1);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(layout.size(), -1);
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), 1);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(layout.size(), -1);
        note(new_size, 1);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[derive(Clone, Copy)]
struct Census {
    live: i64,
    count: [i64; CLASSES],
    bytes: [i64; CLASSES],
}

fn census() -> Census {
    Census {
        live: LIVE_BYTES.load(Relaxed),
        count: std::array::from_fn(|c| LIVE_BY_CLASS[c].load(Relaxed)),
        bytes: std::array::from_fn(|c| BYTES_BY_CLASS[c].load(Relaxed)),
    }
}

/// The per-size-class growth between two censuses, one row per class that
/// moved.
fn table(before: &Census, after: &Census, txns: i64) -> String {
    let mut out = String::from("  class ≤ B   live allocs      bytes   B/txn\n");
    for c in 0..CLASSES {
        let (n, b) = (
            after.count[c] - before.count[c],
            after.bytes[c] - before.bytes[c],
        );
        if n != 0 || b != 0 {
            out += &format!(
                "  {:>9} {:>13} {:>10} {:>7.1}\n",
                1u64 << c,
                n,
                b,
                b as f64 / txns as f64
            );
        }
    }
    out
}

const SITES: u32 = 3;
const OBJECTS: u64 = 64;
const TXNS: u64 = 10_000;
const POOL_FRAMES: usize = 8;

/// Live-heap growth per finished transfer on the federation `cfg`
/// describes, with the table that explains it. With `read_only`, each
/// transfer also reads an object at the third site, a participant that
/// votes read-only.
fn retained_per_txn(lane: &str, mut cfg: FederationConfig, read_only: bool) -> (f64, String) {
    cfg.tpl.pool_frames = POOL_FRAMES;
    let mut fed = Federation::new(cfg);
    fed.set_recording(false, false);
    for s in 1..=SITES {
        let site = SiteId::new(s);
        fed.load_site(site, &initial_counters(site, OBJECTS))
            .unwrap();
    }
    let site = |i: u64| SiteId::new(1 + (i % u64::from(SITES)) as u32);
    // Programs exist before the first census: they are the client's.
    let programs: Vec<_> = (0..TXNS)
        .map(|i| {
            let mut program = transfer(
                object(site(i), i % OBJECTS),
                object(site(i + 1), (i * 7) % OBJECTS),
                1 + (i % 5) as i64,
            );
            if read_only {
                let obj = object(site(i + 2), (i * 3) % OBJECTS);
                program.insert(site(i + 2), vec![Operation::Read { obj }]);
            }
            program
        })
        .collect();
    let before = census();
    for program in &programs {
        let report = fed.run_transaction(program).unwrap();
        assert_eq!(report.outcome, TxnOutcome::Committed, "{lane}");
    }
    assert_eq!(fed.pending_obligations(), 0, "{lane}");
    let after = census();
    let bound = 2 * (POOL_FRAMES * PAGE_SIZE) as u64;
    for s in 1..=SITES {
        let log = fed
            .manager(SiteId::new(s))
            .unwrap()
            .handle()
            .engine()
            .log_stats();
        let held = log.stable_bytes - log.truncated_bytes;
        assert!(
            log.truncated_bytes > 0,
            "{lane}: site {s}'s log was never cut"
        );
        assert!(
            held <= bound,
            "{lane}: site {s} holds {held} B of log > {bound}"
        );
    }
    let per_txn = (after.live - before.live) as f64 / TXNS as f64;
    (per_txn, table(&before, &after, TXNS as i64))
}

/// One test, lanes in turn: the allocator is process-wide, so a concurrent
/// test would be counted too.
#[test]
fn finished_transactions_shrink_to_their_scalars() {
    // Bytes of live heap a finished two-site transfer may keep: one packed
    // word in the work map of every site whose stripe block its id falls
    // in (three here), and for the portable protocols two marker entries;
    // its log bytes (212 / 238 / 238 written) go at the next cut. 2PC and
    // commit-after hear the decision and settle to that word. Commit-before
    // settles at its vote: an `Undo` brings the forward program and the
    // database holds the before images, so nothing waits in memory for a
    // decision it never hears (§3.3: "no further actions"). A read-only
    // 2PC participant settles at its prepare. Measured 50 / 112 / 110 B
    // (105 / 166 / 166 with a hashed slot map, 301 / 403 / 403 before the
    // log cut), and 50 B with a read-only third site.
    let budgets = [
        (ProtocolKind::TwoPhaseCommit, 64.0),
        (ProtocolKind::CommitAfter, 128.0),
        (ProtocolKind::CommitBefore, 128.0),
    ];
    let mut all_2pl = Vec::new();
    for (protocol, budget) in budgets {
        let cfg = FederationConfig::uniform(SITES, protocol);
        let per_txn = within(&protocol.to_string(), cfg, false, budget);
        all_2pl.push((protocol, budget, per_txn));
    }
    let two_pc = FederationConfig::uniform(SITES, ProtocolKind::TwoPhaseCommit);
    within("2pc with a read-only site", two_pc, true, 64.0);
    // Site 2 runs the optimistic engine, on the same core: its log is cut
    // as 2PL's is, and its commit stamps go once no live transaction read
    // before them. It keeps what a 2PL site keeps, and no more. Measured
    // 111 / 110 B.
    for (protocol, budget, uniform) in all_2pl.into_iter().skip(1) {
        let lane = format!("{protocol} over 2PL/OCC");
        let cfg = FederationConfig::heterogeneous(SITES, protocol);
        let per_txn = within(&lane, cfg, false, budget);
        assert!(
            per_txn <= uniform,
            "{lane}: {per_txn:.1} B per finished transaction > {uniform:.1} B over all-2PL"
        );
    }
}

/// Run `lane` and hold what a finished transaction retains to `budget`.
fn within(lane: &str, cfg: FederationConfig, read_only: bool, budget: f64) -> f64 {
    let (per_txn, table) = retained_per_txn(lane, cfg, read_only);
    println!("{lane}: {per_txn:.1} B retained per finished transaction (budget {budget})");
    print!("{table}");
    assert!(
        per_txn <= budget,
        "{lane}: {per_txn:.0} B of live heap per finished transaction > {budget}\n{table}"
    );
    per_txn
}
