//! Trace explainer: reproduce a seeded nemesis chaos run and print the
//! causal event timeline of one (or every) global transaction.
//!
//! ```text
//! cargo run -p amc-bench --bin explain -- --seed 7
//! cargo run -p amc-bench --bin explain -- --seed 7 --txn 3 --protocol 2pc
//! cargo run -p amc-bench --bin explain -- --seed 5 --protocol commit-after --skip-decision-log
//! ```
//!
//! The run is the E5c scenario: two sites, five staggered disjoint
//! transfers, and a generated fault schedule (crashes with torn WAL tails,
//! directed partitions, loss bursts) — all derived deterministically from
//! `--seed`, so the printed timeline is bit-for-bit reproducible. The
//! `--skip-decision-log` knob disables the central decision-log force (the
//! injected atomicity bug the chaos harness hunts); the timeline then shows
//! the causal chain of the violation: `decide commit` → central `crash` →
//! `resume (no decision record: presume abort)`.
//!
//! Networked runs are explained from an event dump instead of a seed:
//!
//! ```text
//! amc-loadgen --sites ... --events-out /tmp/run.tsv
//! cargo run -p amc-bench --bin explain -- --events /tmp/run.tsv --txn 3
//! ```
//!
//! The dump is the loadgen's client-side observability log (`seq  at_us
//! txn  site  event`, one line per event — rpc retries, load-sheds and
//! reconnects included); `--txn` filters it to one global transaction.
//! Sharded-mode dumps (`amc-loadgen --coordinators`) carry `C<k>` in the
//! site column, and `--coordinator <k>` filters to that shard slot's
//! traffic.
//!
//! Exits non-zero when the requested timeline is empty.

use amc_bench::experiments::e5_crash;
use amc_rpc::cli::Flags;
use amc_types::{GlobalTxnId, ProtocolKind};
use std::process::ExitCode;

const OBJS: u64 = e5_crash::NEMESIS_TXNS;

/// Explain a networked run from a loadgen `--events-out` TSV dump:
/// `seq  at_us  txn  site  event`, txn rendered as `G<n>` (or `-`) in
/// site-server dumps and as the raw gtx in sharded dumps (where the site
/// column is `C<slot>`).
fn explain_dump(path: &str, txn: Option<u64>, coordinator: Option<u32>) -> ExitCode {
    let Ok(raw) = std::fs::read_to_string(path) else {
        eprintln!("cannot read {path}");
        return ExitCode::FAILURE;
    };
    // Sharded dumps carry the bare gtx; site-server dumps render `G<n>`.
    let wanted = txn.map(|t| [format!("G{t}"), t.to_string()]);
    let wanted_coord = coordinator.map(|k| format!("C{k}"));
    let mut shown = 0usize;
    let mut total = 0usize;
    let mut txns: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    for line in raw.lines() {
        let mut cols = line.splitn(5, '\t');
        let (Some(seq), Some(_at), Some(t), Some(site), Some(kind)) = (
            cols.next(),
            cols.next(),
            cols.next(),
            cols.next(),
            cols.next(),
        ) else {
            continue;
        };
        total += 1;
        if t != "-" {
            txns.insert(t.to_string());
        }
        if let Some(w) = &wanted {
            if !w.iter().any(|w| t == w) {
                continue;
            }
        }
        if let Some(w) = &wanted_coord {
            if site != w {
                continue;
            }
        }
        println!("[{seq:>6}] {t:<6} site {site:<3} {kind}");
        shown += 1;
    }
    eprintln!();
    eprintln!(
        "{shown} of {total} events shown, {} transactions in dump",
        txns.len()
    );
    if shown == 0 {
        if let Some(w) = wanted {
            eprintln!(
                "(no events for {} — transaction never reached the wire?)",
                w[0]
            );
        }
        if let Some(w) = wanted_coord {
            eprintln!("(no events routed to coordinator {w})");
        }
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let mut flags = Flags::from_env(format!(
        "explain --seed <u64> [--txn <1..={OBJS}>] \
         [--protocol 2pc|commit-after|commit-before] [--skip-decision-log]\n\
         \x20      explain --events <dump.tsv> [--txn <gtx>] [--coordinator <k>]"
    ));
    let seed: Option<u64> = flags.value("--seed");
    let events: Option<String> = flags.value("--events");
    let txn: Option<u64> = flags.value("--txn");
    let coordinator: Option<u32> = flags.value("--coordinator");
    let protocol = flags
        .value_with("--protocol", ProtocolKind::parse)
        .unwrap_or(ProtocolKind::CommitBefore);
    let skip_decision_log = flags.switch("--skip-decision-log");
    flags.finish();
    if let Some(path) = &events {
        return explain_dump(path, txn, coordinator);
    }
    // The coordinator filter only makes sense on a sharded dump.
    let (Some(seed), None) = (seed, coordinator) else {
        flags.usage()
    };
    // The E5c sweep's scenario for this seed.
    let (plan, fed, programs) = e5_crash::nemesis_scenario(protocol, seed, skip_decision_log);
    let report = fed.run(programs);

    println!(
        "nemesis run: seed {} protocol {} faults {} ({} events recorded, {} evicted)",
        seed,
        protocol.label(),
        plan.len(),
        report.events.total_recorded(),
        report.events.evicted(),
    );
    if skip_decision_log {
        println!("decision-log force DISABLED (--skip-decision-log): expect atomicity damage");
    }
    println!();

    let txns: Vec<u64> = match txn {
        Some(t) => vec![t],
        None => (1..=OBJS).collect(),
    };
    let mut empty = false;
    for t in txns {
        let gtx = GlobalTxnId::new(t);
        let verdict = report
            .outcomes
            .get(&gtx)
            .map_or("UNRESOLVED".to_string(), |v| v.to_string());
        println!("=== {gtx}: verdict {verdict} ===");
        let timeline = report.events.render_timeline(gtx);
        if timeline.is_empty() {
            println!("(no events — transaction never started?)");
            empty = true;
        } else {
            print!("{timeline}");
        }
        println!();
    }

    let derived = report.events.derive();
    println!("derived (all transactions):");
    println!("  commit latency us   {}", derived.commit_latency_us);
    println!("  resolve latency us  {}", derived.resolve_latency_us);
    println!("  blocking window us  {}", derived.blocking_window_us);
    println!("  redo chain depth    {}", derived.redo_depth);
    println!("  undo chain depth    {}", derived.undo_depth);
    println!("  messages per txn    {}", derived.msgs_per_txn);

    if empty {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
