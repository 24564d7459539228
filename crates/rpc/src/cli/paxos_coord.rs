//! `amc-paxos-coord` — the *incumbent coordinator replica* of a Paxos
//! Commit deployment, as its own killable OS process.
//!
//! ```text
//! amc-paxos-coord --sites 127.0.0.1:7101,127.0.0.1:7102,127.0.0.1:7103 \
//!     --acceptors 3 --txns 20 [--crash-at-txn 9 --crash-after-votes 2]
//! ```
//!
//! Site *i* (1-based) is the *i*-th address; the first `--acceptors`
//! sites must be `--protocol 2pc` site servers started with `--wal-dir`,
//! so each hosts an acceptor whose promises and accepts are rows of its
//! own write-ahead log. The
//! process loads initial counters (unless `--no-load`), then drives
//! `--txns` sequential cross-site transfers, printing one `txn <i>
//! <outcome>` line each.
//!
//! With `--crash-at-txn j --crash-after-votes k` the incumbent "dies"
//! mid-transaction *j*: after the *k*-th prepare vote has been
//! replicated to the acceptor group — prepared sites wedged in doubt,
//! decision never sent — it prints `in-doubt gtx=<n>` and parks
//! forever. The chaos harness then delivers the real `kill -9` and a
//! standby replica finishes the transaction from the acceptor logs.

use super::{coordinator_transport, Flags};
use amc_core::{Federation, FederationConfig, TxnOutcome};
use amc_types::{ProtocolKind, SiteId};
use amc_workload::{initial_counters, object, transfer};
use std::net::SocketAddr;
use std::time::Duration;

const USAGE: &str = "amc-paxos-coord --sites <addr,addr,...> --acceptors <n> \
     [--txns <n>] [--objects <n>] [--no-load] [--first-gtx <n>] \
     [--crash-at-txn <i> --crash-after-votes <k>]";

/// The binary's entry point: parse the process arguments, run, exit.
pub fn main() {
    let mut flags = Flags::from_env(USAGE);
    let addrs: Vec<SocketAddr> = flags.list("--sites");
    let acceptors: u32 = flags.value("--acceptors").unwrap_or(0);
    let txns: u64 = flags.value("--txns").unwrap_or(20);
    let objects: u64 = flags.value("--objects").unwrap_or(8);
    let load = !flags.switch("--no-load");
    let first_gtx: u64 = flags.value("--first-gtx").unwrap_or(1);
    let crash_at_txn: Option<u64> = flags.value("--crash-at-txn");
    let crash_after_votes: u32 = flags.value("--crash-after-votes").unwrap_or(1);
    flags.finish();
    if addrs.is_empty() || acceptors == 0 || acceptors as usize > addrs.len() {
        flags.usage();
    }
    let sites = addrs.len() as u32;
    // The acceptors live in the site servers, behind the transport.
    let cfg =
        FederationConfig::uniform(sites, ProtocolKind::TwoPhaseCommit).with_paxos_commit(acceptors);
    let fed = Federation::with_transport(cfg, coordinator_transport(&addrs));
    fed.set_first_gtx(first_gtx);

    if load {
        for site in (1..=sites).map(SiteId::new) {
            if let Err(e) = fed.load_site(site, &initial_counters(site, objects)) {
                eprintln!("load {site}: {e}");
                std::process::exit(1);
            }
        }
        println!("loaded {sites} sites x {objects} objects");
    }

    let (mut committed, mut aborted) = (0u64, 0u64);
    for i in 0..txns {
        if crash_at_txn == Some(i) {
            fed.inject_coordinator_crash_after_votes(crash_after_votes);
        }
        // Site pair and object pair cycle deterministically, so the harness
        // can reconstruct the expected books from the printed outcomes.
        let from = SiteId::new(1 + (i % u64::from(sites)) as u32);
        let to = SiteId::new(1 + from.raw() % sites);
        let program = transfer(
            object(from, i % objects),
            object(to, (i + 3) % objects),
            1 + (i % 5) as i64,
        );
        match fed.run_transaction(&program) {
            Ok(report) => {
                match report.outcome {
                    TxnOutcome::Committed => committed += 1,
                    _ => aborted += 1,
                }
                println!("txn {i} {:?}", report.outcome);
            }
            Err(e) if crash_at_txn == Some(i) => {
                // The injected death: the transaction is in doubt at the
                // acceptor group and this replica will never decide it.
                // Park (don't exit) so the harness's kill -9 is what
                // actually ends the incumbent — no destructors, no
                // good-byes, exactly like a real crash.
                println!("in-doubt gtx={} ({e})", first_gtx + i);
                use std::io::Write as _;
                let _ = std::io::stdout().flush();
                loop {
                    std::thread::sleep(Duration::from_secs(3600));
                }
            }
            Err(e) => {
                eprintln!("txn {i}: {e}");
                std::process::exit(1);
            }
        }
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
    }
    println!("done committed={committed} aborted={aborted}");
    std::process::exit(if committed > 0 { 0 } else { 1 });
}
