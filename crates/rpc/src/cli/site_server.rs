//! `amc-site-server` — one local system as an independent TCP server.
//!
//! ```text
//! amc-site-server --site 1 --listen 127.0.0.1:7101 --protocol commit-before
//! ```
//!
//! The server owns its engine + WAL and serves protocol and admin frames
//! on a thread per connection ([`SiteServer`]) until killed. It starts
//! empty; the load generator (or any driver) pushes initial data through
//! the admin `Load` request. With `--listen host:0` the kernel picks the
//! port; the chosen address is printed as `listening on <addr>` so an
//! orchestrator can parse it.
//!
//! With `--wal-dir <dir>` the engine WAL is persisted to
//! `<dir>/site-N.wal` — the site's one durable file — and startup becomes
//! a recovery pass: committed state is replayed, losers are rolled back,
//! in-doubt transactions are resurrected to await the coordinator's final
//! state, and the communication manager's work map is rebuilt from the
//! markers and prepare records the log carries. A `recovered <summary>` line is
//! printed after the replay. Without the flag the site is purely
//! in-memory, as before.
//!
//! A `--protocol 2pc` site with `--wal-dir` also hosts a Paxos Commit
//! acceptor (`amc-paxos-coord`), mounted over the engine's group
//! committer: its promises and accepts are rows of `site-N.wal`, forced
//! with the engine's records, and replayed after engine recovery, so a
//! restarted acceptor keeps its word. A site without `--wal-dir` hosts no
//! acceptor: an acceptor is durable or absent.

use super::Flags;
use crate::recovery::SiteRecoveryManager;
use crate::SiteServer;
use amc_core::submit_mode_for;
use amc_engine::{TplConfig, TwoPLEngine};
use amc_net::comm::EngineHandle;
use amc_net::LocalCommManager;
use amc_obs::ObsSink;
use amc_paxos::AcceptorHost;
use amc_types::{ProtocolKind, SiteId};
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "amc-site-server --site <n> --listen <host:port> \
     --protocol <2pc|commit-after|commit-before> [--lock-timeout-ms <ms>] \
     [--wal-dir <dir>]";

/// The binary's entry point: parse the process arguments, run, exit.
pub fn main() {
    let mut flags = Flags::from_env(USAGE);
    let site: Option<u32> = flags.value("--site");
    let listen: String = flags
        .value("--listen")
        .unwrap_or_else(|| "127.0.0.1:0".into());
    let protocol = flags.value_with("--protocol", ProtocolKind::parse);
    let lock_timeout = Duration::from_millis(flags.value("--lock-timeout-ms").unwrap_or(500));
    let wal_dir: Option<String> = flags.value("--wal-dir");
    flags.finish();
    let (Some(site_n), Some(protocol)) = (site, protocol) else {
        flags.usage()
    };
    let mode = submit_mode_for(protocol);
    if site_n == 0 {
        eprintln!("site 0 is the central system, not a local site");
        std::process::exit(2);
    }
    let site = SiteId::new(site_n);
    let cfg = TplConfig {
        lock_timeout,
        deadlock_check: Duration::from_millis(1),
        ..TplConfig::default()
    };
    let (manager, acceptor) = match &wal_dir {
        Some(dir) => match SiteRecoveryManager::new(dir).open(site, cfg, ObsSink::disabled()) {
            Ok((manager, stats, wal)) => {
                println!(
                    "recovered site {site_n}: {} committed, {} rolled back, \
                         {} in doubt, {} records replayed, {} work entries restored{}",
                    stats.committed,
                    stats.rolled_back,
                    stats.in_doubt,
                    stats.replayed,
                    stats.restored_entries,
                    if stats.torn_tail {
                        " (torn tail truncated)"
                    } else {
                        ""
                    }
                );
                // Mounted after engine recovery cut any torn tail: the
                // acceptor replays its rows from the stable prefix.
                let acceptor = match protocol {
                    ProtocolKind::TwoPhaseCommit => match AcceptorHost::mount(site, wal) {
                        Ok(host) => Some(Arc::new(host)),
                        Err(e) => {
                            eprintln!("acceptor replay from {dir}: {e}");
                            std::process::exit(1);
                        }
                    },
                    _ => None,
                };
                (manager, acceptor)
            }
            Err(e) => {
                eprintln!("recovery from {dir}: {e}");
                std::process::exit(1);
            }
        },
        None => {
            let engine = Arc::new(TwoPLEngine::new(cfg));
            let engine = EngineHandle::Preparable(engine);
            (Arc::new(LocalCommManager::new(site, engine)), None)
        }
    };

    // The bind retries AddrInUse, so a restart in place (same port)
    // survives the kernel's TIME_WAIT on the old listener.
    let obs = ObsSink::disabled();
    let addr = match SiteServer::spawn_with_acceptor(site, manager, mode, &listen, obs, acceptor) {
        Ok(server) => {
            let addr = server.addr();
            // Leak: the server lives for the process.
            std::mem::forget(server);
            addr
        }
        Err(e) => {
            eprintln!("bind {listen}: {e}");
            std::process::exit(1);
        }
    };
    println!("listening on {addr}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    // Serve until killed.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
