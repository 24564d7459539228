//! `amc-site-server` — one local system as an independent TCP server.
//!
//! ```text
//! amc-site-server --site 1 --listen 127.0.0.1:7101 --protocol commit-before
//! ```
//!
//! The flags become one [`SiteSpec`]; the process serves the [`Site`]
//! `Site::open` builds from it — the assembly every runtime opens — on a
//! thread per connection ([`SiteServer`]) until killed, starting empty
//! (drivers load data through the admin `Load` request). With `--listen
//! host:0` the kernel picks the port, printed as `listening on <addr>`.
//!
//! With `--wal-dir <dir>` the site's log is `<dir>/site-N.wal`, and startup
//! is its recovery pass, summarized on a `recovered ...` line; a `--protocol
//! 2pc` site there also hosts a Paxos Commit acceptor (`amc-paxos-coord`)
//! whose rows ride the same file. Without the flag the site is in-memory
//! and hosts no acceptor: an acceptor is durable or absent.

use super::Flags;
use crate::SiteServer;
use amc_core::site::{Site, SiteLog, SiteSpec};
use amc_core::{config::EngineKind, submit_mode_for};
use amc_engine::TplConfig;
use amc_obs::ObsSink;
use amc_types::{ProtocolKind, SiteId};
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
    let id = SiteId::new(site_n);
    let durable = wal_dir.is_some();
    let spec = SiteSpec {
        id,
        engine: EngineKind::TwoPL,
        protocol,
        log: wal_dir.map_or(SiteLog::Memory, |dir| SiteLog::Dir(dir.into())),
        // An acceptor is durable or absent.
        acceptor: durable && protocol == ProtocolKind::TwoPhaseCommit,
        tpl: TplConfig {
            lock_timeout,
            deadlock_check: Duration::from_millis(1),
            ..TplConfig::default()
        },
    };
    let (site, stats) = match Site::open(spec) {
        Ok(opened) => opened,
        Err(e) => {
            eprintln!("open site {site_n}: {e}");
            std::process::exit(1);
        }
    };
    if durable {
        let (committed, undone, doubt) = (stats.committed, stats.rolled_back, stats.in_doubt);
        let (replayed, restored) = (stats.replayed, stats.restored_entries);
        let torn = stats.torn_tail.then_some(" (torn tail truncated)");
        let torn = torn.unwrap_or_default();
        println!(
            "recovered site {site_n}: {committed} committed, {undone} rolled back, \
             {doubt} in doubt, {replayed} records replayed, {restored} work entries restored{torn}"
        );
    }

    // The bind retries AddrInUse, so a restart in place (same port)
    // survives the kernel's TIME_WAIT on the old listener.
    let obs = ObsSink::disabled();
    let addr = match SiteServer::spawn(id, site.manager().clone(), mode, &listen, obs) {
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
