//! `amc-coord-server` — one shard-slot coordinator as an independent TCP
//! server: the scale-out deployment's unit of commit capacity.
//!
//! ```text
//! amc-coord-server --slot 0 --coordinators 4 \
//!     --sites 127.0.0.1:7101,127.0.0.1:7102 --protocol 2pc \
//!     --listen 127.0.0.1:7201
//! ```
//!
//! Site *i* (1-based) is the *i*-th address; every coordinator of a
//! deployment must list the **same fleet in the same order**. The
//! process embeds one [`Federation`] pinned to id-range slot `--slot` of
//! `--coordinators` (so the N coordinator processes mint disjoint
//! transaction ids with no coordination), fronts it with a listener
//! speaking the coordinator frames, and serves until killed. With
//! `--listen host:0` the kernel picks the port; the chosen address is
//! printed as `listening on <addr>` so an orchestrator can parse it.
//!
//! A driver (`amc-loadgen --coordinators`, or any [`CoordClient`]) routes
//! each transaction to the coordinator owning its minimum key and sends
//! the per-site operation buckets in one `Exec` frame.
//!
//! [`CoordClient`]: crate::CoordClient
//! [`Federation`]: amc_core::Federation

use crate::{CoordInfo, CoordServer, RetryPolicy, TcpTransport};
use amc_core::{Federation, FederationConfig};
use amc_net::transport::FederationTransport;
use amc_obs::ObsSink;
use amc_types::{ProtocolKind, SiteId};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: amc-coord-server --slot <k> --coordinators <n> \
         --sites <addr,addr,...> --protocol <2pc|commit-after|commit-before> \
         [--listen <host:port>]"
    );
    std::process::exit(2);
}

/// The binary's entry point: parse `std::env::args`, run, exit.
pub fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut slot = None;
    let mut coordinators = None;
    let mut addrs: Vec<SocketAddr> = Vec::new();
    let mut protocol = None;
    let mut listen = String::from("127.0.0.1:0");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--slot" => {
                i += 1;
                slot = args.get(i).and_then(|v| v.parse::<u32>().ok());
            }
            "--coordinators" => {
                i += 1;
                coordinators = args.get(i).and_then(|v| v.parse::<u32>().ok());
            }
            "--sites" => {
                i += 1;
                let list = args.get(i).unwrap_or_else(|| usage());
                addrs = list
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
            "--listen" => {
                i += 1;
                listen = args.get(i).cloned().unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
        i += 1;
    }
    let Some(slot) = slot else { usage() };
    let Some(coordinators) = coordinators else {
        usage()
    };
    let Some(protocol) = protocol else { usage() };
    if addrs.is_empty() || slot >= coordinators {
        usage();
    }

    let sites = addrs.len() as u32;
    let addr_map: BTreeMap<SiteId, SocketAddr> = addrs
        .iter()
        .enumerate()
        .map(|(i, a)| (SiteId::new(i as u32 + 1), *a))
        .collect();
    let policy = RetryPolicy {
        connect_timeout: Duration::from_millis(500),
        request_timeout: Duration::from_secs(5),
        max_attempts: 6,
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(50),
    };
    let transport = Arc::new(TcpTransport::new(addr_map, policy, ObsSink::disabled()));
    let cfg = FederationConfig::uniform(sites, protocol).sharded(slot, coordinators);
    let mut fed = Federation::with_transport(cfg, transport as Arc<dyn FederationTransport>);
    fed.set_recording(false, false);
    let info = CoordInfo {
        slot,
        coordinators,
        epoch: 1,
        sites: (1..=sites).map(SiteId::new).collect(),
    };
    let server = match CoordServer::spawn(Arc::new(fed), info, &listen) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bind {listen}: {e}");
            std::process::exit(1);
        }
    };
    println!("listening on {}", server.addr());
    println!("coordinator slot {slot}/{coordinators}, {sites} sites, {protocol:?}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    // Serve until killed.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}
