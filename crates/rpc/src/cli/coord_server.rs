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

use super::{coordinator_transport, Flags};
use crate::{CoordInfo, CoordServer};
use amc_core::{Federation, FederationConfig};
use amc_types::{ProtocolKind, SiteId};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "amc-coord-server --slot <k> --coordinators <n> \
     --sites <addr,addr,...> --protocol <2pc|commit-after|commit-before> \
     [--listen <host:port>]";

/// The binary's entry point: parse the process arguments, run, exit.
pub fn main() {
    let mut flags = Flags::from_env(USAGE);
    let slot: Option<u32> = flags.value("--slot");
    let coordinators: Option<u32> = flags.value("--coordinators");
    let addrs: Vec<SocketAddr> = flags.list("--sites");
    let protocol = flags.value_with("--protocol", ProtocolKind::parse);
    let listen: String = flags
        .value("--listen")
        .unwrap_or_else(|| "127.0.0.1:0".into());
    flags.finish();
    let (Some(slot), Some(coordinators), Some(protocol)) = (slot, coordinators, protocol) else {
        flags.usage()
    };
    if addrs.is_empty() || slot >= coordinators {
        flags.usage();
    }

    let sites = addrs.len() as u32;
    let cfg = FederationConfig::uniform(sites, protocol).sharded(slot, coordinators);
    let fed = Federation::with_transport(cfg, coordinator_transport(&addrs));
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
