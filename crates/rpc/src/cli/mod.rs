//! The bodies of the four deployment binaries. The root package declares
//! the `[[bin]]`s as thin wrappers over these `main`s, so cargo builds
//! them for the root integration tests (`CARGO_BIN_EXE_*`) and tier-1
//! exercises the same code the deployed processes run.

pub mod coord_server;
pub mod loadgen;
pub mod paxos_coord;
pub mod site_server;

use crate::{RetryPolicy, TcpTransport};
use amc_net::transport::FederationTransport;
use amc_obs::ObsSink;
use amc_types::SiteId;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

/// The `--name value` arguments of one binary, taken flag by flag: every
/// accessor removes what it reads and [`Flags::finish`] rejects whatever
/// is left, so an unknown flag, a missing or unparsable value and a
/// repeated flag all end in the usage text and exit status 2.
pub struct Flags {
    args: Vec<String>,
    usage: String,
}

impl Flags {
    /// The process arguments, with the text [`Flags::usage`] prints.
    pub fn from_env(usage: impl Into<String>) -> Flags {
        Flags {
            args: std::env::args().skip(1).collect(),
            usage: usage.into(),
        }
    }

    /// Print the usage text and exit with status 2.
    pub fn usage(&self) -> ! {
        eprintln!("usage: {}", self.usage);
        std::process::exit(2)
    }

    /// Whether the bare switch `name` was given.
    pub fn switch(&mut self, name: &str) -> bool {
        let at = self.args.iter().position(|a| a == name);
        at.map(|i| self.args.remove(i)).is_some()
    }

    /// The value after `name`, converted by `parse`; `None` when the flag
    /// is absent.
    pub fn value_with<T>(&mut self, name: &str, parse: impl Fn(&str) -> Option<T>) -> Option<T> {
        let at = self.args.iter().position(|a| a == name)?;
        if at + 1 == self.args.len() {
            self.usage();
        }
        let value = self.args.remove(at + 1);
        self.args.remove(at);
        Some(parse(&value).unwrap_or_else(|| self.usage()))
    }

    /// The value after `name` through its [`FromStr`].
    pub fn value<T: FromStr>(&mut self, name: &str) -> Option<T> {
        self.value_with(name, |v| v.parse().ok())
    }

    /// The comma-separated list after `name`; empty when the flag is absent.
    pub fn list<T: FromStr>(&mut self, name: &str) -> Vec<T> {
        self.value_with(name, |v| v.split(',').map(|x| x.parse().ok()).collect())
            .unwrap_or_default()
    }

    /// Every flag has been taken: anything left is unknown.
    pub fn finish(&self) {
        if !self.args.is_empty() {
            self.usage();
        }
    }
}

/// Site *i* (1-based) is the *i*-th address of a `--sites` list.
fn site_addrs(addrs: &[SocketAddr]) -> BTreeMap<SiteId, SocketAddr> {
    (1..).map(SiteId::new).zip(addrs.iter().copied()).collect()
}

/// The pooled link an embedded coordinator (`amc-coord-server`,
/// `amc-paxos-coord`) drives its site fleet over: short dial and back-off
/// bounds, so a dead site surfaces within the harness's patience.
fn coordinator_transport(addrs: &[SocketAddr]) -> Arc<dyn FederationTransport> {
    let policy = RetryPolicy {
        connect_timeout: Duration::from_millis(500),
        request_timeout: Duration::from_secs(5),
        max_attempts: 6,
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(50),
    };
    Arc::new(TcpTransport::new(
        site_addrs(addrs),
        policy,
        ObsSink::disabled(),
    ))
}
