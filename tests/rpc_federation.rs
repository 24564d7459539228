//! End-to-end networked federation: the coordinator drives real site
//! servers over loopback TCP, through the framed codec and the
//! deadline/retry client — including a site restart mid-run.
//!
//! For each protocol: deploy a loopback [`Fleet`] (one thread-per-
//! connection site server per site, ephemeral ports), run a mixed
//! transfer workload through `Federation::with_transport`, then
//! [`Fleet::restart_site`]: kill one site's server, restart the site as a
//! killed process restarts (`Site::restart`: engine recovery, work map
//! rebuilt from the database), and respawn the server **in place on the
//! same port**, leaning on the server's bind retry to ride out the old
//! listener's TIME_WAIT. The
//! run must commit transactions both before and after the restart, the
//! client must log a reconnect, and the global sum must be conserved at
//! the end — the paper's atomicity guarantee surviving an actual socket
//! teardown, not a simulated one.

use amc::core::{Federation, FederationConfig, TxnOutcome};
use amc::obs::{EventKind, ObsSink};
use amc::rpc::{Fleet, RetryPolicy, Wire};
use amc::types::{ObjectId, Operation, ProtocolKind, SiteId, Value};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

const SITES: u32 = 2;
const OBJS: u64 = 8;
const PER_OBJ: i64 = 100;

fn obj(site: u32, i: u64) -> ObjectId {
    ObjectId::new(u64::from(site) * (1 << 32) + i)
}

/// Test-speed deadlines: a dead site is declared down in well under a
/// second instead of the production policy's many seconds.
fn fast_policy() -> RetryPolicy {
    RetryPolicy {
        connect_timeout: Duration::from_millis(200),
        request_timeout: Duration::from_secs(2),
        max_attempts: 6,
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(40),
    }
}

/// A two-site transfer program; `i` picks the objects and direction.
fn transfer(i: u64) -> BTreeMap<SiteId, Vec<Operation>> {
    let (from, to) = if i.is_multiple_of(2) {
        (1u32, 2u32)
    } else {
        (2, 1)
    };
    let amt = 1 + (i % 5) as i64;
    BTreeMap::from([
        (
            SiteId::new(from),
            vec![Operation::Increment {
                obj: obj(from, i % OBJS),
                delta: -amt,
            }],
        ),
        (
            SiteId::new(to),
            vec![Operation::Increment {
                obj: obj(to, (i + 3) % OBJS),
                delta: amt,
            }],
        ),
    ])
}

/// Run `n` transfers starting at `base`, retrying transport-level
/// failures (a restart in progress) a bounded number of times. Returns
/// how many committed.
fn drive(fed: &Arc<Federation>, base: u64, n: u64) -> u64 {
    let mut committed = 0;
    for i in base..base + n {
        let program = transfer(i);
        for attempt in 0..8 {
            match fed.run_transaction(&program) {
                Ok(report) => {
                    if report.outcome == TxnOutcome::Committed {
                        committed += 1;
                    }
                    break;
                }
                Err(_) if attempt < 7 => {
                    std::thread::sleep(Duration::from_millis(50));
                }
                Err(e) => panic!("transaction {i} never got through: {e}"),
            }
        }
    }
    committed
}

fn restart_run(protocol: ProtocolKind) {
    let mut cfg = FederationConfig::uniform(SITES, protocol);
    cfg.tpl.lock_timeout = Duration::from_millis(200);
    cfg.tpl.deadlock_check = Duration::from_millis(1);
    let obs = ObsSink::enabled(1 << 16);
    let mut fleet = Fleet::spawn(&cfg, Wire::ThreadedPooled, fast_policy(), obs.clone())
        .expect("bind loopback");
    let fed = Arc::new(Federation::with_transport(cfg, fleet.transport()));
    for s in 1..=SITES {
        let data: Vec<(ObjectId, Value)> = (0..OBJS)
            .map(|i| (obj(s, i), Value::counter(PER_OBJ)))
            .collect();
        fed.load_site(SiteId::new(s), &data).expect("load");
    }

    let before = drive(&fed, 0, 15);
    assert!(before > 0, "{protocol:?}: nothing committed before restart");

    // Server down (sockets die), engine crashed and recovered, a new
    // server up in place on the same port.
    let addr = fleet.addrs()[&SiteId::new(2)];
    fleet
        .restart_site(SiteId::new(2))
        .expect("restart in place");
    assert_eq!(fleet.addrs()[&SiteId::new(2)], addr, "same port");

    let after = drive(&fed, 100, 15);
    assert!(after > 0, "{protocol:?}: nothing committed after restart");

    // The client must have survived the socket teardown by reconnecting.
    let log = obs.snapshot();
    let reconnected = log
        .events()
        .any(|e| matches!(e.kind, EventKind::RpcReconnect { to } if to == SiteId::new(2)));
    assert!(
        reconnected,
        "{protocol:?}: no rpc-reconnect event to the restarted site"
    );

    // Atomicity across the restart: transfers conserve the global sum.
    let dumps = fed.dumps().expect("dumps");
    let sum: i64 = dumps
        .values()
        .flat_map(|d| d.values())
        .map(|v| v.counter)
        .sum();
    assert_eq!(
        sum,
        i64::from(SITES) * OBJS as i64 * PER_OBJ,
        "{protocol:?}: global sum not conserved across restart"
    );
}

#[test]
fn two_phase_commit_survives_site_restart() {
    restart_run(ProtocolKind::TwoPhaseCommit);
}

#[test]
fn commit_after_survives_site_restart() {
    restart_run(ProtocolKind::CommitAfter);
}

#[test]
fn commit_before_survives_site_restart() {
    restart_run(ProtocolKind::CommitBefore);
}
