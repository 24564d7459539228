//! `amc-loadgen`, end to end, as the processes CI and the README start:
//! site mode against two `amc-site-server`s, sharded mode against two
//! `amc-coord-server`s over a shared 2PC fleet, and the exits a bad
//! command line must take. Every flag spelled here is one CI or the
//! README uses.

use amc::shard::ShardMap;
use amc::types::SiteId;
use amc::workload::{MixGen, MixKind, MixSpec};
use std::io::{BufRead, Read};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Output, Stdio};

/// A spawned server process; killed on drop so a failed assertion does
/// not leak children.
struct Proc {
    child: Child,
    addr: SocketAddr,
    /// Held open: a server that prints after its address must not find
    /// its stdout closed.
    _stdout: std::io::BufReader<ChildStdout>,
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Start `bin` with `args` on a kernel-picked port and read the address
/// off its `listening on <addr>` line.
fn spawn(bin: &str, args: &[String]) -> Proc {
    let mut child = Command::new(bin)
        .args(args)
        .args(["--listen", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    let mut stdout = std::io::BufReader::new(child.stdout.take().expect("piped stdout"));
    let addr = stdout
        .by_ref()
        .lines()
        .find_map(|line| {
            let line = line.expect("server stdout");
            line.strip_prefix("listening on ")
                .map(|a| a.parse().expect("printed socket addr"))
        })
        .expect("server never printed its listening address");
    Proc {
        child,
        addr,
        _stdout: stdout,
    }
}

fn sites(protocol: &str) -> Vec<Proc> {
    (1..=2)
        .map(|n| {
            spawn(
                env!("CARGO_BIN_EXE_amc-site-server"),
                &["--site", &n.to_string(), "--protocol", protocol].map(String::from),
            )
        })
        .collect()
}

fn addr_list(procs: &[Proc]) -> String {
    let addrs: Vec<String> = procs.iter().map(|p| p.addr.to_string()).collect();
    addrs.join(",")
}

fn loadgen(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_amc-loadgen"))
        .args(args)
        .output()
        .expect("run amc-loadgen")
}

fn events_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("amc-loadgen-{tag}-{}.tsv", std::process::id()))
}

/// The summary line: `committed=[1-9]…` and a `workload=` column.
fn assert_summary(out: &Output) -> String {
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(out.status.success(), "exit {:?}: {stdout}", out.status);
    let summary = stdout
        .lines()
        .find(|l| l.starts_with("committed="))
        .unwrap_or_else(|| panic!("no summary line in {stdout:?}"));
    let committed = summary["committed=".len()..].chars().next();
    assert!(
        matches!(committed, Some('1'..='9')),
        "nothing committed: {summary}"
    );
    assert!(summary.contains(" workload="), "{summary}");
    stdout
}

/// Every `--events-out` row is `seq \t at_us \t txn \t site \t event`.
fn assert_event_rows(path: &PathBuf) -> Vec<Vec<String>> {
    let dump = std::fs::read_to_string(path).expect("events dump");
    let _ = std::fs::remove_file(path);
    let rows: Vec<Vec<String>> = dump
        .lines()
        .map(|l| l.splitn(5, '\t').map(String::from).collect())
        .collect();
    assert!(!rows.is_empty(), "empty events dump");
    for row in &rows {
        assert_eq!(row.len(), 5, "{row:?}");
        row[0].parse::<u64>().expect("seq");
        row[1].parse::<u64>().expect("at_us");
        assert!(!row[2].is_empty() && !row[3].is_empty() && !row[4].is_empty());
    }
    rows
}

#[test]
fn site_mode_commits_the_default_workload_and_dumps_its_events() {
    let fleet = sites("commit-before");
    let events = events_path("sites");
    let out = loadgen(&[
        "--sites",
        &addr_list(&fleet),
        "--protocol",
        "commit-before",
        "--txns",
        "60",
        "--clients",
        "3",
        "--events-out",
        events.to_str().expect("utf-8 temp path"),
    ]);
    let stdout = assert_summary(&out);
    assert!(stdout.contains("workload=transfer"), "{stdout}");
    assert!(!stdout.contains("coord 0:"), "{stdout}");
    assert_event_rows(&events);
}

#[test]
fn sharded_mode_takes_a_workload_and_reports_every_coordinator() {
    let fleet = sites("2pc");
    let coords: Vec<Proc> = (0..2)
        .map(|slot| {
            spawn(
                env!("CARGO_BIN_EXE_amc-coord-server"),
                &[
                    "--slot",
                    &slot.to_string(),
                    "--coordinators",
                    "2",
                    "--sites",
                    &addr_list(&fleet),
                    "--protocol",
                    "2pc",
                ]
                .map(String::from),
            )
        })
        .collect();
    let events = events_path("coords");
    let out = loadgen(&[
        "--coordinators",
        &addr_list(&coords),
        "--workload",
        "hotkey",
        "--theta",
        "0.9",
        "--txns",
        "60",
        "--clients",
        "3",
        "--objects",
        "16",
        "--seed",
        "7",
        "--events-out",
        events.to_str().expect("utf-8 temp path"),
    ]);
    let stdout = assert_summary(&out);
    assert!(stdout.contains("workload=hotkey theta=0.9"), "{stdout}");
    for k in 0..2 {
        let lines = stdout
            .lines()
            .filter(|l| l.starts_with(&format!("coord {k}:")));
        assert_eq!(lines.count(), 1, "coord {k}: {stdout}");
    }
    let rows = assert_event_rows(&events);
    assert!(
        rows.iter().all(|r| r[3] == "C0" || r[3] == "C1"),
        "sharded rows name their coordinator in the site column"
    );
}

#[test]
fn a_bad_command_line_exits_2_with_usage() {
    for args in [
        &[
            "--sites",
            "127.0.0.1:1",
            "--protocol",
            "2pc",
            "--frobnicate",
        ][..],
        &["--sites", "127.0.0.1:1", "--protocol", "3pc"],
        &[
            "--sites",
            "127.0.0.1:1",
            "--protocol",
            "2pc",
            "--txns",
            "many",
        ],
        // One client link is deployed: there is no flag to pick another.
        &[
            "--sites",
            "127.0.0.1:1",
            "--protocol",
            "2pc",
            "--client",
            "mux",
        ],
        &[
            "--sites",
            "127.0.0.1:1",
            "--protocol",
            "2pc",
            "--theta",
            "9",
        ],
        &["--coordinators", "not-an-address"],
        &["--sites", "127.0.0.1:1"],
        &["--txns"],
    ] {
        let out = loadgen(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: amc-loadgen"), "{args:?}: {stderr}");
    }
}

/// One server runtime is deployed: `amc-site-server` has no flag to pick
/// another, and rejects one before it binds anything.
#[test]
fn a_site_server_takes_no_runtime_flag() {
    for runtime in ["event-loop", "threaded"] {
        let out = Command::new(env!("CARGO_BIN_EXE_amc-site-server"))
            .args(["--site", "1", "--protocol", "2pc", "--runtime", runtime])
            .output()
            .expect("run amc-site-server");
        assert_eq!(out.status.code(), Some(2), "{runtime}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: amc-site-server"), "{stderr}");
    }
}

/// `amc-loadgen --coordinators` routes with `amc_core::owner_slot_of`; the
/// shard map an in-process router consults must name the same owner for
/// every program, or the two would split a transaction's keys across
/// coordinators.
#[test]
fn shard_map_and_loadgen_route_by_the_same_function() {
    let sites = 4;
    let spec = MixSpec {
        sites,
        ..MixSpec::default()
    };
    let programs = MixGen::new(MixKind::TpccLite, spec, 0x5eed).programs(1_000);
    for coordinators in 1..=8 {
        let map = ShardMap::new(coordinators, (1..=sites).map(SiteId::new));
        let mut busy = std::collections::BTreeSet::new();
        for p in &programs {
            let owner = amc::core::owner_slot_of(&p.per_site, coordinators);
            assert_eq!(map.owner_of(&p.per_site), owner);
            assert!(owner < coordinators);
            busy.insert(owner);
        }
        assert_eq!(busy.len() as u32, coordinators, "every slot owns something");
    }
}
