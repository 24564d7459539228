//! F1 — the Fig. 1 architecture invariants: star topology, one connection
//! per site, no local-to-local traffic, and integration of additional
//! systems without disturbing existing ones.

use amc::core::{Federation, FederationConfig, ProtocolKind};
use amc::obs::EventKind;
use amc::types::{ObjectId, Operation, SiteId, Value};
use std::collections::{BTreeMap, BTreeSet};

fn obj(site: u32, i: u64) -> ObjectId {
    ObjectId::new(u64::from(site) * (1 << 32) + i)
}

fn loaded(protocol: ProtocolKind, sites: u32) -> Federation {
    let mut fed = Federation::new(FederationConfig::uniform(sites, protocol));
    fed.set_recording(true, true);
    for s in 1..=sites {
        let data: Vec<(ObjectId, Value)> =
            (0..16).map(|i| (obj(s, i), Value::counter(100))).collect();
        fed.load_site(SiteId::new(s), &data).unwrap();
    }
    fed
}

fn spread_program(sites: u32) -> BTreeMap<SiteId, Vec<Operation>> {
    (1..=sites)
        .map(|s| {
            (
                SiteId::new(s),
                vec![Operation::Increment {
                    obj: obj(s, 0),
                    delta: 1,
                }],
            )
        })
        .collect()
}

/// The `(from, to)` of every message `fed` logged.
fn links(fed: &Federation) -> Vec<(SiteId, SiteId)> {
    let link = |e: &amc::obs::Event| match e.kind {
        EventKind::MsgSend { from, to, .. } => Some((from, to)),
        _ => None,
    };
    fed.events().events().filter_map(link).collect()
}

#[test]
fn every_message_involves_the_central_system() {
    for protocol in ProtocolKind::ALL {
        let fed = loaded(protocol, 4);
        fed.run_transaction(&spread_program(4)).unwrap();
        let links = links(&fed);
        assert!(!links.is_empty());
        for (from, to) in links {
            // Exactly one end of a star link is the hub.
            assert!(
                from.is_central() != to.is_central(),
                "{protocol}: {from} -> {to}"
            );
        }
    }
}

#[test]
fn locals_never_exchange_messages_directly() {
    for protocol in ProtocolKind::ALL {
        let fed = loaded(protocol, 3);
        fed.run_transaction(&spread_program(3)).unwrap();
        for (from, to) in links(&fed) {
            assert!(
                from.is_central() || to.is_central(),
                "{protocol}: local-to-local message {from} -> {to}"
            );
        }
    }
}

#[test]
fn adding_a_site_does_not_disturb_existing_ones() {
    // §2: "the integration of additional systems ... does not cause further
    // problems affecting the already integrated existing database systems".
    // Run the same two-site program on a 2-site and on a 5-site federation;
    // the untouched sites see zero traffic and identical outcomes.
    for protocol in ProtocolKind::ALL {
        let small = loaded(protocol, 2);
        let large = loaded(protocol, 5);
        let program = spread_program(2);
        let a = small.run_transaction(&program).unwrap();
        let b = large.run_transaction(&program).unwrap();
        assert_eq!(a.outcome, b.outcome, "{protocol}");
        assert_eq!(a.messages, b.messages, "{protocol}: traffic changed");
        let touched: BTreeSet<SiteId> = links(&large)
            .into_iter()
            .flat_map(|(from, to)| [from, to])
            .filter(|s| !s.is_central())
            .collect();
        assert_eq!(
            touched,
            BTreeSet::from([SiteId::new(1), SiteId::new(2)]),
            "{protocol}: uninvolved sites saw traffic"
        );
    }
}

#[test]
fn per_transaction_traffic_scales_linearly_with_participants() {
    for protocol in ProtocolKind::ALL {
        let fed = loaded(protocol, 4);
        let two = fed.run_transaction(&spread_program(2)).unwrap().messages;
        let four = fed.run_transaction(&spread_program(4)).unwrap().messages;
        assert_eq!(four, two * 2, "{protocol}: {two} vs {four}");
    }
}

/// Every `crates/*/src/**/*.rs` file as `(path, text)`.
fn crate_sources() -> Vec<(String, String)> {
    fn sources(dir: &std::path::Path, out: &mut Vec<(String, String)>) {
        for entry in std::fs::read_dir(dir).expect("readable source dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                sources(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path).expect("utf-8 source");
                out.push((path.to_string_lossy().replace('\\', "/"), text));
            }
        }
    }
    let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut files = Vec::new();
    for krate in std::fs::read_dir(&crates).expect("crates/ exists") {
        sources(&krate.expect("dir entry").path().join("src"), &mut files);
    }
    files
}

/// The files under `crates/*/src` whose non-test part — up to the first
/// column-0 `#[cfg(test)]` — contains one of `needles`, minus those whose
/// path contains one of `allowed`.
fn non_test_code_having(needles: &[&str], allowed: &[&str]) -> Vec<String> {
    crate_sources()
        .into_iter()
        .filter(|(path, text)| {
            let code = text.split("\n#[cfg(test)]").next().unwrap_or(text);
            needles.iter().any(|n| code.contains(n)) && !allowed.iter().any(|ok| path.contains(ok))
        })
        .map(|(path, _)| path)
        .collect()
}

/// Every byte layout is a row table of `amc_types::codec`. Raw
/// little-endian conversions are the mark of a hand-rolled codec, so
/// they may appear under `crates/*/src` only where listed here — a new
/// file that needs them is either a table that should be declared with
/// `wire_struct!` / `wire_enum!`, or one more line in this list with
/// its reason.
#[test]
fn byte_layouts_are_declared_through_the_one_codec() {
    const ALLOWED: &[&str] = &[
        "types/src/codec.rs",      // the codec's integer primitives
        "types/src/value.rs",      // Value's fixed 12-byte form
        "storage/src/page.rs",     // the slotted page layout
        "storage/src/checksum.rs", // FNV-1a
        "wal/src/durable.rs",      // the [len][fnv1a] frame header
        "rpc/src/wire.rs",         // the stream's u32 length prefix
        "workload/src/mixes.rs",   // not a layout: bytes fed to a fingerprint hash
    ];
    let files = crate_sources();
    let having = |needles: &[&str]| -> Vec<&str> {
        files
            .iter()
            .filter(|(_, text)| needles.iter().any(|n| text.contains(n)))
            .map(|(path, _)| path.as_str())
            .collect()
    };
    let raw: Vec<&str> = having(&["to_le_bytes", "from_le_bytes"])
        .into_iter()
        .filter(|path| !ALLOWED.iter().any(|ok| path.ends_with(ok)))
        .collect();
    assert!(raw.is_empty(), "hand-rolled byte codec in {raw:?}");
    let cursors = having(&["struct Reader", "struct Cursor"]);
    assert_eq!(cursors.len(), 1, "one cursor over bytes: {cursors:?}");
    assert!(cursors[0].ends_with("types/src/codec.rs"));
}

/// Workload objects are named in one place: `amc_workload::object` and
/// `site_of_object`. A file that spells the `site * 2^32 + index`
/// arithmetic itself is a private `fn obj` waiting to disagree with them.
#[test]
fn object_ids_are_minted_by_the_workload_crate_alone() {
    let minting = non_test_code_having(
        &["1 << 32", "OBJECTS_PER_SITE_STRIDE"],
        &["workload/src/program.rs"],
    );
    assert!(minting.is_empty(), "object-id arithmetic in {minting:?}");
}

/// The deployment binaries read their arguments through `cli::Flags`; only
/// it and the bench binaries (positional experiment names) touch the
/// process arguments.
#[test]
fn process_arguments_are_parsed_by_one_helper() {
    let parsing = non_test_code_having(
        &["std::env::args"],
        &["rpc/src/cli/mod.rs", "bench/src/bin/"],
    );
    assert!(
        parsing.is_empty(),
        "a hand-rolled argument parser in {parsing:?}"
    );
}

/// One central system: `Federation::begin → Txn → step → end` is the only
/// code that constructs, feeds, logs for, parks or resumes a `Coordinator`.
/// Outside the state machine's own file, each of these appears in exactly
/// one file under `crates/` — and there exactly once, so both pumps, a
/// Paxos override and a central restart all come through the same line.
#[test]
fn one_file_constructs_feeds_and_resumes_coordinators() {
    const THE_CENTRAL_SYSTEM: &str = "core/src/federation.rs";
    let sources = crate_sources();
    for needle in [
        ".on_event(",
        "CoordEvent::from_reply",
        "Coordinator::new(",
        ".with_piggyback(",
        "CoordAction::Decided",
        ".resume(",
        "l1.acquire_mode(",
        "l1.release(",
        "l1.release_all(",
    ] {
        let files = non_test_code_having(&[needle], &["core/src/coordinator.rs"]);
        assert_eq!(files.len(), 1, "`{needle}` in {files:?}");
        assert!(
            files[0].ends_with(THE_CENTRAL_SYSTEM),
            "`{needle}` in {files:?}"
        );
        let (_, text) = sources.iter().find(|(path, _)| *path == files[0]).unwrap();
        let code = text.split("\n#[cfg(test)]").next().unwrap_or(text);
        assert_eq!(
            code.matches(needle).count(),
            1,
            "`{needle}` sites in {files:?}"
        );
    }
}

/// The testbed exists once: `amc_rpc::Fleet` is the only code that turns
/// managers into a loopback deployment, and `amc_rpc::Wire` the only enum
/// naming the deployments. Outside `amc-rpc`'s own server and transport
/// modules and the CLI, nothing under `crates/*/src` spawns a site server
/// or dials a TCP transport by hand — an experiment that does is a cell
/// that differs from its neighbours in more than the axis it sweeps.
#[test]
fn loopback_fleets_are_built_and_named_in_one_place() {
    let by_hand = non_test_code_having(
        &[
            "SiteServer::spawn",
            "EventServer::spawn",
            "TcpTransport::new",
        ],
        &[
            "rpc/src/server.rs",     // the threaded runtime itself
            "rpc/src/event_loop.rs", // the event-loop runtime itself
            "rpc/src/transport.rs",  // the TCP transport itself
            "rpc/src/client.rs",     // RpcClient's doc example: one client, one server
            "rpc/src/fleet.rs",      // the one builder
            "rpc/src/cli/",          // the deployed processes
        ],
    );
    assert!(by_hand.is_empty(), "a hand-built fleet in {by_hand:?}");
    // The deployment labels (`--runtime` / `--client` values included) are
    // string literals of exactly one file, which declares exactly one
    // public enum.
    let labelled = non_test_code_having(&["\"in-process\"", "\"threaded", "\"event-loop"], &[]);
    assert_eq!(labelled.len(), 1, "deployment labels in {labelled:?}");
    assert!(labelled[0].ends_with("rpc/src/fleet.rs"), "{labelled:?}");
    let (_, fleet) = crate_sources()
        .into_iter()
        .find(|(path, _)| *path == labelled[0])
        .unwrap();
    assert_eq!(fleet.matches("\npub enum ").count(), 1);
    assert!(fleet.contains("\npub enum Wire {"));
}

/// A table row is the cell's `RunMetrics`. Under
/// `crates/bench/src/experiments/` no struct re-declares one of its
/// quantities as a field — a second `committed` or `p50_ms` is a second
/// definition waiting to differ from `amc_bench::table::Col`'s — and no
/// lane offers load from client threads of its own instead of
/// `amc_core::closed_loop`. The exceptions are named, each with its reason.
#[test]
fn experiment_rows_are_run_metrics_and_load_goes_through_the_one_driver() {
    // (file, struct): rows that are not measurements of a closed-loop run.
    const NOT_RUN_METRICS: &[(&str, &str)] = &[
        ("e4_complexity.rs", "Row"),        // one simulated transaction's costs
        ("e5_crash.rs", "Row"),             // one simulated crash scenario
        ("e5_crash.rs", "NemesisRow"),      // verdict counts of one simulated chaos run
        ("e6_correctness.rs", "Row"),       // an oracle audit's counts, by final outcome
        ("e11_recovery.rs", "RecoveryRow"), // records a restart recommitted
        ("e11_recovery.rs", "FsyncRow"),    // a bare engine: no federation, no programs
        ("e14_shard.rs", "ReconfigRow"),    // counted while the topology changes under it
    ];
    // Files that may start threads of their own.
    const OWN_THREADS: &[&str] = &[
        "e11_recovery.rs", // committers against a bare engine: nothing to run a program
        "e14_shard.rs",    // clients that must keep running *while* add/remove reconfigure
    ];
    let quantity = |field: &str| {
        ["committed", "throughput", "txn_s", "txn_per_s"].contains(&field)
            || field.starts_with("p50_")
            || field.starts_with("p99_")
            || field.ends_with("_p50_ms")
            || field.ends_with("_p99_ms")
    };
    let mut experiments = 0;
    for (path, text) in crate_sources() {
        let Some(file) = path.split("bench/src/experiments/").nth(1) else {
            continue;
        };
        experiments += 1;
        let code = text.split("\n#[cfg(test)]").next().unwrap_or(&text);
        let mut current = None;
        for line in code.lines() {
            if let Some(name) = line.strip_prefix("pub struct ") {
                current = name.split([' ', '{', '<']).next();
            } else if line.starts_with('}') {
                current = None;
            }
            let field = line
                .trim()
                .strip_prefix("pub ")
                .and_then(|f| f.split_once(':'));
            if let (Some(owner), Some((field, _))) = (current, field) {
                assert!(
                    !quantity(field) || NOT_RUN_METRICS.contains(&(file, owner)),
                    "{path}: `{owner}.{field}` re-declares a RunMetrics quantity"
                );
            }
        }
        let own_threads = code.contains("thread::scope") || code.contains("thread::spawn");
        assert!(
            !own_threads || OWN_THREADS.contains(&file),
            "{path} offers load from its own threads"
        );
        assert!(
            !code.contains(" as usize]") || !code.contains("sort"),
            "{path} picks percentiles by hand"
        );
    }
    assert!(experiments >= 14, "experiments not found: {experiments}");
}

/// Every runtime's messages are `MsgSend` / `MsgDeliver` events of one
/// vocabulary, each emitted where that runtime hands a message to its
/// wire: the simulator's router, the rpc client and server, and the
/// blocking pump. A recorder of messages anywhere else is a second trace.
#[test]
fn message_events_are_emitted_where_a_runtime_meets_its_wire() {
    let mut emitting = non_test_code_having(&["EventKind::MsgSend {"], &["obs/src/"]);
    emitting.sort();
    let expected = [
        "core/src/federation.rs", // the blocking pump
        "net/src/router.rs",      // the simulated network
        "rpc/src/client.rs",      // a request leaving over TCP
        "rpc/src/server.rs",      // its reply
    ];
    assert_eq!(emitting.len(), expected.len(), "{emitting:?}");
    for (path, expected) in emitting.iter().zip(expected) {
        assert!(path.ends_with(expected), "{path} emits MsgSend");
    }
}

/// The reserved id region — the store's direct-mapped relation, the
/// markers, the epoch object, every oracle's filter — hangs on one bit, and
/// one file says which: `ObjectId::RESERVED`.
#[test]
fn the_reserved_region_bit_is_defined_in_one_file() {
    let defining = non_test_code_having(&["<< 63", "0x8000_0000_0000_0000"], &[]);
    assert_eq!(defining.len(), 1, "the top bit spelled in {defining:?}");
    assert!(defining[0].ends_with("types/src/ids.rs"), "{defining:?}");
}

/// A commit or abort gives back exactly what its holder recorded taking
/// (`BlockingLockManager::release`, `L1LockManager::release`): one visit
/// per stripe it used. Sweeping every stripe for a transaction is for a
/// holder whose record was lost with it — a crash. Each sweeping caller is
/// named here, by file and enclosing function, with its reason.
#[test]
fn whole_table_lock_sweeps_serve_only_crash_paths() {
    const CRASH_PATHS: &[(&str, &str)] = &[
        ("core/src/federation.rs", "crash"), // a central crash loses every coordinator's program
        ("engine/src/tpl.rs", "crash_impl"), // a site crash drops its transactions' page lists
        ("mlt/src/locks.rs", "release_all"), // the L1 sweep the central crash calls
    ];
    let mut callers = Vec::new();
    for (path, text) in crate_sources() {
        let code = text.split("\n#[cfg(test)]").next().unwrap_or(&text);
        for needle in [".release_txn(", "l1.release_all("] {
            for (at, _) in code.match_indices(needle) {
                let (_, after_fn) = code[..at].rsplit_once("fn ").expect("inside a function");
                let name = after_fn.split(['(', '<']).next().unwrap();
                let file = path.split("crates/").last().unwrap();
                callers.push((file.to_string(), name.to_string()));
            }
        }
    }
    callers.sort();
    let expected: Vec<(String, String)> = CRASH_PATHS
        .iter()
        .map(|(file, name)| (file.to_string(), name.to_string()))
        .collect();
    assert_eq!(callers, expected, "whole-table lock sweeps");
}

/// ROADMAP 5(c)'s score, computed instead of copied: the lines of every
/// `crates/*/src` file up to its first column-0 `#[cfg(test)]`. The
/// ceiling is the count of the last PR that lowered it; a PR that needs
/// more lines than it removes raises the ceiling in the same diff, where
/// a reviewer sees it.
#[test]
fn non_test_lines_only_go_down() {
    const CEILING: usize = 23_995;
    let score: usize = crate_sources()
        .iter()
        .map(|(_, text)| {
            text.lines()
                .take_while(|line| !line.starts_with("#[cfg(test)]"))
                .count()
        })
        .sum();
    assert!(
        score <= CEILING,
        "non-test lines under crates/*/src grew: {score} > {CEILING}"
    );
    println!("non-test lines: {score} (ceiling {CEILING})");
}
