//! F1 — the Fig. 1 architecture invariants: star topology, one connection
//! per site, no local-to-local traffic, and integration of additional
//! systems without disturbing existing ones.

use amc::core::{Federation, FederationConfig, ProtocolKind};
use amc::obs::EventKind;
use amc::types::{ObjectId, Operation, SiteId, Value};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::path::Path;

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

/// Every `.rs` file that can name a workspace crate's items, as `(path,
/// text)` relative to the repo root: `crates/*/src`, the umbrella's
/// `src/`, `tests/`, `examples/` and `perfbench/src`.
fn rust_sources() -> Vec<(String, String)> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) {
        for entry in std::fs::read_dir(dir).expect("readable source dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                walk(root, &path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path).expect("utf-8 source");
                let rel = path.strip_prefix(root).expect("under the repo");
                out.push((rel.to_string_lossy().replace('\\', "/"), text));
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/ exists") {
        walk(
            root,
            &krate.expect("dir entry").path().join("src"),
            &mut files,
        );
    }
    for dir in ["src", "tests", "examples", "perfbench/src"] {
        walk(root, &root.join(dir), &mut files);
    }
    files
}

/// Every `crates/*/src/**/*.rs` file as `(path, text)`.
fn crate_sources() -> Vec<(String, String)> {
    rust_sources()
        .into_iter()
        .filter(|(path, _)| path.starts_with("crates/"))
        .collect()
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

/// The files under `crates/*/src` whose non-test part contains `needle`
/// (`allowed` aside) must be `home` alone, and there it appears once.
fn one_call_site(needle: &str, home: &str, allowed: &[&str]) {
    let files = non_test_code_having(&[needle], allowed);
    assert_eq!(files.len(), 1, "`{needle}` in {files:?}");
    assert!(files[0].ends_with(home), "`{needle}` in {files:?}");
    let sources = crate_sources();
    let (_, text) = sources.iter().find(|(path, _)| *path == files[0]).unwrap();
    let code = text.split("\n#[cfg(test)]").next().unwrap_or(text);
    assert_eq!(
        code.matches(needle).count(),
        1,
        "`{needle}` sites in {home}"
    );
}

/// One central system: `Federation::begin → Txn → step → end` is the only
/// code that constructs, feeds, logs for, parks or resumes a `Coordinator`.
/// Outside the state machine's own file, each of these appears in exactly
/// one file under `crates/` — and there exactly once, so both pumps, a
/// Paxos override and a central restart all come through the same line.
#[test]
fn one_file_constructs_feeds_and_resumes_coordinators() {
    for needle in [
        ".on_event(",
        "CoordEvent::from_reply",
        "Coordinator::new(",
        ".with_piggyback(",
        "CoordAction::Decided",
        ".resume(",
    ] {
        one_call_site(
            needle,
            "core/src/federation.rs",
            &["core/src/coordinator.rs"],
        );
    }
}

/// The central system's state has one owner: `Central` alone mints ids,
/// takes and gives back L1 locks, sweeps the table after a crash and parks
/// coordinators — each through one line of `core/src/central.rs`.
#[test]
fn one_struct_owns_ids_l1_locks_and_parked_coordinators() {
    for needle in [
        "next_gtx.fetch_add(",
        "l1.acquire_mode(",
        "l1.release(",
        "l1.release_all(",
        "unresolved.lock().push(",
    ] {
        one_call_site(needle, "core/src/central.rs", &[]);
    }
}

/// A site has one constructor and one restart: outside tests, only
/// `core/src/site.rs` builds a communication manager, opens a durable
/// engine or rebuilds a work map, so every runtime's site is assembled,
/// and restarted, the way a deployed process is. Acceptors are mounted
/// there too and nowhere else, on the site's own log, so every runtime's
/// acceptor crashes and restarts with its site.
#[test]
fn one_struct_opens_and_restarts_sites() {
    let homes = |needle: &str| -> Vec<String> {
        let mut files = non_test_code_having(&[needle], &[]);
        files.sort();
        files
    };
    for needle in [
        "LocalCommManager::new(",
        "TwoPLEngine::open_durable(",
        "OccEngine::open_durable(",
        ".restore_work(",
    ] {
        let files = homes(needle);
        assert!(
            files.len() == 1 && files[0].ends_with("core/src/site.rs"),
            "`{needle}` in {files:?}"
        );
    }
    let mounts = homes("AcceptorHost::mount(");
    assert!(
        mounts.len() == 1 && mounts[0].ends_with("core/src/site.rs"),
        "`AcceptorHost::mount(` in {mounts:?}"
    );
}

/// A site's acceptor answers its messages in one place: the transport
/// module's dispatch into a manager, which the in-process transport, both
/// TCP site servers and the simulator all go through. No runtime wraps
/// its own interception around the manager.
#[test]
fn one_dispatch_runs_the_acceptor_hooks() {
    let calling = non_test_code_having(
        &[".pre_dispatch(", ".post_dispatch(", ".admin_pre("],
        &["net/src/transport.rs"],
    );
    assert!(calling.is_empty(), "acceptor hooks called in {calling:?}");
}

/// One engine core under both schedulers: inside `amc-engine` only
/// `core.rs` constructs a log or a group committer, and its one forced
/// append is recovery's checkpoint. Every other record either scheduler
/// writes goes through the site's `GroupCommitter`, so both get group
/// commit, the write-ahead rule on eviction and the cut.
#[test]
fn one_engine_core_owns_the_log() {
    for needle in [
        "LogManager::new(",
        "LogManager::open_durable(",
        "GroupCommitter::new(",
        ".append_forced(",
    ] {
        let mut files = non_test_code_having(&[needle], &[]);
        files.retain(|path| path.starts_with("crates/engine/src/"));
        assert!(
            files.len() == 1 && files[0].ends_with("engine/src/core.rs"),
            "`{needle}` in {files:?}"
        );
    }
    let (_, text) = crate_sources()
        .into_iter()
        .find(|(path, _)| path.ends_with("engine/src/core.rs"))
        .unwrap();
    let code = text.split("\n#[cfg(test)]").next().unwrap_or(&text);
    let forcing: Vec<&str> = code
        .match_indices(".append_forced(")
        .map(|(at, _)| {
            let (_, after_fn) = code[..at].rsplit_once("fn ").expect("inside a function");
            after_fn.split(['(', '<']).next().unwrap()
        })
        .collect();
    assert_eq!(forcing, ["recover"], "forced appends in the engine core");
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
    // The deployment labels are string literals of exactly one file,
    // which declares exactly one public enum.
    let labelled = non_test_code_having(&["\"in-process\"", "\"threaded"], &[]);
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
    assert!(experiments >= 12, "experiments not found: {experiments}");
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

/// SplitMix64's output function is written once, `amc_types::splitmix64`:
/// every seeded draw, jitter and ownership hash that needs it keeps its own
/// keying and state and mixes through that one function. A copy multiplies
/// by the mixer's first constant, in whatever case or digit grouping; the
/// page checksum's lane seeds name the constant without multiplying by it.
#[test]
fn the_splitmix64_multiplier_is_written_in_one_file() {
    let mixing: Vec<_> = crate_sources()
        .into_iter()
        .filter(|(_, text)| {
            let code = text.split("\n#[cfg(test)]").next().unwrap_or(text);
            let code = code.to_lowercase().replace(['_', ' ', '\n'], "");
            ["mul(0xbf58476d1ce4e5b9", "*0xbf58476d1ce4e5b9"]
                .iter()
                .any(|needle| code.contains(needle))
        })
        .map(|(path, _)| path)
        .collect();
    assert_eq!(
        mixing,
        ["crates/types/src/mix.rs"],
        "the mixer written in {mixing:?}"
    );
}

/// A commit or abort gives back exactly what its holder recorded taking
/// (`BlockingLockManager::release`, `L1LockManager::release`): one visit
/// per stripe it used. Sweeping every stripe for a transaction is for a
/// holder whose record was lost with it — a crash. Each sweeping caller is
/// named here, by file and enclosing function, with its reason.
#[test]
fn whole_table_lock_sweeps_serve_only_crash_paths() {
    const CRASH_PATHS: &[(&str, &str)] = &[
        ("core/src/central.rs", "crash"), // a central crash loses every coordinator's program
        ("engine/src/tpl.rs", "after_crash"), // a site crash drops its transactions' page lists
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
    const CEILING: usize = 23_131;
    let score: usize = crate_sources()
        .iter()
        .map(|(_, text)| non_test_lines(text).count())
        .sum();
    assert!(
        score <= CEILING,
        "non-test lines under crates/*/src grew: {score} > {CEILING}"
    );
    println!("non-test lines: {score} (ceiling {CEILING})");
}

/// The crate a source file compiles into, as far as the public-item rule
/// needs to tell crates apart: `crates/<name>/src/**` is `<name>`, except
/// `src/bin/` files, which (like every test, example, the umbrella and
/// `perfbench/`) are crates of their own.
fn crate_of(path: &str) -> &str {
    match path.strip_prefix("crates/") {
        Some(rest) if !rest.contains("/src/bin/") => rest.split('/').next().unwrap_or(rest),
        _ => path,
    }
}

/// A file's part that is not test code: its lines up to the first
/// column-0 `#[cfg(test)]` (the cut `non_test_lines_only_go_down` scores).
fn non_test_lines(text: &str) -> impl Iterator<Item = &str> {
    text.lines()
        .take_while(|line| !line.starts_with("#[cfg(test)]"))
}

/// `line` without its `//` comment (doc comments included).
fn uncommented(line: &str) -> &str {
    line.split("//").next().unwrap_or(line)
}

fn words(code: &str) -> impl Iterator<Item = &str> {
    code.split(|c: char| !c.is_alphanumeric() && c != '_')
        .filter(|w| !w.is_empty())
}

/// The code of a file's doctests: `///` and `//!` lines inside a fence
/// that rustdoc compiles. A doctest is an external crate.
fn doctest_code(text: &str) -> String {
    let mut code = String::new();
    // Inside a fence: whether rustdoc compiles it.
    let mut fence: Option<bool> = None;
    for line in text.lines() {
        let trimmed = line.trim_start();
        let Some(doc) = trimmed
            .strip_prefix("///")
            .or_else(|| trimmed.strip_prefix("//!"))
        else {
            continue;
        };
        let doc = doc.trim_start();
        if let Some(lang) = doc.strip_prefix("```") {
            fence = match fence {
                None => Some(!lang.contains("text") && !lang.contains("ignore")),
                Some(_) => None,
            };
        } else if fence == Some(true) {
            code.push_str(doc);
            code.push('\n');
        }
    }
    code
}

/// One `pub` item declared in the non-test part of `crates/*/src`.
struct PubItem {
    path: String,
    line: usize,
    name: String,
    /// The type whose inherent `impl` block declares it, if any.
    owner: Option<String>,
    /// The words of its public interface: a fn's signature, a struct's
    /// `pub` fields, an enum's or trait's body, a type's, const's or
    /// static's declaration.
    interface: HashSet<String>,
}

/// The name and keyword of a line that declares a public item:
/// `pub (const )?(fn|struct|enum|trait|type|const|static) <name>`.
fn pub_declaration(line: &str) -> Option<(&'static str, &str)> {
    let rest = line.trim_start().strip_prefix("pub ")?;
    let rest = match rest.strip_prefix("const ") {
        Some(after) if after.starts_with("fn ") => after,
        _ => rest,
    };
    ["fn", "struct", "enum", "trait", "type", "const", "static"]
        .into_iter()
        .find_map(|kw| {
            let after = rest.strip_prefix(kw)?.strip_prefix(' ')?;
            let end = after
                .find(|c: char| !c.is_alphanumeric() && c != '_' && c != '$')
                .unwrap_or(after.len());
            (end > 0).then(|| (kw, &after[..end]))
        })
}

/// The self type of an inherent `impl` line (`impl<T> Name<T> {`); `None`
/// for a trait impl, whose methods carry no visibility.
fn impl_self_type(trimmed: &str) -> Option<String> {
    let mut rest = trimmed.strip_prefix("impl")?;
    if rest.starts_with('<') {
        let mut depth = 0;
        let close = rest.find(|c| {
            depth += match c {
                '<' => 1,
                '>' => -1,
                _ => 0,
            };
            depth == 0
        })?;
        rest = &rest[close + 1..];
    }
    let head = rest.split('{').next()?;
    if head.contains(" for ") || !rest.starts_with(' ') {
        return None;
    }
    head.split(['<', ' '])
        .find(|w| !w.is_empty())
        .map(str::to_string)
}

/// The type a line declares under any visibility, if it does.
fn type_declaration(line: &str) -> Option<&str> {
    let mut rest = line.trim_start();
    if let Some(after) = rest.strip_prefix("pub") {
        rest = match after.strip_prefix('(') {
            Some(scoped) => scoped.split_once(')')?.1,
            None => after,
        }
        .trim_start();
    }
    ["struct ", "enum ", "trait ", "type "]
        .into_iter()
        .find_map(|kw| rest.strip_prefix(kw))
        .and_then(|after| words(after).next())
}

/// Every public item of the non-test part of `crates/*/src` in `sources`.
/// A method's owner is kept only when its crate declares that type by
/// name.
fn pub_items(sources: &[(String, String)]) -> Vec<PubItem> {
    let crate_code = || {
        sources
            .iter()
            .filter(|(path, _)| path.starts_with("crates/"))
            .map(|(path, text)| {
                (
                    path,
                    crate_of(path),
                    non_test_lines(text).collect::<Vec<_>>(),
                )
            })
    };
    let types: HashSet<(&str, &str)> = crate_code()
        .flat_map(|(_, krate, lines)| {
            lines
                .into_iter()
                .filter_map(move |line| type_declaration(line).map(|ty| (krate, ty)))
        })
        .collect();
    let mut items = Vec::new();
    for (path, krate, lines) in crate_code() {
        let mut owner: Option<(String, usize)> = None;
        for (at, line) in lines.iter().enumerate() {
            let trimmed = line.trim_start();
            let indent = line.len() - trimmed.len();
            if trimmed.starts_with("impl") && trimmed.ends_with('{') {
                // A type a macro declares is judged where the macro is called.
                owner = impl_self_type(trimmed)
                    .filter(|ty| types.contains(&(krate, ty.as_str())))
                    .map(|ty| (ty, indent));
            } else if trimmed == "}" && owner.as_ref().is_some_and(|(_, i)| *i == indent) {
                owner = None;
            }
            let Some((kw, name)) = pub_declaration(line) else {
                continue;
            };
            let mut interface = String::new();
            let block = trimmed.ends_with('{') && matches!(kw, "struct" | "enum" | "trait");
            if block {
                interface.push_str(uncommented(line));
                for body in &lines[at + 1..] {
                    if body.trim() == "}" && body.len() - body.trim_start().len() == indent {
                        break;
                    }
                    if kw != "struct" || body.trim_start().starts_with("pub ") {
                        interface.push_str(uncommented(body));
                        interface.push('\n');
                    }
                }
            } else {
                // Up to the body or the end of the declaration.
                for decl in &lines[at..] {
                    let decl = uncommented(decl);
                    let end = decl.find(['{', ';']);
                    interface.push_str(&decl[..end.unwrap_or(decl.len())]);
                    interface.push('\n');
                    if end.is_some() {
                        break;
                    }
                }
            }
            items.push(PubItem {
                path: path.clone(),
                line: at + 1,
                name: name.to_string(),
                owner: owner.as_ref().map(|(ty, _)| ty.clone()),
                interface: words(&interface).map(str::to_string).collect(),
            });
        }
    }
    items
}

/// The public items of `sources` that nothing outside their crate can
/// name, as `path:line name`. An item is reached when it is on `allowed`,
/// or when its enclosing type (if it is a method or associated item) is
/// reached and either
/// - some other crate names it as a whole word outside `//` comments (a
///   `src/bin/` file, a test, an example, `perfbench/` or any doctest
///   counts), or
/// - the interface of another reached item of its crate names it, so
///   `private_interfaces` would refuse it narrower.
fn unreached_pub_items(sources: &[(String, String)], allowed: &[&str]) -> Vec<String> {
    let mut named_by: HashMap<&str, HashSet<&str>> = HashMap::new();
    for (path, text) in sources {
        for line in text.lines() {
            for word in words(uncommented(line)) {
                named_by.entry(word).or_default().insert(crate_of(path));
            }
        }
    }
    let doctests: String = sources.iter().map(|(_, text)| doctest_code(text)).collect();
    let doctested: HashSet<&str> = words(&doctests).collect();
    let items = pub_items(sources);
    let named_outside: Vec<bool> = items
        .iter()
        .map(|item| {
            let home = crate_of(&item.path);
            doctested.contains(item.name.as_str())
                || named_by
                    .get(item.name.as_str())
                    .is_some_and(|crates| crates.iter().any(|k| *k != home))
        })
        .collect();
    // A `$name` item is declared by a macro; its call sites name it.
    let mut reached: Vec<bool> = items
        .iter()
        .map(|item| item.name.starts_with('$') || allowed.contains(&item.name.as_str()))
        .collect();
    loop {
        let mut grew = false;
        for (i, item) in items.iter().enumerate() {
            if reached[i] {
                continue;
            }
            let home = crate_of(&item.path);
            let in_home = |j: usize| reached[j] && j != i && crate_of(&items[j].path) == home;
            let owner_reached = item
                .owner
                .as_ref()
                .is_none_or(|ty| (0..items.len()).any(|j| in_home(j) && items[j].name == *ty));
            let in_interface =
                (0..items.len()).any(|j| in_home(j) && items[j].interface.contains(&item.name));
            if owner_reached && (named_outside[i] || in_interface) {
                reached[i] = true;
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }
    items
        .iter()
        .zip(reached)
        .filter(|(_, reached)| !reached)
        .map(|(item, _)| format!("{}:{} {}", item.path, item.line, item.name))
        .collect()
}

/// Public items that nothing outside their crate names, each with its
/// reason. The list only shrinks: an entry whose item is gone or named
/// elsewhere fails `pub_items_are_named_outside_their_crate`.
const ALLOWED: &[(&str, &str)] = &[
    // ROADMAP 11(c) adds the torn write to this fault surface.
    (
        "inject_faults",
        "disk fault injection, used by storage's own tests",
    ),
    ("clear_faults", "the other half of inject_faults"),
];

/// The paper's point is the width of an interface (§3.1): a local system
/// that exposes one more state is a different system. The same holds
/// here: a `pub` item that no other crate names is surface with no user.
/// It is `pub(crate)`, test-only or deleted, or on `ALLOWED` with a reason.
#[test]
fn pub_items_are_named_outside_their_crate() {
    // This file names items as data (`ALLOWED`, fixtures), not as code.
    let sources: Vec<_> = rust_sources()
        .into_iter()
        .filter(|(path, _)| path != "tests/architecture.rs")
        .collect();
    let allowed: Vec<&str> = ALLOWED.iter().map(|(name, _)| *name).collect();
    let unreached = unreached_pub_items(&sources, &allowed);
    assert!(
        unreached.is_empty(),
        "{} public items no other crate names (make them pub(crate), test-only or gone):\n{}",
        unreached.len(),
        unreached.join("\n")
    );
    let without_allowances = unreached_pub_items(&sources, &[]);
    for (name, reason) in ALLOWED {
        assert!(!reason.is_empty(), "`{name}` is allowed without a reason");
        assert!(
            without_allowances
                .iter()
                .any(|u| u.ends_with(&format!(" {name}"))),
            "`{name}` no longer needs its ALLOWED entry: remove it"
        );
    }
}

/// The rule's scanner on a fixture: what it must flag and what it must
/// not.
#[test]
fn the_public_item_scanner_tells_reached_from_unreached() {
    let file = |path: &str, text: &str| (path.to_string(), text.to_string());
    let sources = [
        file(
            "crates/a/src/lib.rs",
            "pub fn orphan() {}\n\
             pub fn tested_at_home() {}\n\
             pub fn from_bin() {}\n\
             pub fn from_tests() {}\n\
             pub struct InSignature;\n\
             pub fn signed(x: InSignature) {}\n\
             pub(crate) fn narrow() {}\n\
             pub struct Hidden;\n\
             impl Hidden {\n    pub fn from_examples() {}\n}\n\
             /// ```\n/// a::doctested();\n/// ```\n\
             pub fn doctested() {}\n\
             // mentioned_in_a_comment\n\
             /// ```text\n/// mentioned_in_a_comment\n/// ```\n\
             pub fn mentioned_in_a_comment() {}\n\
             #[cfg(test)]\nmod tests {\n    fn t() { super::tested_at_home(); }\n}\n",
        ),
        file("crates/a/src/bin/tool.rs", "fn main() { a::from_bin(); }\n"),
        file(
            "tests/t.rs",
            "#[test]\nfn t() { a::from_tests(); a::signed(todo!()); }\n",
        ),
        file(
            "examples/e.rs",
            "fn main() { from_examples(); } // mentioned_in_a_comment\n",
        ),
    ];
    assert_eq!(
        unreached_pub_items(&sources, &[]),
        [
            "crates/a/src/lib.rs:1 orphan",
            "crates/a/src/lib.rs:2 tested_at_home",
            "crates/a/src/lib.rs:8 Hidden",
            "crates/a/src/lib.rs:10 from_examples",
            "crates/a/src/lib.rs:20 mentioned_in_a_comment",
        ]
    );
    assert_eq!(
        unreached_pub_items(&sources, &["orphan", "Hidden"]),
        [
            "crates/a/src/lib.rs:2 tested_at_home",
            "crates/a/src/lib.rs:20 mentioned_in_a_comment",
        ]
    );
}

/// `text` with every comment, string literal and char literal blanked to
/// spaces, newlines kept: braces, parentheses and commas that remain are
/// code.
fn code_only(text: &str) -> String {
    let chars: Vec<char> = text.chars().collect();
    let mut out = String::with_capacity(text.len());
    let blank = |out: &mut String, from: &[char]| {
        out.extend(from.iter().map(|&c| if c == '\n' { c } else { ' ' }));
    };
    let mut i = 0;
    while i < chars.len() {
        let (c, next) = (chars[i], chars.get(i + 1).copied());
        // `r"…"`, `r#"…"#`: the hashes that open it close it.
        let raw = (c == 'r' && !chars[..i].last().is_some_and(|p| p.is_alphanumeric()))
            .then(|| chars[i + 1..].iter().take_while(|&&h| h == '#').count())
            .filter(|&h| chars.get(i + 1 + h) == Some(&'"'));
        let len = if c == '/' && next == Some('/') {
            chars[i..]
                .iter()
                .position(|&e| e == '\n')
                .unwrap_or(chars.len() - i)
        } else if c == '"' || raw.is_some() {
            let hashes = raw.unwrap_or(0);
            let open = if raw.is_some() { 2 + hashes } else { 1 };
            let mut at = i + open;
            while at < chars.len() {
                if raw.is_none() && chars[at] == '\\' {
                    at += 2;
                } else if chars[at] == '"' && chars[at + 1..].iter().take(hashes).all(|&h| h == '#')
                {
                    at += 1 + hashes;
                    break;
                } else {
                    at += 1;
                }
            }
            at.min(chars.len()) - i
        } else if c == '\'' && next == Some('\\') {
            // '\n', '\'', '\u{..}': up to the quote after the escape.
            chars[i + 3..]
                .iter()
                .position(|&q| q == '\'')
                .map_or(1, |p| p + 4)
        } else if c == '\'' && chars.get(i + 2) == Some(&'\'') {
            3 // '{'; a lifetime has no closing quote
        } else {
            out.push(c);
            i += 1;
            continue;
        };
        blank(&mut out, &chars[i..i + len]);
        i += len;
    }
    out
}

/// The text between the bracket at byte `open` of `code` and the one that
/// closes it.
fn bracketed(code: &str, open: usize) -> &str {
    let mut depth = 0;
    for (at, c) in code[open..].char_indices() {
        match c {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' => {
                depth -= 1;
                if depth == 0 {
                    return &code[open + 1..open + at];
                }
            }
            _ => {}
        }
    }
    &code[open + 1..]
}

/// The test fns of `sources` that read the wall clock (`Instant::now`,
/// `.elapsed()`) and assert an ordering on what they read — a duration, a
/// latency or a throughput — as `path::fn`. Scanned: `tests/*.rs` and
/// the part of each `crates/*/src` file from its first column-0
/// `#[cfg(test)]` on.
fn wall_clock_bounds(sources: &[(String, String)]) -> Vec<String> {
    const ORDERINGS: [&str; 4] = [" < ", " > ", " <= ", " >= "];
    const TIMING: [&str; 5] = ["latency", "throughput", "txn_s", "p50", "p99"];
    let mut found = Vec::new();
    for (path, text) in sources {
        let scanned = if path.starts_with("tests/") && path.matches('/').count() == 1 {
            text.as_str()
        } else if path.starts_with("crates/") {
            match text.find("\n#[cfg(test)]") {
                Some(at) => &text[at..],
                None => continue,
            }
        } else {
            continue;
        };
        let code = code_only(scanned);
        for (at, _) in code.match_indices("#[test]") {
            let Some(fn_at) = code[at..].find("fn ").map(|f| at + f) else {
                continue;
            };
            let name = words(&code[fn_at + 3..]).next().unwrap_or_default();
            let Some(body_at) = code[fn_at..].find('{').map(|b| fn_at + b) else {
                continue;
            };
            let body = bracketed(&code, body_at);
            if !body.contains("Instant::now") && !body.contains(".elapsed()") {
                continue;
            }
            // What the body read off the clock, by the names it bound.
            let mut clock: HashSet<&str> = ["elapsed", "Instant", "Duration"].into();
            for statement in body.split(';') {
                let statement = statement.rsplit(['{', '}']).next().unwrap_or(statement);
                let reads = statement.contains("Instant::now") || statement.contains(".elapsed()");
                if let (true, Some(bound)) = (reads, statement.trim_start().strip_prefix("let ")) {
                    let bound = bound.strip_prefix("mut ").unwrap_or(bound);
                    clock.extend(words(bound).next());
                }
            }
            let timed =
                |word: &str| clock.contains(word) || TIMING.iter().any(|t| word.contains(t));
            let bounds_time = body.match_indices("assert!(").any(|(a, _)| {
                let args = bracketed(body, a + "assert!".len());
                let mut depth = 0;
                let cut = args.find(|c| {
                    match c {
                        '(' | '[' | '{' => depth += 1,
                        ')' | ']' | '}' => depth -= 1,
                        _ => {}
                    }
                    c == ',' && depth == 0
                });
                let condition = &args[..cut.unwrap_or(args.len())];
                ORDERINGS.iter().any(|o| condition.contains(o)) && words(condition).any(timed)
            });
            if bounds_time {
                found.push(format!("{path}::{name}"));
            }
        }
    }
    found
}

/// Tier-1 test fns that read the wall clock and bound it, each with its
/// reason. The list only shrinks (`WALL_CLOCK_BOUNDS`), and an entry
/// whose test no longer bounds the clock fails the rule.
const WALL_CLOCK_ALLOWED: &[(&str, &str)] = &[
    (
        "tests/rpc_event_loop.rs::event_server_serves_the_first_request_inline_and_queues_the_rest",
        "timing bound, 2 s against a 5 s lock timeout: a queued decision behind \
         its blocked submit waits the timeout out; goes with the event loop",
    ),
    (
        "tests/rpc_event_loop.rs::event_server_keeps_reading_and_shedding_with_every_thread_wedged",
        "timing bound, half a lock timeout: a second flood shed only after the \
         first times out; goes with the event loop",
    ),
    (
        "tests/rpc_event_loop.rs::event_server_closes_a_stalled_reader_instead_of_buffering_without_bound",
        "liveness deadline: polls server stats until the stalled reader is dropped",
    ),
    (
        "tests/rpc_event_loop.rs::event_server_drops_a_peer_that_left_before_its_reply",
        "liveness deadline: polls server stats until the departed peer is dropped",
    ),
    (
        "tests/rpc_event_loop.rs::mux_caller_hands_the_read_half_to_the_caller_still_waiting",
        "timing bound, 80 ms against a 100 ms read tick: a missed hand-off costs \
         a whole tick; goes with the mux",
    ),
    (
        "tests/rpc_event_loop.rs::mux_caller_reading_its_own_reply_keeps_its_deadline",
        "timing bound, 80 ms against a 100 ms read tick: a caller blocked past \
         its 30 ms deadline; goes with the mux",
    ),
    (
        "crates/engine/src/tpl.rs::stats_count_an_l0_lock_wait",
        "liveness deadline: polls lock stats until the waiter is queued",
    ),
    (
        "crates/rpc/src/transport.rs::call_round_returns_replies_in_send_order",
        "liveness deadline: polls manager stats until site 2 has voted",
    ),
];

/// The length `WALL_CLOCK_ALLOWED` may not grow past: lowered by the PR
/// that shortens the list, as `CEILING` is.
const WALL_CLOCK_BOUNDS: usize = 8;

/// The flagged test fns of `sources` that `allowed` does not list.
fn unlisted_wall_clock_bounds(sources: &[(String, String)], allowed: &[&str]) -> Vec<String> {
    wall_clock_bounds(sources)
        .into_iter()
        .filter(|f| !allowed.contains(&f.as_str()))
        .collect()
}

/// Tier-1 passes or fails on what the code does, not on how fast a loaded
/// box ran it: no test fn reads the wall clock and asserts an ordering on
/// a duration, a latency or a throughput, unless `WALL_CLOCK_ALLOWED`
/// lists it with its reason. A timing claim is the benchmark's to make.
#[test]
fn no_wall_clock_bounds_in_tier1() {
    // This file holds the scanner's fixture as data.
    let sources: Vec<_> = rust_sources()
        .into_iter()
        .filter(|(path, _)| path != "tests/architecture.rs")
        .collect();
    let allowed: Vec<&str> = WALL_CLOCK_ALLOWED.iter().map(|(name, _)| *name).collect();
    let unlisted = unlisted_wall_clock_bounds(&sources, &allowed);
    assert!(
        unlisted.is_empty(),
        "{} tier-1 tests bound the wall clock (assert a count instead):\n{}",
        unlisted.len(),
        unlisted.join("\n")
    );
    let flagged = wall_clock_bounds(&sources);
    for (name, reason) in WALL_CLOCK_ALLOWED {
        assert!(!reason.is_empty(), "`{name}` is allowed without a reason");
        assert!(
            flagged.iter().any(|f| f == name),
            "`{name}` no longer bounds the wall clock: remove its entry"
        );
    }
    assert!(
        WALL_CLOCK_ALLOWED.len() <= WALL_CLOCK_BOUNDS,
        "wall-clock bounds grew: {} > {WALL_CLOCK_BOUNDS}",
        WALL_CLOCK_ALLOWED.len()
    );
    println!(
        "wall-clock bounds: {} (ceiling {WALL_CLOCK_BOUNDS})",
        WALL_CLOCK_ALLOWED.len()
    );
}

/// The wall-clock scanner on a fixture: a planted timing bound is
/// flagged, a listed liveness deadline passes, and a test that reads the
/// clock but asserts only a count is not a bound.
#[test]
fn the_wall_clock_scanner_tells_bounds_from_counts() {
    let file = |path: &str, text: &str| (path.to_string(), text.to_string());
    let sources = [
        file(
            "tests/t.rs",
            "#[test]\n\
             fn planted_bound() {\n\
             \x20   let t0 = Instant::now();\n\
             \x20   work();\n\
             \x20   let took = t0.elapsed();\n\
             \x20   assert!(took < limit, \"slow: {took:?}\");\n\
             }\n\
             #[test]\n\
             fn liveness_deadline() {\n\
             \x20   let deadline = Instant::now() + Duration::from_secs(10);\n\
             \x20   while !done() {\n\
             \x20       assert!(Instant::now() < deadline, \"never done\");\n\
             \x20   }\n\
             }\n\
             #[test]\n\
             fn a_count() {\n\
             \x20   let t0 = Instant::now();\n\
             \x20   assert!(hits() >= 2, \"after {:?}\", t0.elapsed());\n\
             }\n\
             #[test]\n\
             fn no_clock_read() {\n\
             \x20   assert!(run().latency_p50 < modelled);\n\
             }\n\
             #[test]\n\
             fn a_bound_in_a_message() {\n\
             \x20   let t0 = Instant::now();\n\
             \x20   assert!(ok(), \"took < {:?}\", t0.elapsed());\n\
             }\n",
        ),
        file(
            "crates/a/src/lib.rs",
            "pub fn outside_tests() {\n\
             \x20   let t0 = Instant::now();\n\
             \x20   assert!(t0.elapsed() < LIMIT);\n\
             }\n\
             #[cfg(test)]\n\
             mod tests {\n\
             \x20   #[test]\n\
             \x20   fn throughput_floor() {\n\
             \x20       let started = Instant::now();\n\
             \x20       let txn_s = 100.0 / started.elapsed().as_secs_f64();\n\
             \x20       assert!(txn_s >= 50.0);\n\
             \x20   }\n\
             }\n",
        ),
    ];
    assert_eq!(
        wall_clock_bounds(&sources),
        [
            "tests/t.rs::planted_bound",
            "tests/t.rs::liveness_deadline",
            "crates/a/src/lib.rs::throughput_floor",
        ]
    );
    assert_eq!(
        unlisted_wall_clock_bounds(&sources, &["tests/t.rs::liveness_deadline"]),
        [
            "tests/t.rs::planted_bound",
            "crates/a/src/lib.rs::throughput_floor",
        ]
    );
}

/// The second score beside `CEILING`: public items under `crates/*/src`,
/// counted by the scanner of `pub_items_are_named_outside_their_crate`.
#[test]
fn public_items_only_go_down() {
    const PUBLIC_ITEMS: usize = 688;
    let score = pub_items(&rust_sources()).len();
    assert!(
        score <= PUBLIC_ITEMS,
        "public items under crates/*/src grew: {score} > {PUBLIC_ITEMS}"
    );
    println!("public items: {score} (ceiling {PUBLIC_ITEMS})");
}
