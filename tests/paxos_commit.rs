//! Paxos Commit, end to end: the non-blocking replicated coordinator.
//!
//! Four layers of guarantees:
//!
//! * **Golden wire bytes**: the v1 layout of every Paxos payload
//!   (`PaxosRegister` … `PaxosP2b`) is pinned byte-for-byte, same
//!   contract as `wire_codec.rs` pins for the classical payloads.
//! * **One durable log per site**: an acceptor writes its rows through
//!   its site's engine WAL. Any frame-boundary prefix of that file reopens
//!   to exactly the acceptor state the pure [`AcceptorState::replay`]
//!   computes over the prefix's acceptor rows, and to the engine state the
//!   same prefix without them recovers to — the codec, the boundary scan
//!   and both replays agree.
//! * **Nemesis sweep**: 100+ seeded fault schedules — acceptor site
//!   crashes and restarts, acceptor partitions, leading-coordinator-replica
//!   crashes mid-replication, standby takeovers — against an in-process
//!   Paxos federation. After the final standby sweep no transaction is
//!   open at any acceptor and the global sum is conserved, every seed.
//! * **kill -9 over TCP**: a real `amc-paxos-coord` process dies by
//!   SIGKILL with a transaction fully prepared but undecided; a standby
//!   replica in this test finishes it *Commit* from the acceptor logs
//!   alone, a replacement coordinator process keeps committing, and the
//!   books balance. Killing and restarting an acceptor site as well loses
//!   neither its prepare nor its accept.

use amc::core::site::Site;
use amc::core::{submit_mode_for, Federation, FederationConfig};
use amc::engine::{LocalEngine, PreparableEngine, TplConfig, TwoPLEngine};
use amc::net::marker::is_marker;
use amc::net::transport::{AdminReply, AdminRequest, FederationTransport};
use amc::net::{CoLocatedAcceptor, InProcessTransport, Payload};
use amc::obs::ObsSink;
use amc::paxos::{AcceptorHost, AcceptorState, ReplicaDriver};
use amc::rpc::wire::{decode_frame, encode_frame, Frame};
use amc::rpc::{Fleet, RetryPolicy, TcpTransport, Wire, WIRE_VERSION};
use amc::sim::{generate_faults, FaultKind, NemesisConfig};
use amc::types::{
    Ballot, GlobalTxnId, GlobalVerdict, ObjectId, Operation, ProtocolKind, SiteId, Value,
};
use amc::wal::{DurableFile, LogRecord};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::io::BufRead;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn site(n: u32) -> SiteId {
    SiteId::new(n)
}

fn obj(site: u32, i: u64) -> ObjectId {
    ObjectId::new(u64::from(site) * (1 << 32) + i)
}

fn fresh_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "amc-paxos-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

// ------------------------------------------------- golden wire bytes --

/// `PaxosRegister` (tag 7): gtx, then the participant list as
/// `u32 count` + `u32` per site — the layout every acceptor log entry
/// is keyed by.
#[test]
fn golden_bytes_paxos_register_v1() {
    let frame = Frame::Request {
        req_id: 3,
        payload: Payload::PaxosRegister {
            gtx: GlobalTxnId::new(9),
            participants: vec![site(1), site(2)],
        },
    };
    let mut expect: Vec<u8> = Vec::new();
    expect.extend_from_slice(&31u32.to_le_bytes()); // length of the rest
    expect.push(WIRE_VERSION);
    expect.push(0); // frame kind 0 = request
    expect.extend_from_slice(&3u64.to_le_bytes()); // req id
    expect.push(7); // payload tag 7 = paxos-register
    expect.extend_from_slice(&9u64.to_le_bytes()); // gtx
    expect.extend_from_slice(&2u32.to_le_bytes()); // participant count
    expect.extend_from_slice(&1u32.to_le_bytes()); // site 1
    expect.extend_from_slice(&2u32.to_le_bytes()); // site 2
    assert_eq!(encode_frame(&frame), expect);
    assert_eq!(decode_frame(&expect).expect("decode"), frame);
}

/// `PaxosAck` (tag 8) and `PaxosP1a` (tag 9): the short frames of the
/// registration round trip and the phase-1 opener.
#[test]
fn golden_bytes_paxos_ack_and_p1a_v1() {
    let ack = Frame::Reply {
        req_id: 4,
        payload: Payload::PaxosAck {
            gtx: GlobalTxnId::new(9),
        },
    };
    let mut expect: Vec<u8> = Vec::new();
    expect.extend_from_slice(&19u32.to_le_bytes());
    expect.push(WIRE_VERSION);
    expect.push(1); // frame kind 1 = reply
    expect.extend_from_slice(&4u64.to_le_bytes());
    expect.push(8); // payload tag 8 = paxos-ack
    expect.extend_from_slice(&9u64.to_le_bytes());
    assert_eq!(encode_frame(&ack), expect);
    assert_eq!(decode_frame(&expect).expect("decode"), ack);

    // Ballots travel packed: round << 32 | replica.
    let ballot = (2u64 << 32) | 5;
    let p1a = Frame::Request {
        req_id: 5,
        payload: Payload::PaxosP1a {
            gtx: GlobalTxnId::new(9),
            ballot,
        },
    };
    let mut expect: Vec<u8> = Vec::new();
    expect.extend_from_slice(&27u32.to_le_bytes());
    expect.push(WIRE_VERSION);
    expect.push(0);
    expect.extend_from_slice(&5u64.to_le_bytes());
    expect.push(9); // payload tag 9 = paxos-p1a
    expect.extend_from_slice(&9u64.to_le_bytes());
    expect.extend_from_slice(&ballot.to_le_bytes());
    assert_eq!(encode_frame(&p1a), expect);
    assert_eq!(decode_frame(&expect).expect("decode"), p1a);
}

/// `PaxosP1b` (tag 10) — the richest frame: promise flag, high-water
/// ballot, durable participant list, and per-instance accepted values as
/// `(u32 site, u64 ballot, u8 prepared)` triples.
#[test]
fn golden_bytes_paxos_p1b_v1() {
    let frame = Frame::Reply {
        req_id: 6,
        payload: Payload::PaxosP1b {
            gtx: GlobalTxnId::new(9),
            ballot: (1u64 << 32) | 2,
            promised: true,
            promised_up_to: (1u64 << 32) | 2,
            participants: vec![site(1), site(2)],
            accepted: vec![(site(1), 0, true)],
        },
    };
    let mut expect: Vec<u8> = Vec::new();
    expect.extend_from_slice(&65u32.to_le_bytes());
    expect.push(WIRE_VERSION);
    expect.push(1);
    expect.extend_from_slice(&6u64.to_le_bytes());
    expect.push(10); // payload tag 10 = paxos-p1b
    expect.extend_from_slice(&9u64.to_le_bytes()); // gtx
    expect.extend_from_slice(&((1u64 << 32) | 2).to_le_bytes()); // ballot
    expect.push(1); // promised = true
    expect.extend_from_slice(&((1u64 << 32) | 2).to_le_bytes()); // promised_up_to
    expect.extend_from_slice(&2u32.to_le_bytes()); // participant count
    expect.extend_from_slice(&1u32.to_le_bytes());
    expect.extend_from_slice(&2u32.to_le_bytes());
    expect.extend_from_slice(&1u32.to_le_bytes()); // accepted count
    expect.extend_from_slice(&1u32.to_le_bytes()); // instance site 1
    expect.extend_from_slice(&0u64.to_le_bytes()); // accepted at ballot 0
    expect.push(1); // prepared = true
    assert_eq!(encode_frame(&frame), expect);
    assert_eq!(decode_frame(&expect).expect("decode"), frame);
}

/// `PaxosP2a`/`PaxosP2b` (tags 11/12) share a body shape — gtx, u32
/// instance site, packed ballot, one flag byte — and `PaxosDecided`
/// (tag 13) reuses the classical verdict tag (0 commit, 1 abort).
#[test]
fn golden_bytes_paxos_p2_and_decided_v1() {
    let ballot = (3u64 << 32) | 1;
    let p2a = Frame::Request {
        req_id: 7,
        payload: Payload::PaxosP2a {
            gtx: GlobalTxnId::new(9),
            site: site(2),
            ballot,
            prepared: false,
        },
    };
    let mut expect: Vec<u8> = Vec::new();
    expect.extend_from_slice(&32u32.to_le_bytes());
    expect.push(WIRE_VERSION);
    expect.push(0);
    expect.extend_from_slice(&7u64.to_le_bytes());
    expect.push(11); // payload tag 11 = paxos-p2a
    expect.extend_from_slice(&9u64.to_le_bytes());
    expect.extend_from_slice(&2u32.to_le_bytes()); // instance site
    expect.extend_from_slice(&ballot.to_le_bytes());
    expect.push(0); // prepared = false (an abort value)
    assert_eq!(encode_frame(&p2a), expect);
    assert_eq!(decode_frame(&expect).expect("decode"), p2a);

    let p2b = Frame::Reply {
        req_id: 7,
        payload: Payload::PaxosP2b {
            gtx: GlobalTxnId::new(9),
            site: site(2),
            ballot,
            accepted: true,
        },
    };
    let mut expect: Vec<u8> = Vec::new();
    expect.extend_from_slice(&32u32.to_le_bytes());
    expect.push(WIRE_VERSION);
    expect.push(1);
    expect.extend_from_slice(&7u64.to_le_bytes());
    expect.push(12); // payload tag 12 = paxos-p2b
    expect.extend_from_slice(&9u64.to_le_bytes());
    expect.extend_from_slice(&2u32.to_le_bytes());
    expect.extend_from_slice(&ballot.to_le_bytes());
    expect.push(1); // accepted = true
    assert_eq!(encode_frame(&p2b), expect);
    assert_eq!(decode_frame(&expect).expect("decode"), p2b);

    let decided = Frame::Request {
        req_id: 8,
        payload: Payload::PaxosDecided {
            gtx: GlobalTxnId::new(9),
            verdict: GlobalVerdict::Commit,
        },
    };
    let mut expect: Vec<u8> = Vec::new();
    expect.extend_from_slice(&20u32.to_le_bytes());
    expect.push(WIRE_VERSION);
    expect.push(0);
    expect.extend_from_slice(&8u64.to_le_bytes());
    expect.push(13); // payload tag 13 = paxos-decided
    expect.extend_from_slice(&9u64.to_le_bytes());
    expect.push(0); // verdict 0 = commit
    assert_eq!(encode_frame(&decided), expect);
    assert_eq!(decode_frame(&expect).expect("decode"), decided);
}

// ------------------------------------------- one-log prefix replay --

/// One operation at a site that hosts an acceptor, over a small universe
/// so the interesting collisions (re-registration, stale ballots, accepts
/// after decisions, page-lock conflicts) actually happen.
#[derive(Debug, Clone)]
enum SiteOp {
    Register {
        gtx: u64,
        mask: u8,
    },
    Promise {
        gtx: u64,
        round: u32,
        replica: u32,
    },
    Accept {
        gtx: u64,
        site: u32,
        round: u32,
        replica: u32,
        prepared: bool,
    },
    Decide {
        gtx: u64,
        commit: bool,
    },
    /// A local transaction writing `value` to object `obj`, then
    /// committing (0), aborting (1), preparing (2) or left running (3).
    Local {
        obj: u64,
        value: i64,
        end: u8,
    },
}

fn arb_site_op() -> impl Strategy<Value = SiteOp> {
    (0u8..6, 1u64..4, 1u8..8, 1u32..4, 0u32..9, any::<bool>()).prop_map(
        |(tag, gtx, mask, s, ballot, flag)| {
            let (round, replica) = (ballot / 3, ballot % 3);
            match tag {
                0 => SiteOp::Register { gtx, mask },
                1 => SiteOp::Promise {
                    gtx,
                    round,
                    replica,
                },
                2 => SiteOp::Accept {
                    gtx,
                    site: s,
                    round,
                    replica,
                    prepared: flag,
                },
                3 => SiteOp::Decide { gtx, commit: flag },
                _ => SiteOp::Local {
                    obj: u64::from(mask % 4),
                    value: i64::from(ballot),
                    end: (u32::from(mask) + s) as u8 % 4,
                },
            }
        },
    )
}

/// A durable site: its engine recovered from the WAL at `path`, and an
/// acceptor mounted over the engine's committer.
fn open_site(path: &std::path::Path) -> (TwoPLEngine, amc::engine::RecoveryReport, AcceptorHost) {
    let cfg = TplConfig {
        lock_timeout: Duration::from_millis(1),
        ..TplConfig::default()
    };
    let (engine, report) = TwoPLEngine::open_durable(cfg, site(1), path).unwrap();
    let host = AcceptorHost::mount(site(1), Arc::clone(engine.wal())).unwrap();
    (engine, report, host)
}

fn apply_site_op(engine: &TwoPLEngine, host: &AcceptorHost, op: &SiteOp) {
    let gtx = |n: &u64| GlobalTxnId::new(*n);
    let payload = match op {
        SiteOp::Register { gtx: g, mask } => {
            let participants: Vec<SiteId> = (1..=3u32)
                .filter(|s| mask & (1 << s) != 0)
                .map(site)
                .collect();
            let participants = if participants.is_empty() {
                vec![site(1)]
            } else {
                participants
            };
            Payload::PaxosRegister {
                gtx: gtx(g),
                participants,
            }
        }
        SiteOp::Promise {
            gtx: g,
            round,
            replica,
        } => Payload::PaxosP1a {
            gtx: gtx(g),
            ballot: Ballot::new(*round, *replica).0,
        },
        SiteOp::Accept {
            gtx: g,
            site: s,
            round,
            replica,
            prepared,
        } => Payload::PaxosP2a {
            gtx: gtx(g),
            site: site(*s),
            ballot: Ballot::new(*round, *replica).0,
            prepared: *prepared,
        },
        SiteOp::Decide { gtx: g, commit } => Payload::PaxosDecided {
            gtx: gtx(g),
            verdict: if *commit {
                GlobalVerdict::Commit
            } else {
                GlobalVerdict::Abort
            },
        },
        SiteOp::Local { obj, value, end } => {
            let t = engine.begin().unwrap();
            let write = Operation::Write {
                obj: ObjectId::new(*obj),
                value: Value::counter(*value),
            };
            // A page-lock conflict with a transaction left running or
            // prepared aborts this one: also a history worth replaying.
            if engine.execute(t, &write).is_ok() {
                let _ = match end {
                    0 => engine.commit(t),
                    1 => engine.abort(t, amc::types::AbortReason::Intended),
                    2 => engine.prepare_as(t, GlobalTxnId::new(100 + t.raw())),
                    _ => Ok(()),
                };
            }
            return;
        }
    };
    assert!(host.pre_dispatch(&payload).unwrap().is_some());
}

/// The acceptor's rows of the log table.
fn is_acceptor_row(record: &LogRecord) -> bool {
    matches!(
        record,
        LogRecord::Register { .. }
            | LogRecord::Promise { .. }
            | LogRecord::Accept { .. }
            | LogRecord::Decision { .. }
    )
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(24))]

    /// Any frame-boundary prefix of a site's one durable log — engine
    /// transactions interleaved with a co-located acceptor's rows —
    /// replays consistently for both: the acceptor reopens to exactly the
    /// state the pure `AcceptorState::replay` computes over the prefix's
    /// acceptor rows, and the engine recovers to exactly what the same
    /// prefix with those rows removed recovers to. The full log
    /// round-trips to the live acceptor state. This is the promise a
    /// recovery ballot leans on — whatever an acceptor said before the
    /// crash, its restarted incarnation still says — and the proof that
    /// the acceptor's rows cost engine recovery nothing.
    #[test]
    fn any_frame_prefix_of_the_acceptor_log_replays_consistently(
        ops in proptest::collection::vec(arb_site_op(), 1..40),
        cut in any::<u64>(),
    ) {
        let dir = fresh_dir("prefix");
        let path = dir.join("site-1.wal");
        let (engine, _, host) = open_site(&path);
        for op in &ops {
            apply_site_op(&engine, &host, op);
        }
        let live = host.with_state(AcceptorState::clone);
        drop((host, engine));
        let opened = DurableFile::open(&path).unwrap();
        prop_assert!(!opened.torn_truncated);
        let frames = opened.frames;
        drop(opened.file);

        // Full-log reopen must reproduce the live acceptor state exactly.
        let (_, _, reopened) = open_site(&path);
        prop_assert_eq!(reopened.with_state(AcceptorState::clone), live);
        drop(reopened);

        // Cut at an arbitrary frame boundary.
        let keep = (cut as usize) % (frames.len() + 1);
        let prefix = &frames[..keep];
        let records: Vec<LogRecord> =
            prefix.iter().map(|f| LogRecord::decode(f).unwrap()).collect();
        let rows: Vec<LogRecord> = records.iter().filter(|r| is_acceptor_row(r)).cloned().collect();
        let cut_path = dir.join("cut.wal");
        std::fs::write(&cut_path, prefix.concat()).unwrap();
        let engine_only = dir.join("engine-only.wal");
        let engine_frames = prefix.iter().zip(&records).filter(|(_, r)| !is_acceptor_row(r));
        std::fs::write(&engine_only, engine_frames.map(|(f, _)| f.as_slice()).collect::<Vec<_>>().concat()).unwrap();

        let (engine, report, host) = open_site(&cut_path);
        prop_assert_eq!(host.with_state(AcceptorState::clone), AcceptorState::replay(&rows));
        let (plain, plain_report, _) = open_site(&engine_only);
        prop_assert_eq!(report, plain_report);
        prop_assert_eq!(engine.dump().unwrap(), plain.dump().unwrap());
        drop((host, engine, plain));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// An in-memory site's log is cut behind checkpoints, but never past its
/// acceptor's first row: a remount — before or after an engine crash —
/// replays every row to the live acceptor state.
#[test]
fn cuts_of_an_in_memory_log_keep_every_acceptor_row() {
    let cfg = TplConfig {
        pool_frames: 2,
        lock_timeout: Duration::from_millis(1),
        ..TplConfig::default()
    };
    let engine = TwoPLEngine::new_at(cfg, SiteId::new(1));
    engine
        .bulk_load(
            &(0..4)
                .map(|o| (ObjectId::new(o), Value::counter(0)))
                .collect::<Vec<_>>(),
        )
        .unwrap();
    let host = AcceptorHost::mount(site(1), Arc::clone(engine.wal())).unwrap();
    let local = |i: u64| SiteOp::Local {
        obj: i % 4,
        value: i as i64,
        end: 0,
    };
    for i in 0..300 {
        apply_site_op(&engine, &host, &local(i));
    }
    assert!(engine.log_stats().truncated_bytes > 0, "the log was cut");
    for i in 0..600u64 {
        let gtx = 1 + i / 30;
        let op = match i % 30 {
            0 => SiteOp::Register { gtx, mask: 0b110 },
            10 => SiteOp::Accept {
                gtx,
                site: 1,
                round: 0,
                replica: 0,
                prepared: true,
            },
            20 => SiteOp::Decide { gtx, commit: true },
            _ => local(i),
        };
        apply_site_op(&engine, &host, &op);
    }
    let live = host.with_state(AcceptorState::clone);
    let remount = || {
        let host = AcceptorHost::mount(site(1), Arc::clone(engine.wal())).unwrap();
        host.with_state(AcceptorState::clone)
    };
    assert_eq!(remount(), live);
    engine.crash();
    engine.recover().unwrap();
    assert_eq!(remount(), live);
}

// ------------------------------------------------ nemesis chaos sweep --

const SWEEP_SITES: u32 = 5; // 1..=3 host acceptors; 4 and 5 trade
const ACCEPTORS: u32 = 3; // f = 1
const SWEEP_TXNS: u64 = 12;
const PER_OBJ: i64 = 100;

fn sweep_config() -> NemesisConfig {
    NemesisConfig {
        // Crashes and partitions strike the acceptor sites — that is where
        // Paxos majority math gets exercised, and where a restart must
        // replay the acceptor from its site's log. The trading sites 4 and
        // 5 stay up: the fault surface is the acceptor group and the
        // coordinator replicas themselves.
        sites: vec![site(1), site(2), site(3)],
        allow_crashes: true,
        allow_torn_tails: false,
        allow_partitions: true,
        allow_loss_bursts: false,
        include_central_crash: false,
        allow_coordinator_crashes: true,
        coordinator_replicas: ACCEPTORS,
        ..NemesisConfig::default()
    }
}

/// Transfer `i`: site 4 pays site 5 over object pair `i` — disjoint per
/// transaction, so a transaction wedged in doubt (holding its locks)
/// never stalls the rest of the schedule.
fn sweep_transfer(i: u64) -> BTreeMap<SiteId, Vec<Operation>> {
    let amt = 1 + (i % 5) as i64;
    BTreeMap::from([
        (
            site(4),
            vec![Operation::Increment {
                obj: obj(4, i),
                delta: -amt,
            }],
        ),
        (
            site(5),
            vec![Operation::Increment {
                obj: obj(5, i),
                delta: amt,
            }],
        ),
    ])
}

fn user_sum(fed: &Federation) -> i64 {
    fed.dumps()
        .expect("dumps")
        .values()
        .flat_map(|d| d.iter())
        .filter(|(o, _)| !is_marker(**o))
        .map(|(_, v)| v.counter)
        .sum()
}

/// Run one seeded schedule; returns the per-transaction outcome labels
/// and the final (healed, drained) dumps for determinism comparison.
fn run_sweep_seed(seed: u64) -> (Vec<String>, BTreeMap<SiteId, BTreeMap<ObjectId, Value>>) {
    let cfg = FederationConfig::uniform(SWEEP_SITES, ProtocolKind::TwoPhaseCommit)
        .with_paxos_commit(ACCEPTORS);
    let sites: BTreeMap<SiteId, Site> = cfg
        .open_sites()
        .into_iter()
        .map(|s| (s.manager().site(), s))
        .collect();
    let managers = sites.iter().map(|(&id, s)| (id, Arc::clone(s.manager())));
    let mode = submit_mode_for(cfg.protocol);
    let transport = Arc::new(InProcessTransport::new(
        managers.collect(),
        mode,
        Duration::ZERO,
    ));
    let fed = Federation::with_transport(cfg, transport.clone());
    for s in 1..=SWEEP_SITES {
        let data: Vec<(ObjectId, Value)> = (0..SWEEP_TXNS)
            .map(|i| (obj(s, i), Value::counter(PER_OBJ)))
            .collect();
        fed.load_site(site(s), &data).expect("load");
    }

    let ncfg = sweep_config();
    let horizon = ncfg.fault_horizon.0.max(1);
    let mut events = generate_faults(&ncfg, seed).events();
    events.sort_by_key(|e| e.at);
    // The threaded federation has no virtual clock; map each fault's
    // virtual time onto the transaction schedule instead.
    let slot = |at: u64| -> u64 { (at * SWEEP_TXNS / horizon).min(SWEEP_TXNS - 1) };

    // A site's crashes and partitions never overlap (one lane per site).
    // A crashed site answers `SiteDown` until its restart replays engine
    // and acceptor from the one log: nothing reaches it in between, so
    // what it loses is what the crash at the restart loses.
    let apply = |kind: &FaultKind, s: SiteId| match kind {
        FaultKind::Crash { torn: None } | FaultKind::PartitionStart { .. } => {
            transport.set_down(s, true)
        }
        FaultKind::Restart => {
            sites[&s].restart().expect("the log replays");
            transport.set_down(s, false);
        }
        FaultKind::PartitionHeal => transport.set_down(s, false),
        FaultKind::CoordinatorCrash { after_votes } => {
            // Cap at the participant count: every transfer replicates at
            // most two prepare votes.
            fed.inject_coordinator_crash_after_votes((*after_votes).min(2));
        }
        FaultKind::CoordinatorTakeover { replica } => {
            // A standby claims leadership and sweeps. It may fail —
            // e.g. two acceptors down leave no majority — and that is a
            // legal outcome: the in-doubt transactions simply wait for
            // the final healed sweep.
            let _ = fed.replica_driver(*replica).run_once();
        }
        other => unreachable!("sweep config cannot generate {other:?}"),
    };

    let mut outcomes = Vec::new();
    let mut next = 0usize;
    for i in 0..SWEEP_TXNS {
        while next < events.len() && slot(events[next].at.0) <= i {
            apply(&events[next].kind, events[next].site);
            next += 1;
        }
        match fed.run_transaction(&sweep_transfer(i)) {
            Ok(report) => outcomes.push(format!("{:?}", report.outcome)),
            // A fired coordinator crash (or an acceptor majority lost
            // mid-decision) leaves the transaction in doubt for a
            // standby to finish.
            Err(_) => outcomes.push("InDoubt".to_string()),
        }
    }
    // Every crash is followed by its restart, every partition by its heal.
    while next < events.len() {
        apply(&events[next].kind, events[next].site);
        next += 1;
    }

    // Let a fresh standby finish whatever is open, then deliver what
    // parked coordinators still owe.
    let swept = fed
        .replica_driver(9)
        .run_once()
        .expect("healed sweep has a majority");
    outcomes.push(format!("swept:{}", swept.len()));
    fed.resolve_pending().expect("every site is up");
    assert_eq!(fed.pending_obligations(), 0, "seed {seed}");

    // Non-blocking: nothing is left open at any acceptor.
    for a in 1..=ACCEPTORS {
        let open = sites[&site(a)]
            .acceptor()
            .expect("an acceptor site")
            .with_state(AcceptorState::open_entries);
        assert!(
            open.is_empty(),
            "seed {seed}: acceptor {a} still has open transactions {open:?}"
        );
    }
    let sum = user_sum(&fed);
    assert_eq!(
        sum,
        i64::from(SWEEP_SITES) * SWEEP_TXNS as i64 * PER_OBJ,
        "seed {seed}: global sum not conserved (outcomes {outcomes:?})"
    );
    let dumps = fed.dumps().expect("dumps");
    (outcomes, dumps)
}

/// 110 seeded schedules of acceptor site crashes and partitions,
/// coordinator-replica crashes and takeovers: every in-doubt window
/// closes, the sum is conserved, and no acceptor reports an open
/// transaction at the end.
#[test]
fn nemesis_sweep_coordinator_crashes_never_block() {
    let (mut crashes_seen, mut site_crashes) = (0u64, 0u64);
    for seed in 0..110u64 {
        let plan = generate_faults(&sweep_config(), seed);
        for e in plan.events() {
            match e.kind {
                FaultKind::CoordinatorCrash { .. } => crashes_seen += 1,
                FaultKind::Crash { .. } => site_crashes += 1,
                _ => {}
            }
        }
        run_sweep_seed(seed);
    }
    // The sweep must actually exercise the tentpole: the generator's
    // coordinator lane has to produce real incumbent deaths, and its
    // site lanes real acceptor restarts.
    assert!(
        crashes_seen >= 20,
        "only {crashes_seen} coordinator crashes across the sweep"
    );
    assert!(
        site_crashes >= 20,
        "only {site_crashes} acceptor site crashes across the sweep"
    );
}

/// The same seed twice gives byte-identical outcome sequences and final
/// states — the chaos schedule, the backoff jitter, and the standby
/// sweeps are all deterministic in (config, seed).
#[test]
fn nemesis_sweep_is_deterministic_per_seed() {
    for seed in [0u64, 1, 2, 3, 5, 8, 13, 21, 34, 55] {
        let (o1, d1) = run_sweep_seed(seed);
        let (o2, d2) = run_sweep_seed(seed);
        assert_eq!(o1, o2, "seed {seed}: outcome sequence diverged");
        assert_eq!(d1, d2, "seed {seed}: final state diverged");
    }
}

/// A loopback fleet of a Paxos Commit configuration serves its acceptors
/// on either wire with nothing wired for them: each acceptor site's
/// manager hosts its acceptor. An in-doubt transfer is finished by a
/// standby after one acceptor site restarted in place.
#[test]
fn a_paxos_fleet_serves_its_acceptors_on_every_wire() {
    for wire in Wire::ALL {
        let cfg = FederationConfig::uniform(3, ProtocolKind::TwoPhaseCommit).with_paxos_commit(3);
        let mut fleet = Fleet::spawn(&cfg, wire, fast_policy(), ObsSink::disabled()).unwrap();
        let fed = Federation::with_transport(cfg, fleet.transport());
        for s in 1..=3 {
            let data: Vec<(ObjectId, Value)> = (0..4)
                .map(|i| (obj(s, i), Value::counter(PER_OBJ)))
                .collect();
            fed.load_site(site(s), &data).unwrap();
        }
        // Site 1 pays site 2 two units over object pair `i`.
        let transfer = |i| {
            let bump = |s, delta| {
                (
                    site(s),
                    vec![Operation::Increment {
                        obj: obj(s, i),
                        delta,
                    }],
                )
            };
            BTreeMap::from([bump(1, -2), bump(2, 2)])
        };
        let report = fed.run_transaction(&transfer(0)).unwrap();
        assert_eq!(format!("{:?}", report.outcome), "Committed", "{wire:?}");
        fed.inject_coordinator_crash_after_votes(2);
        assert!(fed.run_transaction(&transfer(1)).is_err(), "{wire:?}");
        fleet.restart_site(site(3)).unwrap();
        let finished = fed.replica_driver(1).run_once().unwrap();
        assert_eq!(finished.len(), 1, "{wire:?}");
        assert_eq!(finished[0].1, GlobalVerdict::Commit, "{wire:?}");
        for (a, s) in fleet.sites() {
            let open = s
                .acceptor()
                .unwrap()
                .with_state(AcceptorState::open_entries);
            assert!(open.is_empty(), "{wire:?}: acceptor {a} has {open:?}");
        }
        let dumps = fed.dumps().unwrap();
        let user = |d: &BTreeMap<ObjectId, Value>| -> i64 {
            let counters = d.iter().filter(|(o, _)| !is_marker(**o));
            counters.map(|(_, v)| v.counter).sum()
        };
        assert_eq!(dumps.values().map(user).sum::<i64>(), 3 * 4 * PER_OBJ);
        assert_eq!(dumps[&site(1)][&obj(1, 1)].counter, PER_OBJ - 2, "{wire:?}");
    }
}

// ------------------------------------------------- kill -9 over TCP --

const TCP_SITES: u32 = 3;
const TCP_OBJS: u64 = 8;
const CRASH_TXN: u64 = 6;

const SITE_SERVER: &str = env!("CARGO_BIN_EXE_amc-site-server");
const PAXOS_COORD: &str = env!("CARGO_BIN_EXE_amc-paxos-coord");

struct Proc {
    child: Child,
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A `--protocol 2pc` site server with a WAL directory of its own under
/// `dir`: it hosts an acceptor whose rows ride its one log file.
fn spawn_acceptor_site(s: u32, dir: &std::path::Path, listen: &str) -> (Proc, SocketAddr) {
    let wal_dir = dir.join(format!("site-{s}"));
    let mut child = Command::new(SITE_SERVER)
        .args([
            "--site",
            &s.to_string(),
            "--listen",
            listen,
            "--protocol",
            "2pc",
            "--lock-timeout-ms",
            "200",
            "--wal-dir",
            wal_dir.to_str().expect("utf-8 path"),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn amc-site-server");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = std::io::BufReader::new(stdout);
    let mut addr = None;
    for _ in 0..10 {
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        if let Some(rest) = line.trim().strip_prefix("listening on ") {
            addr = Some(rest.parse().expect("printed socket addr"));
            break;
        }
    }
    (
        Proc { child },
        addr.expect("server never printed its listening address"),
    )
}

/// `TCP_SITES` acceptor sites under `dir`, and their addresses.
fn spawn_acceptor_sites(dir: &std::path::Path) -> (Vec<Proc>, Vec<SocketAddr>) {
    (1..=TCP_SITES)
        .map(|s| spawn_acceptor_site(s, dir, "127.0.0.1:0"))
        .unzip()
}

/// Start the incumbent over `addrs`, crashing (parked for our SIGKILL)
/// mid-transaction `CRASH_TXN` after both prepare votes are replicated;
/// returns it, the transactions it committed first, and the in-doubt one.
fn spawn_doomed_incumbent(addrs: &[SocketAddr]) -> (Child, u64, GlobalTxnId) {
    let mut coord = Command::new(PAXOS_COORD)
        .args([
            "--sites",
            &addr_list(addrs),
            "--acceptors",
            &TCP_SITES.to_string(),
            "--txns",
            &format!("{}", CRASH_TXN + 6),
            "--objects",
            &TCP_OBJS.to_string(),
            "--crash-at-txn",
            &CRASH_TXN.to_string(),
            "--crash-after-votes",
            "2",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn amc-paxos-coord");
    let stdout = coord.stdout.take().expect("piped stdout");
    let mut reader = std::io::BufReader::new(stdout);
    let mut committed_before = 0u64;
    let mut in_doubt: Option<u64> = None;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let line = line.trim();
        if line.starts_with("txn ") && line.ends_with("Committed") {
            committed_before += 1;
        }
        if let Some(rest) = line.strip_prefix("in-doubt gtx=") {
            let gtx: String = rest.chars().take_while(char::is_ascii_digit).collect();
            in_doubt = Some(gtx.parse().expect("gtx number"));
            break;
        }
    }
    let in_doubt = GlobalTxnId::new(in_doubt.expect("incumbent never reported the in-doubt gtx"));
    (coord, committed_before, in_doubt)
}

fn addr_list(addrs: &[SocketAddr]) -> String {
    addrs
        .iter()
        .map(|a| a.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// A standby's view of the fleet.
fn tcp_transport(addrs: &[SocketAddr]) -> Arc<TcpTransport> {
    let addr_map: BTreeMap<SiteId, SocketAddr> = addrs
        .iter()
        .enumerate()
        .map(|(i, a)| (site(i as u32 + 1), *a))
        .collect();
    Arc::new(TcpTransport::new(
        addr_map,
        fast_policy(),
        ObsSink::disabled(),
    ))
}

/// Every site's user counters, summed.
fn fleet_sum(transport: &TcpTransport) -> i64 {
    let mut sum = 0i64;
    for s in 1..=TCP_SITES {
        match transport.admin(site(s), AdminRequest::Dump) {
            Ok(AdminReply::Dump(state)) => {
                sum += state
                    .iter()
                    .filter(|(o, _)| !is_marker(**o))
                    .map(|(_, v)| v.counter)
                    .sum::<i64>();
            }
            other => panic!("dump site {s}: {other:?}"),
        }
    }
    sum
}

fn fast_policy() -> RetryPolicy {
    RetryPolicy {
        connect_timeout: Duration::from_millis(200),
        request_timeout: Duration::from_secs(2),
        max_attempts: 6,
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(40),
    }
}

/// The incumbent coordinator replica is `kill -9`ed with transaction 7
/// fully prepared but undecided — the classical 2PC blocking window. A
/// standby replica reads the acceptor logs, finds the in-doubt
/// transaction, decides *Commit* (both instances chose Prepared at a
/// majority), and delivers it; a replacement coordinator process then
/// keeps committing against the same sites; the global sum is conserved.
#[test]
fn kill_9_of_the_leading_coordinator_replica_does_not_block() {
    let dir = fresh_dir("kill9");
    let (procs, addrs) = spawn_acceptor_sites(&dir);
    let addr_list = addr_list(&addrs);
    let (mut coord, committed_before, in_doubt) = spawn_doomed_incumbent(&addrs);
    assert!(
        committed_before > 0,
        "nothing committed before the incumbent died"
    );
    // The real death: SIGKILL, no destructors, no goodbyes.
    coord.kill().expect("kill -9 the incumbent");
    coord.wait().expect("reap the incumbent");

    // The standby (ballot id 7): the acceptor logs alone name the
    // in-doubt transaction and both of its Prepared instances — the
    // verdict must be Commit, never a presumed abort.
    let transport = tcp_transport(&addrs);
    let acceptors: Vec<SiteId> = (1..=TCP_SITES).map(site).collect();
    let driver = ReplicaDriver::new(&*transport, acceptors.clone(), 7);
    let swept = driver.run_once().expect("standby sweep");
    assert_eq!(
        swept,
        vec![(in_doubt, GlobalVerdict::Commit)],
        "the fully prepared transaction must finish Commit"
    );
    // Idempotent: a second standby finds nothing open.
    let driver2 = ReplicaDriver::new(&*transport, acceptors, 8);
    assert!(driver2.run_once().expect("second sweep").is_empty());

    // A replacement coordinator (fresh gtx range, no reload) keeps the
    // federation moving — the in-doubt window held no locks hostage.
    let out = Command::new(PAXOS_COORD)
        .args([
            "--sites",
            &addr_list,
            "--acceptors",
            &TCP_SITES.to_string(),
            "--txns",
            "6",
            "--objects",
            &TCP_OBJS.to_string(),
            "--no-load",
            "--first-gtx",
            "1000",
        ])
        .output()
        .expect("run replacement amc-paxos-coord");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "replacement coordinator failed: {stdout}"
    );
    assert!(
        stdout.contains("done committed="),
        "replacement coordinator never finished: {stdout}"
    );

    // Conservation across the kill: every site's books, summed, are
    // exactly the initial load.
    assert_eq!(
        fleet_sum(&transport),
        i64::from(TCP_SITES) * TCP_OBJS as i64 * 100,
        "global sum not conserved across the coordinator kill"
    );
    drop(procs);
    let _ = std::fs::remove_dir_all(&dir);
}

/// After the incumbent dies in doubt, site 1 — a participant of the
/// in-doubt transfer and one of its acceptors — is `kill -9`ed as well and
/// restarted in place from its `--wal-dir`. Its one log file carried both
/// the engine's prepare and the acceptor's rows: the restarted acceptor
/// still lists the transaction open, the standby decides Commit from the
/// acceptors, site 1 applies it to its resurrected prepare, the books
/// balance, and the directory holds that one file.
#[test]
fn kill_9_of_an_acceptor_site_keeps_its_prepare_and_its_accept() {
    let dir = fresh_dir("kill9-site");
    let (mut procs, addrs) = spawn_acceptor_sites(&dir);
    let (mut coord, _, in_doubt) = spawn_doomed_incumbent(&addrs);
    coord.kill().expect("kill -9 the incumbent");
    coord.wait().expect("reap the incumbent");

    // Transfer `CRASH_TXN` debits site 1 (the incumbent's deterministic
    // site cycle): kill it too, then restart it on the same port.
    assert_eq!(1 + CRASH_TXN % u64::from(TCP_SITES), 1);
    drop(procs.remove(0));
    procs.insert(0, spawn_acceptor_site(1, &dir, &addrs[0].to_string()).0);

    let transport = tcp_transport(&addrs);
    match transport.admin(site(1), AdminRequest::PaxosOpen) {
        Ok(AdminReply::PaxosOpen(open)) => assert_eq!(
            open.iter().map(|e| e.gtx).collect::<Vec<_>>(),
            vec![in_doubt],
            "the restarted acceptor forgot its registration"
        ),
        other => panic!("paxos-open at site 1: {other:?}"),
    }
    let acceptors: Vec<SiteId> = (1..=TCP_SITES).map(site).collect();
    let swept = ReplicaDriver::new(&*transport, acceptors, 7)
        .run_once()
        .expect("standby sweep");
    assert_eq!(swept, vec![(in_doubt, GlobalVerdict::Commit)]);

    // Site 1 applied the Commit to the prepare it resurrected.
    let debited = amc::workload::object(site(1), CRASH_TXN % TCP_OBJS);
    let amount = 1 + (CRASH_TXN % 5) as i64;
    match transport.admin(site(1), AdminRequest::Dump) {
        Ok(AdminReply::Dump(state)) => assert_eq!(state[&debited].counter, 100 - amount),
        other => panic!("dump site 1: {other:?}"),
    }
    assert_eq!(
        fleet_sum(&transport),
        i64::from(TCP_SITES) * TCP_OBJS as i64 * 100,
        "global sum not conserved across the site kill"
    );
    let files: Vec<_> = std::fs::read_dir(dir.join("site-1"))
        .expect("site 1's wal dir")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    assert_eq!(files, ["site-1.wal"], "one durable file per site");
    drop(procs);
    let _ = std::fs::remove_dir_all(&dir);
}
