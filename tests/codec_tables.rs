//! One harness for every row table of the workspace codec
//! (`amc_types::codec`) — the wire's and the WAL's, whose rows 7–10 are
//! the co-located acceptor's. For arbitrary values of each table:
//!
//! * **round trip**: `decode(encode(v)) == v`;
//! * **prefixes**: decoding any proper prefix is an `Err`, never a panic
//!   and never an allocation sized by a count the bytes cannot back;
//! * **trailing bytes** after a complete value are rejected.
//!
//! The tag bytes themselves are pinned in `amc-rpc`'s
//! `every_*_table_row_round_trips_under_its_golden_tag` tests and the wire
//! bytes in `tests/wire_codec.rs`.

use amc::core::TxnOutcome;
use amc::net::transport::{AdminReply, AdminRequest};
use amc::net::{CommStats, PaxosOpenEntry, Payload, RecoveryStats};
use amc::rpc::wire::{CoordReply, CoordRequest, Frame};
use amc::types::codec::{self, CodecError, Wire};
use amc::types::{
    AbortReason, AmcError, Ballot, GlobalTxnId, GlobalVerdict, LocalTxnId, LocalVote, ObjectId,
    Operation, SiteId, Value,
};
use amc::wal::{LogRecord, LogStats};
use proptest::collection::{btree_map, vec};
use proptest::option;
use proptest::prelude::*;
use std::fmt::Debug;

fn check<T: Wire + PartialEq + Debug>(value: &T) {
    let bytes = codec::encode(value);
    assert_eq!(codec::decode::<T>(&bytes).as_ref(), Ok(value));
    for cut in 0..bytes.len() {
        assert!(
            codec::decode::<T>(&bytes[..cut]).is_err(),
            "prefix of {cut}/{} bytes decoded: {value:?}",
            bytes.len()
        );
    }
    let mut longer = bytes;
    longer.push(0);
    assert_eq!(
        codec::decode::<T>(&longer),
        Err(CodecError::TrailingBytes(1)),
        "{value:?}"
    );
}

// ------------------------------------------------------------ strategies --

fn gtx() -> impl Strategy<Value = GlobalTxnId> {
    any::<u64>().prop_map(GlobalTxnId::new)
}
fn ltx() -> impl Strategy<Value = LocalTxnId> {
    any::<u64>().prop_map(LocalTxnId::new)
}
fn obj() -> impl Strategy<Value = ObjectId> {
    any::<u64>().prop_map(ObjectId::new)
}
fn site() -> impl Strategy<Value = SiteId> {
    any::<u32>().prop_map(SiteId::new)
}
fn sites() -> impl Strategy<Value = Vec<SiteId>> {
    vec(site(), 0..4)
}
fn value() -> impl Strategy<Value = Value> {
    (any::<i64>(), any::<u32>()).prop_map(|(c, t)| Value::tagged(c, t))
}
fn text() -> impl Strategy<Value = String> {
    vec(0x20u8..0x7f, 0..12).prop_map(|b| String::from_utf8(b).expect("ascii"))
}
fn counters<const N: usize>() -> impl Strategy<Value = [u64; N]> {
    vec(any::<u64>(), N..=N).prop_map(|v| v.try_into().expect("N counters"))
}

fn op() -> impl Strategy<Value = Operation> {
    prop_oneof![
        obj().prop_map(|obj| Operation::Read { obj }),
        (obj(), value()).prop_map(|(obj, value)| Operation::Write { obj, value }),
        (obj(), any::<i64>()).prop_map(|(obj, delta)| Operation::Increment { obj, delta }),
        (obj(), value()).prop_map(|(obj, value)| Operation::Insert { obj, value }),
        obj().prop_map(|obj| Operation::Delete { obj }),
        (obj(), any::<u64>()).prop_map(|(obj, amount)| Operation::Reserve { obj, amount }),
    ]
}
fn ops() -> impl Strategy<Value = Vec<Operation>> {
    vec(op(), 0..5)
}
fn vote() -> impl Strategy<Value = LocalVote> {
    prop_oneof![
        Just(LocalVote::Ready),
        Just(LocalVote::ReadyReadOnly),
        Just(LocalVote::Aborted),
    ]
}
fn verdict() -> impl Strategy<Value = GlobalVerdict> {
    prop_oneof![Just(GlobalVerdict::Commit), Just(GlobalVerdict::Abort)]
}
fn reason() -> impl Strategy<Value = AbortReason> {
    prop_oneof![
        Just(AbortReason::Intended),
        Just(AbortReason::Deadlock),
        Just(AbortReason::LockTimeout),
        Just(AbortReason::ValidationFailed),
        Just(AbortReason::SiteCrash),
        Just(AbortReason::GlobalDecision),
        Just(AbortReason::Injected),
    ]
}
fn outcome() -> impl Strategy<Value = TxnOutcome> {
    prop_oneof![
        Just(TxnOutcome::Committed),
        Just(TxnOutcome::Aborted),
        reason().prop_map(TxnOutcome::L1Rejected),
    ]
}

fn error() -> impl Strategy<Value = AmcError> {
    prop_oneof![
        reason().prop_map(AmcError::Aborted),
        obj().prop_map(AmcError::NotFound),
        obj().prop_map(AmcError::AlreadyExists),
        (obj(), any::<i64>(), any::<u64>())
            .prop_map(|(obj, have, want)| AmcError::InsufficientStock { obj, have, want }),
        Just(AmcError::UnknownTxn),
        site().prop_map(AmcError::SiteDown),
        text().prop_map(AmcError::Corruption),
        text().prop_map(AmcError::TransientIo),
        Just(AmcError::BufferExhausted),
        text().prop_map(AmcError::Protocol),
        text().prop_map(AmcError::InvalidState),
    ]
}

fn payload() -> impl Strategy<Value = Payload> {
    let flag = any::<bool>;
    let ballot = any::<u64>;
    prop_oneof![
        (gtx(), ops()).prop_map(|(gtx, ops)| Payload::Submit { gtx, ops }),
        gtx().prop_map(|gtx| Payload::Prepare { gtx }),
        (gtx(), vote()).prop_map(|(gtx, vote)| Payload::Vote { gtx, vote }),
        (gtx(), verdict()).prop_map(|(gtx, verdict)| Payload::Decision { gtx, verdict }),
        (gtx(), ops()).prop_map(|(gtx, ops)| Payload::Redo { gtx, ops }),
        (gtx(), ops()).prop_map(|(gtx, ops)| Payload::Undo { gtx, ops }),
        gtx().prop_map(|gtx| Payload::Finished { gtx }),
        (gtx(), sites())
            .prop_map(|(gtx, participants)| Payload::PaxosRegister { gtx, participants }),
        gtx().prop_map(|gtx| Payload::PaxosAck { gtx }),
        (gtx(), ballot()).prop_map(|(gtx, ballot)| Payload::PaxosP1a { gtx, ballot }),
        (
            gtx(),
            ballot(),
            flag(),
            ballot(),
            sites(),
            vec((site(), ballot(), flag()), 0..4),
        )
            .prop_map(
                |(gtx, ballot, promised, promised_up_to, participants, accepted)| {
                    Payload::PaxosP1b {
                        gtx,
                        ballot,
                        promised,
                        promised_up_to,
                        participants,
                        accepted,
                    }
                }
            ),
        (gtx(), site(), ballot(), flag()).prop_map(|(gtx, site, ballot, prepared)| {
            Payload::PaxosP2a {
                gtx,
                site,
                ballot,
                prepared,
            }
        }),
        (gtx(), site(), ballot(), flag()).prop_map(|(gtx, site, ballot, accepted)| {
            Payload::PaxosP2b {
                gtx,
                site,
                ballot,
                accepted,
            }
        }),
        (gtx(), verdict()).prop_map(|(gtx, verdict)| Payload::PaxosDecided { gtx, verdict }),
        (gtx(), flag(), ops()).prop_map(|(gtx, solo, ops)| Payload::SubmitPrepare {
            gtx,
            solo,
            ops
        }),
    ]
}

fn comm_stats() -> impl Strategy<Value = CommStats> {
    counters::<7>().prop_map(|[a, b, c, d, e, f, g]| CommStats {
        submits: a,
        votes_ready: b,
        votes_aborted: c,
        redo_runs: d,
        undo_runs: e,
        pre_vote_retries: f,
        marker_checks: g,
    })
}
fn log_stats() -> impl Strategy<Value = LogStats> {
    counters::<7>().prop_map(|[a, b, c, d, e, f, g]| LogStats {
        appends: a,
        forces: b,
        stable_records: c,
        stable_bytes: d,
        group_forces: e,
        batched_commits: f,
        truncated_bytes: g,
    })
}
fn recovery_stats() -> impl Strategy<Value = RecoveryStats> {
    (counters::<5>(), any::<bool>()).prop_map(|([a, b, c, d, e], torn_tail)| RecoveryStats {
        committed: a,
        rolled_back: b,
        in_doubt: c,
        replayed: d,
        restored_entries: e,
        torn_tail,
    })
}
fn open_entry() -> impl Strategy<Value = PaxosOpenEntry> {
    (gtx(), sites()).prop_map(|(gtx, participants)| PaxosOpenEntry { gtx, participants })
}

fn admin_request() -> impl Strategy<Value = AdminRequest> {
    prop_oneof![
        Just(AdminRequest::Ping),
        vec((obj(), value()), 0..4).prop_map(AdminRequest::Load),
        Just(AdminRequest::Dump),
        Just(AdminRequest::CommStats),
        Just(AdminRequest::LogStats),
        Just(AdminRequest::Recovery),
        Just(AdminRequest::PaxosOpen),
    ]
}
fn admin_reply() -> impl Strategy<Value = AdminReply> {
    prop_oneof![
        Just(AdminReply::Pong),
        Just(AdminReply::Loaded),
        btree_map(obj(), value(), 0..4).prop_map(AdminReply::Dump),
        comm_stats().prop_map(AdminReply::CommStats),
        log_stats().prop_map(AdminReply::LogStats),
        option::of(recovery_stats()).prop_map(AdminReply::Recovery),
        vec(open_entry(), 0..3).prop_map(AdminReply::PaxosOpen),
    ]
}

fn coord_request() -> impl Strategy<Value = CoordRequest> {
    prop_oneof![
        Just(CoordRequest::Ping),
        Just(CoordRequest::Describe),
        btree_map(site(), ops(), 0..3).prop_map(|per_site| CoordRequest::Exec { per_site }),
    ]
}
fn coord_reply() -> impl Strategy<Value = CoordReply> {
    prop_oneof![
        Just(CoordReply::Pong),
        (any::<u32>(), any::<u32>(), any::<u64>(), sites()).prop_map(
            |(slot, coordinators, epoch, sites)| CoordReply::Coord {
                slot,
                coordinators,
                epoch,
                sites,
            }
        ),
        (gtx(), outcome(), any::<u64>(), any::<u64>()).prop_map(
            |(gtx, outcome, latency_us, messages)| CoordReply::Done {
                gtx,
                outcome,
                latency_us,
                messages,
            }
        ),
    ]
}
fn frame() -> impl Strategy<Value = Frame> {
    let id = any::<u64>;
    prop_oneof![
        (id(), payload()).prop_map(|(req_id, payload)| Frame::Request { req_id, payload }),
        (id(), payload()).prop_map(|(req_id, payload)| Frame::Reply { req_id, payload }),
        (id(), admin_request()).prop_map(|(req_id, req)| Frame::AdminRequest { req_id, req }),
        (id(), admin_reply()).prop_map(|(req_id, reply)| Frame::AdminReply { req_id, reply }),
        (id(), error()).prop_map(|(req_id, error)| Frame::ErrorReply { req_id, error }),
        (id(), coord_request()).prop_map(|(req_id, req)| Frame::CoordRequest { req_id, req }),
        (id(), coord_reply()).prop_map(|(req_id, reply)| Frame::CoordReply { req_id, reply }),
    ]
}

fn log_record() -> impl Strategy<Value = LogRecord> {
    prop_oneof![
        ltx().prop_map(|txn| LogRecord::Begin { txn }),
        (ltx(), obj(), option::of(value()), option::of(value())).prop_map(
            |(txn, obj, before, after)| LogRecord::Update {
                txn,
                obj,
                before,
                after,
            }
        ),
        (ltx(), option::of(gtx())).prop_map(|(txn, gtx)| LogRecord::Prepare { txn, gtx }),
        ltx().prop_map(|txn| LogRecord::Commit { txn }),
        ltx().prop_map(|txn| LogRecord::Abort { txn }),
        vec(ltx(), 0..6).prop_map(|active| LogRecord::Checkpoint { active }),
        acceptor_record(),
    ]
}

fn ballot() -> impl Strategy<Value = Ballot> {
    any::<u64>().prop_map(Ballot)
}
/// The co-located acceptor's rows of the log table (tags 7–10).
fn acceptor_record() -> impl Strategy<Value = LogRecord> {
    prop_oneof![
        (gtx(), sites()).prop_map(|(gtx, participants)| LogRecord::Register { gtx, participants }),
        (gtx(), ballot()).prop_map(|(gtx, ballot)| LogRecord::Promise { gtx, ballot }),
        (gtx(), site(), ballot(), any::<bool>()).prop_map(|(gtx, site, ballot, prepared)| {
            LogRecord::Accept {
                gtx,
                site,
                ballot,
                prepared,
            }
        }),
        (gtx(), verdict()).prop_map(|(gtx, verdict)| LogRecord::Decision { gtx, verdict }),
    ]
}

// ----------------------------------------------------------------- tables --

/// One `check` property per table.
macro_rules! tables {
    ($($name:ident: $strategy:expr),* $(,)?) => {
        proptest! {$(
            #[test]
            fn $name(value in $strategy) {
                check(&value);
            }
        )*}
    };
}

tables! {
    // amc-types
    operation_table: op(),
    vote_table: vote(),
    verdict_table: verdict(),
    abort_reason_table: reason(),
    error_table: error(),
    ballot_table: ballot(),
    // amc-net
    payload_table: payload(),
    admin_request_table: admin_request(),
    admin_reply_table: admin_reply(),
    comm_stats_table: comm_stats(),
    recovery_stats_table: recovery_stats(),
    paxos_open_entry_table: open_entry(),
    // amc-wal
    log_record_table: log_record(),
    acceptor_record_table: acceptor_record(),
    log_stats_table: log_stats(),
    // amc-core
    txn_outcome_table: outcome(),
    // amc-rpc
    coord_request_table: coord_request(),
    coord_reply_table: coord_reply(),
    frame_table: frame(),
}
