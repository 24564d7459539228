//! Wire-format guarantees for the `amc-rpc` framed codec.
//!
//! * **Round trip**: every frame kind over every [`Payload`] variant —
//!   with arbitrary operations, votes, and verdicts — decodes back to
//!   itself. The property runs over generated frames, so a new field or
//!   variant that the codec forgets shows up as a failing case, not a
//!   silent truncation in production.
//! * **Golden bytes**: the v1 layout is pinned byte-for-byte. Changing
//!   the encoding must fail these tests — that is the prompt to bump
//!   [`WIRE_VERSION`], not to silently break every deployed peer.

use amc::core::TxnOutcome;
use amc::net::transport::{AdminReply, AdminRequest};
use amc::net::Payload;
use amc::rpc::wire::{decode_frame, encode_frame, CoordReply, CoordRequest, Frame};
use amc::rpc::WIRE_VERSION;
use amc::types::{
    AbortReason, GlobalTxnId, GlobalVerdict, LocalVote, ObjectId, Operation, SiteId, Value,
};
use proptest::collection::vec;
use proptest::prelude::*;

// ------------------------------------------------------------ strategies --

fn arb_op() -> impl Strategy<Value = Operation> {
    (
        0u8..6,
        any::<u64>(),
        any::<i64>(),
        any::<u32>(),
        1u64..1_000,
    )
        .prop_map(|(tag, raw, delta, vtag, amount)| {
            let obj = ObjectId::new(raw);
            let value = Value {
                counter: delta ^ 0x55,
                tag: vtag,
            };
            match tag {
                0 => Operation::Read { obj },
                1 => Operation::Write { obj, value },
                2 => Operation::Increment { obj, delta },
                3 => Operation::Insert { obj, value },
                4 => Operation::Delete { obj },
                _ => Operation::Reserve { obj, amount },
            }
        })
}

fn arb_payload() -> impl Strategy<Value = Payload> {
    (
        0u8..8,
        any::<u64>(),
        vec(arb_op(), 0..5),
        0u8..3,
        any::<bool>(),
    )
        .prop_map(|(tag, raw, ops, vote, commit)| {
            let gtx = GlobalTxnId::new(raw);
            match tag {
                0 => Payload::Submit { gtx, ops },
                7 => Payload::SubmitPrepare {
                    gtx,
                    ops,
                    solo: commit,
                },
                1 => Payload::Prepare { gtx },
                2 => Payload::Vote {
                    gtx,
                    vote: match vote {
                        0 => LocalVote::Ready,
                        1 => LocalVote::ReadyReadOnly,
                        _ => LocalVote::Aborted,
                    },
                },
                3 => Payload::Decision {
                    gtx,
                    verdict: if commit {
                        GlobalVerdict::Commit
                    } else {
                        GlobalVerdict::Abort
                    },
                },
                4 => Payload::Redo { gtx, ops },
                5 => Payload::Undo { gtx, ops },
                _ => Payload::Finished { gtx },
            }
        })
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    (
        0u8..3,
        any::<u64>(),
        arb_payload(),
        vec((any::<u64>(), any::<i64>()), 0..4),
    )
        .prop_map(|(kind, req_id, payload, pairs)| match kind {
            0 => Frame::Request { req_id, payload },
            1 => Frame::Reply { req_id, payload },
            _ => Frame::AdminRequest {
                req_id,
                req: AdminRequest::Load(
                    pairs
                        .into_iter()
                        .map(|(o, c)| (ObjectId::new(o), Value::counter(c)))
                        .collect(),
                ),
            },
        })
}

proptest! {
    #[test]
    fn every_frame_round_trips(frame in arb_frame()) {
        let bytes = encode_frame(&frame);
        prop_assert_eq!(decode_frame(&bytes).expect("decode"), frame);
    }
}

/// Every payload variant explicitly, so a codec gap cannot hide behind
/// generator distribution.
#[test]
fn each_payload_variant_round_trips() {
    let gtx = GlobalTxnId::new(42);
    let ops = vec![
        Operation::Read {
            obj: ObjectId::new(1),
        },
        Operation::Write {
            obj: ObjectId::new(2),
            value: Value {
                counter: -7,
                tag: 9,
            },
        },
        Operation::Increment {
            obj: ObjectId::new(3),
            delta: i64::MIN,
        },
        Operation::Insert {
            obj: ObjectId::new(u64::MAX),
            value: Value::ZERO,
        },
        Operation::Delete {
            obj: ObjectId::new(5),
        },
        Operation::Reserve {
            obj: ObjectId::new(6),
            amount: u64::MAX,
        },
    ];
    let payloads = vec![
        Payload::Submit {
            gtx,
            ops: ops.clone(),
        },
        Payload::Prepare { gtx },
        Payload::Vote {
            gtx,
            vote: LocalVote::Ready,
        },
        Payload::Vote {
            gtx,
            vote: LocalVote::ReadyReadOnly,
        },
        Payload::Vote {
            gtx,
            vote: LocalVote::Aborted,
        },
        Payload::Decision {
            gtx,
            verdict: GlobalVerdict::Commit,
        },
        Payload::Decision {
            gtx,
            verdict: GlobalVerdict::Abort,
        },
        Payload::Redo {
            gtx,
            ops: ops.clone(),
        },
        Payload::Undo { gtx, ops },
        Payload::Finished { gtx },
        Payload::SubmitPrepare {
            gtx,
            ops: vec![Operation::Increment {
                obj: ObjectId::new(8),
                delta: 4,
            }],
            solo: false,
        },
        Payload::SubmitPrepare {
            gtx,
            ops: vec![],
            solo: true,
        },
    ];
    for payload in payloads {
        for frame in [
            Frame::Request {
                req_id: 7,
                payload: payload.clone(),
            },
            Frame::Reply {
                req_id: u64::MAX,
                payload: payload.clone(),
            },
        ] {
            let bytes = encode_frame(&frame);
            assert_eq!(decode_frame(&bytes).expect("decode"), frame, "{payload:?}");
        }
    }
}

/// Admin frames round-trip too (ping, load, dump requests).
#[test]
fn admin_frames_round_trip() {
    for req in [
        AdminRequest::Ping,
        AdminRequest::Dump,
        AdminRequest::CommStats,
        AdminRequest::LogStats,
        AdminRequest::Load(vec![(ObjectId::new(3), Value::counter(12))]),
    ] {
        let frame = Frame::AdminRequest { req_id: 1, req };
        let bytes = encode_frame(&frame);
        assert_eq!(decode_frame(&bytes).expect("decode"), frame);
    }
    let frame = Frame::AdminReply {
        req_id: 2,
        reply: AdminReply::Pong,
    };
    let bytes = encode_frame(&frame);
    assert_eq!(decode_frame(&bytes).expect("decode"), frame);
}

// -------------------------------------------------------- golden layout --

/// The v1 frame layout, pinned byte-for-byte:
///
/// ```text
/// [u32 LE length of rest] [u8 version] [u8 frame kind] [u64 LE req id] [body]
/// ```
///
/// Body of a `Submit`: payload tag, gtx, op count, then each op as
/// `tag, object id, variant fields` — all little-endian.
#[test]
fn golden_bytes_request_submit_v1() {
    let frame = Frame::Request {
        req_id: 0x0102_0304_0506_0708,
        payload: Payload::Submit {
            gtx: GlobalTxnId::new(7),
            ops: vec![Operation::Increment {
                obj: ObjectId::new(9),
                delta: -3,
            }],
        },
    };
    let mut expect: Vec<u8> = Vec::new();
    expect.extend_from_slice(&40u32.to_le_bytes()); // length of everything after it
    expect.push(WIRE_VERSION); // version byte = 1
    expect.push(0); // frame kind 0 = request
    expect.extend_from_slice(&0x0102_0304_0506_0708u64.to_le_bytes()); // req id
    expect.push(0); // payload tag 0 = submit
    expect.extend_from_slice(&7u64.to_le_bytes()); // gtx
    expect.extend_from_slice(&1u32.to_le_bytes()); // op count
    expect.push(2); // op tag 2 = increment
    expect.extend_from_slice(&9u64.to_le_bytes()); // object id
    expect.extend_from_slice(&(-3i64).to_le_bytes()); // delta
    assert_eq!(encode_frame(&frame), expect);
    assert_eq!(decode_frame(&expect).expect("decode"), frame);
}

/// A vote reply — the other direction of the protocol conversation.
#[test]
fn golden_bytes_reply_vote_v1() {
    let frame = Frame::Reply {
        req_id: 5,
        payload: Payload::Vote {
            gtx: GlobalTxnId::new(11),
            vote: LocalVote::Aborted,
        },
    };
    let mut expect: Vec<u8> = Vec::new();
    expect.extend_from_slice(&20u32.to_le_bytes());
    expect.push(WIRE_VERSION);
    expect.push(1); // frame kind 1 = reply
    expect.extend_from_slice(&5u64.to_le_bytes());
    expect.push(2); // payload tag 2 = vote
    expect.extend_from_slice(&11u64.to_le_bytes());
    expect.push(2); // vote 2 = aborted (0 ready, 1 ready-read-only)
    assert_eq!(encode_frame(&frame), expect);
    assert_eq!(decode_frame(&expect).expect("decode"), frame);
}

/// The fast-path combined op+prepare dispatch: payload tag 14, then gtx,
/// a solo flag byte, and the ops exactly as in a `Submit`.
#[test]
fn golden_bytes_request_submit_prepare_v1() {
    let frame = Frame::Request {
        req_id: 6,
        payload: Payload::SubmitPrepare {
            gtx: GlobalTxnId::new(13),
            ops: vec![Operation::Increment {
                obj: ObjectId::new(9),
                delta: -3,
            }],
            solo: false,
        },
    };
    let mut expect: Vec<u8> = Vec::new();
    expect.extend_from_slice(&41u32.to_le_bytes());
    expect.push(WIRE_VERSION);
    expect.push(0); // frame kind 0 = request
    expect.extend_from_slice(&6u64.to_le_bytes());
    expect.push(14); // payload tag 14 = submit-prepare
    expect.extend_from_slice(&13u64.to_le_bytes()); // gtx
    expect.push(0); // solo flag: 0 = piggybacked vote, global round follows
    expect.extend_from_slice(&1u32.to_le_bytes()); // op count
    expect.push(2); // op tag 2 = increment
    expect.extend_from_slice(&9u64.to_le_bytes()); // object id
    expect.extend_from_slice(&(-3i64).to_le_bytes()); // delta
    assert_eq!(encode_frame(&frame), expect);
    assert_eq!(decode_frame(&expect).expect("decode"), frame);
}

/// The single-site bypass variant: identical layout with the solo flag set.
#[test]
fn golden_bytes_request_submit_solo_v1() {
    let frame = Frame::Request {
        req_id: 6,
        payload: Payload::SubmitPrepare {
            gtx: GlobalTxnId::new(13),
            ops: vec![],
            solo: true,
        },
    };
    let mut expect: Vec<u8> = Vec::new();
    expect.extend_from_slice(&24u32.to_le_bytes());
    expect.push(WIRE_VERSION);
    expect.push(0);
    expect.extend_from_slice(&6u64.to_le_bytes());
    expect.push(14);
    expect.extend_from_slice(&13u64.to_le_bytes());
    expect.push(1); // solo flag: 1 = commit locally, no global round
    expect.extend_from_slice(&0u32.to_le_bytes()); // op count
    assert_eq!(encode_frame(&frame), expect);
    assert_eq!(decode_frame(&expect).expect("decode"), frame);
}

/// A write op pins the 12-byte value layout (counter i64 LE + tag u32 LE).
#[test]
fn golden_bytes_value_layout_v1() {
    let frame = Frame::Request {
        req_id: 1,
        payload: Payload::Submit {
            gtx: GlobalTxnId::new(1),
            ops: vec![Operation::Write {
                obj: ObjectId::new(2),
                value: Value {
                    counter: 0x0A0B_0C0D,
                    tag: 0xF00D,
                },
            }],
        },
    };
    let mut expect: Vec<u8> = Vec::new();
    expect.extend_from_slice(&44u32.to_le_bytes());
    expect.push(WIRE_VERSION);
    expect.push(0);
    expect.extend_from_slice(&1u64.to_le_bytes());
    expect.push(0);
    expect.extend_from_slice(&1u64.to_le_bytes());
    expect.extend_from_slice(&1u32.to_le_bytes());
    expect.push(1); // op tag 1 = write
    expect.extend_from_slice(&2u64.to_le_bytes());
    expect.extend_from_slice(&0x0A0B_0C0Di64.to_le_bytes()); // value.counter
    expect.extend_from_slice(&0xF00Du32.to_le_bytes()); // value.tag
    assert_eq!(encode_frame(&frame), expect);
    assert_eq!(decode_frame(&expect).expect("decode"), frame);
}

// ------------------------------------------- coordinator frames (5/6) --

/// Frame kind 5, an `Exec`: tag 2, a u32 site count, then per site a
/// u32 site id and the ops exactly as in a `Submit`.
#[test]
fn golden_bytes_coord_request_exec_v1() {
    let frame = Frame::CoordRequest {
        req_id: 3,
        req: CoordRequest::Exec {
            per_site: std::collections::BTreeMap::from([(
                SiteId::new(2),
                vec![Operation::Increment {
                    obj: ObjectId::new(9),
                    delta: -3,
                }],
            )]),
        },
    };
    let mut expect: Vec<u8> = Vec::new();
    expect.extend_from_slice(&40u32.to_le_bytes());
    expect.push(WIRE_VERSION);
    expect.push(5); // frame kind 5 = coordinator request
    expect.extend_from_slice(&3u64.to_le_bytes()); // req id
    expect.push(2); // coord-request tag 2 = exec
    expect.extend_from_slice(&1u32.to_le_bytes()); // site count
    expect.extend_from_slice(&2u32.to_le_bytes()); // site id
    expect.extend_from_slice(&1u32.to_le_bytes()); // op count
    expect.push(2); // op tag 2 = increment
    expect.extend_from_slice(&9u64.to_le_bytes()); // object id
    expect.extend_from_slice(&(-3i64).to_le_bytes()); // delta
    assert_eq!(encode_frame(&frame), expect);
    assert_eq!(decode_frame(&expect).expect("decode"), frame);
}

/// Frame kind 6, a `Coord` description: identity for discovery — slot,
/// coordinator count, epoch, then the site list.
#[test]
fn golden_bytes_coord_reply_describe_v1() {
    let frame = Frame::CoordReply {
        req_id: 9,
        reply: CoordReply::Coord {
            slot: 1,
            coordinators: 4,
            epoch: 7,
            sites: vec![SiteId::new(1), SiteId::new(2), SiteId::new(3)],
        },
    };
    let mut expect: Vec<u8> = Vec::new();
    expect.extend_from_slice(&43u32.to_le_bytes());
    expect.push(WIRE_VERSION);
    expect.push(6); // frame kind 6 = coordinator reply
    expect.extend_from_slice(&9u64.to_le_bytes());
    expect.push(1); // coord-reply tag 1 = coord description
    expect.extend_from_slice(&1u32.to_le_bytes()); // slot
    expect.extend_from_slice(&4u32.to_le_bytes()); // coordinators
    expect.extend_from_slice(&7u64.to_le_bytes()); // epoch
    expect.extend_from_slice(&3u32.to_le_bytes()); // site count
    expect.extend_from_slice(&1u32.to_le_bytes());
    expect.extend_from_slice(&2u32.to_le_bytes());
    expect.extend_from_slice(&3u32.to_le_bytes());
    assert_eq!(encode_frame(&frame), expect);
    assert_eq!(decode_frame(&expect).expect("decode"), frame);
}

/// Frame kind 6, a `Done`: the transaction id (carrying the owning
/// coordinator's disjoint-range slot in its high bits), a one-byte
/// outcome, latency and message count.
#[test]
fn golden_bytes_coord_reply_done_v1() {
    let gtx_raw = 2 * (1u64 << 40) + 17; // slot 2's id range
    let frame = Frame::CoordReply {
        req_id: 5,
        reply: CoordReply::Done {
            gtx: GlobalTxnId::new(gtx_raw),
            outcome: TxnOutcome::Committed,
            latency_us: 1234,
            messages: 12,
        },
    };
    let mut expect: Vec<u8> = Vec::new();
    expect.extend_from_slice(&36u32.to_le_bytes());
    expect.push(WIRE_VERSION);
    expect.push(6);
    expect.extend_from_slice(&5u64.to_le_bytes());
    expect.push(2); // coord-reply tag 2 = done
    expect.extend_from_slice(&gtx_raw.to_le_bytes()); // gtx
    expect.push(0); // outcome 0 = committed (1 aborted, 2 l1-rejected+reason)
    expect.extend_from_slice(&1234u64.to_le_bytes()); // latency µs
    expect.extend_from_slice(&12u64.to_le_bytes()); // messages
    assert_eq!(encode_frame(&frame), expect);
    assert_eq!(decode_frame(&expect).expect("decode"), frame);
}

/// The L1-rejected outcome carries its abort reason as a trailing tag
/// byte (2 = lock timeout).
#[test]
fn golden_bytes_coord_reply_l1_rejected_v1() {
    let frame = Frame::CoordReply {
        req_id: 5,
        reply: CoordReply::Done {
            gtx: GlobalTxnId::new(1),
            outcome: TxnOutcome::L1Rejected(AbortReason::LockTimeout),
            latency_us: 0,
            messages: 0,
        },
    };
    let mut expect: Vec<u8> = Vec::new();
    expect.extend_from_slice(&37u32.to_le_bytes());
    expect.push(WIRE_VERSION);
    expect.push(6);
    expect.extend_from_slice(&5u64.to_le_bytes());
    expect.push(2);
    expect.extend_from_slice(&1u64.to_le_bytes());
    expect.push(2); // outcome 2 = l1-rejected
    expect.push(2); // abort reason 2 = lock timeout
    expect.extend_from_slice(&0u64.to_le_bytes());
    expect.extend_from_slice(&0u64.to_le_bytes());
    assert_eq!(encode_frame(&frame), expect);
    assert_eq!(decode_frame(&expect).expect("decode"), frame);
}
