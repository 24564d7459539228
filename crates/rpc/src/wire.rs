//! The framed wire codec, version 1.
//!
//! Every frame on the wire is
//!
//! ```text
//! [u32 LE length of the rest][u8 version = 1][u8 frame kind][u64 LE req id][body]
//! ```
//!
//! The length prefix counts everything after itself (version byte
//! included), so a reader can always take exactly one frame off the
//! stream. Frame kinds: `0` protocol request, `1` protocol reply (both
//! bodies are a [`Payload`]), `2` admin request, `3` admin reply, `4`
//! error reply (body is an [`AmcError`]), `5` coordinator request, `6`
//! coordinator reply (bodies are [`CoordRequest`] / [`CoordReply`] — the
//! router↔coordinator surface of the sharded topology). The request id
//! is echoed verbatim in the reply so a client can detect stale replies
//! on a reused connection.
//!
//! The body layouts are row tables of the workspace codec
//! ([`amc_types::codec`]), each declared beside its type; this module
//! declares only what is the wire's own — [`Frame`], [`CoordRequest`],
//! [`CoordReply`], the version byte and the length prefix. The layout is
//! pinned by a golden-bytes test (`tests/wire_codec.rs`): changing any of
//! it must bump [`WIRE_VERSION`].

use amc_core::TxnOutcome;
use amc_net::transport::{AdminReply, AdminRequest};
use amc_net::Payload;
use amc_types::codec::{CodecError, Reader, Wire, Writer};
use amc_types::{wire_enum, AmcError, GlobalTxnId, Operation, SiteId};
use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Read, Write};

/// The one and only wire version this codec speaks.
pub const WIRE_VERSION: u8 = 1;

/// Upper bound on the post-prefix frame length: anything larger is a
/// corrupt or hostile frame and the connection is dropped.
pub(crate) const MAX_FRAME_LEN: u32 = 4 << 20;

/// What a shard router (or any driver) asks of a coordinator server —
/// the discovery/execution surface of the sharded topology (frame kind
/// `5`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordRequest {
    /// Liveness probe.
    Ping,
    /// Ask the coordinator who it is: slot, topology width, epoch, sites.
    Describe,
    /// Run one global transaction (per-site operation buckets) through
    /// this coordinator's commit machinery.
    Exec {
        /// Operations per participating site, ascending by site.
        per_site: BTreeMap<SiteId, Vec<Operation>>,
    },
}

/// A coordinator server's answers (frame kind `6`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoordReply {
    /// The coordinator is alive.
    Pong,
    /// Discovery: this coordinator's identity and reachable fleet.
    Coord {
        /// The coordinator's id-range slot.
        slot: u32,
        /// Total coordinator count in the topology.
        coordinators: u32,
        /// The shard-map epoch this coordinator is serving.
        epoch: u64,
        /// The site fleet it drives, ascending.
        sites: Vec<SiteId>,
    },
    /// An [`CoordRequest::Exec`] finished.
    Done {
        /// The global transaction id the attempt ran under (its id range
        /// names the coordinator slot).
        gtx: GlobalTxnId,
        /// What happened.
        outcome: TxnOutcome,
        /// End-to-end latency at the coordinator, microseconds.
        latency_us: u64,
        /// Messages the coordinator exchanged with sites.
        messages: u64,
    },
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Coordinator → site protocol message.
    Request {
        /// Echoed in the reply.
        req_id: u64,
        /// The protocol message.
        payload: Payload,
    },
    /// Site → coordinator protocol reply.
    Reply {
        /// The request this answers.
        req_id: u64,
        /// The reply message.
        payload: Payload,
    },
    /// Driver → site admin message.
    AdminRequest {
        /// Echoed in the reply.
        req_id: u64,
        /// The admin request.
        req: AdminRequest,
    },
    /// Site → driver admin reply.
    AdminReply {
        /// The request this answers.
        req_id: u64,
        /// The admin reply.
        reply: AdminReply,
    },
    /// Site → caller: the request failed.
    ErrorReply {
        /// The request this answers.
        req_id: u64,
        /// What went wrong.
        error: AmcError,
    },
    /// Router → coordinator request.
    CoordRequest {
        /// Echoed in the reply.
        req_id: u64,
        /// The coordinator request.
        req: CoordRequest,
    },
    /// Coordinator → router reply.
    CoordReply {
        /// The request this answers.
        req_id: u64,
        /// The coordinator reply.
        reply: CoordReply,
    },
}

impl Frame {
    /// The request id carried by any frame kind.
    pub fn req_id(&self) -> u64 {
        match self {
            Frame::Request { req_id, .. }
            | Frame::Reply { req_id, .. }
            | Frame::AdminRequest { req_id, .. }
            | Frame::AdminReply { req_id, .. }
            | Frame::ErrorReply { req_id, .. }
            | Frame::CoordRequest { req_id, .. }
            | Frame::CoordReply { req_id, .. } => *req_id,
        }
    }
}

/// Why a frame failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The body does not match its row tables.
    Codec(CodecError),
    /// The length prefix exceeds `MAX_FRAME_LEN`.
    Oversized(u32),
    /// Unknown wire version.
    BadVersion(u8),
}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        WireError::Codec(e)
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Codec(e) => write!(f, "frame body: {e}"),
            WireError::Oversized(n) => write!(f, "frame length {n} exceeds {MAX_FRAME_LEN}"),
            WireError::BadVersion(v) => write!(f, "wire version {v} (expected {WIRE_VERSION})"),
        }
    }
}

/// Why [`read_frame`] failed: the transport broke, or the peer sent bytes
/// that do not decode.
#[derive(Debug)]
pub enum FrameReadError {
    /// Socket-level failure (closed, reset, timed out).
    Io(io::Error),
    /// The bytes arrived but are not a valid frame.
    Wire(WireError),
}

impl fmt::Display for FrameReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameReadError::Io(e) => write!(f, "io: {e}"),
            FrameReadError::Wire(e) => write!(f, "wire: {e}"),
        }
    }
}

impl FrameReadError {
    /// True when the failure was a read deadline expiring.
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            FrameReadError::Io(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut
        )
    }
}

// ---------------------------------------------------------------- tables --

wire_enum!(CoordRequest, "coord-request" {
    0 => Ping,
    1 => Describe,
    2 => Exec { per_site: BTreeMap<SiteId, Vec<Operation>> },
});

wire_enum!(CoordReply, "coord-reply" {
    0 => Pong,
    1 => Coord { slot: u32, coordinators: u32, epoch: u64, sites: Vec<SiteId> },
    2 => Done { gtx: GlobalTxnId, outcome: TxnOutcome, latency_us: u64, messages: u64 },
});

wire_enum!(Frame, "frame-kind" {
    0 => Request { req_id: u64, payload: Payload },
    1 => Reply { req_id: u64, payload: Payload },
    2 => AdminRequest { req_id: u64, req: AdminRequest },
    3 => AdminReply { req_id: u64, reply: AdminReply },
    4 => ErrorReply { req_id: u64, error: AmcError },
    5 => CoordRequest { req_id: u64, req: CoordRequest },
    6 => CoordReply { req_id: u64, reply: CoordReply },
});

/// Encode `frame` into its complete on-wire bytes (length prefix
/// included).
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(0); // the length prefix, patched once the body is written
    w.u8(WIRE_VERSION);
    frame.put(&mut w);
    let len = (w.as_bytes().len() - 4) as u32;
    w.set_u32(0, len);
    w.into_bytes()
}

/// Decode the post-prefix bytes of one frame (version byte onward).
pub(crate) fn decode_frame_body(body: &[u8]) -> Result<Frame, WireError> {
    let mut r = Reader::new(body);
    let version = u8::get(&mut r)?;
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let frame = Frame::get(&mut r)?;
    r.finish()?;
    Ok(frame)
}

/// Decode one complete frame (length prefix included), as produced by
/// [`encode_frame`].
pub fn decode_frame(bytes: &[u8]) -> Result<Frame, WireError> {
    let mut r = Reader::new(bytes);
    let len = body_len(r.take(4)?)?;
    let body = r.take(len)?;
    r.finish()?;
    decode_frame_body(body)
}

/// The body length a 4-byte prefix announces. A length beyond
/// [`MAX_FRAME_LEN`] is refused here, *before* anything is allocated or
/// awaited for it, so a hostile prefix cannot balloon memory.
fn body_len(prefix: &[u8]) -> Result<usize, WireError> {
    let len = u32::from_le_bytes(prefix.try_into().expect("4-byte prefix"));
    if len > MAX_FRAME_LEN {
        return Err(WireError::Oversized(len));
    }
    Ok(len as usize)
}

// ---------------------------------------------------------------- stream --

/// Write one frame to a stream.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    w.write_all(&encode_frame(frame))?;
    w.flush()
}

/// Read exactly one frame off a stream.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, FrameReadError> {
    let mut prefix = [0u8; 4];
    r.read_exact(&mut prefix).map_err(FrameReadError::Io)?;
    let mut body = vec![0u8; body_len(&prefix).map_err(FrameReadError::Wire)?];
    r.read_exact(&mut body).map_err(FrameReadError::Io)?;
    decode_frame_body(&body).map_err(FrameReadError::Wire)
}

// ------------------------------------------------------- frame buffer --

/// Incremental frame decoder: a per-connection byte accumulator that
/// yields complete frames as they become available.
///
/// This is the decode primitive of the event-loop runtime, and the fix
/// for the blocking runtime's partial-read desync: bytes are *never*
/// discarded between reads. A partial frame simply stays buffered until
/// more bytes arrive — no matter how many read timeouts tick in between
/// — so a slow writer dribbling one byte at a time still parses.
///
/// ```
/// use amc_rpc::wire::{encode_frame, Frame, FrameBuffer};
/// use amc_net::Payload;
/// use amc_types::GlobalTxnId;
///
/// let frame = Frame::Request {
///     req_id: 9,
///     payload: Payload::Prepare { gtx: GlobalTxnId::new(1) },
/// };
/// let bytes = encode_frame(&frame);
/// let mut buf = FrameBuffer::new();
/// // Feed everything but the last byte: no frame yet.
/// buf.extend(&bytes[..bytes.len() - 1]);
/// assert_eq!(buf.next_frame().unwrap(), None);
/// // The final byte completes it.
/// buf.extend(&bytes[bytes.len() - 1..]);
/// assert_eq!(buf.next_frame().unwrap(), Some(frame));
/// ```
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Consumed prefix; compacted opportunistically so the buffer does
    /// not grow with connection lifetime.
    start: usize,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        FrameBuffer::default()
    }

    /// Append bytes read off the wire.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact before growing: once everything buffered has been
        // consumed the allocation can be reused from offset 0, and a
        // large consumed prefix is dropped rather than copied around.
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > 4096 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a decoded frame.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Decode the next complete frame, if the buffer holds one.
    ///
    /// `Ok(None)` means "not enough bytes yet" — keep the connection and
    /// feed more. `Err` means the stream is poisoned (oversized length
    /// prefix, malformed body): the connection must be dropped, since
    /// frame boundaries can no longer be trusted.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        let avail = &self.buf[self.start..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let total = 4 + body_len(&avail[..4])?;
        if avail.len() < total {
            return Ok(None);
        }
        let frame = decode_frame_body(&avail[4..total])?;
        self.start += total;
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amc_net::{CommStats, PaxosOpenEntry, RecoveryStats};
    use amc_types::{AbortReason, Ballot, GlobalVerdict, LocalTxnId, LocalVote, ObjectId, Value};
    use amc_wal::{LogRecord, LogStats};

    /// A hand-written (possibly hostile) frame body under its length
    /// prefix.
    fn prefixed(body: Writer) -> Vec<u8> {
        let mut bytes = (body.as_bytes().len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(body.as_bytes());
        bytes
    }

    #[test]
    fn round_trips_a_submit() {
        let frame = Frame::Request {
            req_id: 42,
            payload: Payload::Submit {
                gtx: GlobalTxnId::new(7),
                ops: vec![
                    Operation::Increment {
                        obj: ObjectId::new(3),
                        delta: -5,
                    },
                    Operation::Write {
                        obj: ObjectId::new(9),
                        value: Value::counter(11),
                    },
                ],
            },
        };
        let bytes = encode_frame(&frame);
        assert_eq!(decode_frame(&bytes).unwrap(), frame);
    }

    #[test]
    fn round_trips_admin_and_errors() {
        let frames = [
            Frame::AdminRequest {
                req_id: 1,
                req: AdminRequest::Load(vec![(ObjectId::new(1), Value::counter(5))]),
            },
            Frame::AdminReply {
                req_id: 1,
                reply: AdminReply::Dump(BTreeMap::from([(ObjectId::new(1), Value::counter(5))])),
            },
            Frame::ErrorReply {
                req_id: 2,
                error: AmcError::SiteDown(SiteId::new(3)),
            },
            Frame::ErrorReply {
                req_id: 3,
                error: AmcError::Protocol("boom".into()),
            },
        ];
        for frame in frames {
            let bytes = encode_frame(&frame);
            assert_eq!(decode_frame(&bytes).unwrap(), frame, "{frame:?}");
        }
    }

    #[test]
    fn round_trips_paxos_payloads() {
        let payloads = [
            Payload::PaxosRegister {
                gtx: GlobalTxnId::new(7),
                participants: vec![SiteId::new(1), SiteId::new(2), SiteId::new(3)],
            },
            Payload::PaxosAck {
                gtx: GlobalTxnId::new(7),
            },
            Payload::PaxosP1a {
                gtx: GlobalTxnId::new(7),
                ballot: (1u64 << 32) | 2,
            },
            Payload::PaxosP1b {
                gtx: GlobalTxnId::new(7),
                ballot: (1u64 << 32) | 2,
                promised: true,
                promised_up_to: (1u64 << 32) | 2,
                participants: vec![SiteId::new(1), SiteId::new(2)],
                accepted: vec![(SiteId::new(1), 0, true), (SiteId::new(2), 5, false)],
            },
            Payload::PaxosP2a {
                gtx: GlobalTxnId::new(7),
                site: SiteId::new(2),
                ballot: (1u64 << 32) | 2,
                prepared: false,
            },
            Payload::PaxosP2b {
                gtx: GlobalTxnId::new(7),
                site: SiteId::new(2),
                ballot: (1u64 << 32) | 2,
                accepted: true,
            },
            Payload::PaxosDecided {
                gtx: GlobalTxnId::new(7),
                verdict: GlobalVerdict::Commit,
            },
        ];
        for (i, payload) in payloads.into_iter().enumerate() {
            let frame = Frame::Request {
                req_id: i as u64,
                payload,
            };
            let bytes = encode_frame(&frame);
            assert_eq!(decode_frame(&bytes).unwrap(), frame, "{frame:?}");
        }
    }

    #[test]
    fn round_trips_paxos_open_admin() {
        let frames = [
            Frame::AdminRequest {
                req_id: 5,
                req: AdminRequest::PaxosOpen,
            },
            Frame::AdminReply {
                req_id: 5,
                reply: AdminReply::PaxosOpen(vec![
                    PaxosOpenEntry {
                        gtx: GlobalTxnId::new(11),
                        participants: vec![SiteId::new(1), SiteId::new(2)],
                    },
                    PaxosOpenEntry {
                        gtx: GlobalTxnId::new(12),
                        participants: vec![],
                    },
                ]),
            },
        ];
        for frame in frames {
            let bytes = encode_frame(&frame);
            assert_eq!(decode_frame(&bytes).unwrap(), frame, "{frame:?}");
        }
    }

    #[test]
    fn hostile_paxos_counts_do_not_allocate() {
        // A P1b declaring u32::MAX participants in a tiny frame.
        let mut w = Writer::new();
        w.u8(WIRE_VERSION);
        w.u8(1); // reply
        1u64.put(&mut w); // req id
        w.u8(10); // p1b
        1u64.put(&mut w); // gtx
        0u64.put(&mut w); // ballot
        w.u8(1); // promised
        0u64.put(&mut w); // promised_up_to
        w.u32(u32::MAX); // participant count
        assert_eq!(
            decode_frame(&prefixed(w)),
            Err(CodecError::Truncated.into())
        );
    }

    #[test]
    fn truncation_is_detected_not_panicked() {
        let bytes = encode_frame(&Frame::Request {
            req_id: 9,
            payload: Payload::Prepare {
                gtx: GlobalTxnId::new(1),
            },
        });
        for cut in 0..bytes.len() {
            let res = decode_frame(&bytes[..cut]);
            assert!(res.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut bytes = (MAX_FRAME_LEN + 1).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 16]);
        assert_eq!(
            decode_frame(&bytes),
            Err(WireError::Oversized(MAX_FRAME_LEN + 1))
        );
    }

    #[test]
    fn bad_version_and_bad_tags_are_rejected() {
        let good = encode_frame(&Frame::Reply {
            req_id: 1,
            payload: Payload::Finished {
                gtx: GlobalTxnId::new(1),
            },
        });
        let mut bad_version = good.clone();
        bad_version[4] = 99;
        assert_eq!(decode_frame(&bad_version), Err(WireError::BadVersion(99)));
        let mut bad_kind = good.clone();
        bad_kind[5] = 77;
        assert_eq!(
            decode_frame(&bad_kind),
            Err(CodecError::BadTag("frame-kind", 77).into())
        );
        let mut bad_payload = good;
        bad_payload[14] = 55;
        assert_eq!(
            decode_frame(&bad_payload),
            Err(CodecError::BadTag("payload", 55).into())
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_frame(&Frame::Request {
            req_id: 1,
            payload: Payload::Prepare {
                gtx: GlobalTxnId::new(1),
            },
        });
        // Grow the body and fix up the prefix.
        bytes.push(0xAB);
        let len = (bytes.len() - 4) as u32;
        bytes[..4].copy_from_slice(&len.to_le_bytes());
        assert_eq!(
            decode_frame(&bytes),
            Err(CodecError::TrailingBytes(1).into())
        );
    }

    #[test]
    fn frame_buffer_decodes_byte_by_byte() {
        let frame = Frame::Request {
            req_id: 3,
            payload: Payload::Submit {
                gtx: GlobalTxnId::new(5),
                ops: vec![Operation::Increment {
                    obj: ObjectId::new(1),
                    delta: 2,
                }],
            },
        };
        let bytes = encode_frame(&frame);
        let mut buf = FrameBuffer::new();
        for (i, b) in bytes.iter().enumerate() {
            if i + 1 < bytes.len() {
                buf.extend(std::slice::from_ref(b));
                assert_eq!(buf.next_frame().unwrap(), None, "byte {i}");
            }
        }
        buf.extend(std::slice::from_ref(bytes.last().unwrap()));
        assert_eq!(buf.next_frame().unwrap(), Some(frame));
        assert_eq!(buf.pending(), 0);
    }

    #[test]
    fn frame_buffer_yields_pipelined_frames_in_order() {
        let frames: Vec<Frame> = (0..5)
            .map(|i| Frame::Request {
                req_id: i,
                payload: Payload::Prepare {
                    gtx: GlobalTxnId::new(i + 1),
                },
            })
            .collect();
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&encode_frame(f));
        }
        // Feed everything at once plus half of a trailing frame.
        let tail = encode_frame(&frames[0]);
        wire.extend_from_slice(&tail[..tail.len() / 2]);
        let mut buf = FrameBuffer::new();
        buf.extend(&wire);
        for f in &frames {
            assert_eq!(buf.next_frame().unwrap().as_ref(), Some(f));
        }
        assert_eq!(buf.next_frame().unwrap(), None, "partial tail stays");
        assert_eq!(buf.pending(), tail.len() / 2);
    }

    #[test]
    fn frame_buffer_rejects_oversized_and_garbage() {
        let mut buf = FrameBuffer::new();
        buf.extend(&(MAX_FRAME_LEN + 1).to_le_bytes());
        assert_eq!(
            buf.next_frame(),
            Err(WireError::Oversized(MAX_FRAME_LEN + 1))
        );

        let mut buf = FrameBuffer::new();
        let mut bytes = encode_frame(&Frame::Request {
            req_id: 1,
            payload: Payload::Prepare {
                gtx: GlobalTxnId::new(1),
            },
        });
        bytes[4] = 99; // bad version
        buf.extend(&bytes);
        assert_eq!(buf.next_frame(), Err(WireError::BadVersion(99)));
    }

    #[test]
    fn round_trips_coordinator_frames() {
        let frames = [
            Frame::CoordRequest {
                req_id: 1,
                req: CoordRequest::Ping,
            },
            Frame::CoordRequest {
                req_id: 2,
                req: CoordRequest::Describe,
            },
            Frame::CoordRequest {
                req_id: 3,
                req: CoordRequest::Exec {
                    per_site: BTreeMap::from([
                        (
                            SiteId::new(1),
                            vec![Operation::Increment {
                                obj: ObjectId::new(5),
                                delta: -2,
                            }],
                        ),
                        (
                            SiteId::new(2),
                            vec![Operation::Insert {
                                obj: ObjectId::new(9),
                                value: Value::counter(7),
                            }],
                        ),
                    ]),
                },
            },
            Frame::CoordReply {
                req_id: 1,
                reply: CoordReply::Pong,
            },
            Frame::CoordReply {
                req_id: 2,
                reply: CoordReply::Coord {
                    slot: 2,
                    coordinators: 4,
                    epoch: 3,
                    sites: vec![SiteId::new(1), SiteId::new(2), SiteId::new(4)],
                },
            },
            Frame::CoordReply {
                req_id: 3,
                reply: CoordReply::Done {
                    gtx: GlobalTxnId::new(2 * (1 << 40) + 17),
                    outcome: TxnOutcome::Committed,
                    latency_us: 840,
                    messages: 12,
                },
            },
            Frame::CoordReply {
                req_id: 4,
                reply: CoordReply::Done {
                    gtx: GlobalTxnId::new(18),
                    outcome: TxnOutcome::L1Rejected(AbortReason::LockTimeout),
                    latency_us: 3,
                    messages: 0,
                },
            },
        ];
        for frame in frames {
            let bytes = encode_frame(&frame);
            assert_eq!(decode_frame(&bytes).unwrap(), frame, "{frame:?}");
        }
    }

    /// `samples` pairs each variant of `T` with its golden v1 tag. The
    /// codec table must declare exactly those rows, every sample must
    /// lead with its tag, and every sample must round-trip.
    fn assert_table<T: Wire + PartialEq + fmt::Debug>(samples: &[(u8, T)]) {
        let golden: Vec<u8> = samples.iter().map(|(tag, _)| *tag).collect();
        let declared: Vec<u8> = T::ROWS.iter().map(|(tag, _)| *tag).collect();
        assert_eq!(declared, golden, "table rows {:?}", T::ROWS);
        for (tag, value) in samples {
            let bytes = amc_types::codec::encode(value);
            assert_eq!(bytes[0], *tag, "{value:?}");
            assert_eq!(&amc_types::codec::decode::<T>(&bytes).unwrap(), value);
        }
    }

    /// Every variant the codec table declares, against its golden tag. A
    /// variant added to one of these enums without a table row does not
    /// compile; a row added without a sample here fails.
    #[test]
    fn every_table_row_round_trips_under_its_golden_tag() {
        let gtx = GlobalTxnId::new(7);
        let obj = ObjectId::new(3);
        let site = SiteId::new(2);
        let value = Value::counter(11);
        let ops = || vec![Operation::Increment { obj, delta: -5 }];
        let ballot = (1u64 << 32) | 2;
        assert_table(&[
            (0, Operation::Read { obj }),
            (1, Operation::Write { obj, value }),
            (2, Operation::Increment { obj, delta: -5 }),
            (3, Operation::Insert { obj, value }),
            (4, Operation::Delete { obj }),
            (5, Operation::Reserve { obj, amount: 4 }),
        ]);
        assert_table(&[
            (0, LocalVote::Ready),
            (1, LocalVote::ReadyReadOnly),
            (2, LocalVote::Aborted),
        ]);
        assert_table(&[(0, GlobalVerdict::Commit), (1, GlobalVerdict::Abort)]);
        assert_table(&[
            (0, AbortReason::Intended),
            (1, AbortReason::Deadlock),
            (2, AbortReason::LockTimeout),
            (3, AbortReason::ValidationFailed),
            (4, AbortReason::SiteCrash),
            (5, AbortReason::GlobalDecision),
            (6, AbortReason::Injected),
        ]);
        assert_table(&[
            (0, TxnOutcome::Committed),
            (1, TxnOutcome::Aborted),
            (2, TxnOutcome::L1Rejected(AbortReason::Deadlock)),
        ]);
        let verdict = GlobalVerdict::Abort;
        assert_table(&[
            (0, Payload::Submit { gtx, ops: ops() }),
            (1, Payload::Prepare { gtx }),
            (
                2,
                Payload::Vote {
                    gtx,
                    vote: LocalVote::ReadyReadOnly,
                },
            ),
            (3, Payload::Decision { gtx, verdict }),
            (4, Payload::Redo { gtx, ops: ops() }),
            (5, Payload::Undo { gtx, ops: ops() }),
            (6, Payload::Finished { gtx }),
            (
                7,
                Payload::PaxosRegister {
                    gtx,
                    participants: vec![site],
                },
            ),
            (8, Payload::PaxosAck { gtx }),
            (9, Payload::PaxosP1a { gtx, ballot }),
            (
                10,
                Payload::PaxosP1b {
                    gtx,
                    ballot,
                    promised: true,
                    promised_up_to: ballot,
                    participants: vec![site],
                    accepted: vec![(site, 5, false)],
                },
            ),
            (
                11,
                Payload::PaxosP2a {
                    gtx,
                    site,
                    ballot,
                    prepared: true,
                },
            ),
            (
                12,
                Payload::PaxosP2b {
                    gtx,
                    site,
                    ballot,
                    accepted: false,
                },
            ),
            (13, Payload::PaxosDecided { gtx, verdict }),
            (
                14,
                Payload::SubmitPrepare {
                    gtx,
                    ops: ops(),
                    solo: true,
                },
            ),
        ]);
        assert_table(&[
            (0, AdminRequest::Ping),
            (1, AdminRequest::Load(vec![(obj, value)])),
            (2, AdminRequest::Dump),
            (3, AdminRequest::CommStats),
            (4, AdminRequest::LogStats),
            (5, AdminRequest::Recovery),
            (6, AdminRequest::PaxosOpen),
        ]);
        let recovery = RecoveryStats {
            committed: 1,
            rolled_back: 2,
            in_doubt: 3,
            replayed: 4,
            restored_entries: 5,
            torn_tail: true,
        };
        assert_table(&[
            (0, AdminReply::Pong),
            (1, AdminReply::Loaded),
            (2, AdminReply::Dump(BTreeMap::from([(obj, value)]))),
            (
                3,
                AdminReply::CommStats(CommStats {
                    submits: 1,
                    marker_checks: 7,
                    ..CommStats::default()
                }),
            ),
            (
                4,
                AdminReply::LogStats(LogStats {
                    appends: 1,
                    batched_commits: 6,
                    ..LogStats::default()
                }),
            ),
            (5, AdminReply::Recovery(Some(recovery))),
            (
                6,
                AdminReply::PaxosOpen(vec![PaxosOpenEntry {
                    gtx,
                    participants: vec![site],
                }]),
            ),
        ]);
        assert_table(&[
            (0, CoordRequest::Ping),
            (1, CoordRequest::Describe),
            (
                2,
                CoordRequest::Exec {
                    per_site: BTreeMap::from([(site, ops())]),
                },
            ),
        ]);
        assert_table(&[
            (0, CoordReply::Pong),
            (
                1,
                CoordReply::Coord {
                    slot: 2,
                    coordinators: 4,
                    epoch: 3,
                    sites: vec![site],
                },
            ),
            (
                2,
                CoordReply::Done {
                    gtx,
                    outcome: TxnOutcome::Committed,
                    latency_us: 840,
                    messages: 12,
                },
            ),
        ]);
        assert_table(&[
            (0, AmcError::Aborted(AbortReason::Injected)),
            (1, AmcError::NotFound(obj)),
            (2, AmcError::AlreadyExists(obj)),
            (
                3,
                AmcError::InsufficientStock {
                    obj,
                    have: -1,
                    want: 2,
                },
            ),
            (4, AmcError::UnknownTxn),
            (5, AmcError::SiteDown(site)),
            (6, AmcError::Corruption("c".into())),
            (7, AmcError::TransientIo("t".into())),
            (8, AmcError::BufferExhausted),
            (9, AmcError::Protocol("p".into())),
            (10, AmcError::InvalidState("i".into())),
        ]);
        let req_id = 9;
        assert_table(&[
            (
                0,
                Frame::Request {
                    req_id,
                    payload: Payload::Prepare { gtx },
                },
            ),
            (
                1,
                Frame::Reply {
                    req_id,
                    payload: Payload::Finished { gtx },
                },
            ),
            (
                2,
                Frame::AdminRequest {
                    req_id,
                    req: AdminRequest::Ping,
                },
            ),
            (
                3,
                Frame::AdminReply {
                    req_id,
                    reply: AdminReply::Recovery(None),
                },
            ),
            (
                4,
                Frame::ErrorReply {
                    req_id,
                    error: AmcError::UnknownTxn,
                },
            ),
            (
                5,
                Frame::CoordRequest {
                    req_id,
                    req: CoordRequest::Ping,
                },
            ),
            (
                6,
                Frame::CoordReply {
                    req_id,
                    reply: CoordReply::Pong,
                },
            ),
        ]);
    }

    /// The on-disk format is a table of the same codec: its tag bytes are
    /// as fixed as the wire's (a log written by this build must replay
    /// under the next). Rows 7–10 are the co-located acceptor's.
    #[test]
    fn every_disk_table_row_round_trips_under_its_golden_tag() {
        let gtx = GlobalTxnId::new(7);
        let txn = LocalTxnId::new(4);
        let obj = ObjectId::new(3);
        let site = SiteId::new(2);
        let value = Value::counter(11);
        let ballot = Ballot::new(1, 2);
        assert_table(&[
            (1, LogRecord::Begin { txn }),
            (
                2,
                LogRecord::Update {
                    txn,
                    obj,
                    before: None,
                    after: Some(value),
                },
            ),
            (3, LogRecord::Commit { txn }),
            (4, LogRecord::Abort { txn }),
            (5, LogRecord::Checkpoint { active: vec![txn] }),
            (
                6,
                LogRecord::Prepare {
                    txn,
                    gtx: Some(gtx),
                },
            ),
            (
                7,
                LogRecord::Register {
                    gtx,
                    participants: vec![site],
                },
            ),
            (8, LogRecord::Promise { gtx, ballot }),
            (
                9,
                LogRecord::Accept {
                    gtx,
                    site,
                    ballot,
                    prepared: true,
                },
            ),
            (
                10,
                LogRecord::Decision {
                    gtx,
                    verdict: GlobalVerdict::Abort,
                },
            ),
        ]);
    }

    #[test]
    fn hostile_coord_site_count_does_not_allocate() {
        // An Exec declaring u32::MAX site buckets in a tiny frame.
        let mut w = Writer::new();
        w.u8(WIRE_VERSION);
        w.u8(5); // coord request
        1u64.put(&mut w); // req id
        w.u8(2); // exec
        w.u32(u32::MAX); // site bucket count
        assert_eq!(
            decode_frame(&prefixed(w)),
            Err(CodecError::Truncated.into())
        );
    }

    #[test]
    fn hostile_op_count_does_not_allocate() {
        // A Submit declaring u32::MAX ops in a tiny frame must fail with
        // Truncated, not attempt a 4-billion-element Vec.
        let mut w = Writer::new();
        w.u8(WIRE_VERSION);
        w.u8(0); // request
        1u64.put(&mut w); // req id
        w.u8(0); // submit
        1u64.put(&mut w); // gtx
        w.u32(u32::MAX); // op count
        assert_eq!(
            decode_frame(&prefixed(w)),
            Err(CodecError::Truncated.into())
        );
    }
}
