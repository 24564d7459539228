//! Durable work journal for the communication manager.
//!
//! §2 allows the components layered on top of the unmodifiable engines to
//! keep "recovery state of their own"; this module is that state made
//! explicit. The manager's `gtx → Work` map is exactly what a restarted
//! site needs to answer a coordinator's final-state inquiry:
//!
//! * **2PC** needs the `gtx ↔ ltx` mapping so a retransmitted decision can
//!   be matched against the in-doubt transaction the engine resurrected
//!   from its WAL;
//! * **commit-before** (§3.3) needs the captured *inverse operations*
//!   persisted **before** the local commit — a global abort arriving after
//!   a crash must still be able to run the inverse transaction;
//! * **commit-after** (§3.2) needs nothing: the coordinator re-ships the
//!   program in its `Redo` message and the markers make re-execution
//!   exactly-once.
//!
//! A [`WorkEntry`] is the serializable mirror of one work-map record. The
//! journal is append-only with last-record-per-`gtx` wins, so updating an
//! entry is just appending it again; `amc-rpc` stores entries in an
//! `amc_wal::RecordFile`, the same checksummed frame file as the WAL.

use amc_types::{codec, AmcResult, GlobalTxnId, LocalTxnId, LocalVote, Operation};

use crate::comm::SubmitMode;

/// One persisted work-map record: everything the manager must remember
/// about a global transaction across a crash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkEntry {
    /// The global transaction this entry belongs to.
    pub gtx: GlobalTxnId,
    /// Protocol flavour the submit ran under.
    pub mode: SubmitMode,
    /// The local transaction executing it (None for tombstones).
    pub ltx: Option<LocalTxnId>,
    /// Commit-before: the forward transaction committed locally. Across a
    /// restart this field is advisory only — the marker is authoritative.
    pub committed_locally: bool,
    /// The vote reported to the coordinator (None until voted).
    pub vote: Option<LocalVote>,
    /// The decomposed operations (empty for tombstones).
    pub ops: Vec<Operation>,
    /// Commit-before: inverse actions in forward order (§3.3 undo-log).
    pub inverse_ops: Vec<Operation>,
}

amc_types::wire_struct!(WorkEntry {
    gtx: GlobalTxnId,
    mode: SubmitMode,
    ltx: Option<LocalTxnId>,
    committed_locally: bool,
    vote: Option<LocalVote>,
    ops: Vec<Operation>,
    inverse_ops: Vec<Operation>,
});

impl WorkEntry {
    /// Serialize to the journal's binary layout (pre-framing payload).
    pub fn encode(&self) -> Vec<u8> {
        codec::encode(self)
    }

    /// Decode an entry previously produced by [`WorkEntry::encode`].
    pub fn decode(buf: &[u8]) -> AmcResult<WorkEntry> {
        Ok(codec::decode(buf)?)
    }
}

/// A sink that persists [`WorkEntry`] records as they change.
///
/// The manager calls [`WorkJournal::record`] at every point where losing
/// the in-memory work map would lose protocol obligations: after a submit
/// completes (all modes), **before** the commit-before local commit (so
/// the inverse operations are stable first), and when a tombstone is laid
/// down. Implementations must be crash-consistent: a record call returns
/// only once the entry is durable.
pub trait WorkJournal: Send + Sync {
    /// Persist `entry`, superseding any earlier record for the same `gtx`.
    fn record(&self, entry: &WorkEntry);
}

/// Summary of one site-recovery pass, reported over the admin channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Local transactions whose commit record was replayed from the WAL.
    pub committed: u64,
    /// Loser transactions rolled back during restart (undo pass).
    pub rolled_back: u64,
    /// Prepared transactions resurrected in doubt, awaiting the
    /// coordinator's final state (§3.1's blocking window).
    pub in_doubt: u64,
    /// WAL records replayed (redo + undo applications).
    pub replayed: u64,
    /// Work-map entries restored from the work journal.
    pub restored_entries: u64,
    /// Whether a torn tail was truncated from the WAL at open.
    pub torn_tail: bool,
}

amc_types::wire_struct!(RecoveryStats {
    committed: u64,
    rolled_back: u64,
    in_doubt: u64,
    replayed: u64,
    restored_entries: u64,
    torn_tail: bool,
});

#[cfg(test)]
mod tests {
    use super::*;
    use amc_types::{AmcError, ObjectId, Value};

    fn entry() -> WorkEntry {
        WorkEntry {
            gtx: GlobalTxnId::new(42),
            mode: SubmitMode::CommitBefore,
            ltx: Some(LocalTxnId::new(7)),
            committed_locally: true,
            vote: Some(LocalVote::Ready),
            ops: vec![
                Operation::Increment {
                    obj: ObjectId::new(1),
                    delta: -5,
                },
                Operation::Write {
                    obj: ObjectId::new(2),
                    value: Value::tagged(9, 3),
                },
                Operation::Reserve {
                    obj: ObjectId::new(3),
                    amount: 2,
                },
            ],
            inverse_ops: vec![Operation::Increment {
                obj: ObjectId::new(1),
                delta: 5,
            }],
        }
    }

    #[test]
    fn roundtrip_full_entry() {
        let e = entry();
        assert_eq!(WorkEntry::decode(&e.encode()).unwrap(), e);
    }

    #[test]
    fn roundtrip_tombstone_shape() {
        let e = WorkEntry {
            gtx: GlobalTxnId::new(1),
            mode: SubmitMode::TwoPhase,
            ltx: None,
            committed_locally: false,
            vote: Some(LocalVote::Aborted),
            ops: Vec::new(),
            inverse_ops: Vec::new(),
        };
        assert_eq!(WorkEntry::decode(&e.encode()).unwrap(), e);
    }

    #[test]
    fn roundtrip_every_operation_kind() {
        let obj = ObjectId::new(9);
        for op in [
            Operation::Read { obj },
            Operation::Write {
                obj,
                value: Value::counter(-1),
            },
            Operation::Increment {
                obj,
                delta: i64::MIN,
            },
            Operation::Insert {
                obj,
                value: Value::ZERO,
            },
            Operation::Delete { obj },
            Operation::Reserve {
                obj,
                amount: u64::MAX,
            },
        ] {
            let e = WorkEntry {
                ops: vec![op],
                ..entry()
            };
            assert_eq!(WorkEntry::decode(&e.encode()).unwrap(), e);
        }
    }

    #[test]
    fn truncated_entry_is_corruption() {
        let bytes = entry().encode();
        for cut in [0, 5, 12, bytes.len() - 1] {
            assert!(matches!(
                WorkEntry::decode(&bytes[..cut]),
                Err(AmcError::Corruption(_))
            ));
        }
    }

    #[test]
    fn trailing_bytes_are_corruption() {
        let mut bytes = entry().encode();
        bytes.push(0);
        assert!(matches!(
            WorkEntry::decode(&bytes),
            Err(AmcError::Corruption(_))
        ));
    }

    #[test]
    fn unknown_tags_are_corruption() {
        let mut bytes = entry().encode();
        bytes[8] = 9; // mode byte
        assert!(matches!(
            WorkEntry::decode(&bytes),
            Err(AmcError::Corruption(_))
        ));
    }
}
