//! Log record types and their checksummed binary encoding.
//!
//! A record travels as one [`crate::durable`] frame whose payload is the
//! row table below: a tag byte, then the fields. `None` before-images
//! mean "object did not exist"; `None` after-images mean "object deleted".
//!
//! Rows 1–6 are the engine's; rows 7–10 are a co-located Paxos Commit
//! acceptor's (`amc-paxos`), which shares the site's log, its group
//! commit and its file. Each side's replay skips the other's rows. Tags
//! are append-only: a row keeps its tag for as long as logs exist.

use crate::durable::{frame, unframe};
use amc_types::{
    codec, AmcResult, Ballot, GlobalTxnId, GlobalVerdict, LocalTxnId, ObjectId, SiteId, Value,
};

/// One write-ahead-log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord {
    /// A local transaction started.
    Begin {
        /// The transaction.
        txn: LocalTxnId,
    },
    /// A state transition of one object: `before -> after`.
    ///
    /// Rollback writes (compensations) are logged as ordinary `Update`s of
    /// the same transaction with the images swapped; forward replay then
    /// reproduces the rollback naturally.
    Update {
        /// The transaction.
        txn: LocalTxnId,
        /// Object touched.
        obj: ObjectId,
        /// Image before the update (`None` = absent).
        before: Option<Value>,
        /// Image after the update (`None` = deleted).
        after: Option<Value>,
    },
    /// 2PC only: the transaction reached the *ready* state; its updates
    /// are durable and it must survive a crash as an in-doubt transaction
    /// awaiting the coordinator's decision (§3.1).
    Prepare {
        /// The transaction.
        txn: LocalTxnId,
        /// The global transaction it is a branch of, when the caller named
        /// one: restart recovery hands the pair back (XA's `xa_recover`),
        /// so the site needs no other record of which local transaction
        /// serves which global one.
        gtx: Option<GlobalTxnId>,
    },
    /// The transaction committed (durability point once forced).
    Commit {
        /// The transaction.
        txn: LocalTxnId,
    },
    /// The transaction aborted after rolling back (its compensating
    /// `Update`s precede this record).
    Abort {
        /// The transaction.
        txn: LocalTxnId,
    },
    /// Fuzzy checkpoint: every update strictly before this record has been
    /// forced to stable page storage; `active` lists transactions in flight.
    Checkpoint {
        /// Transactions active at checkpoint time.
        active: Vec<LocalTxnId>,
    },
    /// Acceptor: `gtx` entered commit processing with these participants,
    /// one Paxos instance each.
    Register {
        /// The global transaction.
        gtx: GlobalTxnId,
        /// Participant sites.
        participants: Vec<SiteId>,
    },
    /// Acceptor: promised `ballot` for all of `gtx`'s instances.
    Promise {
        /// The global transaction.
        gtx: GlobalTxnId,
        /// The promised ballot.
        ballot: Ballot,
    },
    /// Acceptor: accepted `prepared` for instance `site` at `ballot`.
    Accept {
        /// The global transaction.
        gtx: GlobalTxnId,
        /// The instance.
        site: SiteId,
        /// The ballot of the accepted value.
        ballot: Ballot,
        /// The value: true = Prepared, false = Aborted.
        prepared: bool,
    },
    /// Acceptor: the global decision reached `gtx`; its instances are
    /// closed.
    Decision {
        /// The global transaction.
        gtx: GlobalTxnId,
        /// The verdict.
        verdict: GlobalVerdict,
    },
}

impl LogRecord {
    /// The local transaction a record belongs to, if any (none for a
    /// checkpoint or an acceptor row).
    pub fn txn(&self) -> Option<LocalTxnId> {
        match self {
            LogRecord::Begin { txn }
            | LogRecord::Update { txn, .. }
            | LogRecord::Prepare { txn, .. }
            | LogRecord::Commit { txn }
            | LogRecord::Abort { txn } => Some(*txn),
            LogRecord::Checkpoint { .. }
            | LogRecord::Register { .. }
            | LogRecord::Promise { .. }
            | LogRecord::Accept { .. }
            | LogRecord::Decision { .. } => None,
        }
    }

    /// Encode into a checksummed frame.
    #[inline]
    pub fn encode(&self) -> Vec<u8> {
        frame(self)
    }

    /// Decode one frame, verifying length and checksum.
    pub fn decode(frame: &[u8]) -> AmcResult<Self> {
        Ok(codec::decode(unframe(frame)?)?)
    }
}

amc_types::wire_enum!(LogRecord, "log-record" {
    1 => Begin { txn: LocalTxnId },
    2 => Update { txn: LocalTxnId, obj: ObjectId, before: Option<Value>, after: Option<Value> },
    3 => Commit { txn: LocalTxnId },
    4 => Abort { txn: LocalTxnId },
    5 => Checkpoint { active: Vec<LocalTxnId> },
    6 => Prepare { txn: LocalTxnId, gtx: Option<GlobalTxnId> },
    7 => Register { gtx: GlobalTxnId, participants: Vec<SiteId> },
    8 => Promise { gtx: GlobalTxnId, ballot: Ballot },
    9 => Accept { gtx: GlobalTxnId, site: SiteId, ballot: Ballot, prepared: bool },
    10 => Decision { gtx: GlobalTxnId, verdict: GlobalVerdict },
});

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ltx(n: u64) -> LocalTxnId {
        LocalTxnId::new(n)
    }

    #[test]
    fn roundtrip_all_variants() {
        let records = vec![
            LogRecord::Begin { txn: ltx(1) },
            LogRecord::Update {
                txn: ltx(1),
                obj: ObjectId::new(9),
                before: None,
                after: Some(Value::counter(5)),
            },
            LogRecord::Update {
                txn: ltx(1),
                obj: ObjectId::new(9),
                before: Some(Value::counter(5)),
                after: None,
            },
            LogRecord::Prepare {
                txn: ltx(1),
                gtx: None,
            },
            LogRecord::Prepare {
                txn: ltx(1),
                gtx: Some(GlobalTxnId::new(7)),
            },
            LogRecord::Commit { txn: ltx(1) },
            LogRecord::Abort { txn: ltx(2) },
            LogRecord::Checkpoint { active: vec![] },
            LogRecord::Checkpoint {
                active: vec![ltx(3), ltx(4), ltx(5)],
            },
            LogRecord::Register {
                gtx: GlobalTxnId::new(9),
                participants: vec![SiteId::new(1), SiteId::new(2), SiteId::new(3)],
            },
            LogRecord::Promise {
                gtx: GlobalTxnId::new(9),
                ballot: Ballot::new(1, 2),
            },
            LogRecord::Accept {
                gtx: GlobalTxnId::new(9),
                site: SiteId::new(2),
                ballot: Ballot::ZERO,
                prepared: true,
            },
            LogRecord::Decision {
                gtx: GlobalTxnId::new(9),
                verdict: GlobalVerdict::Abort,
            },
        ];
        for r in records {
            assert_eq!(LogRecord::decode(&r.encode()).unwrap(), r, "{r:?}");
        }
    }

    #[test]
    fn corrupted_frames_are_rejected() {
        let r = LogRecord::Commit { txn: ltx(7) };
        let mut frame = r.encode();
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        assert!(LogRecord::decode(&frame).is_err());
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let r = LogRecord::Begin { txn: ltx(7) };
        let frame = r.encode();
        assert!(LogRecord::decode(&frame[..frame.len() - 1]).is_err());
        assert!(LogRecord::decode(&[]).is_err());
    }

    /// FNV-1a is a checksum, not a MAC: a frame can be checksum-valid and
    /// still claim any count. The claim must be rejected before a vector
    /// is sized from it.
    #[test]
    fn checksum_valid_checkpoint_claiming_u32_max_actives_is_corruption() {
        // Checkpoint tag, active count, one transaction id.
        let frame = frame(&(5u8, u32::MAX, 0u64));
        assert!(matches!(
            LogRecord::decode(&frame),
            Err(amc_types::AmcError::Corruption(_))
        ));
    }

    /// The same guard for an acceptor's `Register`: a checksum-valid
    /// frame claiming `u32::MAX` participants sizes no vector.
    #[test]
    fn checksum_valid_register_claiming_u32_max_participants_is_corruption() {
        // Register tag, gtx, participant count, one site.
        let frame = frame(&(7u8, 7u64, (u32::MAX, 1u32)));
        assert!(matches!(
            LogRecord::decode(&frame),
            Err(amc_types::AmcError::Corruption(_))
        ));
    }

    /// A `Prepare` record is its tag and transaction, then the global
    /// transaction as an optional: a presence byte, then its `u64`.
    #[test]
    fn prepare_record_layout_is_the_txn_then_the_optional_gtx() {
        let unnamed = LogRecord::Prepare {
            txn: ltx(7),
            gtx: None,
        };
        assert_eq!(unnamed.encode(), frame(&(6u8, 7u64, 0u8)));
        let named = LogRecord::Prepare {
            txn: ltx(7),
            gtx: Some(GlobalTxnId::new(9)),
        };
        assert_eq!(named.encode(), frame(&(6u8, 7u64, (1u8, 9u64))));
        // A record cut off inside the name is corruption, not an unnamed one.
        let cut = frame(&(6u8, 7u64, (1u8, 9u32)));
        assert!(LogRecord::decode(&cut).is_err());
    }

    #[test]
    fn txn_accessor() {
        assert_eq!(LogRecord::Begin { txn: ltx(3) }.txn(), Some(ltx(3)));
        assert_eq!(LogRecord::Checkpoint { active: vec![] }.txn(), None);
    }

    proptest! {
        #[test]
        fn roundtrip_random_updates(
            txn in any::<u64>(),
            obj in any::<u64>(),
            before in proptest::option::of((any::<i64>(), any::<u32>())),
            after in proptest::option::of((any::<i64>(), any::<u32>())),
        ) {
            let r = LogRecord::Update {
                txn: ltx(txn),
                obj: ObjectId::new(obj),
                before: before.map(|(c, t)| Value::tagged(c, t)),
                after: after.map(|(c, t)| Value::tagged(c, t)),
            };
            prop_assert_eq!(LogRecord::decode(&r.encode()).unwrap(), r);
        }

        #[test]
        fn roundtrip_random_checkpoints(active in proptest::collection::vec(any::<u64>(), 0..50)) {
            let r = LogRecord::Checkpoint {
                active: active.into_iter().map(ltx).collect(),
            };
            prop_assert_eq!(LogRecord::decode(&r.encode()).unwrap(), r);
        }
    }
}
