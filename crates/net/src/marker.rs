//! Durable commit-propagation markers.
//!
//! §3.2/§3.3 demand that "committing the local transaction and propagating
//! the commit to the redo mechanism must be executed atomically", and offer
//! two implementations: write the log *into the existing database by the
//! local transaction* (an extra relation), or make redo/undo idempotent.
//! We implement the first: every redo-able (or undo) transaction also
//! inserts a **marker object** whose id is derived from the global
//! transaction id. The marker commits atomically with the transaction —
//! it *is* part of the transaction — so after any crash, "has the marker"
//! ⇔ "the transaction committed", and repetitions become exactly-once.
//!
//! Marker ids live in the reserved region ([`ObjectId::RESERVED`]) so they
//! can never collide with workload objects, the verification oracle can
//! filter them out of state comparisons, and the store keeps them as the
//! relation of their own the paper speaks of: direct-mapped by transaction
//! id, one page touch per marker (`amc_storage::store`).

use amc_types::{GlobalTxnId, ObjectId};

/// Second-highest bit distinguishes undo markers from forward markers.
const UNDO_BIT: u64 = 1 << 62;
/// Within the reserved region, this bit marks shard-configuration
/// objects rather than per-transaction markers. Transaction ids stay far
/// below `1 << 61`, so the sub-regions cannot collide.
const EPOCH_BIT: u64 = 1 << 61;

/// The shard-epoch object: one reserved counter per site whose value is
/// the site's current shard-map epoch. An online reconfiguration bumps it
/// on every site of the new fleet **in one global transaction**, so the
/// epoch change commits (or aborts) atomically through the same machinery
/// as any workload transaction.
pub const EPOCH_OBJECT: ObjectId = ObjectId::new(ObjectId::RESERVED | EPOCH_BIT);

/// Marker inserted by a forward (or redone) local transaction of `gtx`.
pub fn forward_marker(gtx: GlobalTxnId) -> ObjectId {
    ObjectId::new(ObjectId::RESERVED | gtx.raw())
}

/// Marker inserted by the inverse (undo) transaction of `gtx`.
pub fn undo_marker(gtx: GlobalTxnId) -> ObjectId {
    ObjectId::new(ObjectId::RESERVED | UNDO_BIT | gtx.raw())
}

/// True for any object in the reserved marker region.
pub fn is_marker(obj: ObjectId) -> bool {
    obj.is_reserved()
}

/// Largest workload object id that avoids the reserved region.
pub const MAX_USER_OBJECT: u64 = (1 << 62) - 1;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markers_are_distinct_and_reserved() {
        let g = GlobalTxnId::new(42);
        let f = forward_marker(g);
        let u = undo_marker(g);
        assert_ne!(f, u);
        assert!(is_marker(f));
        assert!(is_marker(u));
        assert!(!is_marker(ObjectId::new(MAX_USER_OBJECT)));
    }

    #[test]
    fn markers_are_injective_in_gtx() {
        let a = forward_marker(GlobalTxnId::new(1));
        let b = forward_marker(GlobalTxnId::new(2));
        assert_ne!(a, b);
    }

    #[test]
    fn gtx_recoverable_from_marker() {
        let g = GlobalTxnId::new(123_456);
        assert_eq!(forward_marker(g).raw() & MAX_USER_OBJECT, g.raw());
    }
}
