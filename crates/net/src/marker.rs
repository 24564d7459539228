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

/// Both sub-region bits at once: no undo marker or epoch object has them
/// (transaction ids stay below `1 << 61`), so they mark before-image rows.
const IMAGE_BITS: u64 = UNDO_BIT | EPOCH_BIT;
/// Where the operation's index starts within a before-image row id; the
/// transaction id sits below it, so one index across consecutive
/// transactions packs into one window page, like their markers.
const IMAGE_INDEX_SHIFT: u32 = 49;

/// The row holding the before image of operation `index` of `gtx`'s
/// forward program at this site: commit-before writes it in the forward
/// local transaction, so the inverse program survives whatever survives the
/// commit (§3.3's undo-log, "written into the existing database by the
/// local transaction"). `None` past the id space: transaction ids from
/// `1 << 49` on, or operations from the 4 096th on.
pub(crate) fn before_image(gtx: GlobalTxnId, index: usize) -> Option<ObjectId> {
    let index = u64::try_from(index).ok().filter(|i| *i < 1 << 12)?;
    let row = ObjectId::RESERVED | IMAGE_BITS | index << IMAGE_INDEX_SHIFT | gtx.raw();
    (gtx.raw() < 1 << IMAGE_INDEX_SHIFT).then_some(ObjectId::new(row))
}

/// The transaction whose forward marker `obj` is, if it is one.
pub(crate) fn forward_gtx(obj: ObjectId) -> Option<GlobalTxnId> {
    let raw = obj.raw() & !ObjectId::RESERVED;
    let forward = obj.is_reserved() && raw & (UNDO_BIT | EPOCH_BIT) == 0;
    forward.then(|| GlobalTxnId::new(raw))
}

/// True for any object in the reserved marker region.
pub fn is_marker(obj: ObjectId) -> bool {
    obj.is_reserved()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Largest workload object id that avoids the reserved region.
    const MAX_USER_OBJECT: u64 = (1 << 62) - 1;

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
    fn before_image_rows_are_their_own_sub_region() {
        let g = GlobalTxnId::new(42);
        let row = |g, i| before_image(g, i).expect("in range");
        let rows = [row(g, 0), row(g, 1)];
        let next = row(GlobalTxnId::new(43), 0);
        assert!(rows.iter().chain([&next]).all(|r| is_marker(*r)));
        assert_ne!(rows[0], rows[1]);
        assert_eq!(next.raw() - rows[0].raw(), 1, "consecutive gtxs pack");
        for other in [forward_marker(g), undo_marker(g), EPOCH_OBJECT] {
            assert!(!rows.contains(&other) && next != other);
        }
        assert_eq!(before_image(g, 4_096), None);
        assert_eq!(before_image(GlobalTxnId::new(1 << 49), 0), None);
        assert_eq!(forward_gtx(forward_marker(g)), Some(g));
        for not_forward in [undo_marker(g), EPOCH_OBJECT, rows[1], ObjectId::new(42)] {
            assert_eq!(forward_gtx(not_forward), None, "{not_forward}");
        }
    }

    /// `forward_gtx` inverts `forward_marker` across the transaction id
    /// space, and the last before-image row (highest index, highest
    /// transaction) is still not taken for one.
    #[test]
    fn forward_gtx_inverts_forward_marker_at_the_edges_of_the_id_space() {
        for raw in [0, 1, (1 << 49) - 1, 1 << 49, (1 << 61) - 1] {
            let g = GlobalTxnId::new(raw);
            assert_eq!(forward_gtx(forward_marker(g)), Some(g), "{raw}");
            assert_eq!(forward_gtx(undo_marker(g)), None, "{raw}");
        }
        let last = before_image(GlobalTxnId::new((1 << 49) - 1), 4_095).expect("in range");
        assert!(is_marker(last));
        assert_eq!(forward_gtx(last), None);
        assert_ne!(last, undo_marker(GlobalTxnId::new((1 << 61) - 1)));
        assert_eq!(forward_gtx(ObjectId::new(MAX_USER_OBJECT)), None);
    }

    #[test]
    fn gtx_recoverable_from_marker() {
        let g = GlobalTxnId::new(123_456);
        assert_eq!(forward_marker(g).raw() & MAX_USER_OBJECT, g.raw());
    }
}
