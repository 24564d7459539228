//! Newtype identifiers used across the federation.
//!
//! Each id is a transparent wrapper over an unsigned integer with `Display`,
//! ordering and hashing. The `raw` accessor is provided for indexing into
//! dense arrays; arithmetic between different id spaces is intentionally
//! impossible.

use serde::{Deserialize, Serialize};
use std::fmt;

macro_rules! define_id {
    ($(#[$doc:meta])* $name:ident, $inner:ty, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        #[serde(transparent)]
        pub struct $name(pub $inner);

        impl $name {
            /// Construct from the raw integer.
            #[inline]
            pub const fn new(raw: $inner) -> Self {
                Self(raw)
            }

            /// The raw integer, e.g. for indexing dense per-id tables.
            #[inline]
            pub const fn raw(self) -> $inner {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$inner> for $name {
            fn from(raw: $inner) -> Self {
                Self(raw)
            }
        }
    };
}

define_id!(
    /// A participating site. Site `0` is conventionally the central system
    /// (Fig. 1 of the paper); local database systems are `1..=n`.
    SiteId,
    u32,
    "site-"
);

define_id!(
    /// A global (level L1) transaction, issued by the central system.
    GlobalTxnId,
    u64,
    "G"
);

define_id!(
    /// A local (level L0) transaction, executed by one existing database
    /// system. Every execution attempt gets a fresh id: a *repetition*
    /// (commit-after redo) or an *inverse transaction* (commit-before undo)
    /// is a new `LocalTxnId` in the same [`GlobalTxnId`].
    LocalTxnId,
    u64,
    "L"
);

define_id!(
    /// A logical database object (the unit of L1 conflict detection, e.g.
    /// a counter `x` in Fig. 8). Objects map many-to-one onto pages.
    ObjectId,
    u64,
    "obj-"
);

define_id!(
    /// A storage page (the unit of L0 physical access and buffering).
    PageId,
    u32,
    "page-"
);

define_id!(
    /// Log sequence number within one site's write-ahead log.
    Lsn,
    u64,
    "lsn-"
);

impl Lsn {
    /// The LSN before any record has been written.
    pub const ZERO: Lsn = Lsn(0);

    /// The next LSN in sequence.
    #[inline]
    pub const fn next(self) -> Lsn {
        Lsn(self.0 + 1)
    }
}

impl ObjectId {
    /// Ids with this bit set are the *reserved region*: the protocol's own
    /// objects (`amc_net::marker`), never a workload's. The store keeps
    /// them in a relation of their own, so the bit is defined here, once.
    pub const RESERVED: u64 = 1 << 63;

    /// True for an id in the reserved region.
    #[inline]
    pub const fn is_reserved(self) -> bool {
        self.0 & Self::RESERVED != 0
    }
}

impl SiteId {
    /// The central (global) system's site id.
    pub const CENTRAL: SiteId = SiteId(0);

    /// True for the central coordinator site.
    #[inline]
    pub const fn is_central(self) -> bool {
        self.0 == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_display_with_prefix() {
        assert_eq!(SiteId::new(3).to_string(), "site-3");
        assert_eq!(GlobalTxnId::new(7).to_string(), "G7");
        assert_eq!(LocalTxnId::new(9).to_string(), "L9");
        assert_eq!(ObjectId::new(1).to_string(), "obj-1");
        assert_eq!(PageId::new(2).to_string(), "page-2");
        assert_eq!(Lsn::new(4).to_string(), "lsn-4");
    }

    #[test]
    fn ids_roundtrip_raw() {
        assert_eq!(SiteId::from(5).raw(), 5);
        assert_eq!(GlobalTxnId::from(12).raw(), 12);
    }

    #[test]
    fn ids_order_and_hash() {
        assert!(Lsn::new(1) < Lsn::new(2));
        let set: HashSet<ObjectId> = [ObjectId::new(1), ObjectId::new(1), ObjectId::new(2)]
            .into_iter()
            .collect();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn lsn_next_is_monotone() {
        let l = Lsn::ZERO;
        assert_eq!(l.next(), Lsn::new(1));
        assert_eq!(l.next().next(), Lsn::new(2));
    }

    #[test]
    fn the_reserved_region_is_the_top_bit() {
        assert!(!ObjectId::new((1 << 63) - 1).is_reserved());
        assert!(ObjectId::new(ObjectId::RESERVED).is_reserved());
        assert!(ObjectId::new(u64::MAX).is_reserved());
    }

    #[test]
    fn central_site_is_zero() {
        assert!(SiteId::CENTRAL.is_central());
        assert!(!SiteId::new(1).is_central());
    }
}
