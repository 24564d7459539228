//! Global transaction programs and the object ↔ site naming scheme.
//!
//! Objects are partitioned across the local databases (each object lives at
//! exactly one site, §2's decomposition): object ids are
//! `site * STRIDE + index`, so both directions of the mapping are O(1) and
//! collision-free, and everything stays far below the reserved marker
//! region.

use amc_types::{ObjectId, Operation, SiteId, Value};
use std::collections::BTreeMap;

/// Id stride per site — supports up to this many objects per site.
pub(crate) const OBJECTS_PER_SITE_STRIDE: u64 = 1 << 32;

/// The object with `index` at `site` (sites are 1-based; 0 is the central
/// system which stores no workload data).
pub fn object(site: SiteId, index: u64) -> ObjectId {
    assert!(
        !site.is_central(),
        "central system stores no workload objects"
    );
    assert!(index < OBJECTS_PER_SITE_STRIDE);
    ObjectId::new(u64::from(site.raw()) * OBJECTS_PER_SITE_STRIDE + index)
}

/// The site an object lives at.
pub fn site_of_object(obj: ObjectId) -> SiteId {
    SiteId::new((obj.raw() / OBJECTS_PER_SITE_STRIDE) as u32)
}

/// Every pre-loaded counter starts at this value.
pub const INITIAL_PER_OBJECT: i64 = 100;

/// The initial data of one site: its first `objects` objects, each a
/// counter at [`INITIAL_PER_OBJECT`].
pub fn initial_counters(site: SiteId, objects: u64) -> Vec<(ObjectId, Value)> {
    (0..objects)
        .map(|i| (object(site, i), Value::counter(INITIAL_PER_OBJECT)))
        .collect()
}

/// A balanced transfer: `-amount` on `from`, `+amount` on `to`, each
/// filed under the site its object lives at (one bucket when both share a
/// site), so the federation-wide counter sum is invariant.
pub fn transfer(from: ObjectId, to: ObjectId, amount: i64) -> BTreeMap<SiteId, Vec<Operation>> {
    let mut per_site: BTreeMap<SiteId, Vec<Operation>> = BTreeMap::new();
    for (obj, delta) in [(from, -amount), (to, amount)] {
        per_site
            .entry(site_of_object(obj))
            .or_default()
            .push(Operation::Increment { obj, delta });
    }
    per_site
}

/// One global transaction, decomposed by site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalProgram {
    /// The per-site local programs, in submit order.
    pub per_site: BTreeMap<SiteId, Vec<Operation>>,
    /// True when the program is built to abort through its own logic (a
    /// read of a non-existent object at one site).
    pub intends_abort: bool,
}

impl GlobalProgram {
    /// New program from per-site operation lists.
    pub fn new(per_site: BTreeMap<SiteId, Vec<Operation>>) -> Self {
        GlobalProgram {
            per_site,
            intends_abort: false,
        }
    }

    /// The participating sites, ascending.
    pub fn sites(&self) -> Vec<SiteId> {
        self.per_site.keys().copied().collect()
    }

    /// Total operation count.
    pub fn op_count(&self) -> usize {
        self.per_site.values().map(Vec::len).sum()
    }

    /// Sanity: every operation is addressed to the site it is filed under.
    pub fn check_placement(&self) -> Result<(), String> {
        for (site, ops) in &self.per_site {
            for op in ops {
                let home = site_of_object(op.object());
                if home != *site {
                    return Err(format!("op {op} on {} filed under {site}", home));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
impl GlobalProgram {
    /// All operations merged in site order (the canonical replay program
    /// for the equivalence oracle).
    pub(crate) fn merged_ops(&self) -> Vec<Operation> {
        self.per_site.values().flatten().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_site_roundtrip() {
        for s in 1..=5u32 {
            for i in [0u64, 1, 1000, OBJECTS_PER_SITE_STRIDE - 1] {
                let o = object(SiteId::new(s), i);
                assert_eq!(site_of_object(o), SiteId::new(s));
            }
        }
    }

    #[test]
    #[should_panic(expected = "central")]
    fn central_site_has_no_objects() {
        object(SiteId::CENTRAL, 0);
    }

    #[test]
    fn object_ids_stay_below_marker_region() {
        let o = object(SiteId::new(1000), OBJECTS_PER_SITE_STRIDE - 1);
        assert!(o.raw() < (1 << 62));
    }

    #[test]
    fn transfers_are_balanced_and_filed_at_their_objects_sites() {
        let (s1, s2) = (SiteId::new(1), SiteId::new(2));
        let cross = GlobalProgram::new(transfer(object(s2, 7), object(s1, 3), 5));
        cross.check_placement().unwrap();
        assert_eq!(cross.sites(), vec![s1, s2]);
        let local = transfer(object(s1, 0), object(s1, 1), 2);
        assert_eq!(local[&s1].len(), 2, "one bucket when both share a site");
        for p in [cross.per_site, local] {
            let sum: i64 = p
                .values()
                .flatten()
                .map(|op| match op {
                    Operation::Increment { delta, .. } => *delta,
                    other => panic!("transfers are increments only: {other}"),
                })
                .sum();
            assert_eq!(sum, 0);
        }
    }

    #[test]
    fn placement_check_catches_misfiled_ops() {
        let s1 = SiteId::new(1);
        let s2 = SiteId::new(2);
        let mut per_site = BTreeMap::new();
        per_site.insert(
            s1,
            vec![Operation::Read {
                obj: object(s2, 0), // wrong site!
            }],
        );
        let p = GlobalProgram::new(per_site);
        assert!(p.check_placement().is_err());
    }

    #[test]
    fn merged_ops_and_counts() {
        let s1 = SiteId::new(1);
        let s2 = SiteId::new(2);
        let mut per_site = BTreeMap::new();
        per_site.insert(s1, vec![Operation::Read { obj: object(s1, 0) }]);
        per_site.insert(
            s2,
            vec![Operation::Write {
                obj: object(s2, 1),
                value: Value::ZERO,
            }],
        );
        let p = GlobalProgram::new(per_site);
        assert_eq!(p.op_count(), 2);
        assert_eq!(p.sites(), vec![s1, s2]);
        assert_eq!(p.merged_ops().len(), 2);
        p.check_placement().unwrap();
    }
}
