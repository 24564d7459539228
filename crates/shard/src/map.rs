//! The versioned shard map: who owns a transaction, where a site's data
//! actually lives.
//!
//! A [`ShardMap`] is an **epoch-stamped topology snapshot** with two
//! independent axes:
//!
//! * **commit ownership** — which of the N coordinators runs a given
//!   global transaction. Ownership is a pure function of the *objects the
//!   transaction touches* ([`ShardMap::owner_of`]): the minimum user
//!   object id is hashed and reduced modulo the coordinator count, so a
//!   cross-shard transaction (keys owned by several shards) still picks
//!   one deterministic owner — the rule of Chockler & Gotsman's multi-shot
//!   commit, collapsed to "lowest key wins". Any router replica computes
//!   the same owner with no coordination.
//!
//! * **data placement** — which *actual* site serves a *nominal* site's
//!   objects. Workload programs address nominal sites (the names baked
//!   into their object ids); after an online `Remove { old, successor }`
//!   reconfiguration the nominal site's objects live on the successor, and
//!   `ShardMap::rehome` rewrites a program's site buckets accordingly.
//!
//! Maps are immutable values: a reconfiguration builds the next epoch with
//! `ShardMap::with_site_added` / `ShardMap::with_site_removed` and the
//! router swaps the `Arc` only after the epoch bump committed on every
//! site. In-flight transactions keep the `Arc` they snapshotted — exactly
//! the old-epoch stragglers the router's drain gate waits out.

use amc_types::{Operation, SiteId};
use std::collections::{BTreeMap, BTreeSet};

/// An online change to the site fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SiteChange {
    /// Bring a fresh site into the fleet. Its engine starts empty; the
    /// reconfiguration provisions it (epoch object + any initial data)
    /// before the epoch bump makes it addressable.
    Add {
        /// The new site.
        site: SiteId,
    },
    /// Retire `old`: every object it serves migrates to `successor` and
    /// programs addressing `old` (nominally) are rehomed there.
    Remove {
        /// The site leaving the fleet.
        old: SiteId,
        /// The member site inheriting its data and nominal identity.
        successor: SiteId,
    },
}

/// One epoch of the sharded topology. See the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    /// Monotone epoch number; epoch 1 is the initial map. Matches the
    /// committed value of the per-site epoch object.
    pub epoch: u64,
    /// Number of coordinator slots transactions are partitioned across.
    pub coordinators: u32,
    /// Nominal→actual relocation entries (identity when absent).
    home: BTreeMap<SiteId, SiteId>,
    /// The actual fleet, ascending.
    sites: BTreeSet<SiteId>,
}

impl ShardMap {
    /// The initial map (epoch 1): every nominal site is its own home.
    pub fn new(coordinators: u32, sites: impl IntoIterator<Item = SiteId>) -> ShardMap {
        assert!(coordinators >= 1, "at least one coordinator");
        ShardMap {
            epoch: 1,
            coordinators,
            home: BTreeMap::new(),
            sites: sites.into_iter().collect(),
        }
    }

    /// The actual fleet, ascending.
    pub fn sites(&self) -> Vec<SiteId> {
        self.sites.iter().copied().collect()
    }

    /// Whether `site` is an actual fleet member in this epoch.
    pub fn is_member(&self, site: SiteId) -> bool {
        self.sites.contains(&site)
    }

    /// The actual site serving `nominal`'s objects in this epoch.
    pub fn actual(&self, nominal: SiteId) -> SiteId {
        self.home.get(&nominal).copied().unwrap_or(nominal)
    }

    /// The coordinator slot owning a transaction, from the objects it
    /// touches: hash of the minimum object id, modulo the coordinator
    /// count. Deterministic and topology-independent — the same program
    /// maps to the same owner in every epoch with the same coordinator
    /// count, on every router replica. Programs touching no object (there
    /// are none in practice) fall to slot 0.
    pub fn owner_of(&self, per_site: &BTreeMap<SiteId, Vec<Operation>>) -> u32 {
        amc_core::owner_slot_of(per_site, self.coordinators)
    }

    /// Rewrite a nominally-addressed program to actual sites, merging
    /// buckets whose nominal sites share a home (ops append in ascending
    /// nominal order, so the result is deterministic).
    pub(crate) fn rehome(
        &self,
        per_site: &BTreeMap<SiteId, Vec<Operation>>,
    ) -> BTreeMap<SiteId, Vec<Operation>> {
        let mut out: BTreeMap<SiteId, Vec<Operation>> = BTreeMap::new();
        for (nominal, ops) in per_site {
            out.entry(self.actual(*nominal))
                .or_default()
                .extend(ops.iter().cloned());
        }
        out
    }

    /// The next epoch after adding `site` to the fleet. The new site is
    /// its own home (a fresh nominal identity).
    pub(crate) fn with_site_added(&self, site: SiteId) -> ShardMap {
        let mut next = self.clone();
        next.epoch += 1;
        next.sites.insert(site);
        next.home.remove(&site);
        next
    }

    /// The next epoch after retiring `old` in favour of `successor`:
    /// `old` leaves the fleet, and every nominal site whose home was
    /// `old` (including `old` itself) is rehomed to `successor`.
    ///
    /// # Panics
    /// When `old` or `successor` is not a member, or they are equal.
    pub(crate) fn with_site_removed(&self, old: SiteId, successor: SiteId) -> ShardMap {
        assert!(self.sites.contains(&old), "removing a non-member site");
        assert!(
            self.sites.contains(&successor),
            "successor must be a member"
        );
        assert_ne!(old, successor, "a site cannot succeed itself");
        let mut next = self.clone();
        next.epoch += 1;
        next.sites.remove(&old);
        // Chain: nominal identities previously served by `old` follow its
        // data to the successor.
        for target in next.home.values_mut() {
            if *target == old {
                *target = successor;
            }
        }
        next.home.insert(old, successor);
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amc_types::{ObjectId, Value};

    fn site(n: u32) -> SiteId {
        SiteId::new(n)
    }

    fn program(objs: &[u64]) -> BTreeMap<SiteId, Vec<Operation>> {
        // One synthetic bucket per object, site = obj as u32 for variety.
        let mut per_site: BTreeMap<SiteId, Vec<Operation>> = BTreeMap::new();
        for &o in objs {
            per_site
                .entry(site((o % 3) as u32 + 1))
                .or_default()
                .push(Operation::Increment {
                    obj: ObjectId::new(o),
                    delta: 1,
                });
        }
        per_site
    }

    #[test]
    fn owner_is_deterministic_and_in_range() {
        let map = ShardMap::new(4, (1..=3).map(site));
        for objs in [&[7u64, 9, 11][..], &[2], &[1000, 5]] {
            let p = program(objs);
            let owner = map.owner_of(&p);
            assert!(owner < 4);
            assert_eq!(owner, map.owner_of(&p), "stable across calls");
        }
    }

    #[test]
    fn owner_follows_the_minimum_object() {
        let map = ShardMap::new(4, (1..=3).map(site));
        // A cross-shard program owns the same slot as the single-object
        // program of its minimum key.
        let solo = program(&[5]);
        let cross = program(&[900, 5, 311]);
        assert_eq!(map.owner_of(&solo), map.owner_of(&cross));
    }

    #[test]
    fn owners_spread_across_slots() {
        let map = ShardMap::new(4, (1..=3).map(site));
        let mut seen = BTreeSet::new();
        for o in 0..64u64 {
            seen.insert(map.owner_of(&program(&[o])));
        }
        assert_eq!(seen.len(), 4, "64 keys should hit all 4 slots");
    }

    #[test]
    fn add_and_remove_step_the_epoch_and_rehome() {
        let map = ShardMap::new(2, (1..=3).map(site));
        assert_eq!(map.epoch, 1);
        assert_eq!(map.actual(site(1)), site(1));

        let grown = map.with_site_added(site(4));
        assert_eq!(grown.epoch, 2);
        assert!(grown.is_member(site(4)));

        let shrunk = grown.with_site_removed(site(1), site(4));
        assert_eq!(shrunk.epoch, 3);
        assert!(!shrunk.is_member(site(1)));
        assert_eq!(shrunk.actual(site(1)), site(4));

        // Chaining: removing the successor moves the chained identity too.
        let chained = shrunk.with_site_removed(site(4), site(2));
        assert_eq!(chained.actual(site(1)), site(2));
        assert_eq!(chained.actual(site(4)), site(2));
    }

    #[test]
    fn rehome_merges_buckets_sharing_a_home() {
        let map = ShardMap::new(2, (1..=3).map(site)).with_site_removed(site(1), site(2));
        let mut per_site = BTreeMap::new();
        per_site.insert(
            site(1),
            vec![Operation::Increment {
                obj: ObjectId::new(10),
                delta: 1,
            }],
        );
        per_site.insert(
            site(2),
            vec![Operation::Insert {
                obj: ObjectId::new(20),
                value: Value::ZERO,
            }],
        );
        let rehomed = map.rehome(&per_site);
        assert_eq!(rehomed.len(), 1);
        assert_eq!(rehomed[&site(2)].len(), 2);
        // Ascending nominal order: site 1's ops precede site 2's.
        assert!(matches!(rehomed[&site(2)][0], Operation::Increment { .. }));
    }
}
