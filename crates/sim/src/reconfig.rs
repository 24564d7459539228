//! Seeded reconfiguration schedules: the nemesis lane for **online
//! topology changes**.
//!
//! The sharded router (`amc-shard`) supports adding, removing and
//! replacing sites mid-workload; the dangerous window is the
//! reconfiguration itself — the drain, the data migration, the epoch
//! bump. This module generates deterministic schedules that strike
//! inside that window: a [`ReconfigPlan`] interleaves topology changes
//! with the workload at transaction-count offsets (the router runs on
//! real threads, so virtual time is the wrong clock — "after N
//! transactions" is the reproducible coordinate), and can couple a
//! change with a site kill timed to land *during* the migration it
//! triggers.
//!
//! Same `(config, seed)` pair, same schedule, forever — the shard
//! reconfiguration regression tests replay plans by seed.
//!
//! The vocabulary deliberately mirrors `amc_shard::SiteChange` without
//! depending on it (`amc-shard` sits above this crate in the dependency
//! order); the test harness translates.

use crate::rng::SimRng;
use amc_types::SiteId;

/// One topology change (plus optional chaos riding on it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconfigStep {
    /// Bring a fresh site into the fleet.
    AddSite {
        /// The new site.
        site: SiteId,
    },
    /// Retire `old`; its data and nominal identity migrate to
    /// `successor`.
    RemoveSite {
        /// The site leaving.
        old: SiteId,
        /// The member inheriting its objects.
        successor: SiteId,
    },
    /// Like [`ReconfigStep::RemoveSite`], with the nemesis marking
    /// `victim` unreachable just before the change is applied and
    /// reviving it after `revive_after_ms` — timed to land inside the
    /// migration window, which must retry around the outage and still
    /// conserve every object.
    RemoveSiteWithKill {
        /// The site leaving.
        old: SiteId,
        /// The member inheriting its objects.
        successor: SiteId,
        /// The fleet member the nemesis takes down.
        victim: SiteId,
        /// Milliseconds until the victim answers again.
        revive_after_ms: u64,
    },
}

/// One scheduled reconfiguration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconfigEvent {
    /// Fire after this many workload transactions have finished.
    pub after_txns: u64,
    /// What changes.
    pub step: ReconfigStep,
}

/// An ordered reconfiguration schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReconfigPlan {
    events: Vec<ReconfigEvent>,
}

impl ReconfigPlan {
    /// No reconfigurations.
    pub fn none() -> Self {
        Self::default()
    }

    /// The schedule, ascending by `after_txns`.
    pub fn events(&self) -> &[ReconfigEvent] {
        &self.events
    }

    /// Number of scheduled changes.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Shape of a generated schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReconfigConfig {
    /// Initial fleet size (sites `1..=sites`).
    pub sites: u32,
    /// Spare site ids available for adds (`sites+1..=sites+spares`).
    pub spares: u32,
    /// Total workload transactions the plan spans.
    pub txns: u64,
    /// Changes to schedule (the generator may produce fewer when the
    /// fleet floor blocks removals).
    pub events: u32,
    /// Probability that a removal carries a nemesis kill.
    pub kill_probability: f64,
}

impl Default for ReconfigConfig {
    fn default() -> Self {
        ReconfigConfig {
            sites: 3,
            spares: 2,
            txns: 200,
            events: 3,
            kill_probability: 0.5,
        }
    }
}

/// Draw a valid reconfiguration schedule from a seed.
///
/// Invariants the generator maintains (so every plan is executable):
/// adds only introduce non-members from the spare pool, removals only
/// fire while the fleet has at least two members, successors and kill
/// victims are always members of the *post-change* fleet, and offsets
/// ascend strictly so two changes never race.
pub fn generate_reconfig(cfg: &ReconfigConfig, seed: u64) -> ReconfigPlan {
    assert!(cfg.sites >= 1, "at least one initial site");
    let mut rng = SimRng::new(seed ^ 0xC0FF_EE00_5EED_0001);
    let mut fleet: Vec<SiteId> = (1..=cfg.sites).map(SiteId::new).collect();
    let mut spares: Vec<SiteId> = (cfg.sites + 1..=cfg.sites + cfg.spares)
        .map(SiteId::new)
        .collect();
    let mut events = Vec::new();
    let mut at = 0u64;
    for _ in 0..cfg.events {
        // Spread offsets across the workload, strictly ascending.
        let span = cfg.txns.max(1) / u64::from(cfg.events.max(1));
        at += 1 + rng.below(span.max(1));
        let can_add = !spares.is_empty();
        let can_remove = fleet.len() >= 2;
        let step = match (can_add, can_remove) {
            (false, false) => break,
            (true, false) => pop_random(&mut rng, &mut spares).map(|site| {
                fleet.push(site);
                ReconfigStep::AddSite { site }
            }),
            (false, true) => Some(remove_step(&mut rng, &mut fleet, cfg.kill_probability)),
            (true, true) => {
                if rng.chance(0.5) {
                    pop_random(&mut rng, &mut spares).map(|site| {
                        fleet.push(site);
                        ReconfigStep::AddSite { site }
                    })
                } else {
                    Some(remove_step(&mut rng, &mut fleet, cfg.kill_probability))
                }
            }
        };
        let Some(step) = step else { break };
        events.push(ReconfigEvent {
            after_txns: at,
            step,
        });
    }
    ReconfigPlan { events }
}

/// Remove a random fleet member in favour of a random survivor,
/// optionally riding a nemesis kill of another survivor.
fn remove_step(rng: &mut SimRng, fleet: &mut Vec<SiteId>, kill_probability: f64) -> ReconfigStep {
    let old = fleet.remove(rng.below(fleet.len() as u64) as usize);
    let successor = fleet[rng.below(fleet.len() as u64) as usize];
    if rng.chance(kill_probability) {
        // The victim must survive the change (it gets revived and must
        // still hold consistent state) — any post-change member works,
        // including the successor: that is the harshest case, since the
        // migration's writes target it.
        let victim = fleet[rng.below(fleet.len() as u64) as usize];
        ReconfigStep::RemoveSiteWithKill {
            old,
            successor,
            victim,
            revive_after_ms: 1 + rng.below(40),
        }
    } else {
        ReconfigStep::RemoveSite { old, successor }
    }
}

fn pop_random(rng: &mut SimRng, pool: &mut Vec<SiteId>) -> Option<SiteId> {
    if pool.is_empty() {
        return None;
    }
    Some(pool.remove(rng.below(pool.len() as u64) as usize))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn same_seed_same_plan() {
        let cfg = ReconfigConfig::default();
        for seed in 0..50 {
            assert_eq!(generate_reconfig(&cfg, seed), generate_reconfig(&cfg, seed));
        }
        assert_ne!(
            generate_reconfig(&cfg, 1),
            generate_reconfig(&cfg, 2),
            "different seeds should (overwhelmingly) differ"
        );
    }

    #[test]
    fn plans_are_executable() {
        // Replay every generated plan against a model fleet and check the
        // generator's invariants hold for many seeds.
        let cfg = ReconfigConfig {
            sites: 3,
            spares: 3,
            txns: 300,
            events: 6,
            kill_probability: 0.7,
        };
        for seed in 0..200 {
            let plan = generate_reconfig(&cfg, seed);
            let mut fleet: BTreeSet<SiteId> = (1..=cfg.sites).map(SiteId::new).collect();
            let mut last_at = 0;
            for ev in plan.events() {
                assert!(ev.after_txns > last_at, "offsets strictly ascend");
                last_at = ev.after_txns;
                match ev.step {
                    ReconfigStep::AddSite { site } => {
                        assert!(fleet.insert(site), "add of a member (seed {seed})");
                    }
                    ReconfigStep::RemoveSite { old, successor } => {
                        assert!(fleet.remove(&old), "remove of a non-member (seed {seed})");
                        assert!(fleet.contains(&successor), "successor left (seed {seed})");
                        assert_ne!(old, successor);
                    }
                    ReconfigStep::RemoveSiteWithKill {
                        old,
                        successor,
                        victim,
                        revive_after_ms,
                    } => {
                        assert!(fleet.remove(&old), "remove of a non-member (seed {seed})");
                        assert!(fleet.contains(&successor), "successor left (seed {seed})");
                        assert!(
                            fleet.contains(&victim),
                            "victim not a survivor (seed {seed})"
                        );
                        assert_ne!(old, successor);
                        assert!(revive_after_ms >= 1);
                    }
                }
                assert!(!fleet.is_empty(), "fleet emptied (seed {seed})");
            }
        }
    }

    #[test]
    fn kill_probability_zero_never_kills() {
        let cfg = ReconfigConfig {
            kill_probability: 0.0,
            events: 8,
            spares: 4,
            ..ReconfigConfig::default()
        };
        for seed in 0..50 {
            for ev in generate_reconfig(&cfg, seed).events() {
                assert!(
                    !matches!(ev.step, ReconfigStep::RemoveSiteWithKill { .. }),
                    "seed {seed}"
                );
            }
        }
    }
}
