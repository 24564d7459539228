//! The parameterised workload generator.

use crate::program::{initial_counters, object, GlobalProgram};
use amc_sim::SimRng;
use amc_types::{ObjectId, Operation, SiteId, Value};
use std::collections::BTreeMap;

/// Operation mix (fractions must sum to ≤ 1; the remainder becomes reads).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpMix {
    /// Fraction of plain writes (non-commuting).
    pub write: f64,
    /// Fraction of increments (commuting).
    pub increment: f64,
    /// Fraction of escrow reserves (self-commuting, bound-checked).
    pub reserve: f64,
}

impl OpMix {
    /// A balanced mix.
    pub const MIXED: OpMix = OpMix {
        write: 0.2,
        increment: 0.4,
        reserve: 0.0,
    };
}

/// Generator parameters.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Number of local database sites (1-based ids).
    pub sites: u32,
    /// Objects pre-loaded per site.
    pub objects_per_site: u64,
    /// Zipf skew over object indices (0 = uniform, 0.99 = hot).
    pub zipf_theta: f64,
    /// Operations per global transaction (split across sites).
    pub ops_per_txn: usize,
    /// Participating sites per transaction (clamped to `sites`).
    pub sites_per_txn: u32,
    /// Operation mix.
    pub mix: OpMix,
    /// Probability a generated program aborts through its own logic.
    pub intended_abort_prob: f64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            sites: 3,
            objects_per_site: 1000,
            zipf_theta: 0.0,
            ops_per_txn: 6,
            sites_per_txn: 2,
            mix: OpMix::MIXED,
            intended_abort_prob: 0.0,
        }
    }
}

impl WorkloadSpec {
    /// The initial data every site must be loaded with: `objects_per_site`
    /// counters, each starting at 100.
    pub fn initial_data(&self, site: SiteId) -> Vec<(ObjectId, Value)> {
        initial_counters(site, self.objects_per_site)
    }

    /// Initial state across all sites merged (for the equivalence oracle).
    pub fn initial_state(&self) -> BTreeMap<ObjectId, Value> {
        (1..=self.sites)
            .flat_map(|s| self.initial_data(SiteId::new(s)))
            .collect()
    }
}

/// Stateful generator.
#[derive(Debug)]
pub struct WorkloadGen {
    spec: WorkloadSpec,
    rng: SimRng,
}

impl WorkloadGen {
    /// Generator over `spec`, seeded deterministically.
    pub fn new(spec: WorkloadSpec, seed: u64) -> Self {
        WorkloadGen {
            spec,
            rng: SimRng::new(seed),
        }
    }

    /// The spec in use.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Draw a (possibly hot) object index.
    fn draw_index(&mut self) -> u64 {
        self.rng
            .zipf(self.spec.objects_per_site, self.spec.zipf_theta)
    }

    /// Generate the next global transaction program.
    pub fn next_program(&mut self) -> GlobalProgram {
        let fanout = self.spec.sites_per_txn.clamp(1, self.spec.sites);
        // Choose distinct participant sites.
        let mut sites: Vec<SiteId> = Vec::with_capacity(fanout as usize);
        while sites.len() < fanout as usize {
            let s = SiteId::new(1 + self.rng.below(u64::from(self.spec.sites)) as u32);
            if !sites.contains(&s) {
                sites.push(s);
            }
        }
        sites.sort();

        let mut per_site: BTreeMap<SiteId, Vec<Operation>> = BTreeMap::new();
        for i in 0..self.spec.ops_per_txn {
            let site = sites[i % sites.len()];
            let obj = object(site, self.draw_index());
            let roll = self.rng.unit();
            let mix = self.spec.mix;
            let op = if roll < mix.write {
                Operation::Write {
                    obj,
                    value: Value::counter(self.rng.below(1_000_000) as i64),
                }
            } else if roll < mix.write + mix.increment {
                Operation::Increment {
                    obj,
                    delta: 1 + self.rng.below(10) as i64,
                }
            } else if roll < mix.write + mix.increment + mix.reserve {
                Operation::Reserve {
                    obj,
                    amount: 1 + self.rng.below(3),
                }
            } else {
                Operation::Read { obj }
            };
            per_site.entry(site).or_default().push(op);
        }

        let intends_abort = self.rng.chance(self.spec.intended_abort_prob);
        if intends_abort {
            // Transaction logic that must fail: read an object that is
            // never created (index beyond the loaded range).
            let site = sites[0];
            per_site.entry(site).or_default().push(Operation::Read {
                obj: object(site, self.spec.objects_per_site + 1_000_000),
            });
        }
        GlobalProgram {
            per_site,
            intends_abort,
        }
    }

    /// Generate a batch.
    pub fn programs(&mut self, n: usize) -> Vec<GlobalProgram> {
        (0..n).map(|_| self.next_program()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{site_of_object, OBJECTS_PER_SITE_STRIDE};

    #[test]
    fn programs_respect_placement_and_fanout() {
        let mut g = WorkloadGen::new(
            WorkloadSpec {
                sites: 4,
                sites_per_txn: 2,
                ops_per_txn: 8,
                ..WorkloadSpec::default()
            },
            42,
        );
        for _ in 0..100 {
            let p = g.next_program();
            p.check_placement().unwrap();
            assert!(p.sites().len() <= 2);
            assert!(p.op_count() >= 8);
            for s in p.sites() {
                assert!(s.raw() >= 1 && s.raw() <= 4);
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = WorkloadSpec::default();
        let mut a = WorkloadGen::new(spec.clone(), 7);
        let mut b = WorkloadGen::new(spec, 7);
        for _ in 0..50 {
            assert_eq!(a.next_program(), b.next_program());
        }
    }

    #[test]
    fn intended_abort_rate_is_respected() {
        let mut g = WorkloadGen::new(
            WorkloadSpec {
                intended_abort_prob: 0.3,
                ..WorkloadSpec::default()
            },
            11,
        );
        let n = 2000;
        let aborts = g.programs(n).iter().filter(|p| p.intends_abort).count();
        let rate = aborts as f64 / n as f64;
        assert!((0.25..0.35).contains(&rate), "rate {rate}");
    }

    #[test]
    fn abort_programs_touch_a_missing_object() {
        let mut g = WorkloadGen::new(
            WorkloadSpec {
                intended_abort_prob: 1.0,
                ..WorkloadSpec::default()
            },
            3,
        );
        let p = g.next_program();
        assert!(p.intends_abort);
        let missing = p.merged_ops().iter().any(|op| {
            matches!(op, Operation::Read { obj }
                if obj.raw() % crate::program::OBJECTS_PER_SITE_STRIDE >= 1000)
        });
        assert!(missing);
    }

    #[test]
    fn skew_concentrates_accesses() {
        let mut hot = WorkloadGen::new(
            WorkloadSpec {
                zipf_theta: 0.99,
                sites: 1,
                sites_per_txn: 1,
                objects_per_site: 1000,
                ..WorkloadSpec::default()
            },
            5,
        );
        let mut head = 0usize;
        let mut total = 0usize;
        for p in hot.programs(500) {
            for op in p.merged_ops() {
                total += 1;
                if op.object().raw() % OBJECTS_PER_SITE_STRIDE < 20 {
                    head += 1;
                }
            }
        }
        assert!(head * 3 > total, "hot head got {head}/{total} accesses");
        let _ = site_of_object(object(SiteId::new(1), 0));
    }

    #[test]
    fn initial_state_covers_all_sites() {
        let spec = WorkloadSpec {
            sites: 3,
            objects_per_site: 10,
            ..WorkloadSpec::default()
        };
        let state = spec.initial_state();
        assert_eq!(state.len(), 30);
        assert!(state.contains_key(&object(SiteId::new(3), 9)));
    }
}
