//! # amc-workload
//!
//! Synthetic workloads exercising the federation the way the paper's
//! motivating scenarios would: global transactions decomposed into per-site
//! local programs, with tunable contention (Zipf skew over a hot set),
//! operation mix (commuting increments vs. non-commuting writes), fan-out
//! (sites per transaction) and an intended-abort rate realised *through
//! transaction logic* (a read of a non-existent object), so intended aborts
//! travel the same code path real ones would.
//!
//! One seeded generator, [`MixGen`], produces every program stream — for
//! the experiments, the examples, `amc-loadgen` and the benchmark — one
//! [`MixKind`] per transaction shape ([`mixes`]): seeded Zipfian keys
//! (`amc_sim::SimRng::zipf`) feeding balanced transfers (§1's inter-bank
//! scenario), a generic read/increment/write mix, hot-key commuting
//! counters, a TPC-C-style `NewOrder` profile with escrow reserves (§1's
//! order processing), and read-heavy scans with short writers. The same
//! streams drive the DES path, the threaded runtime, and `amc-loadgen` over
//! TCP (determinism contract: DESIGN.md §14; regime map: OPERATORS.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mixes;
pub mod program;

pub use mixes::{fingerprint, MixGen, MixKind, MixSpec};
pub use program::{
    initial_counters, object, site_of_object, transfer, GlobalProgram, INITIAL_PER_OBJECT,
};

#[cfg(test)]
mod generator {
    //! [`MixGen`] held to what an experiment lane needs of its program
    //! generator: a replayable stream, the spec's fan-out and sites, and
    //! the spec's intended-abort rate. E2, E3 and E6 draw
    //! [`MixKind::Zipf`]; E1, E7, E9 and E10 draw [`MixKind::HotKey`].
    mod tests {
        use crate::{MixGen, MixKind, MixSpec};

        #[test]
        fn programs_respect_placement_and_fanout() {
            let spec = MixSpec {
                sites: 4,
                max_fanout: 2,
                ..MixSpec::default()
            };
            for kind in MixKind::ALL {
                let mut g = MixGen::new(kind, spec.clone(), 42);
                for p in g.programs(100) {
                    p.check_placement().unwrap();
                    assert!(
                        p.sites().len() <= 2,
                        "{kind:?} fanned out to {:?}",
                        p.sites()
                    );
                    for s in p.sites() {
                        assert!((1..=4).contains(&s.raw()), "{kind:?} used {s:?}");
                    }
                }
            }
        }

        #[test]
        fn generation_is_deterministic() {
            for kind in MixKind::ALL {
                let mut a = MixGen::new(kind, MixSpec::default(), 7);
                let mut b = MixGen::new(kind, MixSpec::default(), 7);
                for _ in 0..50 {
                    assert_eq!(a.next_program(), b.next_program(), "{kind:?}");
                }
            }
        }

        #[test]
        fn intended_abort_rate_is_respected() {
            let spec = MixSpec {
                intended_abort_prob: 0.3,
                ..MixSpec::default()
            };
            for kind in [MixKind::Zipf, MixKind::HotKey] {
                let mut g = MixGen::new(kind, spec.clone(), 11);
                let n = 2000;
                let aborts = g.programs(n).iter().filter(|p| p.intends_abort).count();
                let rate = aborts as f64 / n as f64;
                assert!((0.25..0.35).contains(&rate), "{kind:?} rate {rate}");
            }
        }
    }
}

#[cfg(test)]
mod scenario {
    //! §1's scenarios at the specs the examples run them with:
    //! `bank_federation` draws [`MixKind::Transfer`], `inventory_orders`
    //! draws [`MixKind::TpccLite`].
    mod tests {
        use crate::{MixGen, MixKind, MixSpec};
        use amc_types::Operation;

        #[test]
        fn bank_is_pure_increments() {
            let bank = MixSpec {
                sites: 3,
                objects_per_site: 500,
                theta: 0.6,
                intended_abort_prob: 0.02,
                max_fanout: 2,
            };
            let mut g = MixGen::new(MixKind::Transfer, bank, 1);
            for p in g.programs(300) {
                for op in p.merged_ops() {
                    // An intended abort adds one read of a missing account.
                    let allowed = matches!(op, Operation::Increment { .. })
                        || (p.intends_abort && matches!(op, Operation::Read { .. }));
                    assert!(allowed, "a bank transfer did {op}");
                }
            }
        }

        #[test]
        fn inventory_is_escrow_heavy() {
            let inventory = MixSpec {
                sites: 4,
                objects_per_site: 400,
                theta: 0.8,
                intended_abort_prob: 0.05,
                max_fanout: 2,
            };
            let mut g = MixGen::new(MixKind::TpccLite, inventory, 77);
            let (mut reserves, mut ops) = (0usize, 0usize);
            for p in g.programs(300) {
                let merged = p.merged_ops();
                let r = merged
                    .iter()
                    .filter(|op| matches!(op, Operation::Reserve { .. }))
                    .count();
                assert!(r >= 1, "an order reserved no stock");
                reserves += r;
                ops += merged.len();
            }
            assert!(reserves * 10 >= ops * 3, "reserves {reserves} of {ops} ops");
        }
    }
}
