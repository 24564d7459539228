//! Seeded randomness and latency models.
//!
//! Every source of randomness in a simulation flows from one [`SimRng`]
//! seeded at construction, so a `(seed, workload, schedule)` triple fully
//! determines the run.

use amc_types::SimDuration;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic PRNG with simulation-flavoured helpers.
#[derive(Debug, Clone)]
pub struct SimRng {
    rng: StdRng,
}

impl SimRng {
    /// Seeded constructor — same seed, same stream.
    pub fn new(seed: u64) -> Self {
        SimRng {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Fork an independent, deterministic child stream (e.g. one per site)
    /// so adding draws at one site never perturbs another.
    pub fn fork(&mut self) -> SimRng {
        SimRng::new(self.rng.gen())
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        self.rng.gen_range(0..n)
    }

    /// Uniform in an inclusive range.
    pub(crate) fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        self.rng.gen_range(lo..=hi)
    }

    /// Bernoulli trial.
    pub fn chance(&mut self, p: f64) -> bool {
        debug_assert!((0.0..=1.0).contains(&p));
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.rng.gen_bool(p)
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.rng.gen::<f64>()
    }

    /// Exponentially distributed duration with the given mean (inverse
    /// transform sampling; used for think times and inter-arrival gaps).
    pub(crate) fn exponential(&mut self, mean: SimDuration) -> SimDuration {
        let u: f64 = 1.0 - self.rng.gen::<f64>(); // (0, 1]
        let x = -(u.ln()) * mean.micros() as f64;
        SimDuration::from_micros(x.min(1e15) as u64)
    }

    /// Zipf-distributed rank in `[0, n)` with skew `theta` (0 = uniform).
    ///
    /// Uses the rejection-free CDF-inversion over a precomputed-free
    /// approximation: for the modest `n` the workloads use (≤ 1e6) a direct
    /// power-law inversion is accurate enough and allocation-free.
    pub fn zipf(&mut self, n: u64, theta: f64) -> u64 {
        debug_assert!(n > 0);
        if theta <= f64::EPSILON {
            return self.below(n);
        }
        // Inverse-CDF of the continuous approximation of Zipf: ranks near 0
        // are hot. Exponent s = theta in (0, ~1.5].
        let u = self.unit().max(1e-12);
        let s = 1.0 - theta;
        let x = if s.abs() < 1e-9 {
            // theta == 1: H(x) ~ ln(x); invert via exp.
            (n as f64).powf(u)
        } else {
            // H(x) ~ (x^s - 1)/s; invert.
            ((u * ((n as f64).powf(s) - 1.0)) + 1.0).powf(1.0 / s)
        };
        (x as u64).min(n - 1)
    }
}

/// How long a message (or disk op) takes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyModel {
    /// Always the same.
    Fixed(SimDuration),
    /// Uniform in `[lo, hi]`.
    Uniform(SimDuration, SimDuration),
    /// Exponential with the given mean, clamped to `[min, 10*mean]`.
    Exponential {
        /// Mean latency.
        mean: SimDuration,
        /// Lower clamp (propagation floor).
        min: SimDuration,
    },
}

impl LatencyModel {
    /// Draw one latency.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        match *self {
            LatencyModel::Fixed(d) => d,
            LatencyModel::Uniform(lo, hi) => {
                debug_assert!(lo <= hi);
                SimDuration::from_micros(rng.range_inclusive(lo.micros(), hi.micros()))
            }
            LatencyModel::Exponential { mean, min } => {
                let d = rng.exponential(mean);
                let cap = SimDuration::from_micros(mean.micros().saturating_mul(10));
                SimDuration::from_micros(
                    d.micros()
                        .clamp(min.micros(), cap.micros().max(min.micros())),
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.below(1000), b.below(1000));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let va: Vec<u64> = (0..32).map(|_| a.below(1_000_000)).collect();
        let vb: Vec<u64> = (0..32).map(|_| b.below(1_000_000)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn forks_are_independent() {
        let mut parent1 = SimRng::new(7);
        let mut child1 = parent1.fork();
        let mut parent2 = SimRng::new(7);
        let mut child2 = parent2.fork();
        // Same fork point -> same child stream.
        for _ in 0..16 {
            assert_eq!(child1.below(100), child2.below(100));
        }
        // Draws on the child do not perturb the parent.
        let p1: Vec<u64> = (0..16).map(|_| parent1.below(100)).collect();
        let _burn: Vec<u64> = (0..1000).map(|_| child2.below(100)).collect();
        let p2: Vec<u64> = (0..16).map(|_| parent2.below(100)).collect();
        assert_eq!(p1, p2);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(3);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn exponential_mean_roughly_holds() {
        let mut rng = SimRng::new(11);
        let mean = SimDuration::from_micros(1_000);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| rng.exponential(mean).micros()).sum();
        let avg = total as f64 / n as f64;
        assert!((800.0..1200.0).contains(&avg), "avg {avg}");
    }

    #[test]
    fn zipf_zero_theta_is_uniformish() {
        let mut rng = SimRng::new(5);
        let n = 10u64;
        let mut counts = [0u64; 10];
        for _ in 0..10_000 {
            counts[rng.zipf(n, 0.0) as usize] += 1;
        }
        for c in counts {
            assert!((700..1300).contains(&c), "count {c}");
        }
    }

    #[test]
    fn zipf_skews_towards_low_ranks() {
        let mut rng = SimRng::new(5);
        let n = 1000u64;
        let mut head = 0u64;
        let trials = 10_000;
        for _ in 0..trials {
            if rng.zipf(n, 0.99) < 10 {
                head += 1;
            }
        }
        // With strong skew, the hottest 1% of ranks should take far more
        // than 1% of draws.
        assert!(head > trials / 10, "head draws: {head}");
    }

    #[test]
    fn zipf_stays_in_range() {
        let mut rng = SimRng::new(9);
        for theta in [0.0, 0.5, 0.9, 0.99, 1.2] {
            for _ in 0..1000 {
                assert!(rng.zipf(17, theta) < 17);
            }
        }
    }

    #[test]
    fn latency_models_sample_sanely() {
        let mut rng = SimRng::new(1);
        assert_eq!(
            LatencyModel::Fixed(SimDuration(5)).sample(&mut rng),
            SimDuration(5)
        );
        for _ in 0..100 {
            let d = LatencyModel::Uniform(SimDuration(10), SimDuration(20)).sample(&mut rng);
            assert!((10..=20).contains(&d.micros()));
            let e = LatencyModel::Exponential {
                mean: SimDuration(100),
                min: SimDuration(10),
            }
            .sample(&mut rng);
            assert!(e.micros() >= 10 && e.micros() <= 1000);
        }
    }
}
