//! A small deterministic histogram: exact samples, nearest-rank
//! percentiles, no floating-point accumulation order dependence.

use std::fmt;

/// An exact-sample histogram over `u64` values (microseconds, counts, …).
///
/// Percentiles use the nearest-rank definition on the sorted sample set,
/// so two runs that record the same multiset of values report identical
/// quantiles — the determinism the report tables assert on. Sample sets in
/// this workspace are small (at most a few thousand per run), so keeping
/// exact samples is cheaper than maintaining sketch buckets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    samples: Vec<u64>,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        self.samples.push(v);
    }

    /// Number of samples recorded.
    pub fn n(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean, `None` when empty (never NaN).
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        let sum: u128 = self.samples.iter().map(|&v| u128::from(v)).sum();
        Some(sum as f64 / self.samples.len() as f64)
    }

    /// Nearest-rank percentile, `p` in `0.0..=100.0`; `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let n = sorted.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        Some(sorted[rank.clamp(1, n) - 1])
    }

    /// Median (nearest rank).
    pub fn p50(&self) -> Option<u64> {
        self.percentile(50.0)
    }

    /// 99th percentile (nearest rank).
    pub fn p99(&self) -> Option<u64> {
        self.percentile(99.0)
    }

    /// Largest sample.
    pub fn max(&self) -> Option<u64> {
        self.samples.iter().copied().max()
    }

    /// Smallest sample.
    pub fn min(&self) -> Option<u64> {
        self.samples.iter().copied().min()
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.p50(), self.p99(), self.max()) {
            (Some(p50), Some(p99), Some(max)) => {
                write!(f, "n={} p50={} p99={} max={}", self.n(), p50, p99, max)
            }
            _ => write!(f, "n=0"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_yields_none_not_nan() {
        let h = Histogram::new();
        assert_eq!(h.mean(), None);
        assert_eq!(h.p50(), None);
        assert_eq!(h.p99(), None);
        assert_eq!(h.to_string(), "n=0");
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut h = Histogram::new();
        for v in [15, 20, 35, 40, 50] {
            h.record(v);
        }
        assert_eq!(h.percentile(30.0), Some(20));
        assert_eq!(h.p50(), Some(35));
        assert_eq!(h.percentile(100.0), Some(50));
        assert_eq!(h.p99(), Some(50));
        assert_eq!(h.mean(), Some(32.0));
    }

    #[test]
    fn single_sample() {
        let mut h = Histogram::new();
        h.record(42);
        assert_eq!(h.p50(), Some(42));
        assert_eq!(h.p99(), Some(42));
        assert_eq!(h.min(), Some(42));
        assert_eq!(h.max(), Some(42));
    }

    #[test]
    fn insertion_order_does_not_matter() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [5, 1, 9, 3] {
            a.record(v);
        }
        for v in [9, 3, 5, 1] {
            b.record(v);
        }
        assert_eq!(a.p50(), b.p50());
        assert_eq!(a.p99(), b.p99());
        assert_eq!(a.mean(), b.mean());
    }

    #[test]
    fn percentiles_at_the_ends_are_the_extremes() {
        let mut h = Histogram::new();
        for v in [40, 10, 30, 20] {
            h.record(v);
        }
        assert_eq!(h.percentile(0.0), h.min());
        assert_eq!(h.percentile(100.0), h.max());
        assert_eq!((h.min(), h.max()), (Some(10), Some(40)));
    }

    /// The mean sums in 128 bits: samples near `u64::MAX` do not wrap.
    #[test]
    fn mean_of_huge_samples_does_not_overflow() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.mean(), Some(u64::MAX as f64));
    }
}
