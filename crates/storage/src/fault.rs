//! Seeded disk-fault injection.
//!
//! Real disks fail in two ways a commit protocol must survive: a read can
//! fail transiently (media retry, controller hiccup) and a write can be
//! silently **lost** (acknowledged but never reaching the platter — the
//! fault [Gra 78]'s stable-storage construction exists to mask). The
//! disk injects both behind a [`FaultConfig`], driven by a local
//! deterministic PRNG so a chaos run reproduces bit-for-bit from its seed.
//!
//! The PRNG is a self-contained splitmix64, deliberately *not* `amc-sim`'s
//! `SimRng`: the storage substrate must stay a leaf crate with no dependency
//! on the simulator (the same crate-independence rule that keeps FNV-1a
//! duplicated between `checksum` and `amc-wal`).

/// Knobs for injected disk faults. All probabilities are per-operation and
/// independent.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultConfig {
    /// Probability that a page read fails with a transient I/O error.
    pub read_error_probability: f64,
    /// Probability that a page write is acknowledged but silently lost.
    pub lost_write_probability: f64,
    /// Seed for the fault PRNG stream.
    pub seed: u64,
}

/// A tiny deterministic PRNG (splitmix64) for fault decisions.
#[derive(Debug, Clone)]
pub(crate) struct FaultRng {
    state: u64,
}

impl FaultRng {
    pub(crate) fn new(seed: u64) -> Self {
        FaultRng { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// True with probability `p`.
    pub(crate) fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            // Still consume a draw so enabling/disabling a 100% fault does
            // not shift the stream for later decisions.
            let _ = self.next_u64();
            return true;
        }
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        unit < p
    }
}

/// Live fault state attached to a [`crate::disk::StableStorage`].
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    pub(crate) cfg: FaultConfig,
    pub(crate) rng: FaultRng,
}

impl FaultState {
    pub(crate) fn new(cfg: FaultConfig) -> Self {
        let rng = FaultRng::new(cfg.seed);
        FaultState { cfg, rng }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = FaultRng::new(42);
        let mut b = FaultRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.chance(0.3), b.chance(0.3));
        }
    }

    #[test]
    fn extreme_probabilities() {
        let mut r = FaultRng::new(1);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn mid_probability_is_roughly_calibrated() {
        let mut r = FaultRng::new(7);
        let hits = (0..10_000).filter(|_| r.chance(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "hits {hits}");
    }
}
