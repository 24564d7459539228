//! Logical time for the deterministic simulator.
//!
//! The discrete-event kernel (`amc-sim`) advances a virtual clock measured
//! in **logical microseconds**. Nothing in the workspace reads the wall
//! clock during simulation; determinism of protocol traces and crash
//! schedules depends on it.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant on the simulator's virtual clock (logical microseconds since
/// simulation start).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct SimTime(pub u64);

/// A span of virtual time (logical microseconds).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// Simulation start.
    pub const ZERO: SimTime = SimTime(0);

    /// Raw microsecond count.
    #[inline]
    pub const fn micros(self) -> u64 {
        self.0
    }

    /// Saturating distance to an earlier instant.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Raw microsecond count.
    #[inline]
    pub const fn micros(self) -> u64 {
        self.0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}us", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

#[cfg(test)]
impl SimDuration {
    /// As fractional milliseconds (for reports).
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_behaves() {
        let t = SimTime::ZERO + SimDuration::from_millis(2);
        assert_eq!(t.micros(), 2_000);
        assert_eq!(t - SimTime(500), SimDuration(1_500));
        assert_eq!(t.since(SimTime(500)).micros(), 1_500);
        // Saturation rather than wraparound when subtracting a later time.
        assert_eq!(SimTime(5).since(SimTime(10)), SimDuration::ZERO);
    }

    #[test]
    fn duration_accumulates() {
        let mut d = SimDuration::ZERO;
        d += SimDuration::from_micros(250);
        d += SimDuration::from_micros(750);
        assert_eq!(d.micros(), 1_000);
        assert!((d.as_millis_f64() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn displays() {
        assert_eq!(SimTime(42).to_string(), "t+42us");
        assert_eq!(SimDuration(7).to_string(), "7us");
    }
}
