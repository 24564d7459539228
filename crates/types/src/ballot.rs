//! Ballot numbers.
//!
//! A ballot is a totally ordered `(round, replica)` pair packed into one
//! `u64` so it travels the wire as a single integer. Following Gray &
//! Lamport, ballot **0** is reserved for the incumbent leader's fast path:
//! the value a site's vote message carries is durably accepted at ballot 0
//! without a phase 1 exchange. A replica that takes over after a missed
//! lease opens round ≥ 1, and ties between replicas opening the same round
//! break on the replica id — two distinct replicas can never own the same
//! ballot.
//!
//! The type lives here, below `amc-wal`, because the acceptor's promises
//! and accepts are write-ahead-log rows: the log that carries them is the
//! site's one durable file.

use crate::codec::{CodecError, Reader, Wire, Writer};
use std::fmt;

/// A packed ballot number: `round << 32 | replica`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ballot(pub u64);

impl Ballot {
    /// The incumbent leader's fast-path ballot.
    pub const ZERO: Ballot = Ballot(0);

    /// Ballot for `round` owned by `replica`.
    ///
    /// Recovery replicas must use `round >= 1`: round 0 belongs to the
    /// incumbent regardless of replica id.
    pub const fn new(round: u32, replica: u32) -> Ballot {
        Ballot(((round as u64) << 32) | replica as u64)
    }

    /// The round component.
    pub const fn round(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// The owning replica's id (meaningful for round ≥ 1).
    pub const fn replica(self) -> u32 {
        self.0 as u32
    }

    /// The next round owned by `replica` — what a takeover replica opens
    /// after seeing this ballot refused.
    pub const fn bump(self, replica: u32) -> Ballot {
        Ballot::new(self.round() + 1, replica)
    }
}

/// A ballot travels as its packed integer.
impl Wire for Ballot {
    fn put(&self, w: &mut Writer) {
        self.0.put(w);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Ballot(u64::get(r)?))
    }
}

impl fmt::Display for Ballot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}.{}", self.round(), self.replica())
    }
}

impl From<u64> for Ballot {
    fn from(raw: u64) -> Self {
        Ballot(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_round_major_then_replica() {
        assert!(Ballot::new(1, 0) > Ballot::ZERO);
        assert!(Ballot::new(2, 0) > Ballot::new(1, 99));
        assert!(Ballot::new(1, 2) > Ballot::new(1, 1));
    }

    #[test]
    fn pack_round_trips() {
        let b = Ballot::new(7, 3);
        assert_eq!(b.round(), 7);
        assert_eq!(b.replica(), 3);
        assert_eq!(Ballot::from(b.0), b);
        assert_eq!(b.to_string(), "b7.3");
    }

    #[test]
    fn bump_outranks_any_ballot_of_the_same_round() {
        let seen = Ballot::new(3, u32::MAX);
        let mine = seen.bump(0);
        assert!(mine > seen);
        assert_eq!(mine.round(), 4);
    }
}
