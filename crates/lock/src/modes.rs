//! Lock modes and compatibility matrices.
//!
//! A mode set is anything implementing [`LockMode`]. Two concrete sets ship
//! with the crate: the classical page-level `S`/`X` pair and the semantic
//! L1 modes of the multi-level transaction model, where `Increment` is
//! compatible with itself because increments generally commute (§4.1,
//! Fig. 8 of the paper).

use amc_types::Operation;
use std::fmt::Debug;
use std::hash::Hash;

/// A lock mode with a (symmetric) compatibility relation.
pub trait LockMode: Copy + Eq + Hash + Debug + Send + 'static {
    /// Whether a lock in `self` mode may be granted while another
    /// transaction holds `held`.
    fn compatible(self, held: Self) -> bool;

    /// A mode that covers both `self` and `other` for re-entrant holds by
    /// the *same* transaction (used for upgrades). Must be the least mode
    /// whose conflicts are a superset of both.
    fn combine(self, other: Self) -> Self;
}

/// Page-level modes used by the local (L0) two-phase-locking engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageMode {
    /// Shared (read) lock.
    Shared,
    /// Exclusive (write) lock.
    Exclusive,
}

impl LockMode for PageMode {
    fn compatible(self, held: Self) -> bool {
        matches!((self, held), (PageMode::Shared, PageMode::Shared))
    }

    fn combine(self, other: Self) -> Self {
        if self == PageMode::Exclusive || other == PageMode::Exclusive {
            PageMode::Exclusive
        } else {
            PageMode::Shared
        }
    }
}

/// Semantic (L1) modes for global transactions over logical objects.
///
/// Compatibility matrix (✓ = compatible):
///
/// ```text
///            Read   Write  Increment  Escrow
/// Read        ✓       ✗       ✗         ✗
/// Write       ✗       ✗       ✗         ✗
/// Increment   ✗       ✗       ✓         ✗
/// Escrow      ✗       ✗       ✗         ✓
/// ```
///
/// `Increment`/`Increment` compatibility is what lets the two Fig. 8
/// transactions interleave their `Incr(x)` actions; `Escrow`/`Escrow` is
/// the VODAK-style extension for conditional reserves (the engine enforces
/// the bound atomically, so concurrent reserves are safe against each
/// other but not against observers or restocks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SemanticMode {
    /// Observes the value.
    Read,
    /// Arbitrarily replaces, inserts or deletes the value.
    Write,
    /// Commutative delta update.
    Increment,
    /// Bounded conditional decrement (escrow reserve).
    Escrow,
}

impl LockMode for SemanticMode {
    fn compatible(self, held: Self) -> bool {
        matches!(
            (self, held),
            (SemanticMode::Read, SemanticMode::Read)
                | (SemanticMode::Increment, SemanticMode::Increment)
                | (SemanticMode::Escrow, SemanticMode::Escrow)
        )
    }

    fn combine(self, other: Self) -> Self {
        if self == other {
            self
        } else {
            // Any mixed hold conflicts with everything, which is exactly
            // Write's row in the matrix.
            SemanticMode::Write
        }
    }
}

impl SemanticMode {
    /// The L1 mode an operation needs, i.e. the lock that blocks exactly the
    /// non-commuting operations (`Operation::commutes_with`).
    pub fn for_operation(op: &Operation) -> SemanticMode {
        match op {
            Operation::Read { .. } => SemanticMode::Read,
            Operation::Increment { .. } => SemanticMode::Increment,
            Operation::Reserve { .. } => SemanticMode::Escrow,
            Operation::Write { .. } | Operation::Insert { .. } | Operation::Delete { .. } => {
                SemanticMode::Write
            }
        }
    }

    /// The read/write projection of E15's `commit-before/rw` regime (E15-3,
    /// C4-3): increments as plain writes, as a single-level system sees them.
    pub fn for_operation_rw_only(op: &Operation) -> SemanticMode {
        match op {
            Operation::Read { .. } => SemanticMode::Read,
            _ => SemanticMode::Write,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amc_types::{ObjectId, Value};

    #[test]
    fn page_matrix() {
        use PageMode::*;
        assert!(Shared.compatible(Shared));
        assert!(!Shared.compatible(Exclusive));
        assert!(!Exclusive.compatible(Shared));
        assert!(!Exclusive.compatible(Exclusive));
    }

    #[test]
    fn semantic_matrix_matches_fig8() {
        use SemanticMode::*;
        assert!(Read.compatible(Read));
        assert!(
            Increment.compatible(Increment),
            "Fig. 8: increments interleave"
        );
        assert!(!Increment.compatible(Read));
        assert!(!Increment.compatible(Write));
        assert!(!Write.compatible(Write));
        assert!(!Read.compatible(Write));
    }

    #[test]
    fn matrices_are_symmetric() {
        for a in [PageMode::Shared, PageMode::Exclusive] {
            for b in [PageMode::Shared, PageMode::Exclusive] {
                assert_eq!(a.compatible(b), b.compatible(a));
            }
        }
        let all = [
            SemanticMode::Read,
            SemanticMode::Write,
            SemanticMode::Increment,
            SemanticMode::Escrow,
        ];
        for a in all {
            for b in all {
                assert_eq!(a.compatible(b), b.compatible(a));
            }
        }
    }

    #[test]
    fn combine_covers_both() {
        // Combined mode must conflict with everything either part conflicts
        // with.
        let all = [
            SemanticMode::Read,
            SemanticMode::Write,
            SemanticMode::Increment,
            SemanticMode::Escrow,
        ];
        for a in all {
            for b in all {
                let c = a.combine(b);
                for other in all {
                    if !a.compatible(other) || !b.compatible(other) {
                        assert!(
                            !c.compatible(other),
                            "{a:?}+{b:?}={c:?} must conflict with {other:?}"
                        );
                    }
                }
            }
        }
        assert_eq!(
            PageMode::Shared.combine(PageMode::Exclusive),
            PageMode::Exclusive
        );
    }

    #[test]
    fn mode_for_operation_agrees_with_commutativity() {
        // Lock compatibility must imply operation commutativity on the same
        // object (the lock-based scheduler is allowed to be conservative,
        // never permissive).
        let obj = ObjectId::new(1);
        let ops = [
            Operation::Read { obj },
            Operation::Write {
                obj,
                value: Value::ZERO,
            },
            Operation::Increment { obj, delta: 1 },
            Operation::Insert {
                obj,
                value: Value::ZERO,
            },
            Operation::Delete { obj },
            Operation::Reserve { obj, amount: 2 },
        ];
        for a in &ops {
            for b in &ops {
                let ma = SemanticMode::for_operation(a);
                let mb = SemanticMode::for_operation(b);
                if ma.compatible(mb) {
                    assert!(
                        a.commutes_with(b),
                        "locks allowed {a} || {b} but they do not commute"
                    );
                }
            }
        }
    }

    #[test]
    fn rw_projection_is_strictly_more_conservative() {
        let obj = ObjectId::new(1);
        let incr = Operation::Increment { obj, delta: 1 };
        assert_eq!(SemanticMode::for_operation(&incr), SemanticMode::Increment);
        assert_eq!(
            SemanticMode::for_operation_rw_only(&incr),
            SemanticMode::Write
        );
    }
}
