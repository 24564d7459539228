//! Logical operations — the L1 action algebra.
//!
//! A global transaction is decomposed into per-site lists of [`Operation`]s
//! (§2 of the paper). The same enum doubles as the vocabulary of the
//! multi-level transaction model (§4.1): `amc-mlt` assigns each variant an L1
//! lock mode and an inverse action.

use crate::error::{AmcError, AmcResult};
use crate::ids::ObjectId;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A single logical action against one database object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Operation {
    /// Read the object's current value. Fails if the object does not exist.
    Read {
        /// Target object.
        obj: ObjectId,
    },
    /// Overwrite the object's value. Fails if the object does not exist.
    Write {
        /// Target object.
        obj: ObjectId,
        /// New value.
        value: Value,
    },
    /// Add `delta` to the object's counter (Fig. 8's `Incr`). Commutes with
    /// other increments on the same object. Fails if the object does not
    /// exist.
    Increment {
        /// Target object.
        obj: ObjectId,
        /// Signed amount to add.
        delta: i64,
    },
    /// Create the object with an initial value. Fails if it already exists.
    Insert {
        /// Target object.
        obj: ObjectId,
        /// Initial value.
        value: Value,
    },
    /// Remove the object. Fails if it does not exist.
    Delete {
        /// Target object.
        obj: ObjectId,
    },
    /// Escrow-style conditional decrement (VODAK-style method semantics,
    /// §4.1/§6: "less restrictive conflict relations between operations
    /// than read/write conflicts"): subtract `amount` from the counter,
    /// failing if the counter would drop below zero. Reserves commute with
    /// reserves: every *successful* pair yields the same state in either
    /// order, and the bound check is enforced atomically by the engine.
    Reserve {
        /// Target object.
        obj: ObjectId,
        /// Units to take from escrow (must be > 0).
        amount: u64,
    },
}

crate::wire_enum!(Operation, "operation" {
    0 => Read { obj: ObjectId },
    1 => Write { obj: ObjectId, value: Value },
    2 => Increment { obj: ObjectId, delta: i64 },
    3 => Insert { obj: ObjectId, value: Value },
    4 => Delete { obj: ObjectId },
    5 => Reserve { obj: ObjectId, amount: u64 },
});

impl Operation {
    /// The object this operation touches.
    #[inline]
    pub fn object(&self) -> ObjectId {
        match *self {
            Operation::Read { obj }
            | Operation::Write { obj, .. }
            | Operation::Increment { obj, .. }
            | Operation::Insert { obj, .. }
            | Operation::Delete { obj }
            | Operation::Reserve { obj, .. } => obj,
        }
    }

    /// Whether the operation can change database state.
    #[inline]
    pub fn is_update(&self) -> bool {
        !matches!(self, Operation::Read { .. })
    }

    /// The operation's state transition: what it leaves of its object given
    /// what it finds (`None` = absent), or the logical error it fails with.
    /// A `Read` leaves what it found. Both engines apply exactly this.
    pub fn applied_to(&self, found: Option<Value>) -> AmcResult<Option<Value>> {
        let obj = self.object();
        if let Operation::Insert { value, .. } = *self {
            return match found {
                Some(_) => Err(AmcError::AlreadyExists(obj)),
                None => Ok(Some(value)),
            };
        }
        let cur = found.ok_or(AmcError::NotFound(obj))?;
        Ok(match *self {
            Operation::Read { .. } | Operation::Insert { .. } => Some(cur),
            Operation::Write { value, .. } => Some(value),
            Operation::Increment { delta, .. } => Some(cur.incremented(delta)),
            Operation::Delete { .. } => None,
            Operation::Reserve { amount, .. } if cur.counter < amount as i64 => {
                let (have, want) = (cur.counter, amount);
                return Err(AmcError::InsufficientStock { obj, have, want });
            }
            Operation::Reserve { amount, .. } => Some(cur.incremented(-(amount as i64))),
        })
    }

    /// Whether two operations *generally commute* in the paper's sense
    /// (§4.1): they commute iff for **every** database state, applying them
    /// in either order yields the same state *and* the same results.
    ///
    /// The table is conservative and purely syntactic:
    ///
    /// * operations on different objects always commute;
    /// * `Read`/`Read` commute;
    /// * `Increment`/`Increment` commute (wrapping addition is commutative
    ///   and neither observes the value);
    /// * everything else on the same object conflicts.
    pub fn commutes_with(&self, other: &Operation) -> bool {
        if self.object() != other.object() {
            return true;
        }
        matches!(
            (self, other),
            (Operation::Read { .. }, Operation::Read { .. })
                | (Operation::Increment { .. }, Operation::Increment { .. })
                | (Operation::Reserve { .. }, Operation::Reserve { .. })
        )
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operation::Read { obj } => write!(f, "R({obj})"),
            Operation::Write { obj, value } => write!(f, "W({obj},{value})"),
            Operation::Increment { obj, delta } => write!(f, "Incr({obj},{delta:+})"),
            Operation::Insert { obj, value } => write!(f, "Ins({obj},{value})"),
            Operation::Delete { obj } => write!(f, "Del({obj})"),
            Operation::Reserve { obj, amount } => write!(f, "Rsv({obj},{amount})"),
        }
    }
}

/// The result of executing one [`Operation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OpResult {
    /// `Read` returning the observed value.
    Value(Value),
    /// An update that succeeded without producing a value.
    Done,
}

impl OpResult {
    /// The value carried by a `Read` result, if any.
    #[inline]
    pub fn value(&self) -> Option<Value> {
        match self {
            OpResult::Value(v) => Some(*v),
            OpResult::Done => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(n: u64) -> ObjectId {
        ObjectId::new(n)
    }

    #[test]
    fn different_objects_always_commute() {
        let a = Operation::Write {
            obj: obj(1),
            value: Value::counter(1),
        };
        let b = Operation::Delete { obj: obj(2) };
        assert!(a.commutes_with(&b));
        assert!(b.commutes_with(&a));
    }

    #[test]
    fn increments_commute_on_same_object() {
        let a = Operation::Increment {
            obj: obj(1),
            delta: 3,
        };
        let b = Operation::Increment {
            obj: obj(1),
            delta: -5,
        };
        assert!(a.commutes_with(&b));
    }

    #[test]
    fn reads_commute_writes_do_not() {
        let r1 = Operation::Read { obj: obj(1) };
        let r2 = Operation::Read { obj: obj(1) };
        let w = Operation::Write {
            obj: obj(1),
            value: Value::ZERO,
        };
        assert!(r1.commutes_with(&r2));
        assert!(!r1.commutes_with(&w));
        assert!(!w.commutes_with(&r1));
    }

    #[test]
    fn increment_conflicts_with_read_and_write() {
        let i = Operation::Increment {
            obj: obj(1),
            delta: 1,
        };
        let r = Operation::Read { obj: obj(1) };
        let w = Operation::Write {
            obj: obj(1),
            value: Value::ZERO,
        };
        assert!(!i.commutes_with(&r));
        assert!(!i.commutes_with(&w));
    }

    #[test]
    fn reserves_commute_with_reserves_only() {
        let r1 = Operation::Reserve {
            obj: obj(1),
            amount: 2,
        };
        let r2 = Operation::Reserve {
            obj: obj(1),
            amount: 5,
        };
        let i = Operation::Increment {
            obj: obj(1),
            delta: 1,
        };
        let rd = Operation::Read { obj: obj(1) };
        assert!(r1.commutes_with(&r2));
        assert!(!r1.commutes_with(&i), "restock sees/changes the bound");
        assert!(!r1.commutes_with(&rd));
        assert!(r1.is_update());
        assert_eq!(r1.to_string(), "Rsv(obj-1,2)");
    }

    #[test]
    fn insert_delete_conflict() {
        let ins = Operation::Insert {
            obj: obj(1),
            value: Value::ZERO,
        };
        let del = Operation::Delete { obj: obj(1) };
        assert!(!ins.commutes_with(&del));
    }

    #[test]
    fn commutativity_is_symmetric_over_table() {
        let ops = [
            Operation::Read { obj: obj(1) },
            Operation::Write {
                obj: obj(1),
                value: Value::ZERO,
            },
            Operation::Increment {
                obj: obj(1),
                delta: 2,
            },
            Operation::Insert {
                obj: obj(1),
                value: Value::ZERO,
            },
            Operation::Delete { obj: obj(1) },
            Operation::Reserve {
                obj: obj(1),
                amount: 1,
            },
        ];
        for a in &ops {
            for b in &ops {
                assert_eq!(
                    a.commutes_with(b),
                    b.commutes_with(a),
                    "asymmetry between {a} and {b}"
                );
            }
        }
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(
            Operation::Increment {
                obj: obj(3),
                delta: 1
            }
            .to_string(),
            "Incr(obj-3,+1)"
        );
        assert_eq!(Operation::Read { obj: obj(3) }.to_string(), "R(obj-3)");
    }

    #[test]
    fn applied_to_is_each_operations_state_transition() {
        let (o, five) = (obj(1), Some(Value::counter(5)));
        let value = Value::tagged(9, 1);
        let applied = |op: Operation, found| op.applied_to(found);
        assert_eq!(applied(Operation::Read { obj: o }, five), Ok(five));
        assert_eq!(
            applied(Operation::Write { obj: o, value }, five),
            Ok(Some(value))
        );
        let incr = Operation::Increment { obj: o, delta: -7 };
        assert_eq!(applied(incr, five), Ok(Some(Value::counter(-2))));
        assert_eq!(applied(Operation::Delete { obj: o }, five), Ok(None));
        let insert = Operation::Insert { obj: o, value };
        assert_eq!(applied(insert, None), Ok(Some(value)));
        assert_eq!(applied(insert, five), Err(AmcError::AlreadyExists(o)));
        let reserve = |amount| Operation::Reserve { obj: o, amount };
        assert_eq!(applied(reserve(5), five), Ok(Some(Value::counter(0))));
        let (have, want) = (5, 6);
        let short = AmcError::InsufficientStock { obj: o, have, want };
        assert_eq!(applied(reserve(6), five), Err(short));
        // Everything but an insert needs the object to exist.
        for op in [
            Operation::Read { obj: o },
            Operation::Write { obj: o, value },
            incr,
            Operation::Delete { obj: o },
            reserve(1),
        ] {
            assert_eq!(applied(op, None), Err(AmcError::NotFound(o)), "{op}");
        }
    }

    #[test]
    fn is_update_classification() {
        assert!(!Operation::Read { obj: obj(1) }.is_update());
        assert!(Operation::Delete { obj: obj(1) }.is_update());
    }
}
