//! Inverse L1 actions.
//!
//! §4.1: "at each level Li an action is undone by executing the according
//! inverse Li action". The inverse of an increment is a decrement — and
//! needs **no** before image, which is exactly why commutative operations
//! are cheap to undo. State-overwriting actions (`Write`, `Delete`) need
//! the before image captured at execution time.

use amc_types::{Operation, Value};

/// Whether computing the inverse of `op` requires the value observed
/// *before* the operation executed.
///
/// The commit-before communication manager uses this to decide when it must
/// issue a capture read in front of an update — a cost increments never pay
/// (their L1 side is E15's `commit-before/rw` regime: E15-3, C4-3).
pub fn needs_before_image(op: &Operation) -> bool {
    matches!(op, Operation::Write { .. } | Operation::Delete { .. })
}

/// The inverse of `op`, given the before image when one is needed.
///
/// Returns `None` for `Read` (nothing to undo).
///
/// # Panics
/// When `before` is `None` but [`needs_before_image`] is true — the caller
/// failed to capture undo information, which is a protocol bug, not a
/// runtime condition.
pub fn inverse_of(op: &Operation, before: Option<Value>) -> Option<Operation> {
    match *op {
        Operation::Read { .. } => None,
        Operation::Increment { obj, delta } => Some(Operation::Increment {
            obj,
            delta: delta.wrapping_neg(),
        }),
        // Escrow un-reserve: give the units back. Always applicable — the
        // inverse of a *successful* reserve can never underflow.
        Operation::Reserve { obj, amount } => Some(Operation::Increment {
            obj,
            delta: amount as i64,
        }),
        Operation::Insert { obj, .. } => Some(Operation::Delete { obj }),
        Operation::Write { obj, .. } => Some(Operation::Write {
            obj,
            value: before.expect("inverse of Write needs the before image"),
        }),
        Operation::Delete { obj } => Some(Operation::Insert {
            obj,
            value: before.expect("inverse of Delete needs the before image"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amc_types::ObjectId;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn obj(n: u64) -> ObjectId {
        ObjectId::new(n)
    }

    /// A tiny reference interpreter for operations over a map state.
    fn apply(state: &mut BTreeMap<ObjectId, Value>, op: &Operation) -> Result<(), ()> {
        match *op {
            Operation::Read { obj } => state.get(&obj).map(|_| ()).ok_or(()),
            Operation::Write { obj, value } => {
                if let Some(slot) = state.get_mut(&obj) {
                    *slot = value;
                    Ok(())
                } else {
                    Err(())
                }
            }
            Operation::Increment { obj, delta } => {
                let v = state.get(&obj).copied().ok_or(())?;
                state.insert(obj, v.incremented(delta));
                Ok(())
            }
            Operation::Insert { obj, value } => match state.entry(obj) {
                std::collections::btree_map::Entry::Occupied(_) => Err(()),
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(value);
                    Ok(())
                }
            },
            Operation::Delete { obj } => state.remove(&obj).map(|_| ()).ok_or(()),
            Operation::Reserve { obj, amount } => {
                let v = state.get(&obj).copied().ok_or(())?;
                if v.counter < amount as i64 {
                    return Err(());
                }
                state.insert(obj, v.incremented(-(amount as i64)));
                Ok(())
            }
        }
    }

    #[test]
    fn increment_inverse_needs_no_state() {
        assert!(!needs_before_image(&Operation::Increment {
            obj: obj(1),
            delta: 4
        }));
        let inv = inverse_of(
            &Operation::Increment {
                obj: obj(1),
                delta: 4,
            },
            None,
        )
        .unwrap();
        assert_eq!(
            inv,
            Operation::Increment {
                obj: obj(1),
                delta: -4
            }
        );
    }

    #[test]
    fn write_and_delete_need_before_images() {
        assert!(needs_before_image(&Operation::Write {
            obj: obj(1),
            value: Value::ZERO
        }));
        assert!(needs_before_image(&Operation::Delete { obj: obj(1) }));
        assert!(!needs_before_image(&Operation::Insert {
            obj: obj(1),
            value: Value::ZERO
        }));
        assert!(!needs_before_image(&Operation::Read { obj: obj(1) }));
    }

    #[test]
    fn read_has_no_inverse() {
        assert_eq!(inverse_of(&Operation::Read { obj: obj(1) }, None), None);
    }

    #[test]
    fn reserve_inverse_is_a_restock() {
        let r = Operation::Reserve {
            obj: obj(1),
            amount: 7,
        };
        assert!(!needs_before_image(&r), "escrow undo needs no before image");
        assert_eq!(
            inverse_of(&r, None),
            Some(Operation::Increment {
                obj: obj(1),
                delta: 7
            })
        );
    }

    proptest! {
        /// op ; inverse(op) is the identity on states where op applies —
        /// the algebraic core of §3.3's undo requirement.
        #[test]
        fn op_then_inverse_is_identity(
            kind in 0u8..5,
            key in 1u64..5,
            val in any::<i64>(),
            delta in any::<i64>(),
            initial in proptest::collection::btree_map(1u64..5, any::<i64>(), 0..5),
        ) {
            let mut state: BTreeMap<ObjectId, Value> = initial
                .into_iter()
                .map(|(k, v)| (obj(k), Value::counter(v)))
                .collect();
            let op = match kind {
                0 => Operation::Write { obj: obj(key), value: Value::counter(val) },
                1 => Operation::Increment { obj: obj(key), delta },
                2 => Operation::Insert { obj: obj(key), value: Value::counter(val) },
                3 => Operation::Reserve { obj: obj(key), amount: delta.unsigned_abs() % 64 + 1 },
                _ => Operation::Delete { obj: obj(key) },
            };
            let before = state.get(&obj(key)).copied();
            let snapshot = state.clone();
            if apply(&mut state, &op).is_ok() {
                let inv = inverse_of(&op, before).expect("updates have inverses");
                apply(&mut state, &inv).expect("inverse applies after op");
                prop_assert_eq!(state, snapshot);
            } else {
                // Failed ops must not change state either.
                prop_assert_eq!(state, snapshot);
            }
        }

        /// Undoing a whole program in reverse order restores the state —
        /// the multi-level rollback of §4.1.
        #[test]
        fn reverse_program_undo_restores_state(
            ops in proptest::collection::vec((0u8..5, 1u64..6, -50i64..50), 1..12),
        ) {
            let mut state: BTreeMap<ObjectId, Value> =
                (1..6).map(|k| (obj(k), Value::counter(100))).collect();
            let snapshot = state.clone();
            let mut undo: Vec<Operation> = Vec::new();
            for (kind, key, x) in ops {
                let op = match kind {
                    0 => Operation::Write { obj: obj(key), value: Value::counter(x) },
                    1 => Operation::Increment { obj: obj(key), delta: x },
                    2 => Operation::Insert { obj: obj(key), value: Value::counter(x) },
                    3 => Operation::Reserve { obj: obj(key), amount: x.unsigned_abs() % 20 + 1 },
                    _ => Operation::Delete { obj: obj(key) },
                };
                let before = state.get(&obj(key)).copied();
                if apply(&mut state, &op).is_ok() {
                    if let Some(inv) = inverse_of(&op, before) {
                        undo.push(inv);
                    }
                }
            }
            for inv in undo.iter().rev() {
                apply(&mut state, inv).expect("inverse program applies");
            }
            prop_assert_eq!(state, snapshot);
        }
    }
}
