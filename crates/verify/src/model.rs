//! The reference interpreter.
//!
//! A plain in-memory map with exactly the operation semantics the engines
//! implement. Every correctness check ultimately reduces to "does the real
//! federation agree with this model under some serial order".

use amc_types::{AmcError, AmcResult, ObjectId, OpResult, Operation, Value};
use std::collections::BTreeMap;

/// Reference database state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ModelDb {
    state: BTreeMap<ObjectId, Value>,
}

impl ModelDb {
    /// Empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Model pre-loaded with data.
    pub fn with(data: impl IntoIterator<Item = (ObjectId, Value)>) -> Self {
        ModelDb {
            state: data.into_iter().collect(),
        }
    }

    /// Apply one operation with engine-identical semantics.
    pub fn apply(&mut self, op: &Operation) -> AmcResult<OpResult> {
        match *op {
            Operation::Read { obj } => self
                .state
                .get(&obj)
                .map(|v| OpResult::Value(*v))
                .ok_or(AmcError::NotFound(obj)),
            Operation::Write { obj, value } => {
                if !self.state.contains_key(&obj) {
                    return Err(AmcError::NotFound(obj));
                }
                self.state.insert(obj, value);
                Ok(OpResult::Done)
            }
            Operation::Increment { obj, delta } => {
                let v = self
                    .state
                    .get(&obj)
                    .copied()
                    .ok_or(AmcError::NotFound(obj))?;
                self.state.insert(obj, v.incremented(delta));
                Ok(OpResult::Done)
            }
            Operation::Insert { obj, value } => {
                if self.state.contains_key(&obj) {
                    return Err(AmcError::AlreadyExists(obj));
                }
                self.state.insert(obj, value);
                Ok(OpResult::Done)
            }
            Operation::Delete { obj } => self
                .state
                .remove(&obj)
                .map(|_| OpResult::Done)
                .ok_or(AmcError::NotFound(obj)),
            Operation::Reserve { obj, amount } => {
                let v = self
                    .state
                    .get(&obj)
                    .copied()
                    .ok_or(AmcError::NotFound(obj))?;
                if v.counter < amount as i64 {
                    return Err(AmcError::InsufficientStock {
                        obj,
                        have: v.counter,
                        want: amount,
                    });
                }
                self.state.insert(obj, v.incremented(-(amount as i64)));
                Ok(OpResult::Done)
            }
        }
    }

    /// Apply a program transactionally: all ops or none.
    pub(crate) fn apply_atomic(&mut self, ops: &[Operation]) -> AmcResult<()> {
        let snapshot = self.state.clone();
        for op in ops {
            if let Err(e) = self.apply(op) {
                self.state = snapshot;
                return Err(e);
            }
        }
        Ok(())
    }

    /// Current value of an object.
    pub fn get(&self, obj: ObjectId) -> Option<Value> {
        self.state.get(&obj).copied()
    }

    /// Set a value directly (test setup).
    pub fn set(&mut self, obj: ObjectId, value: Value) {
        self.state.insert(obj, value);
    }

    /// The full state (for equality checks).
    pub fn state(&self) -> &BTreeMap<ObjectId, Value> {
        &self.state
    }

    /// Consume into the state map.
    pub(crate) fn into_state(self) -> BTreeMap<ObjectId, Value> {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(n: u64) -> ObjectId {
        ObjectId::new(n)
    }
    fn v(n: i64) -> Value {
        Value::counter(n)
    }

    #[test]
    fn semantics_match_engine_contract() {
        let mut m = ModelDb::with([(obj(1), v(10))]);
        assert_eq!(
            m.apply(&Operation::Read { obj: obj(1) }).unwrap(),
            OpResult::Value(v(10))
        );
        assert!(matches!(
            m.apply(&Operation::Read { obj: obj(2) }),
            Err(AmcError::NotFound(_))
        ));
        m.apply(&Operation::Increment {
            obj: obj(1),
            delta: 5,
        })
        .unwrap();
        assert_eq!(m.get(obj(1)), Some(v(15)));
        assert!(matches!(
            m.apply(&Operation::Insert {
                obj: obj(1),
                value: v(0)
            }),
            Err(AmcError::AlreadyExists(_))
        ));
        m.apply(&Operation::Delete { obj: obj(1) }).unwrap();
        assert!(matches!(
            m.apply(&Operation::Write {
                obj: obj(1),
                value: v(0)
            }),
            Err(AmcError::NotFound(_))
        ));
    }

    #[test]
    fn apply_atomic_rolls_back_on_failure() {
        let mut m = ModelDb::with([(obj(1), v(10))]);
        let before = m.clone();
        let err = m.apply_atomic(&[
            Operation::Write {
                obj: obj(1),
                value: v(99),
            },
            Operation::Read { obj: obj(404) }, // fails
        ]);
        assert!(err.is_err());
        assert_eq!(m, before);
    }

    #[test]
    fn apply_atomic_commits_on_success() {
        let mut m = ModelDb::with([(obj(1), v(10))]);
        m.apply_atomic(&[
            Operation::Increment {
                obj: obj(1),
                delta: 1,
            },
            Operation::Insert {
                obj: obj(2),
                value: v(2),
            },
        ])
        .unwrap();
        assert_eq!(m.get(obj(1)), Some(v(11)));
        assert_eq!(m.get(obj(2)), Some(v(2)));
    }
}
