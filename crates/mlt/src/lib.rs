//! # amc-mlt
//!
//! The multi-level (open nested) transaction model of §4, adapted to the
//! integrated database system:
//!
//! * level **L1** — global transactions over logical objects, with
//!   *semantic* conflicts: two L1 actions conflict iff they do not
//!   generally commute (§4.1). The increment/increment pair of Fig. 8
//!   commutes, so both transactions may hold increment locks on `x`
//!   simultaneously.
//! * level **L0** — local transactions executed by the unmodifiable
//!   engines, each ACID on its own (§4.2): "the existing transaction
//!   managers can be integrated as transaction managers for transactions at
//!   level L0".
//!
//! The crate provides the two mechanisms §4.3 says the commit-before
//! protocol *reuses* (which is why that protocol adds no overhead); the
//! third, the undo-log of inverse actions, is derived from the forward
//! program plus before-image rows the forward local transaction commits
//! (`amc-net`'s communication manager and its `marker::before_image`):
//!
//! * [`inverse`] — inverse L1 actions (`Incr⁻¹ = Decr`, `Ins⁻¹ = Del`, ...),
//!   the undo mechanism of multi-level recovery;
//! * [`locks`] — the L1 lock manager: a thin policy wrapper over
//!   [`amc_lock::BlockingLockManager`] with [`amc_lock::SemanticMode`]s,
//!   and the read/write-only mode of E15's `commit-before/rw` (E15-3, C4-3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod inverse;
pub mod locks;

pub use inverse::{inverse_of, needs_before_image};
pub use locks::{ConflictPolicy, L1LockManager};
