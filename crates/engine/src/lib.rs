//! # amc-engine
//!
//! The "existing database systems" of the paper's Fig. 1, built from
//! scratch and then deliberately **sealed**: the federation only ever talks
//! to them through [`api::LocalEngine`] — `begin`, `execute`, `commit`,
//! `abort` — because that is all a pre-existing transaction manager offers
//! (§2). There is *no* ready state on that trait; the extended
//! [`api::PreparableEngine`] models the "modified" engine classical 2PC
//! would require (§3.1), and only the 2PC baseline is allowed to use it.
//!
//! Two heterogeneous implementations:
//!
//! * [`tpl::TwoPLEngine`] — strict two-phase locking over page locks, WAL
//!   with value logging, restart recovery. Also implements
//!   `PreparableEngine` so the 2PC baseline has something to run on.
//! * [`occ::OccEngine`] — optimistic (backward validation) scheduler: no
//!   read locks, private write buffers, validation at commit. It does
//!   **not** implement `PreparableEngine`, which faithfully models the
//!   paper's observation that a federation containing such an engine cannot
//!   run classical 2PC at all.
//!
//! Both engines abort transactions on their own initiative — deadlock
//! victims, lock timeouts, failed validation, crashes — which is precisely
//! the "erroneous abort after ready" hazard that drives §3.2's redo
//! protocol.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod occ;
pub mod tpl;

pub use api::{EngineStats, LocalEngine, PreparableEngine, RecoveryReport};
pub use occ::OccEngine;
pub use tpl::{TplConfig, TwoPLEngine};

#[cfg(test)]
mod tests {
    use super::*;
    use amc_types::{AbortReason, LocalRunState, ObjectId, Operation, SiteId, Value};

    /// §3.1's local state shape, on the engines themselves: a local
    /// transaction goes running → committed or running → aborted in one
    /// step, and a terminal state is final — `commit` after `abort` and
    /// `abort` after `commit` are refused and change nothing. Only a
    /// preparable engine has a ready state; OCC never reports one.
    #[test]
    fn terminal_local_states_are_final() {
        let engines: [Box<dyn LocalEngine>; 2] = [
            Box::new(TwoPLEngine::new_at(TplConfig::default(), SiteId::new(1))),
            Box::new(OccEngine::new_at(64, 128, SiteId::new(1))),
        ];
        let obj = ObjectId::new(1);
        let inc = Operation::Increment { obj, delta: 1 };
        for e in &engines {
            e.bulk_load(&[(obj, Value::counter(0))]).unwrap();
            let mut seen = Vec::new();

            let committed = e.begin().unwrap();
            seen.extend(e.state_of(committed));
            e.execute(committed, &inc).unwrap();
            seen.extend(e.state_of(committed));
            e.commit(committed).unwrap();
            assert_eq!(e.state_of(committed), Some(LocalRunState::Committed));
            assert!(e.abort(committed, AbortReason::Intended).is_err());
            assert!(e.commit(committed).is_err());
            assert_eq!(e.state_of(committed), Some(LocalRunState::Committed));

            let aborted = e.begin().unwrap();
            e.execute(aborted, &inc).unwrap();
            seen.extend(e.state_of(aborted));
            e.abort(aborted, AbortReason::Intended).unwrap();
            assert_eq!(e.state_of(aborted), Some(LocalRunState::Aborted));
            assert!(e.commit(aborted).is_err());
            assert!(e.abort(aborted, AbortReason::Intended).is_err());
            assert_eq!(e.state_of(aborted), Some(LocalRunState::Aborted));

            assert_eq!(seen, [LocalRunState::Running; 3], "{}", e.kind());
            assert_eq!(e.dump().unwrap()[&obj], Value::counter(1), "{}", e.kind());
        }
    }

    /// The ready state exists only behind `PreparableEngine::prepare`, and
    /// is left for a terminal state only: a prepared 2PL transaction that
    /// commits stays committed.
    #[test]
    fn ready_is_reached_by_prepare_alone() {
        let e = TwoPLEngine::new_at(TplConfig::default(), SiteId::new(1));
        let t = e.begin().unwrap();
        assert_eq!(e.state_of(t), Some(LocalRunState::Running));
        e.prepare(t).unwrap();
        assert_eq!(e.state_of(t), Some(LocalRunState::Ready));
        e.commit(t).unwrap();
        assert!(e.abort(t, AbortReason::GlobalDecision).is_err());
        assert_eq!(e.state_of(t), Some(LocalRunState::Committed));
    }
}
