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
//! Two heterogeneous schedulers over one engine core (`core.rs`): the
//! transaction table, a page store that writes no page back ahead of its
//! log, the site's one group committer, the checkpoint cut of an in-memory
//! log, crash with partial-force and torn tails, restart recovery and the
//! durable open. Neither scheduler touches the log on its own.
//!
//! * [`tpl::TwoPLEngine`] — strict two-phase locking over page locks, with
//!   undo lists and in-doubt resurrection. Also implements
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
mod core;
pub mod occ;
pub mod tpl;

pub use api::{EngineStats, LocalEngine, PreparableEngine, RecoveryReport};
pub use occ::OccEngine;
pub use tpl::{TplConfig, TwoPLEngine};

#[cfg(test)]
mod tests {
    use super::*;
    use amc_types::{
        AbortReason, AmcError, AmcResult, LocalRunState, LocalTxnId, ObjectId, Operation, SiteId,
        Value,
    };
    use std::path::Path;

    /// One engine of each scheduler over an in-memory log, loaded with
    /// `data`.
    fn both(data: &[(ObjectId, Value)]) -> [Box<dyn LocalEngine>; 2] {
        let engines: [Box<dyn LocalEngine>; 2] = [
            Box::new(TwoPLEngine::new_at(TplConfig::default(), SiteId::new(1))),
            Box::new(OccEngine::new_at(TplConfig::default(), SiteId::new(1))),
        ];
        for e in &engines {
            e.bulk_load(data).unwrap();
        }
        engines
    }

    /// §3.1's local state shape, on the engines themselves: a local
    /// transaction goes running → committed or running → aborted in one
    /// step, and a terminal state is final — `commit` after `abort` and
    /// `abort` after `commit` are refused and change nothing. Only a
    /// preparable engine has a ready state; OCC never reports one.
    #[test]
    fn terminal_local_states_are_final() {
        let obj = ObjectId::new(1);
        let inc = Operation::Increment { obj, delta: 1 };
        for e in both(&[(obj, Value::counter(0))]) {
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

    /// A committed write outlives a crash, on either scheduler: its forced
    /// `Commit` is replayed by recovery. Run by `tpl::tests` and
    /// `occ::tests` under their own names.
    pub(crate) fn committed_state_survives_crash(e: &dyn LocalEngine) {
        let obj = ObjectId::new(1);
        e.bulk_load(&[(obj, Value::counter(10))]).unwrap();
        let t = e.begin().unwrap();
        let value = Value::counter(42);
        e.execute(t, &Operation::Write { obj, value }).unwrap();
        e.commit(t).unwrap();
        e.crash();
        assert!(!e.is_up(), "{}", e.kind());
        let report = e.recover().unwrap();
        assert!(report.committed.contains(&t), "{}: {report:?}", e.kind());
        assert_eq!(e.dump().unwrap()[&obj], value, "{}", e.kind());
    }

    /// With a modelled force latency, committers arriving while the
    /// leader's force is in flight batch behind the next one, on either
    /// scheduler, and every acknowledged commit is durable. Run by
    /// `tpl::tests` and `occ::tests` under their own names, over the
    /// engine `new_at` builds.
    pub(crate) fn concurrent_commits_share_group_forces<E: LocalEngine + 'static>(
        new_at: fn(TplConfig, SiteId) -> E,
    ) {
        let cfg = TplConfig {
            group_commit: amc_wal::GroupCommitConfig {
                force_latency: std::time::Duration::from_millis(2),
            },
            ..TplConfig::default()
        };
        let e = std::sync::Arc::new(new_at(cfg, SiteId::new(1)));
        let objs: Vec<_> = (0..8)
            .map(|i| (ObjectId::new(i), Value::counter(0)))
            .collect();
        e.bulk_load(&objs).unwrap();
        let handles = objs.into_iter().map(|(obj, _)| {
            let e = e.clone();
            std::thread::spawn(move || {
                for _ in 0..5 {
                    let tx = e.begin().unwrap();
                    let bump = Operation::Increment { obj, delta: 1 };
                    match e.execute(tx, &bump) {
                        // Each thread bumps its own object: no commit may abort.
                        Ok(_) => e.commit(tx).unwrap(),
                        Err(AmcError::Aborted(_)) => {} // a page collision victim
                        Err(other) => panic!("unexpected {other}"),
                    }
                }
            })
        });
        for h in handles.collect::<Vec<_>>() {
            h.join().unwrap();
        }
        let s = e.log_stats();
        assert!(
            s.batched_commits > s.group_forces,
            "{}: {} commits acked over {} group forces",
            e.kind(),
            s.batched_commits,
            s.group_forces
        );
        e.crash();
        let report = e.recover().unwrap();
        let total: i64 = e.dump().unwrap().values().map(|val| val.counter).sum();
        let commits = e.stats().commits as i64;
        assert_eq!(total, commits, "{}: {report:?}", e.kind());
    }

    /// Nothing of a running transaction was forced — 2PL's update sits in
    /// the volatile tail, OCC's in its private buffer — so recovery sees no
    /// trace of it, and its write is simply gone.
    pub(crate) fn uncommitted_work_vanishes_on_crash(e: &dyn LocalEngine) {
        let obj = ObjectId::new(1);
        e.bulk_load(&[(obj, Value::counter(10))]).unwrap();
        let t = e.begin().unwrap();
        let value = Value::counter(42);
        e.execute(t, &Operation::Write { obj, value }).unwrap();
        e.crash();
        let report = e.recover().unwrap();
        assert!(report.rolled_back.is_empty(), "{}: {report:?}", e.kind());
        assert_eq!(e.dump().unwrap()[&obj], Value::counter(10), "{}", e.kind());
        assert_eq!(e.state_of(t), Some(LocalRunState::Aborted), "{}", e.kind());
    }

    /// A process commits one transaction and leaves a second running — or,
    /// where `prepare` can, ready — and dies without any shutdown, the moral
    /// equivalent of SIGKILL: only forced frames survive in the file. The
    /// engine `open` reopens the file.
    pub(crate) fn reopen_recovers<E: LocalEngine>(
        tag: &str,
        open: impl Fn(&Path) -> AmcResult<(E, RecoveryReport)>,
        prepare: impl Fn(&E, LocalTxnId) -> bool,
    ) {
        let name = format!("amc-engine-reopen-{tag}-{}", std::process::id());
        let dir = std::env::temp_dir().join(name);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("reopen.wal");
        let _ = std::fs::remove_file(&path);
        let (a, b) = (ObjectId::new(1), ObjectId::new(2));
        let (committed, second, prepared) = {
            let (e, report) = open(&path).unwrap();
            assert!(
                report.committed.is_empty(),
                "{tag}: fresh file, nothing to find"
            );
            e.bulk_load(&[(a, Value::counter(10)), (b, Value::counter(20))])
                .unwrap();
            let t = e.begin().unwrap();
            e.execute(t, &Operation::Increment { obj: a, delta: 5 })
                .unwrap();
            e.commit(t).unwrap();
            let p = e.begin().unwrap();
            let value = Value::counter(99);
            e.execute(p, &Operation::Write { obj: b, value }).unwrap();
            (t, p, prepare(&e, p))
        };

        let (e, report) = open(&path).unwrap();
        assert!(report.committed.contains(&committed), "{tag}: {report:?}");
        let in_doubt = if prepared { vec![second] } else { vec![] };
        assert_eq!(report.in_doubt, in_doubt, "{tag}: {report:?}");
        let d = e.dump().unwrap();
        assert_eq!(
            d[&a],
            Value::counter(15),
            "{tag}: load + committed increment"
        );
        // A prepared update was redone and stays isolated behind its
        // re-held page lock until the coordinator decides; a running one
        // died with the process.
        let b_reads = Value::counter(if prepared { 99 } else { 20 });
        assert_eq!(d[&b], b_reads, "{tag}");
        let ready = prepared.then_some(LocalRunState::Ready);
        assert_eq!(e.state_of(second), ready, "{tag}");

        // Fresh local ids must not collide with replayed ones: no Begin
        // record names a transaction, but every id the log holds is below.
        let fresh = e.begin().unwrap();
        assert!(
            fresh > committed && (!prepared || fresh > second),
            "{tag}: {fresh}"
        );
        e.abort(fresh, AbortReason::Intended).unwrap();

        if prepared {
            // Coordinator decides commit: the in-doubt value stands, durably.
            e.commit(second).unwrap();
            drop(e);
            let (e, report) = open(&path).unwrap();
            assert!(report.in_doubt.is_empty(), "{tag}: {report:?}");
            assert_eq!(e.dump().unwrap()[&b], Value::counter(99), "{tag}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
