//! Offering load: the one closed-loop client driver.
//!
//! Every lane that hands many global transactions to a central system at
//! once — [`Federation::run_concurrent`], the shard router's callers, both
//! `amc-loadgen` modes, the E-lanes — is [`closed_loop`] plus a `run`
//! closure naming what executes one program. An open-loop sibling
//! (arrivals on a seeded schedule, latency from the *intended* send time)
//! belongs beside it once a transaction no longer occupies a thread.
//!
//! [`Federation::run_concurrent`]: crate::Federation::run_concurrent

use crate::federation::{TxnOutcome, TxnReport};
use crate::metrics::RunMetrics;
use amc_types::{AmcResult, Operation, SiteId};
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

/// One decomposed global program: operations per participating site.
pub type Program = BTreeMap<SiteId, Vec<Operation>>;

/// Attempts one program gets: L1 rejections and erroneous aborts are
/// casualties of contention, not outcomes, so they are offered again —
/// boundedly, so a program that can never commit cannot hold a client
/// forever.
pub const MAX_ATTEMPTS: u32 = 10;

/// Drain `programs` — each `(per-site ops, intends_abort)` — through `run`
/// from `threads` closed-loop clients and tally what came back.
///
/// * **FIFO.** Clients take programs in submission order.
/// * **Retries.** An attempt that ends `L1Rejected`, or `Aborted` when the
///   program did not intend it, is counted and the program is run again,
///   up to [`MAX_ATTEMPTS`] attempts in all. An intended abort is final.
/// * **Errors.** An `Err` from `run` is counted in [`RunMetrics::errors`]
///   and ends that program: the attempt's outcome is unknown, so running
///   it again could apply it twice.
///
/// Only what the reports carry is filled in; counters read from the sites
/// (`redo_runs`, `log_forces`, …) stay zero for the caller that can reach
/// them.
pub fn closed_loop(
    programs: Vec<(Program, bool)>,
    threads: usize,
    run: impl Fn(&Program) -> AmcResult<TxnReport> + Sync,
) -> RunMetrics {
    let queue = Mutex::new(VecDeque::from(programs));
    let metrics = Mutex::new(RunMetrics::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| loop {
                let Some((program, intends_abort)) = queue.lock().pop_front() else {
                    return;
                };
                for _ in 0..MAX_ATTEMPTS {
                    match run(&program) {
                        Ok(report) => {
                            if !metrics.lock().record(&report, intends_abort) {
                                break;
                            }
                        }
                        Err(_) => {
                            metrics.lock().errors += 1;
                            break;
                        }
                    }
                }
            });
        }
    });
    let mut metrics = metrics.into_inner();
    metrics.wall = start.elapsed();
    metrics
}

impl RunMetrics {
    /// Tally one attempt; whether the program should be offered again.
    fn record(&mut self, report: &TxnReport, intends_abort: bool) -> bool {
        self.messages += report.messages;
        match report.outcome {
            TxnOutcome::Committed => {
                self.committed += 1;
                self.total_commit_latency += report.latency;
                self.latency_us.record(report.latency.as_micros() as u64);
                for h in &report.l0_holds {
                    self.total_l0_hold += *h;
                    self.l0_hold_count += 1;
                    self.l0_hold_us.record(h.as_micros() as u64);
                }
                false
            }
            TxnOutcome::Aborted if intends_abort => {
                self.aborted_intended += 1;
                false
            }
            TxnOutcome::Aborted => {
                self.aborted_erroneous += 1;
                true
            }
            TxnOutcome::L1Rejected(_) => {
                self.l1_rejections += 1;
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amc_types::{AbortReason, AmcError, GlobalTxnId, ObjectId};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    /// A one-op program whose object id tells the fake `run` what to do.
    fn program(tag: u64, intends_abort: bool) -> (Program, bool) {
        let op = Operation::Read {
            obj: ObjectId::new(tag),
        };
        (BTreeMap::from([(SiteId::new(1), vec![op])]), intends_abort)
    }

    fn tag_of(p: &Program) -> u64 {
        p[&SiteId::new(1)][0].object().raw()
    }

    fn report(outcome: TxnOutcome) -> AmcResult<TxnReport> {
        Ok(TxnReport {
            gtx: GlobalTxnId::new(1),
            outcome,
            latency: Duration::from_micros(250),
            l0_holds: vec![Duration::from_micros(100)],
            messages: 4,
        })
    }

    #[test]
    fn an_error_is_counted_and_ends_only_its_program() {
        let seen = Mutex::new(Vec::new());
        let batch = (0..6).map(|tag| program(tag, false)).collect();
        let m = closed_loop(batch, 2, |p| {
            seen.lock().push(tag_of(p));
            if tag_of(p) % 3 == 1 {
                Err(AmcError::SiteDown(SiteId::new(1)))
            } else {
                report(TxnOutcome::Committed)
            }
        });
        assert_eq!((m.errors, m.committed), (2, 4));
        // The pool outlived both errors, and neither was offered again.
        let mut seen = seen.into_inner();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(m.messages, 16);
        assert_eq!(m.latency_p50_ms(), Some(0.25));
        assert_eq!(m.l0_hold_count, 4);
    }

    #[test]
    fn intended_aborts_are_final_and_casualties_are_offered_again() {
        let attempts = AtomicU64::new(0);
        let batch = vec![program(0, true), program(1, false), program(2, false)];
        let m = closed_loop(batch, 1, |p| {
            let n = attempts.fetch_add(1, Ordering::Relaxed);
            match tag_of(p) {
                // Intends its abort: one attempt.
                0 => report(TxnOutcome::Aborted),
                // Rejected at L1 once, erroneously aborted once, then commits.
                1 if n == 1 => report(TxnOutcome::L1Rejected(AbortReason::Deadlock)),
                1 if n == 2 => report(TxnOutcome::Aborted),
                1 => report(TxnOutcome::Committed),
                // Never commits: the bound ends it.
                _ => report(TxnOutcome::Aborted),
            }
        });
        assert_eq!(m.aborted_intended, 1);
        assert_eq!(m.l1_rejections, 1);
        assert_eq!(m.committed, 1);
        assert_eq!(m.aborted_erroneous, 1 + u64::from(MAX_ATTEMPTS));
        assert_eq!(
            attempts.into_inner(),
            1 + 3 + u64::from(MAX_ATTEMPTS),
            "one attempt for the intended abort, three for the casualty, the bound for the rest"
        );
        assert_eq!(m.errors, 0);
    }
}
