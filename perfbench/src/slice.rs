//! One measured slice: fresh federation, discarded warm-up, fixed-duration
//! closed loop, correctness checks, teardown.
//!
//! Closed loop: each client thread sends its next program only after the
//! previous one ended, so a slower system receives less load. The loop
//! receives only pre-generated programs; client `k` of `n` replays
//! programs `k, k+n, k+2n, …` of the stream, cycling if the slice outruns
//! it, so every slice of a run offers the same inputs in the same order.

use crate::spans::{SpanKind, Tracer};
use crate::workloads::{Counters, Rig, Workload};
use amc_core::{Federation, TxnOutcome};
use amc_net::marker::is_marker;
use amc_types::ProtocolKind;
use amc_workload::GlobalProgram;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A program gets this many attempts to reach its intended outcome
/// (the bound `Federation::run_concurrent` uses).
const MAX_ATTEMPTS: u32 = 10;

#[derive(Debug, Clone, Copy)]
pub struct SliceOpts {
    pub clients: usize,
    pub warmup: Duration,
    pub measure: Duration,
}

/// What the clients of one measured window observed.
#[derive(Debug, Default)]
pub struct Observed {
    /// Wall time from the start signal to the last client's exit.
    pub wall: Duration,
    /// `run_transaction` latency of every committed attempt, ns.
    pub commit_ns: Vec<u64>,
    /// Latency of every globally aborted attempt, ns.
    pub abort_ns: Vec<u64>,
    /// L0 lock tenures of committed attempts (first submit → local
    /// release, per participating site), ns.
    pub l0_hold_ns: Vec<u64>,
    /// Programs taken from the stream.
    pub programs: u64,
    /// Programs that ended without their intended outcome: still aborted
    /// or L1-rejected after `MAX_ATTEMPTS`, or a transport error.
    pub failed: u64,
    /// `run_transaction` calls (programs plus retries).
    pub attempts: u64,
    pub l1_rejections: u64,
    /// Aborts of programs that did not intend one.
    pub erroneous_aborts: u64,
    /// Messages the coordinator exchanged, all attempts.
    pub messages: u64,
}

impl Observed {
    pub fn commits(&self) -> u64 {
        self.commit_ns.len() as u64
    }

    pub fn throughput(&self) -> f64 {
        self.commits() as f64 / self.wall.as_secs_f64()
    }

    fn absorb(&mut self, other: Observed) {
        self.commit_ns.extend(other.commit_ns);
        self.abort_ns.extend(other.abort_ns);
        self.l0_hold_ns.extend(other.l0_hold_ns);
        self.programs += other.programs;
        self.failed += other.failed;
        self.attempts += other.attempts;
        self.l1_rejections += other.l1_rejections;
        self.erroneous_aborts += other.erroneous_aborts;
        self.messages += other.messages;
    }
}

fn client(
    fed: &Federation,
    programs: &[GlobalProgram],
    first: usize,
    stride: usize,
    deadline: Instant,
    tracer: Option<&Tracer>,
) -> Observed {
    let mut seen = Observed::default();
    let mut next = first;
    while Instant::now() < deadline {
        let program = &programs[next % programs.len()];
        next += stride;
        seen.programs += 1;
        for attempt in 1..=MAX_ATTEMPTS {
            seen.attempts += 1;
            let started = Instant::now();
            let report = fed.run_transaction(&program.per_site);
            let ended = Instant::now();
            let Ok(report) = report else {
                seen.failed += 1;
                break;
            };
            let latency = ended.duration_since(started).as_nanos() as u64;
            seen.messages += report.messages;
            let (kind, intended) = match report.outcome {
                TxnOutcome::Committed => {
                    seen.commit_ns.push(latency);
                    seen.l0_hold_ns
                        .extend(report.l0_holds.iter().map(|h| h.as_nanos() as u64));
                    (SpanKind::TxnCommitted, !program.intends_abort)
                }
                TxnOutcome::Aborted => {
                    seen.abort_ns.push(latency);
                    if !program.intends_abort {
                        seen.erroneous_aborts += 1;
                    }
                    (SpanKind::TxnAborted, program.intends_abort)
                }
                TxnOutcome::L1Rejected(_) => {
                    seen.l1_rejections += 1;
                    (SpanKind::TxnRejected, false)
                }
            };
            if let Some(tracer) = tracer {
                tracer.record_txn(kind, report.gtx.raw(), started, ended);
            }
            if intended {
                break;
            }
            if attempt == MAX_ATTEMPTS {
                seen.failed += 1;
            }
        }
    }
    seen
}

/// Run `clients` closed-loop threads for `duration`, starting at stream
/// position `offset`.
fn drive(
    fed: &Federation,
    programs: &[GlobalProgram],
    offset: usize,
    clients: usize,
    duration: Duration,
    tracer: Option<&Tracer>,
) -> Result<Observed, String> {
    let started = Instant::now();
    let deadline = started + duration;
    let mut total = Observed::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|k| {
                scope.spawn(move || client(fed, programs, offset + k, clients, deadline, tracer))
            })
            .collect();
        for h in handles {
            total.absorb(h.join().map_err(|_| "a client thread panicked")?);
        }
        Ok::<(), String>(())
    })?;
    total.wall = started.elapsed();
    Ok(total)
}

/// The post-slice checks: every transaction has ended, so the sum over
/// all user counters must equal the loaded sum (the mixes conserve it and
/// an aborted program leaves no net effect) and the coordinator may owe
/// no site a final-state message.
fn verify(workload: &Workload, fed: &Federation) -> Result<(), String> {
    let dumps = fed.dumps().map_err(|e| format!("dump failed: {e}"))?;
    let sum: i64 = dumps
        .values()
        .flatten()
        .filter(|(obj, _)| !is_marker(**obj))
        .map(|(_, value)| value.counter)
        .sum();
    if sum != workload.spec.initial_sum() {
        return Err(format!(
            "conservation violated: counters sum to {sum}, loaded {}",
            workload.spec.initial_sum()
        ));
    }
    match fed.pending_obligations() {
        0 => Ok(()),
        n => Err(format!(
            "{n} final-state messages still owed after quiescence"
        )),
    }
}

/// A finished slice: the measured window plus the rig it ran on, still
/// up so the caller can read layer counters before `rig.shutdown()`.
pub struct Slice {
    pub observed: Observed,
    pub rig: Rig,
    /// Layer counters when the measured window opened (the warm-up's
    /// share, to subtract).
    pub counters_before: Counters,
}

/// Build a fresh federation, warm it up, run the measured window and
/// check correctness.
pub fn run_slice(
    workload: &Workload,
    protocol: ProtocolKind,
    programs: &[GlobalProgram],
    opts: SliceOpts,
    tracer: Option<&Arc<Tracer>>,
) -> Result<Slice, String> {
    let rig = Rig::build(workload, protocol, tracer);
    let spans = tracer.map(Arc::as_ref);
    // The warm-up replays the far half of the stream, so the measured
    // window starts at position 0 on every slice.
    drive(
        &rig.fed,
        programs,
        programs.len() / 2,
        opts.clients,
        opts.warmup,
        spans,
    )?;
    if let Some(t) = spans {
        t.clear();
    }
    let counters_before = rig.counters();
    let observed = drive(&rig.fed, programs, 0, opts.clients, opts.measure, spans)?;
    verify(workload, &rig.fed)
        .map_err(|e| format!("{} / {}: {e}", workload.name, protocol.label()))?;
    Ok(Slice {
        observed,
        rig,
        counters_before,
    })
}
