//! The traced run: per-layer metrics from spans and from the layers' own
//! counters, the probe-priced latency budget, and the tracing overhead.
//!
//! Per protocol it runs three slices: untraced at the run's client count
//! (the reference every ratio and counter is taken from), traced at the
//! same count (spans), and untraced with one client (the scaling
//! reference). End-to-end numbers never come from here.

use crate::run::{Metric, Report};
use crate::slice::{run_slice, Observed, SliceOpts};
use crate::spans::{write_spans, Span, SpanKind, Tracer};
use crate::stats::percentile;
use crate::workloads::{Counters, Wire, Workload};
use amc_types::ProtocolKind;
use amc_workload::GlobalProgram;
use std::collections::HashMap;

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn p50_us(ns: &mut [u64]) -> f64 {
    ns.sort_unstable();
    percentile(ns, 50.0) as f64 / 1e3
}

/// Length of the union of `intervals` (start, end), ns.
fn union_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut reach) = (0, 0);
    for &(start, end) in intervals.iter() {
        if end > reach {
            covered += end - start.max(reach);
            reach = end;
        }
    }
    covered
}

/// What the spans of one traced slice add up to.
#[derive(Default)]
struct SpanSums {
    commits: u64,
    /// Σ over committed transactions of (txn − union of its calls), ns.
    txn_self_ns: u64,
    call_ns: u64,
    engine_ns: u64,
    call_durs: Vec<u64>,
    execute_durs: Vec<u64>,
    prepare_durs: Vec<u64>,
    commit_durs: Vec<u64>,
}

fn sum_spans(spans: &[Span]) -> SpanSums {
    let mut sums = SpanSums::default();
    let mut calls_of: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        match s.kind {
            SpanKind::Call(_) => {
                sums.call_ns += s.dur_ns();
                sums.call_durs.push(s.dur_ns());
                calls_of
                    .entry(s.gtx)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
            kind if kind.is_engine() => {
                sums.engine_ns += s.dur_ns();
                match kind {
                    SpanKind::EngineExecute => sums.execute_durs.push(s.dur_ns()),
                    SpanKind::EnginePrepare => sums.prepare_durs.push(s.dur_ns()),
                    SpanKind::EngineCommit => sums.commit_durs.push(s.dur_ns()),
                    _ => {}
                }
            }
            _ => {}
        }
    }
    for s in spans.iter().filter(|s| s.kind == SpanKind::TxnCommitted) {
        sums.commits += 1;
        let in_calls = calls_of.get_mut(&s.gtx).map_or(0, |c| union_ns(c));
        sums.txn_self_ns += s.dur_ns().saturating_sub(in_calls);
    }
    sums
}

pub struct TraceOpts<'a> {
    pub slice: SliceOpts,
    /// Where to write the spans of the traced slices, if anywhere.
    pub spans_out: Option<&'a str>,
    /// The probe results (`probe::all`), which price the budget.
    pub probes: &'a [Metric],
}

/// Run the traced lane of `workload`; print the budget table; return
/// every per-layer metric of BENCHMARK.json, probes included.
pub fn per_layer(
    workload: &Workload,
    programs: &[GlobalProgram],
    opts: TraceOpts<'_>,
) -> Result<Report, String> {
    let mut report = Report::default();
    let mut spans_file = match opts.spans_out {
        Some(path) => {
            let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
            Some(std::io::BufWriter::new(file))
        }
        None => None,
    };
    let tcp = workload.wire != Wire::InProcess;
    // A probe's price, by its BENCHMARK.json name.
    let price = |name: &str| {
        let probe = opts.probes.iter().find(|m| m.name == name);
        probe.map_or(0.0, |m| m.value)
    };

    // Pooled across protocols.
    let (mut all, mut all_commits) = (Counters::default(), 0u64);
    let (mut conns_peak, mut tput_untraced, mut tput_traced) = (0u64, 0.0, 0.0);
    let (mut execute, mut prepare, mut commit) = (Vec::new(), Vec::new(), Vec::new());
    let mut budget_rows = Vec::new();

    for protocol in ProtocolKind::ALL {
        let p = protocol.label();
        let mut note = |seen: &Observed| {
            report.attempted += seen.programs;
            report.failed += seen.failed;
        };

        let reference = run_slice(workload, protocol, programs, opts.slice, None)?;
        let counters = reference.rig.counters() - reference.counters_before;
        conns_peak = conns_peak.max(reference.rig.peak_connections());
        reference.rig.shutdown();
        let mut seen = reference.observed;
        note(&seen);

        let tracer = Tracer::new();
        let traced = run_slice(workload, protocol, programs, opts.slice, Some(&tracer))?;
        traced.rig.shutdown();
        note(&traced.observed);
        let spans = tracer.drain();
        if let Some(file) = spans_file.as_mut() {
            write_spans(file, p, &spans).map_err(|e| format!("writing spans: {e}"))?;
        }
        let mut sums = sum_spans(&spans);

        let solo_opts = SliceOpts {
            clients: 1,
            ..opts.slice
        };
        let solo = run_slice(workload, protocol, programs, solo_opts, None)?;
        solo.rig.shutdown();
        note(&solo.observed);

        let commits = seen.commits() as f64;
        let aborts = seen.abort_ns.len() as f64;
        let attempts = seen.attempts as f64;
        seen.commit_ns.sort_unstable();
        let measured_p50 = percentile(&seen.commit_ns, 50.0) as f64 / 1e3;
        let traced_commits = sums.commits as f64;
        let call_self_us = ratio(
            sums.call_ns.saturating_sub(sums.engine_ns) as f64 / 1e3,
            traced_commits,
        );
        let engine_busy_us = ratio(sums.engine_ns as f64 / 1e3, traced_commits);
        let msgs_per_commit = ratio(seen.messages as f64, commits);

        // Σcall − Σengine is the comm manager's share in-process and the
        // whole wire (codec, sockets, server hand-off, comm dispatch)
        // behind TCP; each metric is 0 on the other kind of workload.
        let (comm_self_us, rpc_self_us) = if tcp {
            (0.0, call_self_us)
        } else {
            (call_self_us, 0.0)
        };
        let c = &counters;
        let per_commit = |n: u64| ratio(n as f64, commits);
        let per_attempt = |n: u64| ratio(n as f64, attempts);
        let frac = |n: u64, of: u64| ratio(n as f64, of as f64);
        let txn_self_us = ratio(sums.txn_self_ns as f64 / 1e3, traced_commits);
        let p999_us = percentile(&seen.commit_ns, 99.9) as f64 / 1e3;
        let scaling = ratio(seen.throughput(), solo.observed.throughput());
        let rows = [
            ("core.txn_self_us", txn_self_us, "us"),
            ("core.l0_hold_p50_us", p50_us(&mut seen.l0_hold_ns), "us"),
            ("core.abort_p50_us", p50_us(&mut seen.abort_ns), "us"),
            (
                "core.l1_reject_frac",
                per_attempt(seen.l1_rejections),
                "ratio",
            ),
            (
                "core.erroneous_abort_frac",
                per_attempt(seen.erroneous_aborts),
                "ratio",
            ),
            ("core.commit_p999_us", p999_us, "us"),
            ("core.scaling_ratio", scaling, "ratio"),
            ("net.comm_self_us", comm_self_us, "us"),
            ("rpc.call_self_us", rpc_self_us, "us"),
            ("net.msgs_per_commit", msgs_per_commit, "count"),
            ("net.call_p50_us", p50_us(&mut sums.call_durs), "us"),
            ("net.redo_per_commit", per_commit(c.redo_runs), "count"),
            (
                "net.undo_per_abort",
                ratio(c.undo_runs as f64, aborts),
                "count",
            ),
            (
                "net.pre_vote_retries_per_commit",
                per_commit(c.pre_vote_retries),
                "count",
            ),
            ("engine.busy_us", engine_busy_us, "us"),
            (
                "lock.l0_wait_frac",
                frac(c.l0_waits, c.l0_requests),
                "ratio",
            ),
            (
                "lock.l0_victims_per_commit",
                per_commit(c.l0_victims),
                "count",
            ),
            ("mlt.l1_wait_frac", frac(c.l1_waits, c.l1_requests), "ratio"),
            ("wal.forces_per_commit", per_commit(c.forces), "count"),
            ("wal.bytes_per_commit", per_commit(c.stable_bytes), "B"),
            (
                "wal.commits_per_group_force",
                frac(c.batched_commits, c.group_forces),
                "count",
            ),
        ];
        let mut per = |name: &str, value: f64, unit| {
            let name = format!("{name}.{p}");
            report.metrics.push(Metric::new(name, value, unit));
        };
        for (name, value, unit) in rows {
            per(name, value, unit);
        }

        // ROADMAP 2(c): the measured p50 against the sum of its priced
        // steps. Calls are priced serially, so a pipelining transport's
        // overlap shows as a negative residue.
        let calls = msgs_per_commit / 2.0;
        let wire_us = match workload.wire {
            Wire::InProcess => 0.0,
            Wire::TcpThreaded => price("rpc.ping_rtt_us.threaded"),
            Wire::TcpMux => price("rpc.ping_rtt_us.mux"),
        };
        let codec_us = if tcp {
            (price("rpc.encode_ns") + price("rpc.decode_ns")) / 1e3
        } else {
            0.0
        };
        let delay_us = 2.0 * workload.message_delay().as_secs_f64() * 1e6;
        let dispatch_us = price("net.dispatch_ns") / 2e3;
        let fsm_us = price(&format!("core.fsm_cycle_ns.{p}")) / 1e3;
        let l1_us = if protocol == ProtocolKind::TwoPhaseCommit {
            0.0
        } else {
            2.0 * price("mlt.l1_grant_release_ns") / 1e3
        };
        let wire_total = calls * (wire_us + codec_us + delay_us + dispatch_us);
        let predicted = wire_total + engine_busy_us + fsm_us + l1_us;
        per(
            "budget.residual_frac",
            ratio(measured_p50 - predicted, measured_p50),
            "ratio",
        );
        budget_rows.push(format!(
            "{p:<14} {measured_p50:>10.1} {predicted:>10.1} {calls:>6.2} {wire_total:>10.1} {engine_busy_us:>10.1} {:>8.2}",
            fsm_us + l1_us
        ));

        all.buffer_hits += counters.buffer_hits;
        all.buffer_misses += counters.buffer_misses;
        all.evictions += counters.evictions;
        all.sheds += counters.sheds;
        all_commits += seen.commits();
        tput_untraced += seen.throughput();
        tput_traced += traced.observed.throughput();
        execute.append(&mut sums.execute_durs);
        prepare.append(&mut sums.prepare_durs);
        commit.append(&mut sums.commit_durs);
    }

    let commits = all_commits as f64;
    let lookups = (all.buffer_hits + all.buffer_misses) as f64;
    report.metrics.extend([
        Metric::new(
            "rpc.sheds_per_commit",
            ratio(all.sheds as f64, commits),
            "count",
        ),
        Metric::new("rpc.conns_peak", conns_peak as f64, "count"),
        Metric::new("engine.execute_p50_us", p50_us(&mut execute), "us"),
        Metric::new("engine.prepare_p50_us", p50_us(&mut prepare), "us"),
        Metric::new("engine.commit_p50_us", p50_us(&mut commit), "us"),
        Metric::new(
            "storage.buffer_hit_frac",
            ratio(all.buffer_hits as f64, lookups),
            "ratio",
        ),
        Metric::new(
            "storage.evictions_per_commit",
            ratio(all.evictions as f64, commits),
            "count",
        ),
        Metric::new(
            "trace.overhead_frac",
            1.0 - ratio(tput_traced, tput_untraced),
            "ratio",
        ),
    ]);
    report.metrics.extend(opts.probes.iter().cloned());

    println!("latency budget, us per commit (wire = calls x (rtt + codec + delay + dispatch)):");
    println!(
        "{:<14} {:>10} {:>10} {:>6} {:>10} {:>10} {:>8}",
        "protocol", "p50", "predicted", "calls", "wire", "engine", "fsm+l1"
    );
    budget_rows.iter().for_each(|row| println!("{row}"));
    if let Some(mut file) = spans_file {
        use std::io::Write;
        file.flush().map_err(|e| format!("writing spans: {e}"))?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_keeps_gaps() {
        assert_eq!(union_ns(&mut [(0, 10), (5, 20), (30, 40)]), 30);
        assert_eq!(union_ns(&mut [(5, 6), (0, 100)]), 100);
        assert_eq!(union_ns(&mut []), 0);
    }
}
