//! The end-to-end run: rounds × three protocols of untraced slices,
//! interleaved round-robin so drift in the machine hits every protocol
//! alike, reduced to the twelve end-to-end metrics of BENCHMARK.json.

use crate::slice::{run_slice, SliceOpts};
use crate::stats::{median, percentile, quartile_spread};
use crate::workloads::Workload;
use amc_types::ProtocolKind;
use amc_workload::GlobalProgram;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// One value per slice, in run order, where `value` summarises
    /// slices (empty where there is one value only).
    pub per_slice: Vec<f64>,
    /// Samples behind each per-slice value (the median over slices):
    /// commits for a throughput or a latency percentile; 1 otherwise.
    pub samples: u64,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            per_slice: Vec::new(),
            samples: 1,
        }
    }

    /// Quartile spread of the per-slice values as a share of their median.
    pub fn spread(&self) -> f64 {
        quartile_spread(&self.per_slice)
    }

    /// The median of one value per slice.
    fn of_slices(
        name: impl Into<String>,
        per_slice: &[f64],
        unit: &'static str,
        samples: u64,
    ) -> Metric {
        Metric {
            name: name.into(),
            value: median(per_slice),
            unit,
            per_slice: per_slice.to_vec(),
            samples,
        }
    }
}

/// The outcome of one run of one workload.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Programs taken from the stream inside measured windows.
    pub attempted: u64,
    /// Programs that ended without their intended outcome.
    pub failed: u64,
}

/// Peak resident set of this process so far (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run `rounds` round-robin rounds of the three protocols and reduce them
/// to the end-to-end metrics. Any failed correctness check is an `Err`.
pub fn end_to_end(
    workload: &Workload,
    programs: &[GlobalProgram],
    rounds: usize,
    opts: SliceOpts,
) -> Result<Report, String> {
    // Per protocol, one value per slice: throughput, p50, p99, commits.
    let mut per_protocol = [(); 3].map(|()| [(); 4].map(|()| Vec::new()));
    let mut setups = Vec::new();
    let mut report = Report::default();

    for _ in 0..rounds {
        for (protocol, [tput, p50, p99, commits]) in
            ProtocolKind::ALL.into_iter().zip(&mut per_protocol)
        {
            let slice = run_slice(workload, protocol, programs, opts, None)?;
            setups.push(slice.rig.setup.as_secs_f64());
            slice.rig.shutdown();
            let mut seen = slice.observed;
            report.attempted += seen.programs;
            report.failed += seen.failed;
            commits.push(seen.commits() as f64);
            tput.push(seen.throughput());
            seen.commit_ns.sort_unstable();
            p50.push(percentile(&seen.commit_ns, 50.0) as f64 / 1e3);
            p99.push(percentile(&seen.commit_ns, 99.0) as f64 / 1e3);
        }
    }

    for (protocol, [tput, p50, p99, commits]) in ProtocolKind::ALL.into_iter().zip(&per_protocol) {
        let p = protocol.label();
        let samples = median(commits) as u64;
        for (name, per_slice, unit) in [
            ("tput_txn_s", tput, "txn/s"),
            ("commit_p50_us", p50, "us"),
            ("commit_p99_us", p99, "us"),
        ] {
            report.metrics.push(Metric::of_slices(
                format!("{name}.{p}"),
                per_slice,
                unit,
                samples,
            ));
        }
    }
    let ok = 1.0 - report.failed as f64 / report.attempted.max(1) as f64;
    report.metrics.push(Metric::new("ok_frac", ok, "ratio"));
    report
        .metrics
        .push(Metric::new("peak_rss_mb", peak_rss_mb(), "MB"));
    report
        .metrics
        .push(Metric::of_slices("setup_s", &setups, "s", 1));
    Ok(report)
}
