//! `perf` — the repo's benchmark: three commit protocols × four
//! workloads, end to end and layer by layer. See README.md.
//!
//! ```text
//! perf run   --workload <name|all> [--seed N] [--seconds S | --slice-s X --rounds R]
//!            [--clients C] [--trace 0|1] [--out FILE.jsonl] [--spans-out FILE.tsv]
//! perf trace ...                    same as `run --trace 1`
//! perf probe                        the layer microbenchmarks alone
//! perf compare A.jsonl [B.jsonl]    calibration table / regression gate
//! ```
//!
//! The last line `run` prints is the machine-readable result:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value", "unit"}}}`.

mod compare;
mod json;
mod layers;
mod probe;
mod run;
mod slice;
mod spans;
mod stats;
mod workloads;

use json::Json;
use run::{Metric, Report};
use slice::SliceOpts;
use std::process::ExitCode;
use std::time::Duration;

/// Programs generated per run, before the clock starts. A slice that
/// outruns the stream cycles it.
const STREAM_LEN: usize = 1 << 17;
const WARMUP: Duration = Duration::from_millis(300);
/// Slices of a traced run: per protocol one untraced, one traced, one
/// single-client.
const TRACE_SLICES: f64 = 9.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    slice_s: f64,
    rounds: usize,
    clients: usize,
    trace: bool,
    out: Option<String>,
    spans_out: Option<String>,
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn parse_args(args: &[String], trace: bool) -> Result<Args, String> {
    let mut parsed = Args {
        workload: "all".into(),
        seed: 1,
        seconds: None,
        slice_s: 2.0,
        rounds: 5,
        // Closed loop, in one process with the site servers: more clients
        // than cores would measure the scheduler.
        clients: nproc().min(4),
        trace,
        out: None,
        spans_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => parsed.seconds = Some(value.parse().map_err(|e| bad(&e))?),
            "--slice-s" => parsed.slice_s = value.parse().map_err(|e| bad(&e))?,
            "--rounds" => parsed.rounds = value.parse().map_err(|e| bad(&e))?,
            "--clients" => parsed.clients = value.parse().map_err(|e| bad(&e))?,
            "--trace" => parsed.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            "--out" => parsed.out = Some(value.clone()),
            "--spans-out" => parsed.spans_out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let positive = parsed.slice_s > 0.0 && parsed.seconds.is_none_or(|s| s > 0.0);
    if !positive || parsed.rounds == 0 || parsed.clients == 0 {
        return Err("--seconds, --slice-s, --rounds and --clients must be positive".into());
    }
    Ok(parsed)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn metrics_json(metrics: &[Metric], full: bool) -> Json {
    Json::obj(metrics.iter().map(|m| {
        let mut fields = vec![("value", Json::Num(m.value)), ("unit", Json::str(m.unit))];
        if full {
            fields.push(("spread", Json::Num(m.spread())));
            let slices = m.per_slice.iter().map(|v| Json::Num(*v)).collect();
            fields.push(("slices", Json::Arr(slices)));
            fields.push(("samples", Json::Num(m.samples as f64)));
        }
        (m.name.clone(), Json::obj(fields))
    }))
}

fn result_line(correct: bool, report: &Report) -> Json {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(report.attempted.max(1) as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", metrics_json(&report.metrics, false)),
    ])
}

fn run_workload(name: &str, args: &Args) -> Result<Report, String> {
    let workload = workloads::by_name(name).ok_or_else(|| {
        format!(
            "unknown workload {name}; one of {:?} or all",
            workloads::NAMES
        )
    })?;
    let programs = workload.programs(args.seed, STREAM_LEN);
    let fingerprint = format!("{:#018x}", amc_workload::fingerprint(&programs));
    let slices = if args.trace {
        TRACE_SLICES
    } else {
        (args.rounds * 3) as f64
    };
    let slice_s = args.seconds.map_or(args.slice_s, |s| s / slices);
    let opts = SliceOpts {
        clients: args.clients,
        warmup: WARMUP,
        measure: Duration::from_secs_f64(slice_s),
    };
    println!(
        "# {name}: seed {} stream {fingerprint} ({STREAM_LEN} programs), closed loop, {} clients on {} cores, \
         {slices} slices x {slice_s:.3} s after {:.1} s warm-up",
        args.seed,
        args.clients,
        nproc(),
        WARMUP.as_secs_f64()
    );

    let report = if args.trace {
        let trace_opts = layers::TraceOpts {
            slice: opts,
            spans_out: args.spans_out.as_deref(),
            probes: &probe::all(),
        };
        layers::per_layer(&workload, &programs, trace_opts)?
    } else {
        run::end_to_end(&workload, &programs, args.rounds, opts)?
    };
    for m in &report.metrics {
        println!(
            "{:<44} {:>16.4} {:<6} spread {:.4}  n={}",
            m.name,
            m.value,
            m.unit,
            m.spread(),
            m.samples
        );
    }

    if let Some(path) = &args.out {
        let record = Json::obj([
            ("workload", Json::str(name)),
            ("trace", Json::Bool(args.trace)),
            ("seed", Json::Num(args.seed as f64)),
            ("fingerprint", Json::str(fingerprint)),
            ("nproc", Json::Num(nproc() as f64)),
            ("clients", Json::Num(args.clients as f64)),
            ("rounds", Json::Num(args.rounds as f64)),
            ("slice_s", Json::Num(slice_s)),
            (
                "git_sha",
                Json::str(command_line("git", &["rev-parse", "--short", "HEAD"])),
            ),
            ("rustc", Json::str(command_line("rustc", &["--version"]))),
            ("attempted", Json::Num(report.attempted as f64)),
            ("failed", Json::Num(report.failed as f64)),
            ("metrics", metrics_json(&report.metrics, true)),
        ]);
        use std::io::Write;
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{record}"))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(report)
}

fn run(args: &Args) -> ExitCode {
    let names: Vec<&str> = match args.workload.as_str() {
        "all" => workloads::NAMES.to_vec(),
        one => vec![one],
    };
    for name in names {
        match run_workload(name, args) {
            Ok(report) => println!("{}", result_line(true, &report)),
            Err(e) => {
                eprintln!("perf: {e}");
                println!("{}", result_line(false, &Report::default()));
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("perf: refusing to measure a debug build; use `cargo run --release`");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("usage: perf <run|trace|probe|compare> ...  (see README.md)");
        return ExitCode::from(2);
    };
    let outcome = match command.as_str() {
        "run" => parse_args(rest, false).map(|a| run(&a)),
        "trace" => parse_args(rest, true).map(|a| run(&a)),
        "probe" => {
            for m in probe::all() {
                println!("{:<32} {:>14.2} {}", m.name, m.value, m.unit);
            }
            Ok(ExitCode::SUCCESS)
        }
        "compare" => compare::main(rest).map(|pass| {
            if pass {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }),
        other => Err(format!("unknown command {other}")),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("perf: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(section: &str) -> Vec<String> {
        let doc = Json::parse(compare::BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let list = doc.get(section).expect("section").as_arr();
        list.iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    /// Every workload passes its conservation and obligation checks on
    /// short slices, in both lanes, and emits exactly the metric names
    /// BENCHMARK.json lists — the file and the output cannot drift apart.
    #[test]
    fn every_workload_runs_clean_and_emits_the_listed_metrics() {
        let listed: Vec<String> = names("workloads");
        assert_eq!(listed, workloads::NAMES);
        let opts = SliceOpts {
            clients: 2,
            warmup: Duration::from_millis(50),
            measure: Duration::from_millis(200),
        };
        let probes = probe::all();
        for name in workloads::NAMES {
            let workload = workloads::by_name(name).expect("listed workload exists");
            let programs = workload.programs(7, 4_096);

            let e2e = run::end_to_end(&workload, &programs, 1, opts).expect(name);
            let got: Vec<&str> = e2e.metrics.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(got, names("end_to_end"), "{name}: end-to-end metric names");
            assert!(e2e.attempted > 0, "{name}: ran nothing");
            assert_eq!(e2e.failed, 0, "{name}: programs failed");
            assert!(e2e
                .metrics
                .iter()
                .all(|m| m.value.is_finite() && m.value > 0.0));

            let trace_opts = layers::TraceOpts {
                slice: opts,
                spans_out: None,
                probes: &probes,
            };
            let layers = layers::per_layer(&workload, &programs, trace_opts).expect(name);
            let got: Vec<&str> = layers.metrics.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(got, names("per_layer"), "{name}: per-layer metric names");
            assert!(layers.metrics.iter().all(|m| m.value.is_finite()));
        }
    }
}
