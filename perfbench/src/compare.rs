//! `perf compare A [B]`: the regression gate over run records.
//!
//! A record file is JSON lines, one end-to-end run of one workload per
//! line (`perf run --out` appends). With one file it prints the spread of
//! its runs against the bounds of BENCHMARK.json — the calibration table.
//! With two it prints, per (workload, end-to-end metric), A's and B's
//! median, B as a ratio of A, and a verdict; any `worse` fails the gate.

use crate::json::Json;
use crate::stats::{median, quartile_spread};
use std::collections::BTreeMap;

/// The benchmark definition this binary was built against.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One end-to-end metric's regression rule.
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    /// Share of the baseline median by which the metric may get worse.
    pub bound: f64,
}

pub fn bounds() -> Vec<Bound> {
    let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let field = |m: &Json, key: &str| m.get(key).cloned().expect("BENCHMARK.json metric field");
    doc.get("end_to_end")
        .expect("end_to_end")
        .as_arr()
        .iter()
        .map(|m| Bound {
            name: field(m, "name").as_str().expect("name").to_string(),
            lower_is_better: field(m, "better").as_str() == Some("lower"),
            bound: field(m, "bound").as_f64().expect("bound"),
        })
        .collect()
}

/// The runs of one (workload, metric): each run's value and the spread
/// between that run's own slices.
#[derive(Default)]
struct Series {
    values: Vec<f64>,
    slice_spreads: Vec<f64>,
}

impl Series {
    /// Run-to-run quartile spread; with a single run, the spread between
    /// that run's slices stands in for it.
    fn spread(&self) -> f64 {
        if self.values.len() >= 2 {
            quartile_spread(&self.values)
        } else {
            self.slice_spreads.first().copied().unwrap_or(0.0)
        }
    }
}

type RunSet = BTreeMap<(String, String), Series>;

fn load(path: &str) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut set = RunSet::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let workload = record
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}:{}: no workload", n + 1))?;
        for (name, m) in record.get("metrics").map(Json::fields).unwrap_or_default() {
            let Some(value) = m.get("value").and_then(Json::as_f64) else {
                continue;
            };
            let series = set.entry((workload.to_string(), name.clone())).or_default();
            series.values.push(value);
            series
                .slice_spreads
                .push(m.get("spread").and_then(Json::as_f64).unwrap_or(0.0));
        }
    }
    Ok(set)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    Unresolved,
}

/// `a` and `b` are medians; `spread` the wider of the two run-to-run
/// spreads. A move beyond the bound for the worse is `Worse` whatever the
/// spread; otherwise a spread wider than the bound resolves nothing.
pub fn judge(rule: &Bound, a: f64, b: f64, spread: f64) -> Verdict {
    let worse_by = if rule.lower_is_better { b - a } else { a - b } / a.abs();
    if worse_by > rule.bound {
        Verdict::Worse
    } else if spread > rule.bound {
        Verdict::Unresolved
    } else if worse_by < -rule.bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// Print the spread of one file's runs against the bounds.
fn calibration(path: &str) -> Result<(), String> {
    let set = load(path)?;
    println!("| workload | metric | runs | min | median | max | spread | bound |");
    println!("|---|---|---|---|---|---|---|---|");
    for rule in bounds() {
        for ((workload, _), s) in set.iter().filter(|((_, m), _)| *m == rule.name) {
            let min = s.values.iter().copied().fold(f64::INFINITY, f64::min);
            let max = s.values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            println!(
                "| {workload} | {} | {} | {min:.4} | {:.4} | {max:.4} | {:.4} | {} |",
                rule.name,
                s.values.len(),
                median(&s.values),
                s.spread(),
                rule.bound
            );
        }
    }
    Ok(())
}

/// Run the subcommand; `Ok(false)` means the gate failed.
pub fn main(files: &[String]) -> Result<bool, String> {
    let (a_path, b_path) = match files {
        [a] => return calibration(a).map(|()| true),
        [a, b] => (a, b),
        _ => return Err("usage: perf compare A.jsonl [B.jsonl]".into()),
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut pass = true;
    println!(
        "{:<16} {:<28} {:>14} {:>14} {:>8} {:>8}  verdict",
        "workload", "metric", "A", "B", "B/A", "spread"
    );
    for rule in bounds() {
        for (key, sa) in a.iter().filter(|((_, m), _)| *m == rule.name) {
            let Some(sb) = b.get(key) else { continue };
            let (ma, mb) = (median(&sa.values), median(&sb.values));
            let spread = sa.spread().max(sb.spread());
            let verdict = judge(&rule, ma, mb, spread);
            pass &= verdict != Verdict::Worse;
            println!(
                "{:<16} {:<28} {ma:>14.4} {mb:>14.4} {:>8.4} {spread:>8.4}  {}",
                key.0,
                rule.name,
                mb / ma,
                format!("{verdict:?}").to_lowercase()
            );
        }
    }
    Ok(pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let lower = Bound {
            name: "latency".into(),
            lower_is_better: true,
            bound: 0.10,
        };
        assert_eq!(judge(&lower, 100.0, 105.0, 0.02), Verdict::Unchanged);
        assert_eq!(judge(&lower, 100.0, 115.0, 0.02), Verdict::Worse);
        assert_eq!(judge(&lower, 100.0, 80.0, 0.02), Verdict::Better);
        assert_eq!(judge(&lower, 100.0, 105.0, 0.20), Verdict::Unresolved);
        assert_eq!(judge(&lower, 100.0, 150.0, 0.20), Verdict::Worse);
        let higher = Bound {
            name: "tput".into(),
            lower_is_better: false,
            bound: 0.10,
        };
        assert_eq!(judge(&higher, 100.0, 85.0, 0.0), Verdict::Worse);
        assert_eq!(judge(&higher, 100.0, 120.0, 0.0), Verdict::Better);
    }
}
