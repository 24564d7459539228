//! Plain-text table rendering for the `report` binary, and the one column
//! vocabulary ([`Col`]) every load-offering lane prints its
//! [`RunMetrics`] through.

use amc_core::RunMetrics;
use std::fmt::Write as _;

/// A fixed-column text table.
#[derive(Debug, Clone)]
pub struct TextTable {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// New table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        TextTable {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for (i, cell) in cells.iter().enumerate() {
                let _ = write!(s, "| {:<width$} ", cell, width = widths[i]);
            }
            s.push('|');
            s
        };
        let header = line(&self.headers, &widths);
        let _ = writeln!(out, "{header}");
        let _ = writeln!(out, "{}", "-".repeat(header.len()));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        out
    }
}

/// One column of a measured table: its header and, for a quantity of
/// [`RunMetrics`], how a cell of it is printed. A column without a
/// formatter is a lane *fact* — an axis label, a protocol name, a count
/// read off the testbed — that the lane supplies per row, in column order.
///
/// This is the only place a `RunMetrics` quantity is given a header and a
/// format: two lanes that print `p50 ms` print the same thing, and a rate
/// whose denominator was zero prints `n=0` everywhere.
#[derive(Clone, Copy)]
pub struct Col {
    header: &'static str,
    cell: Option<fn(&RunMetrics) -> String>,
}

/// Microseconds from a latency histogram, whole.
fn us(x: Option<u64>) -> String {
    x.map_or_else(|| "n=0".to_string(), |us| us.to_string())
}

impl Col {
    const fn metric(header: &'static str, cell: fn(&RunMetrics) -> String) -> Col {
        Col {
            header,
            cell: Some(cell),
        }
    }

    /// A column the lane fills itself.
    pub(crate) const fn fact(header: &'static str) -> Col {
        Col { header, cell: None }
    }

    /// The same column under the header an older table gave it.
    pub const fn named(self, header: &'static str) -> Col {
        Col { header, ..self }
    }

    /// Globally committed transactions.
    pub(crate) const COMMITS: Col = Col::metric("commits", |m| m.committed.to_string());
    /// Committed transactions per second of wall clock.
    pub(crate) const TXN_S: Col = Col::metric("txn/s", |m| opt2(m.throughput()));
    /// Commits plus aborts per second: aborted work costs time too.
    pub(crate) const DONE_S: Col = Col::metric("done/s", |m| opt2(m.completions_per_sec()));
    /// Median commit latency, ms.
    pub(crate) const P50_MS: Col = Col::metric("p50 ms", |m| opt2(m.latency_p50_ms()));
    /// 99th-percentile (nearest-rank) commit latency, ms.
    pub(crate) const P99_MS: Col = Col::metric("p99 ms", |m| opt2(m.latency_p99_ms()));
    /// Median commit latency, µs.
    pub(crate) const P50_US: Col = Col::metric("p50 µs", |m| us(m.latency_us.p50()));
    /// 99th-percentile (nearest-rank) commit latency, µs.
    pub(crate) const P99_US: Col = Col::metric("p99 µs", |m| us(m.latency_us.p99()));
    /// Mean commit latency, ms.
    pub(crate) const MEAN_MS: Col = Col::metric("latency ms", |m| opt2(m.mean_latency_ms()));
    /// Mean L0 lock tenure per (transaction, site), ms.
    pub(crate) const L0_HOLD_MS: Col = Col::metric("l0-hold ms", |m| opt2(m.mean_l0_hold_ms()));
    /// Protocol messages per committed transaction.
    pub(crate) const MSG_PER_TXN: Col = Col::metric("msg/txn", |m| opt2(m.messages_per_commit()));
    /// Fraction of attempts that globally aborted.
    pub(crate) const ABORT_RATE: Col = Col::metric("abort", |m| opt3(m.abort_rate()));
    /// Fraction of attempts aborted by the transaction's own logic.
    pub(crate) const INTENDED_RATE: Col =
        Col::metric("intended", |m| opt3(m.intended_abort_rate()));
    /// Commit-after repetitions per committed transaction (§3.2).
    pub(crate) const REDOS_PER_COMMIT: Col =
        Col::metric("redos/commit", |m| opt3(m.redos_per_commit()));
    /// Commit-before inverse transactions per intended abort (§3.3).
    pub(crate) const UNDOS_PER_ABORT: Col =
        Col::metric("undos/abort", |m| opt3(m.undos_per_abort()));
    /// Physical log forces across all engines.
    pub(crate) const FORCES: Col = Col::metric("forces", |m| m.log_forces.to_string());
    /// Forces issued by group-commit leaders.
    pub(crate) const GRP_FORCES: Col = Col::metric("grp-forces", |m| m.group_forces.to_string());
    /// Commit/prepare records acknowledged through group-commit batches.
    pub(crate) const BATCHED: Col = Col::metric("batched", |m| m.batched_commits.to_string());
    /// Physical forces per durably acknowledged record.
    pub(crate) const FORCES_PER_COMMIT: Col =
        Col::metric("forces/commit", |m| opt2(m.forces_per_commit()));
}

/// A lane's table: one row per measured cell, `cols` in order. Each row
/// brings its facts — one per `Col::fact` column, in column order — and
/// the `RunMetrics` every other column is printed from.
pub fn cells<'a>(
    title: &str,
    cols: &[Col],
    rows: impl IntoIterator<Item = (Vec<String>, &'a RunMetrics)>,
) -> TextTable {
    let headers: Vec<&str> = cols.iter().map(|c| c.header).collect();
    let mut table = TextTable::new(title, &headers);
    for (facts, m) in rows {
        let mut facts = facts.into_iter();
        let row = cols.iter().map(|col| match col.cell {
            Some(cell) => cell(m),
            None => facts.next().expect("a fact for every fact column"),
        });
        table.row(row.collect());
        assert!(facts.next().is_none(), "more facts than fact columns");
    }
    table
}

/// One shape check as the report prints it: `[PASS] <text>` or
/// `[FAIL] <text>`, the text starting with the check's id (`E10-2: ...`).
/// The only spelling of a verdict — CI compares the id set of a fresh
/// report with the committed one.
pub fn verdict(ok: bool, text: impl std::fmt::Display) -> String {
    format!("[{}] {text}", if ok { "PASS" } else { "FAIL" })
}

/// One block of the report: its tables, then its verdict (and winner)
/// lines.
pub fn section(tables: &[TextTable], lines: &[String]) -> String {
    let mut out: String = tables.iter().map(TextTable::render).collect();
    for line in lines {
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// Format a float with 2 decimals.
pub(crate) fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Format an optional statistic with 2 decimals. An absent value (the
/// underlying sample count was zero) renders as `n=0` — never NaN, never a
/// fabricated 0.00.
pub(crate) fn opt2(x: Option<f64>) -> String {
    x.map_or_else(|| "n=0".to_string(), f2)
}

/// Format an optional statistic with 3 decimals (rates/fractions), with
/// the same `n=0` convention as [`opt2`].
pub(crate) fn opt3(x: Option<f64>) -> String {
    x.map_or_else(|| "n=0".to_string(), |x| format!("{x:.3}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `RunMetrics` column.
    const ALL: [Col; 18] = [
        Col::COMMITS,
        Col::TXN_S,
        Col::DONE_S,
        Col::P50_MS,
        Col::P99_MS,
        Col::P50_US,
        Col::P99_US,
        Col::MEAN_MS,
        Col::L0_HOLD_MS,
        Col::MSG_PER_TXN,
        Col::ABORT_RATE,
        Col::INTENDED_RATE,
        Col::REDOS_PER_COMMIT,
        Col::UNDOS_PER_ABORT,
        Col::FORCES,
        Col::GRP_FORCES,
        Col::BATCHED,
        Col::FORCES_PER_COMMIT,
    ];

    #[test]
    fn renders_aligned() {
        let mut t = TextTable::new("demo", &["a", "long-header"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["100000".into(), "x".into()]);
        let s = t.render();
        assert!(s.contains("## demo"));
        let lines: Vec<&str> = s.lines().collect();
        // Title, header, separator, two rows.
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[3].len(), lines[4].len(), "aligned rows");
    }

    #[test]
    #[should_panic(expected = "column count")]
    fn arity_is_checked() {
        let mut t = TextTable::new("demo", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    /// Every column of the vocabulary over one hand-built run, then over a
    /// run that measured nothing: the header text, the format and the
    /// `n=0` convention of each, pinned once for every lane.
    #[test]
    fn every_column_renders_a_known_run_and_an_empty_one() {
        use std::time::Duration;
        let mut m = RunMetrics {
            committed: 8,
            aborted_intended: 2,
            aborted_erroneous: 1,
            l1_rejections: 3,
            wall: Duration::from_secs(2),
            total_commit_latency: Duration::from_millis(128),
            total_l0_hold: Duration::from_millis(48),
            l0_hold_count: 16,
            messages: 96,
            redo_runs: 4,
            undo_runs: 3,
            log_forces: 20,
            group_forces: 18,
            batched_commits: 40,
            ..RunMetrics::new()
        };
        for us in [1_000, 2_000, 3_000, 4_000, 5_000, 6_000, 7_000, 100_000] {
            m.latency_us.record(us);
        }
        let empty = RunMetrics::new();
        let rows = [(Vec::new(), &m), (Vec::new(), &empty)];
        let rendered = cells("golden", &ALL, rows).render();
        let cut = |line: &str| -> Vec<String> {
            let cells = line.trim_matches('|').split('|');
            cells.map(|c| c.trim().to_string()).collect()
        };
        let lines: Vec<&str> = rendered.lines().collect();
        let golden = [
            // header, the known run, the empty run
            ("commits", "8", "0"),
            ("txn/s", "4.00", "n=0"),
            ("done/s", "5.50", "n=0"),
            ("p50 ms", "4.00", "n=0"),
            ("p99 ms", "100.00", "n=0"),
            ("p50 µs", "4000", "n=0"),
            ("p99 µs", "100000", "n=0"),
            ("latency ms", "16.00", "n=0"),
            ("l0-hold ms", "3.00", "n=0"),
            ("msg/txn", "12.00", "n=0"),
            ("abort", "0.273", "n=0"),
            ("intended", "0.182", "n=0"),
            ("redos/commit", "0.500", "n=0"),
            ("undos/abort", "1.500", "n=0"),
            ("forces", "20", "0"),
            ("grp-forces", "18", "0"),
            ("batched", "40", "0"),
            ("forces/commit", "0.50", "n=0"),
        ];
        assert_eq!(lines[0], "## golden");
        assert_eq!(cut(lines[1]), golden.map(|g| g.0));
        assert_eq!(cut(lines[3]), golden.map(|g| g.1));
        assert_eq!(cut(lines[4]), golden.map(|g| g.2));
    }

    /// Facts fill the fact columns in order, between the metric columns,
    /// and a renamed column keeps its format.
    #[test]
    fn facts_interleave_with_metric_columns() {
        let m = RunMetrics {
            committed: 5,
            ..RunMetrics::new()
        };
        let cols = [
            Col::fact("axis"),
            Col::COMMITS.named("committed"),
            Col::fact("note"),
        ];
        let t = cells("t", &cols, [(vec!["a".to_string(), "b".to_string()], &m)]);
        let rendered = t.render();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines[1], "| axis | committed | note |");
        assert_eq!(lines[3], "| a    | 5         | b    |");
    }

    #[test]
    #[should_panic(expected = "a fact for every fact column")]
    fn a_missing_fact_is_caught() {
        cells(
            "t",
            &[Col::fact("axis")],
            [(Vec::new(), &RunMetrics::new())],
        );
    }

    #[test]
    #[should_panic(expected = "more facts than fact columns")]
    fn a_surplus_fact_is_caught() {
        let facts = vec!["a".to_string(), "b".to_string()];
        cells("t", &[Col::fact("axis")], [(facts, &RunMetrics::new())]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f2(1.2345), "1.23");
        assert_eq!(opt2(Some(1.2345)), "1.23");
        assert_eq!(opt2(None), "n=0");
        assert_eq!(opt3(Some(0.1239)), "0.124");
        assert_eq!(opt3(None), "n=0");
    }
}
