//! Plain-text table rendering for the `report` binary.

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

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
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
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Format a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Format an optional statistic with 2 decimals. An absent value (the
/// underlying sample count was zero) renders as `n=0` — never NaN, never a
/// fabricated 0.00.
pub fn opt2(x: Option<f64>) -> String {
    x.map_or_else(|| "n=0".to_string(), f2)
}

/// Format an optional statistic with 3 decimals (rates/fractions), with
/// the same `n=0` convention as [`opt2`].
pub fn opt3(x: Option<f64>) -> String {
    x.map_or_else(|| "n=0".to_string(), f3)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "column count")]
    fn arity_is_checked() {
        let mut t = TextTable::new("demo", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f2(1.2345), "1.23");
        assert_eq!(f3(1.2345), "1.234");
        assert_eq!(opt2(Some(1.2345)), "1.23");
        assert_eq!(opt2(None), "n=0");
        assert_eq!(opt3(Some(0.1239)), "0.124");
        assert_eq!(opt3(None), "n=0");
    }
}
