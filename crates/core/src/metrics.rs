//! Run metrics aggregated across a workload execution.

use amc_obs::Histogram;
use std::time::Duration;

/// What one workload run measured. All counters are totals; derived rates
/// come from the accessor methods, which return `None` instead of a bogus
/// number when the underlying count is zero (an idle run has no mean
/// latency — reports must say "n=0", never divide into NaN or fake a 0.0).
#[derive(Debug, Clone, Default)]
pub struct RunMetrics {
    /// Globally committed transactions.
    pub committed: u64,
    /// Global aborts caused by transaction logic (intended).
    pub aborted_intended: u64,
    /// Global aborts caused by local erroneous aborts propagating up
    /// (commit-before voting aborted, 2PC prepare failures, ...).
    pub aborted_erroneous: u64,
    /// Global transactions killed at L1 acquisition (deadlock/timeout)
    /// before touching any engine; the driver retries these.
    pub l1_rejections: u64,
    /// Attempts that returned an error instead of an outcome (a site or
    /// coordinator down mid-run); the driver ends that program.
    pub errors: u64,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Sum of per-transaction latencies (successful commits only).
    pub total_commit_latency: Duration,
    /// Sum of per-site L0 lock tenures (from first submit to local
    /// release), commits only.
    pub total_l0_hold: Duration,
    /// Number of (transaction, site) tenures in `total_l0_hold`.
    pub l0_hold_count: u64,
    /// Per-commit latency distribution in microseconds (p50/p99 for the
    /// E-report tables; the totals above stay for compatibility).
    pub latency_us: Histogram,
    /// Per-(transaction, site) L0 tenure distribution in microseconds.
    pub l0_hold_us: Histogram,
    /// Protocol messages exchanged.
    pub messages: u64,
    /// Commit-after repetitions executed.
    pub redo_runs: u64,
    /// Commit-before inverse transactions executed.
    pub undo_runs: u64,
    /// Pre-vote retries at the communication managers.
    pub pre_vote_retries: u64,
    /// Log forces across all engines.
    pub log_forces: u64,
    /// Durable log bytes across all engines.
    pub log_bytes: u64,
    /// Physical forces issued by the group-commit leaders (E9).
    pub group_forces: u64,
    /// Commit/prepare records acknowledged through group-commit batches.
    pub batched_commits: u64,
}

impl RunMetrics {
    /// Empty metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Committed transactions per second; `None` for a zero-length run.
    pub fn throughput(&self) -> Option<f64> {
        if self.wall.is_zero() {
            return None;
        }
        Some(self.committed as f64 / self.wall.as_secs_f64())
    }

    /// Mean commit latency in milliseconds; `None` when nothing committed.
    pub fn mean_latency_ms(&self) -> Option<f64> {
        if self.committed == 0 {
            return None;
        }
        Some(self.total_commit_latency.as_secs_f64() * 1e3 / self.committed as f64)
    }

    /// Median commit latency in milliseconds; `None` when nothing
    /// committed.
    pub fn latency_p50_ms(&self) -> Option<f64> {
        self.latency_us.p50().map(|us| us as f64 / 1e3)
    }

    /// 99th-percentile commit latency in milliseconds; `None` when nothing
    /// committed.
    pub fn latency_p99_ms(&self) -> Option<f64> {
        self.latency_us.p99().map(|us| us as f64 / 1e3)
    }

    /// Mean L0 lock tenure in milliseconds (claim C2c's series); `None`
    /// when no tenure was recorded.
    pub fn mean_l0_hold_ms(&self) -> Option<f64> {
        if self.l0_hold_count == 0 {
            return None;
        }
        Some(self.total_l0_hold.as_secs_f64() * 1e3 / self.l0_hold_count as f64)
    }

    /// Messages per committed transaction (E4); `None` when nothing
    /// committed.
    pub fn messages_per_commit(&self) -> Option<f64> {
        if self.committed == 0 {
            return None;
        }
        Some(self.messages as f64 / self.committed as f64)
    }

    /// Physical log forces per durably acknowledged commit/prepare record
    /// (E9's headline series: 1.0 when every record pays its own force,
    /// below 1 once group commit batches). `None` when no record was
    /// acknowledged through the durable path.
    pub fn forces_per_commit(&self) -> Option<f64> {
        if self.batched_commits == 0 {
            return None;
        }
        Some(self.log_forces as f64 / self.batched_commits as f64)
    }

    /// Commit-after repetitions per committed transaction (E2's headline
    /// series, §3.2); `None` when nothing committed.
    pub fn redos_per_commit(&self) -> Option<f64> {
        (self.committed > 0).then(|| self.redo_runs as f64 / self.committed as f64)
    }

    /// Commit-before inverse transactions per intended abort (claim C3-b, §3.3);
    /// `None` when no transaction intended its abort.
    pub fn undos_per_abort(&self) -> Option<f64> {
        (self.aborted_intended > 0).then(|| self.undo_runs as f64 / self.aborted_intended as f64)
    }

    /// Fraction of attempts that globally aborted; `None` when nothing ran.
    pub fn abort_rate(&self) -> Option<f64> {
        let total = self.committed + self.aborted_intended + self.aborted_erroneous;
        if total == 0 {
            return None;
        }
        Some((self.aborted_intended + self.aborted_erroneous) as f64 / total as f64)
    }

    /// Fraction of attempts aborted by the transaction's own logic (the
    /// §3.2/§3.3 intended aborts); `None` when nothing ran — the E15
    /// tables render that as `n=0`, never as a fabricated `0.00`.
    pub fn intended_abort_rate(&self) -> Option<f64> {
        let total = self.committed + self.aborted_intended + self.aborted_erroneous;
        if total == 0 {
            return None;
        }
        Some(self.aborted_intended as f64 / total as f64)
    }

    /// Commits plus aborts per second — "completions": aborted work costs
    /// wall time too, the denominator of the C3 (intended-abort) regime
    /// comparison. `None` for a zero-length run.
    pub fn completions_per_sec(&self) -> Option<f64> {
        if self.wall.is_zero() {
            return None;
        }
        let done = self.committed + self.aborted_intended + self.aborted_erroneous;
        Some(done as f64 / self.wall.as_secs_f64())
    }
}

#[cfg(test)]
impl RunMetrics {
    /// 99th-percentile L0 lock tenure in milliseconds.
    pub fn l0_hold_p99_ms(&self) -> Option<f64> {
        self.l0_hold_us.p99().map(|us| us as f64 / 1e3)
    }

    /// Fraction of attempts aborted erroneously (contention casualties:
    /// vote failures, prepare timeouts); `None` when nothing ran.
    pub fn erroneous_abort_rate(&self) -> Option<f64> {
        let total = self.committed + self.aborted_intended + self.aborted_erroneous;
        if total == 0 {
            return None;
        }
        Some(self.aborted_erroneous as f64 / total as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_rates() {
        let mut m = RunMetrics::new();
        m.committed = 100;
        m.wall = Duration::from_secs(2);
        m.total_commit_latency = Duration::from_millis(500);
        m.total_l0_hold = Duration::from_millis(300);
        m.l0_hold_count = 200;
        m.messages = 400;
        assert!((m.throughput().unwrap() - 50.0).abs() < 1e-9);
        assert!((m.mean_latency_ms().unwrap() - 5.0).abs() < 1e-9);
        assert!((m.mean_l0_hold_ms().unwrap() - 1.5).abs() < 1e-9);
        assert!((m.messages_per_commit().unwrap() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn empty_run_yields_none_not_nan() {
        let m = RunMetrics::new();
        assert_eq!(m.throughput(), None);
        assert_eq!(m.mean_latency_ms(), None);
        assert_eq!(m.mean_l0_hold_ms(), None);
        assert_eq!(m.messages_per_commit(), None);
        assert_eq!(m.abort_rate(), None);
        assert_eq!(m.latency_p50_ms(), None);
        assert_eq!(m.l0_hold_p99_ms(), None);
        // The PR 2 convention audited for the E15 columns: every rate
        // whose denominator can be zero is an Option, never NaN/0.0.
        assert_eq!(m.intended_abort_rate(), None);
        assert_eq!(m.erroneous_abort_rate(), None);
        assert_eq!(m.completions_per_sec(), None);
        assert_eq!(m.forces_per_commit(), None);
        assert_eq!(m.redos_per_commit(), None);
        assert_eq!(m.undos_per_abort(), None);
    }

    #[test]
    fn abort_rate_split_sums_to_the_total() {
        let mut m = RunMetrics::new();
        m.committed = 60;
        m.aborted_intended = 30;
        m.aborted_erroneous = 10;
        m.wall = Duration::from_secs(2);
        assert!((m.intended_abort_rate().unwrap() - 0.3).abs() < 1e-9);
        assert!((m.erroneous_abort_rate().unwrap() - 0.1).abs() < 1e-9);
        assert!(
            (m.intended_abort_rate().unwrap() + m.erroneous_abort_rate().unwrap()
                - m.abort_rate().unwrap())
            .abs()
                < 1e-9
        );
        assert!((m.completions_per_sec().unwrap() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn repetitions_are_per_commit_and_per_intended_abort() {
        let mut m = RunMetrics::new();
        m.committed = 40;
        m.redo_runs = 10;
        m.undo_runs = 6;
        assert_eq!(m.redos_per_commit(), Some(0.25));
        // No transaction intended its abort: no denominator, no ratio.
        assert_eq!(m.undos_per_abort(), None);
        m.aborted_intended = 4;
        m.aborted_erroneous = 9;
        assert_eq!(m.undos_per_abort(), Some(1.5));
    }

    #[test]
    fn percentiles_come_from_the_histograms() {
        let mut m = RunMetrics::new();
        for us in [1_000, 2_000, 3_000, 4_000, 100_000] {
            m.latency_us.record(us);
        }
        assert!((m.latency_p50_ms().unwrap() - 3.0).abs() < 1e-9);
        assert!((m.latency_p99_ms().unwrap() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn abort_rate_counts_both_kinds() {
        let mut m = RunMetrics::new();
        m.committed = 80;
        m.aborted_intended = 15;
        m.aborted_erroneous = 5;
        assert!((m.abort_rate().unwrap() - 0.2).abs() < 1e-9);
    }
}
