//! Order statistics shared by the run, trace, probe and compare paths.

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100); 0 for
/// an empty slice, so an absent population prints as 0 rather than NaN.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (mean of the two middle values when even); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The distance between the first and third quartile as a share of the
/// median, with quartiles as Python's `statistics.quantiles(v, n=4)`
/// gives them — the spread BENCHMARK.json's bounds are calibrated
/// against. 0 with fewer than two values or a zero median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let m = values.len();
    let mid = median(values);
    if m < 2 || mid == 0.0 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (quartile(3) - quartile(1)) / mid.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2, 5, 4], n=4) == [1.5, 3.0, 4.5]
        assert!((quartile_spread(&[3.0, 1.0, 2.0, 5.0, 4.0]) - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[7.0]), 0.0);
    }
}
