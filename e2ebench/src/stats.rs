//! Percentiles and the "highest percentile with enough tail" rule.

/// Samples that must lie beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `q` (0 < q ≤ 1) of `sorted` (ascending).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly above the nearest-rank percentile `q` of `n`
/// samples.
pub fn beyond(n: usize, q: f64) -> usize {
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// The highest of the usual reporting percentiles that still has at
/// least [`TAIL_SAMPLES`] samples beyond it, for `n` samples; `None`
/// when even the median has fewer.
pub fn highest_supported(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.95, 0.9, 0.5]
        .into_iter()
        .find(|&q| beyond(n, q) >= TAIL_SAMPLES)
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Sorts a copy ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
    }

    #[test]
    fn highest_supported_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported(5), None);
        assert_eq!(highest_supported(20), Some(0.5));
        assert_eq!(highest_supported(100), Some(0.9));
        assert_eq!(highest_supported(199), Some(0.9));
        assert_eq!(highest_supported(200), Some(0.95));
        assert_eq!(highest_supported(999), Some(0.95));
        assert_eq!(highest_supported(1_000), Some(0.99));
        assert_eq!(highest_supported(10_000), Some(0.999));
        for n in 1..3_000 {
            if let Some(q) = highest_supported(n) {
                assert!(beyond(n, q) >= TAIL_SAMPLES, "n={n} q={q}");
            }
        }
    }
}
