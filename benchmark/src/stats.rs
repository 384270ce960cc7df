//! Order statistics for the ledger: medians, nearest-rank percentiles,
//! and the "highest percentile with at least ten samples beyond it" rule.

/// The percentiles the ledger ever names, lowest first.
pub const TAILS: [f64; 4] = [0.90, 0.95, 0.99, 0.999];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Samples strictly beyond percentile `p` of `n` samples (nearest rank).
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    (((n as f64) * p).ceil() as usize).clamp(1, n.max(1))
}

/// The highest of [`TAILS`] that still has [`MIN_BEYOND`] samples beyond
/// it, or `None` when even p90 does not (fewer than 100 samples).
pub fn highest_supported_tail(n: usize) -> Option<f64> {
    TAILS
        .iter()
        .copied()
        .rev()
        .find(|&p| n > 0 && samples_beyond(n, p) >= MIN_BEYOND)
}

/// Nearest-rank percentile of an ascending slice; 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Sorts ascending (NaN-free input).
pub fn sort(v: &mut [f64]) {
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
}

/// Median (mean of the middle two for even counts); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    sort(&mut s);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nanosecond samples → sorted values in another unit (`per_unit`
/// nanoseconds each).
pub fn sorted_in(samples_ns: &[u64], per_unit: f64) -> Vec<f64> {
    let mut v: Vec<f64> = samples_ns.iter().map(|&ns| ns as f64 / per_unit).collect();
    sort(&mut v);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_percentile_rule_picks_the_highest_tail_with_ten_beyond() {
        assert_eq!(highest_supported_tail(50), None);
        assert_eq!(highest_supported_tail(99), None);
        assert_eq!(highest_supported_tail(100), Some(0.90));
        assert_eq!(highest_supported_tail(199), Some(0.90));
        assert_eq!(highest_supported_tail(200), Some(0.95));
        assert_eq!(highest_supported_tail(999), Some(0.95));
        assert_eq!(highest_supported_tail(1000), Some(0.99));
        assert_eq!(highest_supported_tail(9_999), Some(0.99));
        assert_eq!(highest_supported_tail(10_000), Some(0.999));
        assert_eq!(samples_beyond(2_500, 0.99), 25);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.999), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
