//! Fixed-precision (HDR-style sub-bucketed) histogram.
//!
//! A [`FixedHistogram`] subdivides every octave into `2^SUB_BITS = 32`
//! sub-buckets, bounding the relative quantization error of any
//! reported quantile at `1/32 ≈ 3.1%` while still covering the full
//! `u64` range with a fixed 1920-slot table (no allocation per
//! observation, no dynamic resizing).
//!
//! Like the rest of the `obs` metric types it is a cheap cloneable
//! handle over shared atomics, safe to feed from many threads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Sub-bucket precision: each power-of-two range is split into
/// `2^SUB_BITS` equal sub-buckets.
pub const SUB_BITS: u32 = 5;

const SUB_COUNT: u64 = 1 << SUB_BITS; // 32
/// Values below `2 * SUB_COUNT` are recorded exactly (one bucket per
/// integer value).
const EXACT_LIMIT: u64 = SUB_COUNT * 2; // 64
/// Total bucket count: 64 exact slots + 58 octaves × 32 sub-buckets.
const BUCKETS: usize = (EXACT_LIMIT + (63 - SUB_BITS as u64) * SUB_COUNT) as usize;

#[derive(Debug)]
struct Inner {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// A fixed-precision histogram over `u64` observations (≤3.1% relative
/// quantization error on any quantile).
#[derive(Debug, Clone)]
pub struct FixedHistogram {
    inner: Arc<Inner>,
}

impl Default for FixedHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl FixedHistogram {
    pub fn new() -> Self {
        FixedHistogram {
            inner: Arc::new(Inner {
                buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                max: AtomicU64::new(0),
            }),
        }
    }

    /// Bucket index for a value: exact below [`EXACT_LIMIT`], then one
    /// of 32 sub-buckets per octave.
    fn index(v: u64) -> usize {
        if v < EXACT_LIMIT {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros() as u64; // >= SUB_BITS + 1
        let shift = msb - SUB_BITS as u64;
        let sub = (v >> shift) - SUB_COUNT; // 0..SUB_COUNT
        (EXACT_LIMIT + (shift - 1) * SUB_COUNT + sub) as usize
    }

    /// Largest value mapping to the bucket at `index` (the bucket's
    /// inclusive upper bound, reported by quantile reads).
    fn upper_bound(index: usize) -> u64 {
        let index = index as u64;
        if index < EXACT_LIMIT {
            return index;
        }
        let rel = index - EXACT_LIMIT;
        let shift = rel / SUB_COUNT + 1;
        let sub = rel % SUB_COUNT;
        // The very top bucket's bound is 2^64, which wraps to exactly
        // u64::MAX after the decrement.
        ((SUB_COUNT + sub + 1) << shift).wrapping_sub(1)
    }

    /// Records one observation.
    pub fn observe(&self, v: u64) {
        self.inner.buckets[Self::index(v)].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(v, Ordering::Relaxed);
        self.inner.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded observations.
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.inner.max.load(Ordering::Relaxed)
    }

    /// Mean of the recorded observations (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Value at quantile `q` in `[0, 1]`: the upper bound of the first
    /// bucket whose cumulative count reaches `ceil(q * count)`. Within
    /// ~3.1% of the true order statistic; 0 when empty.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n);
        let mut cum = 0u64;
        for (i, b) in self.inner.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= rank {
                return Self::upper_bound(i).min(self.max());
            }
        }
        self.max()
    }

    /// Non-empty buckets as `(inclusive upper bound, count)`, ascending.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.inner
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let c = b.load(Ordering::Relaxed);
                (c > 0).then(|| (Self::upper_bound(i), c))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_below_limit() {
        let h = FixedHistogram::new();
        for v in 0..EXACT_LIMIT {
            h.observe(v);
        }
        for (i, (ub, c)) in h.buckets().into_iter().enumerate() {
            assert_eq!((ub, c), (i as u64, 1));
        }
    }

    #[test]
    fn index_and_upper_bound_are_consistent() {
        // Every bucket's upper bound must map back to that bucket, and
        // one past it must map to the next.
        for i in 0..BUCKETS {
            let ub = FixedHistogram::upper_bound(i);
            assert_eq!(FixedHistogram::index(ub), i, "upper bound of bucket {i}");
            if ub < u64::MAX {
                assert_eq!(FixedHistogram::index(ub + 1), i + 1);
            }
        }
        assert_eq!(FixedHistogram::index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_are_within_resolution() {
        let h = FixedHistogram::new();
        for v in 1..=10_000u64 {
            h.observe(v);
        }
        for (q, truth) in [(0.5, 5_000u64), (0.99, 9_900), (0.999, 9_990)] {
            let got = h.value_at_quantile(q);
            let err = (got as f64 - truth as f64).abs() / truth as f64;
            assert!(err <= 1.0 / 32.0 + 1e-9, "q={q}: got {got}, want ~{truth}");
            assert!(got >= truth, "bucket upper bound never under-reports");
        }
        assert_eq!(h.value_at_quantile(1.0), 10_000);
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.sum(), 50_005_000);
        assert_eq!(h.max(), 10_000);
    }

    #[test]
    fn empty_histogram_reads_zero() {
        let h = FixedHistogram::new();
        assert_eq!(h.value_at_quantile(0.99), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.buckets().is_empty());
    }

    #[test]
    fn clones_share_state_across_threads() {
        let h = FixedHistogram::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = h.clone();
                s.spawn(move || {
                    for v in 0..1000u64 {
                        h.observe(v * 4 + t);
                    }
                });
            }
        });
        assert_eq!(h.count(), 4000);
        assert_eq!(h.max(), 3999);
    }
}
