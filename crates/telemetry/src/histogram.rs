//! The log-bucketed latency histogram shared by the registry, the serving
//! reports and the benches (promoted here from `camdnn-bench`, which keeps a
//! re-export).

use std::time::Duration;

/// The 1-based nearest rank of the `pct`th percentile among `count` sorted
/// observations: the smallest rank holding at least `pct`% of the mass (at
/// least 1). Exact integers in `u128`, so neither an `f64` product
/// (`0.07 * 100.0 > 7`) nor a fleet-scale `u64` one can shift the rank.
pub fn nearest_rank(count: u64, pct: u64) -> u64 {
    ((u128::from(count) * u128::from(pct)).div_ceil(100).max(1)) as u64
}

/// Sub-buckets per power of two of the log-linear histogram: values are
/// resolved to within `1/32` (~3%) of their magnitude.
const HISTOGRAM_SUB_BUCKETS: u64 = 32;
const HISTOGRAM_SUB_SHIFT: u32 = 5; // log2(HISTOGRAM_SUB_BUCKETS)

/// A mergeable log-bucketed latency histogram over nanosecond values.
///
/// Buckets are log-linear (32 linear sub-buckets per power of two), so any
/// `u64` latency lands in one of ~1900 fixed buckets with at most ~3%
/// relative quantisation error — the usual HDR-style trade-off. Percentiles
/// are read with the nearest-rank rule over bucket upper bounds, and two
/// histograms [`merge`](Self::merge) by adding counts (merge is associative
/// and commutative — property-tested in this crate), which makes the type
/// suitable for accumulating per-thread or per-run distributions without
/// keeping every sample.
///
/// # Example
///
/// ```
/// use telemetry::LatencyHistogram;
///
/// let mut histogram = LatencyHistogram::new();
/// for v in 1..=1000u64 {
///     histogram.record_ns(v);
/// }
/// assert_eq!(histogram.count(), 1000);
/// let p50 = histogram.percentile_ns(50);
/// assert!((485..=515).contains(&p50), "p50 within 3%: {p50}");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        // Index space: values below 32 map 1:1; every further power of two
        // contributes 32 sub-buckets, up to the 2^63 octave.
        let octaves = 64 - HISTOGRAM_SUB_SHIFT as usize;
        LatencyHistogram {
            counts: vec![0; (octaves + 1) * HISTOGRAM_SUB_BUCKETS as usize],
            total: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    pub(crate) fn bucket_index(value_ns: u64) -> usize {
        if value_ns < HISTOGRAM_SUB_BUCKETS {
            return value_ns as usize;
        }
        let exponent = 63 - value_ns.leading_zeros();
        let shift = exponent - HISTOGRAM_SUB_SHIFT;
        let sub = (value_ns >> shift) - HISTOGRAM_SUB_BUCKETS;
        ((shift as u64 + 1) * HISTOGRAM_SUB_BUCKETS + sub) as usize
    }

    /// Largest value that maps to bucket `index` (the representative a
    /// percentile read returns).
    pub(crate) fn bucket_bound(index: usize) -> u64 {
        let index = index as u64;
        if index < HISTOGRAM_SUB_BUCKETS {
            return index;
        }
        let shift = (index / HISTOGRAM_SUB_BUCKETS - 1) as u32;
        let sub = index % HISTOGRAM_SUB_BUCKETS;
        // In u128: the top bucket's bound is exactly 2^64 - 1.
        let bound = ((u128::from(HISTOGRAM_SUB_BUCKETS + sub) + 1) << shift) - 1;
        bound.min(u128::from(u64::MAX)) as u64
    }

    /// Records one latency in nanoseconds.
    pub fn record_ns(&mut self, value_ns: u64) {
        self.counts[Self::bucket_index(value_ns)] += 1;
        self.total += 1;
        self.sum_ns += u128::from(value_ns);
        self.min_ns = self.min_ns.min(value_ns);
        self.max_ns = self.max_ns.max(value_ns);
    }

    /// Records one wall-clock duration.
    pub fn record(&mut self, duration: Duration) {
        self.record_ns(duration.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of the recorded values, in nanoseconds (exact, in `u128`).
    pub fn sum_ns(&self) -> u128 {
        self.sum_ns
    }

    /// Smallest recorded value (exact), or 0 when empty.
    pub fn min_ns(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min_ns
        }
    }

    /// Largest recorded value (exact).
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Mean of the recorded values (exact), or 0 when empty.
    pub fn mean_ns(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            (self.sum_ns / u128::from(self.total)) as u64
        }
    }

    /// The nearest-rank `pct` percentile ([`nearest_rank`], `pct` in
    /// `1..=100`), resolved to the containing bucket's upper bound (within
    /// ~3% of the exact value); 0 when empty.
    pub fn percentile_ns(&self, pct: u64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = nearest_rank(self.total, pct);
        let mut seen = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                // Never report beyond the exact maximum.
                return Self::bucket_bound(index).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Adds every recorded value of `other` into `self`.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// The occupied buckets as `(upper_bound_ns, count)` pairs, in
    /// ascending bound order — the sparse form the snapshot serializes.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &count)| count > 0)
            .map(|(index, &count)| (Self::bucket_bound(index), count))
            .collect()
    }

    /// Renders `p50/p95/p99/max` in milliseconds for bench logs.
    pub fn summary_ms(&self) -> String {
        format!(
            "p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms, max {:.3} ms (n={})",
            self.percentile_ns(50) as f64 / 1e6,
            self.percentile_ns(95) as f64 / 1e6,
            self.percentile_ns(99) as f64 / 1e6,
            self.max_ns() as f64 / 1e6,
            self.total
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_cover_the_u64_range_in_order() {
        // Bucket bounds are monotone and every value maps to a bucket whose
        // bound is >= the value with <= ~3.2% relative error.
        for value in [
            0u64,
            1,
            31,
            32,
            63,
            64,
            1000,
            123_456,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let index = LatencyHistogram::bucket_index(value);
            let bound = LatencyHistogram::bucket_bound(index);
            assert!(bound >= value, "bound {bound} < value {value}");
            assert!(
                bound - value <= value / 32 + 1,
                "bucket too coarse at {value}: bound {bound}"
            );
        }
        let bounds: Vec<u64> = (0..200).map(LatencyHistogram::bucket_bound).collect();
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn histogram_percentiles_track_exact_ranks() {
        let mut histogram = LatencyHistogram::new();
        for value in 1..=10_000u64 {
            histogram.record_ns(value);
        }
        assert_eq!(histogram.count(), 10_000);
        assert_eq!(histogram.min_ns(), 1);
        assert_eq!(histogram.max_ns(), 10_000);
        assert_eq!(histogram.mean_ns(), 5_000);
        for (pct, exact) in [(50, 5_000u64), (95, 9_500), (99, 9_900)] {
            let got = histogram.percentile_ns(pct);
            let error = got.abs_diff(exact);
            assert!(
                error * 32 <= exact,
                "p{pct}: got {got}, exact {exact} (error {error})"
            );
        }
        assert!(histogram.summary_ms().contains("n=10000"));
        // An empty histogram reads as zeros.
        let empty = LatencyHistogram::new();
        assert_eq!(
            (empty.percentile_ns(99), empty.mean_ns(), empty.min_ns()),
            (0, 0, 0)
        );
    }

    #[test]
    fn percentiles_use_exact_integer_ranks() {
        // Values below 64 have exact buckets, so p7 of 1..=100 is 7. An f64
        // rank (0.07 * 100.0 = 7.000000000000001, ceiling 8) read 8 here,
        // and p14, p28, p55 and p56 one too high the same way.
        let mut histogram = LatencyHistogram::new();
        for value in 1..=100u64 {
            histogram.record_ns(value);
        }
        assert_eq!(
            [7, 14, 28, 55, 56].map(|pct| histogram.percentile_ns(pct)),
            [7, 14, 28, 55, 56]
        );
        for pct in 1..=100u64 {
            let bound = LatencyHistogram::bucket_bound(LatencyHistogram::bucket_index(pct));
            assert_eq!(histogram.percentile_ns(pct), bound.min(100), "p{pct}");
        }
    }

    #[test]
    fn nearest_rank_survives_giant_counts() {
        // Regression: `count * pct` used to be computed in u64, wrapping for
        // counts beyond ~1.8e17 — exactly the regime of fleet traces.
        let giant = u64::MAX / 2;
        assert_eq!(nearest_rank(giant, 100), giant);
        assert_eq!(nearest_rank(giant, 50), giant.div_ceil(2));
        assert_eq!(nearest_rank(u64::MAX, 99), {
            let exact = (u128::from(u64::MAX) * 99).div_ceil(100);
            u64::try_from(exact).expect("fits")
        });
        assert_eq!(nearest_rank(0, 99), 1); // clamp guards the empty edge
    }

    // Nearest rank stays exact at any count: the *smallest* rank whose
    // prefix holds at least `pct`% of the observations.
    proptest::proptest! {
        #[test]
        fn nearest_rank_matches_its_definition(count in 1u64..=u64::MAX, pct in 1u64..=100u64) {
            let rank = nearest_rank(count, pct);
            proptest::prop_assert!(rank >= 1 && rank <= count);
            let mass = u128::from(count) * u128::from(pct);
            proptest::prop_assert!(u128::from(rank) * 100 >= mass);
            proptest::prop_assert!(rank == 1 || (u128::from(rank) - 1) * 100 < mass);
        }
    }

    #[test]
    fn histogram_merge_equals_combined_recording() {
        let mut left = LatencyHistogram::new();
        let mut right = LatencyHistogram::new();
        let mut combined = LatencyHistogram::new();
        for value in 0..5_000u64 {
            let scaled = value * 37 + 11;
            if value % 2 == 0 {
                left.record_ns(scaled);
            } else {
                right.record_ns(scaled);
            }
            combined.record_ns(scaled);
        }
        left.merge(&right);
        assert_eq!(left, combined);
        left.record(Duration::from_micros(3));
        assert_eq!(left.count(), combined.count() + 1);
    }

    #[test]
    fn nonzero_buckets_are_sparse_and_ordered() {
        let mut histogram = LatencyHistogram::new();
        histogram.record_ns(5);
        histogram.record_ns(5);
        histogram.record_ns(1_000_000);
        let buckets = histogram.nonzero_buckets();
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0], (5, 2));
        assert!(buckets[1].0 >= 1_000_000 && buckets[1].1 == 1);
        assert!(buckets.windows(2).all(|w| w[0].0 < w[1].0));
    }
}
