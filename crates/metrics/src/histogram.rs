//! HDR-style log-linear histogram with bounded relative error.
//!
//! The layout follows the classic HdrHistogram design: values are grouped
//! into exponential *buckets*, each split into a fixed number of linear
//! *sub-buckets*, so any recorded value is representable with a relative
//! error below `10^-significant_digits`. Memory is proportional to
//! `log2(max/min) × 10^significant_digits`, independent of sample count —
//! we record hundreds of millions of request latencies per experiment
//! without allocating per sample.

use serde::{Deserialize, Serialize};

/// Configuration and counts for a log-linear histogram of `u64` values.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    lowest_discernible: u64,
    highest_trackable: u64,
    significant_digits: u8,
    unit_magnitude: u32,
    sub_bucket_half_count_magnitude: u32,
    sub_bucket_count: u32,
    sub_bucket_half_count: u32,
    sub_bucket_mask: u64,
    bucket_count: u32,
    counts: Vec<u64>,
    total: u64,
    /// Values above `highest_trackable` are clamped and counted here too.
    saturated: u64,
    min_recorded: u64,
    max_recorded: u64,
}

impl Histogram {
    /// Creates a histogram covering `[lowest_discernible, highest_trackable]`
    /// with `significant_digits` decimal digits of precision (1..=5).
    ///
    /// # Panics
    /// Panics if the bounds are inverted, `lowest_discernible` is zero, or
    /// `significant_digits` is out of range.
    pub fn new(lowest_discernible: u64, highest_trackable: u64, significant_digits: u8) -> Self {
        assert!(lowest_discernible >= 1, "lowest_discernible must be >= 1");
        assert!(
            highest_trackable >= lowest_discernible * 2,
            "highest_trackable must be at least 2x lowest_discernible"
        );
        assert!(
            (1..=5).contains(&significant_digits),
            "significant_digits must be in 1..=5"
        );

        let largest_resolvable = 2 * 10u64.pow(significant_digits as u32);
        let unit_magnitude = lowest_discernible.ilog2();
        // Smallest power of two >= largest_resolvable.
        let sub_bucket_count_magnitude = 64 - (largest_resolvable - 1).leading_zeros();
        let sub_bucket_half_count_magnitude = sub_bucket_count_magnitude.saturating_sub(1);
        let sub_bucket_count = 1u32 << sub_bucket_count_magnitude;
        let sub_bucket_half_count = sub_bucket_count / 2;
        let sub_bucket_mask = ((sub_bucket_count as u64) - 1) << unit_magnitude;

        // Number of buckets needed so the last bucket covers
        // highest_trackable.
        let mut smallest_untrackable = (sub_bucket_count as u64) << unit_magnitude;
        let mut bucket_count = 1u32;
        while smallest_untrackable <= highest_trackable {
            if smallest_untrackable > u64::MAX / 2 {
                bucket_count += 1;
                break;
            }
            smallest_untrackable <<= 1;
            bucket_count += 1;
        }

        let counts_len = ((bucket_count as usize) + 1) * (sub_bucket_half_count as usize);
        Histogram {
            lowest_discernible,
            highest_trackable,
            significant_digits,
            unit_magnitude,
            sub_bucket_half_count_magnitude,
            sub_bucket_count,
            sub_bucket_half_count,
            sub_bucket_mask,
            bucket_count,
            counts: vec![0; counts_len],
            total: 0,
            saturated: 0,
            min_recorded: u64::MAX,
            max_recorded: 0,
        }
    }

    /// A histogram suited to latencies in nanoseconds: 1 µs discernible,
    /// 100 s trackable, 3 significant digits (≤0.1% relative error).
    pub fn for_latency_ns() -> Self {
        Histogram::new(1_000, 100_000_000_000, 3)
    }

    /// Records one occurrence of `value`. Values below the discernible
    /// floor are clamped up; values above the trackable ceiling are clamped
    /// down and tallied in [`Histogram::saturated_count`].
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `count` occurrences of `value`.
    pub fn record_n(&mut self, value: u64, count: u64) {
        if count == 0 {
            return;
        }
        let clamped = if value > self.highest_trackable {
            self.saturated += count;
            self.highest_trackable
        } else {
            value.max(self.lowest_discernible)
        };
        let idx = self.counts_index_for(clamped);
        self.counts[idx] += count;
        self.total += count;
        self.min_recorded = self.min_recorded.min(clamped);
        self.max_recorded = self.max_recorded.max(clamped);
    }

    /// Total recorded count.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// How many recorded values exceeded the trackable ceiling.
    pub fn saturated_count(&self) -> u64 {
        self.saturated
    }

    /// Smallest recorded value (after clamping), or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            self.min_recorded
        }
    }

    /// Largest recorded value (after clamping), or 0 if empty.
    pub fn max(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            self.max_recorded
        }
    }

    /// Arithmetic mean of recorded values, using bucket midpoints.
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let mut sum = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                sum += self.median_equivalent(self.value_from_index(i)) as f64 * c as f64;
            }
        }
        sum / self.total as f64
    }

    /// The value at quantile `q ∈ [0, 1]`: the smallest representable value
    /// such that at least `ceil(q × total)` recorded values are ≤ it.
    /// Returns 0 on an empty histogram.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.is_empty() {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.total as f64).ceil() as u64)
            .max(1)
            .min(self.total);
        let mut running = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            running += c;
            if running >= target {
                return self
                    .highest_equivalent(self.value_from_index(i))
                    .min(self.max_recorded);
            }
        }
        self.max_recorded
    }

    /// Convenience: value at a percentile in `[0, 100]`.
    pub fn value_at_percentile(&self, p: f64) -> u64 {
        self.value_at_quantile(p / 100.0)
    }

    /// Number of recorded values `<= value` (using bucket resolution).
    pub fn count_at_or_below(&self, value: u64) -> u64 {
        if self.is_empty() {
            return 0;
        }
        let clamped = value
            .min(self.highest_trackable)
            .max(self.lowest_discernible);
        let idx = self.counts_index_for(clamped);
        self.counts[..=idx].iter().sum()
    }

    /// Merges `other` into `self`.
    ///
    /// # Panics
    /// Panics if the histograms were built with different configurations.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            (
                self.lowest_discernible,
                self.highest_trackable,
                self.significant_digits
            ),
            (
                other.lowest_discernible,
                other.highest_trackable,
                other.significant_digits
            ),
            "cannot merge histograms with different configurations"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.saturated += other.saturated;
        if other.total > 0 {
            self.min_recorded = self.min_recorded.min(other.min_recorded);
            self.max_recorded = self.max_recorded.max(other.max_recorded);
        }
    }

    /// Resets all counts, keeping the configuration.
    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
        self.saturated = 0;
        self.min_recorded = u64::MAX;
        self.max_recorded = 0;
    }

    /// The configured relative-error bound, `10^-significant_digits`.
    pub fn relative_error_bound(&self) -> f64 {
        10f64.powi(-(self.significant_digits as i32))
    }

    // --- index math (HdrHistogram layout) ---

    fn bucket_index(&self, value: u64) -> u32 {
        // Index of the exponential bucket containing `value`.
        let pow2ceiling = 64 - (value | self.sub_bucket_mask).leading_zeros();
        pow2ceiling - self.unit_magnitude - (self.sub_bucket_half_count_magnitude + 1)
    }

    fn sub_bucket_index(&self, value: u64, bucket_idx: u32) -> u32 {
        (value >> (bucket_idx + self.unit_magnitude)) as u32
    }

    fn counts_index_for(&self, value: u64) -> usize {
        let bucket_idx = self.bucket_index(value);
        let sub_idx = self.sub_bucket_index(value, bucket_idx);
        debug_assert!(sub_idx < self.sub_bucket_count);
        debug_assert!(bucket_idx == 0 || sub_idx >= self.sub_bucket_half_count);
        let base = ((bucket_idx as usize) + 1) * (self.sub_bucket_half_count as usize);
        let offset = (sub_idx as isize) - (self.sub_bucket_half_count as isize);
        (base as isize + offset) as usize
    }

    fn value_from_index(&self, index: usize) -> u64 {
        let mut bucket_idx = (index >> self.sub_bucket_half_count_magnitude) as isize - 1;
        let mut sub_idx = (index & ((self.sub_bucket_half_count as usize) - 1))
            + self.sub_bucket_half_count as usize;
        if bucket_idx < 0 {
            sub_idx -= self.sub_bucket_half_count as usize;
            bucket_idx = 0;
        }
        (sub_idx as u64) << (bucket_idx as u32 + self.unit_magnitude)
    }

    /// Width of the bucket containing `value`.
    fn size_of_equivalent_range(&self, value: u64) -> u64 {
        let bucket_idx = self.bucket_index(value);
        1u64 << (self.unit_magnitude + bucket_idx)
    }

    /// Largest value indistinguishable from `value`.
    fn highest_equivalent(&self, value: u64) -> u64 {
        let bucket_idx = self.bucket_index(value);
        let lower =
            (self.sub_bucket_index(value, bucket_idx) as u64) << (bucket_idx + self.unit_magnitude);
        lower + self.size_of_equivalent_range(value) - 1
    }

    /// Midpoint of the bucket containing `value`.
    fn median_equivalent(&self, value: u64) -> u64 {
        let bucket_idx = self.bucket_index(value);
        let lower =
            (self.sub_bucket_index(value, bucket_idx) as u64) << (bucket_idx + self.unit_magnitude);
        lower + (self.size_of_equivalent_range(value) >> 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_counts() {
        let mut h = Histogram::new(1, 1_000_000, 3);
        h.record(100);
        h.record(200);
        h.record_n(300, 3);
        assert_eq!(h.len(), 5);
        assert_eq!(h.min(), 100);
        assert_eq!(h.max(), 300);
    }

    #[test]
    fn exact_at_low_values() {
        // With 3 significant digits, values below 2000 land in dedicated
        // unit-width sub-buckets: quantiles are exact.
        let mut h = Histogram::new(1, 1_000_000, 3);
        for v in 1..=1000 {
            h.record(v);
        }
        assert_eq!(h.value_at_quantile(0.5), 500);
        assert_eq!(h.value_at_quantile(0.99), 990);
        assert_eq!(h.value_at_quantile(1.0), 1000);
        assert_eq!(h.value_at_quantile(0.0), 1);
    }

    #[test]
    fn relative_error_bounded_at_high_values() {
        let mut h = Histogram::new(1, u64::MAX / 4, 3);
        let value = 1_234_567_890;
        h.record(value);
        let got = h.value_at_quantile(1.0);
        let err = (got as f64 - value as f64).abs() / value as f64;
        assert!(
            err <= h.relative_error_bound(),
            "error {err} exceeds bound {}",
            h.relative_error_bound()
        );
    }

    #[test]
    fn quantiles_are_monotone() {
        let mut h = Histogram::for_latency_ns();
        for i in 0..10_000u64 {
            h.record(1_000 + i * 37);
        }
        let mut prev = 0;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0] {
            let v = h.value_at_quantile(q);
            assert!(v >= prev, "quantile {q} not monotone: {v} < {prev}");
            prev = v;
        }
    }

    #[test]
    fn saturation_is_tracked() {
        let mut h = Histogram::new(1_000, 10_000, 2);
        h.record(50_000);
        assert_eq!(h.saturated_count(), 1);
        assert!(h.max() <= 10_000 + 10_000 / 100);
    }

    #[test]
    fn below_floor_clamps_up() {
        let mut h = Histogram::new(1_000, 1_000_000, 3);
        h.record(3);
        assert_eq!(h.min(), 1_000);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn merge_equals_union() {
        let mut a = Histogram::new(1, 1_000_000, 3);
        let mut b = Histogram::new(1, 1_000_000, 3);
        let mut u = Histogram::new(1, 1_000_000, 3);
        for v in [5u64, 100, 20_000, 999_999] {
            a.record(v);
            u.record(v);
        }
        for v in [7u64, 300, 40_000] {
            b.record(v);
            u.record(v);
        }
        a.merge(&b);
        assert_eq!(a.len(), u.len());
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            assert_eq!(a.value_at_quantile(q), u.value_at_quantile(q));
        }
    }

    #[test]
    #[should_panic(expected = "different configurations")]
    fn merge_rejects_mismatched_config() {
        let mut a = Histogram::new(1, 1_000_000, 3);
        let b = Histogram::new(1, 1_000_000, 2);
        a.merge(&b);
    }

    #[test]
    fn clear_resets() {
        let mut h = Histogram::new(1, 1000, 2);
        h.record(500);
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.value_at_quantile(0.5), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn mean_close_to_true_mean() {
        let mut h = Histogram::new(1, 10_000_000, 3);
        let mut sum = 0u64;
        let n = 5_000u64;
        for i in 0..n {
            let v = 1 + i * 13;
            h.record(v);
            sum += v;
        }
        let true_mean = sum as f64 / n as f64;
        let err = (h.mean() - true_mean).abs() / true_mean;
        assert!(err < 0.01, "mean error {err}");
    }

    #[test]
    fn count_at_or_below_matches_quantile_inverse() {
        let mut h = Histogram::new(1, 100_000, 3);
        for v in 1..=100u64 {
            h.record(v * 100);
        }
        assert_eq!(h.count_at_or_below(100), 1);
        assert_eq!(h.count_at_or_below(5_000), 50);
        assert_eq!(h.count_at_or_below(10_000), 100);
    }

    #[test]
    fn latency_preset_covers_typical_range() {
        let mut h = Histogram::for_latency_ns();
        h.record(50_000); // 50µs
        h.record(1_000_000); // 1ms
        h.record(10_000_000_000); // 10s
        assert_eq!(h.saturated_count(), 0);
        assert_eq!(h.len(), 3);
    }
}
