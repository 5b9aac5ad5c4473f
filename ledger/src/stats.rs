//! Small numeric helpers: repeat summaries, the percentile sample
//! guard, and the result digest.

use crate::catalog::Better;

/// One metric over a run's timed sections.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The best quartile: the 25th percentile of a lower-is-better
    /// metric, the 75th of a higher-is-better one. This is what a run
    /// reports. Interference on a shared host only ever adds time — the
    /// reference box slows by 30–40 % for ~2 s every ~7 s, which hits a
    /// third of all sections — so the median flips whenever a run's
    /// bursts happen to cover half its sections, while the best quartile
    /// moves only if they cover three quarters.
    pub best: f64,
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

/// The `q` quantile of sorted `v`, interpolating between neighbours.
fn quantile_sorted(v: &[f64], q: f64) -> f64 {
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

impl Summary {
    /// Summarises `values`. `None` on an empty slice.
    pub fn of(values: &[f64], better: Better) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let best_q = match better {
            Better::Lower => 0.25,
            Better::Higher => 0.75,
        };
        Some(Summary {
            best: quantile_sorted(&v, best_q),
            median: quantile_sorted(&v, 0.5),
            min: v[0],
            max: v[v.len() - 1],
        })
    }

    /// `(max − min) / median`, in percent.
    pub fn spread_pct(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.max - self.min) / self.median * 100.0
        }
    }
}

/// The median of `values`, or 0 when there are none (a metric that does
/// not apply to the workload).
pub fn median_or_zero(values: &[f64]) -> f64 {
    Summary::of(values, Better::Lower).map_or(0.0, |s| s.median)
}

/// How many of `count` samples lie beyond the `percentile`-th
/// percentile (whole percent).
pub fn samples_beyond(count: u64, percentile: u64) -> u64 {
    count * (100 - percentile) / 100
}

/// A percentile is reported only with at least this many samples
/// beyond it (choosing-metrics §1).
pub const MIN_TAIL_SAMPLES: u64 = 10;

/// Whether a p99 over `count` samples has enough samples beyond it.
pub fn p99_is_supported(count: u64) -> bool {
    samples_beyond(count, 99) >= MIN_TAIL_SAMPLES
}

/// FNV-1a over a byte string — the fold `crates/lab/tests/run_golden.rs`
/// pins run results with.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a fold.
pub fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_takes_best_quartile_median_min_max_over_repeats() {
        let odd = Summary::of(&[3.0, 1.0, 2.0], Better::Lower).unwrap();
        assert_eq!((odd.median, odd.min, odd.max), (2.0, 1.0, 3.0));
        assert_eq!(odd.best, 1.5);
        let even = Summary::of(&[4.0, 1.0, 3.0, 2.0], Better::Lower).unwrap();
        assert_eq!((even.median, even.min, even.max), (2.5, 1.0, 4.0));
        assert_eq!(even.best, 1.75);
        // Higher is better: the best quartile is the upper one.
        let up = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0], Better::Higher).unwrap();
        assert_eq!((up.best, up.median), (4.0, 3.0));
        // One slow outlier in five moves neither the quartile nor the median.
        let hit = Summary::of(&[1.0, 1.0, 1.0, 1.0, 9.0], Better::Lower).unwrap();
        assert_eq!((hit.best, hit.median), (1.0, 1.0));
        assert_eq!(
            Summary::of(&[5.0], Better::Lower).unwrap().spread_pct(),
            0.0
        );
        assert!((odd.spread_pct() - 100.0).abs() < 1e-12);
        assert!(Summary::of(&[], Better::Lower).is_none());
        assert_eq!(median_or_zero(&[]), 0.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(samples_beyond(999, 99), 9);
        assert!(!p99_is_supported(999));
        assert_eq!(samples_beyond(1_000, 99), 10);
        assert!(p99_is_supported(1_000));
        assert!(!p99_is_supported(0));
    }

    #[test]
    fn fnv1a_matches_reference_vectors_and_folds_incrementally() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_extend(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
    }
}
