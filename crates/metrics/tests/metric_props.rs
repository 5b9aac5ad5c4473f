//! Property tests for the metrics layer beyond the histogram-accuracy
//! suite (`histogram_props.rs`): percentile ordering and merge algebra.
//! These are the invariants every latency number in a report rests on —
//! the thinnest-covered crate in the workspace until this file.

use brb_metrics::{Histogram, Percentiles};
use proptest::prelude::*;

fn hist_of(values: &[u64]) -> Histogram {
    let mut h = Histogram::new(1_000, 100_000_000_000, 3);
    for &v in values {
        h.record(v);
    }
    h
}

/// Quantile fingerprint used to compare histograms observationally.
fn quantiles(h: &Histogram) -> Vec<u64> {
    (0..=20)
        .map(|i| h.value_at_quantile(i as f64 / 20.0))
        .collect()
}

proptest! {
    /// The paper's reporting triple is ordered for arbitrary samples:
    /// p50 ≤ p95 ≤ p99 ≤ max, and the mean sits inside [min, max] —
    /// through both the exact path and the histogram path.
    #[test]
    fn percentile_triple_is_monotone(
        values in proptest::collection::vec(0.001f64..1e7, 1..400),
    ) {
        let p = Percentiles::from_samples(&values).expect("non-empty");
        prop_assert!(p.p50 <= p.p95, "p50 {} > p95 {}", p.p50, p.p95);
        prop_assert!(p.p95 <= p.p99, "p95 {} > p99 {}", p.p95, p.p99);
        prop_assert!(p.p99 <= p.max, "p99 {} > max {}", p.p99, p.max);
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        prop_assert!(p.mean >= lo && p.mean <= p.max);
        prop_assert_eq!(p.count, values.len() as u64);
    }

    /// The same ordering holds through the histogram's bounded-error
    /// quantiles and the ms conversion.
    #[test]
    fn histogram_percentile_triple_is_monotone(
        values in proptest::collection::vec(1_000u64..50_000_000_000, 1..400),
    ) {
        let h = hist_of(&values);
        let p = Percentiles::from_histogram_ns(&h).expect("non-empty");
        prop_assert!(p.p50 <= p.p95 && p.p95 <= p.p99 && p.p99 <= p.max);
        prop_assert_eq!(p.count, values.len() as u64);
    }

    /// Histogram merge is commutative: a ⊕ b ≡ b ⊕ a observationally
    /// (quantile sweep, count, min/max, saturation).
    #[test]
    fn merge_is_commutative(
        a in proptest::collection::vec(1u64..200_000_000_000, 0..200),
        b in proptest::collection::vec(1u64..200_000_000_000, 0..200),
    ) {
        let (ha, hb) = (hist_of(&a), hist_of(&b));
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(ab.len(), ba.len());
        prop_assert_eq!(ab.min(), ba.min());
        prop_assert_eq!(ab.max(), ba.max());
        prop_assert_eq!(ab.saturated_count(), ba.saturated_count());
        prop_assert_eq!(quantiles(&ab), quantiles(&ba));
    }

    /// Histogram merge is associative: (a ⊕ b) ⊕ c ≡ a ⊕ (b ⊕ c) — the
    /// property that lets a sweep reduce per-seed histograms in any
    /// grouping (e.g. a parallel tree reduction) without changing a
    /// single reported number.
    #[test]
    fn merge_is_associative(
        a in proptest::collection::vec(1u64..200_000_000_000, 0..150),
        b in proptest::collection::vec(1u64..200_000_000_000, 0..150),
        c in proptest::collection::vec(1u64..200_000_000_000, 0..150),
    ) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut right = ha.clone();
        right.merge(&bc);
        prop_assert_eq!(left.len(), right.len());
        prop_assert_eq!(left.min(), right.min());
        prop_assert_eq!(left.max(), right.max());
        prop_assert_eq!(left.saturated_count(), right.saturated_count());
        prop_assert_eq!(quantiles(&left), quantiles(&right));
    }

    /// Merging equals recording the union stream in one histogram.
    #[test]
    fn merge_equals_union(
        a in proptest::collection::vec(1u64..200_000_000_000, 0..200),
        b in proptest::collection::vec(1u64..200_000_000_000, 0..200),
    ) {
        let mut merged = hist_of(&a);
        merged.merge(&hist_of(&b));
        let union: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
        let direct = hist_of(&union);
        prop_assert_eq!(merged.len(), direct.len());
        prop_assert_eq!(quantiles(&merged), quantiles(&direct));
    }
}
