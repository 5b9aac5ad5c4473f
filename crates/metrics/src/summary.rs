//! Cross-seed aggregation.

use serde::{Deserialize, Serialize};

/// A statistic measured once per seed, reported as mean ± stddev.
///
/// The paper averages each percentile over six seeded runs and notes the
/// standard deviation is "largely negligible"; [`SeedSummary`] is how we
/// reproduce (and verify) that claim.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SeedSummary {
    /// The per-seed observations, in seed order.
    pub values: Vec<f64>,
}

impl SeedSummary {
    /// Wraps per-seed observations.
    pub fn new(values: Vec<f64>) -> Self {
        SeedSummary { values }
    }

    /// Mean across seeds (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Sample standard deviation across seeds.
    pub fn stddev(&self) -> f64 {
        let n = self.values.len();
        if n < 2 {
            return 0.0;
        }
        let m = self.mean();
        (self.values.iter().map(|v| (v - m).powi(2)).sum::<f64>() / (n - 1) as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_seed_stddev_is_zero_not_nan() {
        // Regression pin: a one-seed cell must report stddev 0.0 — a
        // NaN here would poison every downstream report and serialize
        // as null in the JSONL.
        let one = SeedSummary::new(vec![42.0]);
        assert_eq!(one.stddev(), 0.0);
        assert!(one.stddev().is_finite());
    }

    #[test]
    fn seed_summary_moments() {
        let s = SeedSummary::new(vec![10.0, 12.0, 11.0, 9.0, 10.0, 11.0]);
        assert!((s.mean() - 10.5).abs() < 1e-12);
        assert!(s.stddev() > 0.0);
        assert!(
            s.stddev() / s.mean() < 0.2,
            "paper claims negligible stddev across seeds"
        );
    }

    #[test]
    fn seed_summary_degenerate_cases() {
        assert_eq!(SeedSummary::new(vec![]).mean(), 0.0);
        assert_eq!(SeedSummary::new(vec![5.0]).stddev(), 0.0);
        assert_eq!(SeedSummary::new(vec![0.0, 0.0]).stddev(), 0.0);
    }
}
