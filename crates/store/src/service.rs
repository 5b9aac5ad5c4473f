//! Per-request service-time models.
//!
//! The paper's servers operate "at an average service rate of 3500
//! requests/s" per core, with request cost driven by the size of the value
//! read (BRB forecasts service times "based on the size of the value they
//! are requesting"). We model service time as
//!
//! ```text
//! t(bytes) = base + bytes · per_byte        (optionally × noise)
//! ```
//!
//! calibrated so that `E[t]` over the workload's value-size distribution
//! equals the target mean (1/3500 s). The multiplicative log-normal noise
//! term models everything the size forecast cannot see (cache state, GC,
//! compaction, CPU contention) and is mean-corrected so calibration holds.

use brb_sim::SimDuration;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Multiplicative service-time noise.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ServiceNoise {
    /// No noise: service time is exactly the size-based forecast.
    None,
    /// Mean-corrected log-normal: multiply by `exp(σZ − σ²/2)`, which has
    /// expectation 1, so the calibrated mean rate is preserved.
    LogNormal {
        /// Log-scale standard deviation (0.2–0.5 is realistic for storage
        /// nodes).
        sigma: f64,
    },
}

impl ServiceNoise {
    fn sample_factor<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match self {
            ServiceNoise::None => 1.0,
            ServiceNoise::LogNormal { sigma } => {
                // Ziggurat standard normal: exact distribution, no
                // transcendentals on the common path (`brb_sim::dist`).
                let z = brb_sim::dist::standard_normal(rng);
                (sigma * z - sigma * sigma / 2.0).exp()
            }
        }
    }
}

/// The service-time model for read requests: a deterministic
/// size-linear cost, `base + bytes · per_byte`, with optional
/// multiplicative noise on the actual (not forecast) time. Built only
/// through [`ServiceModel::calibrated_size_linear`] (or the paper's
/// [`ServiceModel::paper_default`]), so its mean always matches a target
/// rate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServiceModel {
    /// Fixed per-request overhead in nanoseconds (parsing, lookup,
    /// response framing).
    base_ns: f64,
    /// Additional cost per value byte, in nanoseconds.
    ns_per_byte: f64,
    /// Multiplicative noise applied to the actual (not forecast) time.
    noise: ServiceNoise,
}

impl ServiceModel {
    /// Builds a size-linear model whose *mean* service time over a
    /// workload with mean value size `mean_value_bytes` equals
    /// `mean_service_ns`. `base_fraction ∈ [0,1)` sets how much of the
    /// mean is fixed overhead vs. size-proportional cost.
    ///
    /// # Panics
    /// Panics on non-positive means or a fraction outside `[0, 1]`.
    pub fn calibrated_size_linear(
        mean_service_ns: f64,
        mean_value_bytes: f64,
        base_fraction: f64,
        noise: ServiceNoise,
    ) -> Self {
        assert!(mean_service_ns > 0.0, "mean service time must be positive");
        assert!(mean_value_bytes > 0.0, "mean value size must be positive");
        assert!(
            (0.0..=1.0).contains(&base_fraction),
            "base fraction must be in [0, 1]"
        );
        ServiceModel {
            base_ns: mean_service_ns * base_fraction,
            ns_per_byte: mean_service_ns * (1.0 - base_fraction) / mean_value_bytes,
            noise,
        }
    }

    /// The paper's configuration: 3 500 req/s per core mean rate
    /// (285 714 ns mean service time), calibrated against `mean_value_bytes`,
    /// half fixed overhead, moderate log-normal noise.
    pub fn paper_default(mean_value_bytes: f64) -> Self {
        ServiceModel::calibrated_size_linear(
            1e9 / 3500.0,
            mean_value_bytes,
            0.5,
            ServiceNoise::LogNormal { sigma: 0.3 },
        )
    }

    /// The *forecast* service time for a value of `bytes` — what a client
    /// can predict from the value size alone (noise-free). This is the
    /// cost BRB's priority algorithms consume.
    pub fn expected_ns(&self, bytes: u64) -> f64 {
        self.base_ns + self.ns_per_byte * bytes as f64
    }

    /// Draws the *actual* service time for a value of `bytes`.
    pub fn sample<R: Rng + ?Sized>(&self, bytes: u64, rng: &mut R) -> SimDuration {
        let ns = self.expected_ns(bytes) * self.noise.sample_factor(rng);
        SimDuration::from_secs_f64(ns.max(1.0) / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const MEAN_BYTES: f64 = 300.0;

    #[test]
    fn calibration_hits_target_mean() {
        let m =
            ServiceModel::calibrated_size_linear(285_714.0, MEAN_BYTES, 0.5, ServiceNoise::None);
        // A request of exactly mean size costs exactly the mean.
        assert!((m.expected_ns(300) - 285_714.0).abs() < 1.0);
        assert!((1e9 / m.expected_ns(300) - 3_500.0).abs() < 0.1);
    }

    #[test]
    fn bigger_values_cost_more() {
        let m = ServiceModel::paper_default(MEAN_BYTES);
        assert!(m.expected_ns(10_000) > m.expected_ns(100));
        assert!(m.expected_ns(1) >= 0.0);
    }

    #[test]
    fn base_fraction_bounds_cost_spread() {
        // base_fraction = 1 → size-independent.
        let flat =
            ServiceModel::calibrated_size_linear(1000.0, MEAN_BYTES, 1.0, ServiceNoise::None);
        assert_eq!(flat.expected_ns(1), flat.expected_ns(1_000_000));
        // base_fraction = 0 → fully proportional.
        let prop =
            ServiceModel::calibrated_size_linear(1000.0, MEAN_BYTES, 0.0, ServiceNoise::None);
        assert!((prop.expected_ns(600) / prop.expected_ns(300) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn noise_preserves_mean() {
        let noisy = ServiceModel::calibrated_size_linear(
            285_714.0,
            MEAN_BYTES,
            0.5,
            ServiceNoise::LogNormal { sigma: 0.4 },
        );
        let mut rng = StdRng::seed_from_u64(6);
        let n = 200_000;
        let total: f64 = (0..n)
            .map(|_| noisy.sample(300, &mut rng).as_nanos() as f64)
            .sum();
        let mean = total / n as f64;
        let rel = (mean - 285_714.0).abs() / 285_714.0;
        assert!(rel < 0.02, "noisy mean {mean}");
    }

    #[test]
    fn noise_actually_varies() {
        let noisy = ServiceModel::paper_default(MEAN_BYTES);
        let mut rng = StdRng::seed_from_u64(7);
        let a = noisy.sample(300, &mut rng);
        let b = noisy.sample(300, &mut rng);
        assert_ne!(a, b, "log-normal noise should vary");
    }

    #[test]
    fn sample_never_returns_zero() {
        let m = ServiceModel::calibrated_size_linear(10.0, MEAN_BYTES, 0.0, ServiceNoise::None);
        let mut rng = StdRng::seed_from_u64(10);
        assert!(m.sample(0, &mut rng).as_nanos() >= 1);
    }

    #[test]
    #[should_panic(expected = "base fraction")]
    fn bad_fraction_rejected() {
        ServiceModel::calibrated_size_linear(1.0, 1.0, 1.5, ServiceNoise::None);
    }

    /// An `Rng` that always returns the extreme bit pattern, driving
    /// every uniform toward the `u → 1` edge where a naive `ln(1 − u)`
    /// or `ln(u1)` would blow up.
    struct EdgeRng;

    impl rand::Rng for EdgeRng {
        fn next_u64(&mut self) -> u64 {
            u64::MAX
        }
    }

    /// Regression: the `u = 1` / `u1 = 0` logarithm edges must never
    /// produce an infinite (or NaN) draw. The extreme bit pattern pushes
    /// every uniform as close to 1 as an `f64` in `[0, 1)` allows — the
    /// exact inputs that used to ride on `ln` staying away from zero.
    #[test]
    fn sampling_edges_never_produce_infinite_times() {
        let mut edge = EdgeRng;
        for _ in 0..1_000 {
            let e = brb_sim::dist::standard_exp_inv_cdf(&mut edge);
            assert!(e.is_finite() && e >= 0.0, "inverse-CDF exp blew up: {e}");
        }
        let mut bm = brb_sim::BoxMuller::new();
        for _ in 0..1_000 {
            let z = bm.sample(&mut edge);
            assert!(z.is_finite(), "Box–Muller blew up: {z}");
        }
        // And over a long honest stream: every service draw of the noisy
        // model stays finite and positive.
        let m = ServiceModel::calibrated_size_linear(
            285_714.0,
            MEAN_BYTES,
            0.5,
            ServiceNoise::LogNormal { sigma: 0.4 },
        );
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..200_000 {
            let ns = m.sample(300, &mut rng).as_nanos();
            assert!(
                (1..u64::MAX / 2).contains(&ns),
                "bad sample {ns} from {m:?}"
            );
        }
    }

    /// Statistical equivalence: routing the log-normal noise through the
    /// ziggurat must leave the service-time distribution unchanged
    /// relative to the Box–Muller baseline — same mean, variance and
    /// tail quantile within sampling tolerance.
    #[test]
    fn ziggurat_noise_matches_box_muller_baseline() {
        let sigma = 0.3f64;
        let model = ServiceModel::calibrated_size_linear(
            285_714.0,
            MEAN_BYTES,
            0.5,
            ServiceNoise::LogNormal { sigma },
        );
        let n = 200_000usize;
        // Actual model path (ziggurat under the hood).
        let mut rng = StdRng::seed_from_u64(21);
        let mut zig: Vec<f64> = (0..n)
            .map(|_| model.sample(300, &mut rng).as_nanos() as f64)
            .collect();
        // Baseline path: same mean-corrected log-normal factor, Z from
        // the cached-pair Box–Muller.
        let mut rng = StdRng::seed_from_u64(22);
        let mut bm = brb_sim::BoxMuller::new();
        let expected = model.expected_ns(300);
        let mut base: Vec<f64> = (0..n)
            .map(|_| {
                let z = bm.sample(&mut rng);
                (expected * (sigma * z - sigma * sigma / 2.0).exp()).max(1.0)
            })
            .collect();
        let stats = |xs: &[f64]| {
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            let var =
                xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (xs.len() - 1) as f64;
            (mean, var)
        };
        let (zm, zv) = stats(&zig);
        let (bm_mean, bv) = stats(&base);
        assert!((zm - bm_mean).abs() / bm_mean < 0.01, "{zm} vs {bm_mean}");
        assert!(
            (zv.sqrt() - bv.sqrt()).abs() / bv.sqrt() < 0.02,
            "stddev {} vs {}",
            zv.sqrt(),
            bv.sqrt()
        );
        zig.sort_by(f64::total_cmp);
        base.sort_by(f64::total_cmp);
        let p99 = (n as f64 * 0.99) as usize;
        assert!(
            (zig[p99] - base[p99]).abs() / base[p99] < 0.02,
            "p99 {} vs {}",
            zig[p99],
            base[p99]
        );
    }
}
