//! Generalized Pareto value-size sampling.
//!
//! The paper generates value sizes "using a Pareto distribution based on a
//! study conducted on Facebook's Memcached deployment" [Atikoglu et al.,
//! SIGMETRICS'12]. That study fits value sizes of the ETC pool with a
//! Generalized Pareto distribution with location θ = 0, scale σ = 214.476
//! and shape k = 0.348238; we use exactly those constants
//! ([`GeneralizedPareto::facebook_etc`]).

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Location (θ) of the Facebook ETC value-size fit.
pub const ETC_LOCATION: f64 = 0.0;
/// Scale (σ) of the Facebook ETC value-size fit.
pub const ETC_SCALE: f64 = 214.476;
/// Shape (k) of the Facebook ETC value-size fit.
pub const ETC_SHAPE: f64 = 0.348238;

/// A Generalized Pareto distribution GPD(θ, σ, k) sampled by inverse CDF.
///
/// For shape `k ≠ 0`:  `x = θ + σ·((1-u)^(-k) − 1)/k`;
/// for `k = 0` it degenerates to the (shifted) exponential
/// `x = θ − σ·ln(1-u)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GeneralizedPareto {
    /// Location parameter θ (minimum of the support).
    pub location: f64,
    /// Scale parameter σ (> 0).
    pub scale: f64,
    /// Shape parameter k (tail index; heavier tail for larger k).
    pub shape: f64,
}

impl GeneralizedPareto {
    /// Creates a GPD with the given parameters.
    ///
    /// # Panics
    /// Panics if `scale` is not strictly positive.
    pub fn new(location: f64, scale: f64, shape: f64) -> Self {
        assert!(scale > 0.0, "GPD scale must be positive");
        GeneralizedPareto {
            location,
            scale,
            shape,
        }
    }

    /// The Facebook Memcached ETC value-size fit the paper cites.
    pub fn facebook_etc() -> Self {
        GeneralizedPareto::new(ETC_LOCATION, ETC_SCALE, ETC_SHAPE)
    }

    /// Theoretical mean `θ + σ/(1−k)`, defined for `k < 1`.
    pub fn mean(&self) -> f64 {
        assert!(self.shape < 1.0, "mean undefined for shape >= 1");
        self.location + self.scale / (1.0 - self.shape)
    }

    /// Inverse CDF at `u ∈ [0, 1)`.
    pub fn quantile(&self, u: f64) -> f64 {
        debug_assert!((0.0..1.0).contains(&u));
        if self.shape.abs() < 1e-12 {
            self.location - self.scale * (1.0 - u).ln()
        } else {
            self.location + self.scale * ((1.0 - u).powf(-self.shape) - 1.0) / self.shape
        }
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.quantile(rng.random::<f64>())
    }

    /// Draws one sample as an integer byte count, clamped to
    /// `[1, cap_bytes]`. Real deployments cap value sizes (Memcached's
    /// default limit is 1 MiB); the cap also keeps forecast service times
    /// finite under the heavy tail.
    pub fn sample_bytes<R: Rng + ?Sized>(&self, rng: &mut R, cap_bytes: u64) -> u64 {
        let raw = self.sample(rng);
        (raw.round().max(1.0) as u64).min(cap_bytes)
    }

    /// Mean of the capped-byte distribution, estimated by numeric
    /// integration of the quantile function (10k trapezoids). Used for
    /// service-rate calibration so "3500 req/s" holds under the cap.
    pub fn mean_bytes_capped(&self, cap_bytes: u64) -> f64 {
        let n = 10_000;
        let mut sum = 0.0;
        for i in 0..n {
            let u = (i as f64 + 0.5) / n as f64;
            let v = self.quantile(u).round().max(1.0).min(cap_bytes as f64);
            sum += v;
        }
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn etc_constants_match_published_fit() {
        let d = GeneralizedPareto::facebook_etc();
        assert_eq!(d.location, 0.0);
        assert_eq!(d.scale, 214.476);
        assert_eq!(d.shape, 0.348238);
        // Mean of the uncapped fit: σ/(1−k) ≈ 329 bytes.
        assert!((d.mean() - 329.07).abs() < 0.5, "{}", d.mean());
    }

    #[test]
    fn quantile_is_monotone_and_anchored() {
        let d = GeneralizedPareto::facebook_etc();
        assert!((d.quantile(0.0) - 0.0).abs() < 1e-9);
        let mut prev = -1.0;
        for i in 0..100 {
            let q = d.quantile(i as f64 / 100.0);
            assert!(q > prev);
            prev = q;
        }
    }

    #[test]
    fn shape_zero_degenerates_to_exponential() {
        let d = GeneralizedPareto::new(0.0, 100.0, 0.0);
        // Exponential with scale 100: median = 100·ln2.
        assert!((d.quantile(0.5) - 100.0 * 2f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn sample_mean_converges() {
        let d = GeneralizedPareto::facebook_etc();
        let mut rng = StdRng::seed_from_u64(11);
        let n = 200_000;
        let mean = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
        let rel = (mean - d.mean()).abs() / d.mean();
        assert!(rel < 0.05, "sample mean {mean} vs {}", d.mean());
    }

    #[test]
    fn sample_bytes_respects_cap_and_floor() {
        let d = GeneralizedPareto::facebook_etc();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let b = d.sample_bytes(&mut rng, 4096);
            assert!((1..=4096).contains(&b));
        }
    }

    #[test]
    fn capped_mean_below_uncapped_mean() {
        let d = GeneralizedPareto::facebook_etc();
        let capped = d.mean_bytes_capped(1 << 20);
        assert!(capped < d.mean());
        assert!(capped > 250.0, "capped mean {capped} suspiciously low");
        // A tight cap bites harder.
        assert!(d.mean_bytes_capped(512) < d.mean_bytes_capped(1 << 20));
    }

    #[test]
    fn heavy_tail_produces_large_values() {
        let d = GeneralizedPareto::facebook_etc();
        // p99.9 of the ETC fit is orders of magnitude above the mean.
        assert!(d.quantile(0.999) > 10.0 * d.mean());
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn non_positive_scale_rejected() {
        GeneralizedPareto::new(0.0, 0.0, 0.3);
    }
}
