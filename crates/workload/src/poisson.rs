//! Poisson arrival process.
//!
//! Task inter-arrival times are exponential with rate λ; the paper sets λ
//! to 70% of system capacity. Gaps are drawn as `Δt = E/λ` with `E` a
//! standard exponential from the ziggurat sampler in `brb_sim::dist` —
//! exact, always finite, and transcendental-free on the common path
//! (the old inverse CDF paid a `ln` per arrival).

use rand::Rng;

/// A Poisson process generating exponential inter-arrival gaps, tracking
/// the absolute time of the next arrival in nanoseconds.
#[derive(Debug, Clone)]
pub struct PoissonProcess {
    rate_per_sec: f64,
    next_ns: u64,
}

impl PoissonProcess {
    /// Creates a process with `rate_per_sec` arrivals per second starting
    /// at time zero.
    ///
    /// # Panics
    /// Panics if the rate is not strictly positive and finite.
    pub fn new(rate_per_sec: f64) -> Self {
        assert!(
            rate_per_sec > 0.0 && rate_per_sec.is_finite(),
            "arrival rate must be positive and finite"
        );
        PoissonProcess {
            rate_per_sec,
            next_ns: 0,
        }
    }

    /// The configured rate (arrivals/second).
    pub fn rate(&self) -> f64 {
        self.rate_per_sec
    }

    /// Draws one exponential gap in nanoseconds (at least 1 ns so arrivals
    /// are strictly ordered).
    pub fn sample_gap_ns<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let secs = brb_sim::dist::standard_exp(rng) / self.rate_per_sec;
        ((secs * 1e9).round() as u64).max(1)
    }

    /// Advances the process and returns the absolute time (ns) of the next
    /// arrival.
    pub fn next_arrival_ns<R: Rng + ?Sized>(&mut self, rng: &mut R) -> u64 {
        self.next_ns += self.sample_gap_ns(rng);
        self.next_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gaps_average_to_inverse_rate() {
        let p = PoissonProcess::new(10_000.0); // mean gap 100µs
        let mut rng = StdRng::seed_from_u64(2);
        let n = 100_000;
        let total: u64 = (0..n).map(|_| p.sample_gap_ns(&mut rng)).sum();
        let mean_ns = total as f64 / n as f64;
        let rel = (mean_ns - 100_000.0).abs() / 100_000.0;
        assert!(rel < 0.02, "mean gap {mean_ns}ns");
    }

    #[test]
    fn arrivals_strictly_increase() {
        let mut p = PoissonProcess::new(1e9); // pathological: 1 arrival/ns
        let mut rng = StdRng::seed_from_u64(3);
        let mut prev = 0;
        for _ in 0..10_000 {
            let t = p.next_arrival_ns(&mut rng);
            assert!(t > prev, "arrivals must be strictly ordered");
            prev = t;
        }
    }

    #[test]
    fn coefficient_of_variation_is_one() {
        // Exponential gaps have CV = 1; catches accidentally-deterministic
        // or wrongly-shaped gap samplers.
        let p = PoissonProcess::new(1_000.0);
        let mut rng = StdRng::seed_from_u64(4);
        let gaps: Vec<f64> = (0..50_000)
            .map(|_| p.sample_gap_ns(&mut rng) as f64)
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / (gaps.len() - 1) as f64;
        let cv = var.sqrt() / mean;
        assert!((cv - 1.0).abs() < 0.05, "CV {cv}");
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        PoissonProcess::new(0.0);
    }
}
