//! One-way message latency models.

use brb_sim::SimDuration;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A distribution over one-way network delays.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub enum LatencyModel {
    /// Every message takes exactly this long (the paper's 50 µs setting).
    Constant {
        /// The fixed one-way delay in nanoseconds.
        delay_ns: u64,
    },
    /// Uniform in `[lo_ns, hi_ns]`.
    Uniform {
        /// Lower bound (ns).
        lo_ns: u64,
        /// Upper bound (ns), inclusive.
        hi_ns: u64,
    },
    /// Log-normal jitter around a median: `exp(ln(median) + sigma·Z)`.
    /// Captures the long-tailed RTT jitter of real datacenter fabrics.
    LogNormal {
        /// Median one-way delay (ns).
        median_ns: u64,
        /// Log-scale standard deviation (0.1–0.5 are realistic).
        sigma: f64,
    },
    /// Mixture: mostly `base`, with probability `p_spike` an additive
    /// spike uniform in `[spike_lo_ns, spike_hi_ns]` (models transient
    /// congestion or in-network queueing).
    Spiky {
        /// Base one-way delay (ns).
        base_ns: u64,
        /// Probability of a spike per message, in `[0, 1]`.
        p_spike: f64,
        /// Minimum additional spike delay (ns).
        spike_lo_ns: u64,
        /// Maximum additional spike delay (ns).
        spike_hi_ns: u64,
    },
}

impl LatencyModel {
    /// The paper's configuration: constant 50 µs one-way.
    pub fn paper_constant() -> Self {
        LatencyModel::Constant { delay_ns: 50_000 }
    }

    /// Validates parameters.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            LatencyModel::Constant { .. } => Ok(()),
            LatencyModel::Uniform { lo_ns, hi_ns } => {
                if lo_ns > hi_ns {
                    Err(format!("uniform latency range inverted [{lo_ns}, {hi_ns}]"))
                } else {
                    Ok(())
                }
            }
            LatencyModel::LogNormal { median_ns, sigma } => {
                if *median_ns == 0 {
                    Err("log-normal median must be positive".into())
                } else if sigma.is_nan() || *sigma < 0.0 {
                    Err(format!("log-normal sigma must be >= 0, got {sigma}"))
                } else {
                    Ok(())
                }
            }
            LatencyModel::Spiky {
                p_spike,
                spike_lo_ns,
                spike_hi_ns,
                ..
            } => {
                if !(0.0..=1.0).contains(p_spike) {
                    Err(format!("spike probability out of range: {p_spike}"))
                } else if spike_lo_ns > spike_hi_ns {
                    Err("spike range inverted".into())
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Draws a one-way delay.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> SimDuration {
        debug_assert!(self.validate().is_ok());
        let ns = match self {
            LatencyModel::Constant { delay_ns } => *delay_ns,
            LatencyModel::Uniform { lo_ns, hi_ns } => rng.random_range(*lo_ns..=*hi_ns),
            LatencyModel::LogNormal { median_ns, sigma } => {
                // Ziggurat standard normal from `brb_sim::dist` — the
                // delay path runs per message, so the draw is hot.
                let z = brb_sim::dist::standard_normal(rng);
                let ns = (*median_ns as f64) * (sigma * z).exp();
                ns.round().max(0.0).min(u64::MAX as f64) as u64
            }
            LatencyModel::Spiky {
                base_ns,
                p_spike,
                spike_lo_ns,
                spike_hi_ns,
            } => {
                let mut ns = *base_ns;
                if rng.random::<f64>() < *p_spike {
                    ns += rng.random_range(*spike_lo_ns..=*spike_hi_ns);
                }
                ns
            }
        };
        SimDuration::from_nanos(ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_constant_is_50us() {
        let m = LatencyModel::paper_constant();
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(m.sample(&mut rng), SimDuration::from_micros(50));
    }

    #[test]
    fn uniform_stays_in_range_and_averages() {
        let m = LatencyModel::Uniform {
            lo_ns: 10_000,
            hi_ns: 90_000,
        };
        let mut rng = StdRng::seed_from_u64(2);
        let mut sum = 0u64;
        let n = 50_000;
        for _ in 0..n {
            let d = m.sample(&mut rng).as_nanos();
            assert!((10_000..=90_000).contains(&d));
            sum += d;
        }
        let mean = sum as f64 / n as f64;
        assert!((mean - 50_000.0).abs() / 50_000.0 < 0.02);
    }

    #[test]
    fn lognormal_median_and_mean() {
        let m = LatencyModel::LogNormal {
            median_ns: 50_000,
            sigma: 0.3,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let mut samples: Vec<u64> = (0..50_000).map(|_| m.sample(&mut rng).as_nanos()).collect();
        samples.sort_unstable();
        let median = samples[samples.len() / 2] as f64;
        assert!(
            (median - 50_000.0).abs() / 50_000.0 < 0.03,
            "median {median}"
        );
        let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        // Log-normal mean: median · exp(σ²/2).
        let expect = 50_000.0 * (0.3f64 * 0.3 / 2.0).exp();
        assert!((mean - expect).abs() / expect < 0.03, "mean {mean}");
        assert!(mean > median, "log-normal is right-skewed");
    }

    #[test]
    fn spiky_spikes_at_expected_rate() {
        let m = LatencyModel::Spiky {
            base_ns: 50_000,
            p_spike: 0.1,
            spike_lo_ns: 100_000,
            spike_hi_ns: 200_000,
        };
        let mut rng = StdRng::seed_from_u64(4);
        let n = 100_000;
        let spikes = (0..n)
            .filter(|_| m.sample(&mut rng).as_nanos() > 50_000)
            .count();
        let rate = spikes as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.01, "spike rate {rate}");
    }

    #[test]
    fn validation_catches_bad_params() {
        assert!(LatencyModel::Uniform { lo_ns: 5, hi_ns: 1 }
            .validate()
            .is_err());
        assert!(LatencyModel::LogNormal {
            median_ns: 0,
            sigma: 0.1
        }
        .validate()
        .is_err());
        assert!(LatencyModel::LogNormal {
            median_ns: 1,
            sigma: -1.0
        }
        .validate()
        .is_err());
        assert!(LatencyModel::Spiky {
            base_ns: 1,
            p_spike: 1.5,
            spike_lo_ns: 0,
            spike_hi_ns: 1
        }
        .validate()
        .is_err());
        assert!(LatencyModel::paper_constant().validate().is_ok());
    }
}
