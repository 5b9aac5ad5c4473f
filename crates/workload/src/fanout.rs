//! Task fan-out distributions.
//!
//! A task's *fan-out* is the number of data-store requests it contains
//! ("tens to thousands of data accesses" in the paper's motivation; the
//! SoundCloud trace averages 8.6). The fan-out distribution's tail matters:
//! the more requests a task has, the more likely one of them straggles.

use crate::taskgen::MAX_TASK_REQUESTS;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A distribution over task fan-outs (requests per task), always ≥ 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FanoutDist {
    /// Every task has exactly `k` requests.
    Fixed(u32),
    /// Uniform over `[min, max]` inclusive.
    Uniform {
        /// Smallest fan-out (≥ 1).
        min: u32,
        /// Largest fan-out (≥ min).
        max: u32,
    },
    /// Shifted geometric: `1 + Geometric(p)`, mean `1 + (1-p)/p`.
    Geometric {
        /// Success probability `p ∈ (0, 1]`.
        p: f64,
    },
    /// A weighted mixture of inclusive integer ranges; within a chosen
    /// range the fan-out is uniform. Weights need not be normalized.
    Empirical {
        /// `(lo, hi, weight)` triples.
        ranges: Vec<(u32, u32, f64)>,
    },
}

impl FanoutDist {
    /// The SoundCloud-calibrated mixture used as the paper-trace
    /// substitute: mean ≈ 8.6 with a heavy tail reaching 128 requests
    /// (playlist fetches; see the [`crate::soundcloud`] module doc).
    pub fn soundcloud_like() -> Self {
        FanoutDist::Empirical {
            ranges: vec![
                (1, 1, 34.0),   // single-track lookups
                (2, 4, 23.0),   // short batches
                (5, 10, 22.0),  // typical playlists
                (11, 20, 13.0), // long playlists
                (21, 50, 6.0),  // power-user playlists
                (51, 128, 2.0), // heavy tail
            ],
        }
    }

    /// Theoretical mean fan-out.
    pub fn mean(&self) -> f64 {
        match self {
            FanoutDist::Fixed(k) => *k as f64,
            FanoutDist::Uniform { min, max } => (*min as f64 + *max as f64) / 2.0,
            FanoutDist::Geometric { p } => 1.0 + (1.0 - p) / p,
            FanoutDist::Empirical { ranges } => {
                let total: f64 = ranges.iter().map(|&(_, _, w)| w).sum();
                ranges
                    .iter()
                    .map(|&(lo, hi, w)| w / total * (lo as f64 + hi as f64) / 2.0)
                    .sum()
            }
        }
    }

    /// Largest fan-out this distribution can produce.
    pub fn max(&self) -> u32 {
        match self {
            FanoutDist::Fixed(k) => *k,
            FanoutDist::Uniform { max, .. } => *max,
            FanoutDist::Geometric { .. } => MAX_TASK_REQUESTS as u32,
            FanoutDist::Empirical { ranges } => {
                ranges.iter().map(|&(_, hi, _)| hi).max().unwrap_or(1)
            }
        }
    }

    /// Validates structural invariants; called by samplers in debug builds
    /// and by config loading. No bound may exceed
    /// [`MAX_TASK_REQUESTS`] (a geometric tail is clamped there instead).
    pub fn validate(&self) -> Result<(), String> {
        if self.max() as usize > MAX_TASK_REQUESTS {
            return Err(format!(
                "fan-out bound {} exceeds the limit of {MAX_TASK_REQUESTS} requests per task",
                self.max()
            ));
        }
        match self {
            FanoutDist::Fixed(k) if *k == 0 => Err("fixed fan-out must be >= 1".into()),
            FanoutDist::Uniform { min, max } if *min == 0 || min > max => {
                Err(format!("invalid uniform fan-out range [{min}, {max}]"))
            }
            FanoutDist::Geometric { p } if !(*p > 0.0 && *p <= 1.0) => {
                Err(format!("geometric p out of range: {p}"))
            }
            FanoutDist::Empirical { ranges } => {
                if ranges.is_empty() {
                    return Err("empirical fan-out needs at least one range".into());
                }
                for &(lo, hi, w) in ranges {
                    if lo == 0 || lo > hi {
                        return Err(format!("invalid range [{lo}, {hi}]"));
                    }
                    if w.is_nan() || w <= 0.0 {
                        return Err(format!("non-positive weight {w}"));
                    }
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }

    /// Draws a fan-out (≥ 1).
    ///
    /// Empirical mixtures scan the weight list per draw; generators on
    /// hot paths should build a [`FanoutSampler`] once and draw through
    /// its O(1) alias table instead.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        debug_assert!(self.validate().is_ok());
        match self {
            FanoutDist::Fixed(k) => *k,
            FanoutDist::Uniform { min, max } => rng.random_range(*min..=*max),
            FanoutDist::Geometric { p } => {
                // Inverse CDF of the geometric on {0,1,...}, then shift
                // by 1. `1 − u ∈ (0, 1]` keeps the numerator finite; the
                // clamp holds the tail to `MAX_TASK_REQUESTS` (at a mean
                // fan-out of 100 a draw reaches it with odds below e⁻⁶⁵⁰).
                let u: f64 = rng.random();
                let g = (1.0 - u).max(f64::MIN_POSITIVE).ln() / (1.0 - p).ln();
                1 + g.floor().max(0.0).min((MAX_TASK_REQUESTS - 1) as f64) as u32
            }
            FanoutDist::Empirical { ranges } => {
                let total: f64 = ranges.iter().map(|&(_, _, w)| w).sum();
                let mut pick = rng.random::<f64>() * total;
                for &(lo, hi, w) in ranges {
                    if pick < w {
                        return rng.random_range(lo..=hi);
                    }
                    pick -= w;
                }
                let &(lo, hi, _) = ranges.last().expect("validated non-empty");
                rng.random_range(lo..=hi)
            }
        }
    }
}

/// A compiled fan-out sampler: the weighted-range scan of
/// [`FanoutDist::Empirical`] is replaced by an O(1) Vose alias draw over
/// the range classes ([`brb_sim::AliasTable`]); the other variants
/// delegate to [`FanoutDist::sample`] unchanged. Build once per
/// generator, draw millions of times.
#[derive(Debug, Clone)]
pub struct FanoutSampler {
    dist: FanoutDist,
    /// Alias table over the mixture's range classes (`Empirical` only).
    classes: Option<brb_sim::AliasTable>,
}

impl FanoutSampler {
    /// Compiles `dist` (validating it).
    ///
    /// # Panics
    /// Panics if the distribution fails [`FanoutDist::validate`].
    pub fn new(dist: FanoutDist) -> Self {
        dist.validate().expect("invalid fan-out distribution");
        let classes = match &dist {
            FanoutDist::Empirical { ranges } => {
                let weights: Vec<f64> = ranges.iter().map(|&(_, _, w)| w).collect();
                Some(brb_sim::AliasTable::new(&weights))
            }
            _ => None,
        };
        FanoutSampler { dist, classes }
    }

    /// The distribution this sampler was compiled from.
    pub fn dist(&self) -> &FanoutDist {
        &self.dist
    }

    /// Draws a fan-out (≥ 1).
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        match (&self.dist, &self.classes) {
            (FanoutDist::Empirical { ranges }, Some(classes)) => {
                let (lo, hi, _) = ranges[classes.sample(rng)];
                rng.random_range(lo..=hi)
            }
            (dist, _) => dist.sample(rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn empirical_mean(d: &FanoutDist, n: u64, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| d.sample(&mut rng) as f64).sum::<f64>() / n as f64
    }

    #[test]
    fn soundcloud_mixture_matches_paper_mean() {
        let d = FanoutDist::soundcloud_like();
        // The paper's trace averages 8.6 requests/task.
        assert!(
            (d.mean() - 8.6).abs() < 0.2,
            "calibrated mean {} drifted from 8.6",
            d.mean()
        );
        let emp = empirical_mean(&d, 200_000, 9);
        assert!((emp - d.mean()).abs() / d.mean() < 0.03, "{emp}");
    }

    #[test]
    fn soundcloud_mixture_has_heavy_tail() {
        let d = FanoutDist::soundcloud_like();
        let mut rng = StdRng::seed_from_u64(10);
        let big = (0..100_000).filter(|_| d.sample(&mut rng) > 50).count();
        // ~2% of tasks land in the 51-128 range.
        assert!((1_000..4_000).contains(&big), "tail mass {big}");
        assert_eq!(d.max(), 128);
    }

    #[test]
    fn fixed_and_uniform() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(FanoutDist::Fixed(5).sample(&mut rng), 5);
        assert_eq!(FanoutDist::Fixed(5).mean(), 5.0);
        let u = FanoutDist::Uniform { min: 2, max: 4 };
        for _ in 0..1000 {
            assert!((2..=4).contains(&u.sample(&mut rng)));
        }
        assert_eq!(u.mean(), 3.0);
    }

    #[test]
    fn geometric_mean_matches_theory() {
        let d = FanoutDist::Geometric { p: 0.2 }; // mean 1 + 4 = 5
        assert!((d.mean() - 5.0).abs() < 1e-12);
        let emp = empirical_mean(&d, 200_000, 12);
        assert!((emp - 5.0).abs() < 0.1, "{emp}");
    }

    #[test]
    fn samples_never_zero() {
        let mut rng = StdRng::seed_from_u64(2);
        for d in [
            FanoutDist::Fixed(1),
            FanoutDist::Geometric { p: 0.9 },
            FanoutDist::soundcloud_like(),
        ] {
            for _ in 0..10_000 {
                assert!(d.sample(&mut rng) >= 1);
            }
        }
    }

    /// The compiled sampler must reproduce the mixture: same mean, same
    /// class masses, same support as the scanning reference.
    #[test]
    fn fanout_sampler_matches_scan_reference() {
        let d = FanoutDist::soundcloud_like();
        let s = FanoutSampler::new(d.clone());
        assert_eq!(s.dist(), &d);
        let n = 200_000u64;
        let mut rng = StdRng::seed_from_u64(20);
        let mut mean = 0.0;
        let mut tail = 0u64;
        for _ in 0..n {
            let f = s.sample(&mut rng);
            assert!((1..=128).contains(&f));
            mean += f as f64;
            if f > 50 {
                tail += 1;
            }
        }
        mean /= n as f64;
        assert!((mean - d.mean()).abs() / d.mean() < 0.03, "mean {mean}");
        // Same ~2% heavy-tail mass as the scanning sampler's test.
        assert!(
            (1_000..4_000).contains(&(tail * 100_000 / n)),
            "tail {tail}"
        );
        // Non-empirical variants delegate unchanged.
        let fixed = FanoutSampler::new(FanoutDist::Fixed(5));
        assert_eq!(fixed.sample(&mut rng), 5);
    }

    #[test]
    #[should_panic(expected = "invalid uniform fan-out range")]
    fn fanout_sampler_rejects_invalid_dist() {
        FanoutSampler::new(FanoutDist::Uniform { min: 9, max: 2 });
    }

    #[test]
    fn validation_catches_bad_configs() {
        assert!(FanoutDist::Fixed(0).validate().is_err());
        assert!(FanoutDist::Uniform { min: 5, max: 2 }.validate().is_err());
        assert!(FanoutDist::Geometric { p: 0.0 }.validate().is_err());
        assert!(FanoutDist::Empirical { ranges: vec![] }.validate().is_err());
        assert!(FanoutDist::Empirical {
            ranges: vec![(1, 2, -1.0)]
        }
        .validate()
        .is_err());
        assert!(FanoutDist::soundcloud_like().validate().is_ok());
    }

    #[test]
    fn bounds_past_the_request_limit_are_rejected() {
        let max = MAX_TASK_REQUESTS as u32;
        let over = [
            FanoutDist::Fixed(max + 1),
            FanoutDist::Uniform {
                min: 1,
                max: max + 1,
            },
            FanoutDist::Empirical {
                ranges: vec![(1, 4, 1.0), (5, max + 1, 1.0)],
            },
        ];
        for d in over {
            let err = d.validate().unwrap_err();
            assert!(err.contains("limit of 65535"), "{d:?}: {err}");
        }
        for d in [
            FanoutDist::Fixed(max),
            FanoutDist::Uniform { min: max, max },
            FanoutDist::Empirical {
                ranges: vec![(max, max, 1.0)],
            },
        ] {
            assert_eq!(d.validate(), Ok(()), "{d:?}");
        }
    }

    #[test]
    fn geometric_tail_is_clamped_to_the_request_limit() {
        let d = FanoutDist::Geometric { p: 1e-9 };
        assert_eq!(d.validate(), Ok(()));
        assert_eq!(d.max() as usize, MAX_TASK_REQUESTS);
        let mut rng = StdRng::seed_from_u64(3);
        let draws: Vec<u32> = (0..1_000).map(|_| d.sample(&mut rng)).collect();
        assert!(draws.iter().all(|&f| (1..=d.max()).contains(&f)));
        assert!(draws.contains(&d.max()), "p = 1e-9 must reach the clamp");
    }
}
