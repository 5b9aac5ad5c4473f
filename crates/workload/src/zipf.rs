//! Exact Zipf sampling over a finite key universe.
//!
//! Key popularity in web caches is famously skewed; the ETC study the paper
//! cites observes Zipf-like access patterns. We sample ranks from
//! `P(rank = r) ∝ r^(−s)` through a Vose **alias table**
//! ([`brb_sim::AliasTable`]): exact, O(1) per draw and O(n) to build —
//! replacing the old cumulative-table binary search, whose O(log n)
//! pointer-chasing per draw dominated trace generation. The pmf is not
//! stored beside the table (8 MB at a million ranks, read only by tests
//! and diagnostics): [`Zipf::pmf`] re-derives a rank's probability from
//! `(s, normaliser)` with the very operations the build used, so it stays
//! bit-equal to the weights the table was built from (test-pinned).

use brb_sim::AliasTable;
use rand::Rng;

/// Alias-table Zipf(n, s) sampler over ranks `0..n` (rank 0 most popular).
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    exponent: f64,
    /// `Σ r^(−s)` over ranks `1..=n`, summed in rank order.
    normaliser: f64,
    /// O(1) sampler over the normalized pmf.
    alias: AliasTable,
}

impl Zipf {
    /// Creates a sampler over `n` ranks with exponent `s ≥ 0`
    /// (`s = 0` is uniform).
    ///
    /// # Panics
    /// Panics if `n` is zero or `s` is negative/non-finite.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "Zipf needs a non-empty universe");
        assert!(s >= 0.0 && s.is_finite(), "Zipf exponent must be >= 0");
        let mut normaliser = 0.0;
        let mut pmf: Vec<f64> = (1..=n)
            .map(|r| {
                let w = (r as f64).powf(-s);
                normaliser += w;
                w
            })
            .collect();
        for p in pmf.iter_mut() {
            *p /= normaliser;
        }
        Zipf {
            n,
            exponent: s,
            normaliser,
            alias: AliasTable::from_weights(pmf),
        }
    }

    /// Universe size.
    pub fn universe(&self) -> u64 {
        self.n
    }

    /// The exponent `s`.
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// Probability of a given rank (0-based).
    pub fn pmf(&self, rank: u64) -> f64 {
        assert!(rank < self.n, "rank out of range");
        ((rank + 1) as f64).powf(-self.exponent) / self.normaliser
    }

    /// Draws a rank in `0..n` (0 = most popular) in O(1).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        self.alias.sample(rng) as u64
    }

    /// The alias structure behind [`Self::sample`] — exposed so tests can
    /// reconstruct the sampled distribution and compare it to [`Self::pmf`].
    pub fn alias_table(&self) -> &AliasTable {
        &self.alias
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_when_exponent_zero() {
        let z = Zipf::new(10, 0.0);
        for r in 0..10 {
            assert!((z.pmf(r) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn pmf_sums_to_one_and_decreases() {
        let z = Zipf::new(1000, 0.99);
        let total: f64 = (0..1000).map(|r| z.pmf(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for r in 1..1000 {
            assert!(z.pmf(r) <= z.pmf(r - 1) + 1e-15);
        }
    }

    #[test]
    fn empirical_frequencies_match_pmf() {
        let z = Zipf::new(50, 1.0);
        let mut rng = StdRng::seed_from_u64(5);
        let n = 200_000;
        let mut counts = vec![0u64; 50];
        for _ in 0..n {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        for (r, &count) in counts.iter().enumerate().take(10) {
            let emp = count as f64 / n as f64;
            let theory = z.pmf(r as u64);
            let rel = (emp - theory).abs() / theory;
            assert!(rel < 0.05, "rank {r}: emp {emp} theory {theory}");
        }
    }

    #[test]
    fn rank_zero_dominates_with_high_exponent() {
        let z = Zipf::new(10_000, 1.2);
        assert!(z.pmf(0) > 0.1, "head not hot enough: {}", z.pmf(0));
        assert!(z.pmf(0) > 100.0 * z.pmf(999));
    }

    #[test]
    fn samples_stay_in_range() {
        let z = Zipf::new(7, 0.8);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 7);
        }
    }

    #[test]
    fn singleton_universe() {
        let z = Zipf::new(1, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(z.sample(&mut rng), 0);
        assert_eq!(z.pmf(0), 1.0);
    }

    #[test]
    #[should_panic(expected = "non-empty universe")]
    fn empty_universe_rejected() {
        Zipf::new(0, 1.0);
    }

    /// Differential: the alias structure must encode *exactly* the pmf —
    /// reconstructing each rank's probability from retention/donor mass
    /// recovers the cumulative-table distribution the sampler replaced.
    #[test]
    fn alias_structure_reconstructs_pmf() {
        for (n, s) in [(1u64, 1.0), (7, 0.0), (100, 0.99), (1000, 1.2)] {
            let z = Zipf::new(n, s);
            let t = z.alias_table();
            for r in 0..n {
                let want = z.pmf(r);
                let got = t.pmf(r as usize);
                assert!(
                    (got - want).abs() < 1e-12,
                    "Zipf({n},{s}) rank {r}: alias {got} vs pmf {want}"
                );
            }
        }
    }

    /// `pmf()` is derived on demand; it must stay bit-equal to the
    /// normalized vector the sampler used to store (and still builds its
    /// table from).
    #[test]
    fn on_demand_pmf_is_bit_equal_to_the_stored_vector_it_replaced() {
        for (n, s) in [
            (1u64, 1.0),
            (7, 0.0),
            (100, 0.99),
            (1000, 1.2),
            (50_000, 0.8),
        ] {
            let mut stored: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-s)).collect();
            let total: f64 = stored.iter().sum();
            for p in stored.iter_mut() {
                *p /= total;
            }
            let z = Zipf::new(n, s);
            for (r, want) in stored.iter().enumerate() {
                assert_eq!(
                    z.pmf(r as u64).to_bits(),
                    want.to_bits(),
                    "Zipf({n},{s}) rank {r}"
                );
            }
        }
    }

    /// Differential: O(1) alias draws and the old O(log n) cumulative
    /// scan sample the same distribution (matching empirical frequencies
    /// on the hot head under independent streams).
    #[test]
    fn alias_and_cdf_scan_agree_empirically() {
        let z = Zipf::new(200, 0.9);
        // Rebuild the old cumulative table from the pmf.
        let mut cdf: Vec<f64> = Vec::with_capacity(200);
        let mut acc = 0.0;
        for r in 0..200 {
            acc += z.pmf(r);
            cdf.push(acc);
        }
        let n = 300_000u64;
        let mut alias_counts = vec![0u64; 200];
        let mut rng = StdRng::seed_from_u64(14);
        for _ in 0..n {
            alias_counts[z.sample(&mut rng) as usize] += 1;
        }
        let mut scan_counts = vec![0u64; 200];
        let mut rng = StdRng::seed_from_u64(15);
        for _ in 0..n {
            let u = rng.random::<f64>();
            let idx = cdf.partition_point(|&c| c < u).min(199);
            scan_counts[idx] += 1;
        }
        for r in 0..20 {
            let a = alias_counts[r] as f64 / n as f64;
            let s = scan_counts[r] as f64 / n as f64;
            assert!((a - s).abs() / s < 0.06, "rank {r}: alias {a} vs scan {s}");
        }
    }
}
