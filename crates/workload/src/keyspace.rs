//! The key universe and its popularity model.
//!
//! Keys are dense integers `0..num_keys`. Popularity follows either a
//! uniform or a Zipf law over *ranks*; ranks are mapped to keys through a
//! fixed multiplicative permutation so that hot keys scatter across the
//! whole key space (and therefore across partitions) instead of clustering
//! at low key ids.

use crate::zipf::Zipf;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// How key popularity is distributed.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq)]
pub enum Popularity {
    /// All keys equally likely.
    Uniform,
    /// Zipf with the given exponent (≈0.9–1.0 for web caches).
    Zipf(f64),
}

/// A finite key universe with a popularity distribution.
#[derive(Debug, Clone)]
pub struct KeySpace {
    num_keys: u64,
    popularity: Popularity,
    zipf: Option<Zipf>,
    /// Multiplier coprime with `num_keys`, used to permute ranks.
    multiplier: u64,
    /// Additive offset so rank 0 does not map to key 0.
    offset: u64,
}

impl KeySpace {
    /// Creates a key space of `num_keys` keys.
    ///
    /// # Panics
    /// Panics if `num_keys` is zero.
    pub fn new(num_keys: u64, popularity: Popularity) -> Self {
        assert!(num_keys > 0, "key space must be non-empty");
        let zipf = match popularity {
            Popularity::Uniform => None,
            Popularity::Zipf(s) => Some(Zipf::new(num_keys, s)),
        };
        // A large odd constant is coprime with every power of two and with
        // high probability with arbitrary `num_keys`; oddness alone makes
        // the map `r -> r*m mod n` a bijection whenever n is a power of
        // two, and for general n we fall back to a coprimality fix-up.
        let mut multiplier = 0x9E37_79B9_7F4A_7C15 % num_keys.max(1);
        if multiplier == 0 {
            multiplier = 1;
        }
        while gcd(multiplier, num_keys) != 1 {
            multiplier += 1;
        }
        let offset = 0xD1B5_4A32_D192_ED03 % num_keys;
        KeySpace {
            num_keys,
            popularity,
            zipf,
            multiplier,
            offset,
        }
    }

    /// Number of keys in the universe.
    pub fn num_keys(&self) -> u64 {
        self.num_keys
    }

    /// The popularity model.
    pub fn popularity(&self) -> Popularity {
        self.popularity
    }

    /// Bytes the popularity table holds on the heap (12 per key under
    /// Zipf, none when uniform).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.zipf
            .as_ref()
            .map_or(0, |z| z.alias_table().heap_bytes())
    }

    /// Maps a popularity rank to its (permuted) key id via an affine
    /// bijection `rank ↦ rank·m + b (mod n)` with `gcd(m, n) = 1`.
    pub fn key_for_rank(&self, rank: u64) -> u64 {
        debug_assert!(rank < self.num_keys);
        // Both terms are < n, so one conditional subtraction is the
        // second reduction (a 64-bit division per drawn key otherwise).
        let sum = rank.wrapping_mul(self.multiplier) % self.num_keys + self.offset;
        if sum >= self.num_keys {
            sum - self.num_keys
        } else {
            sum
        }
    }

    /// Draws a popularity rank (0 = hottest): [`Self::sample_key`]
    /// without the rank → key map, taking the same random numbers.
    pub fn sample_rank<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        match &self.zipf {
            None => rng.random_range(0..self.num_keys),
            Some(z) => z.sample(rng),
        }
    }

    /// Draws a key according to the popularity model.
    pub fn sample_key<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        self.key_for_rank(self.sample_rank(rng))
    }

    /// Fills `out` with ranks: `out.len()` [`Self::sample_rank`] draws
    /// taking the same random numbers in the same order, the Zipf table
    /// read in one batch ([`Zipf::sample_into`]).
    pub fn sample_ranks_into<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [u64]) {
        match &self.zipf {
            None => out
                .iter_mut()
                .for_each(|rank| *rank = rng.random_range(0..self.num_keys)),
            Some(z) => z.sample_into(rng, out),
        }
    }

    /// Fills `out` with keys: [`Self::sample_ranks_into`], each rank
    /// then mapped to its key — `out.len()` [`Self::sample_key`] draws.
    pub fn sample_keys_into<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [u64]) {
        self.sample_ranks_into(rng, out);
        out.iter_mut()
            .for_each(|rank| *rank = self.key_for_rank(*rank));
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    #[test]
    fn rank_to_key_is_a_bijection() {
        for n in [1u64, 2, 7, 100, 1024, 99_991] {
            let ks = KeySpace::new(n, Popularity::Uniform);
            let keys: HashSet<u64> = (0..n).map(|r| ks.key_for_rank(r)).collect();
            assert_eq!(keys.len() as u64, n, "collision for n={n}");
            assert!(keys.iter().all(|&k| k < n));
            // The single conditional subtraction is the second modulo.
            for r in 0..n {
                let twice = (r.wrapping_mul(ks.multiplier) % n + ks.offset) % n;
                assert_eq!(ks.key_for_rank(r), twice, "n={n} rank {r}");
            }
        }
    }

    #[test]
    fn sample_key_is_sample_rank_mapped() {
        for pop in [Popularity::Uniform, Popularity::Zipf(0.9)] {
            let ks = KeySpace::new(1_000, pop);
            let mut by_key = StdRng::seed_from_u64(6);
            let mut by_rank = StdRng::seed_from_u64(6);
            for _ in 0..1_000 {
                let rank = ks.sample_rank(&mut by_rank);
                assert_eq!(ks.sample_key(&mut by_key), ks.key_for_rank(rank));
            }
        }
    }

    #[test]
    fn batched_keys_are_single_draws() {
        for pop in [Popularity::Uniform, Popularity::Zipf(0.9)] {
            let ks = KeySpace::new(1_000, pop);
            let mut single = StdRng::seed_from_u64(8);
            let mut batch = StdRng::seed_from_u64(8);
            for k in [0usize, 1, 7, 65, 200] {
                let want: Vec<u64> = (0..k).map(|_| ks.sample_key(&mut single)).collect();
                let mut got = vec![0; k];
                ks.sample_keys_into(&mut batch, &mut got);
                assert_eq!(got, want, "{pop:?} k={k}");
            }
            assert_eq!(batch.random::<u64>(), single.random::<u64>(), "{pop:?}");
        }
    }

    #[test]
    fn uniform_sampling_covers_space() {
        let ks = KeySpace::new(100, Popularity::Uniform);
        let mut rng = StdRng::seed_from_u64(4);
        let seen: HashSet<u64> = (0..10_000).map(|_| ks.sample_key(&mut rng)).collect();
        assert!(seen.len() > 95, "only {} keys seen", seen.len());
    }

    #[test]
    fn zipf_sampling_is_skewed_but_scattered() {
        let ks = KeySpace::new(10_000, Popularity::Zipf(1.0));
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..100_000 {
            *counts.entry(ks.sample_key(&mut rng)).or_insert(0u64) += 1;
        }
        let hottest_key = *counts.iter().max_by_key(|(_, &c)| c).unwrap().0;
        // Hot rank 0 maps to a permuted location, not to key 0.
        assert_eq!(hottest_key, ks.key_for_rank(0));
        assert_ne!(hottest_key, 0);
        // Skew: hottest key gets far more than the uniform share.
        let hot_count = counts[&hottest_key];
        assert!(hot_count > 100_000 / 10_000 * 100);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_keyspace_rejected() {
        KeySpace::new(0, Popularity::Uniform);
    }
}
