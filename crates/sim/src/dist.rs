//! Fast, exact samplers for the model math on the engine's hot paths.
//!
//! PR 1 left per-event cost dominated by distribution draws: every served
//! request samples log-normal service noise, every task draws exponential
//! inter-arrival gaps and Zipf-ranked keys. This module supplies the fast
//! layer all of those route through:
//!
//! * [`standard_normal`] / [`standard_exp`] — 256-layer **ziggurat**
//!   samplers. The common path (≈98.9% of draws) consumes one `u64`,
//!   performs one table compare and one multiply, and touches *no*
//!   transcendental function; rejection makes the output distribution
//!   exact, not approximate. Layer tables are committed as IEEE-754 bit
//!   patterns ([`tables`]), so the fast path is identical on every
//!   platform (the rare wedge/tail falls back to `exp`/`ln` from libm).
//! * [`BoxMuller`] — the previous Box–Muller transform, kept as the
//!   differential/statistical baseline. Unlike the old ad-hoc helpers it
//!   caches the sine mate of every cosine draw, so no output is ever
//!   discarded.
//! * [`standard_exp_inv_cdf`] — the inverse-CDF exponential baseline,
//!   with the `u → 1` edge guarded so `ln(0)` can never produce an
//!   infinite gap.
//! * [`AliasTable`] — Vose's alias method: O(1) draws from any finite
//!   discrete distribution, replacing the per-draw cumulative scans in
//!   `brb-workload` (Zipf key popularity, fan-out class selection).
//!
//! Every sampler is deterministic under a fixed [`crate::rng::DetRng`]
//! stream: same seed + same sampler ⇒ the same draw sequence, which the
//! golden-hash tests in `tests/dist_golden.rs` pin per seed.

pub mod tables;

use rand::Rng;
use tables::{ZIG_EXP_F, ZIG_EXP_R, ZIG_EXP_X, ZIG_NORM_F, ZIG_NORM_R, ZIG_NORM_X};

/// 2⁻⁵³: converts a 53-bit integer into a unit double in `[0, 1)`.
const UNIT_53: f64 = 1.0 / (1u64 << 53) as f64;

/// Draws a standard normal (mean 0, variance 1) via the ziggurat.
///
/// One `next_u64` per draw on the common path: the low 8 bits select a
/// layer, the high 53 bits form the within-layer coordinate (sign
/// included). Wedge and tail draws reject with exact acceptance tests.
#[inline]
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let bits = rng.next_u64();
        let i = (bits & 0xFF) as usize;
        // 53 high bits → u ∈ [−1, 1).
        let u = (bits >> 11) as f64 * (2.0 * UNIT_53) - 1.0;
        let x = u * ZIG_NORM_X[i];
        if x.abs() < ZIG_NORM_X[i + 1] {
            // Entirely inside layer i: the overwhelmingly common case.
            return x;
        }
        if i == 0 {
            // Base layer, beyond R: sample the tail (Marsaglia's method).
            // `1 − u` keeps the logarithms' arguments in (0, 1].
            loop {
                let e1 = -(1.0 - rng.random::<f64>()).ln() / ZIG_NORM_R;
                let e2 = -(1.0 - rng.random::<f64>()).ln();
                if 2.0 * e2 >= e1 * e1 {
                    let t = ZIG_NORM_R + e1;
                    return if u < 0.0 { -t } else { t };
                }
            }
        }
        // Wedge between x[i+1] and x[i]: accept under the true pdf.
        let y = ZIG_NORM_F[i] + rng.random::<f64>() * (ZIG_NORM_F[i + 1] - ZIG_NORM_F[i]);
        if y < (-x * x / 2.0).exp() {
            return x;
        }
    }
}

/// Draws a standard exponential (mean 1) via the ziggurat.
#[inline]
pub fn standard_exp<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let bits = rng.next_u64();
        let i = (bits & 0xFF) as usize;
        // 53 high bits → u ∈ [0, 1).
        let u = (bits >> 11) as f64 * UNIT_53;
        let x = u * ZIG_EXP_X[i];
        if x < ZIG_EXP_X[i + 1] {
            return x;
        }
        if i == 0 {
            // Memoryless tail: R plus a fresh exponential.
            return ZIG_EXP_R + standard_exp_inv_cdf(rng);
        }
        let y = ZIG_EXP_F[i] + rng.random::<f64>() * (ZIG_EXP_F[i + 1] - ZIG_EXP_F[i]);
        if y < (-x).exp() {
            return x;
        }
    }
}

/// The inverse-CDF exponential `−ln(1 − u)` — the pre-ziggurat baseline,
/// kept for differential tests and benchmarks. Because `u ∈ [0, 1)`,
/// `1 − u ∈ (0, 1]` and the logarithm is always finite: the `u = 1`
/// edge (`ln(0) = −∞`) cannot occur by construction, and a defensive
/// guard keeps the draw finite even under a hostile `Rng`.
#[inline]
pub fn standard_exp_inv_cdf<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u: f64 = rng.random();
    // Defense in depth: a nonconforming Rng returning u ≥ 1 must not
    // turn into an infinite service time or arrival gap.
    let one_minus_u = (1.0 - u).max(f64::MIN_POSITIVE);
    -one_minus_u.ln()
}

/// The Box–Muller standard-normal baseline.
///
/// Each transform produces a cosine/sine *pair* from two uniforms; the
/// mate is cached so no output is discarded (the old helper threw the
/// sine away). Kept purely as the differential/statistical baseline for
/// [`standard_normal`] — two transcendentals per pair versus the
/// ziggurat's none.
#[derive(Debug, Clone, Copy, Default)]
pub struct BoxMuller {
    /// The banked sine mate of the last transform, if unspent.
    spare: Option<f64>,
}

impl BoxMuller {
    /// Creates a sampler with no banked output.
    pub fn new() -> Self {
        BoxMuller::default()
    }

    /// Draws one standard normal (serving the banked mate first).
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        // `1 − u1 ∈ (0, 1]` guards ln(0); the .max is defense in depth
        // against a nonconforming Rng handing back u1 ≥ 1.
        let u1: f64 = rng.random();
        let u2: f64 = rng.random();
        let r = (-2.0 * (1.0 - u1).max(f64::MIN_POSITIVE).ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare = Some(r * theta.sin());
        r * theta.cos()
    }
}

/// Vose's alias method: O(1) sampling from a finite discrete
/// distribution with arbitrary (unnormalized) weights.
///
/// Construction is O(n) and deterministic; every draw spends exactly two
/// RNG words (a uniform slot and a coin against the slot's retention
/// probability) regardless of `n` — unlike the O(log n) cumulative-table
/// binary search it replaces in `brb-workload::zipf`.
#[derive(Debug, Clone)]
pub struct AliasTable {
    /// Retention probability of each slot, in `[0, 1]`.
    prob: Vec<f64>,
    /// Donor index used when the slot's coin rejects.
    alias: Vec<u32>,
}

impl AliasTable {
    /// Builds the table from unnormalized weights.
    ///
    /// # Panics
    /// As for [`Self::from_weights`].
    pub fn new(weights: &[f64]) -> Self {
        Self::from_weights(weights.to_vec())
    }

    /// [`Self::new`] over an owned weight vector, which becomes the
    /// table's retention column in place — a million-slot Zipf table
    /// never holds a second copy of its weights.
    ///
    /// # Panics
    /// Panics if `weights` is empty, longer than `u32::MAX`, or contains
    /// a negative/non-finite entry, or if all weights are zero.
    pub fn from_weights(weights: Vec<f64>) -> Self {
        assert!(!weights.is_empty(), "alias table needs at least one slot");
        assert!(
            weights.len() <= u32::MAX as usize,
            "alias table too large for u32 aliases"
        );
        let mut total = 0.0;
        for &w in &weights {
            assert!(
                w.is_finite() && w >= 0.0,
                "alias weights must be finite and non-negative"
            );
            total += w;
        }
        assert!(total > 0.0, "alias weights must not all be zero");

        let n = weights.len();
        // Scale so the average slot weight is exactly 1.
        let scale = n as f64 / total;
        let mut prob = weights;
        let mut alias: Vec<u32> = (0..n as u32).collect();

        // Index worklists; filled in slot order so construction is
        // deterministic for a given weight vector.
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, p) in prob.iter_mut().enumerate() {
            *p *= scale;
            if *p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            // The small slot keeps `prob[s]` of its own mass and borrows
            // the rest from the large slot.
            alias[s as usize] = l;
            prob[l as usize] -= 1.0 - prob[s as usize];
            if prob[l as usize] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        // Residual slots (numerical leftovers) retain all their mass.
        for &i in small.iter().chain(large.iter()) {
            prob[i as usize] = 1.0;
        }
        AliasTable { prob, alias }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// Whether the table is empty (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draws a slot index in `0..len()`.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let i = rng.random_range(0..self.prob.len());
        let u: f64 = rng.random();
        if u < self.prob[i] {
            i
        } else {
            self.alias[i] as usize
        }
    }

    /// Reconstructs the probability of slot `i` from the table — for
    /// differential tests: must equal the normalized input weight.
    pub fn pmf(&self, i: usize) -> f64 {
        let n = self.prob.len() as f64;
        let direct = self.prob[i] / n;
        let borrowed: f64 = self
            .prob
            .iter()
            .zip(&self.alias)
            .filter(|&(_, &a)| a as usize == i)
            .map(|(&p, _)| (1.0 - p) / n)
            .sum();
        direct + borrowed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn moments(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
        (mean, var)
    }

    #[test]
    fn tables_are_consistent() {
        // X decreasing to 0, F = f(X) increasing to 1, equal areas.
        for i in 0..256 {
            assert!(ZIG_NORM_X[i] > ZIG_NORM_X[i + 1]);
            assert!(ZIG_NORM_F[i] < ZIG_NORM_F[i + 1]);
            assert!(ZIG_EXP_X[i] > ZIG_EXP_X[i + 1]);
            assert!(ZIG_EXP_F[i] < ZIG_EXP_F[i + 1]);
        }
        assert_eq!(ZIG_NORM_X[256], 0.0);
        assert_eq!(ZIG_NORM_F[256], 1.0);
        assert_eq!(ZIG_EXP_X[256], 0.0);
        assert_eq!(ZIG_EXP_F[256], 1.0);
        assert_eq!(ZIG_NORM_X[1], ZIG_NORM_R);
        assert_eq!(ZIG_EXP_X[1], ZIG_EXP_R);
        // F really is the pdf evaluated at X.
        for i in 0..257 {
            let fx = (-ZIG_NORM_X[i] * ZIG_NORM_X[i] / 2.0).exp();
            assert!((fx - ZIG_NORM_F[i]).abs() < 1e-15, "norm layer {i}");
            let fe = (-ZIG_EXP_X[i]).exp();
            assert!((fe - ZIG_EXP_F[i]).abs() < 1e-15, "exp layer {i}");
        }
        // Layer rectangles all have the same area V = x[i]·(f[i+1] − f[i]).
        let v1 = ZIG_NORM_X[1] * (ZIG_NORM_F[2] - ZIG_NORM_F[1]);
        for i in 2..256 {
            let v = ZIG_NORM_X[i] * (ZIG_NORM_F[i + 1] - ZIG_NORM_F[i]);
            assert!((v - v1).abs() / v1 < 1e-9, "norm layer {i} area {v}");
        }
    }

    #[test]
    fn ziggurat_normal_moments() {
        let mut rng = StdRng::seed_from_u64(1);
        let xs: Vec<f64> = (0..400_000).map(|_| standard_normal(&mut rng)).collect();
        let (mean, var) = moments(&xs);
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.01, "var {var}");
        // Symmetry of the tails.
        let hi = xs.iter().filter(|&&x| x > 2.0).count() as f64;
        let lo = xs.iter().filter(|&&x| x < -2.0).count() as f64;
        assert!((hi / lo - 1.0).abs() < 0.1, "tail asymmetry {hi} vs {lo}");
    }

    #[test]
    fn ziggurat_normal_tail_quantiles() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut xs: Vec<f64> = (0..400_000).map(|_| standard_normal(&mut rng)).collect();
        xs.sort_by(f64::total_cmp);
        // Φ⁻¹(0.99) = 2.3263, Φ⁻¹(0.999) = 3.0902.
        let q99 = xs[(xs.len() as f64 * 0.99) as usize];
        let q999 = xs[(xs.len() as f64 * 0.999) as usize];
        assert!((q99 - 2.3263).abs() < 0.03, "p99 {q99}");
        assert!((q999 - 3.0902).abs() < 0.08, "p99.9 {q999}");
    }

    #[test]
    fn ziggurat_matches_box_muller_statistically() {
        // The tentpole claim: switching samplers changes the draw
        // sequence, not the distribution.
        let mut zig_rng = StdRng::seed_from_u64(3);
        let mut bm_rng = StdRng::seed_from_u64(4);
        let mut bm = BoxMuller::new();
        let n = 300_000;
        let mut zig: Vec<f64> = (0..n).map(|_| standard_normal(&mut zig_rng)).collect();
        let mut bmv: Vec<f64> = (0..n).map(|_| bm.sample(&mut bm_rng)).collect();
        let (zm, zv) = moments(&zig);
        let (bm_mean, bv) = moments(&bmv);
        assert!((zm - bm_mean).abs() < 0.01, "means {zm} vs {bm_mean}");
        assert!((zv - bv).abs() < 0.02, "vars {zv} vs {bv}");
        zig.sort_by(f64::total_cmp);
        bmv.sort_by(f64::total_cmp);
        for q in [0.01, 0.25, 0.5, 0.75, 0.99] {
            let i = (n as f64 * q) as usize;
            assert!(
                (zig[i] - bmv[i]).abs() < 0.05,
                "quantile {q}: {} vs {}",
                zig[i],
                bmv[i]
            );
        }
    }

    #[test]
    fn ziggurat_exp_moments_and_tail() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut xs: Vec<f64> = (0..400_000).map(|_| standard_exp(&mut rng)).collect();
        let (mean, var) = moments(&xs);
        assert!((mean - 1.0).abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
        assert!(xs.iter().all(|&x| x >= 0.0));
        xs.sort_by(f64::total_cmp);
        // Exponential p99 = ln(100) ≈ 4.6052.
        let q99 = xs[(xs.len() as f64 * 0.99) as usize];
        assert!((q99 - 4.6052).abs() < 0.1, "p99 {q99}");
    }

    #[test]
    fn exp_inverse_cdf_baseline_matches_ziggurat() {
        let mut a = StdRng::seed_from_u64(6);
        let mut b = StdRng::seed_from_u64(7);
        let n = 300_000;
        let zig: Vec<f64> = (0..n).map(|_| standard_exp(&mut a)).collect();
        let inv: Vec<f64> = (0..n).map(|_| standard_exp_inv_cdf(&mut b)).collect();
        let (zm, zv) = moments(&zig);
        let (im, iv) = moments(&inv);
        assert!((zm - im).abs() < 0.01, "means {zm} vs {im}");
        assert!((zv - iv).abs() < 0.03, "vars {zv} vs {iv}");
    }

    #[test]
    fn box_muller_uses_both_pair_members() {
        // Two draws must consume exactly two uniforms (one transform):
        // the mate is banked, not discarded.
        let mut counting = CountingRng(StdRng::seed_from_u64(8), 0);
        let mut bm = BoxMuller::new();
        let _ = bm.sample(&mut counting);
        let _ = bm.sample(&mut counting);
        assert_eq!(counting.1, 2, "pair mate was discarded");
        let _ = bm.sample(&mut counting);
        assert_eq!(counting.1, 4);
    }

    /// Wraps an RNG and counts `next_u64` calls.
    struct CountingRng(StdRng, u64);

    impl rand::Rng for CountingRng {
        fn next_u64(&mut self) -> u64 {
            self.1 += 1;
            self.0.next_u64()
        }
    }

    #[test]
    fn samplers_are_seed_deterministic() {
        for seed in [0u64, 1, 42, u64::MAX] {
            let seq = |f: &dyn Fn(&mut StdRng) -> f64| -> Vec<u64> {
                let mut rng = StdRng::seed_from_u64(seed);
                (0..256).map(|_| f(&mut rng).to_bits()).collect()
            };
            assert_eq!(
                seq(&|r| standard_normal(r)),
                seq(&|r| standard_normal(r)),
                "ziggurat normal diverged for seed {seed}"
            );
            assert_eq!(
                seq(&|r| standard_exp(r)),
                seq(&|r| standard_exp(r)),
                "ziggurat exp diverged for seed {seed}"
            );
        }
    }

    #[test]
    fn alias_table_reconstructs_pmf_exactly() {
        let weights = [1.0, 5.0, 0.25, 3.75, 0.0, 2.0];
        let t = AliasTable::new(&weights);
        let total: f64 = weights.iter().sum();
        for (i, &w) in weights.iter().enumerate() {
            let want = w / total;
            assert!(
                (t.pmf(i) - want).abs() < 1e-12,
                "slot {i}: {} vs {want}",
                t.pmf(i)
            );
        }
        let sum: f64 = (0..t.len()).map(|i| t.pmf(i)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn alias_table_empirical_frequencies() {
        let weights = [8.0, 4.0, 2.0, 1.0, 1.0];
        let t = AliasTable::new(&weights);
        let mut rng = StdRng::seed_from_u64(9);
        let n = 200_000u64;
        let mut counts = [0u64; 5];
        for _ in 0..n {
            counts[t.sample(&mut rng)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let emp = c as f64 / n as f64;
            let want = weights[i] / 16.0;
            assert!(
                (emp - want).abs() / want < 0.05,
                "slot {i}: {emp} vs {want}"
            );
        }
    }

    #[test]
    fn alias_table_zero_weight_slot_never_sampled() {
        let t = AliasTable::new(&[1.0, 0.0, 1.0]);
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..10_000 {
            assert_ne!(t.sample(&mut rng), 1);
        }
    }

    #[test]
    fn alias_table_singleton() {
        let t = AliasTable::new(&[7.0]);
        let mut rng = StdRng::seed_from_u64(11);
        assert_eq!(t.sample(&mut rng), 0);
        assert_eq!(t.pmf(0), 1.0);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn alias_table_rejects_empty() {
        AliasTable::new(&[]);
    }

    #[test]
    #[should_panic(expected = "not all be zero")]
    fn alias_table_rejects_all_zero() {
        AliasTable::new(&[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn alias_table_rejects_negative() {
        AliasTable::new(&[1.0, -0.5]);
    }
}
