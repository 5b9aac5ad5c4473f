//! Task generation: arrivals × fan-out × keys × value sizes.
//!
//! A [`TaskSpec`] is the unit of work the paper calls a *task*: a batch of
//! logically-related reads issued by one application server. The generator
//! combines a Poisson arrival process, a fan-out distribution, a key
//! popularity model and a value-size model into a deterministic stream.
//!
//! Value sizes are a **property of the key** (the same track always has the
//! same byte size), derived by hashing the key into a quantile of the
//! Generalized Pareto fit. This keeps client-side cost forecasts coherent:
//! two requests for the same key always forecast the same cost.

use crate::fanout::{FanoutDist, FanoutSampler};
use crate::keyspace::KeySpace;
use crate::pareto::GeneralizedPareto;
use crate::poisson::PoissonProcess;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;

/// Most requests one task may carry: the simulator counts a task's
/// outstanding requests, and numbers them, in 16 bits. Fan-out
/// distributions, replayed traces and the engine all check against it.
pub const MAX_TASK_REQUESTS: usize = u16::MAX as usize;

/// Largest value size a request may name: the simulator carries sizes
/// in 32 bits. Size models (`cap_bytes`), replayed traces and the engine
/// all check against it.
pub const MAX_VALUE_BYTES: u64 = u32::MAX as u64;

/// One read request within a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RequestSpec {
    /// The key to read.
    pub key: u64,
    /// Size of the value stored under `key`, in bytes.
    pub value_bytes: u64,
}

/// One task: a batch of reads arriving together at an application server.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskSpec {
    /// Dense task id (also its position in the trace).
    pub id: u64,
    /// Arrival time in nanoseconds since trace start.
    pub arrival_ns: u64,
    /// The task's requests; `len()` is the fan-out (≥ 1).
    pub requests: Vec<RequestSpec>,
}

impl TaskSpec {
    /// The task's fan-out.
    pub fn fanout(&self) -> usize {
        self.requests.len()
    }

    /// Total bytes the task reads.
    pub fn total_bytes(&self) -> u64 {
        self.requests.iter().map(|r| r.value_bytes).sum()
    }

    /// Checks what every consumer of a task relies on: at least one and
    /// at most [`MAX_TASK_REQUESTS`] requests, none larger than
    /// [`MAX_VALUE_BYTES`]. The error says which bound broke.
    pub fn check_limits(&self) -> Result<(), String> {
        if self.requests.is_empty() {
            return Err("task has no requests".into());
        }
        if self.requests.len() > MAX_TASK_REQUESTS {
            return Err(format!(
                "task has {} requests, more than the limit of {MAX_TASK_REQUESTS}",
                self.requests.len()
            ));
        }
        match self
            .requests
            .iter()
            .find(|r| r.value_bytes > MAX_VALUE_BYTES)
        {
            Some(r) => Err(format!(
                "key {} has a {}-byte value, more than the limit of {MAX_VALUE_BYTES}",
                r.key, r.value_bytes
            )),
            None => Ok(()),
        }
    }
}

/// Deterministic mapping from keys to value sizes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SizeModel {
    /// The value-size distribution.
    pub dist: GeneralizedPareto,
    /// Upper bound on value sizes in bytes (Memcached-style cap).
    pub cap_bytes: u64,
    /// Salt decorrelating the key→size map from other key-derived values.
    pub salt: u64,
}

impl SizeModel {
    /// The model the paper uses: Facebook ETC Pareto fit, 1 MiB cap.
    pub fn facebook_etc() -> Self {
        SizeModel {
            dist: GeneralizedPareto::facebook_etc(),
            cap_bytes: 1 << 20,
            salt: 0x5CA1_AB1E,
        }
    }

    /// The (deterministic) size of the value stored under `key`.
    pub fn size_of(&self, key: u64) -> u64 {
        // Hash the key into a uniform in [0,1), then invert the CDF.
        let h = splitmix64(key ^ self.salt);
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        let raw = self.dist.quantile(u);
        (raw.round().max(1.0) as u64).min(self.cap_bytes)
    }

    /// Mean size over the whole (hashed) key population — by construction
    /// this converges to the capped distribution mean.
    pub fn mean_bytes(&self) -> f64 {
        self.dist.mean_bytes_capped(self.cap_bytes)
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Longest batch deduplicated by scanning its own members. The
/// calibrated fan-out mixture tops out here, so the paper's workloads
/// never hash a key; longer batches (custom distributions) use the hash
/// set, where a scan would go quadratic.
const SCAN_DEDUP_MAX: usize = 128;

/// Dedup set of [`push_distinct`]: insert and clear only, so the
/// hasher's iteration order is never observed.
// brb-lint: allow(D002) — membership-only dedup scratch, never iterated
type KeySet = std::collections::HashSet<u64>;

/// Scratch of [`push_distinct`], reused across batches so only the
/// first long batch allocates: the dedup set of batches past
/// [`SCAN_DEDUP_MAX`] and the ids of one draw round, never more than
/// one batch's length.
#[derive(Debug, Default)]
pub(crate) struct DistinctScratch {
    seen: KeySet,
    ids: Vec<u64>,
}

/// Appends `len` members to `out`, each made by `make` from an id that
/// `draw` samples, the ids distinct within the batch whenever the id
/// space allows it (a playlist lists each track once). `id_of` reads a
/// member's id back for the scan.
///
/// `draw` fills a slice with ids, and must take exactly the random
/// numbers of that many one-id draws, in order — the consumption traces
/// are pinned to. Each round asks for `len − accepted` ids: every
/// attempt accepts at most one id, so the one-id loop would draw at
/// least that many more, and the round's ids are judged one by one, in
/// draw order, exactly as that loop judges them. The batch therefore
/// takes the same words and keeps the same members, and lets the table
/// behind `draw` overlap its cache misses.
pub(crate) fn push_distinct<T>(
    out: &mut Vec<T>,
    len: usize,
    scratch: &mut DistinctScratch,
    mut draw: impl FnMut(&mut [u64]),
    id_of: impl Fn(&T) -> u64,
    mut make: impl FnMut(u64) -> T,
) {
    let start = out.len();
    let scan = len <= SCAN_DEDUP_MAX;
    let DistinctScratch { seen, ids } = scratch;
    if !scan {
        seen.clear();
    }
    let mut attempts = 0usize;
    while out.len() - start < len {
        let round = len - (out.len() - start);
        if ids.len() < round {
            ids.resize(round, 0);
        }
        let ids = &mut ids[..round];
        draw(ids);
        for &id in ids.iter() {
            attempts += 1;
            let fresh = if scan {
                out[start..].iter().all(|member| id_of(member) != id)
            } else {
                seen.insert(id)
            };
            // Hot Zipf keys repeat often; bound the resampling work and
            // accept a duplicate only if the space is effectively exhausted.
            if fresh || attempts > len * 64 {
                out.push(make(id));
            }
        }
    }
}

/// Streams [`TaskSpec`]s from composed distributions. The key space is
/// held as `K` — owned by default, `&KeySpace` when one popularity table
/// (12 MB at a million keys) serves many generators, as it does across
/// the cells of a sweep.
#[derive(Debug)]
pub struct TaskGenerator<R: Rng, K: Borrow<KeySpace> = KeySpace> {
    arrivals: PoissonProcess,
    fanout: FanoutSampler,
    keyspace: K,
    sizes: SizeModel,
    rng: R,
    next_id: u64,
    scratch: DistinctScratch,
}

impl<R: Rng, K: Borrow<KeySpace>> TaskGenerator<R, K> {
    /// Creates a generator. `rng` should be a dedicated labelled stream
    /// (see `brb_sim::RngFactory`) so workload randomness is independent of
    /// everything else in an experiment.
    pub fn new(
        arrivals: PoissonProcess,
        fanout: FanoutDist,
        keyspace: K,
        sizes: SizeModel,
        rng: R,
    ) -> Self {
        TaskGenerator {
            arrivals,
            // Compiles (and validates) the distribution: empirical
            // mixtures draw through an O(1) alias table.
            fanout: FanoutSampler::new(fanout),
            keyspace,
            sizes,
            rng,
            next_id: 0,
            scratch: DistinctScratch::default(),
        }
    }

    /// The size model (exposed so engines can forecast costs consistently).
    pub fn size_model(&self) -> &SizeModel {
        &self.sizes
    }

    /// Generates the next task. Keys within a task are distinct whenever
    /// the key space allows it (a playlist lists each track once).
    pub fn next_task(&mut self) -> TaskSpec {
        let arrival_ns = self.arrivals.next_arrival_ns(&mut self.rng);
        let want = self.fanout.sample(&mut self.rng) as usize;
        let keyspace = self.keyspace.borrow();
        let fanout = want.min(keyspace.num_keys() as usize);
        let mut requests = Vec::with_capacity(fanout);
        let (sizes, rng) = (self.sizes, &mut self.rng);
        push_distinct(
            &mut requests,
            fanout,
            &mut self.scratch,
            |ids| keyspace.sample_keys_into(rng, ids),
            |r: &RequestSpec| r.key,
            |key| RequestSpec {
                key,
                value_bytes: sizes.size_of(key),
            },
        );
        let id = self.next_id;
        self.next_id += 1;
        TaskSpec {
            id,
            arrival_ns,
            requests,
        }
    }

    /// Generates `n` tasks into a vector.
    pub fn take(&mut self, n: usize) -> Vec<TaskSpec> {
        (0..n).map(|_| self.next_task()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keyspace::Popularity;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn gen(seed: u64) -> TaskGenerator<StdRng> {
        TaskGenerator::new(
            PoissonProcess::new(10_000.0),
            FanoutDist::soundcloud_like(),
            KeySpace::new(100_000, Popularity::Zipf(0.9)),
            SizeModel::facebook_etc(),
            StdRng::seed_from_u64(seed),
        )
    }

    /// The one-id loop [`push_distinct`] batches, kept verbatim as the
    /// oracle its callers are compared against, draw for draw.
    fn push_distinct_oracle<T>(
        out: &mut Vec<T>,
        len: usize,
        seen: &mut KeySet,
        mut draw: impl FnMut() -> u64,
        id_of: impl Fn(&T) -> u64,
        mut make: impl FnMut(u64) -> T,
    ) {
        let start = out.len();
        let scan = len <= SCAN_DEDUP_MAX;
        if !scan {
            seen.clear();
        }
        let mut attempts = 0usize;
        while out.len() - start < len {
            let id = draw();
            attempts += 1;
            let fresh = if scan {
                out[start..].iter().all(|member| id_of(member) != id)
            } else {
                seen.insert(id)
            };
            if fresh || attempts > len * 64 {
                out.push(make(id));
            }
        }
    }

    /// `next_task` as it stood before batched draws: one key per
    /// attempt through the one-id loop.
    fn next_task_oracle<R: Rng>(g: &mut TaskGenerator<R>) -> TaskSpec {
        let arrival_ns = g.arrivals.next_arrival_ns(&mut g.rng);
        let want = g.fanout.sample(&mut g.rng) as usize;
        let fanout = want.min(g.keyspace.num_keys() as usize);
        let mut requests = Vec::with_capacity(fanout);
        let (sizes, rng, keyspace) = (g.sizes, &mut g.rng, &g.keyspace);
        push_distinct_oracle(
            &mut requests,
            fanout,
            &mut g.scratch.seen,
            || keyspace.sample_key(rng),
            |r: &RequestSpec| r.key,
            |key| RequestSpec {
                key,
                value_bytes: sizes.size_of(key),
            },
        );
        let id = g.next_id;
        g.next_id += 1;
        TaskSpec {
            id,
            arrival_ns,
            requests,
        }
    }

    #[test]
    fn batched_next_task_matches_the_per_draw_oracle() {
        let shapes = [
            // The calibrated mixture on roomy key spaces: scan dedup.
            (
                "zipf",
                FanoutDist::soundcloud_like(),
                KeySpace::new(100_000, Popularity::Zipf(0.9)),
                false,
                300,
            ),
            (
                "uniform",
                FanoutDist::soundcloud_like(),
                KeySpace::new(10_000, Popularity::Uniform),
                false,
                300,
            ),
            // Fan-outs past the scan limit: hash-set dedup.
            (
                "long-zipf",
                FanoutDist::Uniform { min: 129, max: 400 },
                KeySpace::new(5_000, Popularity::Zipf(0.9)),
                false,
                100,
            ),
            (
                "long-uniform",
                FanoutDist::Fixed(300),
                KeySpace::new(100_000, Popularity::Uniform),
                false,
                100,
            ),
            // A popularity so steep the tail keys are never drawn in
            // `len * 64` attempts: the duplicate escape hatch, on the
            // scan path and through the hash set (few tasks: each one
            // runs its full `len * 64` attempts).
            (
                "exhausted",
                FanoutDist::Fixed(50),
                KeySpace::new(40, Popularity::Zipf(3.0)),
                true,
                20,
            ),
            (
                "long-exhausted",
                FanoutDist::Fixed(200),
                KeySpace::new(150, Popularity::Zipf(2.5)),
                true,
                10,
            ),
        ];
        for (name, fanout, keyspace, expect_repeats, tasks) in shapes {
            let mut repeats = false;
            for seed in 1..=4u64 {
                let make = || {
                    TaskGenerator::new(
                        PoissonProcess::new(10_000.0),
                        fanout.clone(),
                        keyspace.clone(),
                        SizeModel::facebook_etc(),
                        StdRng::seed_from_u64(seed),
                    )
                };
                let (mut fast, mut oracle) = (make(), make());
                for i in 0..tasks {
                    let want = next_task_oracle(&mut oracle);
                    assert_eq!(fast.next_task(), want, "{name} seed {seed} task {i}");
                    let distinct: HashSet<u64> = want.requests.iter().map(|r| r.key).collect();
                    repeats |= distinct.len() < want.requests.len();
                }
                assert_eq!(
                    fast.rng.random::<u64>(),
                    oracle.rng.random::<u64>(),
                    "{name} seed {seed}: RNG consumption diverged"
                );
            }
            assert_eq!(repeats, expect_repeats, "{name}: escape hatch coverage");
        }
    }

    #[test]
    fn tasks_have_increasing_ids_and_arrivals() {
        let mut g = gen(1);
        let tasks = g.take(1000);
        for (i, t) in tasks.iter().enumerate() {
            assert_eq!(t.id, i as u64);
            if i > 0 {
                assert!(t.arrival_ns > tasks[i - 1].arrival_ns);
            }
            assert!(t.fanout() >= 1);
        }
    }

    #[test]
    fn keys_within_a_task_are_distinct() {
        let mut g = gen(2);
        for _ in 0..500 {
            let t = g.next_task();
            let distinct: HashSet<u64> = t.requests.iter().map(|r| r.key).collect();
            assert_eq!(distinct.len(), t.requests.len());
        }
    }

    #[test]
    fn sizes_are_key_deterministic() {
        let m = SizeModel::facebook_etc();
        assert_eq!(m.size_of(42), m.size_of(42));
        let mut g1 = gen(3);
        let mut g2 = gen(4); // different stream, same size model
        let t1 = g1.take(200);
        let t2 = g2.take(200);
        let mut sizes = std::collections::HashMap::new();
        for t in t1.iter().chain(t2.iter()) {
            for r in &t.requests {
                let prev = sizes.insert(r.key, r.value_bytes);
                if let Some(p) = prev {
                    assert_eq!(p, r.value_bytes, "key {} changed size", r.key);
                }
            }
        }
    }

    #[test]
    fn size_population_mean_matches_distribution() {
        let m = SizeModel::facebook_etc();
        let n = 100_000u64;
        let mean = (0..n).map(|k| m.size_of(k) as f64).sum::<f64>() / n as f64;
        let rel = (mean - m.mean_bytes()).abs() / m.mean_bytes();
        assert!(
            rel < 0.05,
            "population mean {mean} vs model {}",
            m.mean_bytes()
        );
    }

    #[test]
    fn generator_is_deterministic_per_seed() {
        let a = gen(7).take(100);
        let b = gen(7).take(100);
        assert_eq!(a, b);
        let c = gen(8).take(100);
        assert_ne!(a, c);
    }

    #[test]
    fn fanout_capped_by_keyspace() {
        let mut g = TaskGenerator::new(
            PoissonProcess::new(100.0),
            FanoutDist::Fixed(50),
            KeySpace::new(10, Popularity::Uniform),
            SizeModel::facebook_etc(),
            StdRng::seed_from_u64(9),
        );
        let t = g.next_task();
        assert_eq!(t.fanout(), 10);
    }

    #[test]
    fn total_bytes_sums_requests() {
        let t = TaskSpec {
            id: 0,
            arrival_ns: 0,
            requests: vec![
                RequestSpec {
                    key: 1,
                    value_bytes: 10,
                },
                RequestSpec {
                    key: 2,
                    value_bytes: 32,
                },
            ],
        };
        assert_eq!(t.total_bytes(), 42);
        assert_eq!(t.fanout(), 2);
    }
}
