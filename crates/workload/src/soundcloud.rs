//! A playlist-structured synthetic trace: the SoundCloud substitute.
//!
//! The paper's workload is "gathered from SoundCloud and comprises of
//! approximately 500,000 tasks, with an average fan-out of 8.6 requests per
//! task" — a task is typically "requesting all tracks in a playlist". The
//! production trace is unavailable, so we model its *structure*:
//!
//! * a **catalog** of tracks (keys) whose byte sizes follow the ETC Pareto
//!   fit and never change;
//! * a **playlist population** whose lengths follow the calibrated
//!   SoundCloud fan-out mixture (mean ≈ 8.6, heavy tail) and whose member
//!   tracks are drawn by Zipf popularity (hit tracks appear in many
//!   playlists);
//! * **tasks** that pick a playlist by Zipf popularity and fetch *all* of
//!   its tracks — giving correlated key sets across tasks, unlike
//!   independent per-request sampling.

use crate::fanout::{FanoutDist, FanoutSampler};
use crate::keyspace::{KeySpace, Popularity};
use crate::poisson::PoissonProcess;
use crate::taskgen::{push_distinct, KeySet, RequestSpec, SizeModel, TaskSpec};
use crate::trace::Trace;
use crate::zipf::Zipf;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Configuration for the playlist-model trace builder.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SoundCloudConfig {
    /// Number of distinct tracks (keys) in the catalog.
    pub num_tracks: u64,
    /// Number of playlists in the population.
    pub num_playlists: u64,
    /// Playlist length distribution (defaults to the calibrated mixture).
    pub length_dist: FanoutDist,
    /// Zipf exponent for track popularity within playlists.
    pub track_zipf: f64,
    /// Zipf exponent for playlist popularity across tasks.
    pub playlist_zipf: f64,
    /// Value-size model for track payloads.
    pub sizes: SizeModel,
}

impl Default for SoundCloudConfig {
    fn default() -> Self {
        SoundCloudConfig {
            num_tracks: 100_000,
            num_playlists: 20_000,
            length_dist: FanoutDist::soundcloud_like(),
            track_zipf: 0.9,
            playlist_zipf: 0.8,
            sizes: SizeModel::facebook_etc(),
        }
    }
}

/// Slots of the build's direct-mapped `key → size` cache (1 MiB). Over
/// half of a million-track catalog's size derivations hit it; a full
/// per-track table would catch two thirds, but its 4 MB would sit in
/// the heap under every trace drawn afterwards and raise the peak
/// footprint of the simulations that follow.
const SIZE_CACHE_SLOTS: usize = 1 << 16;

/// A generated playlist catalog plus popularity models; reusable across
/// traces (every load cell of a sweep draws from its seed's one catalog).
#[derive(Debug, Clone)]
pub struct SoundCloudModel {
    config: SoundCloudConfig,
    /// Every playlist's requests back to back, value sizes resolved at
    /// build time: tracks are distinct within a playlist and a track's
    /// byte size is a fixed property of its key, so trace generation can
    /// reuse these verbatim instead of re-deriving sizes for every
    /// fetching task. One allocation, not one per playlist.
    requests: Vec<RequestSpec>,
    /// Playlist `i` is `requests[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<usize>,
    playlist_pop: Zipf,
}

impl SoundCloudModel {
    /// Builds the catalog and playlist population from `config`, using
    /// `rng` (a dedicated labelled stream) for all structural randomness:
    /// per playlist one length draw, then one track draw per membership
    /// attempt — the consumption order traces are pinned to.
    pub fn build<R: Rng>(config: SoundCloudConfig, rng: &mut R) -> Self {
        assert!(config.num_playlists > 0, "need at least one playlist");
        let lengths = FanoutSampler::new(config.length_dist.clone());
        let tracks = KeySpace::new(config.num_tracks, Popularity::Zipf(config.track_zipf));
        let num_playlists = config.num_playlists as usize;
        let mut requests: Vec<RequestSpec> = Vec::new();
        let mut offsets = Vec::with_capacity(num_playlists + 1);
        offsets.push(0);
        let mut seen = KeySet::new();
        // A track's size is a pure function of its key, and hot tracks sit
        // in many playlists: a million-track catalog resolves ~860k
        // memberships over ~280k distinct tracks.
        let mut size_cache = vec![(u64::MAX, 0u64); SIZE_CACHE_SLOTS];
        for _ in 0..num_playlists {
            let want = lengths.sample(rng) as usize;
            let len = want.min(config.num_tracks as usize);
            push_distinct(&mut requests, len, &tracks, rng, &mut seen, |key| {
                let slot = &mut size_cache[key as usize % SIZE_CACHE_SLOTS];
                if slot.0 != key {
                    *slot = (key, config.sizes.size_of(key));
                }
                slot.1
            });
            offsets.push(requests.len());
        }
        let playlist_pop = Zipf::new(config.num_playlists, config.playlist_zipf);
        SoundCloudModel {
            config,
            requests,
            offsets,
            playlist_pop,
        }
    }

    /// The configuration this model was built from.
    pub fn config(&self) -> &SoundCloudConfig {
        &self.config
    }

    /// Number of playlists in the population.
    pub fn num_playlists(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The requests (track key + resolved value size) of playlist `i`.
    pub fn playlist(&self, i: usize) -> &[RequestSpec] {
        &self.requests[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Mean playlist length of the *built* population (sampled lengths, not
    /// the theoretical distribution mean).
    pub fn mean_playlist_len(&self) -> f64 {
        self.requests.len() as f64 / self.num_playlists() as f64
    }

    /// Generates a trace of `num_tasks` playlist-fetch tasks with Poisson
    /// arrivals at `task_rate_per_sec`.
    pub fn generate_trace<R: Rng>(
        &self,
        num_tasks: usize,
        task_rate_per_sec: f64,
        rng: &mut R,
    ) -> Trace {
        let mut arrivals = PoissonProcess::new(task_rate_per_sec);
        let mut tasks = Vec::with_capacity(num_tasks);
        for id in 0..num_tasks {
            let arrival_ns = arrivals.next_arrival_ns(rng);
            let pl = self.playlist_pop.sample(rng) as usize;
            tasks.push(TaskSpec {
                id: id as u64,
                arrival_ns,
                // Sizes were resolved once at build time; a fetch is a
                // straight copy of the playlist's request list.
                requests: self.playlist(pl).to_vec(),
            });
        }
        Trace::new(tasks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn small_model(seed: u64) -> SoundCloudModel {
        let config = SoundCloudConfig {
            num_tracks: 5_000,
            num_playlists: 1_000,
            ..Default::default()
        };
        SoundCloudModel::build(config, &mut StdRng::seed_from_u64(seed))
    }

    /// The build as it stood before the flat layout — one `Vec` and one
    /// freshly allocated hash set per playlist, a size derivation per
    /// membership — kept verbatim as the oracle the fast build must match
    /// playlist for playlist, draw for draw.
    fn build_oracle<R: Rng>(config: &SoundCloudConfig, rng: &mut R) -> Vec<Vec<RequestSpec>> {
        let lengths = FanoutSampler::new(config.length_dist.clone());
        let tracks = KeySpace::new(config.num_tracks, Popularity::Zipf(config.track_zipf));
        let mut playlists = Vec::with_capacity(config.num_playlists as usize);
        for _ in 0..config.num_playlists {
            let want = lengths.sample(rng) as usize;
            let len = want.min(config.num_tracks as usize);
            let mut members = Vec::with_capacity(len);
            let mut seen = HashSet::with_capacity(len);
            let mut attempts = 0usize;
            while members.len() < len {
                let key = tracks.sample_key(rng);
                attempts += 1;
                if seen.insert(key) || attempts > len * 64 {
                    members.push(RequestSpec {
                        key,
                        value_bytes: config.sizes.size_of(key),
                    });
                }
            }
            playlists.push(members);
        }
        playlists
    }

    fn has_repeat(playlist: &[RequestSpec]) -> bool {
        let distinct: HashSet<u64> = playlist.iter().map(|r| r.key).collect();
        distinct.len() < playlist.len()
    }

    #[test]
    fn flat_build_matches_the_per_playlist_oracle() {
        let shapes = [
            // The calibrated mixture on a roomy catalog: scan dedup only.
            (
                "default",
                SoundCloudConfig {
                    num_tracks: 5_000,
                    num_playlists: 1_000,
                    ..Default::default()
                },
                false,
            ),
            // Fewer tracks than a long playlist wants, and a popularity
            // so steep the tail tracks are never drawn in `len * 64`
            // attempts: the duplicate escape hatch on the scan path.
            (
                "exhausted",
                SoundCloudConfig {
                    num_tracks: 40,
                    num_playlists: 400,
                    track_zipf: 3.0,
                    ..Default::default()
                },
                true,
            ),
            // Playlists longer than the scan limit: hash-set dedup.
            (
                "long",
                SoundCloudConfig {
                    num_tracks: 5_000,
                    num_playlists: 60,
                    length_dist: FanoutDist::Uniform { min: 100, max: 400 },
                    ..Default::default()
                },
                false,
            ),
            // Both at once: the escape hatch through the hash set.
            (
                "long-exhausted",
                SoundCloudConfig {
                    num_tracks: 150,
                    num_playlists: 30,
                    length_dist: FanoutDist::Fixed(200),
                    track_zipf: 2.5,
                    ..Default::default()
                },
                true,
            ),
        ];
        for (name, config, expect_repeats) in shapes {
            let mut repeats = false;
            for seed in 1..=8u64 {
                let mut fast_rng = StdRng::seed_from_u64(seed);
                let mut oracle_rng = StdRng::seed_from_u64(seed);
                let fast = SoundCloudModel::build(config.clone(), &mut fast_rng);
                let oracle = build_oracle(&config, &mut oracle_rng);
                assert_eq!(fast.num_playlists(), oracle.len(), "{name} seed {seed}");
                for (i, want) in oracle.iter().enumerate() {
                    assert_eq!(
                        fast.playlist(i),
                        &want[..],
                        "{name} seed {seed} playlist {i}"
                    );
                    repeats |= has_repeat(want);
                }
                // Same stream position afterwards: whatever draws from
                // this stream next sees the same numbers.
                assert_eq!(
                    fast_rng.random::<u64>(),
                    oracle_rng.random::<u64>(),
                    "{name} seed {seed}: RNG consumption diverged"
                );
            }
            assert_eq!(repeats, expect_repeats, "{name}: escape hatch coverage");
        }
    }

    #[test]
    fn playlists_have_distinct_tracks() {
        let m = small_model(1);
        for i in 0..m.num_playlists() {
            let p = m.playlist(i);
            assert!(!has_repeat(p), "playlist {i} repeats a track");
            assert!(!p.is_empty());
            // Build-time sizes match the key-deterministic size model.
            for r in p {
                assert_eq!(r.value_bytes, m.config().sizes.size_of(r.key));
            }
        }
    }

    #[test]
    fn population_mean_length_near_target() {
        let m = small_model(2);
        let mean = m.mean_playlist_len();
        assert!((mean - 8.6).abs() < 1.0, "mean playlist length {mean}");
    }

    #[test]
    fn trace_fanout_tracks_playlist_lengths() {
        let m = small_model(3);
        let t = m.generate_trace(5_000, 1_000.0, &mut StdRng::seed_from_u64(4));
        let s = t.stats().unwrap();
        // Popularity is independent of length, so the trace mean fan-out
        // should approximate the population mean length.
        assert!(
            (s.mean_fanout - m.mean_playlist_len()).abs() < 1.5,
            "trace {} vs population {}",
            s.mean_fanout,
            m.mean_playlist_len()
        );
    }

    #[test]
    fn repeated_tasks_share_key_sets() {
        // With Zipf playlist popularity, popular playlists are fetched by
        // many tasks — the correlated-access structure independent
        // sampling cannot produce.
        let m = small_model(5);
        let t = m.generate_trace(2_000, 1_000.0, &mut StdRng::seed_from_u64(6));
        let mut key_sets = std::collections::HashMap::new();
        for task in &t.tasks {
            let mut keys: Vec<u64> = task.requests.iter().map(|r| r.key).collect();
            keys.sort_unstable();
            *key_sets.entry(keys).or_insert(0u32) += 1;
        }
        let max_repeat = key_sets.values().copied().max().unwrap();
        assert!(
            max_repeat > 5,
            "no playlist fetched repeatedly ({max_repeat})"
        );
    }

    #[test]
    fn track_sizes_stable_across_tasks() {
        let m = small_model(7);
        let t = m.generate_trace(1_000, 1_000.0, &mut StdRng::seed_from_u64(8));
        let mut sizes = std::collections::HashMap::new();
        for task in &t.tasks {
            for r in &task.requests {
                let prev = sizes.insert(r.key, r.value_bytes);
                if let Some(p) = prev {
                    assert_eq!(p, r.value_bytes);
                }
            }
        }
    }

    #[test]
    fn build_is_deterministic() {
        let a = small_model(9);
        let b = small_model(9);
        for i in 0..a.num_playlists() {
            assert_eq!(a.playlist(i), b.playlist(i));
        }
    }
}
