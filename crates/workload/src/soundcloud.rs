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
//!
//! The model comes in two halves: [`PlaylistTables`], the popularity and
//! length samplers, which depend on the catalog numbers only and can
//! serve every seed of a sweep; and [`PlaylistCatalog`], which playlist
//! lists which tracks — the part a seed decides — stored as 4-byte
//! popularity ranks. Keys and value sizes are resolved when a trace is
//! drawn, for the playlists it actually fetches.

use crate::fanout::{FanoutDist, FanoutSampler};
use crate::keyspace::{KeySpace, Popularity};
use crate::poisson::PoissonProcess;
use crate::taskgen::{push_distinct, DistinctScratch, RequestSpec, SizeModel, TaskSpec};
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

/// Slots of a draw's direct-mapped `rank → request` cache (96 KiB),
/// indexed by rank, so the hottest 4096 tracks never evict each other.
/// A hit skips both the rank → key map and the size derivation.
const DRAW_CACHE_SLOTS: usize = 1 << 12;

/// The seed-independent half of a playlist workload: track popularity,
/// playlist lengths and playlist popularity. A function of the catalog
/// numbers alone (`num_tracks`, `num_playlists`, `length_dist`, both
/// Zipf exponents) — not of the seed or the size model — so one set of
/// tables serves every seed of a sweep.
#[derive(Debug, Clone)]
pub struct PlaylistTables {
    tracks: KeySpace,
    lengths: FanoutSampler,
    playlist_pop: Zipf,
}

impl PlaylistTables {
    /// Builds the samplers `config` describes; `config.sizes` is not read.
    ///
    /// # Panics
    /// Panics if there are no playlists, or more tracks than a `u32` rank
    /// can name.
    pub fn new(config: &SoundCloudConfig) -> Self {
        assert!(config.num_playlists > 0, "need at least one playlist");
        assert!(
            config.num_tracks <= u64::from(u32::MAX),
            "{} tracks exceed the catalog's u32 ranks",
            config.num_tracks
        );
        PlaylistTables {
            tracks: KeySpace::new(config.num_tracks, Popularity::Zipf(config.track_zipf)),
            lengths: FanoutSampler::new(config.length_dist.clone()),
            playlist_pop: Zipf::new(config.num_playlists, config.playlist_zipf),
        }
    }

    fn num_playlists(&self) -> usize {
        self.playlist_pop.universe() as usize
    }

    /// Bytes the two popularity tables hold on the heap: 12 per track
    /// and 12 per playlist.
    pub fn heap_bytes(&self) -> usize {
        self.tracks.heap_bytes() + self.playlist_pop.alias_table().heap_bytes()
    }
}

/// The per-seed half of a playlist workload: which tracks each playlist
/// lists, as popularity ranks — everything the seed decides and nothing
/// the [`PlaylistTables`] can recompute. Ranks, not keys or sizes: the
/// rank → key map is a bijection and a track's size a pure function of
/// its key, so both are resolved at draw time, for the playlists a trace
/// fetches (a 2000-task cell touches under a tenth of them).
#[derive(Debug, Clone)]
pub struct PlaylistCatalog {
    /// Every playlist's track ranks back to back.
    ranks: Vec<u32>,
    /// Playlist `i` is `ranks[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
}

impl PlaylistCatalog {
    /// Builds the playlist population over `tables`, using `rng` (a
    /// dedicated labelled stream) for all structural randomness: per
    /// playlist one length draw, then one track-rank draw per membership
    /// attempt — the consumption order traces are pinned to.
    ///
    /// # Panics
    /// Panics if the memberships outnumber a `u32` offset.
    pub fn build<R: Rng>(tables: &PlaylistTables, rng: &mut R) -> Self {
        let tracks = &tables.tracks;
        // Reserve a quarter past the expected membership count, then
        // shrink to fit: growing by doubling would hold the old and the
        // new buffer at once on its last step (6 MB for the paper shape's
        // 3.4 MB), while reserved pages nothing writes are never resident.
        let mean_len = tables.lengths.dist().mean().min(tracks.num_keys() as f64);
        let expected = mean_len * tables.num_playlists() as f64;
        let mut ranks: Vec<u32> = Vec::with_capacity((expected * 1.25) as usize);
        let mut offsets = Vec::with_capacity(tables.num_playlists() + 1);
        offsets.push(0);
        let mut scratch = DistinctScratch::default();
        for _ in 0..tables.num_playlists() {
            let want = tables.lengths.sample(rng) as usize;
            let len = want.min(tracks.num_keys() as usize);
            push_distinct(
                &mut ranks,
                len,
                &mut scratch,
                |ids| tracks.sample_ranks_into(rng, ids),
                |&rank| u64::from(rank),
                // `PlaylistTables::new` bounds every rank by `u32::MAX`.
                |rank| rank as u32,
            );
            offsets.push(u32::try_from(ranks.len()).expect("catalog exceeds u32 memberships"));
        }
        ranks.shrink_to_fit();
        PlaylistCatalog { ranks, offsets }
    }

    /// Number of playlists.
    pub fn num_playlists(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Playlist memberships over the whole population.
    pub fn memberships(&self) -> usize {
        self.ranks.len()
    }

    /// The track ranks of playlist `i`, in membership order.
    fn ranks(&self, i: usize) -> &[u32] {
        &self.ranks[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Bytes the catalog holds on the heap: 4 per membership and 4 per
    /// playlist boundary.
    pub fn heap_bytes(&self) -> usize {
        (self.ranks.capacity() + self.offsets.capacity()) * std::mem::size_of::<u32>()
    }

    /// Generates a trace of `num_tasks` playlist-fetch tasks with Poisson
    /// arrivals at `task_rate_per_sec`. `tables` must be the ones this
    /// catalog was built over; `sizes` prices each track.
    pub fn generate_trace<R: Rng>(
        &self,
        tables: &PlaylistTables,
        sizes: &SizeModel,
        num_tasks: usize,
        task_rate_per_sec: f64,
        rng: &mut R,
    ) -> Trace {
        let mut arrivals = PoissonProcess::new(task_rate_per_sec);
        // No rank is `u64::MAX`, so every slot starts empty.
        let empty = (
            u64::MAX,
            RequestSpec {
                key: 0,
                value_bytes: 0,
            },
        );
        let mut cache = vec![empty; DRAW_CACHE_SLOTS];
        let mut tasks = Vec::with_capacity(num_tasks);
        for id in 0..num_tasks {
            let arrival_ns = arrivals.next_arrival_ns(rng);
            let pl = tables.playlist_pop.sample(rng) as usize;
            let requests = self
                .ranks(pl)
                .iter()
                .map(|&rank| {
                    let rank = u64::from(rank);
                    let slot = &mut cache[rank as usize % DRAW_CACHE_SLOTS];
                    if slot.0 != rank {
                        let key = tables.tracks.key_for_rank(rank);
                        let value_bytes = sizes.size_of(key);
                        *slot = (rank, RequestSpec { key, value_bytes });
                    }
                    slot.1
                })
                .collect();
            tasks.push(TaskSpec {
                id: id as u64,
                arrival_ns,
                requests,
            });
        }
        Trace::new(tasks)
    }
}

/// Both halves of a playlist workload plus the configuration they came
/// from — the self-contained form for one-off traces. A sweep keeps the
/// halves apart instead, so its seeds share one [`PlaylistTables`]
/// (`brb_core::plan`).
#[derive(Debug, Clone)]
pub struct SoundCloudModel {
    config: SoundCloudConfig,
    tables: PlaylistTables,
    catalog: PlaylistCatalog,
}

impl SoundCloudModel {
    /// Builds the tables and, from `rng`, the catalog
    /// ([`PlaylistCatalog::build`] says what it draws).
    pub fn build<R: Rng>(config: SoundCloudConfig, rng: &mut R) -> Self {
        let tables = PlaylistTables::new(&config);
        let catalog = PlaylistCatalog::build(&tables, rng);
        SoundCloudModel {
            config,
            tables,
            catalog,
        }
    }

    /// The configuration this model was built from.
    pub fn config(&self) -> &SoundCloudConfig {
        &self.config
    }

    /// Number of playlists in the population.
    pub fn num_playlists(&self) -> usize {
        self.catalog.num_playlists()
    }

    /// Mean playlist length of the *built* population (sampled lengths, not
    /// the theoretical distribution mean).
    pub fn mean_playlist_len(&self) -> f64 {
        self.catalog.memberships() as f64 / self.num_playlists() as f64
    }

    /// Generates a trace of `num_tasks` playlist-fetch tasks with Poisson
    /// arrivals at `task_rate_per_sec`.
    pub fn generate_trace<R: Rng>(
        &self,
        num_tasks: usize,
        task_rate_per_sec: f64,
        rng: &mut R,
    ) -> Trace {
        self.catalog.generate_trace(
            &self.tables,
            &self.config.sizes,
            num_tasks,
            task_rate_per_sec,
            rng,
        )
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

    /// Playlist `i` of `m` as requests: keys and sizes resolved.
    fn playlist(m: &SoundCloudModel, i: usize) -> Vec<RequestSpec> {
        m.catalog
            .ranks(i)
            .iter()
            .map(|&rank| {
                let key = m.tables.tracks.key_for_rank(u64::from(rank));
                RequestSpec {
                    key,
                    value_bytes: m.config().sizes.size_of(key),
                }
            })
            .collect()
    }

    /// The materialized build as it stood before the flat layouts — one
    /// `Vec` of requests and one freshly allocated hash set per playlist,
    /// dedup on keys, a size derivation per membership — kept verbatim as
    /// the oracle the rank catalog must match playlist for playlist,
    /// draw for draw.
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

    /// The matching oracle draw: each task copies its playlist verbatim.
    fn draw_oracle<R: Rng>(
        config: &SoundCloudConfig,
        playlists: &[Vec<RequestSpec>],
        num_tasks: usize,
        rate: f64,
        rng: &mut R,
    ) -> Vec<TaskSpec> {
        let mut arrivals = PoissonProcess::new(rate);
        let popularity = Zipf::new(config.num_playlists, config.playlist_zipf);
        (0..num_tasks)
            .map(|id| {
                let arrival_ns = arrivals.next_arrival_ns(rng);
                let pl = popularity.sample(rng) as usize;
                TaskSpec {
                    id: id as u64,
                    arrival_ns,
                    requests: playlists[pl].clone(),
                }
            })
            .collect()
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
                    assert_eq!(playlist(&fast, i), *want, "{name} seed {seed} playlist {i}");
                    repeats |= has_repeat(want);
                }
                // Same stream position afterwards: whatever draws from
                // this stream next sees the same numbers.
                assert_eq!(
                    fast_rng.random::<u64>(),
                    oracle_rng.random::<u64>(),
                    "{name} seed {seed}: RNG consumption diverged"
                );
                // And the draw resolves the same requests the oracle
                // copies, task for task.
                let trace = fast.generate_trace(600, 5_000.0, &mut StdRng::seed_from_u64(seed));
                let want = draw_oracle(
                    &config,
                    &oracle,
                    600,
                    5_000.0,
                    &mut StdRng::seed_from_u64(seed),
                );
                assert_eq!(trace.tasks, want, "{name} seed {seed}: trace diverged");
            }
            assert_eq!(repeats, expect_repeats, "{name}: escape hatch coverage");
        }
    }

    #[test]
    fn tables_ignore_the_size_model() {
        // A catalog is ranks; only the draw prices them.
        let config = SoundCloudConfig {
            num_tracks: 5_000,
            num_playlists: 500,
            ..Default::default()
        };
        let mut small = config.clone();
        small.sizes.cap_bytes = 512;
        let a = SoundCloudModel::build(config, &mut StdRng::seed_from_u64(3));
        let b = SoundCloudModel::build(small, &mut StdRng::seed_from_u64(3));
        for i in 0..a.num_playlists() {
            assert_eq!(a.catalog.ranks(i), b.catalog.ranks(i));
        }
        let trace = b.generate_trace(200, 1_000.0, &mut StdRng::seed_from_u64(4));
        assert!(trace
            .tasks
            .iter()
            .flat_map(|t| &t.requests)
            .all(|r| r.value_bytes <= 512));
    }

    #[test]
    fn playlists_have_distinct_tracks() {
        let m = small_model(1);
        for i in 0..m.num_playlists() {
            let p = playlist(&m, i);
            assert!(!has_repeat(&p), "playlist {i} repeats a track");
            assert!(!p.is_empty());
        }
    }

    #[test]
    fn catalog_is_four_bytes_per_membership() {
        let m = small_model(2);
        let c = &m.catalog;
        assert_eq!(
            c.heap_bytes(),
            4 * (c.memberships() + c.num_playlists() + 1)
        );
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
                // Draw-time sizes match the key-deterministic size model.
                assert_eq!(r.value_bytes, m.config().sizes.size_of(r.key));
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
            assert_eq!(a.catalog.ranks(i), b.catalog.ranks(i));
        }
    }

    #[test]
    #[should_panic(expected = "exceed the catalog's u32 ranks")]
    fn more_tracks_than_u32_ranks_rejected() {
        PlaylistTables::new(&SoundCloudConfig {
            num_tracks: u64::from(u32::MAX) + 1,
            ..Default::default()
        });
    }
}
