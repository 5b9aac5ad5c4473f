//! Workload plans: the per-seed half of trace generation.
//!
//! Generating a trace has two halves of very different cost and very
//! different inputs:
//!
//! * the **plan** — the playlist catalog ([`SoundCloudModel`], ~0.1 s at
//!   a million tracks) for [`WorkloadKind::Playlist`], the key-popularity
//!   table ([`KeySpace`]) for [`WorkloadKind::Synthetic`]. It is a
//!   function of the seed, the workload kind's catalog numbers and the
//!   size model — **not** of load, task count, strategy or any overload
//!   knob;
//! * the **draw** — `num_tasks` arrivals at the configured task rate from
//!   a fresh `"workload"` stream, microseconds per thousand tasks.
//!
//! A sweep over load therefore needs one plan per seed, not one per
//! (cell, seed): the grid executor in [`crate::experiment`] builds each
//! seed's plan once and draws every cell's trace from it.
//! [`EngineWorld::generate_trace`](crate::engine::EngineWorld::generate_trace)
//! is `build` then `draw` for the single-run case, so both routes
//! produce the same bytes (the catalog and the draw use separate
//! labelled RNG streams; neither sees how often the other ran).

use crate::config::{ExperimentConfig, WorkloadConfig, WorkloadKind};
use brb_sim::RngFactory;
use brb_workload::keyspace::{KeySpace, Popularity};
use brb_workload::soundcloud::{SoundCloudConfig, SoundCloudModel};
use brb_workload::taskgen::{TaskGenerator, TaskSpec};
use brb_workload::PoissonProcess;

/// What a seed's traces are all drawn from.
#[derive(Debug, Clone)]
pub enum WorkloadPlan {
    /// Key universe and popularity table of a synthetic workload.
    Synthetic(KeySpace),
    /// Playlist catalog of a playlist workload.
    Playlist(SoundCloudModel),
}

impl WorkloadPlan {
    /// Builds the plan `cfg` implies. Reads `cfg.seed`,
    /// `cfg.workload.kind` and `cfg.workload.sizes` only.
    pub fn build(cfg: &ExperimentConfig) -> Self {
        match &cfg.workload.kind {
            WorkloadKind::Synthetic {
                num_keys,
                zipf_exponent,
                ..
            } => {
                let pop = if *zipf_exponent == 0.0 {
                    Popularity::Uniform
                } else {
                    Popularity::Zipf(*zipf_exponent)
                };
                WorkloadPlan::Synthetic(KeySpace::new(*num_keys, pop))
            }
            WorkloadKind::Playlist {
                num_tracks,
                num_playlists,
                playlist_zipf,
            } => {
                let sc = SoundCloudConfig {
                    num_tracks: *num_tracks,
                    num_playlists: *num_playlists,
                    playlist_zipf: *playlist_zipf,
                    sizes: cfg.workload.sizes,
                    ..Default::default()
                };
                let mut catalog = RngFactory::new(cfg.seed).stream("catalog");
                WorkloadPlan::Playlist(SoundCloudModel::build(sc, &mut catalog))
            }
        }
    }

    /// Whether, at any one seed, [`Self::build`] yields the same plan for
    /// both workloads — everything `build` reads besides the seed. A
    /// synthetic plan ignores the fan-out distribution and the size model
    /// (both belong to the draw), so a `mean_fanout` sweep shares one.
    pub fn shared_by(a: &WorkloadConfig, b: &WorkloadConfig) -> bool {
        match (&a.kind, &b.kind) {
            (
                WorkloadKind::Synthetic {
                    num_keys: keys_a,
                    zipf_exponent: zipf_a,
                    ..
                },
                WorkloadKind::Synthetic {
                    num_keys: keys_b,
                    zipf_exponent: zipf_b,
                    ..
                },
            ) => keys_a == keys_b && zipf_a == zipf_b,
            (WorkloadKind::Playlist { .. }, WorkloadKind::Playlist { .. }) => {
                a.kind == b.kind && a.sizes == b.sizes
            }
            _ => false,
        }
    }

    /// Draws `cfg`'s trace: `cfg.workload.num_tasks` tasks at its task
    /// rate from a fresh `"workload"` stream of `cfg.seed`. `self` must
    /// be the plan of `cfg` — built from it, or from a config at the same
    /// seed whose workload is [`Self::shared_by`] `cfg`'s.
    ///
    /// # Panics
    /// Panics if the plan's kind is not `cfg`'s.
    pub fn draw(&self, cfg: &ExperimentConfig) -> Vec<TaskSpec> {
        let workload = &cfg.workload;
        let task_rate = workload.task_rate(&cfg.cluster);
        let rng = RngFactory::new(cfg.seed).stream("workload");
        match (self, &workload.kind) {
            (WorkloadPlan::Synthetic(keyspace), WorkloadKind::Synthetic { fanout, .. }) => {
                TaskGenerator::new(
                    PoissonProcess::new(task_rate),
                    fanout.clone(),
                    keyspace,
                    workload.sizes,
                    rng,
                )
                .take(workload.num_tasks)
            }
            (WorkloadPlan::Playlist(catalog), WorkloadKind::Playlist { .. }) => {
                let mut rng = rng;
                catalog
                    .generate_trace(workload.num_tasks, task_rate, &mut rng)
                    .tasks
            }
            _ => panic!("workload plan drawn for a config of the other kind"),
        }
    }
}

/// Whether two configs imply the same trace at any one seed: a shared
/// plan and the same draw (task count, task rate, and — synthetic only —
/// fan-out distribution and size model). Cells that differ only on
/// strategy-side axes (hedge delay, shed watermark) share one trace.
pub fn same_trace(a: &ExperimentConfig, b: &ExperimentConfig) -> bool {
    a.workload.kind == b.workload.kind
        && a.workload.sizes == b.workload.sizes
        && a.workload.num_tasks == b.workload.num_tasks
        && a.workload.task_rate(&a.cluster).to_bits() == b.workload.task_rate(&b.cluster).to_bits()
}
