//! Workload plans: the reusable halves of trace generation.
//!
//! Generating a trace has three parts of very different cost and very
//! different inputs:
//!
//! * the **tables** ([`PlanTables`]) — the popularity and length
//!   samplers: for [`WorkloadKind::Playlist`] the track and playlist
//!   Zipf tables and the length mixture ([`PlaylistTables`], ~57 ms and
//!   ~13 MB at a million tracks), for [`WorkloadKind::Synthetic`] the key
//!   popularity table ([`KeySpace`]). A function of the workload kind's
//!   catalog numbers alone — **not** of the seed, the size model, load,
//!   task count, strategy or any overload knob;
//! * the **catalog** ([`PlaylistCatalog`], playlist workloads only) —
//!   which tracks each playlist lists, as 4-byte popularity ranks, drawn
//!   from the seed's `"catalog"` stream over the tables (~70 ms and
//!   ~4 MB for the paper's 100k playlists; measured in
//!   `crates/workload/README.md`);
//! * the **draw** — `num_tasks` arrivals at the configured task rate from
//!   a fresh `"workload"` stream, keys and value sizes resolved for the
//!   playlists fetched; microseconds per thousand tasks.
//!
//! A [`WorkloadPlan`] is a seed's tables and catalog: what its traces are
//! all drawn from. A sweep over load therefore needs one set of tables
//! per grid and one catalog per seed, not one of each per (cell, seed):
//! the grid executor in [`crate::experiment`] builds the tables once,
//! each seed's catalog once over them, and draws every cell's trace from
//! its seed's plan.
//! [`EngineWorld::generate_trace`](crate::engine::EngineWorld::generate_trace)
//! is [`WorkloadPlan::build`] (its own tables) then `draw` for the
//! single-run case, so both routes produce the same bytes (the catalog
//! and the draw use separate labelled RNG streams; neither sees how
//! often the other ran, and the tables take no randomness at all).

use crate::config::{ExperimentConfig, WorkloadConfig, WorkloadKind};
use brb_sim::RngFactory;
use brb_workload::keyspace::{KeySpace, Popularity};
use brb_workload::soundcloud::{PlaylistCatalog, PlaylistTables, SoundCloudConfig};
use brb_workload::taskgen::{TaskGenerator, TaskSpec};
use brb_workload::PoissonProcess;
use std::sync::Arc;

/// The seed-independent half of a workload plan.
#[derive(Debug, Clone)]
pub enum PlanTables {
    /// Key universe and popularity table of a synthetic workload.
    Synthetic(KeySpace),
    /// Popularity and length samplers of a playlist workload.
    Playlist(PlaylistTables),
}

impl PlanTables {
    /// Builds the tables `workload` implies. Reads `workload.kind` only,
    /// and of a synthetic kind only its key count and Zipf exponent.
    pub fn build(workload: &WorkloadConfig) -> Self {
        match &workload.kind {
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
                PlanTables::Synthetic(KeySpace::new(*num_keys, pop))
            }
            WorkloadKind::Playlist {
                num_tracks,
                num_playlists,
                playlist_zipf,
            } => PlanTables::Playlist(PlaylistTables::new(&SoundCloudConfig {
                num_tracks: *num_tracks,
                num_playlists: *num_playlists,
                playlist_zipf: *playlist_zipf,
                ..Default::default()
            })),
        }
    }

    /// Whether [`Self::build`] yields the same tables for both workloads
    /// — everything `build` reads. A synthetic table ignores the fan-out
    /// distribution (it belongs to the draw), so a `mean_fanout` sweep
    /// shares one; no table reads the size model.
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
            (WorkloadKind::Playlist { .. }, WorkloadKind::Playlist { .. }) => a.kind == b.kind,
            _ => false,
        }
    }
}

/// What a seed's traces are all drawn from: the (shared) tables plus,
/// for a playlist workload, the seed's catalog over them.
#[derive(Debug, Clone)]
pub struct WorkloadPlan {
    tables: Arc<PlanTables>,
    catalog: Option<PlaylistCatalog>,
}

impl WorkloadPlan {
    /// Builds `cfg`'s plan, tables included. Reads `cfg.seed` and
    /// `cfg.workload.kind` only.
    pub fn build(cfg: &ExperimentConfig) -> Self {
        Self::over(Arc::new(PlanTables::build(&cfg.workload)), cfg.seed)
    }

    /// The plan at `seed` over already-built `tables`: a playlist
    /// workload's catalog from the seed's `"catalog"` stream, nothing
    /// for a synthetic one.
    pub fn over(tables: Arc<PlanTables>, seed: u64) -> Self {
        let catalog = match &*tables {
            PlanTables::Synthetic(_) => None,
            PlanTables::Playlist(playlists) => {
                let mut rng = RngFactory::new(seed).stream("catalog");
                Some(PlaylistCatalog::build(playlists, &mut rng))
            }
        };
        WorkloadPlan { tables, catalog }
    }

    /// The seed's playlist catalog; `None` for a synthetic workload.
    pub(crate) fn catalog(&self) -> Option<&PlaylistCatalog> {
        self.catalog.as_ref()
    }

    /// Draws `cfg`'s trace: `cfg.workload.num_tasks` tasks at its task
    /// rate from a fresh `"workload"` stream of `cfg.seed`. `self` must
    /// be the plan of `cfg` — built from it, or at the same seed over
    /// tables [`PlanTables::shared_by`] `cfg`'s workload.
    ///
    /// # Panics
    /// Panics if the plan's kind is not `cfg`'s.
    pub fn draw(&self, cfg: &ExperimentConfig) -> Vec<TaskSpec> {
        let workload = &cfg.workload;
        let task_rate = workload.task_rate(&cfg.cluster);
        let mut rng = RngFactory::new(cfg.seed).stream("workload");
        match (&*self.tables, &self.catalog, &workload.kind) {
            (PlanTables::Synthetic(keyspace), None, WorkloadKind::Synthetic { fanout, .. }) => {
                TaskGenerator::new(
                    PoissonProcess::new(task_rate),
                    fanout.clone(),
                    keyspace,
                    workload.sizes,
                    rng,
                )
                .take(workload.num_tasks)
            }
            (PlanTables::Playlist(tables), Some(catalog), WorkloadKind::Playlist { .. }) => {
                catalog
                    .generate_trace(
                        tables,
                        &workload.sizes,
                        workload.num_tasks,
                        task_rate,
                        &mut rng,
                    )
                    .tasks
            }
            _ => panic!("workload plan drawn for a config of the other kind"),
        }
    }
}

/// Whether two configs imply the same trace at any one seed: shared
/// tables and the same draw (task count, task rate, size model and —
/// synthetic only — fan-out distribution). Cells that differ only on
/// strategy-side axes (hedge delay, shed watermark) share one trace.
pub fn same_trace(a: &ExperimentConfig, b: &ExperimentConfig) -> bool {
    a.workload.kind == b.workload.kind
        && a.workload.sizes == b.workload.sizes
        && a.workload.num_tasks == b.workload.num_tasks
        && a.workload.task_rate(&a.cluster).to_bits() == b.workload.task_rate(&b.cluster).to_bits()
}
