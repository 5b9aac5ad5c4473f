//! The committed workload specs and the three ways the ledger reshapes
//! them: seed offsetting, the 1/20-size warm-up, and `--quick`.
//!
//! Specs are the TOML files under `workloads/`, compiled in — not
//! registry presets — so a preset edit cannot silently change what the
//! benchmark runs.

use brb_core::config::WorkloadKind;
use brb_lab::ScenarioSpec;
use serde::{Deserialize, Serialize};

/// The seed the committed specs (and `baseline.json`'s digests) are
/// written for.
pub const DEFAULT_SEED: u64 = 1;

/// How far timed section `index` of a `--seed seed` run shifts every
/// spec seed. Each section gets inputs of its own — the playlist
/// catalog is a lottery (a handful of Zipf-popular playlists carry
/// ~10 % of all fetches, so one seed's offered load sits ±8 % off
/// nominal), and a summary over sections that all replay one draw would
/// inherit that draw's luck. Section 0 of the default seed is the
/// committed spec, unshifted.
pub fn seed_shift(seed: u64, index: usize) -> u64 {
    (seed - DEFAULT_SEED) * 1_000 + index as u64 * 10
}

const SIM_FIGURE2: &str = include_str!("../workloads/sim-figure2.toml");
const SIM_OVERLOAD: &str = include_str!("../workloads/sim-overload.toml");
const LAB_CAPACITY_SWEEP: &str = include_str!("../workloads/lab-capacity-sweep.toml");
const RT_STEADY: &str = include_str!("../workloads/rt-steady.toml");
const RT_OVERLOAD: &str = include_str!("../workloads/rt-overload.toml");
const RT_FLOOR: &str = include_str!("../workloads/rt-floor.toml");

/// The committed TOML text of a scenario-spec workload.
pub fn scenario_toml(workload: &str) -> Option<&'static str> {
    match workload {
        "sim-figure2" => Some(SIM_FIGURE2),
        "sim-overload" => Some(SIM_OVERLOAD),
        "lab-capacity-sweep" => Some(LAB_CAPACITY_SWEEP),
        "rt-steady" => Some(RT_STEADY),
        "rt-overload" => Some(RT_OVERLOAD),
        _ => None,
    }
}

/// `rt-floor` drives `RtClient` directly, so its parameters are its own
/// small table rather than a `ScenarioSpec`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FloorSpec {
    pub name: String,
    pub description: String,
    pub num_servers: u32,
    pub workers_per_server: u32,
    pub replication: u32,
    /// Keys populated on the cluster; tasks draw from `0..num_keys`.
    pub num_keys: u64,
    pub tasks: usize,
    /// Closed-loop window: tasks in flight.
    pub window: usize,
    /// Keys per task.
    pub fanout: usize,
    pub seed: u64,
}

impl FloorSpec {
    pub fn committed() -> Result<FloorSpec, String> {
        toml::from_str(RT_FLOOR).map_err(|e| format!("workloads/rt-floor.toml: {e}"))
    }

    pub fn validate(&self) -> Result<(), String> {
        let ok = self.num_servers > 0
            && self.workers_per_server > 0
            && (1..=self.num_servers).contains(&self.replication)
            && self.num_keys > 0
            && self.tasks > 0
            && self.window > 0
            && self.fanout > 0;
        ok.then_some(())
            .ok_or_else(|| format!("rt-floor spec has a zero or out-of-range field: {self:?}"))
    }

    pub fn shifted(mut self, shift: u64) -> FloorSpec {
        self.seed += shift;
        self
    }

    pub fn with_tasks(mut self, tasks: usize) -> FloorSpec {
        self.tasks = tasks;
        self
    }
}

/// Parses a committed scenario spec (not yet validated).
pub fn parse_scenario(text: &str) -> Result<ScenarioSpec, String> {
    ScenarioSpec::from_toml(text).map_err(|e| e.to_string())
}

/// Shifts every spec seed by `shift` (see [`seed_shift`]).
pub fn shifted(mut spec: ScenarioSpec, shift: u64) -> ScenarioSpec {
    for s in &mut spec.seeds {
        *s += shift;
    }
    spec
}

/// Tasks per run after dividing by `by`, never below what keeps a run
/// meaningful.
pub fn shrunk_tasks(tasks: usize, by: usize) -> usize {
    (tasks / by).max(100)
}

/// The warm-up shape: 1/20 of the tasks, and only the first value of
/// every sweep axis (the warm-up exists to fault in code and allocator
/// state, not to cover the grid).
pub fn warmup_of(mut spec: ScenarioSpec) -> ScenarioSpec {
    spec.workload.num_tasks = shrunk_tasks(spec.workload.num_tasks, 20);
    spec.sweep.load.truncate(1);
    spec.sweep.mean_fanout.truncate(1);
    spec.sweep.hedge_delay_us.truncate(1);
    spec.sweep.shed_above.truncate(1);
    spec
}

/// `--quick`: ≈10× less work, numbers not comparable with full runs.
/// An unscaled catalog shrinks too, since building it is the work.
pub fn quick_of(mut spec: ScenarioSpec) -> ScenarioSpec {
    spec.workload.num_tasks = shrunk_tasks(spec.workload.num_tasks, 10);
    if !spec.scale_catalog {
        if let WorkloadKind::Playlist {
            num_tracks,
            num_playlists,
            ..
        } = &mut spec.workload.kind
        {
            *num_tracks /= 10;
            *num_playlists /= 10;
        }
    }
    spec
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::WORKLOADS;

    #[test]
    fn default_seed_leaves_committed_specs_byte_identical() {
        for w in WORKLOADS {
            let Some(text) = scenario_toml(w.name) else {
                continue;
            };
            let spec = shifted(parse_scenario(text).unwrap(), seed_shift(DEFAULT_SEED, 0));
            assert_eq!(
                spec.to_toml().unwrap(),
                text,
                "{} drifted from its TOML",
                w.name
            );
            assert_eq!(spec.name, w.name);
            spec.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        }
        let floor = FloorSpec::committed().unwrap();
        assert_eq!(floor.clone().shifted(seed_shift(DEFAULT_SEED, 0)), floor);
        assert_eq!(floor.name, "rt-floor");
        floor.validate().unwrap();
    }

    #[test]
    fn other_seeds_and_sections_shift_every_spec_seed_without_overlap() {
        let spec = shifted(parse_scenario(SIM_FIGURE2).unwrap(), seed_shift(2, 3));
        assert_eq!(spec.seeds, vec![1_031, 1_032]);
        assert_eq!(
            FloorSpec::committed()
                .unwrap()
                .shifted(seed_shift(1, 2))
                .seed,
            21
        );
        // Consecutive sections never share a seed for specs of < 10 seeds.
        assert!(seed_shift(1, 1) - seed_shift(1, 0) >= 10);
        assert!(seed_shift(2, 0) - seed_shift(1, 99) >= 10);
    }

    #[test]
    fn every_workload_has_a_spec() {
        for w in WORKLOADS {
            assert!(
                scenario_toml(w.name).is_some() || w.name == "rt-floor",
                "{} has no committed spec",
                w.name
            );
        }
    }

    #[test]
    fn warmup_and_quick_shrink_but_stay_valid() {
        let full = parse_scenario(LAB_CAPACITY_SWEEP).unwrap();
        let warm = warmup_of(full.clone());
        assert_eq!(warm.sweep.load.len(), 1);
        assert_eq!(warm.workload.num_tasks, full.workload.num_tasks / 20);
        warm.validate().unwrap();
        let quick = quick_of(full.clone());
        assert_eq!(quick.workload.num_tasks, full.workload.num_tasks / 10);
        quick.validate().unwrap();
        assert_eq!(shrunk_tasks(150, 20), 100);
    }
}
