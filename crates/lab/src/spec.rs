//! The declarative scenario description and its lowering.
//!
//! A [`ScenarioSpec`] is pure data — serde-round-trippable through TOML
//! and JSON — capturing everything an experiment sweep needs: cluster,
//! workload, fault injections, the strategy set, seeds, and sweep axes.
//! [`ScenarioSpec::lower`] expands the axes into a grid of
//! [`ScenarioCell`]s, each carrying a concrete
//! [`ExperimentConfig`] base for the existing multi-seed runner.

use crate::error::ScenarioError;
use brb_core::config::{
    ClusterConfig, ExperimentConfig, OverloadConfig, QueueConfig, Strategy, WorkloadConfig,
    WorkloadKind,
};
use brb_net::{LatencyModel, PlanMode};
use brb_sched::CoDelConfig;
use brb_workload::FanoutDist;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Exclusive upper bound on offered load, as a fraction of cluster
/// capacity. Overload experiments deliberately go past 1.0× — that is
/// the whole point of the overload lane — but an open-loop run much
/// past saturation only grows an unbounded backlog and tells the same
/// story at 10× the wall-clock cost, so validation rejects anything at
/// or above this bound. One constant guards the base load, the load
/// sweep axis, and the degraded-capacity feasibility check.
pub const MAX_OFFERED_LOAD: f64 = 1.5;

/// One degraded storage server: `server` runs at `speed` × nominal.
/// Clients and the credits controller are *not* told; adapting is the
/// strategies' job.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq)]
pub struct DegradedServer {
    /// Server index in `[0, num_servers)`.
    pub server: u32,
    /// Speed factor in `(0, ∞)`; `0.5` = half speed.
    pub speed: f64,
}

/// Transient in-network latency spikes layered onto a constant-latency
/// fabric: each message independently eats an extra uniform
/// `[extra_lo_us, extra_hi_us]` delay with probability `p_spike`.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq)]
pub struct SpikeFault {
    /// Per-message spike probability in `[0, 1]`.
    pub p_spike: f64,
    /// Minimum extra delay, microseconds.
    pub extra_lo_us: u64,
    /// Maximum extra delay, microseconds.
    pub extra_hi_us: u64,
}

/// Fault injections applied when the spec lowers.
#[derive(Debug, Clone, Default, Serialize, Deserialize, PartialEq)]
pub struct FaultSpec {
    /// Per-server speed degradations.
    #[serde(default)]
    pub degraded: Vec<DegradedServer>,
    /// Transient latency spikes.
    #[serde(default)]
    pub spike: Option<SpikeFault>,
}

impl FaultSpec {
    /// Whether any fault is configured.
    pub fn is_empty(&self) -> bool {
        self.degraded.is_empty() && self.spike.is_none()
    }
}

/// Sweep axes. Each non-empty axis contributes one grid dimension; the
/// grid is the cartesian product, and an all-empty sweep is a single
/// cell at the spec's base values.
///
/// Serde is hand-written (additive schema): the three original axes
/// always serialize, `shed_above` only when non-empty, so spec echoes
/// in pre-existing reports stay byte-identical.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepSpec {
    /// Offered load as a fraction of aggregate capacity.
    pub load: Vec<f64>,
    /// Mean task fan-out (lowered to a shifted-geometric synthetic
    /// workload, the shape the fan-out ablation uses — heterogeneity is
    /// what makes task-awareness matter).
    pub mean_fanout: Vec<u32>,
    /// Hedge trigger delay in microseconds, applied to every `Hedged`
    /// strategy in the set.
    pub hedge_delay_us: Vec<u64>,
    /// Admission-control shed watermark, overriding the queue spec's
    /// `shed_above` per cell (requires the `queue` table — the
    /// starvation-curve sweep).
    pub shed_above: Vec<usize>,
}

impl Serialize for SweepSpec {
    fn to_value(&self) -> serde::Value {
        let mut entries = vec![
            ("load".to_string(), self.load.to_value()),
            ("mean_fanout".to_string(), self.mean_fanout.to_value()),
            ("hedge_delay_us".to_string(), self.hedge_delay_us.to_value()),
        ];
        if !self.shed_above.is_empty() {
            entries.push(("shed_above".to_string(), self.shed_above.to_value()));
        }
        serde::Value::Object(entries)
    }
}

impl Deserialize for SweepSpec {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let obj = serde::__private::as_object(v, "SweepSpec")?;
        Ok(SweepSpec {
            load: serde::__private::field_default(obj, "load")?,
            mean_fanout: serde::__private::field_default(obj, "mean_fanout")?,
            hedge_delay_us: serde::__private::field_default(obj, "hedge_delay_us")?,
            shed_above: serde::__private::field_default(obj, "shed_above")?,
        })
    }
}

impl SweepSpec {
    /// Whether no axis is configured (single-cell scenario).
    pub fn is_empty(&self) -> bool {
        self.load.is_empty()
            && self.mean_fanout.is_empty()
            && self.hedge_delay_us.is_empty()
            && self.shed_above.is_empty()
    }

    /// Number of grid cells this sweep expands to.
    pub fn num_cells(&self) -> usize {
        let dim = |n: usize| if n == 0 { 1 } else { n };
        dim(self.load.len())
            * dim(self.mean_fanout.len())
            * dim(self.hedge_delay_us.len())
            * dim(self.shed_above.len())
    }
}

/// Run-harness knobs shared by every cell.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq)]
pub struct RunSpec {
    /// Fraction of the run (by arrival time) excluded from statistics.
    pub warmup_fraction: f64,
    /// Server queue length that raises a congestion signal (credits).
    pub congestion_queue_threshold: usize,
    /// Telemetry snapshot interval (ns of virtual time); `None` = off.
    #[serde(default)]
    pub telemetry_interval_ns: Option<u64>,
    /// Network delay resolution: `Compiled` (default) timestamps hops
    /// through the precompiled `FabricPlan`; `PerMessage` forces the
    /// per-message fabric draw — the differential-testing slow path.
    /// Results are byte-identical either way (test-enforced), so spec
    /// files only ever set this to pin down a regression.
    #[serde(default)]
    pub net: PlanMode,
}

impl Default for RunSpec {
    fn default() -> Self {
        // The values every paper experiment ran with.
        RunSpec {
            warmup_fraction: 0.05,
            congestion_queue_threshold: 96,
            telemetry_interval_ns: None,
            net: PlanMode::Compiled,
        }
    }
}

/// Bounded server queues for the overload lane: a hard capacity
/// (tail-drop + NACK), an optional admission-control shed watermark,
/// and an optional CoDel AQM (both `codel_*` knobs set together, in
/// microseconds of standing sojourn).
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq)]
pub struct QueueSpec {
    /// Per-queue capacity; arrivals beyond it are tail-dropped.
    pub capacity: usize,
    /// Admission-control watermark: arrivals finding at least this many
    /// queued are shed before the queue fills (`None` disables).
    #[serde(default)]
    pub shed_above: Option<usize>,
    /// CoDel sojourn target, microseconds.
    #[serde(default)]
    pub codel_target_us: Option<u64>,
    /// CoDel interval (how long sojourn must exceed the target before
    /// dropping starts), microseconds.
    #[serde(default)]
    pub codel_interval_us: Option<u64>,
    /// Split terminal drop/shed counts by priority class (log₂ buckets
    /// of the priority key) in the report's additive `priority_classes`
    /// field. Observation-only; off by default. Simulator backend only.
    #[serde(default)]
    pub priority_stats: bool,
}

impl QueueSpec {
    /// Lowers to the core engine's queue knobs (µs → ns).
    pub fn lower(&self) -> QueueConfig {
        QueueConfig {
            capacity: self.capacity,
            shed_above: self.shed_above,
            codel: match (self.codel_target_us, self.codel_interval_us) {
                (Some(target_us), Some(interval_us)) => Some(CoDelConfig {
                    target_ns: target_us * 1_000,
                    interval_ns: interval_us * 1_000,
                }),
                _ => None,
            },
            priority_stats: self.priority_stats,
        }
    }
}

/// Client-side request timeouts with capped-exponential retries for the
/// overload lane (all durations in microseconds): the spec carries the
/// policy's own knob struct, so there is nothing to lower.
pub use brb_core::config::TimeoutConfig as TimeoutSpec;

/// A complete declarative scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Scenario name, echoed in reports.
    pub name: String,
    /// One-line human description.
    #[serde(default)]
    pub description: String,
    /// The backend cluster (omit in spec files for the paper's cluster).
    #[serde(default)]
    pub cluster: ClusterConfig,
    /// The offered workload (omit in spec files for the paper's
    /// workload).
    #[serde(default)]
    pub workload: WorkloadConfig,
    /// Shrink the key/catalog universe with `num_tasks` at lowering time
    /// (the `figure2-small` semantics); leave `false` to take the
    /// workload's catalog numbers literally.
    #[serde(default)]
    pub scale_catalog: bool,
    /// Strategies under comparison (common random numbers per seed).
    pub strategies: Vec<Strategy>,
    /// Master seeds; each (cell × strategy × seed) is one run.
    pub seeds: Vec<u64>,
    /// Fault injections.
    #[serde(default)]
    pub faults: FaultSpec,
    /// Sweep axes.
    #[serde(default)]
    pub sweep: SweepSpec,
    /// Harness knobs.
    #[serde(default)]
    pub run: RunSpec,
    /// Record/replay mode: generate each seed's trace, round-trip it
    /// through the JSONL on-disk format, and drive every strategy from
    /// the replayed bytes (exercises the production-trace path).
    #[serde(default)]
    pub replay: bool,
    /// Bounded server queues + optional shedding/AQM (the overload
    /// lane); `None` = unbounded queues, the pre-overload engine.
    #[serde(default)]
    pub queue: Option<QueueSpec>,
    /// Client-side request timeouts + retries (the overload lane);
    /// `None` = clients never time out.
    #[serde(default)]
    pub timeout: Option<TimeoutSpec>,
}

/// The axis values one grid cell was lowered at (`None` = axis unused).
///
/// Serde is hand-written (additive schema): the three original keys
/// always serialize (`null` when inactive, the shape every pinned
/// report carries), `shed_above` only when that axis is active.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CellAxes {
    /// Offered load, when the `load` axis is active.
    pub load: Option<f64>,
    /// Mean fan-out, when the `mean_fanout` axis is active.
    pub mean_fanout: Option<u32>,
    /// Hedge delay (µs), when the `hedge_delay_us` axis is active.
    pub hedge_delay_us: Option<u64>,
    /// Shed watermark, when the `shed_above` axis is active.
    pub shed_above: Option<usize>,
}

impl Serialize for CellAxes {
    fn to_value(&self) -> serde::Value {
        let mut entries = vec![
            ("load".to_string(), self.load.to_value()),
            ("mean_fanout".to_string(), self.mean_fanout.to_value()),
            ("hedge_delay_us".to_string(), self.hedge_delay_us.to_value()),
        ];
        if self.shed_above.is_some() {
            entries.push(("shed_above".to_string(), self.shed_above.to_value()));
        }
        serde::Value::Object(entries)
    }
}

impl Deserialize for CellAxes {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let obj = serde::__private::as_object(v, "CellAxes")?;
        Ok(CellAxes {
            load: serde::__private::field_default(obj, "load")?,
            mean_fanout: serde::__private::field_default(obj, "mean_fanout")?,
            hedge_delay_us: serde::__private::field_default(obj, "hedge_delay_us")?,
            shed_above: serde::__private::field_default(obj, "shed_above")?,
        })
    }
}

/// One lowered grid cell: a concrete base config plus the strategy and
/// seed sets, ready for `run_strategies_multi_seed`.
#[derive(Debug, Clone)]
pub struct ScenarioCell {
    /// Cell index in grid order.
    pub index: usize,
    /// The axis values this cell was lowered at.
    pub axes: CellAxes,
    /// Base config; the runner overrides `strategy` and `seed` per run.
    pub base: ExperimentConfig,
    /// Strategies (hedge-delay axis already applied).
    pub strategies: Vec<Strategy>,
    /// Seeds.
    pub seeds: Vec<u64>,
}

impl ScenarioCell {
    /// The concrete config for one (strategy, seed) run of this cell.
    pub fn config_for(&self, strategy: Strategy, seed: u64) -> ExperimentConfig {
        let mut cfg = self.base.clone();
        cfg.strategy = strategy;
        cfg.seed = seed;
        cfg
    }
}

impl ScenarioSpec {
    // -- serialization ----------------------------------------------------

    /// Renders the spec as a TOML document.
    pub fn to_toml(&self) -> Result<String, ScenarioError> {
        toml::to_string_pretty(self).map_err(|e| ScenarioError::Parse(e.to_string()))
    }

    /// Parses a spec from TOML.
    pub fn from_toml(s: &str) -> Result<Self, ScenarioError> {
        toml::from_str(s).map_err(|e| ScenarioError::Parse(e.to_string()))
    }

    /// Renders the spec as pretty JSON.
    pub fn to_json(&self) -> Result<String, ScenarioError> {
        serde_json::to_string_pretty(self).map_err(|e| ScenarioError::Parse(e.to_string()))
    }

    /// Parses a spec from JSON.
    pub fn from_json(s: &str) -> Result<Self, ScenarioError> {
        serde_json::from_str(s).map_err(|e| ScenarioError::Parse(e.to_string()))
    }

    /// Loads a spec file, dispatching on the `.toml` / `.json` extension
    /// (unknown extensions try TOML first, then JSON).
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ScenarioError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| ScenarioError::Io(format!("{}: {e}", path.display())))?;
        match path.extension().and_then(|e| e.to_str()) {
            Some("json") => Self::from_json(&text),
            Some("toml") => Self::from_toml(&text),
            _ => Self::from_toml(&text).or_else(|_| Self::from_json(&text)),
        }
    }

    // -- lowering ---------------------------------------------------------

    /// Validates the spec without lowering (same checks as [`Self::lower`]).
    pub fn validate(&self) -> Result<(), ScenarioError> {
        self.lower().map(|_| ())
    }

    /// The cartesian axis grid, in row-major order (`load` outermost,
    /// then `mean_fanout`, then `hedge_delay_us`, then `shed_above`
    /// innermost). An empty sweep yields one all-`None` cell.
    pub fn axis_grid(&self) -> Vec<CellAxes> {
        fn axis<T: Copy>(values: &[T]) -> Vec<Option<T>> {
            if values.is_empty() {
                vec![None]
            } else {
                values.iter().map(|&v| Some(v)).collect()
            }
        }
        let mut grid = Vec::with_capacity(self.sweep.num_cells());
        for &load in &axis(&self.sweep.load) {
            for &mean_fanout in &axis(&self.sweep.mean_fanout) {
                for &hedge_delay_us in &axis(&self.sweep.hedge_delay_us) {
                    for &shed_above in &axis(&self.sweep.shed_above) {
                        grid.push(CellAxes {
                            load,
                            mean_fanout,
                            hedge_delay_us,
                            shed_above,
                        });
                    }
                }
            }
        }
        grid
    }

    /// Validates the spec and expands it into the grid of concrete
    /// experiment cells.
    pub fn lower(&self) -> Result<Vec<ScenarioCell>, ScenarioError> {
        self.check_shape()?;
        let cluster = self.lower_cluster()?;
        self.check_load_feasibility(&cluster)?;
        let grid = self.axis_grid();
        let mut cells = Vec::with_capacity(grid.len());
        for (index, axes) in grid.into_iter().enumerate() {
            let workload = self.lower_workload(&axes)?;
            let strategies = self.lower_strategies(&axes);
            let base = ExperimentConfig {
                cluster: cluster.clone(),
                workload,
                strategy: strategies[0].clone(),
                seed: 0,
                warmup_fraction: self.run.warmup_fraction,
                congestion_queue_threshold: self.run.congestion_queue_threshold,
                telemetry_interval_ns: self.run.telemetry_interval_ns,
                net: self.run.net,
                overload: self.lower_overload(&axes),
            };
            // Everything the typed checks above did not cover (service
            // rates, latency parameters, credits tuning, ...) still goes
            // through the core structural validation.
            base.validate().map_err(ScenarioError::Config)?;
            cells.push(ScenarioCell {
                index,
                axes,
                base,
                strategies,
                seeds: self.seeds.clone(),
            });
        }
        Ok(cells)
    }

    /// Lowers a single-cell spec to its base config (errors with
    /// [`ScenarioError::MultiCell`] when sweep axes are present).
    pub fn base_config(&self) -> Result<ExperimentConfig, ScenarioError> {
        let cells = self.lower()?;
        match <[ScenarioCell; 1]>::try_from(cells) {
            Ok([cell]) => Ok(cell.base),
            Err(cells) => Err(ScenarioError::MultiCell { cells: cells.len() }),
        }
    }

    /// The concrete config for one (strategy, seed) run of a single-cell
    /// spec.
    pub fn config_for(
        &self,
        strategy: Strategy,
        seed: u64,
    ) -> Result<ExperimentConfig, ScenarioError> {
        let mut cfg = self.base_config()?;
        cfg.strategy = strategy;
        cfg.seed = seed;
        Ok(cfg)
    }

    // -- lowering internals ----------------------------------------------

    fn check_shape(&self) -> Result<(), ScenarioError> {
        if self.name.is_empty() {
            return Err(ScenarioError::MissingName);
        }
        if self.strategies.is_empty() {
            return Err(ScenarioError::EmptyStrategySet);
        }
        if self.seeds.is_empty() {
            return Err(ScenarioError::EmptySeeds);
        }
        for (i, &s) in self.seeds.iter().enumerate() {
            if self.seeds[..i].contains(&s) {
                return Err(ScenarioError::DuplicateSeed(s));
            }
        }
        let c = &self.cluster;
        if c.replication == 0 || c.replication > c.num_servers {
            return Err(ScenarioError::Replication {
                replication: c.replication,
                num_servers: c.num_servers,
            });
        }
        if c.num_partitions == 0 {
            return Err(ScenarioError::NoPartitions);
        }
        if !(self.workload.load > 0.0 && self.workload.load < MAX_OFFERED_LOAD) {
            return Err(ScenarioError::Load(self.workload.load));
        }
        if !(0.0..0.9).contains(&self.run.warmup_fraction) {
            return Err(ScenarioError::Warmup(self.run.warmup_fraction));
        }
        // Directly-specified speed factors.
        if c.server_speed_factors.len() > c.num_servers as usize {
            return Err(ScenarioError::SpeedFactorCount {
                given: c.server_speed_factors.len(),
                num_servers: c.num_servers,
            });
        }
        for (i, &f) in c.server_speed_factors.iter().enumerate() {
            if !f.is_finite() || f <= 0.0 {
                return Err(ScenarioError::BadSpeedFactor {
                    server: i as u32,
                    speed: f,
                });
            }
        }
        // Degradation faults.
        for (i, d) in self.faults.degraded.iter().enumerate() {
            if d.server >= c.num_servers {
                return Err(ScenarioError::ServerIndexOutOfRange {
                    server: d.server,
                    num_servers: c.num_servers,
                });
            }
            if !d.speed.is_finite() || d.speed <= 0.0 {
                return Err(ScenarioError::BadSpeedFactor {
                    server: d.server,
                    speed: d.speed,
                });
            }
            if self.faults.degraded[..i]
                .iter()
                .any(|p| p.server == d.server)
            {
                return Err(ScenarioError::DuplicateDegradedServer(d.server));
            }
        }
        // Spike fault.
        if let Some(spike) = &self.faults.spike {
            if !(0.0..=1.0).contains(&spike.p_spike) || !spike.p_spike.is_finite() {
                return Err(ScenarioError::BadSpikeProbability(spike.p_spike));
            }
            if spike.extra_lo_us > spike.extra_hi_us {
                return Err(ScenarioError::SpikeRangeInverted {
                    lo_us: spike.extra_lo_us,
                    hi_us: spike.extra_hi_us,
                });
            }
            if !matches!(c.latency, LatencyModel::Constant { .. }) {
                return Err(ScenarioError::SpikeNeedsConstantBase);
            }
        }
        // Sweep axes.
        for (i, &l) in self.sweep.load.iter().enumerate() {
            if !(l > 0.0 && l < MAX_OFFERED_LOAD) {
                return Err(ScenarioError::AxisValue {
                    axis: "load",
                    value: l,
                });
            }
            if self.sweep.load[..i].contains(&l) {
                return Err(ScenarioError::DuplicateAxisValue {
                    axis: "load",
                    value: l,
                });
            }
        }
        for (i, &fo) in self.sweep.mean_fanout.iter().enumerate() {
            if fo == 0 {
                return Err(ScenarioError::AxisValue {
                    axis: "mean_fanout",
                    value: 0.0,
                });
            }
            if self.sweep.mean_fanout[..i].contains(&fo) {
                return Err(ScenarioError::DuplicateAxisValue {
                    axis: "mean_fanout",
                    value: fo as f64,
                });
            }
        }
        if !self.sweep.hedge_delay_us.is_empty()
            && !self
                .strategies
                .iter()
                .any(|s| matches!(s, Strategy::Hedged { .. }))
        {
            return Err(ScenarioError::HedgeAxisWithoutHedgedStrategy);
        }
        for (i, &d) in self.sweep.hedge_delay_us.iter().enumerate() {
            if d == 0 {
                return Err(ScenarioError::AxisValue {
                    axis: "hedge_delay_us",
                    value: 0.0,
                });
            }
            if self.sweep.hedge_delay_us[..i].contains(&d) {
                return Err(ScenarioError::DuplicateAxisValue {
                    axis: "hedge_delay_us",
                    value: d as f64,
                });
            }
        }
        if !self.sweep.shed_above.is_empty() {
            let queue = self
                .queue
                .as_ref()
                .ok_or(ScenarioError::ShedAxisWithoutQueue)?;
            for (i, &w) in self.sweep.shed_above.iter().enumerate() {
                if w == 0 {
                    return Err(ScenarioError::AxisValue {
                        axis: "shed_above",
                        value: 0.0,
                    });
                }
                if self.sweep.shed_above[..i].contains(&w) {
                    return Err(ScenarioError::DuplicateAxisValue {
                        axis: "shed_above",
                        value: w as f64,
                    });
                }
                // Each swept watermark must produce a valid queue (e.g.
                // not exceed the capacity) — same check the base value
                // gets below.
                let mut swept = *queue;
                swept.shed_above = Some(w);
                swept
                    .lower()
                    .validate()
                    .map_err(ScenarioError::BadQueueSpec)?;
            }
        }
        // Overload lane.
        if let Some(q) = &self.queue {
            if q.codel_target_us.is_some() != q.codel_interval_us.is_some() {
                return Err(ScenarioError::CoDelKnobsIncomplete);
            }
            q.lower().validate().map_err(ScenarioError::BadQueueSpec)?;
        }
        if let Some(t) = &self.timeout {
            t.validate().map_err(ScenarioError::BadTimeoutSpec)?;
        }
        Ok(())
    }

    /// Lowers the overload-lane specs: the queue's µs-denominated knobs
    /// to the core config's ns-denominated ones (a `shed_above` axis
    /// value overrides the queue spec's watermark in that cell); the
    /// timeout knobs pass through as they are.
    fn lower_overload(&self, axes: &CellAxes) -> OverloadConfig {
        OverloadConfig {
            queue: self.queue.as_ref().map(|q| {
                let mut queue = *q;
                if let Some(w) = axes.shed_above {
                    queue.shed_above = Some(w);
                }
                queue.lower()
            }),
            timeout: self.timeout,
        }
    }

    /// Applies degradation and spike faults to the cluster.
    fn lower_cluster(&self) -> Result<ClusterConfig, ScenarioError> {
        let mut cluster = self.cluster.clone();
        if !self.faults.degraded.is_empty() {
            let mut factors = cluster.server_speed_factors.clone();
            factors.resize(cluster.num_servers as usize, 1.0);
            for d in &self.faults.degraded {
                factors[d.server as usize] = d.speed;
            }
            cluster.server_speed_factors = factors;
        }
        if let Some(spike) = &self.faults.spike {
            let base_ns = match cluster.latency {
                LatencyModel::Constant { delay_ns } => delay_ns,
                _ => return Err(ScenarioError::SpikeNeedsConstantBase),
            };
            cluster.latency = LatencyModel::Spiky {
                base_ns,
                p_spike: spike.p_spike,
                spike_lo_ns: spike.extra_lo_us * 1_000,
                spike_hi_ns: spike.extra_hi_us * 1_000,
            };
        }
        Ok(cluster)
    }

    /// Rejects loads that only look feasible against nominal capacity.
    /// Only the loads that actually run are checked: a `load` sweep axis
    /// overrides the base value in every cell, so the base is exempt
    /// when the axis is present.
    fn check_load_feasibility(&self, cluster: &ClusterConfig) -> Result<(), ScenarioError> {
        let n = cluster.num_servers as usize;
        let effective_fraction = (0..n).map(|s| cluster.speed_of(s)).sum::<f64>() / n as f64;
        let mut loads = Vec::with_capacity(1 + self.sweep.load.len());
        if self.sweep.load.is_empty() {
            loads.push(self.workload.load);
        }
        loads.extend_from_slice(&self.sweep.load);
        for load in loads {
            let effective_load = load / effective_fraction;
            if effective_load >= MAX_OFFERED_LOAD {
                return Err(ScenarioError::LoadInfeasible {
                    load,
                    effective_load,
                });
            }
        }
        Ok(())
    }

    fn lower_workload(&self, axes: &CellAxes) -> Result<WorkloadConfig, ScenarioError> {
        let mut workload = self.workload.clone();
        if self.scale_catalog {
            workload.scale_to_tasks(workload.num_tasks);
        }
        if let Some(load) = axes.load {
            workload.load = load;
        }
        if let Some(f) = axes.mean_fanout {
            // The fan-out ablation's shape: shifted geometric keeps the
            // task mix heterogeneous (a fixed fan-out would erase the
            // signal task-aware policies schedule on).
            let fanout = if f <= 1 {
                FanoutDist::Fixed(1)
            } else {
                FanoutDist::Geometric { p: 1.0 / f as f64 }
            };
            workload.kind = WorkloadKind::Synthetic {
                fanout,
                num_keys: (workload.num_tasks as u64 * 20).max(10_000),
                zipf_exponent: 0.9,
            };
        }
        Ok(workload)
    }

    fn lower_strategies(&self, axes: &CellAxes) -> Vec<Strategy> {
        let mut strategies = self.strategies.clone();
        if let Some(delay) = axes.hedge_delay_us {
            for s in &mut strategies {
                if let Strategy::Hedged { delay_us, .. } = s {
                    *delay_us = delay;
                }
            }
        }
        strategies
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brb_core::config::SelectorKind;

    fn minimal() -> ScenarioSpec {
        ScenarioSpec {
            name: "minimal".into(),
            description: String::new(),
            cluster: ClusterConfig::paper_default(),
            workload: WorkloadConfig::paper_default(),
            scale_catalog: true,
            strategies: vec![Strategy::c3()],
            seeds: vec![1],
            faults: FaultSpec::default(),
            sweep: SweepSpec::default(),
            run: RunSpec::default(),
            replay: false,
            queue: None,
            timeout: None,
        }
    }

    #[test]
    fn single_cell_lowering() {
        let mut spec = minimal();
        spec.workload.num_tasks = 2_000;
        let cells = spec.lower().unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].axes, CellAxes::default());
        assert_eq!(cells[0].base.workload.num_tasks, 2_000);
        // scale_catalog shrank the catalog with the task count.
        match cells[0].base.workload.kind {
            WorkloadKind::Playlist {
                num_tracks,
                num_playlists,
                ..
            } => {
                assert_eq!(num_tracks, 20_000);
                assert_eq!(num_playlists, 2_000);
            }
            _ => panic!("unexpected kind"),
        }
    }

    #[test]
    fn grid_is_cartesian_row_major() {
        let mut spec = minimal();
        spec.strategies.push(Strategy::Hedged {
            selector: SelectorKind::LeastOutstanding,
            delay_us: 5_000,
        });
        spec.sweep.load = vec![0.5, 0.7];
        spec.sweep.hedge_delay_us = vec![1_000, 2_000, 4_000];
        let cells = spec.lower().unwrap();
        assert_eq!(cells.len(), 6);
        assert_eq!(cells[0].axes.load, Some(0.5));
        assert_eq!(cells[0].axes.hedge_delay_us, Some(1_000));
        assert_eq!(cells[1].axes.hedge_delay_us, Some(2_000));
        assert_eq!(cells[3].axes.load, Some(0.7));
        // The hedge axis rewrote the hedged strategy's delay only.
        match &cells[1].strategies[1] {
            Strategy::Hedged { delay_us, .. } => assert_eq!(*delay_us, 2_000),
            other => panic!("unexpected strategy {other:?}"),
        }
        assert_eq!(cells[1].base.workload.load, 0.5);
    }

    #[test]
    fn faults_lower_into_cluster() {
        let mut spec = minimal();
        spec.faults.degraded = vec![DegradedServer {
            server: 3,
            speed: 0.5,
        }];
        spec.faults.spike = Some(SpikeFault {
            p_spike: 0.01,
            extra_lo_us: 10_000,
            extra_hi_us: 20_000,
        });
        let base = spec.base_config().unwrap();
        assert_eq!(base.cluster.server_speed_factors.len(), 9);
        assert_eq!(base.cluster.speed_of(3), 0.5);
        assert_eq!(base.cluster.speed_of(0), 1.0);
        assert_eq!(
            base.cluster.latency,
            LatencyModel::Spiky {
                base_ns: 50_000,
                p_spike: 0.01,
                spike_lo_ns: 10_000_000,
                spike_hi_ns: 20_000_000,
            }
        );
    }

    #[test]
    fn typed_rejections() {
        let mut spec = minimal();
        spec.cluster.replication = 99;
        assert_eq!(
            spec.validate(),
            Err(ScenarioError::Replication {
                replication: 99,
                num_servers: 9
            })
        );

        let mut spec = minimal();
        spec.strategies.clear();
        assert_eq!(spec.validate(), Err(ScenarioError::EmptyStrategySet));

        let mut spec = minimal();
        spec.seeds = vec![1, 2, 1];
        assert_eq!(spec.validate(), Err(ScenarioError::DuplicateSeed(1)));

        let mut spec = minimal();
        spec.faults.degraded = vec![DegradedServer {
            server: 9,
            speed: 0.5,
        }];
        assert_eq!(
            spec.validate(),
            Err(ScenarioError::ServerIndexOutOfRange {
                server: 9,
                num_servers: 9
            })
        );

        let mut spec = minimal();
        spec.sweep.hedge_delay_us = vec![1_000];
        assert_eq!(
            spec.validate(),
            Err(ScenarioError::HedgeAxisWithoutHedgedStrategy)
        );

        let mut spec = minimal();
        spec.sweep.load = vec![0.5, 0.5];
        assert_eq!(
            spec.validate(),
            Err(ScenarioError::DuplicateAxisValue {
                axis: "load",
                value: 0.5
            })
        );
    }

    #[test]
    fn offered_load_bound_is_one_constant_at_every_gate() {
        // All three validation gates — base load, sweep axis, degraded
        // feasibility — must reject exactly at MAX_OFFERED_LOAD, and
        // every rejection message must cite the bound so the constant
        // cannot silently drift apart from its documentation.
        let mut spec = minimal();
        spec.workload.load = MAX_OFFERED_LOAD;
        let err = spec.validate().unwrap_err();
        assert_eq!(err, ScenarioError::Load(MAX_OFFERED_LOAD));
        assert!(err.to_string().contains("1.5"), "{err}");
        // Just inside the bound is accepted.
        spec.workload.load = MAX_OFFERED_LOAD - 0.01;
        assert!(spec.validate().is_ok());

        let mut spec = minimal();
        spec.sweep.load = vec![MAX_OFFERED_LOAD];
        let err = spec.validate().unwrap_err();
        assert_eq!(
            err,
            ScenarioError::AxisValue {
                axis: "load",
                value: MAX_OFFERED_LOAD
            }
        );
        assert!(err.to_string().contains("1.5"), "{err}");

        let mut spec = minimal();
        // Half-speed cluster: nominal 0.8 is an effective 1.6 ≥ bound.
        spec.workload.load = 0.8;
        for server in 0..spec.cluster.num_servers {
            spec.faults
                .degraded
                .push(DegradedServer { server, speed: 0.5 });
        }
        let err = spec.validate().unwrap_err();
        assert!(
            matches!(err, ScenarioError::LoadInfeasible { .. }),
            "{err:?}"
        );
        assert!(err.to_string().contains("1.5"), "{err}");
    }

    #[test]
    fn degraded_capacity_makes_high_load_infeasible() {
        let mut spec = minimal();
        // 0.9 nominal load is fine...
        spec.workload.load = 0.9;
        assert!(spec.validate().is_ok());
        // ...but not when most of the cluster runs at 10%.
        for server in 0..5 {
            spec.faults
                .degraded
                .push(DegradedServer { server, speed: 0.1 });
        }
        match spec.validate() {
            Err(ScenarioError::LoadInfeasible { load, .. }) => assert_eq!(load, 0.9),
            other => panic!("expected LoadInfeasible, got {other:?}"),
        }
        // A load sweep axis overrides the base load in every cell, so a
        // feasible axis rescues the spec (the infeasible 0.9 never runs)...
        spec.sweep.load = vec![0.2, 0.3];
        assert!(spec.validate().is_ok(), "{:?}", spec.validate());
        // ...while an infeasible axis value is still rejected.
        spec.sweep.load.push(1.0);
        match spec.validate() {
            Err(ScenarioError::LoadInfeasible { load, .. }) => assert_eq!(load, 1.0),
            other => panic!("expected LoadInfeasible, got {other:?}"),
        }
    }

    #[test]
    fn multi_cell_base_config_is_refused() {
        let mut spec = minimal();
        spec.sweep.load = vec![0.5, 0.7];
        assert_eq!(
            spec.base_config().map(|_| ()),
            Err(ScenarioError::MultiCell { cells: 2 })
        );
    }

    #[test]
    fn overload_specs_lower_microseconds_to_core_knobs() {
        let mut spec = minimal();
        spec.queue = Some(QueueSpec {
            capacity: 64,
            shed_above: Some(48),
            codel_target_us: Some(5_000),
            codel_interval_us: Some(100_000),
            priority_stats: false,
        });
        spec.timeout = Some(TimeoutSpec {
            timeout_us: 20_000,
            max_retries: 2,
            backoff_base_us: 500,
            backoff_cap_us: 4_000,
            retry_budget_percent: Some(10),
        });
        let base = spec.base_config().unwrap();
        let queue = base.overload.queue.unwrap();
        assert_eq!(queue.capacity, 64);
        assert_eq!(queue.shed_above, Some(48));
        let codel = queue.codel.unwrap();
        assert_eq!(codel.target_ns, 5_000_000);
        assert_eq!(codel.interval_ns, 100_000_000);
        let timeout = base.overload.timeout.unwrap();
        assert_eq!(timeout.timeout_us, 20_000);
        assert_eq!(timeout.max_retries, 2);
        assert_eq!(timeout.retry_budget_percent, Some(10));
        // Knobs off lowers to the legacy engine exactly.
        assert!(minimal().base_config().unwrap().overload.is_off());
    }

    #[test]
    fn overload_specs_are_validated_typed() {
        // A lone CoDel knob is ambiguous.
        let mut spec = minimal();
        spec.queue = Some(QueueSpec {
            capacity: 64,
            shed_above: None,
            codel_target_us: Some(5_000),
            codel_interval_us: None,
            priority_stats: false,
        });
        assert_eq!(spec.validate(), Err(ScenarioError::CoDelKnobsIncomplete));

        // Shed watermark above capacity.
        let mut spec = minimal();
        spec.queue = Some(QueueSpec {
            capacity: 64,
            shed_above: Some(65),
            codel_target_us: None,
            codel_interval_us: None,
            priority_stats: false,
        });
        assert!(matches!(
            spec.validate(),
            Err(ScenarioError::BadQueueSpec(_))
        ));

        // Backoff cap below the base.
        let mut spec = minimal();
        spec.timeout = Some(TimeoutSpec {
            timeout_us: 20_000,
            max_retries: 2,
            backoff_base_us: 4_000,
            backoff_cap_us: 500,
            retry_budget_percent: None,
        });
        assert!(matches!(
            spec.validate(),
            Err(ScenarioError::BadTimeoutSpec(_))
        ));
    }

    #[test]
    fn overload_specs_round_trip_through_toml_and_json() {
        let mut spec = minimal();
        spec.queue = Some(QueueSpec {
            capacity: 128,
            shed_above: Some(96),
            codel_target_us: None,
            codel_interval_us: None,
            priority_stats: false,
        });
        spec.timeout = Some(TimeoutSpec {
            timeout_us: 50_000,
            max_retries: 1,
            backoff_base_us: 1_000,
            backoff_cap_us: 8_000,
            retry_budget_percent: None,
        });
        let toml_back = ScenarioSpec::from_toml(&spec.to_toml().unwrap()).unwrap();
        assert_eq!(toml_back.queue, spec.queue);
        assert_eq!(toml_back.timeout, spec.timeout);
        let json_back = ScenarioSpec::from_json(&spec.to_json().unwrap()).unwrap();
        assert_eq!(json_back.queue, spec.queue);
        assert_eq!(json_back.timeout, spec.timeout);
        // Legacy spec files (no overload tables) still parse: knobs off.
        let legacy = minimal().to_toml().unwrap();
        assert!(!legacy.contains("[queue]") && !legacy.contains("[timeout]"));
        let back = ScenarioSpec::from_toml(&legacy).unwrap();
        assert!(back.queue.is_none() && back.timeout.is_none());
    }
}
