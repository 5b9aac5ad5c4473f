//! Experiment runners: single seeded runs and the sweep-grid executor
//! behind the paper's multi-seed averaged comparisons.
//!
//! [`run_grid`] is the one sweep path. It takes a whole grid — cells ×
//! strategies × seeds — and runs it **seed-major**: a seed's workload
//! plan ([`WorkloadPlan`], the expensive half of trace generation) is
//! built once, each *distinct* trace of that seed is drawn from it once,
//! and every run the trace serves shares it behind an `Arc`. Runs fan
//! out across OS threads — each is an independent deterministic
//! simulation, so results are byte-identical for every worker count
//! (guarded by tests). [`run_strategies_multi_seed`] and friends are its
//! one-cell case. Worker count comes from [`worker_count`]
//! (`BRB_THREADS` overrides the detected parallelism).

use crate::config::{ExperimentConfig, Strategy};
use crate::engine::{Counters, EngineWorld};
use crate::plan::{same_trace, WorkloadPlan};
use brb_metrics::{Percentiles, SeedSummary};
use brb_sim::Simulation;
use brb_workload::taskgen::TaskSpec;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Overload-lane outcomes of one run, present only when any overload
/// knob is on. `dropped` / `timed_out` / `shed` count **tasks** — the
/// terminal outcomes of the conservation invariant
/// `completed + dropped + timed_out + shed == issued` — while `retries`
/// counts request attempts re-issued after NACKs or timeouts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadStats {
    /// Completed tasks per virtual second — the metric that stays
    /// meaningful past the saturation knee, where latency percentiles
    /// only measure the queue bound.
    pub goodput: f64,
    /// Tasks terminally failed by a queue drop (tail-drop or AQM).
    pub dropped: u64,
    /// Tasks terminally failed by timeout (incl. retries-exhausted).
    pub timed_out: u64,
    /// Retry attempts issued.
    pub retries: u64,
    /// Tasks terminally failed by admission-control shedding.
    pub shed: u64,
}

/// One priority class's share of the terminal drop/shed counts,
/// reported only when `QueueConfig::priority_stats` is on. The class is
/// the bit length of the failing request's priority key: class 0 is
/// priority 0, class `k` covers keys in `[2^(k-1), 2^k)` — coarse
/// log₂ buckets so the report stays bounded under arbitrary key spreads.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PriorityClassStats {
    /// log₂ bucket of the priority key (bit length).
    pub class: u8,
    /// Tasks of this class terminally failed by a queue drop.
    pub dropped: u64,
    /// Tasks of this class terminally failed by admission shedding.
    pub shed: u64,
}

/// The result of one seeded run of one strategy.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Strategy display name.
    pub strategy: String,
    /// Master seed.
    pub seed: u64,
    /// Task latency percentiles in **milliseconds** (the paper's unit).
    pub task_latency_ms: Percentiles,
    /// Per-request latency percentiles in milliseconds.
    pub request_latency_ms: Percentiles,
    /// Client-side hold time percentiles in milliseconds.
    pub hold_time_ms: Option<Percentiles>,
    /// Mean server utilization over the run.
    pub utilization: f64,
    /// Tasks completed.
    pub completed_tasks: usize,
    /// Tasks included in latency statistics (post-warm-up).
    pub measured_tasks: u64,
    /// Virtual duration of the run in seconds.
    pub sim_secs: f64,
    /// Events executed.
    pub events: u64,
    /// Requests dispatched.
    pub dispatched: u64,
    /// Congestion signals (credits realization only).
    pub congestion_signals: u64,
    /// Demand reports delivered (credits realization only).
    pub demand_reports: u64,
    /// Hedge duplicates issued (hedged strategy only).
    pub hedges_issued: u64,
    /// Responses that arrived after their request had completed (wasted
    /// work under hedging).
    pub duplicate_responses: u64,
    /// Overload-lane outcomes; `None` when every knob is off.
    pub overload: Option<OverloadStats>,
    /// Per-priority-class drop/shed split, sorted by class; `None`
    /// unless `QueueConfig::priority_stats` requested it.
    pub priority_classes: Option<Vec<PriorityClassStats>>,
}

// Report-v1 stability: the key order here *is* the schema (pinned by
// the lab golden tests), and the overload keys exist only when the lane
// is on — a knobs-off run serializes byte-identically to the
// pre-overload schema, which is what keeps every historical
// `run_hashes.json` entry valid. Hand-written because the derive
// stand-in cannot conditionally omit fields.
impl Serialize for RunResult {
    fn to_value(&self) -> serde::Value {
        let mut entries = vec![
            ("strategy".into(), self.strategy.to_value()),
            ("seed".into(), self.seed.to_value()),
            ("task_latency_ms".into(), self.task_latency_ms.to_value()),
            (
                "request_latency_ms".into(),
                self.request_latency_ms.to_value(),
            ),
            ("hold_time_ms".into(), self.hold_time_ms.to_value()),
            ("utilization".into(), self.utilization.to_value()),
            ("completed_tasks".into(), self.completed_tasks.to_value()),
            ("measured_tasks".into(), self.measured_tasks.to_value()),
            ("sim_secs".into(), self.sim_secs.to_value()),
            ("events".into(), self.events.to_value()),
            ("dispatched".into(), self.dispatched.to_value()),
            (
                "congestion_signals".into(),
                self.congestion_signals.to_value(),
            ),
            ("demand_reports".into(), self.demand_reports.to_value()),
            ("hedges_issued".into(), self.hedges_issued.to_value()),
            (
                "duplicate_responses".into(),
                self.duplicate_responses.to_value(),
            ),
        ];
        if let Some(o) = &self.overload {
            entries.push(("goodput".into(), o.goodput.to_value()));
            entries.push(("dropped".into(), o.dropped.to_value()));
            entries.push(("timed_out".into(), o.timed_out.to_value()));
            entries.push(("retries".into(), o.retries.to_value()));
            entries.push(("shed".into(), o.shed.to_value()));
        }
        if let Some(pc) = &self.priority_classes {
            entries.push(("priority_classes".into(), pc.to_value()));
        }
        serde::Value::Object(entries)
    }
}

impl Deserialize for RunResult {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        use serde::__private::{as_object, field};
        let obj = as_object(v, "RunResult")?;
        // The flattened overload keys are present all-or-nothing;
        // `goodput` is the sentinel.
        let overload = if obj.iter().any(|(k, _)| k == "goodput") {
            Some(OverloadStats {
                goodput: field(obj, "goodput")?,
                dropped: field(obj, "dropped")?,
                timed_out: field(obj, "timed_out")?,
                retries: field(obj, "retries")?,
                shed: field(obj, "shed")?,
            })
        } else {
            None
        };
        let priority_classes = if obj.iter().any(|(k, _)| k == "priority_classes") {
            Some(field(obj, "priority_classes")?)
        } else {
            None
        };
        Ok(RunResult {
            strategy: field(obj, "strategy")?,
            seed: field(obj, "seed")?,
            task_latency_ms: field(obj, "task_latency_ms")?,
            request_latency_ms: field(obj, "request_latency_ms")?,
            hold_time_ms: field(obj, "hold_time_ms")?,
            utilization: field(obj, "utilization")?,
            completed_tasks: field(obj, "completed_tasks")?,
            measured_tasks: field(obj, "measured_tasks")?,
            sim_secs: field(obj, "sim_secs")?,
            events: field(obj, "events")?,
            dispatched: field(obj, "dispatched")?,
            congestion_signals: field(obj, "congestion_signals")?,
            demand_reports: field(obj, "demand_reports")?,
            hedges_issued: field(obj, "hedges_issued")?,
            duplicate_responses: field(obj, "duplicate_responses")?,
            overload,
            priority_classes,
        })
    }
}

/// A run that resolved every task yet has no result to report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunError {
    /// No task completed after the warm-up window (an unbounded retry
    /// storm past saturation fails every late task), so there is no task
    /// latency to take percentiles of.
    NoMeasuredTasks,
    /// No request completed after the warm-up window.
    NoMeasuredRequests,
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match self {
            RunError::NoMeasuredTasks => "task",
            RunError::NoMeasuredRequests => "request",
        };
        write!(
            f,
            "no {what} completed after the warm-up window, so there is no {what} latency to report"
        )
    }
}

impl std::error::Error for RunError {}

/// Runs one strategy once and collects its metrics.
///
/// # Panics
/// Panics if the configuration is invalid, the run fails to complete
/// every task (which would indicate an engine bug, not a config problem)
/// or no task completes after warm-up ([`RunError`]; [`run_grid`]
/// reports that one typed instead).
pub fn run_experiment(cfg: ExperimentConfig) -> RunResult {
    run_world(EngineWorld::new(cfg)).unwrap_or_else(|e| panic!("{e}"))
}

/// Runs one strategy over an externally-supplied trace (replay mode).
///
/// # Panics
/// As for [`run_experiment`], and if the trace is empty or unordered.
pub fn run_experiment_on_trace(cfg: ExperimentConfig, trace: Vec<TaskSpec>) -> RunResult {
    run_world(EngineWorld::with_trace(cfg, trace)).unwrap_or_else(|e| panic!("{e}"))
}

fn run_world(world: EngineWorld) -> Result<RunResult, RunError> {
    let strategy = world.config().strategy.name();
    let seed = world.config().seed;
    let mut sim = Simulation::new(world);
    EngineWorld::prime(&mut sim);
    let stats = sim.run();
    let w = sim.world();
    assert!(
        w.is_finished(),
        "run did not resolve: {} completed + {} failed of {} tasks",
        w.completed_tasks(),
        w.failed_tasks(),
        w.total_tasks()
    );
    let counters: Counters = w.counters;
    let overload = if w.config().overload.is_off() {
        None
    } else {
        Some(OverloadStats {
            goodput: w.completed_tasks() as f64 / stats.end_time.as_secs_f64(),
            dropped: counters.tasks_dropped,
            timed_out: counters.tasks_timed_out,
            retries: counters.retries_issued,
            shed: counters.tasks_shed,
        })
    };
    let priority_classes = w.dropshed_by_class.as_ref().map(|by_class| {
        by_class
            .iter()
            .map(|(&class, &(dropped, shed))| PriorityClassStats {
                class,
                dropped,
                shed,
            })
            .collect()
    });
    Ok(RunResult {
        strategy,
        seed,
        task_latency_ms: Percentiles::from_histogram_ns(&w.task_latency)
            .ok_or(RunError::NoMeasuredTasks)?,
        request_latency_ms: Percentiles::from_histogram_ns(&w.request_latency)
            .ok_or(RunError::NoMeasuredRequests)?,
        hold_time_ms: Percentiles::from_histogram_ns(&w.hold_time),
        utilization: w.mean_utilization(stats.end_time.as_nanos()),
        completed_tasks: w.completed_tasks(),
        measured_tasks: w.measured_tasks(),
        sim_secs: stats.end_time.as_secs_f64(),
        events: stats.events_executed,
        dispatched: counters.dispatched,
        congestion_signals: counters.congestion_signals,
        demand_reports: counters.demand_reports,
        hedges_issued: counters.hedges_issued,
        duplicate_responses: counters.duplicate_responses,
        overload,
        priority_classes,
    })
}

/// A strategy's metrics aggregated across seeds: the paper's reporting
/// unit ("read latencies averaged across experiments").
#[derive(Debug, Clone)]
pub struct StrategySummary {
    /// Strategy display name.
    pub strategy: String,
    /// Per-seed results.
    pub runs: Vec<RunResult>,
    /// Median task latency across seeds (ms): mean ± stddev.
    pub p50_ms: SeedStat,
    /// 95th percentile task latency across seeds (ms).
    pub p95_ms: SeedStat,
    /// 99th percentile task latency across seeds (ms).
    pub p99_ms: SeedStat,
    /// Mean task latency across seeds (ms).
    pub mean_ms: SeedStat,
    /// Across-seed overload outcomes; `None` when the lane is off.
    pub overload: Option<OverloadSummary>,
}

/// Overload-lane outcomes aggregated across seeds (mean ± stddev each).
#[derive(Debug, Clone, Copy)]
pub struct OverloadSummary {
    /// Completed tasks per virtual second.
    pub goodput: SeedStat,
    /// Tasks failed by queue drops.
    pub dropped: SeedStat,
    /// Tasks failed by timeout.
    pub timed_out: SeedStat,
    /// Retry attempts issued.
    pub retries: SeedStat,
    /// Tasks shed by admission control.
    pub shed: SeedStat,
}

// Same additive-schema rule as `RunResult`: the summary's overload keys
// are appended only when the lane ran, so knobs-off reports keep the
// historical byte layout.
impl Serialize for StrategySummary {
    fn to_value(&self) -> serde::Value {
        let mut entries = vec![
            ("strategy".into(), self.strategy.to_value()),
            ("runs".into(), self.runs.to_value()),
            ("p50_ms".into(), self.p50_ms.to_value()),
            ("p95_ms".into(), self.p95_ms.to_value()),
            ("p99_ms".into(), self.p99_ms.to_value()),
            ("mean_ms".into(), self.mean_ms.to_value()),
        ];
        if let Some(o) = &self.overload {
            entries.push(("goodput".into(), o.goodput.to_value()));
            entries.push(("dropped".into(), o.dropped.to_value()));
            entries.push(("timed_out".into(), o.timed_out.to_value()));
            entries.push(("retries".into(), o.retries.to_value()));
            entries.push(("shed".into(), o.shed.to_value()));
        }
        serde::Value::Object(entries)
    }
}

impl Deserialize for StrategySummary {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        use serde::__private::{as_object, field};
        let obj = as_object(v, "StrategySummary")?;
        let overload = if obj.iter().any(|(k, _)| k == "goodput") {
            Some(OverloadSummary {
                goodput: field(obj, "goodput")?,
                dropped: field(obj, "dropped")?,
                timed_out: field(obj, "timed_out")?,
                retries: field(obj, "retries")?,
                shed: field(obj, "shed")?,
            })
        } else {
            None
        };
        Ok(StrategySummary {
            strategy: field(obj, "strategy")?,
            runs: field(obj, "runs")?,
            p50_ms: field(obj, "p50_ms")?,
            p95_ms: field(obj, "p95_ms")?,
            p99_ms: field(obj, "p99_ms")?,
            mean_ms: field(obj, "mean_ms")?,
            overload,
        })
    }
}

/// Mean ± stddev of one statistic across seeds.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SeedStat {
    /// Mean across seeds.
    pub mean: f64,
    /// Sample standard deviation across seeds.
    pub stddev: f64,
}

impl SeedStat {
    fn from_values(values: Vec<f64>) -> SeedStat {
        let s = SeedSummary::new(values);
        SeedStat {
            mean: s.mean(),
            stddev: s.stddev(),
        }
    }
}

impl StrategySummary {
    /// Aggregates per-seed runs (all for the same strategy).
    pub fn from_runs(runs: Vec<RunResult>) -> StrategySummary {
        assert!(!runs.is_empty(), "need at least one run");
        let strategy = runs[0].strategy.clone();
        assert!(
            runs.iter().all(|r| r.strategy == strategy),
            "mixed strategies in one summary"
        );
        let collect = |f: fn(&RunResult) -> f64| runs.iter().map(f).collect::<Vec<_>>();
        // Aggregate overload outcomes only when every seed ran the lane
        // (mixed on/off within one strategy would be a config bug).
        let overload = if runs.iter().all(|r| r.overload.is_some()) {
            let ov = |f: fn(&OverloadStats) -> f64| {
                SeedStat::from_values(
                    runs.iter()
                        .map(|r| f(r.overload.as_ref().expect("checked above")))
                        .collect(),
                )
            };
            Some(OverloadSummary {
                goodput: ov(|o| o.goodput),
                dropped: ov(|o| o.dropped as f64),
                timed_out: ov(|o| o.timed_out as f64),
                retries: ov(|o| o.retries as f64),
                shed: ov(|o| o.shed as f64),
            })
        } else {
            None
        };
        StrategySummary {
            strategy,
            p50_ms: SeedStat::from_values(collect(|r| r.task_latency_ms.p50)),
            p95_ms: SeedStat::from_values(collect(|r| r.task_latency_ms.p95)),
            p99_ms: SeedStat::from_values(collect(|r| r.task_latency_ms.p99)),
            mean_ms: SeedStat::from_values(collect(|r| r.task_latency_ms.mean)),
            overload,
            runs,
        }
    }
}

/// The sweep worker count: `BRB_THREADS` when set (and positive), else
/// the detected available parallelism.
pub fn worker_count() -> usize {
    if let Ok(v) = std::env::var("BRB_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// One cell of a sweep grid: a base configuration and the strategies
/// compared on it. [`run_grid`] overrides `strategy` and `seed` per run.
#[derive(Debug, Clone, Copy)]
pub struct GridCell<'a> {
    /// Everything but the strategy and the seed.
    pub base: &'a ExperimentConfig,
    /// Strategies under comparison (common random numbers per seed).
    pub strategies: &'a [Strategy],
}

/// A (cell, strategy, seed) run of a grid that produced no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridError {
    /// Index of the cell in the grid.
    pub cell: usize,
    /// Display name of the strategy.
    pub strategy: String,
    /// Master seed of the run.
    pub seed: u64,
    /// Why the run has nothing to report.
    pub cause: RunError,
}

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cell {} × {} × seed {}: {}",
            self.cell, self.strategy, self.seed, self.cause
        )
    }
}

impl std::error::Error for GridError {}

/// What one [`run_grid`] execution built and shared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GridStats {
    /// Workload plans built: one per (seed, group of cells whose
    /// workloads are [`WorkloadPlan::shared_by`] each other).
    pub plans_built: usize,
    /// Traces drawn: one per (seed, group of cells with the
    /// [`same_trace`]).
    pub traces_drawn: usize,
    /// Most plans alive at any instant; never more than the worker count.
    pub peak_live_plans: usize,
}

/// A completed grid.
#[derive(Debug, Clone)]
pub struct GridOutcome {
    /// `summaries[cell][strategy]`, each across all seeds, in input order.
    pub summaries: Vec<Vec<StrategySummary>>,
    /// Sharing bookkeeping of this execution.
    pub stats: GridStats,
}

/// [`run_grid_with`] with the drawn traces used as they are and nobody
/// watching progress.
pub fn run_grid(
    cells: &[GridCell<'_>],
    seeds: &[u64],
    threads: usize,
) -> Result<GridOutcome, GridError> {
    run_grid_with(cells, seeds, threads, |trace| trace, |_, _| {})
}

/// A run's coordinates: indices into the grid, the seed list, and the
/// executor's plan and trace slots.
#[derive(Debug, Clone, Copy)]
struct Run {
    cell: usize,
    strategy: usize,
    seed: usize,
    plan_slot: usize,
    trace_slot: usize,
    result_slot: usize,
}

/// A lazily-built value shared by a known number of users, freed when
/// the last one is done — what bounds live plans and traces by the
/// worker count instead of the grid size.
struct Shared<T> {
    value: Mutex<Option<Arc<T>>>,
    users_left: AtomicUsize,
}

impl<T> Shared<T> {
    fn new(users: usize) -> Self {
        Shared {
            value: Mutex::new(None),
            users_left: AtomicUsize::new(users),
        }
    }

    /// The value, made by `make` if this is the first request. Later
    /// requesters wait on the slot's lock while it is being made.
    fn get_or_make(&self, make: impl FnOnce() -> T) -> Arc<T> {
        let mut slot = self.value.lock().expect("shared slot poisoned");
        match &*slot {
            Some(value) => Arc::clone(value),
            None => {
                let value = Arc::new(make());
                *slot = Some(Arc::clone(&value));
                value
            }
        }
    }

    /// Gives back one user's handle; the last one empties the slot, so
    /// the value is freed here. Returns whether it was.
    fn release(&self, handle: Arc<T>) -> bool {
        drop(handle);
        let last = self.users_left.fetch_sub(1, Ordering::AcqRel) == 1;
        if last {
            self.value.lock().expect("shared slot poisoned").take();
        }
        last
    }
}

/// A grid laid out for execution.
struct Schedule {
    /// Every run, in claim order: seed-major, then plan group, trace
    /// group, cell, strategy.
    runs: Vec<Run>,
    /// Per seed, one still-empty slot per plan group.
    plans: Vec<Shared<WorkloadPlan>>,
    /// Per seed, one still-empty slot per trace group.
    traces: Vec<Shared<Vec<TaskSpec>>>,
}

fn schedule(cells: &[GridCell<'_>], num_seeds: usize) -> Schedule {
    // groups[p][t] = the cells of plan group p's trace group t, all in
    // order of first appearance.
    let mut groups: Vec<Vec<Vec<usize>>> = Vec::new();
    for (c, cell) in cells.iter().enumerate() {
        let first_of = |members: &Vec<usize>| cells[members[0]].base;
        let plan_group = match groups
            .iter()
            .position(|g| WorkloadPlan::shared_by(&first_of(&g[0]).workload, &cell.base.workload))
        {
            Some(p) => &mut groups[p],
            None => {
                groups.push(Vec::new());
                groups.last_mut().expect("just pushed")
            }
        };
        match plan_group
            .iter()
            .position(|members| same_trace(first_of(members), cell.base))
        {
            Some(t) => plan_group[t].push(c),
            None => plan_group.push(vec![c]),
        }
    }

    // Where each cell's (strategy × seed) results start, strategy-major.
    let result_base: Vec<usize> = cells
        .iter()
        .scan(0, |next, cell| {
            let base = *next;
            *next += cell.strategies.len() * num_seeds;
            Some(base)
        })
        .collect();
    let mut runs: Vec<Run> = Vec::new();
    let mut plans: Vec<Shared<WorkloadPlan>> = Vec::new();
    let mut traces: Vec<Shared<Vec<TaskSpec>>> = Vec::new();
    for seed in 0..num_seeds {
        for plan_group in &groups {
            // A plan's users are the draws of its traces.
            plans.push(Shared::new(plan_group.len()));
            for members in plan_group {
                let before = runs.len();
                for &cell in members {
                    for strategy in 0..cells[cell].strategies.len() {
                        runs.push(Run {
                            cell,
                            strategy,
                            seed,
                            plan_slot: plans.len() - 1,
                            trace_slot: traces.len(),
                            result_slot: result_base[cell] + strategy * num_seeds + seed,
                        });
                    }
                }
                traces.push(Shared::new(runs.len() - before));
            }
        }
    }
    Schedule {
        runs,
        plans,
        traces,
    }
}

/// Runs a whole sweep grid — every cell × its strategies × every seed —
/// and summarizes each (cell, strategy) across seeds.
///
/// Execution is **seed-major**. Cells whose workloads share a plan
/// ([`WorkloadPlan::shared_by`]: same catalog numbers and size model,
/// whatever the load) form a plan group; within it, cells that imply the
/// [`same_trace`] (they differ only on strategy-side axes such as a
/// hedge delay or a shed watermark) form a trace group. Per seed, each
/// plan group's plan is built once — lazily, by the first worker that
/// needs it — each trace group's trace is drawn from it once, and the
/// plan is freed the moment its last trace is drawn, the trace the
/// moment its last run completes. Runs are claimed in that order off an
/// atomic cursor (they differ wildly in cost, so static chunking would
/// leave cores idle), which keeps live memory at one plan and one trace
/// per worker however large the grid: the next seed's plan is not built
/// before this seed's is done with, and a seed with a single distinct
/// trace frees its catalog before the first simulation starts.
///
/// Every run is a self-contained deterministic simulation (its own RNG
/// streams, its own calendar) and plan and draw use separate labelled
/// streams, so the output is byte-identical for every `threads` and
/// equal to running each cell on its own.
///
/// `retrace` maps each drawn trace to the one actually simulated
/// (identity, or a round trip through the on-disk format). `progress`
/// is called after each run completes with `(runs done, runs in total)`:
/// strictly increasing, ending at the total.
///
/// # Errors
/// The first run, in execution order, that resolved but has nothing to
/// report (see [`RunError`]); later runs are not started.
///
/// # Panics
/// Panics if `seeds` is empty, a cell has no strategies or an invalid
/// configuration, or a run fails to resolve (an engine bug).
pub fn run_grid_with(
    cells: &[GridCell<'_>],
    seeds: &[u64],
    threads: usize,
    retrace: impl Fn(Vec<TaskSpec>) -> Vec<TaskSpec> + Sync,
    progress: impl FnMut(usize, usize) + Send,
) -> Result<GridOutcome, GridError> {
    assert!(!seeds.is_empty(), "need at least one seed");
    for cell in cells {
        assert!(!cell.strategies.is_empty(), "need at least one strategy");
        cell.base.validate().expect("invalid experiment config");
    }

    let Schedule {
        runs,
        plans,
        traces,
    } = schedule(cells, seeds.len());

    let config_of = |run: &Run| {
        let mut cfg = cells[run.cell].base.clone();
        cfg.strategy = cells[run.cell].strategies[run.strategy].clone();
        cfg.seed = seeds[run.seed];
        cfg
    };
    let results: Vec<Mutex<Option<Result<RunResult, RunError>>>> =
        runs.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let plans_built = AtomicUsize::new(0);
    let traces_drawn = AtomicUsize::new(0);
    let live_plans = AtomicUsize::new(0);
    let peak_live_plans = AtomicUsize::new(0);
    let progress = Mutex::new((0usize, progress));
    let worker = || {
        while !failed.load(Ordering::Relaxed) {
            let Some(run) = runs.get(next.fetch_add(1, Ordering::Relaxed)) else {
                break;
            };
            let cfg = config_of(run);
            let trace = traces[run.trace_slot].get_or_make(|| {
                let plan = plans[run.plan_slot].get_or_make(|| {
                    plans_built.fetch_add(1, Ordering::Relaxed);
                    let live = live_plans.fetch_add(1, Ordering::Relaxed) + 1;
                    peak_live_plans.fetch_max(live, Ordering::Relaxed);
                    WorkloadPlan::build(&cfg)
                });
                let trace = plan.draw(&cfg);
                traces_drawn.fetch_add(1, Ordering::Relaxed);
                if plans[run.plan_slot].release(plan) {
                    live_plans.fetch_sub(1, Ordering::Relaxed);
                }
                retrace(trace)
            });
            let result = run_world(EngineWorld::with_shared_trace(cfg, Arc::clone(&trace)));
            traces[run.trace_slot].release(trace);
            failed.fetch_or(result.is_err(), Ordering::Relaxed);
            *results[run.result_slot]
                .lock()
                .expect("result slot poisoned") = Some(result);
            let (done, callback) = &mut *progress.lock().expect("progress callback poisoned");
            *done += 1;
            callback(*done, runs.len());
        }
    };
    let threads = threads.min(runs.len());
    if threads <= 1 {
        worker();
    } else {
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(worker);
            }
        });
    }

    // Runs are claimed in order, so everything before the first failure
    // (in that order) completed: which error is reported does not depend
    // on thread timing.
    let mut results: Vec<Option<Result<RunResult, RunError>>> = results
        .into_iter()
        .map(|slot| slot.into_inner().expect("result slot poisoned"))
        .collect();
    for run in &runs {
        if let Some(Err(cause)) = results[run.result_slot] {
            return Err(GridError {
                cell: run.cell,
                strategy: cells[run.cell].strategies[run.strategy].name(),
                seed: seeds[run.seed],
                cause,
            });
        }
    }
    let mut results = results.iter_mut().map(|slot| match slot.take() {
        Some(Ok(result)) => result,
        _ => unreachable!("no run failed, so every run completed"),
    });
    let summaries = cells
        .iter()
        .map(|cell| {
            cell.strategies
                .iter()
                .map(|_| StrategySummary::from_runs(results.by_ref().take(seeds.len()).collect()))
                .collect()
        })
        .collect();
    Ok(GridOutcome {
        summaries,
        stats: GridStats {
            plans_built: plans_built.into_inner(),
            traces_drawn: traces_drawn.into_inner(),
            peak_live_plans: peak_live_plans.into_inner(),
        },
    })
}

/// Runs every strategy over every seed with the same base configuration —
/// the harness behind Figure 2 and the ablation sweeps, and the one-cell
/// case of [`run_grid`]. The same seed is reused across strategies
/// (common random numbers), so the workload trace is identical for every
/// strategy under a given seed.
///
/// Runs fan out across [`worker_count`] threads; the output is
/// byte-identical to [`run_strategies_multi_seed_sequential`] regardless
/// of thread count or interleaving.
///
/// # Panics
/// As for [`run_grid_with`], and if a run has nothing to report
/// ([`RunError`]).
pub fn run_strategies_multi_seed(
    base: &ExperimentConfig,
    strategies: &[Strategy],
    seeds: &[u64],
) -> Vec<StrategySummary> {
    run_strategies_multi_seed_with_threads(base, strategies, seeds, worker_count())
}

/// [`run_strategies_multi_seed`] with an explicit worker count — for
/// differential tests and benchmarks that must not depend on the
/// machine's parallelism or the `BRB_THREADS` environment.
pub fn run_strategies_multi_seed_with_threads(
    base: &ExperimentConfig,
    strategies: &[Strategy],
    seeds: &[u64],
    threads: usize,
) -> Vec<StrategySummary> {
    run_grid(&[GridCell { base, strategies }], seeds, threads)
        .unwrap_or_else(|e| panic!("{e}"))
        .summaries
        .remove(0)
}

/// The single-threaded reference: identical results to
/// [`run_strategies_multi_seed`], kept for differential tests and as the
/// wall-clock baseline in `--bin kernel_bench`.
pub fn run_strategies_multi_seed_sequential(
    base: &ExperimentConfig,
    strategies: &[Strategy],
    seeds: &[u64],
) -> Vec<StrategySummary> {
    run_strategies_multi_seed_with_threads(base, strategies, seeds, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Strategy;

    fn small(strategy: Strategy, seed: u64) -> ExperimentConfig {
        crate::config::paper_small_config(strategy, seed, 1_500)
    }

    #[test]
    fn run_result_is_complete() {
        let r = run_experiment(small(Strategy::c3(), 1));
        assert_eq!(r.strategy, "C3");
        assert_eq!(r.completed_tasks, 1_500);
        assert!(r.task_latency_ms.p50 > 0.0);
        assert!(r.task_latency_ms.p99 >= r.task_latency_ms.p95);
        assert!(r.task_latency_ms.p95 >= r.task_latency_ms.p50);
        assert!(r.request_latency_ms.p50 > 0.0);
        // A task is never faster than one request round trip (100µs) plus
        // service; p50 well above 0.1ms.
        assert!(r.task_latency_ms.p50 > 0.1, "{}", r.task_latency_ms.p50);
        assert!(r.utilization > 0.0);
        assert!(r.events > 0);
        assert!(r.sim_secs > 0.0);
    }

    #[test]
    fn multi_seed_summary_aggregates() {
        let base = small(Strategy::c3(), 0);
        let out = run_strategies_multi_seed(
            &base,
            &[Strategy::c3(), Strategy::equal_max_model()],
            &[1, 2],
        );
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].runs.len(), 2);
        assert_eq!(out[0].strategy, "C3");
        assert_eq!(out[1].strategy, "EqualMax - Model");
        for s in &out {
            assert!(s.p99_ms.mean >= s.p50_ms.mean);
            assert!(s.p50_ms.mean > 0.0);
        }
    }

    #[test]
    fn seeds_share_the_workload_across_strategies() {
        // Common random numbers: dispatched request counts must match
        // exactly across strategies for the same seed.
        let base = small(Strategy::c3(), 0);
        let out =
            run_strategies_multi_seed(&base, &[Strategy::c3(), Strategy::unif_incr_model()], &[9]);
        assert_eq!(out[0].runs[0].dispatched, out[1].runs[0].dispatched);
    }

    /// The parallel runner must be invisible in the results: every
    /// `RunResult` serializes byte-identically to the sequential path's,
    /// for every (strategy, seed) cell, for **every worker count** — the
    /// shapes `BRB_THREADS` can force — including more workers than
    /// cells (maximum interleaving). With the ziggurat/alias samplers in
    /// the hot path, this is also the end-to-end proof that the new
    /// draw sequences are scheduling-independent.
    #[test]
    fn any_thread_count_matches_sequential_byte_for_byte() {
        let base = small(Strategy::c3(), 0);
        let strategies = [
            Strategy::c3(),
            Strategy::equal_max_credits(),
            Strategy::equal_max_model(),
        ];
        let seeds = [1u64, 2];
        let seq = run_strategies_multi_seed_sequential(&base, &strategies, &seeds);
        for threads in [1usize, 2, 3, 8] {
            let par = run_strategies_multi_seed_with_threads(&base, &strategies, &seeds, threads);
            assert_eq!(seq.len(), par.len());
            for (s, p) in seq.iter().zip(&par) {
                assert_eq!(s.strategy, p.strategy);
                assert_eq!(s.runs.len(), p.runs.len());
                for (sr, pr) in s.runs.iter().zip(&p.runs) {
                    let sj = serde_json::to_string(sr).unwrap();
                    let pj = serde_json::to_string(pr).unwrap();
                    assert_eq!(
                        sj, pj,
                        "cell ({}, seed {}) diverged at {threads} threads",
                        sr.strategy, sr.seed
                    );
                }
            }
        }
    }

    fn at_load(load: f64) -> ExperimentConfig {
        let mut cfg = small(Strategy::c3(), 0);
        cfg.workload.load = load;
        cfg
    }

    fn synthetic(mean_fanout: u32) -> ExperimentConfig {
        let mut cfg = small(Strategy::c3(), 0);
        cfg.workload.kind = crate::config::WorkloadKind::Synthetic {
            fanout: brb_workload::FanoutDist::Geometric {
                p: 1.0 / mean_fanout as f64,
            },
            num_keys: 30_000,
            zipf_exponent: 0.9,
        };
        cfg
    }

    fn json(summaries: &[StrategySummary]) -> Vec<String> {
        summaries
            .iter()
            .flat_map(|s| &s.runs)
            .map(|r| serde_json::to_string(r).unwrap())
            .collect()
    }

    /// Every cell of `bases` run through one grid must equal the cell
    /// run alone (no sharing possible), for every worker count.
    fn assert_grid_matches_cells_run_alone(
        bases: &[ExperimentConfig],
        strategies: &[Strategy],
        seeds: &[u64],
    ) -> GridStats {
        let cells: Vec<GridCell<'_>> = bases
            .iter()
            .map(|base| GridCell { base, strategies })
            .collect();
        let alone: Vec<Vec<String>> = bases
            .iter()
            .map(|base| {
                json(&run_strategies_multi_seed_sequential(
                    base, strategies, seeds,
                ))
            })
            .collect();
        let mut stats = None;
        for threads in [1usize, 2, 4] {
            let out = run_grid(&cells, seeds, threads).unwrap();
            let got: Vec<Vec<String>> = out.summaries.iter().map(|s| json(s)).collect();
            assert_eq!(got, alone, "grid diverged at {threads} threads");
            assert!(
                (1..=threads).contains(&out.stats.peak_live_plans),
                "{} plans alive on {threads} workers",
                out.stats.peak_live_plans
            );
            let counts = (out.stats.plans_built, out.stats.traces_drawn);
            let first = *stats.get_or_insert(out.stats);
            assert_eq!(counts, (first.plans_built, first.traces_drawn));
        }
        stats.unwrap()
    }

    /// The point of the executor: a load sweep builds each seed's
    /// catalog once, not once per load cell — and nothing else changes.
    #[test]
    fn load_sweep_builds_one_catalog_per_seed() {
        let bases: Vec<_> = [0.3, 0.5, 0.7, 0.85, 0.95, 1.05]
            .into_iter()
            .map(at_load)
            .collect();
        let stats = assert_grid_matches_cells_run_alone(
            &bases,
            &[Strategy::c3(), Strategy::equal_max_model()],
            &[1, 2],
        );
        assert_eq!(stats.plans_built, 2, "one catalog per seed");
        assert_eq!(stats.traces_drawn, 12, "one trace per (load, seed)");
        // One worker never holds two plans.
        let cells: Vec<_> = bases
            .iter()
            .map(|base| GridCell {
                base,
                strategies: &[Strategy::Direct {
                    selector: crate::config::SelectorKind::Random,
                    policy: brb_sched::PolicyKind::Fifo,
                    priority_queues: false,
                }],
            })
            .collect();
        let stats = run_grid(&cells, &[1, 2, 3], 1).unwrap().stats;
        assert_eq!((stats.plans_built, stats.peak_live_plans), (3, 1));
    }

    /// Cells that differ only on strategy-side axes — a hedge delay (in
    /// the cell's strategy set) or a shed watermark (in its overload
    /// knobs) — share the trace itself.
    #[test]
    fn strategy_side_axes_draw_one_trace_per_seed() {
        let hedged = |delay_us| {
            [Strategy::Hedged {
                selector: crate::config::SelectorKind::LeastOutstanding,
                delay_us,
            }]
        };
        let base = at_load(0.7);
        let delays = [hedged(500), hedged(2_000), hedged(8_000)];
        let cells: Vec<_> = delays
            .iter()
            .map(|strategies| GridCell {
                base: &base,
                strategies,
            })
            .collect();
        let out = run_grid(&cells, &[1, 2], 2).unwrap();
        assert_eq!(out.stats.plans_built, 2);
        assert_eq!(out.stats.traces_drawn, 2, "one trace per seed");
        for (summaries, strategies) in out.summaries.iter().zip(&delays) {
            let alone = run_strategies_multi_seed_sequential(&base, strategies, &[1, 2]);
            assert_eq!(json(summaries), json(&alone));
        }

        let watermarks: Vec<_> = [16usize, 32, 48]
            .into_iter()
            .map(|shed_above| {
                let mut cfg = at_load(1.1);
                cfg.overload.queue = Some(crate::config::QueueConfig {
                    capacity: 64,
                    shed_above: Some(shed_above),
                    codel: None,
                    priority_stats: false,
                });
                cfg
            })
            .collect();
        let stats = assert_grid_matches_cells_run_alone(&watermarks, &[Strategy::c3()], &[1, 2]);
        assert_eq!((stats.plans_built, stats.traces_drawn), (2, 2));
    }

    /// A grid mixing workload kinds (what a `mean_fanout` axis does to a
    /// playlist scenario) keeps them apart: the synthetic cells never
    /// draw from the playlist catalog. They do share their own key
    /// table, since a fan-out distribution belongs to the draw.
    #[test]
    fn mixed_kinds_do_not_share_a_plan() {
        let bases = [at_load(0.5), synthetic(4), at_load(0.8), synthetic(9)];
        let stats = assert_grid_matches_cells_run_alone(&bases, &[Strategy::c3()], &[1, 2]);
        assert_eq!(stats.plans_built, 4, "a catalog and a key table per seed");
        assert_eq!(stats.traces_drawn, 8);

        let mut other_keys = synthetic(4);
        if let crate::config::WorkloadKind::Synthetic { num_keys, .. } =
            &mut other_keys.workload.kind
        {
            *num_keys = 20_000;
        }
        let mut other_sizes = at_load(0.5);
        other_sizes.workload.sizes.cap_bytes = 4_096;
        let workload = |cfg: &ExperimentConfig| cfg.workload.clone();
        assert!(!WorkloadPlan::shared_by(
            &workload(&bases[1]),
            &workload(&other_keys)
        ));
        assert!(!WorkloadPlan::shared_by(
            &workload(&bases[0]),
            &workload(&other_sizes)
        ));
        assert!(!same_trace(&bases[0], &bases[2]));
    }

    /// The executor against code that shares nothing with it: one
    /// `run_experiment` per (cell, strategy, seed), each generating its
    /// own trace from scratch.
    #[test]
    fn grid_matches_independent_single_runs() {
        let bases = [at_load(0.4), at_load(0.9)];
        let strategies = [Strategy::c3(), Strategy::equal_max_credits()];
        let seeds = [3u64, 4];
        let cells: Vec<_> = bases
            .iter()
            .map(|base| GridCell {
                base,
                strategies: &strategies,
            })
            .collect();
        let out = run_grid(&cells, &seeds, 2).unwrap();
        for (base, summaries) in bases.iter().zip(&out.summaries) {
            for (strategy, summary) in strategies.iter().zip(summaries) {
                for (&seed, run) in seeds.iter().zip(&summary.runs) {
                    let mut cfg = base.clone();
                    cfg.strategy = strategy.clone();
                    cfg.seed = seed;
                    assert_eq!(
                        serde_json::to_string(run).unwrap(),
                        serde_json::to_string(&run_experiment(cfg)).unwrap()
                    );
                }
            }
        }
    }

    /// A run in which nothing completes after warm-up used to panic in
    /// the percentile extraction; the grid names the run instead, the
    /// same one whatever the worker count.
    #[test]
    fn a_run_with_nothing_to_report_is_a_typed_error() {
        let mut hopeless = at_load(0.7);
        // Shorter than one network hop: every attempt times out.
        hopeless.overload.timeout = Some(crate::config::TimeoutConfig {
            timeout_us: 10,
            max_retries: 0,
            backoff_base_us: 0,
            backoff_cap_us: 0,
            retry_budget_percent: None,
        });
        let fine = at_load(0.7);
        let strategies = [Strategy::c3(), Strategy::equal_max_model()];
        let cells = [&fine, &hopeless, &hopeless].map(|base| GridCell {
            base,
            strategies: &strategies,
        });
        let mut reports = Vec::new();
        for threads in [1usize, 2, 4] {
            let mut calls = 0;
            let err = run_grid_with(&cells, &[5, 6], threads, |t| t, |_, _| calls += 1)
                .expect_err("the hopeless cells cannot be summarized");
            assert_eq!(
                err,
                GridError {
                    cell: 1,
                    strategy: "C3".into(),
                    seed: 5,
                    cause: RunError::NoMeasuredTasks,
                },
                "{threads} threads"
            );
            reports.push(calls);
        }
        // Later runs are not started: the single worker stops right there.
        assert_eq!(reports[0], 3);
        let text = run_grid(&cells, &[5, 6], 1).unwrap_err().to_string();
        assert!(text.contains("cell 1") && text.contains("C3") && text.contains("seed 5"));
    }

    // Note: `BRB_THREADS` itself is exercised end-to-end by the
    // `kernel_bench` CI step (the emitted JSON records the worker count).
    // Mutating the environment from an in-process test would race the
    // other tests' `env::var` reads — worker-count *behavior* is covered
    // shape by shape above instead.

    #[test]
    fn worker_count_is_positive() {
        // Whatever the machine or BRB_THREADS says, a sweep always gets
        // at least one worker.
        assert!(worker_count() >= 1);
    }

    #[test]
    #[should_panic(expected = "mixed strategies")]
    fn summary_rejects_mixed_strategies() {
        let a = run_experiment(small(Strategy::c3(), 1));
        let b = run_experiment(small(Strategy::equal_max_model(), 1));
        StrategySummary::from_runs(vec![a, b]);
    }

    #[test]
    fn results_serialize() {
        let r = run_experiment(small(Strategy::equal_max_credits(), 3));
        let json = serde_json::to_string(&r).unwrap();
        let back: RunResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back.completed_tasks, r.completed_tasks);
        assert!(back.overload.is_none());
        // Knobs off ⇒ the overload keys must not exist at all (their
        // absence is what keeps historical golden hashes valid).
        assert!(!json.contains("goodput"));
        assert!(!json.contains("\"shed\""));
    }

    #[test]
    fn overload_fields_flatten_additively_and_round_trip() {
        let mut cfg = small(Strategy::c3(), 4);
        cfg.workload.load = 1.2;
        cfg.overload.queue = Some(crate::config::QueueConfig {
            capacity: 64,
            shed_above: None,
            codel: None,
            priority_stats: false,
        });
        let r = run_experiment(cfg);
        let o = r.overload.expect("knobs on ⇒ stats present");
        assert!(o.goodput > 0.0);
        assert_eq!(
            r.completed_tasks as u64 + o.dropped + o.timed_out + o.shed,
            1_500,
            "conservation must hold in the report"
        );
        let json = serde_json::to_string(&r).unwrap();
        // Appended after the 15 legacy keys, in schema order.
        let pos = |k: &str| json.find(k).unwrap_or_else(|| panic!("missing {k}"));
        assert!(pos("\"duplicate_responses\"") < pos("\"goodput\""));
        assert!(pos("\"goodput\"") < pos("\"dropped\""));
        assert!(pos("\"dropped\"") < pos("\"timed_out\""));
        assert!(pos("\"timed_out\"") < pos("\"retries\""));
        assert!(pos("\"retries\"") < pos("\"shed\""));
        let back: RunResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back.overload, r.overload);
        assert_eq!(serde_json::to_string(&back).unwrap(), json);

        let summary = StrategySummary::from_runs(vec![r]);
        let sj = serde_json::to_string(&summary).unwrap();
        assert!(sj.contains("\"goodput\""));
        let sback: StrategySummary = serde_json::from_str(&sj).unwrap();
        assert_eq!(serde_json::to_string(&sback).unwrap(), sj);
    }

    #[test]
    fn priority_class_split_is_additive_and_sums_match() {
        let mut cfg = small(Strategy::c3(), 7);
        cfg.workload.load = 1.3;
        cfg.overload.queue = Some(crate::config::QueueConfig {
            capacity: 64,
            shed_above: Some(48),
            codel: None,
            priority_stats: true,
        });
        let r = run_experiment(cfg.clone());
        let o = r.overload.expect("knobs on ⇒ stats present");
        assert!(o.dropped + o.shed > 0, "split needs failures to classify");
        let pc = r
            .priority_classes
            .as_ref()
            .expect("priority_stats on ⇒ split present");
        assert_eq!(pc.iter().map(|c| c.dropped).sum::<u64>(), o.dropped);
        assert_eq!(pc.iter().map(|c| c.shed).sum::<u64>(), o.shed);
        assert!(
            pc.windows(2).all(|w| w[0].class < w[1].class),
            "classes sorted ascending"
        );
        let json = serde_json::to_string(&r).unwrap();
        // Appended after the overload block, round-trips byte-stably.
        let pos = |k: &str| json.find(k).unwrap_or_else(|| panic!("missing {k}"));
        assert!(pos("\"shed\"") < pos("\"priority_classes\""));
        let back: RunResult = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);

        // The knob is observation-only: same run with it off produces
        // identical outcomes and no extra key.
        let mut off = cfg;
        off.overload.queue.as_mut().unwrap().priority_stats = false;
        let r_off = run_experiment(off);
        assert!(r_off.priority_classes.is_none());
        let off_json = serde_json::to_string(&r_off).unwrap();
        assert!(!off_json.contains("priority_classes"));
        assert_eq!(r_off.overload, r.overload);
    }

    /// The regression the overload lane exists to pin: at 1.3× offered
    /// load an unbounded system completes everything but its tail is
    /// the standing backlog; bounding + CoDel trades a slice of the
    /// offered work (drops > 0) for a far smaller served tail.
    #[test]
    fn bounded_codel_beats_the_unbounded_tail_past_saturation() {
        let mut unbounded = small(Strategy::c3(), 11);
        unbounded.workload.load = 1.3;
        let mut bounded = unbounded.clone();
        bounded.overload.queue = Some(crate::config::QueueConfig {
            capacity: 64,
            shed_above: None,
            codel: Some(brb_sched::CoDelConfig::paper_default()),
            priority_stats: false,
        });
        let u = run_experiment(unbounded);
        let b = run_experiment(bounded);
        assert!(u.overload.is_none(), "knobs off must stay legacy-shaped");
        assert_eq!(u.completed_tasks, 1_500, "unbounded completes everything");
        let ov = b.overload.expect("knobs on ⇒ stats present");
        assert!(ov.dropped > 0, "past saturation the bound must engage");
        assert!(ov.goodput > 0.0);
        assert_eq!(
            b.completed_tasks as u64 + ov.dropped + ov.timed_out + ov.shed,
            1_500
        );
        assert!(
            b.task_latency_ms.p99 < u.task_latency_ms.p99,
            "bounded p99 {}ms should beat unbounded p99 {}ms",
            b.task_latency_ms.p99,
            u.task_latency_ms.p99
        );
    }
}
