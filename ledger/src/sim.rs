//! The simulator-backed timed sections (`sim-figure2`, `sim-overload`,
//! `lab-capacity-sweep`), each in two forms that must agree bit for
//! bit: the product's own `run_spec` (untraced, what users run) and a
//! re-assembly of its loop from public pieces with a span around every
//! call into a layer (traced).

use crate::spans::Recorder;
use crate::stats::{fnv1a, fnv1a_extend};
use brb_core::config::Strategy;
use brb_core::engine::{Counters, EngineWorld};
use brb_core::experiment::{OverloadStats, PriorityClassStats, RunResult, StrategySummary};
use brb_lab::analysis::markdown::{render_capacity, render_compare};
use brb_lab::report::write_jsonl;
use brb_lab::runner::run_spec;
use brb_lab::{
    capacity_report, compare_report, parse_jsonl, CapacityOptions, CellResult, CompareOptions,
    ScenarioSpec,
};
use brb_metrics::Percentiles;
use brb_sim::{RunStats, Simulation};
use brb_workload::taskgen::{RequestSpec, TaskSpec};
use std::sync::Arc;

/// What one timed section produced.
#[derive(Debug)]
pub struct SimOutput {
    pub results: Vec<CellResult>,
    /// The `report-v1` JSONL bytes.
    pub report: Vec<u8>,
}

/// Exact counts a traced section reads off the engine worlds — the
/// multipliers for the per-layer unit costs, and the lifecycle counters
/// `RunResult` does not carry.
#[derive(Debug, Default, Clone)]
pub struct SimFacts {
    pub timeouts_fired: u64,
    pub retries_issued: u64,
    pub requests_dropped: u64,
    /// Σ over runs of the trace's total fan-out (requests asked for).
    pub fanout_total: u64,
    /// Requests dispatched by C3 runs (the selector cost's multiplier).
    pub c3_dispatched: u64,
    /// Requests dispatched by runs with bounded queues.
    pub bounded_dispatched: u64,
    /// Heap bytes of the largest trace alive at once.
    pub trace_bytes: u64,
}

/// The knobs of the analysis half of `lab-capacity-sweep`.
fn capacity_options() -> CapacityOptions {
    CapacityOptions {
        // A gate that bites inside the swept band, so the knee search
        // does real work.
        slo_p99_ms: Some(50.0),
        ..CapacityOptions::default()
    }
}

fn scenario_err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Report emission, and — when `analysis` is on — the rest of what
/// `brb-lab compare` / `capacity` do with a report.
fn emit(
    spec: &ScenarioSpec,
    results: &[CellResult],
    analysis: bool,
    rec: &mut Recorder,
) -> Result<Vec<u8>, String> {
    let report = rec.span("lab.report_write", |_| {
        let mut buf = Vec::new();
        write_jsonl(spec, results, &mut buf).map(|()| buf)
    });
    let report = report.map_err(scenario_err)?;
    if analysis {
        let text = std::str::from_utf8(&report).map_err(scenario_err)?;
        let parsed = rec
            .span("lab.report_parse", |_| parse_jsonl(text))
            .map_err(scenario_err)?;
        let baseline = spec.strategies[0].name();
        let compare = rec
            .span("lab.compare", |_| {
                compare_report(
                    &parsed.spec,
                    &parsed.results,
                    &baseline,
                    &CompareOptions::default(),
                )
            })
            .map_err(scenario_err)?;
        let capacity = rec
            .span("lab.capacity", |_| {
                capacity_report(&parsed.spec, &parsed.results, &capacity_options())
            })
            .map_err(scenario_err)?;
        let markdown = rec.span("lab.markdown", |_| {
            render_compare(&compare, None).len() + render_capacity(&capacity).len()
        });
        std::hint::black_box(markdown);
    }
    Ok(report)
}

/// The timed section as users run it: `run_spec` + `write_jsonl`
/// (+ analysis), no spans inside.
pub fn run_untraced(spec: &ScenarioSpec, analysis: bool) -> Result<SimOutput, String> {
    let results = run_spec(spec).map_err(scenario_err)?;
    let report = emit(spec, &results, analysis, &mut Recorder::new(false))?;
    Ok(SimOutput { results, report })
}

/// `experiment::run_world`'s result assembly, from the world's public
/// fields. Must stay field-for-field what the product does — the digest
/// comparison against the untraced run is what enforces that.
fn collect(sim: &Simulation<EngineWorld>, stats: RunStats, rec: &mut Recorder) -> RunResult {
    let w = sim.world();
    assert!(w.is_finished(), "run did not resolve");
    let counters: Counters = w.counters;
    let end_secs = stats.end_time.as_secs_f64();
    let overload = (!w.config().overload.is_off()).then(|| OverloadStats {
        goodput: w.completed_tasks() as f64 / end_secs,
        dropped: counters.tasks_dropped,
        timed_out: counters.tasks_timed_out,
        retries: counters.retries_issued,
        shed: counters.tasks_shed,
    });
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
    let mut percentiles =
        |h| rec.span("metrics.percentiles", |_| Percentiles::from_histogram_ns(h));
    RunResult {
        strategy: w.config().strategy.name(),
        seed: w.config().seed,
        task_latency_ms: percentiles(&w.task_latency).expect("no measured tasks"),
        request_latency_ms: percentiles(&w.request_latency).expect("no measured requests"),
        hold_time_ms: percentiles(&w.hold_time),
        utilization: w.mean_utilization(stats.end_time.as_nanos()),
        completed_tasks: w.completed_tasks(),
        measured_tasks: w.measured_tasks(),
        sim_secs: end_secs,
        events: stats.events_executed,
        dispatched: counters.dispatched,
        congestion_signals: counters.congestion_signals,
        demand_reports: counters.demand_reports,
        hedges_issued: counters.hedges_issued,
        duplicate_responses: counters.duplicate_responses,
        overload,
        priority_classes,
    }
}

fn trace_heap_bytes(trace: &[TaskSpec]) -> u64 {
    let requests: usize = trace.iter().map(|t| t.requests.capacity()).sum();
    (std::mem::size_of_val(trace) + requests * std::mem::size_of::<RequestSpec>()) as u64
}

/// Builds, primes and runs one cell; the three `core.*` spans.
fn run_cell(
    cfg: brb_core::ExperimentConfig,
    trace: &Arc<Vec<TaskSpec>>,
    rec: &mut Recorder,
) -> (RunResult, Counters) {
    let mut sim = rec.span("core.world_build", |_| {
        let mut sim = Simulation::new(EngineWorld::with_shared_trace(cfg, Arc::clone(trace)));
        EngineWorld::prime(&mut sim);
        sim
    });
    let stats = rec.span("core.run", |_| sim.run());
    let run = rec.span("core.collect", |rec| collect(&sim, stats, rec));
    (run, sim.world().counters)
}

/// The same timed section re-assembled from public pieces — the
/// sequential, seed-major loop of `experiment::run_cells_with` — with a
/// span around each call into a layer.
pub fn run_traced(
    spec: &ScenarioSpec,
    analysis: bool,
    rec: &mut Recorder,
) -> Result<(SimOutput, SimFacts), String> {
    let mut facts = SimFacts::default();
    let cells = rec
        .span("lab.lower", |_| spec.lower())
        .map_err(scenario_err)?;
    let mut results = Vec::with_capacity(cells.len());
    for cell in cells {
        let num_seeds = cell.seeds.len();
        let mut slots: Vec<Option<RunResult>> = (0..cell.strategies.len() * num_seeds)
            .map(|_| None)
            .collect();
        for (ti, &seed) in cell.seeds.iter().enumerate() {
            let trace = rec.span("workload.generate_trace", |_| {
                let mut cfg = cell.base.clone();
                cfg.seed = seed;
                Arc::new(EngineWorld::generate_trace(&cfg))
            });
            facts.trace_bytes = facts.trace_bytes.max(trace_heap_bytes(&trace));
            let fanout: u64 = trace.iter().map(|t| t.requests.len() as u64).sum();
            for (si, strategy) in cell.strategies.iter().enumerate() {
                let cfg = cell.config_for(strategy.clone(), seed);
                let bounded = cfg.overload.queue.is_some();
                let (run, counters) = run_cell(cfg, &trace, rec);
                facts.fanout_total += fanout;
                facts.timeouts_fired += counters.timeouts_fired;
                facts.retries_issued += counters.retries_issued;
                facts.requests_dropped += counters.requests_dropped;
                if run.strategy == Strategy::c3().name() {
                    facts.c3_dispatched += run.dispatched;
                }
                if bounded {
                    facts.bounded_dispatched += run.dispatched;
                }
                slots[si * num_seeds + ti] = Some(run);
            }
        }
        let summaries = rec.span("core.collect", |_| {
            let mut runs = slots.into_iter().map(|r| r.expect("every cell ran"));
            (0..cell.strategies.len())
                .map(|_| StrategySummary::from_runs(runs.by_ref().take(num_seeds).collect()))
                .collect()
        });
        results.push(CellResult {
            index: cell.index,
            axes: cell.axes,
            summaries,
        });
    }
    let report = emit(spec, &results, analysis, rec)?;
    Ok((SimOutput { results, report }, facts))
}

/// Seconds inside `Simulation::run` for `strategy` on the first cell's
/// first seed — the two halves of the differential selector cost.
pub fn time_one_run(spec: &ScenarioSpec, strategy: Strategy) -> Result<(f64, u64), String> {
    let cell = spec
        .lower()
        .map_err(scenario_err)?
        .into_iter()
        .next()
        .ok_or("spec lowered to no cells")?;
    let seed = cell.seeds[0];
    let mut base = cell.base.clone();
    base.seed = seed;
    let trace = Arc::new(EngineWorld::generate_trace(&base));
    let mut rec = Recorder::new(true);
    let (run, _) = rec.span(crate::spans::ROOT, |rec| {
        run_cell(cell.config_for(strategy, seed), &trace, rec)
    });
    let run_s = crate::spans::Breakdown::of(rec.spans()).secs_per_root("core.run");
    Ok((run_s, run.dispatched))
}

/// Every run of a result set, in report order.
pub fn runs(results: &[CellResult]) -> impl Iterator<Item = &RunResult> {
    results
        .iter()
        .flat_map(|c| c.summaries.iter())
        .flat_map(|s| s.runs.iter())
}

/// FNV-1a over every serialized `RunResult` in report order — the fold
/// `run_golden.rs` applies per run, chained over the whole result set.
pub fn digest(results: &[CellResult]) -> u64 {
    runs(results).fold(fnv1a(b""), |h, run| {
        let json = serde_json::to_string(run).expect("serialize run");
        fnv1a_extend(h, json.as_bytes())
    })
}

/// `parse_jsonl(write_jsonl(x))` must reproduce `x`'s bytes.
pub fn report_round_trips(report: &[u8]) -> Result<(), String> {
    let text = std::str::from_utf8(report).map_err(scenario_err)?;
    let parsed = parse_jsonl(text).map_err(scenario_err)?;
    let mut again = Vec::new();
    write_jsonl(&parsed.spec, &parsed.results, &mut again).map_err(scenario_err)?;
    (again == report)
        .then_some(())
        .ok_or_else(|| "parse_jsonl(write_jsonl(x)) did not reproduce the report bytes".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specs::{parse_scenario, scenario_toml, warmup_of};

    #[test]
    fn traced_reassembly_matches_run_spec_bit_for_bit() {
        // Overload knobs + a hedged strategy: the widest RunResult shape.
        let mut spec = warmup_of(parse_scenario(scenario_toml("sim-overload").unwrap()).unwrap());
        spec.workload.num_tasks = 300;
        let plain = run_untraced(&spec, false).unwrap();
        let mut rec = Recorder::new(true);
        let (traced, facts) = rec
            .span(crate::spans::ROOT, |rec| run_traced(&spec, false, rec))
            .unwrap();
        assert_eq!(plain.report, traced.report);
        assert_eq!(digest(&plain.results), digest(&traced.results));
        assert!(facts.fanout_total > 0 && facts.trace_bytes > 0);
        assert!(facts.bounded_dispatched >= facts.c3_dispatched && facts.c3_dispatched > 0);
        report_round_trips(&plain.report).unwrap();
        assert_eq!(crate::spans::Breakdown::of(rec.spans()).residual_ns(), 0);
    }
}
