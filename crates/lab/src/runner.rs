//! Executes lowered scenarios on the sweep-grid executor
//! ([`brb_core::experiment::run_grid_with`]): the whole grid at once,
//! seed-major, so cells share what they can.

use crate::error::ScenarioError;
use crate::spec::{CellAxes, ScenarioSpec};
use brb_core::experiment::{run_grid_with, worker_count, GridCell, GridStats, StrategySummary};
use brb_workload::taskgen::TaskSpec;
use brb_workload::Trace;

/// The outcome of one grid cell: per-strategy summaries across seeds.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Cell index in grid order.
    pub index: usize,
    /// The axis values the cell ran at.
    pub axes: CellAxes,
    /// One summary per strategy, in spec order.
    pub summaries: Vec<StrategySummary>,
}

/// Runs every cell of a validated spec. The (cell × strategy × seed)
/// runs execute seed-major — each seed's catalog is built once and every
/// cell's trace drawn from it — fanned out across worker threads
/// (`BRB_THREADS` overrides), byte-identical to running each cell on its
/// own, sequentially. Results come back in spec order.
pub fn run_spec(spec: &ScenarioSpec) -> Result<Vec<CellResult>, ScenarioError> {
    run_spec_with_progress(spec, |_, _| {})
}

/// [`run_spec`] with a callback invoked after each (cell × strategy ×
/// seed) run completes, with `(runs_done, total_runs)` — the CLI's
/// progress lines. Counts up by one per call and ends at the total;
/// cells finish together at the end (the last seed completes them all),
/// so runs, not cells, are the unit that advances.
pub fn run_spec_with_progress(
    spec: &ScenarioSpec,
    progress: impl FnMut(usize, usize) + Send,
) -> Result<Vec<CellResult>, ScenarioError> {
    Ok(run_lowered(spec, worker_count(), progress)?.0)
}

/// Lowers `spec` and hands the whole grid to the executor on `threads`
/// workers; also returns what the executor shared.
fn run_lowered(
    spec: &ScenarioSpec,
    threads: usize,
    progress: impl FnMut(usize, usize) + Send,
) -> Result<(Vec<CellResult>, GridStats), ScenarioError> {
    let cells = spec.lower()?;
    let grid: Vec<GridCell<'_>> = cells
        .iter()
        .map(|cell| GridCell {
            base: &cell.base,
            strategies: &cell.strategies,
        })
        .collect();
    let outcome = run_grid_with(&grid, &spec.seeds, threads, retrace(spec), progress)?;
    let results = cells
        .into_iter()
        .zip(outcome.summaries)
        .map(|(cell, summaries)| CellResult {
            index: cell.index,
            axes: cell.axes,
            summaries,
        })
        .collect();
    Ok((results, outcome.stats))
}

/// What each drawn trace becomes before it runs, on either backend:
/// itself, or in replay mode its JSONL round trip.
pub(crate) fn retrace(spec: &ScenarioSpec) -> fn(Vec<TaskSpec>) -> Vec<TaskSpec> {
    if spec.replay {
        through_jsonl
    } else {
        |trace| trace
    }
}

/// Record/replay mode: round-trips a generated trace through the JSONL
/// wire format, so every strategy is driven from replayed bytes — the
/// mode exists to exercise the production-trace path.
fn through_jsonl(tasks: Vec<TaskSpec>) -> Vec<TaskSpec> {
    let trace = Trace::new(tasks);
    let mut buf = Vec::new();
    trace
        .write_jsonl(&mut buf)
        .expect("serialize trace to memory");
    let replayed = Trace::read_jsonl(buf.as_slice()).expect("reparse serialized trace");
    assert_eq!(
        trace.len(),
        replayed.len(),
        "trace changed length through JSONL"
    );
    replayed.tasks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ScenarioBuilder;
    use brb_core::config::Strategy;
    use brb_core::experiment::{run_strategies_multi_seed_sequential, GridError, RunError};

    fn tiny(name: &str) -> ScenarioBuilder {
        ScenarioBuilder::new(name)
            .tasks(800)
            .scale_catalog(true)
            .strategies(vec![Strategy::c3(), Strategy::equal_max_model()])
            .seeds(&[1])
    }

    #[test]
    fn sweep_produces_a_result_per_cell() {
        // Wide load gap + enough tasks that the p99 ordering is not a
        // coin flip at this scale.
        let spec = tiny("sweep")
            .tasks(2_500)
            .sweep_load(&[0.3, 0.8])
            .build()
            .unwrap();
        let results = run_spec(&spec).unwrap();
        assert_eq!(results.len(), 2);
        for (i, cell) in results.iter().enumerate() {
            assert_eq!(cell.index, i);
            assert_eq!(cell.summaries.len(), 2);
            for s in &cell.summaries {
                assert_eq!(s.runs.len(), 1);
                assert!(s.p99_ms.mean >= s.p50_ms.mean);
            }
        }
        // Higher load must not make the tail cheaper.
        assert!(
            results[1].summaries[0].p99_ms.mean > results[0].summaries[0].p99_ms.mean,
            "p99 should grow with load"
        );
    }

    #[test]
    fn replay_mode_matches_generated_mode() {
        // The same scenario with and without the JSONL round trip must
        // produce identical numbers (replay is bit-faithful).
        let direct = run_spec(&tiny("direct").build().unwrap()).unwrap();
        let replayed = run_spec(&tiny("replayed").replay(true).build().unwrap()).unwrap();
        for (d, r) in direct[0].summaries.iter().zip(&replayed[0].summaries) {
            assert_eq!(d.strategy, r.strategy);
            assert_eq!(
                serde_json::to_string(&d.runs).unwrap(),
                serde_json::to_string(&r.runs).unwrap(),
                "replay diverged for {}",
                d.strategy
            );
        }
    }

    fn runs_json(results: &[CellResult]) -> Vec<Vec<String>> {
        results
            .iter()
            .map(|cell| {
                cell.summaries
                    .iter()
                    .flat_map(|s| &s.runs)
                    .map(|r| serde_json::to_string(r).unwrap())
                    .collect()
            })
            .collect()
    }

    /// The grid on 1, 2 and 4 workers against every cell run alone
    /// through the sequential one-cell runner (nothing to share, no
    /// replay round trip): byte for byte. Returns the sharing stats,
    /// which must not depend on the worker count either.
    fn assert_matches_cells_run_alone(spec: &ScenarioSpec) -> GridStats {
        let alone: Vec<Vec<String>> = spec
            .lower()
            .unwrap()
            .iter()
            .map(|cell| {
                run_strategies_multi_seed_sequential(&cell.base, &cell.strategies, &cell.seeds)
                    .iter()
                    .flat_map(|s| &s.runs)
                    .map(|r| serde_json::to_string(r).unwrap())
                    .collect()
            })
            .collect();
        let mut first = None;
        for threads in [1usize, 2, 4] {
            let (results, stats) = run_lowered(spec, threads, |_, _| {}).unwrap();
            assert_eq!(
                runs_json(&results),
                alone,
                "{}: grid diverged from per-cell runs at {threads} threads",
                spec.name
            );
            assert!(stats.peak_live_plans <= threads, "{}: {stats:?}", spec.name);
            let counts = (stats.tables_built, stats.plans_built, stats.traces_drawn);
            let first = first.get_or_insert(counts);
            assert_eq!(counts, *first, "{}: sharing depends on threads", spec.name);
        }
        run_lowered(spec, 1, |_, _| {}).unwrap().1
    }

    #[test]
    fn every_registry_preset_matches_its_cells_run_alone() {
        for preset in crate::registry::names() {
            let spec = ScenarioBuilder::from_spec(crate::registry::spec(preset).unwrap())
                .tasks(300)
                .scale_catalog(true)
                .seeds(&[1, 2])
                .build()
                .unwrap_or_else(|e| panic!("{preset}: {e}"));
            let stats = assert_matches_cells_run_alone(&spec);
            // No preset changes the catalog from cell to cell: one set
            // of tables for the grid, and a catalog per seed unless the
            // workload is synthetic (its plan is the key table alone).
            assert_eq!(stats.tables_built, 1, "{preset}: one set of tables");
            let playlist = matches!(
                spec.lower().unwrap()[0].base.workload.kind,
                brb_core::config::WorkloadKind::Playlist { .. }
            );
            let catalogs = if playlist { 2 } else { 0 };
            assert_eq!(stats.plans_built, catalogs, "{preset}: catalogs");
        }
    }

    #[test]
    fn load_sweep_builds_each_seeds_catalog_once() {
        let spec = tiny("capacity")
            .tasks(400)
            .seeds(&[1, 2])
            .sweep_load(&[0.5, 0.7, 0.85, 0.95, 1.05, 1.15])
            .build()
            .unwrap();
        let stats = assert_matches_cells_run_alone(&spec);
        assert_eq!(
            (stats.tables_built, stats.plans_built),
            (1, 2),
            "6 load cells × 2 seeds: one set of tables, 2 catalogs"
        );
        assert_eq!(stats.traces_drawn, 12);
        assert_eq!(stats.peak_live_plans, 1);
    }

    #[test]
    fn hedge_delay_sweep_draws_one_trace_per_seed() {
        let spec = tiny("hedging")
            .tasks(400)
            .seeds(&[1, 2])
            .strategies(vec![Strategy::c3(), Strategy::hedged_default()])
            .sweep_hedge_delay_us(&[800, 2_000, 20_000])
            .build()
            .unwrap();
        let stats = assert_matches_cells_run_alone(&spec);
        assert_eq!(
            (stats.tables_built, stats.plans_built, stats.traces_drawn),
            (1, 2, 2)
        );
    }

    #[test]
    fn fanout_sweep_lowers_to_synthetic_cells_that_share_only_their_key_table() {
        // A `mean_fanout` axis turns every cell synthetic: sharing must
        // follow the lowered workload, not the spec's playlist section.
        let spec = tiny("fanout")
            .tasks(400)
            .seeds(&[1, 2])
            .sweep_mean_fanout(&[2, 8])
            .sweep_load(&[0.5, 0.8])
            .build()
            .unwrap();
        let stats = assert_matches_cells_run_alone(&spec);
        // The key table depends on neither seed nor fan-out: one for the
        // whole grid, and no catalog at all.
        assert_eq!(
            (stats.tables_built, stats.plans_built),
            (1, 0),
            "one key table, no catalog"
        );
        assert_eq!(stats.traces_drawn, 8, "fan-out and load both redraw");
    }

    #[test]
    fn a_run_with_nothing_to_report_is_a_typed_error_not_a_panic() {
        // `brb-lab run retry-storm --tasks 60000` in miniature: past
        // saturation with a timeout no attempt can meet, no task
        // completes after warm-up and there is no latency to summarize.
        let spec = tiny("hopeless")
            .sweep_load(&[0.5, 0.9])
            .timeouts(crate::spec::TimeoutSpec {
                timeout_us: 10,
                max_retries: 0,
                backoff_base_us: 0,
                backoff_cap_us: 0,
                retry_budget_percent: None,
            })
            .build()
            .unwrap();
        let err = run_spec(&spec).expect_err("nothing completes");
        assert_eq!(
            err,
            ScenarioError::RunFailed(GridError {
                cell: 0,
                strategy: "C3".into(),
                seed: 1,
                cause: RunError::NoMeasuredTasks,
            })
        );
        let text = err.to_string();
        assert!(
            text.contains("cell 0") && text.contains("C3") && text.contains("seed 1"),
            "{text}"
        );
    }

    #[test]
    fn progress_callback_counts_every_run_up_to_the_total() {
        // 3 cells × 2 strategies × 1 seed.
        let spec = tiny("progress")
            .sweep_load(&[0.3, 0.5, 0.7])
            .build()
            .unwrap();
        let mut seen = Vec::new();
        run_spec_with_progress(&spec, |done, total| seen.push((done, total))).unwrap();
        assert_eq!(seen, (1..=6).map(|done| (done, 6)).collect::<Vec<_>>());
    }
}
