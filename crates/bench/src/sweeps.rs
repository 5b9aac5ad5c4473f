//! Ablation sweeps, expressed as declarative `brb-lab` scenarios
//! (`crates/lab/README.md` covers specs and sweep axes).
//!
//! * **Load sweep** — where does task-awareness pay? The gap between BRB
//!   and C3 should widen with load (queueing amplifies ordering choices).
//! * **Fan-out sweep** — the paper's motivation: larger fan-outs are more
//!   tail-sensitive, so BRB's advantage should grow with fan-out.
//! * **Credit-interval sweep** — sensitivity of the credits realization to
//!   the controller's adaptation interval (paper fixes it at 1 s).
//! * **Policy matrix** — every selector × policy × queue-discipline
//!   combination under direct dispatch, isolating each mechanism's
//!   contribution.

use crate::render::Table;
use brb_core::config::{SelectorKind, Strategy};
use brb_core::experiment::StrategySummary;
use brb_lab::runner::run_spec;
use brb_lab::ScenarioBuilder;
use brb_sched::{CreditsConfig, PolicyKind};
use serde::{Deserialize, Serialize};

/// One sweep point: a parameter value and the per-strategy summaries.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepPoint {
    /// The swept parameter's value (e.g. load fraction or fan-out).
    pub x: f64,
    /// Strategy summaries at this point.
    pub summaries: Vec<StrategySummary>,
}

/// The paper cluster/workload at reduced scale, catalog shrunk to match.
fn paper_small(name: &str, num_tasks: usize) -> ScenarioBuilder {
    ScenarioBuilder::new(name)
        .tasks(num_tasks)
        .scale_catalog(true)
}

/// Sweeps offered load for the given strategies.
pub fn load_sweep(
    loads: &[f64],
    strategies: &[Strategy],
    num_tasks: usize,
    seeds: &[u64],
) -> Vec<SweepPoint> {
    let spec = paper_small("load-sweep", num_tasks)
        .strategies(strategies.to_vec())
        .seeds(seeds)
        .sweep_load(loads)
        .build()
        .expect("valid load sweep");
    run_spec(&spec)
        .expect("load sweep runs")
        .into_iter()
        .map(|cell| SweepPoint {
            x: cell.axes.load.expect("load axis value"),
            summaries: cell.summaries,
        })
        .collect()
}

/// Sweeps *mean* task fan-out for the given strategies, keeping the
/// fan-out distribution heterogeneous (shifted geometric). Heterogeneity
/// matters: with every task identical (fixed fan-out) bottlenecks carry
/// no signal and task-aware prioritization degenerates — BRB's gains come
/// from protecting short tasks against long ones.
pub fn fanout_sweep(
    mean_fanouts: &[u32],
    strategies: &[Strategy],
    num_tasks: usize,
    seeds: &[u64],
) -> Vec<SweepPoint> {
    let spec = paper_small("fanout-sweep", num_tasks)
        .strategies(strategies.to_vec())
        .seeds(seeds)
        .sweep_mean_fanout(mean_fanouts)
        .build()
        .expect("valid fan-out sweep");
    run_spec(&spec)
        .expect("fan-out sweep runs")
        .into_iter()
        .map(|cell| SweepPoint {
            x: cell.axes.mean_fanout.expect("fan-out axis value") as f64,
            summaries: cell.summaries,
        })
        .collect()
}

/// Sweeps the credits controller's adaptation interval (seconds).
pub fn credit_interval_sweep(
    intervals_secs: &[f64],
    policy: PolicyKind,
    num_tasks: usize,
    seeds: &[u64],
) -> Vec<SweepPoint> {
    intervals_secs
        .iter()
        .map(|&secs| {
            let credits = CreditsConfig {
                adaptation_interval_ns: (secs * 1e9) as u64,
                ..Default::default()
            };
            let spec = paper_small("credit-interval", num_tasks)
                .strategies(vec![Strategy::Credits { policy, credits }])
                .seeds(seeds)
                .build()
                .expect("valid credit-interval point");
            let mut cells = run_spec(&spec).expect("credit-interval point runs");
            SweepPoint {
                x: secs,
                summaries: cells.remove(0).summaries,
            }
        })
        .collect()
}

/// The direct-dispatch ablation matrix: selectors × policies × queues.
pub fn policy_matrix(num_tasks: usize, seeds: &[u64]) -> Vec<StrategySummary> {
    let mut strategies = Vec::new();
    for selector in [
        SelectorKind::Random,
        SelectorKind::LeastOutstanding,
        SelectorKind::C3,
        SelectorKind::Oracle,
    ] {
        for policy in [PolicyKind::Fifo, PolicyKind::EqualMax, PolicyKind::UnifIncr] {
            strategies.push(Strategy::Direct {
                selector,
                policy,
                priority_queues: policy != PolicyKind::Fifo,
            });
        }
    }
    let spec = paper_small("policy-matrix", num_tasks)
        .strategies(strategies)
        .seeds(seeds)
        .build()
        .expect("valid policy matrix");
    let mut cells = run_spec(&spec).expect("policy matrix runs");
    cells.remove(0).summaries
}

/// Renders a sweep as a table with one row per (x, strategy).
pub fn render_sweep(points: &[SweepPoint], x_label: &str) -> String {
    let mut t = Table::new(vec![
        x_label,
        "strategy",
        "median(ms)",
        "95th(ms)",
        "99th(ms)",
    ]);
    for p in points {
        for s in &p.summaries {
            t.push_row(vec![
                format!("{}", p.x),
                s.strategy.clone(),
                format!("{:.2}", s.p50_ms.mean),
                format!("{:.2}", s.p95_ms.mean),
                format!("{:.2}", s.p99_ms.mean),
            ]);
        }
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_sweep_latency_increases_with_load() {
        let pts = load_sweep(&[0.3, 0.8], &[Strategy::equal_max_model()], 4_000, &[1]);
        assert_eq!(pts.len(), 2);
        let low = pts[0].summaries[0].p99_ms.mean;
        let high = pts[1].summaries[0].p99_ms.mean;
        assert!(high > low, "p99 must grow with load: {low:.2} → {high:.2}");
    }

    #[test]
    fn fanout_sweep_latency_increases_with_fanout() {
        let pts = fanout_sweep(&[1, 32], &[Strategy::c3()], 3_000, &[1]);
        let small = pts[0].summaries[0].p99_ms.mean;
        let large = pts[1].summaries[0].p99_ms.mean;
        assert!(
            large > small,
            "bigger fan-out must hurt the tail: {small:.2} → {large:.2}"
        );
    }

    #[test]
    fn credit_interval_sweep_runs() {
        let pts = credit_interval_sweep(&[0.5, 2.0], PolicyKind::EqualMax, 3_000, &[1]);
        assert_eq!(pts.len(), 2);
        for p in &pts {
            assert_eq!(p.summaries.len(), 1);
            assert!(p.summaries[0].p99_ms.mean > 0.0);
        }
    }

    #[test]
    fn render_sweep_has_row_per_cell() {
        let pts = load_sweep(
            &[0.5],
            &[Strategy::c3(), Strategy::equal_max_model()],
            2_000,
            &[1],
        );
        let s = render_sweep(&pts, "load");
        // Header + separator + 2 rows.
        assert_eq!(s.lines().count(), 4);
    }
}
