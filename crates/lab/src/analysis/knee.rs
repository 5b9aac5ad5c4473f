//! Capacity-knee analysis over a load sweep.
//!
//! For each strategy, walk the swept load axis in ascending order and
//! find the first load where the system stops keeping up — the **knee**:
//! either mean p99 exceeds an SLO (when one is given) or the delivered
//! ratio (completed / offered terminal outcomes) departs from 1 by more
//! than a tolerance. Everything below the knee is safe operating range;
//! the report then projects headroom under conservative / base /
//! aggressive growth multipliers against the current operating load.
//!
//! Output is `brb-lab/capacity-v1` JSONL: a header, then one line per
//! strategy. Key order is the schema, golden-pinned like `compare-v1`.

use super::AnalysisError;
use crate::runner::CellResult;
use crate::spec::ScenarioSpec;
use serde::{Serialize, Value};
use std::io::{self, Write};

/// The schema tag written into every capacity header.
pub const CAPACITY_SCHEMA: &str = "brb-lab/capacity-v1";

/// Capacity-analysis knobs.
#[derive(Debug, Clone)]
pub struct CapacityOptions {
    /// Backend label echoed into the header.
    pub backend: String,
    /// Mean-p99 SLO in milliseconds; `None` disables the latency gate.
    pub slo_p99_ms: Option<f64>,
    /// Max tolerated departure of delivered ratio from 1.0, in percent.
    pub tolerance_pct: f64,
    /// The current operating load headroom is judged against; defaults
    /// to the lowest swept load.
    pub at_load: Option<f64>,
}

impl Default for CapacityOptions {
    fn default() -> Self {
        CapacityOptions {
            backend: "sim".into(),
            slo_p99_ms: None,
            tolerance_pct: 5.0,
            at_load: None,
        }
    }
}

impl CapacityOptions {
    /// Checks the gates: a tolerance that can still fail a load (0 to
    /// under 100 %), a non-negative SLO, and a positive operating load.
    pub fn validate(&self) -> Result<(), AnalysisError> {
        let invalid = |flag, value: f64, expected| {
            Err(AnalysisError::InvalidOption {
                flag,
                value: value.to_string(),
                expected,
            })
        };
        if !(0.0..100.0).contains(&self.tolerance_pct) {
            return invalid(
                "--goodput-tolerance-pct",
                self.tolerance_pct,
                "a percentage in [0, 100)",
            );
        }
        if let Some(slo) = self.slo_p99_ms.filter(|x| !(x.is_finite() && *x >= 0.0)) {
            return invalid("--slo-p99-ms", slo, "a finite, non-negative latency");
        }
        if let Some(load) = self.at_load.filter(|x| !(x.is_finite() && *x > 0.0)) {
            return invalid("--at", load, "a finite, positive load");
        }
        Ok(())
    }
}

/// One strategy's health at one swept load.
#[derive(Debug, Clone)]
pub struct LoadPoint {
    /// The swept load value.
    pub load: f64,
    /// Across-seed mean p99 latency (ms).
    pub p99_ms: f64,
    /// Across-seed mean delivered ratio:
    /// completed / (completed + dropped + timed_out + shed). Reports
    /// without the overload lane deliver everything by construction.
    pub delivered_ratio: f64,
    /// Whether this load passes both gates.
    pub safe: bool,
}

/// One growth-multiplier projection.
#[derive(Debug, Clone)]
pub struct Headroom {
    /// Projection name (`conservative` / `base` / `aggressive`).
    pub name: &'static str,
    /// The growth multiplier applied to the current load.
    pub multiplier: f64,
    /// `current_load × multiplier`.
    pub projected_load: f64,
    /// Whether the projection stays within the safe range.
    pub fits: bool,
}

/// One strategy's capacity line.
#[derive(Debug, Clone)]
pub struct CapacityLine {
    /// Strategy display name.
    pub strategy: String,
    /// First unsafe load, `None` when every swept load is safe.
    pub knee_load: Option<f64>,
    /// Highest safe load below the knee; `None` when even the lowest
    /// swept load is unsafe.
    pub last_safe_load: Option<f64>,
    /// The operating load headroom is judged against.
    pub current_load: f64,
    /// Per-load health, ascending by load.
    pub per_load: Vec<LoadPoint>,
    /// Growth projections against `last_safe_load`.
    pub headroom: Vec<Headroom>,
}

/// A complete capacity report.
#[derive(Debug, Clone)]
pub struct CapacityReport {
    /// Scenario name.
    pub scenario: String,
    /// Backend label.
    pub backend: String,
    /// The SLO gate used, if any.
    pub slo_p99_ms: Option<f64>,
    /// The delivered-ratio tolerance used (percent).
    pub tolerance_pct: f64,
    /// The swept loads, ascending.
    pub loads: Vec<f64>,
    /// Strategy display names, in spec order.
    pub strategies: Vec<String>,
    /// Seeds each strategy ran under.
    pub seeds: Vec<u64>,
    /// The spec that produced the underlying report.
    pub spec: ScenarioSpec,
    /// One line per strategy.
    pub lines: Vec<CapacityLine>,
}

const GROWTH: [(&str, f64); 3] = [("conservative", 1.1), ("base", 1.25), ("aggressive", 1.5)];

/// Builds the capacity analysis over a load-swept scenario's results.
pub fn capacity_report(
    spec: &ScenarioSpec,
    results: &[CellResult],
    opts: &CapacityOptions,
) -> Result<CapacityReport, AnalysisError> {
    opts.validate()?;
    if results.is_empty() {
        return Err(AnalysisError::EmptyReport);
    }
    if spec.sweep.load.is_empty() {
        return Err(AnalysisError::NoLoadAxis);
    }
    let mut loads: Vec<f64> = results.iter().filter_map(|c| c.axes.load).collect();
    loads.sort_by(|a, b| a.total_cmp(b));
    loads.dedup();
    if loads.len() != results.len() {
        return Err(AnalysisError::CapacityGridShape {
            cells: results.len(),
            loads: loads.len(),
        });
    }
    // Cells sorted ascending by load (grid order already is, but the
    // analysis shouldn't depend on it).
    let mut cells: Vec<&CellResult> = results.iter().collect();
    cells.sort_by(|a, b| {
        a.axes
            .load
            .expect("load axis checked above")
            .total_cmp(&b.axes.load.expect("load axis checked above"))
    });
    let strategies: Vec<String> = cells[0]
        .summaries
        .iter()
        .map(|s| s.strategy.clone())
        .collect();
    let current_load = opts.at_load.unwrap_or(loads[0]);

    let mut lines = Vec::with_capacity(strategies.len());
    for strategy in &strategies {
        let mut per_load = Vec::with_capacity(cells.len());
        for cell in &cells {
            let summary = cell
                .summaries
                .iter()
                .find(|s| &s.strategy == strategy)
                .ok_or_else(|| AnalysisError::BackendShapeMismatch {
                    what: format!("strategy {strategy:?} missing from cell {}", cell.index),
                })?;
            let n = summary.runs.len() as f64;
            let p99_ms = summary
                .runs
                .iter()
                .map(|r| r.task_latency_ms.p99)
                .sum::<f64>()
                / n;
            let delivered_ratio = summary
                .runs
                .iter()
                .map(|r| match &r.overload {
                    Some(o) => {
                        let done = r.completed_tasks as f64;
                        let offered = done + (o.dropped + o.timed_out + o.shed) as f64;
                        if offered == 0.0 {
                            1.0
                        } else {
                            done / offered
                        }
                    }
                    // No overload lane: nothing can fail terminally.
                    None => 1.0,
                })
                .sum::<f64>()
                / n;
            let latency_ok = opts.slo_p99_ms.is_none_or(|slo| p99_ms <= slo);
            let ratio_ok = delivered_ratio >= 1.0 - opts.tolerance_pct / 100.0;
            per_load.push(LoadPoint {
                load: cell.axes.load.expect("load axis checked above"),
                p99_ms,
                delivered_ratio,
                safe: latency_ok && ratio_ok,
            });
        }
        let knee_idx = per_load.iter().position(|p| !p.safe);
        let knee_load = knee_idx.map(|i| per_load[i].load);
        let last_safe_load = match knee_idx {
            Some(0) => None,
            Some(i) => Some(per_load[i - 1].load),
            None => Some(per_load.last().expect("non-empty sweep").load),
        };
        let headroom = GROWTH
            .iter()
            .map(|&(name, multiplier)| {
                let projected_load = current_load * multiplier;
                Headroom {
                    name,
                    multiplier,
                    projected_load,
                    fits: last_safe_load
                        .map(|safe| projected_load <= safe + 1e-9)
                        .unwrap_or(false),
                }
            })
            .collect();
        lines.push(CapacityLine {
            strategy: strategy.clone(),
            knee_load,
            last_safe_load,
            current_load,
            per_load,
            headroom,
        });
    }
    Ok(CapacityReport {
        scenario: spec.name.clone(),
        backend: opts.backend.clone(),
        slo_p99_ms: opts.slo_p99_ms,
        tolerance_pct: opts.tolerance_pct,
        loads,
        strategies,
        seeds: spec.seeds.clone(),
        spec: spec.clone(),
        lines,
    })
}

// ---------------------------------------------------------------------------
// capacity-v1 serialization (key order here *is* the schema).
// ---------------------------------------------------------------------------

struct CapacityHeader<'a>(&'a CapacityReport);

impl Serialize for CapacityHeader<'_> {
    fn to_value(&self) -> Value {
        let r = self.0;
        Value::Object(vec![
            ("schema".into(), CAPACITY_SCHEMA.to_value()),
            ("scenario".into(), r.scenario.to_value()),
            ("backend".into(), r.backend.to_value()),
            ("slo_p99_ms".into(), r.slo_p99_ms.to_value()),
            ("tolerance_pct".into(), r.tolerance_pct.to_value()),
            ("loads".into(), r.loads.to_value()),
            ("strategies".into(), r.strategies.to_value()),
            ("seeds".into(), r.seeds.to_value()),
            ("spec".into(), r.spec.to_value()),
        ])
    }
}

impl Serialize for LoadPoint {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("load".into(), self.load.to_value()),
            ("p99_ms".into(), self.p99_ms.to_value()),
            ("delivered_ratio".into(), self.delivered_ratio.to_value()),
            ("safe".into(), self.safe.to_value()),
        ])
    }
}

impl Serialize for Headroom {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("name".into(), self.name.to_value()),
            ("multiplier".into(), self.multiplier.to_value()),
            ("projected_load".into(), self.projected_load.to_value()),
            ("fits".into(), self.fits.to_value()),
        ])
    }
}

impl Serialize for CapacityLine {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("strategy".into(), self.strategy.to_value()),
            ("knee_load".into(), self.knee_load.to_value()),
            ("last_safe_load".into(), self.last_safe_load.to_value()),
            ("current_load".into(), self.current_load.to_value()),
            ("per_load".into(), self.per_load.to_value()),
            ("headroom".into(), self.headroom.to_value()),
        ])
    }
}

impl CapacityReport {
    /// Writes the analysis as `capacity-v1` JSONL.
    pub fn write_jsonl<W: Write>(&self, mut w: W) -> io::Result<()> {
        let render = |v: &dyn Serialize| {
            serde_json::to_string(v)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
        };
        writeln!(w, "{}", render(&CapacityHeader(self))?)?;
        for line in &self.lines {
            writeln!(w, "{}", render(line)?)?;
        }
        Ok(())
    }

    /// The analysis as a single JSONL string.
    pub fn to_jsonl_string(&self) -> String {
        let mut buf = Vec::new();
        self.write_jsonl(&mut buf).expect("in-memory write");
        String::from_utf8(buf).expect("reports are UTF-8")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ScenarioBuilder;
    use crate::runner::run_spec;
    use brb_core::config::Strategy;

    fn load_swept_spec() -> ScenarioSpec {
        ScenarioBuilder::new("capacity-test")
            .tasks(600)
            .scale_catalog(true)
            .strategies(vec![Strategy::c3(), Strategy::equal_max_model()])
            .seeds(&[1, 2])
            .sweep_load(&[0.4, 0.8, 1.2])
            .build()
            .unwrap()
    }

    #[test]
    fn knee_is_first_unsafe_load_under_an_slo() {
        let spec = load_swept_spec();
        let results = run_spec(&spec).unwrap();
        let opts = CapacityOptions {
            // An SLO of 0 fails every load: knee at the first cell.
            slo_p99_ms: Some(0.0),
            ..CapacityOptions::default()
        };
        let report = capacity_report(&spec, &results, &opts).unwrap();
        assert_eq!(report.loads, vec![0.4, 0.8, 1.2]);
        assert_eq!(report.lines.len(), 2);
        for line in &report.lines {
            assert_eq!(line.knee_load, Some(0.4));
            assert_eq!(line.last_safe_load, None);
            assert!(line.headroom.iter().all(|h| !h.fits));
        }
        // A generous SLO passes every load: no knee, full headroom.
        let generous = CapacityOptions {
            slo_p99_ms: Some(1e9),
            ..CapacityOptions::default()
        };
        let report = capacity_report(&spec, &results, &generous).unwrap();
        for line in &report.lines {
            assert_eq!(line.knee_load, None);
            assert_eq!(line.last_safe_load, Some(1.2));
            assert_eq!(line.current_load, 0.4);
            assert!(line.headroom.iter().all(|h| h.fits), "0.4×1.5 ≤ 1.2");
        }
    }

    #[test]
    fn capacity_reruns_are_byte_identical() {
        let spec = load_swept_spec();
        let results = run_spec(&spec).unwrap();
        let opts = CapacityOptions::default();
        let a = capacity_report(&spec, &results, &opts)
            .unwrap()
            .to_jsonl_string();
        let b = capacity_report(&spec, &results, &opts)
            .unwrap()
            .to_jsonl_string();
        assert_eq!(a, b);
        assert!(a.starts_with(&format!("{{\"schema\":\"{CAPACITY_SCHEMA}\"")));
    }

    #[test]
    fn missing_load_axis_is_a_typed_error() {
        let spec = ScenarioBuilder::new("no-load")
            .tasks(400)
            .scale_catalog(true)
            .strategies(vec![Strategy::c3()])
            .seeds(&[1, 2])
            .build()
            .unwrap();
        let results = run_spec(&spec).unwrap();
        assert_eq!(
            capacity_report(&spec, &results, &CapacityOptions::default()).unwrap_err(),
            AnalysisError::NoLoadAxis
        );
    }

    #[test]
    fn extra_sweep_axes_are_a_typed_error() {
        let spec = ScenarioBuilder::new("two-axes")
            .tasks(400)
            .scale_catalog(true)
            .strategies(vec![Strategy::c3()])
            .seeds(&[1, 2])
            .sweep_load(&[0.4, 0.8])
            .sweep_mean_fanout(&[2, 4])
            .build()
            .unwrap();
        let results = run_spec(&spec).unwrap();
        assert_eq!(
            capacity_report(&spec, &results, &CapacityOptions::default()).unwrap_err(),
            AnalysisError::CapacityGridShape { cells: 4, loads: 2 }
        );
    }
}
