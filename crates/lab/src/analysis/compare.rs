//! Paired A/B comparison against a baseline strategy, with significance.
//!
//! For every (cell × non-baseline strategy × metric) the report carries
//! the across-seed means, the paired delta, a Welch t test, and a
//! percentile-bootstrap confidence interval over the per-seed paired
//! differences. The `significant` verdict is the CI excluding zero —
//! with seeds in the single digits, the bootstrap over CRN-paired
//! diffs is the honest instrument; the t statistic rides along for
//! readers who want it.
//!
//! Output is `brb-lab/compare-v1` JSONL: a header echoing everything
//! needed to reproduce the analysis, then one line per
//! (cell × candidate strategy). Key order is the schema, golden-pinned
//! like `report-v1`. Deterministic end to end: the bootstrap streams
//! are seeded from the spec's seed list (see `super::seed_master`).

use super::pairing::{paired_metrics, paired_priority_classes, PairedMetric};
use super::{normalize_name, seed_master, stream_seed, AnalysisError};
use crate::runner::CellResult;
use crate::spec::{CellAxes, ScenarioSpec};
use brb_metrics::stats::{paired_bootstrap_ci, welch_t};
use serde::{Serialize, Value};
use std::io::{self, Write};

/// The schema tag written into every compare header.
pub const COMPARE_SCHEMA: &str = "brb-lab/compare-v1";

/// Analysis knobs (all deterministic).
#[derive(Debug, Clone)]
pub struct CompareOptions {
    /// Backend label echoed into the header (`sim`, `rt`, `both`, or
    /// `file` when ingested).
    pub backend: String,
    /// Bootstrap resamples per (cell × strategy × metric).
    pub resamples: u32,
    /// Confidence level for the bootstrap interval.
    pub confidence: f64,
    /// Attach order-statistic error bars (`quantile_ci`) on the
    /// per-seed quantile metrics of both sides. Additive: off keeps the
    /// output byte-identical to the legacy shape.
    pub quantile_ci: bool,
    /// Attach Benjamini–Hochberg `adjusted_p` over every p-value the
    /// report emits. Additive, like `quantile_ci`.
    pub adjust_p: bool,
}

impl Default for CompareOptions {
    fn default() -> Self {
        CompareOptions {
            backend: "sim".into(),
            resamples: 2_000,
            confidence: 0.95,
            quantile_ci: false,
            adjust_p: false,
        }
    }
}

impl CompareOptions {
    /// Checks the bootstrap knobs: at least one resample, and a
    /// confidence level strictly between 0 and 1.
    pub fn validate(&self) -> Result<(), AnalysisError> {
        if self.resamples == 0 {
            return Err(AnalysisError::InvalidOption {
                flag: "--resamples",
                value: self.resamples.to_string(),
                expected: "at least 1",
            });
        }
        if !(self.confidence > 0.0 && self.confidence < 1.0) {
            return Err(AnalysisError::InvalidOption {
                flag: "--confidence",
                value: self.confidence.to_string(),
                expected: "strictly between 0 and 1",
            });
        }
        Ok(())
    }
}

/// Order-statistic error bars on one metric, both sides: the
/// distribution-free CI over the per-seed values
/// ([`brb_metrics::quantile_ci`] at q = 0.5 — the across-seed central
/// value of the per-seed quantile estimates).
#[derive(Debug, Clone, Copy)]
pub struct QuantileBands {
    /// Baseline per-seed CI, low bound.
    pub baseline_ci_lo: f64,
    /// Baseline per-seed CI, high bound.
    pub baseline_ci_hi: f64,
    /// Candidate per-seed CI, low bound.
    pub ci_lo: f64,
    /// Candidate per-seed CI, high bound.
    pub ci_hi: f64,
}

/// One metric's delta vs the baseline.
#[derive(Debug, Clone)]
pub struct MetricDelta {
    /// Metric name (a `report-v1` summary key).
    pub metric: &'static str,
    /// Baseline across-seed mean.
    pub baseline_mean: f64,
    /// Candidate across-seed mean.
    pub mean: f64,
    /// Mean paired difference, candidate − baseline.
    pub delta: f64,
    /// `delta` as a percentage of the baseline mean (0 on a zero base).
    pub delta_pct: f64,
    /// Welch t statistic (candidate vs baseline).
    pub t: f64,
    /// Welch–Satterthwaite degrees of freedom.
    pub df: f64,
    /// Two-sided p-value.
    pub p: f64,
    /// Bootstrap CI lower bound on the paired delta.
    pub ci_lo: f64,
    /// Bootstrap CI upper bound on the paired delta.
    pub ci_hi: f64,
    /// Whether the CI excludes zero.
    pub significant: bool,
    /// Benjamini–Hochberg FDR-adjusted p over the whole report's family
    /// of tests. `Some` only under `--adjust-p` (additive key).
    pub adjusted_p: Option<f64>,
    /// Per-strategy error bars on the quantile metrics. `Some` only
    /// under `--quantile-ci` (additive key) and only for metrics that
    /// are quantiles (p50/p95/p99).
    pub quantile_ci: Option<QuantileBands>,
}

/// One priority class's starvation delta vs the baseline
/// (dropped + shed counts, mean across seeds).
#[derive(Debug, Clone)]
pub struct ClassDelta {
    /// log₂ bucket of the priority key.
    pub class: u8,
    /// Baseline mean dropped+shed of this class.
    pub baseline_mean: f64,
    /// Candidate mean dropped+shed of this class.
    pub mean: f64,
    /// Mean paired difference, candidate − baseline.
    pub delta: f64,
}

/// One (cell × candidate strategy) comparison record.
#[derive(Debug, Clone)]
pub struct CompareLine {
    /// Cell index in grid order.
    pub cell: usize,
    /// The axis values the cell ran at.
    pub axes: CellAxes,
    /// Candidate strategy display name.
    pub strategy: String,
    /// Per-metric deltas, in metric order.
    pub deltas: Vec<MetricDelta>,
    /// Per-priority-class starvation deltas; `None` unless both sides
    /// carried the `priority_classes` split.
    pub priority_classes: Option<Vec<ClassDelta>>,
}

/// A complete comparison: header fields plus one line per
/// (cell × candidate).
#[derive(Debug, Clone)]
pub struct CompareReport {
    /// Scenario name.
    pub scenario: String,
    /// Resolved baseline strategy display name.
    pub baseline: String,
    /// Backend label.
    pub backend: String,
    /// Strategy display names (baseline included), in spec order.
    pub strategies: Vec<String>,
    /// Seeds each strategy ran under.
    pub seeds: Vec<u64>,
    /// Metric names compared, in line order.
    pub metrics: Vec<&'static str>,
    /// Bootstrap resamples used.
    pub resamples: u32,
    /// Confidence level used.
    pub confidence: f64,
    /// The spec that produced the underlying report.
    pub spec: ScenarioSpec,
    /// Comparison records, cell-major then spec strategy order.
    pub lines: Vec<CompareLine>,
}

/// Resolves a user-supplied baseline name against the report's strategy
/// set (normalized matching: `random_fifo` finds `random+FIFO`).
pub fn resolve_baseline(name: &str, strategies: &[String]) -> Result<String, AnalysisError> {
    let want = normalize_name(name);
    strategies
        .iter()
        .find(|s| normalize_name(s) == want)
        .cloned()
        .ok_or_else(|| AnalysisError::UnknownBaseline {
            name: name.to_string(),
            available: strategies.to_vec(),
        })
}

/// Builds the comparison over a scenario's results.
pub fn compare_report(
    spec: &ScenarioSpec,
    results: &[CellResult],
    baseline: &str,
    opts: &CompareOptions,
) -> Result<CompareReport, AnalysisError> {
    opts.validate()?;
    if results.is_empty() {
        return Err(AnalysisError::EmptyReport);
    }
    if spec.seeds.len() < 2 {
        return Err(AnalysisError::TooFewSeeds {
            seeds: spec.seeds.len(),
        });
    }
    let strategies: Vec<String> = results[0]
        .summaries
        .iter()
        .map(|s| s.strategy.clone())
        .collect();
    let baseline = resolve_baseline(baseline, &strategies)?;
    let master = seed_master(&spec.seeds);
    let mut metrics: Vec<&'static str> = Vec::new();
    let mut lines = Vec::new();
    for cell in results {
        let base = cell
            .summaries
            .iter()
            .find(|s| s.strategy == baseline)
            .ok_or_else(|| AnalysisError::BackendShapeMismatch {
                what: format!("baseline {baseline:?} missing from cell {}", cell.index),
            })?;
        for candidate in cell.summaries.iter().filter(|s| s.strategy != baseline) {
            let paired = paired_metrics(base, candidate, &spec.seeds, cell.index)?;
            if metrics.is_empty() {
                metrics = paired.iter().map(|m| m.metric).collect();
            }
            let deltas = paired
                .iter()
                .map(|m| metric_delta(m, master, cell.index, &candidate.strategy, opts))
                .collect();
            let priority_classes = paired_priority_classes(base, candidate).map(|classes| {
                classes
                    .into_iter()
                    .map(|c| {
                        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
                        let (bm, cm) = (mean(&c.baseline), mean(&c.candidate));
                        ClassDelta {
                            class: c.class,
                            baseline_mean: bm,
                            mean: cm,
                            delta: cm - bm,
                        }
                    })
                    .collect()
            });
            lines.push(CompareLine {
                cell: cell.index,
                axes: cell.axes,
                strategy: candidate.strategy.clone(),
                deltas,
                priority_classes,
            });
        }
    }
    if opts.adjust_p {
        // One family per report: every (cell × strategy × metric) test
        // the reader sees is one multiple-comparison opportunity, so
        // they are adjusted together, in emission order (deterministic).
        let family: Vec<f64> = lines
            .iter()
            .flat_map(|l| l.deltas.iter().map(|d| d.p))
            .collect();
        let adjusted = brb_metrics::benjamini_hochberg(&family);
        let mut it = adjusted.into_iter();
        for line in &mut lines {
            for d in &mut line.deltas {
                d.adjusted_p = it.next();
            }
        }
    }
    Ok(CompareReport {
        scenario: spec.name.clone(),
        baseline,
        backend: opts.backend.clone(),
        strategies,
        seeds: spec.seeds.clone(),
        metrics,
        resamples: opts.resamples,
        confidence: opts.confidence,
        spec: spec.clone(),
        lines,
    })
}

fn metric_delta(
    m: &PairedMetric,
    master: u64,
    cell: usize,
    strategy: &str,
    opts: &CompareOptions,
) -> MetricDelta {
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let (baseline_mean, candidate_mean) = (mean(&m.baseline), mean(&m.candidate));
    let diffs = m.diffs();
    let delta = mean(&diffs);
    // seeds ≥ 2 and the options are checked up front, so both inference
    // calls succeed.
    let w = welch_t(&m.candidate, &m.baseline).expect("n >= 2 on both sides");
    let label = format!("cell{cell}/{strategy}/{}", m.metric);
    let ci = paired_bootstrap_ci(
        &diffs,
        opts.resamples,
        opts.confidence,
        stream_seed(master, &label),
    )
    .expect("non-empty diffs, valid confidence");
    MetricDelta {
        metric: m.metric,
        baseline_mean,
        mean: candidate_mean,
        delta,
        delta_pct: if baseline_mean == 0.0 {
            0.0
        } else {
            100.0 * delta / baseline_mean
        },
        t: w.t,
        df: w.df,
        p: w.p,
        ci_lo: ci.lo,
        ci_hi: ci.hi,
        significant: ci.excludes_zero(),
        // Filled by the family-wide Benjamini–Hochberg pass (if enabled)
        // once every line's raw p is known.
        adjusted_p: None,
        quantile_ci: quantile_bands(m, opts),
    }
}

/// Order-statistic CI on the per-seed quantile values themselves — the
/// error bar a reader should draw around each side's mean before trusting
/// a delta. Only the quantile metrics get bands; the seed-level values
/// for `mean_ms`/`goodput` are not order statistics, so a median band
/// over them would answer a different question.
fn quantile_bands(m: &PairedMetric, opts: &CompareOptions) -> Option<QuantileBands> {
    if !opts.quantile_ci || !matches!(m.metric, "p50_ms" | "p95_ms" | "p99_ms") {
        return None;
    }
    let band = |values: &[f64]| {
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        brb_metrics::quantile_ci(&sorted, 0.5, opts.confidence)
    };
    let (b_lo, b_hi) = band(&m.baseline)?;
    let (c_lo, c_hi) = band(&m.candidate)?;
    Some(QuantileBands {
        baseline_ci_lo: b_lo,
        baseline_ci_hi: b_hi,
        ci_lo: c_lo,
        ci_hi: c_hi,
    })
}

// ---------------------------------------------------------------------------
// compare-v1 serialization (key order here *is* the schema).
// ---------------------------------------------------------------------------

struct CompareHeader<'a>(&'a CompareReport);

impl Serialize for CompareHeader<'_> {
    fn to_value(&self) -> Value {
        let r = self.0;
        Value::Object(vec![
            ("schema".into(), COMPARE_SCHEMA.to_value()),
            ("scenario".into(), r.scenario.to_value()),
            ("baseline".into(), r.baseline.to_value()),
            ("backend".into(), r.backend.to_value()),
            ("cells".into(), r.spec.sweep.num_cells().to_value()),
            ("strategies".into(), r.strategies.to_value()),
            ("seeds".into(), r.seeds.to_value()),
            (
                "metrics".into(),
                Value::Array(r.metrics.iter().map(|m| m.to_value()).collect()),
            ),
            ("resamples".into(), r.resamples.to_value()),
            ("confidence".into(), r.confidence.to_value()),
            ("spec".into(), r.spec.to_value()),
        ])
    }
}

impl Serialize for MetricDelta {
    fn to_value(&self) -> Value {
        let mut entries = vec![
            ("baseline_mean".into(), self.baseline_mean.to_value()),
            ("mean".into(), self.mean.to_value()),
            ("delta".into(), self.delta.to_value()),
            ("delta_pct".into(), self.delta_pct.to_value()),
            ("t".into(), self.t.to_value()),
            ("df".into(), self.df.to_value()),
            ("p".into(), self.p.to_value()),
            ("ci_lo".into(), self.ci_lo.to_value()),
            ("ci_hi".into(), self.ci_hi.to_value()),
            ("significant".into(), self.significant.to_value()),
        ];
        // Opt-in keys append *after* the pinned compare-v1 set so
        // knobs-off output stays byte-identical.
        if let Some(p) = self.adjusted_p {
            entries.push(("adjusted_p".into(), p.to_value()));
        }
        if let Some(q) = &self.quantile_ci {
            entries.push((
                "quantile_ci".into(),
                Value::Object(vec![
                    ("baseline_ci_lo".into(), q.baseline_ci_lo.to_value()),
                    ("baseline_ci_hi".into(), q.baseline_ci_hi.to_value()),
                    ("ci_lo".into(), q.ci_lo.to_value()),
                    ("ci_hi".into(), q.ci_hi.to_value()),
                ]),
            ));
        }
        Value::Object(entries)
    }
}

impl Serialize for ClassDelta {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("class".into(), self.class.to_value()),
            ("baseline_mean".into(), self.baseline_mean.to_value()),
            ("mean".into(), self.mean.to_value()),
            ("delta".into(), self.delta.to_value()),
        ])
    }
}

impl Serialize for CompareLine {
    fn to_value(&self) -> Value {
        let deltas = Value::Object(
            self.deltas
                .iter()
                .map(|d| (d.metric.to_string(), d.to_value()))
                .collect(),
        );
        let mut entries = vec![
            ("cell".into(), self.cell.to_value()),
            ("axes".into(), self.axes.to_value()),
            ("strategy".into(), self.strategy.to_value()),
            ("deltas".into(), deltas),
        ];
        // Additive, like the report's own priority_classes block.
        if let Some(pc) = &self.priority_classes {
            entries.push(("priority_classes".into(), pc.to_value()));
        }
        Value::Object(entries)
    }
}

impl CompareReport {
    /// Writes the comparison as `compare-v1` JSONL.
    pub fn write_jsonl<W: Write>(&self, mut w: W) -> io::Result<()> {
        let render = |v: &dyn Serialize| {
            serde_json::to_string(v)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
        };
        writeln!(w, "{}", render(&CompareHeader(self))?)?;
        for line in &self.lines {
            writeln!(w, "{}", render(line)?)?;
        }
        Ok(())
    }

    /// The comparison as a single JSONL string.
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
    use brb_core::config::{SelectorKind, Strategy};
    use brb_sched::PolicyKind;

    fn two_strategy_spec(seeds: &[u64]) -> ScenarioSpec {
        ScenarioBuilder::new("compare-test")
            .tasks(600)
            .scale_catalog(true)
            .strategies(vec![
                Strategy::Direct {
                    selector: SelectorKind::Random,
                    policy: PolicyKind::Fifo,
                    priority_queues: false,
                },
                Strategy::c3(),
            ])
            .seeds(seeds)
            .build()
            .unwrap()
    }

    #[test]
    fn compare_produces_one_line_per_candidate_and_is_deterministic() {
        let spec = two_strategy_spec(&[1, 2]);
        let results = run_spec(&spec).unwrap();
        let opts = CompareOptions::default();
        let report = compare_report(&spec, &results, "random_fifo", &opts).unwrap();
        assert_eq!(report.baseline, "random+FIFO");
        assert_eq!(report.lines.len(), 1);
        assert_eq!(report.lines[0].strategy, "C3");
        assert_eq!(report.metrics, ["p50_ms", "p95_ms", "p99_ms", "mean_ms"]);
        let text = report.to_jsonl_string();
        // Byte-identical rerun: same spec + results + options.
        let again = compare_report(&spec, &results, "random_fifo", &opts).unwrap();
        assert_eq!(again.to_jsonl_string(), text);
        assert!(text.starts_with(&format!("{{\"schema\":\"{COMPARE_SCHEMA}\"")));
    }

    #[test]
    fn self_comparison_under_crn_is_all_zero_with_ci_containing_zero() {
        // The CRN sanity property: a strategy against itself has
        // identical per-seed values, so every paired delta is exactly 0
        // and every bootstrap CI is the degenerate [0, 0] — containing
        // zero, never "significant".
        let spec = ScenarioBuilder::new("self-compare")
            .tasks(600)
            .scale_catalog(true)
            .strategies(vec![Strategy::c3(), Strategy::equal_max_model()])
            .seeds(&[1, 2, 3])
            .build()
            .unwrap();
        let mut results = run_spec(&spec).unwrap();
        // Duplicate C3's summary under a distinct display name so the
        // comparison machinery treats it as a candidate.
        let mut clone = results[0].summaries[0].clone();
        clone.strategy = "C3-clone".into();
        for r in &mut clone.runs {
            r.strategy = "C3-clone".into();
        }
        results[0].summaries.push(clone);
        let report = compare_report(&spec, &results, "c3", &CompareOptions::default()).unwrap();
        let line = report
            .lines
            .iter()
            .find(|l| l.strategy == "C3-clone")
            .expect("clone compared");
        for d in &line.deltas {
            assert_eq!(d.delta, 0.0, "{}", d.metric);
            assert_eq!((d.ci_lo, d.ci_hi), (0.0, 0.0), "{}", d.metric);
            assert!(!d.significant, "{}", d.metric);
            assert_eq!(d.t, 0.0, "{}", d.metric);
            assert_eq!(d.p, 1.0, "{}", d.metric);
        }
    }

    #[test]
    fn single_seed_reports_refuse_significance_typed() {
        let spec = two_strategy_spec(&[1]);
        let results = run_spec(&spec).unwrap();
        assert_eq!(
            compare_report(&spec, &results, "c3", &CompareOptions::default()).unwrap_err(),
            AnalysisError::TooFewSeeds { seeds: 1 }
        );
    }

    #[test]
    fn unknown_baseline_lists_alternatives() {
        let spec = two_strategy_spec(&[1, 2]);
        let results = run_spec(&spec).unwrap();
        match compare_report(&spec, &results, "nope", &CompareOptions::default()) {
            Err(AnalysisError::UnknownBaseline { name, available }) => {
                assert_eq!(name, "nope");
                assert_eq!(available, vec!["random+FIFO".to_string(), "C3".to_string()]);
            }
            other => panic!("expected UnknownBaseline, got {other:?}"),
        }
    }
}
