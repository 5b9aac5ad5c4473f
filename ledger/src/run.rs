//! One workload, one process: set-up, timed repeats, output checks,
//! and the metrics line the driver reads.
//!
//! Run shape (all workloads): set up five times (spec parse +
//! validate + a discarded 1/20-size warm-up; `setup_s` is the median),
//! then execute the timed section until `--seconds` is used up — never
//! fewer than [`MIN_REPEATS`] times — and report the best quartile of
//! each metric over the repeats (see [`Summary`]). A traced run alternates untraced and traced
//! sections in the same process, so the tracing overhead and the
//! digest agreement between the two paths are measured, not assumed.

use crate::catalog::{END_TO_END, PER_LAYER, SPAN_LAYERS};
use crate::host::{self, Provenance};
use crate::probes::{timer_overshoot_us, TraceCosts, UnitCosts};
use crate::rt::{self, FloorInputs, FloorTimings};
use crate::sim::{self, SimFacts};
use crate::spans::{Breakdown, Recorder, ROOT};
use crate::specs::{self, FloorSpec, DEFAULT_SEED};
use crate::stats::{median_or_zero, p99_is_supported, Summary};
use brb_core::config::{SelectorKind, Strategy};
use brb_core::experiment::RunResult;
use brb_lab::{CellResult, ScenarioSpec};
use brb_sched::PolicyKind;
use serde::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// Timed sections per run, at least.
pub const MIN_REPEATS: usize = 3;
/// Untraced/traced pairs per traced run, at least.
const MIN_TRACED_PAIRS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// The committed per-seed result digests and the data the bounds in
/// `BENCHMARK.json` were derived from.
const BASELINE: &str = include_str!("../baseline.json");

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

/// What one run hands back: the driver's result line plus the detail
/// the human-readable printers use.
#[derive(Debug)]
pub struct RunReport {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in `BENCHMARK.json` order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Best quartile, median, min and max over repeats of the end-to-end
    /// metrics that are measured per repeat.
    pub repeats: BTreeMap<&'static str, Summary>,
    pub p99_samples: u64,
    /// Per-section result digests (simulator workloads), section order.
    pub digests: Vec<u64>,
    pub problems: Vec<String>,
    pub provenance: Provenance,
    /// Traced runs only: where traced wall time went.
    pub breakdown: Option<Breakdown>,
}

/// One timed section's outcome, whatever the workload.
#[derive(Debug, Default)]
struct Section {
    wall_s: f64,
    /// Seconds the completed tasks are divided by (`tasks_per_s`).
    work_s: f64,
    issued: u64,
    completed: u64,
    /// Dropped + timed out + shed: refused by design under overload.
    refused: u64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    /// Samples behind the percentiles of the run that had the fewest.
    p99_samples: u64,
    digest: Option<u64>,
    /// Simulation events executed (simulator workloads).
    events: u64,
    problems: Vec<String>,
    /// Per-layer values this section measured directly.
    layer: BTreeMap<&'static str, f64>,
    /// What a traced simulator section read off the engine worlds.
    facts: Option<SimFacts>,
}

/// A prepared workload: what set-up produces and a timed section runs.
enum Prepared {
    /// `sim-figure2`, `sim-overload`, `lab-capacity-sweep`.
    Sim { spec: ScenarioSpec, analysis: bool },
    /// `rt-steady`, `rt-overload`.
    RtReport { spec: ScenarioSpec },
    RtFloor {
        spec: FloorSpec,
        timings: FloorTimings,
    },
}

fn is_sim(workload: &str) -> bool {
    matches!(
        workload,
        "sim-figure2" | "sim-overload" | "lab-capacity-sweep"
    )
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0u32), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// The part of a section every `report-v1` result set fills the same
/// way, plus the per-run conservation check both backends must pass.
fn section_from_results(spec: &ScenarioSpec, results: &[CellResult]) -> Section {
    let mut s = Section {
        p99_samples: u64::MAX,
        ..Section::default()
    };
    let per_run = spec.workload.num_tasks as u64;
    for run in sim::runs(results) {
        let (dropped, timed_out, shed) = run
            .overload
            .map_or((0, 0, 0), |o| (o.dropped, o.timed_out, o.shed));
        let refused = dropped + timed_out + shed;
        if run.completed_tasks as u64 + refused != per_run {
            s.problems.push(format!(
                "conservation broken in {} seed {}: {} completed + {dropped} dropped + {timed_out} timed out + {shed} shed != {per_run} issued",
                run.strategy, run.seed, run.completed_tasks
            ));
        }
        s.issued += per_run;
        s.events += run.events;
        s.completed += run.completed_tasks as u64;
        s.refused += refused;
        s.p99_samples = s.p99_samples.min(run.task_latency_ms.count);
    }
    // Median over the section's runs, not their mean: a saturated cell
    // (a C3 p99 of 100–400 ms past 1.0x load, swinging 2x seed to seed)
    // would own a mean; per-strategy tails are per-layer metrics.
    let over_runs =
        |f: fn(&RunResult) -> f64| median_or_zero(&sim::runs(results).map(f).collect::<Vec<_>>());
    s.p50_ms = over_runs(|r| r.task_latency_ms.p50);
    s.p95_ms = over_runs(|r| r.task_latency_ms.p95);
    s.p99_ms = over_runs(|r| r.task_latency_ms.p99);
    s
}

fn sum(results: &[CellResult], f: impl Fn(&RunResult) -> u64) -> f64 {
    sim::runs(results).map(f).sum::<u64>() as f64
}

fn mean_p99_of(results: &[CellResult], strategy: &Strategy) -> f64 {
    let name = strategy.name();
    mean(
        sim::runs(results)
            .filter(|r| r.strategy == name)
            .map(|r| r.task_latency_ms.p99),
    )
}

/// The `core.*` counts a simulator result set and the traced worlds
/// give: exact per seed, so any change is a behaviour change.
fn sim_layer_counts(results: &[CellResult], facts: &SimFacts) -> BTreeMap<&'static str, f64> {
    let credits_secs: f64 = sim::runs(results)
        .filter(|r| r.strategy.ends_with("Credits"))
        .map(|r| r.sim_secs)
        .sum();
    let adaptation_secs = brb_sched::CreditsConfig::default().adaptation_interval_ns as f64 / 1e9;
    let dispatched = sum(results, |r| r.dispatched);
    BTreeMap::from([
        ("core.events", sum(results, |r| r.events)),
        ("core.dispatched", dispatched),
        (
            "core.dispatch_amplification",
            dispatched / facts.fanout_total.max(1) as f64,
        ),
        ("core.timeouts_fired", facts.timeouts_fired as f64),
        ("core.retries_issued", facts.retries_issued as f64),
        ("core.requests_dropped", facts.requests_dropped as f64),
        ("core.hedges_issued", sum(results, |r| r.hedges_issued)),
        (
            "core.duplicate_responses",
            sum(results, |r| r.duplicate_responses),
        ),
        ("core.sim_p99_ms.c3", mean_p99_of(results, &Strategy::c3())),
        (
            "core.sim_p99_ms.brb",
            mean_p99_of(results, &Strategy::equal_max_credits()),
        ),
        (
            "sched.credits_epochs",
            (credits_secs / adaptation_secs).floor(),
        ),
        (
            "workload.trace_mb",
            facts.trace_bytes as f64 / (1024.0 * 1024.0),
        ),
    ])
}

/// What the live report says about one open-loop section.
fn rt_layer_counts(
    spec: &ScenarioSpec,
    results: &[CellResult],
    cpu_s: f64,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let cell = spec
        .lower()
        .map_err(|e| e.to_string())?
        .into_iter()
        .next()
        .ok_or("spec lowered to no cells")?;
    let scheduled_s =
        cell.base.workload.num_tasks as f64 / cell.base.workload.task_rate(&cell.base.cluster);
    let overload =
        |f: fn(&brb_core::OverloadStats) -> u64| sum(results, |r| r.overload.as_ref().map_or(0, f));
    Ok(BTreeMap::from([
        (
            "rt.util_over_offered",
            mean(sim::runs(results).map(|r| r.utilization)) / spec.workload.load,
        ),
        (
            "rt.run_over_schedule_ms",
            mean(sim::runs(results).map(|r| (r.sim_secs - scheduled_s) * 1e3)),
        ),
        (
            "rt.request_p99_ms",
            mean(sim::runs(results).map(|r| r.request_latency_ms.p99)),
        ),
        ("rt.demand_reports", sum(results, |r| r.demand_reports)),
        (
            "rt.congestion_signals",
            sum(results, |r| r.congestion_signals),
        ),
        ("rt.retries", overload(|o| o.retries)),
        ("rt.dropped", overload(|o| o.dropped)),
        ("rt.timed_out", overload(|o| o.timed_out)),
        ("rt.shed", overload(|o| o.shed)),
        ("rt.cpu_s", cpu_s),
    ]))
}

impl Prepared {
    /// One complete set-up: parse the committed spec, validate it, and
    /// run the discarded warm-up on section 0's inputs. Returns the
    /// prepared workload and the seconds the spec parse alone took.
    fn set_up(args: &RunArgs) -> Result<(Prepared, f64), String> {
        let shift = specs::seed_shift(args.seed, 0);
        let parse_start = Instant::now();
        if let Some(text) = specs::scenario_toml(&args.workload) {
            let spec = specs::parse_scenario(text)?;
            let parse_s = parse_start.elapsed().as_secs_f64();
            let spec = if args.quick {
                specs::quick_of(spec)
            } else {
                spec
            };
            spec.validate().map_err(|e| e.to_string())?;
            let warm = specs::shifted(specs::warmup_of(spec.clone()), shift);
            let prepared = if is_sim(&args.workload) {
                let analysis = args.workload == "lab-capacity-sweep";
                sim::run_untraced(&warm, analysis)?;
                Prepared::Sim { spec, analysis }
            } else {
                rt::run_report(&warm, &mut Recorder::new(false))?;
                Prepared::RtReport { spec }
            };
            return Ok((prepared, parse_s));
        }
        if args.workload != "rt-floor" {
            return Err(format!("unknown workload {:?}", args.workload));
        }
        let spec = FloorSpec::committed()?;
        let parse_s = parse_start.elapsed().as_secs_f64();
        let spec = if args.quick {
            let tasks = specs::shrunk_tasks(spec.tasks, 10);
            spec.with_tasks(tasks)
        } else {
            spec
        };
        spec.validate()?;
        let warm = spec
            .clone()
            .with_tasks(specs::shrunk_tasks(spec.tasks, 20))
            .shifted(shift);
        rt::run_floor(
            &warm,
            &FloorInputs::generate(&warm),
            &mut Recorder::new(false),
            None,
        )?;
        Ok((
            Prepared::RtFloor {
                spec,
                timings: FloorTimings::new(),
            },
            parse_s,
        ))
    }

    /// One timed section: the root span (and `wall_s`) covers the calls
    /// into the product and nothing else — digests, round trips and
    /// bookkeeping happen after the clock stops, inputs are derived from
    /// the shifted seeds before it starts. `traced` sections record
    /// spans and fill `Section::layer`.
    fn section(&mut self, rec: &mut Recorder, traced: bool, shift: u64) -> Result<Section, String> {
        match self {
            Prepared::Sim { spec, analysis } => {
                let spec = &specs::shifted(spec.clone(), shift);
                let start = Instant::now();
                let (out, facts) = rec.span(ROOT, |rec| -> Result<_, String> {
                    if traced {
                        let (out, facts) = sim::run_traced(spec, *analysis, rec)?;
                        Ok((out, Some(facts)))
                    } else {
                        Ok((sim::run_untraced(spec, *analysis)?, None))
                    }
                })?;
                let wall_s = start.elapsed().as_secs_f64();
                let mut s = section_from_results(spec, &out.results);
                s.wall_s = wall_s;
                s.digest = Some(sim::digest(&out.results));
                if let Some(facts) = facts {
                    s.layer = sim_layer_counts(&out.results, &facts);
                    s.layer.insert("lab.report_bytes", out.report.len() as f64);
                    s.facts = Some(facts);
                }
                // Checked on every section; cheap next to the run.
                if let Err(e) = sim::report_round_trips(&out.report) {
                    s.problems.push(e);
                }
                Ok(s)
            }
            Prepared::RtReport { spec } => {
                let spec = &specs::shifted(spec.clone(), shift);
                let start = Instant::now();
                let out = rec.span(ROOT, |rec| rt::run_report(spec, rec))?;
                let wall_s = start.elapsed().as_secs_f64();
                let mut s = section_from_results(spec, &out.results);
                s.wall_s = wall_s;
                // Goodput is per second of the load run, not of cluster
                // start-up and shutdown.
                s.work_s = sim::runs(&out.results).map(|r| r.sim_secs).sum();
                if traced {
                    s.layer = rt_layer_counts(spec, &out.results, out.cpu_s)?;
                    s.layer.insert("rt.task_p99_ms", s.p99_ms);
                    s.layer.insert("lab.report_bytes", out.report.len() as f64);
                }
                if let Err(e) = sim::report_round_trips(&out.report) {
                    s.problems.push(e);
                }
                Ok(s)
            }
            Prepared::RtFloor { spec, timings } => {
                let spec = &spec.clone().shifted(shift);
                let inputs = FloorInputs::generate(spec);
                let start = Instant::now();
                let out = rec.span(ROOT, |rec| {
                    rt::run_floor(spec, &inputs, rec, traced.then_some(timings))
                })?;
                let wall_s = start.elapsed().as_secs_f64();
                let mut s = Section {
                    wall_s,
                    work_s: out.load_s,
                    issued: out.issued,
                    completed: out.completed,
                    p50_ms: out.task_ns.value_at_percentile(50.0) as f64 / 1e6,
                    p95_ms: out.task_ns.value_at_percentile(95.0) as f64 / 1e6,
                    p99_ms: out.task_ns.value_at_percentile(99.0) as f64 / 1e6,
                    p99_samples: out.task_ns.len(),
                    ..Section::default()
                };
                if out.wrong_values > 0 {
                    s.problems.push(format!(
                        "{} tasks came back without the populated value sizes",
                        out.wrong_values
                    ));
                }
                if traced {
                    let requests = out.requests.max(1) as f64;
                    let served_mean = out.served_per_server.iter().sum::<u64>() as f64
                        / out.served_per_server.len() as f64;
                    let served_max = out.served_per_server.iter().copied().max().unwrap_or(0);
                    s.layer = BTreeMap::from([
                        ("rt.cpu_us_per_request", out.load_cpu_s * 1e6 / requests),
                        (
                            "rt.ctx_switches_per_request",
                            out.load_ctx_switches as f64 / requests,
                        ),
                        ("rt.served_imbalance", served_max as f64 / served_mean),
                        ("rt.task_p99_ms", s.p99_ms),
                    ]);
                }
                Ok(s)
            }
        }
    }
}

fn baseline() -> Value {
    serde_json::from_str(BASELINE).expect("baseline.json parses")
}

/// The digests `baseline.json` commits for `workload`: one per timed
/// section of a default-seed run, in section order.
fn baseline_digests(workload: &str) -> Option<Vec<u64>> {
    let doc = baseline();
    let Value::Array(items) = doc.get("digests")?.get(workload)? else {
        return None;
    };
    items
        .iter()
        .map(|item| match item {
            Value::Str(hex) => u64::from_str_radix(hex.trim_start_matches("0x"), 16).ok(),
            _ => None,
        })
        .collect()
}

/// The bound `baseline.json` records for an end-to-end metric.
pub fn baseline_bound(metric: &str) -> Option<f64> {
    baseline()
        .get("bounds")?
        .get(metric)
        .and_then(crate::manifest::as_f64)
}

/// Estimated shares of `core.run` per layer: exact counts × unit costs.
/// Returns `(metric, share)` pairs and the unattributed remainder.
fn estimate_shares(
    counts: &BTreeMap<&'static str, f64>,
    facts: &SimFacts,
    tasks: u64,
    unit: &UnitCosts,
    c3_extra_ns: f64,
    run_s: f64,
) -> Vec<(&'static str, f64)> {
    let get = |k: &str| counts.get(k).copied().unwrap_or(0.0);
    let events = get("core.events");
    let dispatched = get("core.dispatched");
    let bounded = facts.bounded_dispatched as f64;
    // Each dispatch crosses the mesh twice (request out, response back);
    // on the constant mesh those ride the hop lane.
    let hops = (2.0 * dispatched).min(events);
    let run_ns = run_s * 1e9;
    let calendar = (events - hops) * unit.calendar_ns_per_op + hops * unit.hop_lane_ns_per_op;
    let sampler = dispatched * unit.normal_ns;
    let net = hops * unit.hop_resolve_ns;
    let sched = (dispatched - bounded) * unit.pq_ns_per_op
        + bounded * unit.bounded_enqueue_ns
        + get("sched.credits_epochs") * unit.credits_allocate_us * 1e3;
    // One request-latency record per dispatch, task latency + hold time
    // per task.
    let metrics = (dispatched + 2.0 * tasks as f64) * unit.hist_record_ns;
    // The service draw beyond its normal variate (counted under sim).
    let store = dispatched * (unit.service_sample_ns - unit.normal_ns).max(0.0);
    let select = facts.c3_dispatched as f64 * c3_extra_ns.max(0.0);
    let total = calendar + sampler + net + sched + metrics + store + select;
    vec![
        ("sim.calendar_est_share", calendar / run_ns),
        ("sim.sampler_est_share", sampler / run_ns),
        ("net.est_share", net / run_ns),
        ("sched.est_share", sched / run_ns),
        ("metrics.est_share", metrics / run_ns),
        ("core.unattributed_share", 1.0 - total / run_ns),
    ]
}

/// C3's selection cost per dispatch, differentially: `core.run` of
/// C3+FIFO minus random+FIFO on one trace, over C3's dispatches
/// (`brb-select` is not a dependency of the benchmark).
fn c3_extra_ns_per_dispatch(spec: &ScenarioSpec) -> Result<f64, String> {
    let random = Strategy::Direct {
        selector: SelectorKind::Random,
        policy: PolicyKind::Fifo,
        priority_queues: false,
    };
    let (c3_s, dispatched) = sim::time_one_run(spec, Strategy::c3())?;
    let (random_s, _) = sim::time_one_run(spec, random)?;
    Ok((c3_s - random_s) * 1e9 / dispatched.max(1) as f64)
}

/// Where traced spans are written: `<target>/ledger/`, next to the
/// profile directory the binary runs from.
fn trace_path(workload: &str) -> Option<std::path::PathBuf> {
    let exe = std::env::current_exe().ok()?;
    Some(
        exe.parent()?
            .parent()?
            .join("ledger")
            .join(format!("trace-{workload}.jsonl")),
    )
}

fn write_trace(workload: &str, provenance: &Provenance, rec: &Recorder) -> Result<(), String> {
    let path = trace_path(workload).ok_or("cannot locate the target directory")?;
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(path.parent().expect("trace path has a parent"))?;
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
        use std::io::Write;
        let stamp = serde_json::to_string(provenance).expect("serialize provenance");
        writeln!(
            file,
            "{{\"workload\":\"{workload}\",\"provenance\":{stamp}}}"
        )?;
        rec.write_jsonl(&mut file)?;
        file.flush()
    };
    write().map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs one workload end to end.
pub fn run(args: &RunArgs) -> Result<RunReport, String> {
    // The simulator workloads measure the sequential sweep: on a shared
    // 2-core box the 2-thread sweep swung 4.4–5.8 s where one thread
    // held 7.4–7.8 s.
    std::env::set_var("BRB_THREADS", "1");

    let mut setups = Vec::with_capacity(SETUPS);
    let mut parses = Vec::with_capacity(SETUPS);
    let mut prepared = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let (p, parse_s) = Prepared::set_up(args)?;
        setups.push(start.elapsed().as_secs_f64());
        parses.push(parse_s);
        prepared = Some(p);
    }
    let mut prepared = prepared.expect("SETUPS > 0");

    let mut rec = Recorder::new(false);
    let mut untraced: Vec<Section> = Vec::new();
    let mut traced: Vec<Section> = Vec::new();
    let measuring = Instant::now();
    loop {
        // A traced section re-runs its untraced twin's inputs.
        let trace_turn = args.trace && traced.len() < untraced.len();
        let index = if trace_turn {
            traced.len()
        } else {
            untraced.len()
        };
        rec.set_enabled(trace_turn);
        let mut section =
            prepared.section(&mut rec, trace_turn, specs::seed_shift(args.seed, index))?;
        if section.work_s == 0.0 {
            section.work_s = section.wall_s;
        }
        let wall_s = section.wall_s;
        if trace_turn {
            traced.push(section);
        } else {
            untraced.push(section);
        }
        let enough = if args.trace {
            traced.len() >= MIN_TRACED_PAIRS && traced.len() == untraced.len()
        } else {
            untraced.len() >= MIN_REPEATS
        };
        // Stop before a repeat that would overrun `--seconds`.
        if enough && measuring.elapsed().as_secs_f64() + wall_s > args.seconds {
            break;
        }
    }

    // ---- output checks -------------------------------------------------
    let mut problems: Vec<String> = untraced
        .iter_mut()
        .chain(traced.iter_mut())
        .flat_map(|s| std::mem::take(&mut s.problems))
        .collect();
    let sections = || untraced.iter().chain(traced.iter());
    let digests: Vec<u64> = untraced.iter().filter_map(|s| s.digest).collect();
    for (i, (plain, twin)) in untraced.iter().zip(&traced).enumerate() {
        if plain.digest != twin.digest {
            problems.push(format!(
                "section {i}: traced and untraced runs of the same inputs disagree on the result digest"
            ));
        }
    }
    if !digests.is_empty() && !args.quick && args.seed == DEFAULT_SEED {
        match baseline_digests(&args.workload) {
            Some(want) => {
                for (i, (got, want)) in digests.iter().zip(&want).enumerate() {
                    if got != want {
                        problems.push(format!(
                            "section {i}: result digest {got:#018x} differs from baseline.json's {want:#018x}: simulated results moved"
                        ));
                    }
                }
            }
            None => problems.push(format!(
                "baseline.json has no digests for {}",
                args.workload
            )),
        }
    }
    let p99_samples = sections().map(|s| s.p99_samples).min().unwrap_or(0);
    if !args.quick && !p99_is_supported(p99_samples) {
        problems.push(format!(
            "a repeat's p99 rests on {p99_samples} samples: fewer than 10 lie beyond it"
        ));
    }
    let overload_knobs = match &prepared {
        Prepared::Sim { spec, .. } | Prepared::RtReport { spec } => {
            spec.queue.is_some() || spec.timeout.is_some()
        }
        Prepared::RtFloor { .. } => false,
    };
    let issued: u64 = sections().map(|s| s.issued).sum();
    let completed: u64 = sections().map(|s| s.completed).sum();
    let refused: u64 = sections().map(|s| s.refused).sum();
    // A task refused under an overload knob ended the way the workload
    // is built to end it (it shows in delivered_share); anywhere else a
    // task that did not complete is a failed operation.
    let failed = if overload_knobs {
        issued - completed - refused
    } else {
        issued - completed
    };
    if failed > 0 {
        problems.push(format!(
            "{failed} of {issued} tasks failed outside any overload knob"
        ));
    }

    // ---- end-to-end metrics (untraced repeats only) --------------------
    let of = |f: fn(&Section) -> f64| -> Vec<f64> { untraced.iter().map(f).collect() };
    let repeats: BTreeMap<&'static str, Summary> = [
        ("wall_s", of(|s| s.wall_s)),
        ("tasks_per_s", of(|s| s.completed as f64 / s.work_s)),
        ("task_p50_ms", of(|s| s.p50_ms)),
        ("task_p95_ms", of(|s| s.p95_ms)),
        ("setup_s", setups.clone()),
    ]
    .into_iter()
    .map(|(name, values)| {
        let better = END_TO_END
            .iter()
            .find(|m| m.name == name)
            .expect("a catalog metric")
            .better;
        let summary = Summary::of(&values, better).expect("at least one repeat");
        (name, summary)
    })
    .collect();
    // Over the sections every run of this mode has, whatever the host's
    // speed: the share then repeats exactly per seed on the simulator.
    let always = &untraced[..untraced.len().min(MIN_REPEATS)];
    let untraced_issued: u64 = always.iter().map(|s| s.issued).sum();
    let untraced_completed: u64 = always.iter().map(|s| s.completed).sum();
    let end_to_end = |name: &str| match name {
        "peak_rss_mb" => host::peak_rss_mib(),
        "delivered_share" => untraced_completed as f64 / untraced_issued as f64,
        // The contract asks for the median of several set-ups.
        "setup_s" => repeats["setup_s"].median,
        measured => repeats[measured].best,
    };

    let provenance = Provenance::capture(args.seed, untraced.len());
    let mut breakdown = None;
    let metrics = if args.trace {
        let b = Breakdown::of(rec.spans());
        if b.residual_ns() != 0 {
            problems.push(format!(
                "span self times miss the traced wall time by {} ns",
                b.residual_ns()
            ));
        }
        let values = per_layer_values(
            &prepared,
            &b,
            rec.spans(),
            &untraced,
            &traced,
            &repeats,
            &parses,
        )?;
        write_trace(&args.workload, &provenance, &rec)?;
        breakdown = Some(b);
        // A metric the workload has no value for does not apply: 0.
        PER_LAYER
            .iter()
            .map(|m| (m.name, values.get(m.name).copied().unwrap_or(0.0), m.unit))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name, end_to_end(m.name), m.unit))
            .collect()
    };

    Ok(RunReport {
        correct: problems.is_empty(),
        attempted: issued,
        failed,
        metrics,
        repeats,
        p99_samples,
        digests,
        problems,
        provenance,
        breakdown,
    })
}

/// Every per-layer value a traced run can give for this workload; the
/// rest of the catalog does not apply and reads 0.
fn per_layer_values(
    prepared: &Prepared,
    b: &Breakdown,
    spans: &[crate::spans::Span],
    untraced: &[Section],
    traced: &[Section],
    repeats: &BTreeMap<&'static str, Summary>,
    parses: &[f64],
) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    if matches!(prepared, Prepared::Sim { .. }) {
        // Simulator counts are exact per input: report section 0's, the
        // one section every run of a seed has, so they repeat exactly.
        v.extend(traced[0].layer.iter().map(|(&k, &x)| (k, x)));
    } else {
        // Live counts are measurements: median over traced sections.
        for &name in traced[0].layer.keys() {
            let per_section: Vec<f64> = traced
                .iter()
                .filter_map(|s| s.layer.get(name).copied())
                .collect();
            v.insert(name, median_or_zero(&per_section));
        }
    }

    // Span durations, mean per traced section.
    for (metric, span, scale) in [
        ("workload.trace_gen_s", "workload.generate_trace", 1.0),
        ("core.world_build_s", "core.world_build", 1.0),
        ("core.run_s", "core.run", 1.0),
        ("core.collect_s", "core.collect", 1.0),
        ("lab.lower_ms", "lab.lower", 1e3),
        ("lab.report_write_ms", "lab.report_write", 1e3),
        ("lab.report_parse_ms", "lab.report_parse", 1e3),
        ("lab.compare_ms", "lab.compare", 1e3),
        ("lab.capacity_ms", "lab.capacity", 1e3),
        ("lab.markdown_ms", "lab.markdown", 1e3),
        ("rt.cluster_start_ms", "rt.cluster_start", 1e3),
        ("rt.populate_ms", "rt.populate", 1e3),
        ("rt.shutdown_ms", "rt.shutdown", 1e3),
    ] {
        v.insert(metric, b.secs_per_root(span) * scale);
    }
    v.insert(
        "workload.trace_gen_calls",
        b.calls_per_root("workload.generate_trace"),
    );
    v.insert("lab.spec_parse_ms", median_or_zero(parses) * 1e3);
    for &(layer, metric) in SPAN_LAYERS {
        v.insert(metric, b.layer_self_secs_per_root(layer));
    }
    v.insert("bench.root_self_s", b.per_root(b.root_self_ns));
    v.insert("bench.traced_wall_s", b.per_root(b.root_total_ns));
    let traced_walls: Vec<f64> = traced.iter().map(|s| s.wall_s).collect();
    let traced_wall =
        Summary::of(&traced_walls, crate::catalog::Better::Lower).expect("traced sections ran");
    let untraced_wall = repeats["wall_s"];
    v.insert(
        "bench.trace_overhead_pct",
        (traced_wall.best / untraced_wall.best - 1.0) * 100.0,
    );
    v.insert("bench.repeat_spread_pct", untraced_wall.spread_pct());

    // Unit costs: workload-independent, measured on every traced run so
    // each workload's table carries the costs of the box it ran on.
    let unit = UnitCosts::measure();
    for (name, value) in [
        ("sim.calendar_ns_per_op", unit.calendar_ns_per_op),
        ("sim.hop_lane_ns_per_op", unit.hop_lane_ns_per_op),
        ("sim.normal_ns", unit.normal_ns),
        ("sim.exp_ns", unit.exp_ns),
        ("sim.alias_ns", unit.alias_ns),
        ("net.hop_resolve_ns", unit.hop_resolve_ns),
        ("sched.pq_ns_per_op", unit.pq_ns_per_op),
        ("sched.credits_allocate_us", unit.credits_allocate_us),
        ("sched.bounded_enqueue_ns", unit.bounded_enqueue_ns),
        ("store.service_sample_ns", unit.service_sample_ns),
        ("store.kv_get_ns", unit.kv_get_ns),
        ("metrics.hist_record_ns", unit.hist_record_ns),
        ("metrics.percentiles_us", unit.percentiles_us),
        ("metrics.bootstrap_ms", unit.bootstrap_ms),
    ] {
        v.insert(name, value);
    }

    match prepared {
        Prepared::Sim { spec, .. } => {
            let per_s: Vec<f64> = untraced
                .iter()
                .map(|s| s.events as f64 / s.wall_s)
                .collect();
            let per_s = Summary::of(&per_s, crate::catalog::Better::Higher);
            v.insert(
                "core.events_per_s",
                per_s.expect("untraced sections ran").best,
            );
            // The estimate pairs section 0's counts with section 0's
            // time inside `Simulation::run`.
            let second_root = spans.iter().skip(1).position(|s| s.parent.is_none());
            let first = Breakdown::of(&spans[..second_root.map_or(spans.len(), |i| i + 1)]);
            let run_s = first.secs_per_root("core.run");
            let events = v["core.events"];
            v.insert("core.ns_per_event", run_s * 1e9 / events);
            let c3_extra = c3_extra_ns_per_dispatch(spec)?;
            v.insert("select.c3_extra_ns_per_dispatch", c3_extra);
            let facts = traced[0].facts.as_ref().expect("traced simulator section");
            let shares = estimate_shares(&v, facts, traced[0].issued, &unit, c3_extra, run_s);
            v.extend(shares);
            let cell = spec.lower().map_err(|e| e.to_string())?.swap_remove(0);
            let costs =
                TraceCosts::measure(&cell.config_for(cell.strategies[0].clone(), cell.seeds[0]));
            v.insert("workload.catalog_build_ms", costs.catalog_build_ms);
            v.insert(
                "workload.trace_draw_ns_per_task",
                costs.trace_draw_ns_per_task,
            );
        }
        Prepared::RtReport { .. } => {
            let (p50, p99) = timer_overshoot_us();
            v.insert("rt.timer_overshoot_us_p50", p50);
            v.insert("rt.timer_overshoot_us_p99", p99);
            v.insert(
                "rt.spin_reserve_us",
                brb_rt::timing::spin_reserve().as_secs_f64() * 1e6,
            );
        }
        Prepared::RtFloor { timings, .. } => {
            let us = |h: &brb_metrics::Histogram, p: f64| h.value_at_percentile(p) as f64 / 1e3;
            v.insert("rt.submit_us_p50", us(&timings.submit_ns, 50.0));
            v.insert("rt.submit_us_p99", us(&timings.submit_ns, 99.0));
            v.insert("rt.wait_us_p50", us(&timings.wait_ns, 50.0));
            v.insert("rt.request_rtt_us_p50", us(&timings.request_ns, 50.0));
            v.insert("rt.request_rtt_us_p99", us(&timings.request_ns, 99.0));
        }
    }
    for name in v.keys() {
        assert!(
            PER_LAYER.iter().any(|m| m.name == *name),
            "{name} is not in the per-layer catalog"
        );
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_attributes_counts_times_unit_costs() {
        let counts = BTreeMap::from([
            ("core.events", 1_000.0),
            ("core.dispatched", 300.0),
            ("sched.credits_epochs", 2.0),
        ]);
        let facts = SimFacts {
            bounded_dispatched: 100,
            c3_dispatched: 50,
            ..SimFacts::default()
        };
        let unit = UnitCosts {
            calendar_ns_per_op: 40.0,
            hop_lane_ns_per_op: 10.0,
            normal_ns: 5.0,
            hop_resolve_ns: 1.0,
            pq_ns_per_op: 20.0,
            bounded_enqueue_ns: 30.0,
            credits_allocate_us: 1.0,
            hist_record_ns: 4.0,
            service_sample_ns: 9.0,
            ..UnitCosts::default()
        };
        let shares: BTreeMap<_, _> = estimate_shares(&counts, &facts, 40, &unit, 8.0, 1e-4)
            .into_iter()
            .collect();
        // 600 hop events, 400 wheel events over a 100 µs run.
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        assert!(close(
            shares["sim.calendar_est_share"],
            (400.0 * 40.0 + 600.0 * 10.0) / 1e5
        ));
        assert!(close(shares["sim.sampler_est_share"], 1_500.0 / 1e5));
        assert!(close(shares["net.est_share"], 600.0 / 1e5));
        assert!(close(
            shares["sched.est_share"],
            (200.0 * 20.0 + 100.0 * 30.0 + 2_000.0) / 1e5
        ));
        assert!(close(shares["metrics.est_share"], 380.0 * 4.0 / 1e5));
        let attributed: f64 = shares
            .iter()
            .filter(|(k, _)| k.ends_with("est_share"))
            .map(|(_, v)| v)
            .sum();
        // + store (300 × 4) + select (50 × 8), which have no share metric.
        assert!(close(
            shares["core.unattributed_share"],
            1.0 - attributed - 1_600.0 / 1e5
        ));
    }

    #[test]
    fn baseline_commits_a_digest_per_simulator_workload_and_a_bound_per_metric() {
        for w in crate::catalog::WORKLOADS {
            let digests = baseline_digests(w.name);
            assert_eq!(digests.is_some(), is_sim(w.name), "{}", w.name);
            assert!(digests.is_none_or(|d| d.len() >= MIN_REPEATS), "{}", w.name);
        }
        for m in END_TO_END {
            let bound = baseline_bound(m.name).unwrap_or_else(|| panic!("no bound for {}", m.name));
            assert!(bound > 0.0 && bound <= 0.25);
        }
        assert_eq!(baseline().get("claim"), Some(&Value::Null));
    }

    #[test]
    fn quick_floor_run_reports_every_end_to_end_metric() {
        let args = RunArgs {
            workload: "rt-floor".into(),
            seed: 3,
            seconds: 0.0,
            trace: false,
            quick: true,
        };
        let report = run(&args).unwrap();
        assert!(report.correct, "{:?}", report.problems);
        assert_eq!(report.failed, 0);
        let names: Vec<_> = report.metrics.iter().map(|m| m.0).collect();
        let want: Vec<_> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, want);
        assert!(
            report.metrics.iter().all(|m| m.1 > 0.0),
            "{:?}",
            report.metrics
        );
    }
}
