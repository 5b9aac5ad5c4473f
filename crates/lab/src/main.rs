//! `brb-lab` — run declarative scenarios and emit JSON-lines reports.
//!
//! ```text
//! brb-lab list
//! brb-lab show     <name|spec.toml|spec.json> [--json]
//! brb-lab run      <name|spec.toml|spec.json> [--tasks N] [--seeds a,b,..]
//!                  [--out report.jsonl] [--quiet]
//! brb-lab compare  <scenario> --baseline <strategy> [--backend sim|rt|both]
//!                  [--from report.jsonl] [--resamples N] [--confidence C]
//!                  [--quantile-ci] [--adjust-p]
//!                  [--out compare.jsonl] [--md compare.md]
//! brb-lab capacity <scenario> [--slo-p99-ms X] [--goodput-tolerance-pct X]
//!                  [--at LOAD] [--from report.jsonl]
//!                  [--out capacity.jsonl] [--md capacity.md]
//! ```
//!
//! `run` resolves its argument against the preset registry first, then
//! as a spec file path. The JSON-lines report goes to stdout (or
//! `--out`); a human-readable table goes to stderr. `compare` and
//! `capacity` analyze a run (fresh, or ingested with `--from`) into
//! `brb-lab/compare-v1` / `brb-lab/capacity-v1` JSONL plus markdown.

use brb_lab::analysis::{
    self, capacity_report, compare_report, ordering_concordance, parse_jsonl, AnalysisError,
    CapacityOptions, CompareOptions,
};
use brb_lab::{registry, report, rt_backend, runner, CellResult, ScenarioError, ScenarioSpec};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => {
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match command {
        "list" => cmd_list(rest),
        "show" => cmd_show(rest),
        "run" => cmd_run(rest),
        "compare" => cmd_compare(rest),
        "capacity" => cmd_capacity(rest),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown command {other:?}"))),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}\n");
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
        Err(CliError::Scenario(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        Err(CliError::Analysis(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        Err(CliError::Io(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
brb-lab — declarative BRB experiment scenarios

usage:
  brb-lab list                           list registry presets
  brb-lab show     <scenario> [--json]   print a spec as TOML (or JSON)
  brb-lab run      <scenario> [options]  run and emit a JSON-lines report
  brb-lab compare  <scenario> --baseline S [options]
                                         paired A/B deltas vs a baseline
                                         strategy, with significance
  brb-lab capacity <scenario> [options]  per-strategy saturation knee over
                                         a load sweep, with headroom

<scenario> is a registry preset name (see `brb-lab list`) or a path to
a .toml / .json spec file.

run options:
  --backend B      execution backend: sim (default) or rt — the live
                   threaded runtime (open-loop load, wall-clock latency)
  --tasks N        override tasks per run
  --seeds a,b,..   override the seed set
  --out FILE       write the report to FILE instead of stdout
  --quiet          suppress the human-readable table on stderr

compare options (plus --tasks/--seeds/--out/--quiet as above):
  --baseline S     baseline strategy (required; matching is forgiving:
                   random_fifo finds \"random+FIFO\")
  --backend B      sim (default), rt, or both (sim deltas + sim-vs-rt
                   strategy-ordering concordance)
  --from FILE      analyze an existing report-v1 JSONL instead of running
  --resamples N    bootstrap resamples per metric (default 2000)
  --confidence C   bootstrap confidence level (default 0.95)
  --quantile-ci    add order-statistic error bars (additive quantile_ci
                   key) on p50/p95/p99 for both sides of each delta
  --adjust-p       add Benjamini-Hochberg FDR-adjusted p values
                   (additive adjusted_p key) across the whole report
  --md FILE        also write the markdown report to FILE

capacity options (plus --backend/--tasks/--seeds/--out/--md/--from/--quiet):
  --slo-p99-ms X             declare loads with mean p99 above X unsafe
  --goodput-tolerance-pct X  max delivered-ratio shortfall (default 5)
  --at LOAD                  judge headroom at LOAD (default: lowest swept)
";

/// Which engine executes the lowered scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Backend {
    /// The deterministic discrete-event simulator.
    Sim,
    /// The live threaded runtime (`brb-rt`).
    Rt,
}

enum CliError {
    Usage(String),
    Scenario(ScenarioError),
    Analysis(AnalysisError),
    Io(String),
}

impl From<ScenarioError> for CliError {
    fn from(e: ScenarioError) -> Self {
        CliError::Scenario(e)
    }
}

impl From<AnalysisError> for CliError {
    fn from(e: AnalysisError) -> Self {
        CliError::Analysis(e)
    }
}

/// Resolves a scenario argument. Anything that looks like a path (a
/// separator or a spec-file extension) is loaded as a file — so a
/// typo'd filename surfaces the I/O error, not "unknown preset";
/// everything else tries the registry first, then the filesystem.
fn resolve(arg: &str) -> Result<ScenarioSpec, ScenarioError> {
    let looks_like_path =
        arg.contains(['/', '\\']) || arg.ends_with(".toml") || arg.ends_with(".json");
    if looks_like_path {
        let spec = ScenarioSpec::load(arg)?;
        spec.validate()?;
        return Ok(spec);
    }
    match registry::spec(arg) {
        Ok(spec) => Ok(spec),
        Err(ScenarioError::UnknownPreset { .. }) if std::path::Path::new(arg).exists() => {
            let spec = ScenarioSpec::load(arg)?;
            spec.validate()?;
            Ok(spec)
        }
        Err(e) => Err(e),
    }
}

fn cmd_list(rest: &[String]) -> Result<(), CliError> {
    if !rest.is_empty() {
        return Err(CliError::Usage("list takes no arguments".into()));
    }
    let names = registry::names();
    let width = names.iter().map(|n| n.len()).max().unwrap_or(0);
    for name in names {
        let desc = registry::description(name).unwrap_or("");
        println!("{name:width$}  {desc}");
    }
    Ok(())
}

fn cmd_show(rest: &[String]) -> Result<(), CliError> {
    let mut target = None;
    let mut json = false;
    for arg in rest {
        match arg.as_str() {
            "--json" => json = true,
            other if target.is_none() => target = Some(other.to_string()),
            other => return Err(CliError::Usage(format!("unexpected argument {other:?}"))),
        }
    }
    let target = target.ok_or_else(|| CliError::Usage("show needs a scenario".into()))?;
    let spec = resolve(&target)?;
    if json {
        println!("{}", spec.to_json()?);
    } else {
        print!("{}", spec.to_toml()?);
    }
    Ok(())
}

fn cmd_run(rest: &[String]) -> Result<(), CliError> {
    let mut target = None;
    let mut tasks: Option<usize> = None;
    let mut seeds: Option<Vec<u64>> = None;
    let mut out: Option<String> = None;
    let mut quiet = false;
    let mut backend = Backend::Sim;
    let mut iter = rest.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--backend" => {
                let v = iter
                    .next()
                    .ok_or_else(|| CliError::Usage("--backend needs a value".into()))?;
                backend = match v.as_str() {
                    "sim" => Backend::Sim,
                    "rt" => Backend::Rt,
                    other => {
                        return Err(CliError::Usage(format!(
                            "bad --backend value {other:?} (expected sim or rt)"
                        )))
                    }
                };
            }
            "--tasks" => {
                let v = iter
                    .next()
                    .ok_or_else(|| CliError::Usage("--tasks needs a value".into()))?;
                tasks = Some(
                    v.parse()
                        .map_err(|_| CliError::Usage(format!("bad --tasks value {v:?}")))?,
                );
            }
            "--seeds" => {
                let v = iter
                    .next()
                    .ok_or_else(|| CliError::Usage("--seeds needs a value".into()))?;
                let parsed: Result<Vec<u64>, _> = v.split(',').map(str::parse).collect();
                seeds =
                    Some(parsed.map_err(|_| CliError::Usage(format!("bad --seeds value {v:?}")))?);
            }
            "--out" => {
                out = Some(
                    iter.next()
                        .ok_or_else(|| CliError::Usage("--out needs a path".into()))?
                        .clone(),
                );
            }
            "--quiet" => quiet = true,
            other if target.is_none() => target = Some(other.to_string()),
            other => return Err(CliError::Usage(format!("unexpected argument {other:?}"))),
        }
    }
    let target = target.ok_or_else(|| CliError::Usage("run needs a scenario".into()))?;
    let mut spec = resolve(&target)?;
    if let Some(n) = tasks {
        spec.workload.num_tasks = n;
    }
    if let Some(s) = seeds {
        spec.seeds = s;
    }
    spec.validate()?;

    let cells = spec.sweep.num_cells();
    let runs = cells * spec.strategies.len() * spec.seeds.len();
    if !quiet {
        eprintln!(
            "scenario {:?} [{}]: {} cell(s) x {} strategies x {} seeds = {} runs, {} tasks each",
            spec.name,
            match backend {
                Backend::Sim => "sim",
                Backend::Rt => "rt (live threads, open-loop load)",
            },
            cells,
            spec.strategies.len(),
            spec.seeds.len(),
            runs,
            spec.workload.num_tasks,
        );
    }
    let start = std::time::Instant::now();
    let results = run_backend(&spec, backend, quiet)?;
    if !quiet {
        eprintln!("completed in {:.1?}\n", start.elapsed());
        eprint!("{}", report::render_table(&results));
    }
    match out {
        Some(path) => {
            let file =
                std::fs::File::create(&path).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
            report::write_jsonl(&spec, &results, std::io::BufWriter::new(file))
                .map_err(|e| CliError::Io(format!("{path}: {e}")))?;
            if !quiet {
                eprintln!("\nwrote {path}");
            }
        }
        None => {
            let stdout = std::io::stdout();
            report::write_jsonl(&spec, &results, stdout.lock())
                .map_err(|e| CliError::Io(e.to_string()))?;
        }
    }
    Ok(())
}

// -- analysis verbs ---------------------------------------------------------

/// Arguments shared by `compare` and `capacity`.
#[derive(Default)]
struct AnalysisArgs {
    target: Option<String>,
    from: Option<String>,
    backend: Option<String>,
    tasks: Option<usize>,
    seeds: Option<Vec<u64>>,
    out: Option<String>,
    md: Option<String>,
    quiet: bool,
}

impl AnalysisArgs {
    /// Consumes one flag (plus its value) from `iter`; `Ok(false)` when
    /// the flag is not one of the shared set.
    fn consume(
        &mut self,
        arg: &str,
        iter: &mut std::slice::Iter<'_, String>,
    ) -> Result<bool, CliError> {
        let value = |iter: &mut std::slice::Iter<'_, String>, flag: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))
        };
        match arg {
            "--from" => self.from = Some(value(iter, "--from")?),
            "--backend" => self.backend = Some(value(iter, "--backend")?),
            "--tasks" => {
                let v = value(iter, "--tasks")?;
                self.tasks = Some(
                    v.parse()
                        .map_err(|_| CliError::Usage(format!("bad --tasks value {v:?}")))?,
                );
            }
            "--seeds" => {
                let v = value(iter, "--seeds")?;
                let parsed: Result<Vec<u64>, _> = v.split(',').map(str::parse).collect();
                self.seeds =
                    Some(parsed.map_err(|_| CliError::Usage(format!("bad --seeds value {v:?}")))?);
            }
            "--out" => self.out = Some(value(iter, "--out")?),
            "--md" => self.md = Some(value(iter, "--md")?),
            "--quiet" => self.quiet = true,
            other if self.target.is_none() && !other.starts_with('-') => {
                self.target = Some(other.to_string());
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Resolves the input to analyze: an ingested report (`--from`) or a
    /// fresh run of the scenario. Returns the backend label for headers.
    fn resolve_input(
        &self,
        backend: Backend,
    ) -> Result<(ScenarioSpec, Vec<CellResult>, String), CliError> {
        if let Some(path) = &self.from {
            if self.tasks.is_some() || self.seeds.is_some() {
                return Err(CliError::Usage(
                    "--tasks/--seeds override a fresh run; they cannot rewrite --from".into(),
                ));
            }
            let text =
                std::fs::read_to_string(path).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
            let parsed = parse_jsonl(&text)?;
            return Ok((parsed.spec, parsed.results, "file".into()));
        }
        let target = self
            .target
            .clone()
            .ok_or_else(|| CliError::Usage("need a scenario (or --from report.jsonl)".into()))?;
        let spec = self.prepared_spec(&target)?;
        let results = run_backend(&spec, backend, self.quiet)?;
        Ok((
            spec,
            results,
            match backend {
                Backend::Sim => "sim".into(),
                Backend::Rt => "rt".into(),
            },
        ))
    }

    /// Resolves the scenario and applies the --tasks/--seeds overrides.
    fn prepared_spec(&self, target: &str) -> Result<ScenarioSpec, CliError> {
        let mut spec = resolve(target)?;
        if let Some(n) = self.tasks {
            spec.workload.num_tasks = n;
        }
        if let Some(s) = &self.seeds {
            spec.seeds = s.clone();
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Writes the JSONL to --out (or stdout) and the markdown to --md
    /// (or, unless quiet, stderr).
    fn emit(&self, jsonl: &str, markdown: &str) -> Result<(), CliError> {
        match &self.out {
            Some(path) => {
                std::fs::write(path, jsonl).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
                if !self.quiet {
                    eprintln!("wrote {path}");
                }
            }
            None => print!("{jsonl}"),
        }
        match &self.md {
            Some(path) => {
                std::fs::write(path, markdown).map_err(|e| CliError::Io(format!("{path}: {e}")))?;
                if !self.quiet {
                    eprintln!("wrote {path}");
                }
            }
            None => {
                if !self.quiet {
                    eprint!("{markdown}");
                }
            }
        }
        Ok(())
    }
}

fn run_backend(
    spec: &ScenarioSpec,
    backend: Backend,
    quiet: bool,
) -> Result<Vec<CellResult>, CliError> {
    Ok(match backend {
        // The simulator runs the grid seed-major, so its unit of progress
        // is the (cell × strategy × seed) run, reported as each completes.
        Backend::Sim => runner::run_spec_with_progress(spec, |done, total| {
            if !quiet && total > 1 {
                eprintln!("  run {done}/{total} done");
            }
        })?,
        // The live backend runs cell after cell, reported as each starts.
        Backend::Rt => rt_backend::run_spec_rt_with_progress(spec, |i, n| {
            if !quiet && n > 1 {
                eprintln!("  cell {}/{n} ...", i + 1);
            }
        })?,
    })
}

fn cmd_compare(rest: &[String]) -> Result<(), CliError> {
    let mut args = AnalysisArgs::default();
    let mut baseline: Option<String> = None;
    let mut resamples: u32 = 2_000;
    let mut confidence: f64 = 0.95;
    let mut quantile_ci = false;
    let mut adjust_p = false;
    let mut iter = rest.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quantile-ci" => quantile_ci = true,
            "--adjust-p" => adjust_p = true,
            "--baseline" => {
                baseline = Some(
                    iter.next()
                        .cloned()
                        .ok_or_else(|| CliError::Usage("--baseline needs a value".into()))?,
                );
            }
            "--resamples" => {
                let v = iter
                    .next()
                    .ok_or_else(|| CliError::Usage("--resamples needs a value".into()))?;
                resamples = v
                    .parse()
                    .map_err(|_| CliError::Usage(format!("bad --resamples value {v:?}")))?;
            }
            "--confidence" => {
                let v = iter
                    .next()
                    .ok_or_else(|| CliError::Usage("--confidence needs a value".into()))?;
                confidence = v
                    .parse()
                    .map_err(|_| CliError::Usage(format!("bad --confidence value {v:?}")))?;
            }
            other => {
                if !args.consume(other, &mut iter)? {
                    return Err(CliError::Usage(format!("unexpected argument {other:?}")));
                }
            }
        }
    }
    let baseline =
        baseline.ok_or_else(|| CliError::Usage("compare needs --baseline <strategy>".into()))?;
    let both = args.backend.as_deref() == Some("both");
    let backend = match args.backend.as_deref() {
        None | Some("sim") | Some("both") => Backend::Sim,
        Some("rt") => Backend::Rt,
        Some(other) => {
            return Err(CliError::Usage(format!(
                "bad --backend value {other:?} (expected sim, rt, or both)"
            )))
        }
    };
    if both && args.from.is_some() {
        return Err(CliError::Usage(
            "--backend both needs fresh runs; it cannot ingest --from".into(),
        ));
    }
    let (spec, results, mut backend_label) = args.resolve_input(backend)?;
    if both {
        backend_label = "both".into();
    }
    let opts = CompareOptions {
        backend: backend_label,
        resamples,
        confidence,
        quantile_ci,
        adjust_p,
    };
    let report = compare_report(&spec, &results, &baseline, &opts)?;
    let mut jsonl = report.to_jsonl_string();
    // --backend both: append the sim-vs-rt strategy-ordering agreement
    // as additive JSONL lines after the compare records.
    let concordance = if both {
        if !args.quiet {
            eprintln!("re-running on the rt backend for concordance ...");
        }
        let rt_results = run_backend(&spec, Backend::Rt, args.quiet)?;
        let cells = ordering_concordance(&results, &rt_results)?;
        for cell in &cells {
            jsonl.push_str(&serde_json::to_string(cell).map_err(|e| CliError::Io(e.to_string()))?);
            jsonl.push('\n');
        }
        Some(cells)
    } else {
        None
    };
    let markdown = analysis::markdown::render_compare(&report, concordance.as_deref());
    args.emit(&jsonl, &markdown)
}

fn cmd_capacity(rest: &[String]) -> Result<(), CliError> {
    let mut args = AnalysisArgs::default();
    let mut slo_p99_ms: Option<f64> = None;
    let mut tolerance_pct: f64 = 5.0;
    let mut at_load: Option<f64> = None;
    let mut iter = rest.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--slo-p99-ms" => {
                let v = iter
                    .next()
                    .ok_or_else(|| CliError::Usage("--slo-p99-ms needs a value".into()))?;
                slo_p99_ms = Some(
                    v.parse()
                        .map_err(|_| CliError::Usage(format!("bad --slo-p99-ms value {v:?}")))?,
                );
            }
            "--goodput-tolerance-pct" => {
                let v = iter.next().ok_or_else(|| {
                    CliError::Usage("--goodput-tolerance-pct needs a value".into())
                })?;
                tolerance_pct = v.parse().map_err(|_| {
                    CliError::Usage(format!("bad --goodput-tolerance-pct value {v:?}"))
                })?;
            }
            "--at" => {
                let v = iter
                    .next()
                    .ok_or_else(|| CliError::Usage("--at needs a value".into()))?;
                at_load = Some(
                    v.parse()
                        .map_err(|_| CliError::Usage(format!("bad --at value {v:?}")))?,
                );
            }
            other => {
                if !args.consume(other, &mut iter)? {
                    return Err(CliError::Usage(format!("unexpected argument {other:?}")));
                }
            }
        }
    }
    let backend = match args.backend.as_deref() {
        None | Some("sim") => Backend::Sim,
        Some("rt") => Backend::Rt,
        Some(other) => {
            return Err(CliError::Usage(format!(
                "bad --backend value {other:?} (expected sim or rt)"
            )))
        }
    };
    let (spec, results, backend_label) = args.resolve_input(backend)?;
    let opts = CapacityOptions {
        backend: backend_label,
        slo_p99_ms,
        tolerance_pct,
        at_load,
    };
    let report = capacity_report(&spec, &results, &opts)?;
    let markdown = analysis::markdown::render_capacity(&report);
    args.emit(&report.to_jsonl_string(), &markdown)
}
