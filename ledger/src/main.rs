//! `ledger` — the repo's benchmark: both backends, end to end and
//! layer by layer. See `README.md` next to this crate.
//!
//! ```text
//! ledger [--quick] [--seed N] [--seconds S]        every workload, tracing off
//! ledger trace [--quick] [--seed N] [--seconds S]  every workload, traced
//! ledger check [BENCHMARK.json]                    manifest vs binary
//! ledger manifest                                  print BENCHMARK.json
//! ledger --workload W --seed N --seconds S --trace 0|1 [--quick]
//!                                                  one workload (the driver's form)
//! ```

mod catalog;
mod host;
mod manifest;
mod probes;
mod rt;
mod run;
mod sim;
mod spans;
mod specs;
mod stats;

use catalog::{END_TO_END, PER_LAYER, SPAN_LAYERS, WORKLOADS};
use manifest::as_f64;
use run::{RunArgs, RunReport};
use serde::Value;
use std::process::{Command, ExitCode};

/// `run_seconds` in `BENCHMARK.json`, and the default for `--seconds`.
const RUN_SECONDS: u64 = 15;
/// The one command `BENCHMARK.json` names, from the checkout root.
const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "ledger/Cargo.toml",
    "--",
];

#[derive(Debug, Default)]
struct Cli {
    verb: Option<String>,
    operand: Option<String>,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("--workload")?),
            "--seed" => {
                let seed: u64 = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number >= 1")?;
                if seed == 0 {
                    return Err("--seed takes a whole number >= 1".into());
                }
                cli.seed = Some(seed);
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number")?;
                if !(0.0..=600.0).contains(&s) {
                    return Err("--seconds must be within 0..=600".into());
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                })
            }
            "--quick" => cli.quick = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            word if cli.verb.is_none() => cli.verb = Some(word.to_string()),
            word if cli.operand.is_none() => cli.operand = Some(word.to_string()),
            word => return Err(format!("unexpected argument {word:?}")),
        }
    }
    Ok(cli)
}

fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The driver's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
fn result_line(report: &RunReport) -> String {
    let metrics = report
        .metrics
        .iter()
        .map(|&(name, value, unit)| {
            (
                name,
                object(vec![
                    ("value", Value::F64(value)),
                    ("unit", Value::Str(unit.into())),
                ]),
            )
        })
        .collect();
    let line = object(vec![
        ("correct", Value::Bool(report.correct)),
        ("attempted", Value::U64(report.attempted)),
        ("failed", Value::U64(report.failed)),
        ("metrics", object(metrics)),
    ]);
    serde_json::to_string(&line).expect("serialize result")
}

/// The line before it: provenance and the per-repeat spread, for people
/// and for the all-workloads printer.
fn detail_line(args: &RunArgs, report: &RunReport) -> String {
    let repeats = report
        .repeats
        .iter()
        .map(|(&name, s)| {
            (
                name,
                object(vec![
                    ("best_quartile", Value::F64(s.best)),
                    ("median", Value::F64(s.median)),
                    ("min", Value::F64(s.min)),
                    ("max", Value::F64(s.max)),
                ]),
            )
        })
        .collect();
    let strings = |items: &[String]| Value::Array(items.iter().cloned().map(Value::Str).collect());
    let line = object(vec![
        ("workload", Value::Str(args.workload.clone())),
        ("traced", Value::Bool(args.trace)),
        ("quick", Value::Bool(args.quick)),
        ("provenance", serde::Serialize::to_value(&report.provenance)),
        ("repeats", object(repeats)),
        ("p99_samples", Value::U64(report.p99_samples)),
        (
            "digests",
            Value::Array(
                report
                    .digests
                    .iter()
                    .map(|d| Value::Str(format!("{d:#018x}")))
                    .collect(),
            ),
        ),
        ("problems", strings(&report.problems)),
    ]);
    serde_json::to_string(&line).expect("serialize detail")
}

/// The traced run's "where the time goes" table, on stderr.
fn print_breakdown(args: &RunArgs, report: &RunReport) {
    let Some(b) = &report.breakdown else {
        return;
    };
    let total = b.per_root(b.root_total_ns);
    eprintln!(
        "{}: where one traced section's {total:.4} s goes (self time, mean of {} sections)",
        args.workload, b.roots
    );
    for (layer, _) in SPAN_LAYERS {
        let secs = b.layer_self_secs_per_root(layer);
        if secs > 0.0 {
            eprintln!(
                "  {layer:<10} {secs:>9.4} s  {:>5.1} %",
                secs / total * 100.0
            );
        }
    }
    let root = b.per_root(b.root_self_ns);
    eprintln!(
        "  {:<10} {root:>9.4} s  {:>5.1} %  (harness, outside any layer span)",
        "bench",
        root / total * 100.0
    );
}

fn run_single(cli: &Cli, workload: String) -> Result<bool, String> {
    let args = RunArgs {
        workload,
        seed: cli.seed.unwrap_or(specs::DEFAULT_SEED),
        seconds: cli
            .seconds
            .unwrap_or(if cli.quick { 0.0 } else { RUN_SECONDS as f64 }),
        trace: cli.trace.unwrap_or(false),
        quick: cli.quick,
    };
    let report = run::run(&args)?;
    for p in &report.problems {
        eprintln!("{}: CHECK FAILED: {p}", args.workload);
    }
    print_breakdown(&args, &report);
    println!("{}", detail_line(&args, &report));
    println!("{}", result_line(&report));
    Ok(report.correct)
}

fn field<'v>(v: &'v Value, path: &[&str]) -> Option<&'v Value> {
    path.iter().try_fold(v, |v, key| v.get(key))
}

/// Runs every workload, each in a fresh child process (so
/// `peak_rss_mb` is its own `VmHWM`), and prints every metric by name
/// and unit.
fn run_all(cli: &Cli, trace: bool) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_correct = true;
    if !trace {
        println!("end-to-end metrics (best quartile over timed sections; tracing off):");
        for m in END_TO_END {
            println!(
                "   {} [{}, {} is better]: {}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.definition
            );
        }
    }
    for w in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args([
            "--workload",
            w.name,
            "--trace",
            if trace { "1" } else { "0" },
        ]);
        if let Some(seed) = cli.seed {
            cmd.args(["--seed", &seed.to_string()]);
        }
        if let Some(seconds) = cli.seconds {
            cmd.args(["--seconds", &seconds.to_string()]);
        }
        if cli.quick {
            cmd.arg("--quick");
        }
        // Child stderr (check failures, breakdown tables) passes through.
        let out = cmd.output().map_err(|e| format!("{}: {e}", w.name))?;
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines = stdout.lines().rev();
        let parse = |line: Option<&str>| -> Result<Value, String> {
            serde_json::from_str(line.ok_or_else(|| format!("{}: no output", w.name))?)
                .map_err(|e| format!("{}: {e}", w.name))
        };
        let result = parse(lines.next())?;
        let detail = parse(lines.next())?;
        let correct = matches!(result.get("correct"), Some(Value::Bool(true)));
        all_correct &= correct && out.status.success();
        println!(
            "== {} ({}){}",
            w.name,
            if trace { "traced" } else { "tracing off" },
            if cli.quick {
                " QUICK: numbers not comparable"
            } else {
                ""
            }
        );
        if let Some(p) = detail.get("provenance") {
            println!(
                "   provenance {}",
                serde_json::to_string(p).expect("serialize")
            );
        }
        println!(
            "   correct={correct} attempted={} failed={} p99_samples={} digests={}",
            field(&result, &["attempted"])
                .and_then(as_f64)
                .unwrap_or(0.0),
            field(&result, &["failed"]).and_then(as_f64).unwrap_or(0.0),
            field(&detail, &["p99_samples"])
                .and_then(as_f64)
                .unwrap_or(0.0),
            detail
                .get("digests")
                .map_or("-".into(), |d| serde_json::to_string(d).expect("serialize")),
        );
        let names: Vec<(&str, &str)> = if trace {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        for (name, unit) in names {
            let value = field(&result, &["metrics", name, "value"]).and_then(as_f64);
            let spread = field(&detail, &["repeats", name]).and_then(|r| {
                Some(format!(
                    "  (median {:.6} min {:.6} max {:.6} over sections)",
                    as_f64(r.get("median")?)?,
                    as_f64(r.get("min")?)?,
                    as_f64(r.get("max")?)?
                ))
            });
            match value {
                // A per-layer 0 is "does not apply to this workload".
                Some(v) if v != 0.0 || !trace => {
                    println!(
                        "   {name:<34} {v:>16.6} {unit}{}",
                        spread.unwrap_or_default()
                    )
                }
                Some(_) => {}
                None => println!("   {name:<34} {:>16} {unit}", "MISSING"),
            }
        }
    }
    Ok(all_correct)
}

fn check(cli: &Cli) -> Result<bool, String> {
    let path = cli.operand.as_deref().unwrap_or("BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let problems = manifest::check(&text);
    for p in &problems {
        eprintln!("check: {p}");
    }
    println!(
        "ledger check: {} workloads, {} end-to-end and {} per-layer metrics; {} problems",
        WORKLOADS.len(),
        END_TO_END.len(),
        PER_LAYER.len(),
        problems.len()
    );
    Ok(problems.is_empty())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_cli(&args).and_then(|cli| {
        if let Some(workload) = cli.workload.clone() {
            if cli.verb.is_some() {
                return Err("--workload runs one workload; it takes no verb".into());
            }
            return run_single(&cli, workload);
        }
        match cli.verb.as_deref() {
            None => run_all(&cli, false),
            Some("trace") => run_all(&cli, true),
            Some("check") => check(&cli),
            Some("manifest") => {
                let bound =
                    |m: &str| run::baseline_bound(m).expect("baseline.json has every bound");
                println!(
                    "{}",
                    manifest::render(COMMAND, &["ledger"], RUN_SECONDS, bound)
                );
                Ok(true)
            }
            Some(other) => Err(format!(
                "unknown verb {other:?} (expected trace, check or manifest)"
            )),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}
