//! Out-of-range analysis options fail typed, naming the flag, before
//! anything runs: from the library (`compare_report` / `capacity_report`
//! check their options before looking at the results) and from the
//! `brb-lab` CLI (nonzero exit, no run started, no panic). The CLI
//! refuses a single-seed `compare` before running it, too.

use brb_lab::analysis::{
    capacity_report, compare_report, AnalysisError, CapacityOptions, CompareOptions,
};
use brb_lab::registry;
use std::process::Command;

/// Runs the CLI and asserts it refused `flag` with a typed error before
/// starting a single run.
fn cli_refuses(args: &[&str], flag: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_brb-lab"))
        .args(args)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(stderr.contains(&format!("bad {flag} value")), "{stderr}");
    assert!(!stderr.contains("done"), "a run started: {stderr}");
}

fn compare_refuses(opts: CompareOptions, flag: &str) {
    let spec = registry::spec("figure2-small").unwrap();
    match compare_report(&spec, &[], "C3", &opts) {
        Err(AnalysisError::InvalidOption { flag: f, .. }) => assert_eq!(f, flag),
        other => panic!("{flag}: expected InvalidOption, got {other:?}"),
    }
}

fn capacity_refuses(opts: CapacityOptions, flag: &str) {
    let spec = registry::spec("sustained-overload").unwrap();
    match capacity_report(&spec, &[], &opts) {
        Err(AnalysisError::InvalidOption { flag: f, .. }) => assert_eq!(f, flag),
        other => panic!("{flag}: expected InvalidOption, got {other:?}"),
    }
}

const COMPARE: [&str; 6] = [
    "compare",
    "figure2-small",
    "--baseline",
    "C3",
    "--tasks",
    "200",
];
const CAPACITY: [&str; 4] = ["capacity", "sustained-overload", "--tasks", "200"];

#[test]
fn zero_resamples_are_refused() {
    compare_refuses(
        CompareOptions {
            resamples: 0,
            ..CompareOptions::default()
        },
        "--resamples",
    );
    cli_refuses(
        &[&COMPARE[..], &["--resamples", "0"]].concat(),
        "--resamples",
    );
}

#[test]
fn confidence_outside_the_open_unit_interval_is_refused() {
    for value in ["1.5", "0", "nan", "1", "-0.5"] {
        compare_refuses(
            CompareOptions {
                confidence: value.parse().unwrap(),
                ..CompareOptions::default()
            },
            "--confidence",
        );
        cli_refuses(
            &[&COMPARE[..], &["--confidence", value]].concat(),
            "--confidence",
        );
    }
}

#[test]
fn goodput_tolerance_outside_a_percentage_is_refused() {
    for value in ["200", "100", "-1", "nan"] {
        capacity_refuses(
            CapacityOptions {
                tolerance_pct: value.parse().unwrap(),
                ..CapacityOptions::default()
            },
            "--goodput-tolerance-pct",
        );
        cli_refuses(
            &[&CAPACITY[..], &["--goodput-tolerance-pct", value]].concat(),
            "--goodput-tolerance-pct",
        );
    }
}

#[test]
fn negative_or_non_finite_slo_is_refused() {
    for value in ["-1", "nan", "inf"] {
        capacity_refuses(
            CapacityOptions {
                slo_p99_ms: Some(value.parse().unwrap()),
                ..CapacityOptions::default()
            },
            "--slo-p99-ms",
        );
        cli_refuses(
            &[&CAPACITY[..], &["--slo-p99-ms", value]].concat(),
            "--slo-p99-ms",
        );
    }
}

#[test]
fn non_positive_operating_load_is_refused() {
    for value in ["-3", "0", "nan"] {
        capacity_refuses(
            CapacityOptions {
                at_load: Some(value.parse().unwrap()),
                ..CapacityOptions::default()
            },
            "--at",
        );
        cli_refuses(&[&CAPACITY[..], &["--at", value]].concat(), "--at");
    }
}

#[test]
fn in_range_options_pass() {
    assert_eq!(CompareOptions::default().validate(), Ok(()));
    assert_eq!(CapacityOptions::default().validate(), Ok(()));
    let edges = CapacityOptions {
        slo_p99_ms: Some(0.0),
        tolerance_pct: 0.0,
        at_load: Some(1.3),
        ..CapacityOptions::default()
    };
    assert_eq!(edges.validate(), Ok(()));
}

#[test]
fn compare_refuses_a_single_seed_before_running() {
    let out = Command::new(env!("CARGO_BIN_EXE_brb-lab"))
        .args([&COMPARE[..], &["--seeds", "1"]].concat())
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("at least 2 seeds"), "{stderr}");
    assert!(
        !stderr.lines().any(|l| l.trim_start().starts_with("run ")),
        "a run started: {stderr}"
    );
}

/// Every verb parses its flags through one parser; each refusal keeps
/// its wording and its usage exit code (2).
#[test]
fn flag_refusals_name_the_flag() {
    let cases: [(&[&str], &str); 8] = [
        (
            &["run", "figure2-small", "--tasks"],
            "--tasks needs a value",
        ),
        (
            &["run", "figure2-small", "--tasks", "x"],
            "bad --tasks value \"x\"",
        ),
        (
            &["run", "figure2-small", "--seeds", "1,x"],
            "bad --seeds value \"1,x\"",
        ),
        (&["run", "figure2-small", "--out"], "--out needs a path"),
        (
            &["run", "figure2-small", "--md", "m"],
            "unexpected argument \"--md\"",
        ),
        (
            &["run", "figure2-small", "--backend", "both"],
            "bad --backend value \"both\" (expected sim or rt)",
        ),
        (&[&COMPARE[..], &["--out"]].concat(), "--out needs a value"),
        (
            &[&CAPACITY[..], &["--at", "x"]].concat(),
            "bad --at value \"x\"",
        ),
    ];
    for (args, message) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_brb-lab"))
            .args(args)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("error: {message}\n")),
            "{args:?}: {stderr}"
        );
    }
}
