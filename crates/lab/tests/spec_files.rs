//! The hand-written scenario files under `specs/`: every one must load,
//! validate, lower and survive a TOML round trip, and the two sweep
//! files must show the trend they exist to show.

use brb_core::config::Strategy;
use brb_lab::{runner, ScenarioBuilder, ScenarioSpec};
use std::path::{Path, PathBuf};

fn specs_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../specs")
}

fn load(name: &str) -> ScenarioSpec {
    ScenarioSpec::load(specs_dir().join(name)).unwrap()
}

/// Every strategy's across-seed mean p99, one entry per sweep cell.
fn p99_per_cell(spec: &ScenarioSpec) -> Vec<f64> {
    runner::run_spec(spec)
        .unwrap()
        .into_iter()
        .map(|cell| cell.summaries[0].p99_ms.mean)
        .collect()
}

#[test]
fn every_spec_file_loads_lowers_and_round_trips() {
    let mut files: Vec<PathBuf> = std::fs::read_dir(specs_dir())
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|e| e == "toml"))
        .collect();
    files.sort();
    assert!(files.len() >= 3, "spec files found: {files:?}");
    for path in &files {
        let spec = ScenarioSpec::load(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let cells = spec
            .lower()
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(cells.len(), spec.sweep.num_cells(), "{}", path.display());
        let again = ScenarioSpec::from_toml(&spec.to_toml().unwrap()).unwrap();
        assert_eq!(
            again.to_json().unwrap(),
            spec.to_json().unwrap(),
            "{} changed in a TOML round trip",
            path.display()
        );
        assert_eq!(
            format!("{:?}", again.lower().unwrap()),
            format!("{cells:?}"),
            "{} lowers differently after a TOML round trip",
            path.display()
        );
    }
}

#[test]
fn load_sweep_latency_increases_with_load() {
    let spec = ScenarioBuilder::from_spec(load("load-sweep.toml"))
        .strategies(vec![Strategy::equal_max_model()])
        .seeds(&[1])
        .tasks(4_000)
        .sweep_load(&[0.3, 0.8])
        .build()
        .unwrap();
    let p99 = p99_per_cell(&spec);
    assert_eq!(p99.len(), 2);
    let (low, high) = (p99[0], p99[1]);
    assert!(high > low, "p99 must grow with load: {low:.2} → {high:.2}");
}

#[test]
fn fanout_sweep_latency_increases_with_fanout() {
    let spec = ScenarioBuilder::from_spec(load("fanout-sweep.toml"))
        .strategies(vec![Strategy::c3()])
        .seeds(&[1])
        .tasks(3_000)
        .sweep_mean_fanout(&[1, 32])
        .build()
        .unwrap();
    let p99 = p99_per_cell(&spec);
    let (small, large) = (p99[0], p99[1]);
    assert!(
        large > small,
        "bigger fan-out must hurt the tail: {small:.2} → {large:.2}"
    );
}
