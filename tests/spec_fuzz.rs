//! Seeded mutation fuzzing of the scenario-spec readers, the lab's
//! external input: every registry preset rendered as TOML and as JSON,
//! then mutated with the set `trace_fuzz.rs` uses. Every mutant must end
//! — parse, validate, lower — in `Ok` or a typed `ScenarioError` within
//! a time bound: never a panic, never a hang.

use brb::lab::{registry, ScenarioError, ScenarioSpec};
use proptest::collection::vec;
use proptest::strategy::Strategy as _;
use std::time::{Duration, Instant};

mod mutation;
use mutation::mutate;

/// Mutants per (preset × format).
const CASES: usize = 400;

/// Generous for a debug build: a clean parse + lower of the largest
/// preset takes well under a millisecond in release.
const PER_INPUT: Duration = Duration::from_secs(2);

type Render = fn(&ScenarioSpec) -> Result<String, ScenarioError>;
type Parse = fn(&str) -> Result<ScenarioSpec, ScenarioError>;

/// Parse → validate → lower, stopping at the first typed error.
fn read(text: &str, parse: Parse) -> Result<(), ScenarioError> {
    let spec = parse(text)?;
    spec.validate()?;
    spec.lower().map(|_| ())
}

#[test]
fn mutated_specs_fail_typed_or_lower() {
    let formats: [(&str, Render, Parse); 2] = [
        ("toml", ScenarioSpec::to_toml, ScenarioSpec::from_toml),
        ("json", ScenarioSpec::to_json, ScenarioSpec::from_json),
    ];
    let mutations = vec((0u8..7, 0usize..1 << 20, 0usize..1 << 20), 1..4);
    let mut rng = proptest::test_rng("spec_fuzz::mutated_specs_fail_typed_or_lower");
    let (mut ok, mut rejected) = (0, 0);
    for name in registry::names() {
        let spec = registry::spec(name).unwrap();
        for (format, render, parse) in formats {
            let base = render(&spec).unwrap().into_bytes();
            if let Err(e) = read(&String::from_utf8_lossy(&base), parse) {
                panic!("unmutated {name}.{format} must read cleanly: {e}");
            }
            for case in 0..CASES {
                let plan = mutations.gen_value(&mut rng);
                let mut bytes = base.clone();
                for &m in &plan {
                    mutate(&mut bytes, m);
                }
                let text = String::from_utf8_lossy(&bytes);
                let start = Instant::now();
                match read(&text, parse) {
                    Ok(()) => ok += 1,
                    Err(_) => rejected += 1,
                }
                let took = start.elapsed();
                assert!(
                    took < PER_INPUT,
                    "{name}.{format} case {case} {plan:?} took {took:?}"
                );
            }
        }
    }
    // Both outcomes must be exercised, or the mutations are too weak
    // (or too strong) to test anything.
    assert!(
        ok >= 100 && rejected >= 100,
        "{ok} accepted, {rejected} rejected"
    );
}
