//! `ledger check`: `BENCHMARK.json` and this binary must name the same
//! workloads and metrics, so neither can drift from the other (the
//! discipline CI's `BENCH_kernel.json` key grep applies to the kernel
//! bench).

use crate::catalog::{valid_name, valid_unit, END_TO_END, PER_LAYER, WORKLOADS};
use serde::Value;

fn entries<'v>(doc: &'v Value, key: &str, problems: &mut Vec<String>) -> &'v [Value] {
    match doc.get(key) {
        Some(Value::Array(items)) => items,
        _ => {
            problems.push(format!("`{key}` is missing or not an array"));
            &[]
        }
    }
}

fn text<'v>(item: &'v Value, key: &str) -> Option<&'v str> {
    match item.get(key) {
        Some(Value::Str(s)) => Some(s),
        _ => None,
    }
}

/// A JSON number, whichever way the parser typed it.
pub fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::F64(f) => Some(*f),
        Value::U64(u) => Some(*u as f64),
        Value::I64(i) => Some(*i as f64),
        _ => None,
    }
}

/// Compares the names listed under `key` with what the binary emits.
fn check_names(kind: &str, listed: &[&str], emitted: &[&str], problems: &mut Vec<String>) {
    for name in listed {
        if !valid_name(name) {
            problems.push(format!("{kind} name {name:?} breaks [A-Za-z0-9_.-]+"));
        }
        if !emitted.contains(name) {
            problems.push(format!(
                "{kind} {name:?} is in BENCHMARK.json but the binary does not emit it"
            ));
        }
    }
    for name in emitted {
        if !listed.contains(name) {
            problems.push(format!(
                "{kind} {name:?} is emitted by the binary but missing from BENCHMARK.json"
            ));
        }
    }
}

/// Every way `text` (the contents of `BENCHMARK.json`) disagrees with
/// the binary's catalog. Empty means the two agree.
pub fn check(text_json: &str) -> Vec<String> {
    let doc: Value = match serde_json::from_str(text_json) {
        Ok(v) => v,
        Err(e) => return vec![format!("BENCHMARK.json does not parse: {e}")],
    };
    let mut problems = Vec::new();

    let workloads = entries(&doc, "workloads", &mut problems);
    let listed: Vec<&str> = workloads.iter().filter_map(|w| text(w, "name")).collect();
    let emitted: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    check_names("workload", &listed, &emitted, &mut problems);
    for w in workloads {
        if text(w, "why").is_none_or(str::is_empty) {
            problems.push(format!("workload {:?} lacks its `why`", text(w, "name")));
        }
    }

    let e2e = entries(&doc, "end_to_end", &mut problems);
    let listed: Vec<&str> = e2e.iter().filter_map(|m| text(m, "name")).collect();
    let emitted: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    check_names("end-to-end metric", &listed, &emitted, &mut problems);
    for m in e2e {
        let name = text(m, "name").unwrap_or("?");
        let known = END_TO_END.iter().find(|k| k.name == name);
        match (text(m, "unit"), known) {
            (Some(u), Some(k)) if u == k.unit && valid_unit(u) => {}
            (unit, _) => problems.push(format!("end-to-end metric {name:?}: unit {unit:?} is missing or not what the binary prints")),
        }
        match (text(m, "better"), known) {
            (Some(b), Some(k)) if b == k.better.as_str() => {}
            (better, _) => problems.push(format!(
                "end-to-end metric {name:?}: direction {better:?} is missing or not the binary's"
            )),
        }
        match m.get("bound").and_then(as_f64) {
            Some(b) if b > 0.0 && b <= 0.25 => {}
            bound => problems.push(format!(
                "end-to-end metric {name:?}: bound {bound:?} is missing or outside (0, 0.25]"
            )),
        }
    }

    let layers = entries(&doc, "per_layer", &mut problems);
    let listed: Vec<&str> = layers.iter().filter_map(|m| text(m, "name")).collect();
    let emitted: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    check_names("per-layer metric", &listed, &emitted, &mut problems);
    for m in layers {
        let name = text(m, "name").unwrap_or("?");
        let Some(known) = PER_LAYER.iter().find(|k| k.name == name) else {
            continue;
        };
        if text(m, "unit") != Some(known.unit) || text(m, "better") != Some(known.better.as_str()) {
            problems.push(format!(
                "per-layer metric {name:?}: unit or direction differs from the binary's"
            ));
        }
    }
    // The "moves" column is not a BENCHMARK.json key (the contract fixes
    // its keys), so it is checked where it lives: the catalog.
    for m in PER_LAYER {
        if m.moves.is_empty() {
            problems.push(format!(
                "per-layer metric {:?} lacks its `moves` entry",
                m.name
            ));
        }
    }
    problems
}

/// Renders the catalog as the `BENCHMARK.json` the binary would accept,
/// taking bounds from `bound_of`.
pub fn render(
    command: &[&str],
    paths: &[&str],
    run_seconds: u64,
    bound_of: impl Fn(&str) -> f64,
) -> String {
    let strings =
        |items: &[&str]| Value::Array(items.iter().map(|s| Value::Str(s.to_string())).collect());
    let obj = |fields: Vec<(&str, Value)>| {
        Value::Object(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    };
    let s = |v: &str| Value::Str(v.to_string());
    let doc = obj(vec![
        ("command", strings(command)),
        ("paths", strings(paths)),
        ("run_seconds", Value::U64(run_seconds)),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|w| obj(vec![("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.as_str())),
                            ("bound", Value::F64(bound_of(m.name))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    serde_json::to_string_pretty(&doc).expect("serialize manifest")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rendered() -> String {
        render(&["cargo", "run"], &["ledger"], 12, |_| 0.1)
    }

    #[test]
    fn what_the_binary_renders_passes_its_own_check() {
        assert_eq!(check(&rendered()), Vec::<String>::new());
    }

    #[test]
    fn drift_in_either_direction_is_reported() {
        let missing = rendered().replace("\"rt.cpu_s\"", "\"rt.cpu_seconds\"");
        let problems = check(&missing);
        assert!(problems
            .iter()
            .any(|p| p.contains("\"rt.cpu_seconds\"") && p.contains("does not emit")));
        assert!(problems
            .iter()
            .any(|p| p.contains("\"rt.cpu_s\"") && p.contains("missing from")));

        let no_bound = rendered().replacen("\"bound\": 0.1", "\"bound\": 0.5", 1);
        assert!(check(&no_bound).iter().any(|p| p.contains("bound")));

        let bad_dir = rendered().replacen("\"better\": \"lower\"", "\"better\": \"sideways\"", 1);
        assert!(check(&bad_dir).iter().any(|p| p.contains("direction")));

        let bad_name = rendered().replace("\"rt-floor\"", "\"rt floor\"");
        assert!(check(&bad_name).iter().any(|p| p.contains("breaks")));

        assert!(!check("{").is_empty());
    }
}
