//! The paper's Figure 2 claims, checked on the `figure2-small` preset
//! through the same runner `brb-lab run` uses.
//!
//! 1. "the credits strategy is at most 38% of an ideal model" — read as
//!    `credits_p99 ≤ 1.38 × model_p99` per policy.
//! 2. "BRB outperforms C3 across all percentiles ... improves the
//!    latencies by up to a factor of 3 at the median and 95th percentiles
//!    and up to 2 times at the 99th percentile" — BRB must win at every
//!    percentile, by at least 1.3× / 1.2× / 1.5× at p50 / p95 / p99 for
//!    the better policy.
//!
//! The full ordering needs runs long enough for C3's rate-control
//! oscillations and FIFO head-of-line blocking to surface, so the
//! at-scale test is ignored by default; run it with
//! `cargo test --release -p brb-lab --test paper_claims -- --ignored`.

use brb_core::experiment::StrategySummary;
use brb_lab::{registry, runner, ScenarioBuilder};

/// Runs the five Figure 2 strategies on `figure2-small` at the given
/// scale and returns their across-seed summaries.
fn run_figure2(num_tasks: usize, seeds: &[u64]) -> Vec<StrategySummary> {
    let spec = ScenarioBuilder::from_spec(registry::spec("figure2-small").unwrap())
        .tasks(num_tasks)
        .seeds(seeds)
        .build()
        .unwrap();
    let mut cells = runner::run_spec(&spec).unwrap();
    assert_eq!(cells.len(), 1, "figure2-small has no sweep axis");
    cells.remove(0).summaries
}

fn find<'a>(summaries: &'a [StrategySummary], name: &str) -> &'a StrategySummary {
    summaries
        .iter()
        .find(|s| s.strategy == name)
        .unwrap_or_else(|| panic!("missing strategy {name}"))
}

/// One checked claim: its label, whether it holds, and the numbers.
#[derive(Debug)]
struct ClaimCheck {
    claim: String,
    holds: bool,
    detail: String,
}

/// Checks the paper's quantitative claims against measured summaries.
fn check_claims(summaries: &[StrategySummary]) -> Vec<ClaimCheck> {
    let c3 = find(summaries, "C3");
    let emc = find(summaries, "EqualMax - Credits");
    let emm = find(summaries, "EqualMax - Model");
    let uic = find(summaries, "UniformIncr - Credits");
    let uim = find(summaries, "UniformIncr - Model");

    let mut checks = Vec::new();

    // Claim 1: credits within 38% of model at p99, per policy.
    for (label, credits, model) in [("EqualMax", emc, emm), ("UniformIncr", uic, uim)] {
        let ratio = credits.p99_ms.mean / model.p99_ms.mean;
        checks.push(ClaimCheck {
            claim: format!("{label}: credits within 38% of model at p99"),
            holds: ratio <= 1.38,
            detail: format!(
                "credits {:.2}ms vs model {:.2}ms → ratio {:.2} (claim ≤ 1.38)",
                credits.p99_ms.mean, model.p99_ms.mean, ratio
            ),
        });
    }

    // Claim 2a: BRB beats C3 at every percentile (both policies, credits
    // realization — the realizable system).
    for (label, brb) in [("EqualMax", emc), ("UniformIncr", uic)] {
        let wins = c3.p50_ms.mean > brb.p50_ms.mean
            && c3.p95_ms.mean > brb.p95_ms.mean
            && c3.p99_ms.mean > brb.p99_ms.mean;
        checks.push(ClaimCheck {
            claim: format!("{label}-Credits beats C3 across all percentiles"),
            holds: wins,
            detail: format!(
                "C3 {:.2}/{:.2}/{:.2}ms vs BRB {:.2}/{:.2}/{:.2}ms (p50/p95/p99)",
                c3.p50_ms.mean,
                c3.p95_ms.mean,
                c3.p99_ms.mean,
                brb.p50_ms.mean,
                brb.p95_ms.mean,
                brb.p99_ms.mean
            ),
        });
    }

    // Claim 2b: the improvement factors (paper: up to 3x at median/95th,
    // up to 2x at 99th). Require ≥1.3x / ≥1.2x / ≥1.5x for the better
    // policy.
    let f50 = c3.p50_ms.mean / emc.p50_ms.mean.min(uic.p50_ms.mean);
    let f95 = c3.p95_ms.mean / emc.p95_ms.mean.min(uic.p95_ms.mean);
    let f99 = c3.p99_ms.mean / emc.p99_ms.mean.min(uic.p99_ms.mean);
    checks.push(ClaimCheck {
        claim: "C3→BRB improvement factors in the paper's direction".into(),
        holds: f50 >= 1.3 && f95 >= 1.2 && f99 >= 1.5,
        detail: format!("median {f50:.2}x, 95th {f95:.2}x, 99th {f99:.2}x (paper: up to 3x/3x/2x)"),
    });

    checks
}

/// Prints the claim report (`--nocapture` shows it): one PASS / MISS
/// line per claim with the numbers behind it.
fn print_claims(checks: &[ClaimCheck]) {
    for c in checks {
        let verdict = if c.holds { "PASS" } else { "MISS" };
        eprintln!("[{verdict}] {}\n      {}", c.claim, c.detail);
    }
}

/// A scaled-down Figure 2 runs all five strategies and preserves the
/// invariants that are stable even on short runs: the ideal model never
/// loses to its realizable counterpart, and the model beats
/// task-oblivious C3. (The full Credits-vs-C3 ordering needs several
/// virtual seconds to emerge — see `figure2_ordering_at_scale`.)
#[test]
fn quick_figure2_preserves_ordering() {
    let summaries = run_figure2(12_000, &[1, 2]);
    assert_eq!(summaries.len(), 5);
    let c3 = find(&summaries, "C3");
    let emc = find(&summaries, "EqualMax - Credits");
    let emm = find(&summaries, "EqualMax - Model");
    let uim = find(&summaries, "UniformIncr - Model");
    assert!(
        emm.p99_ms.mean <= emc.p99_ms.mean * 1.05,
        "model {:.2} must not lose to credits {:.2}",
        emm.p99_ms.mean,
        emc.p99_ms.mean
    );
    for model in [emm, uim] {
        assert!(
            model.p99_ms.mean < c3.p99_ms.mean,
            "model {:.2} must beat C3 {:.2}",
            model.p99_ms.mean,
            c3.p99_ms.mean
        );
    }
    let checks = check_claims(&summaries);
    assert_eq!(checks.len(), 5);
    print_claims(&checks);
}

/// The paper's full ordering (Model ≤ Credits < C3 at every percentile)
/// at 60k tasks.
#[test]
#[ignore = "expensive: ~60k-task runs; run with --release -- --ignored"]
fn figure2_ordering_at_scale() {
    let summaries = run_figure2(60_000, &[1]);
    let c3 = find(&summaries, "C3");
    for name in ["EqualMax", "UniformIncr"] {
        let credits = find(&summaries, &format!("{name} - Credits"));
        let model = find(&summaries, &format!("{name} - Model"));
        assert!(model.p99_ms.mean <= credits.p99_ms.mean);
        assert!(
            credits.p99_ms.mean < c3.p99_ms.mean,
            "{name}: credits {:.2} must beat C3 {:.2}",
            credits.p99_ms.mean,
            c3.p99_ms.mean
        );
        assert!(credits.p50_ms.mean < c3.p50_ms.mean);
        assert!(credits.p95_ms.mean < c3.p95_ms.mean);
    }
    print_claims(&check_claims(&summaries));
}
