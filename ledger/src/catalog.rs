//! The names the ledger emits: workloads, end-to-end metrics and
//! per-layer metrics, each with its unit, its direction and — for the
//! per-layer ones — which end-to-end metric it should move and where.
//!
//! This table is the single source the binary prints from and
//! `ledger check` compares `BENCHMARK.json` against, so the JSON and the
//! binary cannot drift. Regression bounds are data, not code: they live
//! in `BENCHMARK.json` only.

use Better::{Higher, Lower};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadInfo {
    pub name: &'static str,
    /// Why the workload exists (one line, mirrored in `BENCHMARK.json`).
    pub why: &'static str,
}

/// One end-to-end metric, reported by every workload with tracing off.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// What is measured, on which clock.
    pub definition: &'static str,
}

/// One per-layer metric, reported by traced runs.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Which end-to-end metric this should move, on which workload.
    pub moves: &'static str,
}

pub const WORKLOADS: &[WorkloadInfo] = &[
    WorkloadInfo {
        name: "sim-figure2",
        why: "the paper's figure-2 sweep on the simulator, ~90% inside Simulation::run: engine and kernel changes show here, no overload knobs so nothing may fail",
    },
    WorkloadInfo {
        name: "sim-overload",
        why: "same engine past saturation: timeouts, backoff, retry budget, NACKs, drops and hedge timers; a happy-path gain that costs the lifecycle code shows here",
    },
    WorkloadInfo {
        name: "lab-capacity-sweep",
        why: "many small cells on the unscaled catalog through run/report/parse/compare/capacity: workload and lab layers dominate, engine changes must predict no change",
    },
    WorkloadInfo {
        name: "rt-floor",
        why: "zero service time on the live runtime under a closed loop (window 32, fan-out 4): only selection, channels, router, queue and wake-up cost are left",
    },
    WorkloadInfo {
        name: "rt-steady",
        why: "live runtime, open-loop Poisson at load 0.6 with native credits: service >> overhead, so timer precision and queueing policy move it, rt overhead does not",
    },
    WorkloadInfo {
        name: "rt-overload",
        why: "live overload lifecycle at load 1.2: bounded CoDel queues on real sojourn, wall-clock deadlines, budgeted retries, NACK classification",
    },
];

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        definition: "one set-up (spec parse + validate + 1/20-size warm-up; timer calibration on the first), median of 5, host clock",
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Lower,
        definition: "one timed section as listed per workload (rt: cluster start, populate, load, drain, shutdown), best quartile over sections, host clock",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Lower,
        definition: "VmHWM of the workload's process at exit",
    },
    EndToEnd {
        name: "tasks_per_s",
        unit: "tasks/s",
        better: Higher,
        definition: "completed tasks per host second: sim/lab = simulated tasks completed / wall_s; rt = completed tasks / load-run wall time (goodput)",
    },
    EndToEnd {
        name: "delivered_share",
        unit: "ratio",
        better: Higher,
        definition: "completed / issued tasks over the first three sections' runs; 1 exactly wherever no overload knob is set",
    },
    EndToEnd {
        name: "task_p50_ms",
        unit: "ms",
        better: Lower,
        definition: "median task latency: rt = wall clock (from intended arrival on open loops, from submit on rt-floor); sim/lab = simulated clock, median over the section's runs",
    },
    EndToEnd {
        name: "task_p95_ms",
        unit: "ms",
        better: Lower,
        definition: "95th-percentile task latency, same clocks and aggregation (p99 cannot hold a bound within the run-time cap: see rt.task_p99_ms, core.sim_p99_ms.*)",
    },
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const WL_LAB: &str = "wall_s @ lab-capacity-sweep (most of it today); < 5% @ sim-*";
const CORE_SIM: &str = "tasks_per_s, wall_s @ sim-figure2, sim-overload";
const CORE_COUNT: &str =
    "behaviour, not speed: repeats exactly per seed; 0 @ sim-figure2, nonzero only @ sim-overload";
const UNIT_SIM: &str =
    "tasks_per_s @ sim-figure2 (unit cost x exact count = the layer's estimated share)";
const LAB_SMALL: &str = "wall_s @ lab-capacity-sweep (< 2% today: where not to optimise)";
const RT_FLOOR: &str = "tasks_per_s, task_p50_ms @ rt-floor; predicted no change @ rt-steady";
const RT_REPORT: &str =
    "task_p95_ms @ rt-steady, rt-overload (overshoot up => utilisation up => tail up before tasks_per_s moves)";
const RT_FAIL: &str = "delivered_share, tasks_per_s @ rt-overload; 0 @ rt-steady";

pub const PER_LAYER: &[PerLayer] = &[
    // workload
    layer("workload.trace_gen_s", "s", Lower, WL_LAB),
    layer("workload.trace_gen_calls", "count", Lower, WL_LAB),
    layer("workload.catalog_build_ms", "ms", Lower, WL_LAB),
    layer("workload.trace_draw_ns_per_task", "ns", Lower, WL_LAB),
    layer("workload.trace_mb", "MiB", Lower, "peak_rss_mb @ sim-figure2"),
    layer("workload.self_s", "s", Lower, WL_LAB),
    // core
    layer("core.world_build_s", "s", Lower, CORE_SIM),
    layer("core.run_s", "s", Lower, CORE_SIM),
    layer("core.collect_s", "s", Lower, CORE_SIM),
    layer("core.self_s", "s", Lower, CORE_SIM),
    layer("core.events", "count", Lower, "behaviour, not speed: repeats exactly per seed"),
    layer("core.events_per_s", "1/s", Higher, CORE_SIM),
    layer("core.ns_per_event", "ns", Lower, CORE_SIM),
    layer("core.dispatched", "count", Lower, "behaviour, not speed: repeats exactly per seed"),
    layer("core.dispatch_amplification", "ratio", Lower, "1 @ sim-figure2; > 1 @ sim-overload (retries + hedges)"),
    layer("core.timeouts_fired", "count", Lower, CORE_COUNT),
    layer("core.retries_issued", "count", Lower, CORE_COUNT),
    layer("core.requests_dropped", "count", Lower, CORE_COUNT),
    layer("core.hedges_issued", "count", Lower, CORE_COUNT),
    layer("core.duplicate_responses", "count", Lower, CORE_COUNT),
    layer("core.unattributed_share", "ratio", Lower, "a finding, not a target: run time no layer's unit cost explains"),
    layer("core.sim_p99_ms.c3", "ms", Lower, "task_p95_ms @ sim-*: simulated p99 of one strategy, repeats exactly per seed"),
    layer("core.sim_p99_ms.brb", "ms", Lower, "task_p95_ms @ sim-*: simulated p99 of one strategy, repeats exactly per seed"),
    layer("core.result_digest_ok", "bool", Higher, "output check: traced and untraced digests agree (and match baseline.json at the default seed)"),
    // sim
    layer("sim.calendar_ns_per_op", "ns", Lower, UNIT_SIM),
    layer("sim.hop_lane_ns_per_op", "ns", Lower, UNIT_SIM),
    layer("sim.normal_ns", "ns", Lower, UNIT_SIM),
    layer("sim.exp_ns", "ns", Lower, "wall_s @ lab-capacity-sweep (arrival gaps in trace generation)"),
    layer("sim.alias_ns", "ns", Lower, "wall_s @ lab-capacity-sweep (Zipf draws in trace generation)"),
    layer("sim.calendar_est_share", "ratio", Lower, UNIT_SIM),
    layer("sim.sampler_est_share", "ratio", Lower, UNIT_SIM),
    // net
    layer("net.hop_resolve_ns", "ns", Lower, UNIT_SIM),
    layer("net.est_share", "ratio", Lower, "tasks_per_s @ sim-figure2 (constant mesh: expected ~0)"),
    // sched
    layer("sched.pq_ns_per_op", "ns", Lower, "tasks_per_s @ sim-figure2 and @ rt-floor"),
    layer("sched.credits_allocate_us", "us", Lower, UNIT_SIM),
    layer("sched.credits_epochs", "count", Lower, "derived: simulated seconds of Credits runs / adaptation interval"),
    layer("sched.bounded_enqueue_ns", "ns", Lower, "tasks_per_s @ sim-overload (Bounded + CoDel)"),
    layer("sched.est_share", "ratio", Lower, "tasks_per_s @ sim-figure2 (pq, credits), @ sim-overload (bounded/CoDel)"),
    // select
    layer("select.c3_extra_ns_per_dispatch", "ns", Lower, "tasks_per_s @ sim-figure2 (C3+FIFO vs random+FIFO on one trace)"),
    // store
    layer("store.service_sample_ns", "ns", Lower, "tasks_per_s @ sim-*"),
    layer("store.kv_get_ns", "ns", Lower, "tasks_per_s @ rt-floor"),
    // metrics
    layer("metrics.hist_record_ns", "ns", Lower, UNIT_SIM),
    layer("metrics.percentiles_us", "us", Lower, "wall_s @ sim-* (three per run, in collect)"),
    layer("metrics.bootstrap_ms", "ms", Lower, "wall_s @ lab-capacity-sweep (compare)"),
    layer("metrics.est_share", "ratio", Lower, UNIT_SIM),
    layer("metrics.self_s", "s", Lower, "wall_s @ sim-*"),
    // lab
    layer("lab.spec_parse_ms", "ms", Lower, LAB_SMALL),
    layer("lab.lower_ms", "ms", Lower, LAB_SMALL),
    layer("lab.report_write_ms", "ms", Lower, LAB_SMALL),
    layer("lab.report_bytes", "bytes", Lower, LAB_SMALL),
    layer("lab.report_parse_ms", "ms", Lower, LAB_SMALL),
    layer("lab.compare_ms", "ms", Lower, LAB_SMALL),
    layer("lab.capacity_ms", "ms", Lower, LAB_SMALL),
    layer("lab.markdown_ms", "ms", Lower, LAB_SMALL),
    layer("lab.self_s", "s", Lower, LAB_SMALL),
    // rt: the benchmark's own loop (rt-floor)
    layer("rt.cluster_start_ms", "ms", Lower, "wall_s @ rt-*"),
    layer("rt.populate_ms", "ms", Lower, "wall_s @ rt-*"),
    layer("rt.shutdown_ms", "ms", Lower, "wall_s @ rt-*"),
    layer("rt.submit_us_p50", "us", Lower, RT_FLOOR),
    layer("rt.submit_us_p99", "us", Lower, RT_FLOOR),
    layer("rt.wait_us_p50", "us", Lower, RT_FLOOR),
    layer("rt.request_rtt_us_p50", "us", Lower, RT_FLOOR),
    layer("rt.request_rtt_us_p99", "us", Lower, RT_FLOOR),
    layer("rt.cpu_us_per_request", "us", Lower, RT_FLOOR),
    layer("rt.ctx_switches_per_request", "ratio", Lower, RT_FLOOR),
    layer("rt.served_imbalance", "ratio", Lower, RT_FLOOR),
    // rt: report + probes (rt-steady, rt-overload)
    layer("rt.spin_reserve_us", "us", Lower, RT_REPORT),
    layer("rt.timer_overshoot_us_p50", "us", Lower, RT_REPORT),
    layer("rt.timer_overshoot_us_p99", "us", Lower, RT_REPORT),
    layer("rt.util_over_offered", "ratio", Lower, RT_REPORT),
    layer("rt.run_over_schedule_ms", "ms", Lower, "the from-outside stand-in for generator lag + drain; task_p95_ms @ rt-steady"),
    layer("rt.task_p99_ms", "ms", Lower, "the paper's metric, wall clock; per-layer because 1000-task sections leave it +-20% seed to seed (task_p95_ms is the gated tail)"),
    layer("rt.request_p99_ms", "ms", Lower, "rt.task_p99_ms @ rt-steady, rt-overload (slowest of ~9 parts sets task time)"),
    layer("rt.demand_reports", "count", Lower, "credits lane alive @ rt-steady; 0 @ rt-overload"),
    layer("rt.congestion_signals", "count", Lower, "credits lane @ rt-steady"),
    layer("rt.retries", "count", Lower, RT_FAIL),
    layer("rt.dropped", "count", Lower, RT_FAIL),
    layer("rt.timed_out", "count", Lower, RT_FAIL),
    layer("rt.shed", "count", Lower, RT_FAIL),
    layer("rt.cpu_s", "s", Lower, "host cost of one rt timed section"),
    layer("rt.self_s", "s", Lower, "wall_s @ rt-*"),
    // bench: the harness's own error bars
    layer("bench.traced_wall_s", "s", Lower, "identity: layer self times + bench.root_self_s sum to this"),
    layer("bench.root_self_s", "s", Lower, "harness time inside a traced section that no layer span covers"),
    layer("bench.trace_overhead_pct", "%", Lower, "traced vs untraced wall_s in the same process"),
    layer("bench.repeat_spread_pct", "%", Lower, "(max - min) / median of untraced wall_s over repeats"),
];

/// The layers that own spans (the rest are estimated inside
/// `core.run`), each with the metric that reports its self time.
pub const SPAN_LAYERS: &[(&str, &str)] = &[
    ("workload", "workload.self_s"),
    ("core", "core.self_s"),
    ("metrics", "metrics.self_s"),
    ("lab", "lab.self_s"),
    ("rt", "rt.self_s"),
];

/// Whether `name` fits the contract's `[A-Za-z0-9][A-Za-z0-9_.-]{0,63}`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    first.is_ascii_alphanumeric()
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` fits the contract's unit alphabet.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_and_unit_is_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(valid_name(name), "bad name {name:?}");
            assert!(seen.insert(name), "duplicate name {name:?}");
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(valid_unit(unit), "bad unit {unit:?}");
        }
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(PER_LAYER.iter().all(|m| !m.moves.is_empty()));
    }

    #[test]
    fn name_rule_rejects_what_the_contract_rejects() {
        assert!(valid_name("core.sim_p99_ms.c3"));
        assert!(!valid_name(""));
        assert!(!valid_name(".leading-dot"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("tasks/s") && valid_unit("%") && !valid_unit("per second"));
    }
}
