//! Kernel wall-clock benchmark: measures the simulation substrate end to
//! end and writes `BENCH_kernel.json`.
//!
//! Four sections:
//!
//! * **calendar** — the timer-wheel [`Calendar`] against the reference
//!   [`HeapCalendar`] on a steady-state 1k-event window with engine-like
//!   deltas.
//! * **model** — the `brb_sim::dist` fast samplers against the baselines
//!   they replaced: ziggurat vs. Box–Muller standard normals, ziggurat
//!   vs. inverse-CDF exponentials, and O(1) alias-table Zipf draws vs.
//!   the old cumulative-table binary search.
//! * **net** — the compiled `FabricPlan` fast path against the
//!   per-message `Fabric::delay` slow path: per-hop resolution cost on
//!   the paper's constant mesh, plus the same sequential sweep run once
//!   per mode (`PlanMode::PerMessage` is the original network path, kept
//!   callable precisely for this before/after and for the differential
//!   tests).
//! * **sweep** — a 3-strategy × 4-seed `figure2-small` preset sweep,
//!   sequential vs. parallel ([`run_strategies_multi_seed`] on
//!   [`worker_count`] threads), with the engine's own event counts folded
//!   into an events/second throughput figure. On a multi-core host the
//!   speedup tracks the worker count; the recorded `threads` field says
//!   what this machine offered.
//!
//! Usage: `cargo run --release --example kernel_bench -- [tasks]`
//! (default 8000 tasks per cell; the JSON lands in the working directory).

use brb::core::config::Strategy;
use brb::core::experiment::{
    run_strategies_multi_seed, run_strategies_multi_seed_sequential, worker_count, StrategySummary,
};
use brb::lab::registry;
use brb::net::{Fabric, FabricPlan, NetNodeId, PlanMode};
use brb::sim::dist::{standard_exp, standard_exp_inv_cdf, standard_normal};
use brb::sim::{BoxMuller, Calendar, DetRng, HeapCalendar, SimTime};
use brb::workload::Zipf;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

/// One timed calendar implementation.
#[derive(Debug, Serialize)]
struct CalendarBench {
    /// Nanoseconds per push+pop pair, steady state.
    ns_per_op: f64,
    /// Million operations per second.
    mops: f64,
}

/// The calendar section: wheel vs. heap baseline.
#[derive(Debug, Serialize)]
struct CalendarSection {
    wheel: CalendarBench,
    heap_baseline: CalendarBench,
    /// wheel speedup over the heap baseline (>1 means the wheel wins).
    speedup: f64,
}

/// Ziggurat vs. Box–Muller standard normals.
#[derive(Debug, Serialize)]
struct NormalBench {
    ziggurat_ns: f64,
    box_muller_ns: f64,
    /// box_muller / ziggurat (>1 means the ziggurat wins).
    speedup: f64,
}

/// Ziggurat vs. inverse-CDF standard exponentials.
#[derive(Debug, Serialize)]
struct ExpBench {
    ziggurat_ns: f64,
    inverse_cdf_ns: f64,
    /// inverse_cdf / ziggurat.
    speedup: f64,
}

/// Alias-table vs. cumulative-scan Zipf rank draws.
#[derive(Debug, Serialize)]
struct ZipfBench {
    /// Ranks in the sampled universe.
    universe: u64,
    alias_ns: f64,
    cdf_scan_ns: f64,
    /// cdf_scan / alias.
    speedup: f64,
}

/// The model-math section: the `brb_sim::dist` fast path against the
/// baselines it replaced.
#[derive(Debug, Serialize)]
struct ModelSection {
    normal: NormalBench,
    exp: ExpBench,
    zipf: ZipfBench,
}

/// One timed sweep execution.
#[derive(Debug, Serialize)]
struct SweepRun {
    wall_secs: f64,
    /// Simulation events executed per wall-clock second, across cells.
    events_per_sec: f64,
}

/// Per-hop resolution cost: compiled plan vs. per-message fabric draw.
#[derive(Debug, Serialize)]
struct HopBench {
    plan_ns: f64,
    one_way_ns: f64,
    /// one_way / plan (>1 means the compiled plan wins).
    speedup: f64,
}

/// End-to-end network-path comparison: the same sequential sweep with
/// the engine forced onto each path.
#[derive(Debug, Serialize)]
struct NetSweepBench {
    /// Forced `Fabric::delay`-per-message build (the original path).
    per_message_events_per_sec: f64,
    /// Compiled `FabricPlan` + calendar hop lane (the default).
    compiled_events_per_sec: f64,
    /// compiled / per_message (>1 means the fast path wins).
    speedup: f64,
}

/// The network fast-path section.
#[derive(Debug, Serialize)]
struct NetSection {
    hop: HopBench,
    sweep: NetSweepBench,
}

/// The end-to-end sweep section.
#[derive(Debug, Serialize)]
struct SweepSection {
    strategies: Vec<String>,
    seeds: Vec<u64>,
    tasks_per_cell: usize,
    /// Total simulation events across all cells.
    total_events: u64,
    sequential: SweepRun,
    parallel: SweepRun,
    /// Workers the parallel run used.
    threads: usize,
    /// parallel speedup over sequential (≈ thread count on idle cores).
    speedup: f64,
}

/// The whole `BENCH_kernel.json` document.
#[derive(Debug, Serialize)]
struct KernelBench {
    calendar: CalendarSection,
    model: ModelSection,
    net: NetSection,
    sweep: SweepSection,
}

/// Nanoseconds per draw of `f`, accumulated so the draws cannot be
/// optimized away.
fn time_draws<F: FnMut(&mut DetRng) -> f64>(seed: u64, iters: u64, mut f: F) -> f64 {
    let mut rng = DetRng::seed_from_u64(seed);
    // Warm caches and branch predictors.
    let mut acc = 0.0;
    for _ in 0..(iters / 10).max(1) {
        acc += f(&mut rng);
    }
    let start = Instant::now();
    for _ in 0..iters {
        acc += f(&mut rng);
    }
    let ns = start.elapsed().as_nanos() as f64 / iters as f64;
    black_box(acc);
    ns
}

/// Times the model-math samplers against their baselines.
fn bench_model() -> ModelSection {
    const DRAWS: u64 = 8_000_000;
    let ziggurat_ns = time_draws(1, DRAWS, standard_normal);
    let mut bm = BoxMuller::new();
    let box_muller_ns = time_draws(2, DRAWS, |r| bm.sample(r));
    let zig_exp_ns = time_draws(3, DRAWS, standard_exp);
    let inverse_cdf_ns = time_draws(4, DRAWS, standard_exp_inv_cdf);

    // Zipf over a 100k-rank universe (the synthetic workload's scale).
    const UNIVERSE: u64 = 100_000;
    const ZIPF_DRAWS: u64 = 2_000_000;
    let zipf = Zipf::new(UNIVERSE, 0.9);
    let alias_ns = time_draws(5, ZIPF_DRAWS, |r| zipf.sample(r) as f64);
    // The pre-alias baseline: binary search over the cumulative table.
    let mut cdf = Vec::with_capacity(UNIVERSE as usize);
    let mut acc = 0.0;
    for rank in 0..UNIVERSE {
        acc += zipf.pmf(rank);
        cdf.push(acc);
    }
    let cdf_scan_ns = time_draws(6, ZIPF_DRAWS, |r| {
        let u = r.random::<f64>();
        cdf.partition_point(|&c| c < u).min(UNIVERSE as usize - 1) as f64
    });

    ModelSection {
        normal: NormalBench {
            ziggurat_ns,
            box_muller_ns,
            speedup: box_muller_ns / ziggurat_ns,
        },
        exp: ExpBench {
            ziggurat_ns: zig_exp_ns,
            inverse_cdf_ns,
            speedup: inverse_cdf_ns / zig_exp_ns,
        },
        zipf: ZipfBench {
            universe: UNIVERSE,
            alias_ns,
            cdf_scan_ns,
            speedup: cdf_scan_ns / alias_ns,
        },
    }
}

/// Steady-state push/pop timing over a 1k window with engine-like deltas
/// (50–450µs ahead of the popped event).
macro_rules! time_calendar {
    ($cal:expr, $iters:expr) => {{
        let mut cal = $cal;
        for i in 0..1_000u64 {
            cal.push(SimTime::from_nanos(i * 350), i);
        }
        let mut t = 100_000u64;
        // Warm up the allocations and the branch predictor.
        for _ in 0..50_000 {
            let (when, tag) = cal.pop().unwrap();
            t += 137;
            cal.push(
                SimTime::from_nanos(when.as_nanos() + 50_000 + t % 400_000),
                tag,
            );
        }
        let start = Instant::now();
        for _ in 0..$iters {
            let (when, tag) = cal.pop().unwrap();
            t += 137;
            cal.push(
                SimTime::from_nanos(when.as_nanos() + 50_000 + t % 400_000),
                tag,
            );
        }
        let ns = start.elapsed().as_nanos() as f64 / $iters as f64;
        CalendarBench {
            ns_per_op: ns,
            mops: 1e3 / ns,
        }
    }};
}

/// Times the per-hop resolution paths on the paper's constant mesh.
/// The fast path is what the engine executes per hop — reading the
/// cached delta, no endpoint math at all — while the slow path rotates
/// endpoints across the pair space so it cannot win by
/// branch-predicting a single `(from, to)`.
fn bench_hop() -> HopBench {
    const DRAWS: u64 = 8_000_000;
    const NODES: u64 = 28; // 18 clients + 9 servers + controller
    let fabric = Fabric::paper_default();
    let plan = FabricPlan::compile(fabric.clone(), NODES);
    let uniform = plan.uniform_const().expect("constant mesh compiles");
    let plan_ns = time_draws(7, DRAWS, |_| black_box(uniform).as_nanos() as f64);
    let mut j = 0u64;
    let mut rng2 = DetRng::seed_from_u64(8);
    let one_way_ns = time_draws(8, DRAWS, |_| {
        j += 1;
        let from = NetNodeId::new(j % NODES);
        let to = NetNodeId::new((j + 7) % NODES);
        fabric.delay(from, to, 4_096, &mut rng2).as_nanos() as f64
    });
    HopBench {
        plan_ns,
        one_way_ns,
        speedup: one_way_ns / plan_ns,
    }
}

fn total_events(summaries: &[StrategySummary]) -> u64 {
    summaries
        .iter()
        .flat_map(|s| s.runs.iter())
        .map(|r| r.events)
        .sum()
}

fn main() {
    let tasks: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(8_000);
    const ITERS: u64 = 2_000_000;

    eprintln!("calendar: timing wheel vs heap baseline ({ITERS} ops)...");
    let wheel = time_calendar!(Calendar::new(), ITERS);
    let heap = time_calendar!(HeapCalendar::new(), ITERS);
    let cal_section = CalendarSection {
        speedup: heap.ns_per_op / wheel.ns_per_op,
        wheel,
        heap_baseline: heap,
    };

    eprintln!("model: ziggurat/alias samplers vs baselines...");
    let model = bench_model();

    let strategies = vec![
        Strategy::c3(),
        Strategy::equal_max_credits(),
        Strategy::equal_max_model(),
    ];
    let seeds = vec![1u64, 2, 3, 4];
    let base = registry::builder("figure2-small")
        .expect("registry preset")
        .tasks(tasks)
        .build_config(Strategy::c3(), 0)
        .expect("valid scenario");
    let threads = worker_count();

    eprintln!(
        "sweep: {} strategies x {} seeds x {tasks} tasks, sequential...",
        strategies.len(),
        seeds.len()
    );
    let start = Instant::now();
    let seq_out = run_strategies_multi_seed_sequential(&base, &strategies, &seeds);
    let seq_secs = start.elapsed().as_secs_f64();
    let events = total_events(&seq_out);

    eprintln!("sweep: parallel across {threads} threads...");
    let start = Instant::now();
    let par_out = run_strategies_multi_seed(&base, &strategies, &seeds);
    let par_secs = start.elapsed().as_secs_f64();
    assert_eq!(total_events(&par_out), events, "parallel run diverged");

    eprintln!("net: per-hop resolution, plan vs one_way...");
    let hop = bench_hop();
    eprintln!("net: the same sweep per network path (interleaved, best of 3)...");
    // Interleave the two modes and keep each mode's minimum wall time:
    // a single-shot A/B on a shared machine attributes scheduler noise
    // to whichever mode the spike landed on, while minima compare the
    // uncontended cost of each path.
    let mut slow_base = base.clone();
    slow_base.net = PlanMode::PerMessage;
    let (mut slow_secs, mut fast_secs) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        let start = Instant::now();
        let slow_out = run_strategies_multi_seed_sequential(&slow_base, &strategies, &seeds);
        slow_secs = slow_secs.min(start.elapsed().as_secs_f64());
        // The two network paths must be invisible in the results (the
        // lab differential tests pin this per preset; cheap to
        // re-assert here).
        assert_eq!(total_events(&slow_out), events, "slow path diverged");
        let start = Instant::now();
        let fast_out = run_strategies_multi_seed_sequential(&base, &strategies, &seeds);
        fast_secs = fast_secs.min(start.elapsed().as_secs_f64());
        assert_eq!(total_events(&fast_out), events, "fast path diverged");
    }
    let net = NetSection {
        hop,
        sweep: NetSweepBench {
            per_message_events_per_sec: events as f64 / slow_secs,
            compiled_events_per_sec: events as f64 / fast_secs,
            speedup: slow_secs / fast_secs,
        },
    };

    let doc = KernelBench {
        calendar: cal_section,
        model,
        net,
        sweep: SweepSection {
            strategies: strategies.iter().map(|s| s.name()).collect(),
            seeds,
            tasks_per_cell: tasks,
            total_events: events,
            sequential: SweepRun {
                wall_secs: seq_secs,
                events_per_sec: events as f64 / seq_secs,
            },
            parallel: SweepRun {
                wall_secs: par_secs,
                events_per_sec: events as f64 / par_secs,
            },
            threads,
            speedup: seq_secs / par_secs,
        },
    };

    let json = serde_json::to_string_pretty(&doc).expect("serialize bench document");
    std::fs::write("BENCH_kernel.json", &json).expect("write BENCH_kernel.json");
    println!("{json}");
    eprintln!(
        "calendar: wheel {:.1} ns/op vs heap {:.1} ns/op ({:.2}x); \
         model: normal {:.1} vs {:.1} ns ({:.2}x), exp {:.1} vs {:.1} ns ({:.2}x), \
         zipf {:.1} vs {:.1} ns ({:.2}x); \
         net: hop {:.2} vs {:.2} ns ({:.2}x), sweep {:.2}M ev/s compiled vs \
         {:.2}M per-message ({:.2}x); \
         sweep: {:.2}s sequential vs {:.2}s parallel ({:.2}x on {} threads); \
         wrote BENCH_kernel.json",
        doc.calendar.wheel.ns_per_op,
        doc.calendar.heap_baseline.ns_per_op,
        doc.calendar.speedup,
        doc.model.normal.ziggurat_ns,
        doc.model.normal.box_muller_ns,
        doc.model.normal.speedup,
        doc.model.exp.ziggurat_ns,
        doc.model.exp.inverse_cdf_ns,
        doc.model.exp.speedup,
        doc.model.zipf.alias_ns,
        doc.model.zipf.cdf_scan_ns,
        doc.model.zipf.speedup,
        doc.net.hop.plan_ns,
        doc.net.hop.one_way_ns,
        doc.net.hop.speedup,
        doc.net.sweep.compiled_events_per_sec / 1e6,
        doc.net.sweep.per_message_events_per_sec / 1e6,
        doc.net.sweep.speedup,
        doc.sweep.sequential.wall_secs,
        doc.sweep.parallel.wall_secs,
        doc.sweep.speedup,
        doc.sweep.threads,
    );
}
