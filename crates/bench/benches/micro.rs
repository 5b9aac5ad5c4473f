//! Microbenchmarks for the hot-path substrates: the calendar (timer
//! wheel vs. the `HeapCalendar` baseline — the headline comparison for
//! the kernel rework, also recorded by `--bin kernel_bench` into
//! `BENCH_kernel.json`), the stable priority queue, the samplers, the
//! histogram and priority assignment. These are the operations executed
//! millions of times per Figure 2 cell. The `workload` group times what
//! a sweep pays once per seed instead: the playlist catalog build (the
//! unscaled 1M-track / 100k-playlist shape and `scale_catalog`'s 500k /
//! 50k) and the per-cell trace draw from a built catalog.

use brb_metrics::Histogram;
use brb_sched::{PolicyKind, Priority, PriorityPolicy, PriorityQueue, RequestQueue, TaskView};
use brb_sim::{Calendar, HeapCalendar, RngFactory, SimTime};
use brb_workload::soundcloud::{SoundCloudConfig, SoundCloudModel};
use brb_workload::{FanoutDist, GeneralizedPareto, PoissonProcess, Zipf};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_calendar(c: &mut Criterion) {
    let mut g = c.benchmark_group("calendar");
    g.throughput(Throughput::Elements(1));
    // Steady-state window of 1k events with engine-like deltas (a 50µs
    // network hop up to ~450µs of service): the regime both
    // implementations live in during a figure2 run. The wheel must beat
    // the heap here.
    g.bench_function("push_pop_1k_window", |b| {
        let mut cal = Calendar::new();
        for i in 0..1_000u64 {
            cal.push(SimTime::from_nanos(i * 350), i);
        }
        let mut t = 100_000u64;
        b.iter(|| {
            let (when, _) = cal.pop().unwrap();
            t += 137;
            cal.push(
                SimTime::from_nanos(when.as_nanos() + 50_000 + t % 400_000),
                0,
            );
        });
    });
    g.bench_function("push_pop_1k_window_heap_baseline", |b| {
        let mut cal = HeapCalendar::new();
        for i in 0..1_000u64 {
            cal.push(SimTime::from_nanos(i * 350), i);
        }
        let mut t = 100_000u64;
        b.iter(|| {
            let (when, _) = cal.pop().unwrap();
            t += 137;
            cal.push(
                SimTime::from_nanos(when.as_nanos() + 50_000 + t % 400_000),
                0,
            );
        });
    });
    // Adversarial: every event inside one wheel bucket (deltas below the
    // 16µs slot width). The wheel's drain heap degenerates to exactly the
    // baseline's structure, so this documents near-parity, not a win.
    g.bench_function("push_pop_1k_subslot_adversarial", |b| {
        let mut cal = Calendar::new();
        for i in 0..1_000u64 {
            cal.push(SimTime::from_nanos(i * 100), i);
        }
        let mut t = 100_000u64;
        b.iter(|| {
            let (when, _) = cal.pop().unwrap();
            t += 137;
            cal.push(SimTime::from_nanos(when.as_nanos() + t % 10_000), 0);
        });
    });
    // Engine-realistic deltas: a mix of 50µs network hops, ~300µs service
    // times and occasional 100ms ticks, window of 4k in-flight events.
    g.bench_function("push_pop_4k_engine_mix", |b| {
        let mut cal = Calendar::new();
        for i in 0..4_000u64 {
            cal.push(SimTime::from_nanos(i * 97), i);
        }
        let mut x = 0x9E37_79B9u64;
        b.iter(|| {
            let (when, tag) = cal.pop().unwrap();
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let delta = match x % 100 {
                0 => 100_000_000,           // controller tick
                1..=30 => 50_000,           // network hop
                _ => 150_000 + x % 400_000, // service time
            };
            cal.push(SimTime::from_nanos(when.as_nanos() + delta), tag);
        });
    });
    g.bench_function("push_pop_4k_engine_mix_heap_baseline", |b| {
        let mut cal = HeapCalendar::new();
        for i in 0..4_000u64 {
            cal.push(SimTime::from_nanos(i * 97), i);
        }
        let mut x = 0x9E37_79B9u64;
        b.iter(|| {
            let (when, tag) = cal.pop().unwrap();
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let delta = match x % 100 {
                0 => 100_000_000,
                1..=30 => 50_000,
                _ => 150_000 + x % 400_000,
            };
            cal.push(SimTime::from_nanos(when.as_nanos() + delta), tag);
        });
    });
    g.finish();
}

fn bench_priority_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("priority_queue");
    g.throughput(Throughput::Elements(1));
    g.bench_function("push_pop_1k_window", |b| {
        let mut q = PriorityQueue::new();
        for i in 0..1_000u64 {
            q.push(Priority(i % 100), i);
        }
        let mut i = 0u64;
        b.iter(|| {
            let _ = q.pop().unwrap();
            i += 1;
            q.push(Priority(i % 100), i);
        });
    });
    g.finish();
}

fn bench_samplers(c: &mut Criterion) {
    let mut g = c.benchmark_group("samplers");
    g.throughput(Throughput::Elements(1));

    g.bench_function("pareto_etc", |b| {
        let d = GeneralizedPareto::facebook_etc();
        let mut rng = StdRng::seed_from_u64(1);
        b.iter(|| black_box(d.sample_bytes(&mut rng, 1 << 20)));
    });

    g.bench_function("zipf_100k", |b| {
        let z = Zipf::new(100_000, 0.9);
        let mut rng = StdRng::seed_from_u64(2);
        b.iter(|| black_box(z.sample(&mut rng)));
    });

    g.bench_function("poisson_gap", |b| {
        let p = PoissonProcess::new(10_000.0);
        let mut rng = StdRng::seed_from_u64(3);
        b.iter(|| black_box(p.sample_gap_ns(&mut rng)));
    });

    g.bench_function("fanout_soundcloud", |b| {
        let f = FanoutDist::soundcloud_like();
        let mut rng = StdRng::seed_from_u64(4);
        b.iter(|| black_box(f.sample(&mut rng)));
    });

    g.finish();
}

fn bench_workload(c: &mut Criterion) {
    let shape = |num_tracks, num_playlists| SoundCloudConfig {
        num_tracks,
        num_playlists,
        playlist_zipf: 0.8,
        ..Default::default()
    };
    let factory = RngFactory::new(1);
    let mut g = c.benchmark_group("workload");
    // One build is ~0.1 s: three measured iterations, not ten.
    g.sample_size(30);
    for (name, num_tracks, num_playlists) in [
        ("catalog_build_1m_100k", 1_000_000, 100_000),
        ("catalog_build_500k_50k", 500_000, 50_000),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                SoundCloudModel::build(
                    shape(num_tracks, num_playlists),
                    &mut factory.stream("catalog"),
                )
            });
        });
    }
    // A capacity-sweep cell: 2000 tasks at the paper's 70 % task rate.
    const TASKS: usize = 2_000;
    g.throughput(Throughput::Elements(TASKS as u64));
    g.bench_function("trace_draw_2k_tasks", |b| {
        let model = SoundCloudModel::build(shape(500_000, 50_000), &mut factory.stream("catalog"));
        b.iter(|| model.generate_trace(TASKS, 10_255.0, &mut factory.stream("workload")));
    });
    g.finish();
}

fn bench_histogram(c: &mut Criterion) {
    let mut g = c.benchmark_group("histogram");
    g.throughput(Throughput::Elements(1));
    g.bench_function("record_latency", |b| {
        let mut h = Histogram::for_latency_ns();
        let mut x = 0x243F_6A88_85A3_08D3u64;
        b.iter(|| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            h.record(black_box(50_000 + x % 10_000_000));
        });
    });
    g.bench_function("p99_query_1m_samples", |b| {
        let mut h = Histogram::for_latency_ns();
        let mut x = 1u64;
        for _ in 0..1_000_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            h.record(50_000 + x % 10_000_000);
        }
        b.iter(|| black_box(h.value_at_percentile(99.0)));
    });
    g.finish();
}

fn bench_policies(c: &mut Criterion) {
    let mut g = c.benchmark_group("policy_assignment");
    // A representative task: fan-out 9 over 5 sub-tasks.
    let costs = [
        120_000u64, 250_000, 90_000, 400_000, 310_000, 150_000, 95_000, 280_000, 60_000,
    ];
    let subtask = [0usize, 0, 1, 2, 2, 3, 3, 4, 4];
    let subtask_costs = [370_000u64, 90_000, 710_000, 245_000, 340_000];
    let view = TaskView {
        arrival_ns: 1_000_000,
        request_costs: &costs,
        request_subtask: &subtask,
        subtask_costs: &subtask_costs,
    };
    g.throughput(Throughput::Elements(costs.len() as u64));
    for policy in [
        PolicyKind::Fifo,
        PolicyKind::EqualMax,
        PolicyKind::UnifIncr,
        PolicyKind::Edf,
    ] {
        g.bench_function(policy.name(), |b| {
            b.iter(|| black_box(policy.assign(black_box(&view))));
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_calendar,
    bench_priority_queue,
    bench_samplers,
    bench_workload,
    bench_histogram,
    bench_policies
);
criterion_main!(benches);
