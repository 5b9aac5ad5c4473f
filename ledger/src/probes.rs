//! Unit-cost probes: timing loops over each layer's public functions.
//!
//! Time inside `Simulation::run` cannot be split from outside, so the
//! ledger *estimates* it: exact counts from the run × the unit costs
//! measured here; what is left over is `core.unattributed_share`. The
//! probes use fixed seeds — they are micro-benchmarks of the code, not
//! workload inputs. They supersede `kernel_bench`'s `calendar`, `model`
//! and `net.hop` sections as the unit costs of record (those sections
//! stay for their baseline comparisons).

use brb_core::config::{ExperimentConfig, WorkloadKind};
use brb_metrics::{paired_bootstrap_ci, Histogram, Percentiles};
use brb_net::{Fabric, FabricPlan, NetNodeId};
use brb_sched::{
    Bounded, CoDel, CoDelConfig, CreditController, CreditsConfig, EnqueueOutcome, GrantTable,
    Priority, PriorityQueue, QueueBound, RequestQueue,
};
use brb_sim::dist::{standard_exp, standard_normal};
use brb_sim::{Calendar, DetRng, RngFactory, SimDuration, SimTime};
use brb_store::{ClientId, ServerId, ServiceModel, ShardedStore};
use brb_workload::soundcloud::{SoundCloudConfig, SoundCloudModel};
use brb_workload::Zipf;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Nanoseconds per call of `f` over `iters` calls, after a 10 % warm-up.
fn ns_per_call(iters: u64, mut f: impl FnMut()) -> f64 {
    for _ in 0..(iters / 10).max(1) {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Unit costs that do not depend on the workload.
#[derive(Debug, Clone, Default)]
pub struct UnitCosts {
    pub calendar_ns_per_op: f64,
    pub hop_lane_ns_per_op: f64,
    pub normal_ns: f64,
    pub exp_ns: f64,
    pub alias_ns: f64,
    pub hop_resolve_ns: f64,
    pub pq_ns_per_op: f64,
    pub credits_allocate_us: f64,
    pub bounded_enqueue_ns: f64,
    pub service_sample_ns: f64,
    pub kv_get_ns: f64,
    pub hist_record_ns: f64,
    pub percentiles_us: f64,
    pub bootstrap_ms: f64,
}

/// Steady-state push+pop over a 1k-event window with engine-like deltas
/// (the `kernel_bench` calendar shape).
fn calendar_ns() -> f64 {
    let mut cal = Calendar::new();
    for i in 0..1_000u64 {
        cal.push(SimTime::from_nanos(i * 350), i);
    }
    let mut t = 100_000u64;
    ns_per_call(1_000_000, || {
        let (when, tag) = cal.pop().expect("window never drains");
        t += 137;
        cal.push(
            SimTime::from_nanos(when.as_nanos() + 50_000 + t % 400_000),
            tag,
        );
    })
}

/// The same window, every event through the fixed-delta hop lane.
fn hop_lane_ns() -> f64 {
    let delta = SimDuration::from_nanos(50_000);
    let mut cal = Calendar::new();
    cal.set_hop_lane(delta);
    for i in 0..1_000u64 {
        cal.push_after(SimTime::from_nanos(i * 50 + 50_000), delta, i);
    }
    ns_per_call(1_000_000, || {
        let (when, tag) = cal.pop().expect("window never drains");
        // Monotone `now`: the popped time is the newest clock reading.
        cal.push_after(SimTime::from_nanos(when.as_nanos() + 50_000), delta, tag);
    })
}

/// One hop through the compiled plan of the paper's constant mesh, with
/// rotating endpoints.
fn hop_resolve_ns() -> f64 {
    const NODES: u64 = 28; // 18 clients + 9 servers + controller
    let plan = FabricPlan::compile(Fabric::paper_default(), NODES);
    let mut rng = DetRng::seed_from_u64(8);
    let mut j = 0u64;
    ns_per_call(4_000_000, || {
        j += 1;
        let from = NetNodeId::new(j % NODES);
        let to = NetNodeId::new((j + 7) % NODES);
        black_box(plan.delay(from, to, 4_096, &mut rng));
    })
}

/// Push+pop on a priority queue holding a 64-deep standing backlog.
fn pq_ns() -> f64 {
    let mut pq: PriorityQueue<u64> = PriorityQueue::with_capacity(128);
    let mut rng = DetRng::seed_from_u64(9);
    for i in 0..64 {
        pq.push(Priority::from_cost_ns(rng.random_range(0..1_000_000u64)), i);
    }
    ns_per_call(2_000_000, || {
        let (_, item) = pq.pop().expect("backlog never drains");
        pq.push(
            Priority::from_cost_ns(rng.random_range(0..1_000_000u64)),
            item,
        );
    })
}

/// Admission through `Bounded` plus the CoDel decision on dequeue, on a
/// queue kept near its bound.
fn bounded_enqueue_ns() -> f64 {
    let mut q: Bounded<PriorityQueue<u64>> = Bounded::with_bound(QueueBound::tail_drop(64));
    let mut codel = CoDel::new(CoDelConfig::paper_default());
    let mut rng = DetRng::seed_from_u64(10);
    let mut now_ns = 0u64;
    for i in 0..60 {
        q.try_push(Priority::from_cost_ns(i), i);
    }
    ns_per_call(2_000_000, || {
        now_ns += 300_000;
        if let Some((_, item)) = q.pop::<u64>() {
            black_box(codel.on_dequeue(now_ns, rng.random_range(0..8_000_000u64)));
            black_box(item);
        }
        let p = Priority::from_cost_ns(rng.random_range(0..1_000_000u64));
        if q.try_push(p, now_ns) != EnqueueOutcome::Enqueued {
            q.pop::<u64>();
        }
    })
}

/// One credits adaptation epoch at the paper's population (18 × 9).
fn credits_allocate_us() -> f64 {
    let mut ctl = CreditController::new(vec![14_000.0; 9], CreditsConfig::default());
    for c in 0..18 {
        for s in 0..9 {
            ctl.report_demand(
                ClientId::new(c),
                ServerId::new(s),
                500.0 + (c * 9 + s) as f64,
            );
        }
    }
    let mut grants = GrantTable::new();
    let mut epoch = 0u64;
    ns_per_call(100_000, || {
        epoch += 1;
        if epoch.is_multiple_of(7) {
            ctl.signal_congestion(ServerId::new(epoch % 9));
        }
        ctl.allocate_into(&mut grants);
        black_box(grants.num_servers());
    }) / 1e3
}

impl UnitCosts {
    /// Runs every workload-independent probe (≈ 1 s in total).
    pub fn measure() -> UnitCosts {
        let mut rng = DetRng::seed_from_u64(1);
        let mut acc = 0.0;
        let normal_ns = ns_per_call(4_000_000, || acc += standard_normal(&mut rng));
        let exp_ns = ns_per_call(4_000_000, || acc += standard_exp(&mut rng));
        let zipf = Zipf::new(100_000, 0.9);
        let alias_ns = ns_per_call(2_000_000, || acc += zipf.sample(&mut rng) as f64);

        let service = ServiceModel::paper_default(300.0);
        let service_sample_ns = ns_per_call(4_000_000, || {
            let bytes = 64 + (rng.next_u64() & 1023);
            acc += service.sample(bytes, &mut rng).as_nanos() as f64;
        });

        let store = ShardedStore::new(16);
        store.populate_with(10_000, |k| (k % 256) + 1);
        let kv_get_ns = ns_per_call(2_000_000, || {
            let key = rng.random_range(0..10_000u64);
            acc += store.get(key).map_or(0, |v| v.len()) as f64;
        });

        let mut hist = Histogram::for_latency_ns();
        let hist_record_ns = ns_per_call(4_000_000, || {
            hist.record(50_000 + (rng.next_u64() & 0xF_FFFF));
        });
        let percentiles_us = ns_per_call(2_000, || {
            acc += Percentiles::from_histogram_ns(&hist).map_or(0.0, |p| p.p99);
        }) / 1e3;

        // The compare report's shape: four paired seeds, 2000 resamples.
        let diffs = [0.31, -0.12, 0.27, 0.05];
        let bootstrap_ms = ns_per_call(200, || {
            acc += paired_bootstrap_ci(&diffs, 2_000, 0.95, 7).map_or(0.0, |ci| ci.hi);
        }) / 1e6;
        black_box(acc);

        UnitCosts {
            calendar_ns_per_op: calendar_ns(),
            hop_lane_ns_per_op: hop_lane_ns(),
            normal_ns,
            exp_ns,
            alias_ns,
            hop_resolve_ns: hop_resolve_ns(),
            pq_ns_per_op: pq_ns(),
            credits_allocate_us: credits_allocate_us(),
            bounded_enqueue_ns: bounded_enqueue_ns(),
            service_sample_ns,
            kv_get_ns,
            hist_record_ns,
            percentiles_us,
            bootstrap_ms,
        }
    }
}

/// What generating one trace of this workload costs, split into the
/// catalog build and the per-task draw.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceCosts {
    pub catalog_build_ms: f64,
    pub trace_draw_ns_per_task: f64,
}

impl TraceCosts {
    /// Rebuilds `cfg`'s playlist catalog and draws its trace through
    /// `brb-workload`'s public pieces, exactly as
    /// `EngineWorld::generate_trace` does. Synthetic workloads have no
    /// catalog: both costs are 0 there.
    pub fn measure(cfg: &ExperimentConfig) -> TraceCosts {
        let WorkloadKind::Playlist {
            num_tracks,
            num_playlists,
            playlist_zipf,
        } = cfg.workload.kind
        else {
            return TraceCosts::default();
        };
        let factory = RngFactory::new(cfg.seed);
        let start = Instant::now();
        let model = SoundCloudModel::build(
            SoundCloudConfig {
                num_tracks,
                num_playlists,
                playlist_zipf,
                sizes: cfg.workload.sizes,
                ..Default::default()
            },
            &mut factory.stream("catalog"),
        );
        let catalog_build_ms = start.elapsed().as_secs_f64() * 1e3;
        let start = Instant::now();
        let trace = model.generate_trace(
            cfg.workload.num_tasks,
            cfg.workload.task_rate(&cfg.cluster),
            &mut factory.stream("workload"),
        );
        let draw = start.elapsed();
        black_box(trace.len());
        TraceCosts {
            catalog_build_ms,
            trace_draw_ns_per_task: draw.as_nanos() as f64 / cfg.workload.num_tasks as f64,
        }
    }
}

/// How late `timing::wait_for(200 µs)` returns, over 1000 waits:
/// (p50, p99) in microseconds — the live runtime's timer error.
pub fn timer_overshoot_us() -> (f64, f64) {
    let ask = Duration::from_micros(200);
    let mut over: Vec<f64> = (0..1_000)
        .map(|_| {
            let start = Instant::now();
            brb_rt::timing::wait_for(ask);
            start.elapsed().saturating_sub(ask).as_secs_f64() * 1e6
        })
        .collect();
    over.sort_by(f64::total_cmp);
    (over[over.len() / 2], over[over.len() * 99 / 100])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_per_call_scales_with_the_work() {
        // black_box is a hint: confirm the loop body is not deleted.
        let mut x = 0u64;
        let cheap = ns_per_call(200_000, || x = black_box(x.wrapping_add(1)));
        let dear = ns_per_call(200_000, || {
            for _ in 0..32 {
                x = black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
            }
        });
        assert!(
            dear > cheap,
            "32x the work must cost more ({dear} vs {cheap})"
        );
    }
}
