//! The threaded runtime in action: real worker threads, real queues,
//! wall-clock latencies — no simulation.
//!
//! ```text
//! cargo run --release --example realtime_store
//! ```
//!
//! Starts an in-process cluster whose workers wait out the size-derived
//! service time (a scale model of the paper's servers), then replays one
//! drawn trace of playlist-style batch reads through the **open-loop**
//! trace driver — each task is submitted at its intended arrival and its
//! latency measured from there, so queueing delay is never
//! coordinated-omitted — under FIFO and under BRB's UnifIncr policy, and
//! compares measured task latencies.

use brb::metrics::Percentiles;
use brb::rt::{try_run_load, RtCluster, RtClusterConfig, WorkModel};
use brb::sched::PolicyKind;
use brb::store::service::{ServiceModel, ServiceNoise};
use brb::workload::keyspace::{KeySpace, Popularity};
use brb::workload::taskgen::{SizeModel, TaskGenerator, TaskSpec};
use brb::workload::{FanoutDist, PoissonProcess};
use rand::rngs::StdRng;
use rand::SeedableRng;

const KEYS: u64 = 20_000;
const TASKS: usize = 400;

fn run_policy(policy: PolicyKind, trace: &[TaskSpec]) -> Percentiles {
    // Service times scaled down 10x from the paper so the demo finishes
    // quickly; the *relative* behaviour of the policies is unchanged.
    let service = ServiceModel::calibrated_size_linear(
        1e9 / 35_000.0,
        SizeModel::facebook_etc().mean_bytes(),
        0.2,
        ServiceNoise::None,
    );
    let cluster = RtCluster::start(RtClusterConfig {
        num_servers: 3,
        workers_per_server: 2,
        replication: 2,
        policy,
        work: WorkModel::SimulateService(service),
        ..Default::default()
    });
    cluster.populate_etc(KEYS);

    let report = try_run_load(&cluster, trace, 99).expect("live run");

    println!(
        "  {policy:?}: served per server = {:?} (total {}), utilization {:.0}%",
        report.served_per_server,
        report.requests,
        report.utilization * 100.0
    );
    cluster.shutdown();
    report.task_latency_ms
}

fn main() {
    println!(
        "threaded cluster: 3 servers x 2 workers, R=2, {KEYS} ETC-sized keys, {TASKS} open-loop batch reads\n"
    );
    // Offer ~60% of the 6 x 35k req/s capacity as Poisson task arrivals;
    // both policies replay the same trace.
    let fanout = FanoutDist::soundcloud_like();
    let trace = TaskGenerator::new(
        PoissonProcess::new(0.6 * 6.0 * 35_000.0 / fanout.mean()),
        fanout,
        KeySpace::new(KEYS, Popularity::Uniform),
        SizeModel::facebook_etc(),
        StdRng::seed_from_u64(99),
    )
    .take(TASKS);
    let fifo = run_policy(PolicyKind::Fifo, &trace);
    let brb = run_policy(PolicyKind::UnifIncr, &trace);

    println!("\nmeasured wall-clock task latency (ms):");
    println!(
        "{:<12} {:>10} {:>10} {:>10}",
        "policy", "median", "95th", "99th"
    );
    println!(
        "{:<12} {:>10.2} {:>10.2} {:>10.2}",
        "FIFO", fifo.p50, fifo.p95, fifo.p99
    );
    println!(
        "{:<12} {:>10.2} {:>10.2} {:>10.2}",
        "UnifIncr", brb.p50, brb.p95, brb.p99
    );
    println!("\n(priorities only matter when queues form; at low load the two converge)");
}
