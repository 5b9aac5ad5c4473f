//! The trace driver: replays a drawn workload against the threaded
//! runtime.
//!
//! [`try_run_load`] takes the tasks the simulator draws
//! ([`TaskSpec`]s: intended arrival, keys) and offers them **open loop**:
//! task *i* is submitted at `start + arrival_ns` whatever the cluster is
//! doing, and its latency is measured from that *intended* arrival. A
//! saturated cluster therefore records the queueing delay it actually
//! inflicts — the measurement model the simulator (and the paper) uses.
//! A generator that waited for replies before offering more would
//! coordinate with the system under test and hide that delay
//! (coordinated omission).
//!
//! Recording is corrected ([`crate::client::TaskTicket::wait_outcome_from`]):
//! latency runs from the intended arrival to the server-side completion
//! instant of the task's last response, so draining tickets late never
//! inflates a sample.
//!
//! Under the overload lane tasks can *fail* — dropped, shed, or timed
//! out — and the report splits them out with the same conservation
//! contract the simulator pins: `completed + dropped + timed_out + shed
//! == tasks`, checked at the end of every run. Latency histograms
//! record completed tasks only; failed tasks count against goodput.

use crate::client::{RtClient, TaskFailure, TaskOutcome, TaskResolution, TaskTicket};
use crate::error::RtError;
use crate::server::RtCluster;
use crate::timing;
use brb_metrics::{Histogram, Percentiles};
use brb_workload::taskgen::TaskSpec;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Results of one replayed trace.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Wall-clock task latency percentiles (ms) over *completed* tasks,
    /// measured from each task's intended arrival.
    pub task_latency_ms: Percentiles,
    /// Wall-clock per-request latency percentiles (ms): submit →
    /// response send, plus the cluster's accounted network RTT
    /// ([`crate::RtClusterConfig::network_rtt_ns`]).
    pub request_latency_ms: Percentiles,
    /// Total wall time of the run (trace start → last drain).
    pub wall: Duration,
    /// Tasks issued (the conservation denominator).
    pub tasks: usize,
    /// Served requests recorded across completed tasks.
    pub requests: u64,
    /// Requests served per server during this run (load-balance check).
    pub served_per_server: Vec<u64>,
    /// Mean worker utilization during the run: service time accumulated
    /// by all workers over `wall × total_workers`.
    pub utilization: f64,
    /// Tasks every request of which was served.
    pub completed: usize,
    /// Tasks that failed on a tail/CoDel drop with no retry left.
    pub dropped: u64,
    /// Tasks that failed on a deadline (including retries-exhausted).
    pub timed_out: u64,
    /// Tasks refused by the admission watermark with no retry left.
    pub shed: u64,
    /// Retries issued across all tasks.
    pub retries: u64,
    /// Completed tasks per second of wall time — the run's goodput.
    pub goodput: f64,
    /// Hedge duplicates the client issued (0 unless the cluster has a
    /// hedge delay).
    pub hedges_issued: u64,
    /// Purged hedge losers that completed anyway and were discarded —
    /// hedging's duplicate-work cost.
    pub duplicate_responses: u64,
    /// Demand reports the credits controller consumed during the run (0
    /// without a credits lane).
    pub demand_reports: u64,
    /// Congestion signals the servers' detectors raised during the run
    /// (0 without a credits lane).
    pub congestion_signals: u64,
}

/// Accumulates task resolutions into histograms and overload counters.
struct Collector {
    task_hist: Histogram,
    request_hist: Histogram,
    requests: u64,
    completed: usize,
    dropped: u64,
    timed_out: u64,
    shed: u64,
    retries: u64,
}

impl Collector {
    fn new() -> Self {
        Collector {
            task_hist: Histogram::for_latency_ns(),
            request_hist: Histogram::for_latency_ns(),
            requests: 0,
            completed: 0,
            dropped: 0,
            timed_out: 0,
            shed: 0,
            retries: 0,
        }
    }

    fn record(&mut self, res: TaskResolution) {
        self.retries += res.retries as u64;
        match res.outcome {
            TaskOutcome::Completed(resp) => {
                self.completed += 1;
                self.task_hist.record(resp.latency.as_nanos() as u64);
                for &ns in &resp.request_ns {
                    self.request_hist.record(ns);
                }
                self.requests += resp.request_ns.len() as u64;
            }
            TaskOutcome::Failed { failure } => match failure {
                TaskFailure::Dropped => self.dropped += 1,
                TaskFailure::Shed => self.shed += 1,
                TaskFailure::TimedOut | TaskFailure::RetriesExhausted => self.timed_out += 1,
            },
        }
    }

    fn collect(&mut self, ticket: TaskTicket, origin: Instant) -> Result<(), RtError> {
        let res = ticket.wait_outcome_from(origin)?;
        self.record(res);
        Ok(())
    }
}

/// Polls every in-flight ticket once, collecting those that resolved —
/// the overload lane's drain: retries and deadline timers progress
/// through these polls while the driver holds the submission schedule.
fn poll_inflight(
    inflight: &mut VecDeque<(TaskTicket, Instant)>,
    col: &mut Collector,
) -> Result<(), RtError> {
    let mut i = 0;
    while i < inflight.len() {
        let (ticket, origin) = &mut inflight[i];
        let origin = *origin;
        if let Some(res) = ticket.poll_outcome(origin)? {
            col.record(res);
            inflight.swap_remove_back(i);
        } else {
            i += 1;
        }
    }
    Ok(())
}

/// Replays `trace` against `cluster` through a fresh client whose
/// selector stream is seeded by `selector_seed` (seeded runs differ in
/// replica choice the way the simulator's do). Each task fetches the keys
/// of its `requests`, submitted at its intended arrival. Runtime failures
/// (a panicked worker thread, a shut-down cluster) come back as a typed
/// [`RtError`].
///
/// # Panics
/// Panics on an empty trace or a task without requests — caller bugs,
/// not runtime conditions.
pub fn try_run_load(
    cluster: &RtCluster,
    trace: &[TaskSpec],
    selector_seed: u64,
) -> Result<LoadReport, RtError> {
    assert!(!trace.is_empty(), "need at least one task");
    let client: RtClient = cluster.client_seeded(selector_seed);
    // Hedging rides the overload lane's poll path too: its timers live
    // inside ticket polls, and duplicate replies break the legacy
    // `is_ready` reply-count shortcut.
    let overload_lane = cluster.config().queue.is_some()
        || cluster.config().timeout.is_some()
        || cluster.config().hedge_delay_ns.is_some();
    let mut col = Collector::new();
    let served_before = cluster.served_per_server();
    let busy_before = cluster.busy_ns_per_server();
    let demand_before = cluster.demand_reports();
    let congestion_before = cluster.congestion_signals();
    let started = Instant::now();

    let mut inflight: VecDeque<(TaskTicket, Instant)> = VecDeque::new();
    let mut keys: Vec<u64> = Vec::new();
    // Poll slice while holding the schedule: deadline timers and backoff
    // redispatches live inside ticket polls, so under the overload lane
    // the driver must keep polling between submissions or retries would
    // only fire at collection time.
    const POLL_SLICE: Duration = Duration::from_millis(1);
    for task in trace {
        let due = started + Duration::from_nanos(task.arrival_ns);
        keys.clear();
        keys.extend(task.requests.iter().map(|r| r.key));
        if overload_lane {
            loop {
                poll_inflight(&mut inflight, &mut col)?;
                let now = Instant::now();
                if now >= due {
                    break;
                }
                timing::wait_until(due.min(now + POLL_SLICE));
            }
        } else {
            timing::wait_until(due);
        }
        inflight.push_back((client.fetch_async(&keys), due));
        if !overload_lane {
            // Legacy drain: pop finished heads without blocking — the
            // selector only learns from responses at collection time, so
            // feedback must flow *during* the run, not after it.
            while inflight.front().is_some_and(|(t, _)| t.is_ready()) {
                let (ticket, origin) = inflight.pop_front().expect("non-empty front");
                col.collect(ticket, origin)?;
            }
        }
    }
    for (ticket, origin) in inflight {
        col.collect(ticket, origin)?;
    }

    let wall = started.elapsed();
    let served_after = cluster.served_per_server();
    let busy_after = cluster.busy_ns_per_server();
    let served_per_server: Vec<u64> = served_after
        .iter()
        .zip(&served_before)
        .map(|(a, b)| a - b)
        .collect();
    let busy_ns: u64 = busy_after
        .iter()
        .zip(&busy_before)
        .map(|(a, b)| a - b)
        .sum();
    let total_workers = (cluster.config().num_servers * cluster.config().workers_per_server) as f64;
    let utilization = (busy_ns as f64 / 1e9) / (wall.as_secs_f64() * total_workers);

    // The conservation contract both backends pin: every issued task
    // resolved exactly one way.
    assert_eq!(
        col.completed as u64 + col.dropped + col.timed_out + col.shed,
        trace.len() as u64,
        "task conservation violated"
    );
    let zeroed = Percentiles {
        count: 0,
        mean: 0.0,
        p50: 0.0,
        p95: 0.0,
        p99: 0.0,
        max: 0.0,
    };
    Ok(LoadReport {
        // A fully-failed run (total collapse) has no latency samples.
        task_latency_ms: Percentiles::from_histogram_ns(&col.task_hist).unwrap_or(zeroed),
        request_latency_ms: Percentiles::from_histogram_ns(&col.request_hist).unwrap_or(zeroed),
        wall,
        tasks: trace.len(),
        requests: col.requests,
        served_per_server,
        utilization,
        completed: col.completed,
        dropped: col.dropped,
        timed_out: col.timed_out,
        shed: col.shed,
        retries: col.retries,
        goodput: col.completed as f64 / wall.as_secs_f64(),
        hedges_issued: client.hedged_total(),
        duplicate_responses: client.duplicate_responses(),
        demand_reports: cluster.demand_reports() - demand_before,
        congestion_signals: cluster.congestion_signals() - congestion_before,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{RtClusterConfig, WorkModel};
    use brb_sched::PolicyKind;
    use brb_sched::QueueConfig;
    use brb_sched::TimeoutConfig;
    use brb_store::service::{ServiceModel, ServiceNoise};
    use brb_workload::keyspace::{KeySpace, Popularity};
    use brb_workload::taskgen::{SizeModel, TaskGenerator};
    use brb_workload::{FanoutDist, PoissonProcess};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `tasks` Poisson arrivals at `rate` tasks/s, each fetching `fanout`
    /// uniform keys out of `0..keys`.
    fn trace(tasks: usize, rate: f64, fanout: FanoutDist, keys: u64) -> Vec<TaskSpec> {
        TaskGenerator::new(
            PoissonProcess::new(rate),
            fanout,
            KeySpace::new(keys, Popularity::Uniform),
            SizeModel::facebook_etc(),
            StdRng::seed_from_u64(1),
        )
        .take(tasks)
    }

    fn cluster() -> RtCluster {
        let c = RtCluster::start(RtClusterConfig {
            num_servers: 3,
            workers_per_server: 2,
            replication: 2,
            policy: PolicyKind::UnifIncr,
            work: WorkModel::Instant,
            ..Default::default()
        });
        c.populate(2_000, |k| (k % 256) + 1);
        c
    }

    #[test]
    fn load_run_completes_and_reports() {
        let c = cluster();
        let tasks = trace(300, 20_000.0, FanoutDist::soundcloud_like(), 2_000);
        let report = try_run_load(&c, &tasks, 1).unwrap();
        assert_eq!(report.task_latency_ms.count, 300);
        assert_eq!(report.tasks, 300);
        assert!(report.task_latency_ms.p50 > 0.0);
        assert!(report.request_latency_ms.count >= 300);
        assert_eq!(report.request_latency_ms.count, report.requests);
        assert!(report.goodput > 0.0);
        // Knobs off: every task completes and nothing is dropped.
        assert_eq!(report.completed, 300);
        assert_eq!(report.dropped + report.timed_out + report.shed, 0);
        assert_eq!(report.retries, 0);
        // One request per key of the trace, each served once.
        let keys: usize = tasks.iter().map(TaskSpec::fanout).sum();
        assert_eq!(report.requests, keys as u64);
        assert_eq!(
            report.served_per_server.iter().sum::<u64>(),
            report.requests
        );
        c.shutdown();
    }

    #[test]
    fn open_loop_run_completes_and_reports() {
        let c = cluster();
        // Fast arrivals; Instant service keeps the run short.
        let tasks = trace(200, 20_000.0, FanoutDist::soundcloud_like(), 2_000);
        let report = try_run_load(&c, &tasks, 1).unwrap();
        assert_eq!(report.task_latency_ms.count, 200);
        assert_eq!(report.request_latency_ms.count, report.requests);
        assert_eq!(report.completed, 200);
        // The schedule is the trace's: the run lasts at least until the
        // last intended arrival.
        let last = tasks.last().unwrap().arrival_ns;
        assert!(report.wall >= Duration::from_nanos(last));
        c.shutdown();
    }

    #[test]
    fn replication_spreads_load_across_servers() {
        let c = cluster();
        let tasks = trace(500, 20_000.0, FanoutDist::soundcloud_like(), 2_000);
        let report = try_run_load(&c, &tasks, 1).unwrap();
        // Every server holds replicas for 2/3 of the key space; none
        // should be idle.
        assert!(
            report.served_per_server.iter().all(|&s| s > 0),
            "idle server: {:?}",
            report.served_per_server
        );
        c.shutdown();
    }

    /// The coordinated-omission regression. A driver measuring from
    /// submit would report ≈ the service time no matter how overloaded
    /// the cluster is. Open-loop arrivals at 1.3× capacity build a
    /// backlog; latency measured from *intended* arrival must surface
    /// that queueing delay.
    #[test]
    fn open_loop_records_queueing_delay_under_saturation() {
        const SERVICE_NS: f64 = 300_000.0; // 300µs per request
        let service =
            ServiceModel::calibrated_size_linear(SERVICE_NS, 64.0, 1.0, ServiceNoise::None);
        let c = RtCluster::start(RtClusterConfig {
            num_servers: 1,
            workers_per_server: 1,
            replication: 1,
            work: WorkModel::SimulateService(service),
            ..Default::default()
        });
        c.populate(64, |_| 64);
        // Capacity is 1/300µs ≈ 3333 tasks/s at fan-out 1; offer 1.3×.
        let tasks = trace(400, 1.3 / (SERVICE_NS / 1e9), FanoutDist::Fixed(1), 64);
        let report = try_run_load(&c, &tasks, 1).unwrap();
        // 400 tasks at 30% overload leave ≈ 400·0.3·300µs ≈ 36ms of
        // backlog by the end; the *median* recorded latency must be many
        // service times of queueing delay, which submit-based recording
        // structurally cannot observe.
        let service_ms = SERVICE_NS / 1e6;
        assert!(
            report.task_latency_ms.p50 >= 5.0 * service_ms,
            "open-loop p50 {}ms does not reflect queueing (service {}ms)",
            report.task_latency_ms.p50,
            service_ms
        );
        assert!(
            report.task_latency_ms.mean >= 2.0,
            "mean {}ms",
            report.task_latency_ms.mean
        );
        c.shutdown();
    }

    /// The overload lane end to end: sustained 1.5× overload into a
    /// tightly bounded queue with immediate-retry timeouts must fail
    /// some tasks — and the report must conserve
    /// `completed + dropped + timed_out + shed == tasks` while
    /// recording latency for completed tasks only.
    #[test]
    fn overload_run_conserves_tasks_and_reports_goodput() {
        const SERVICE_NS: f64 = 300_000.0;
        let service =
            ServiceModel::calibrated_size_linear(SERVICE_NS, 64.0, 1.0, ServiceNoise::None);
        let c = RtCluster::start(RtClusterConfig {
            num_servers: 2,
            workers_per_server: 1,
            replication: 2,
            work: WorkModel::SimulateService(service),
            queue: Some(QueueConfig {
                capacity: 8,
                shed_above: None,
                codel: None,
                priority_stats: false,
            }),
            timeout: Some(TimeoutConfig {
                timeout_us: 3_000, // 3ms
                max_retries: 2,
                backoff_base_us: 0,
                backoff_cap_us: 0,
                retry_budget_percent: None,
            }),
            ..Default::default()
        });
        c.populate(64, |_| 64);
        let tasks = trace(
            300,
            2.0 * 1.5 / (SERVICE_NS / 1e9),
            FanoutDist::Fixed(1),
            64,
        );
        let report = try_run_load(&c, &tasks, 1).unwrap();
        assert_eq!(
            report.completed as u64 + report.dropped + report.timed_out + report.shed,
            report.tasks as u64,
            "conservation"
        );
        assert!(
            report.dropped + report.timed_out > 0,
            "1.5× overload into capacity 8 never failed a task"
        );
        assert!(report.completed > 0, "overload must not starve everything");
        assert_eq!(report.task_latency_ms.count as usize, report.completed);
        assert!(report.goodput > 0.0);
        c.shutdown();
    }

    /// A hedged live run: spiked stragglers trigger duplicates, the
    /// report surfaces the hedge counters, and the conservation
    /// contract holds with duplicate replies in flight — losing twins
    /// must never double-count a task or strand accounting.
    #[test]
    fn hedged_run_reports_hedges_and_conserves_tasks() {
        use crate::server::SpikeModel;
        let c = RtCluster::start(RtClusterConfig {
            num_servers: 2,
            workers_per_server: 1,
            replication: 2,
            // ~50µs forecast, every request spiked ~4ms: all stragglers.
            work: WorkModel::SimulateService(ServiceModel::calibrated_size_linear(
                50_000.0,
                64.0,
                1.0,
                ServiceNoise::None,
            )),
            hedge_delay_ns: Some(1_000_000), // 1ms
            spike: Some(SpikeModel {
                p_spike: 1.0,
                extra_lo_ns: 4_000_000,
                extra_hi_ns: 4_000_000,
            }),
            ..Default::default()
        });
        c.populate(64, |_| 64);
        // ≈ 40% of the two servers' ~4ms-per-request capacity.
        let tasks = trace(60, 200.0, FanoutDist::Fixed(1), 64);
        let report = try_run_load(&c, &tasks, 1).unwrap();
        assert_eq!(
            report.completed as u64 + report.dropped + report.timed_out + report.shed,
            report.tasks as u64,
            "conservation under hedging"
        );
        assert_eq!(report.completed, 60, "hedging must not fail tasks");
        assert!(
            report.hedges_issued >= 1,
            "60 spiked tasks under a 1ms hedge delay never hedged"
        );
        // The 5% budget binds: hedges·20 < the 60 non-hedge dispatches,
        // so at most 3 duplicates across 60 single-request tasks.
        assert!(
            report.hedges_issued <= 4,
            "hedge budget failed to bind: {}",
            report.hedges_issued
        );
        assert!(report.duplicate_responses <= report.hedges_issued);
        // No credits lane: those counters stay zero.
        assert_eq!(report.demand_reports, 0);
        assert_eq!(report.congestion_signals, 0);
        c.shutdown();
    }

    /// Fault injection: a worker that panics mid-run must fail the run
    /// with a typed error — never hang the driver. The timeout config
    /// keeps every other task resolving while the poisoned key's task
    /// dies with the worker.
    #[test]
    fn worker_panic_fails_the_run_typed() {
        let c = RtCluster::start(RtClusterConfig {
            num_servers: 1,
            workers_per_server: 1,
            replication: 1,
            work: WorkModel::Instant,
            panic_on_key: Some(13),
            timeout: Some(TimeoutConfig {
                timeout_us: 5_000,
                max_retries: 0,
                backoff_base_us: 0,
                backoff_cap_us: 0,
                retry_budget_percent: None,
            }),
            ..Default::default()
        });
        c.populate(64, |_| 8);
        let tasks = trace(200, 20_000.0, FanoutDist::Fixed(1), 64);
        assert!(
            tasks.iter().any(|t| t.requests[0].key == 13),
            "the trace must reach the poisoned key"
        );
        let err = try_run_load(&c, &tasks, 1).expect_err("run over a poisoned key must fail");
        assert_eq!(err, RtError::WorkerPanicked);
        assert!(c.panicked());
        assert!(c.shutdown_checked().is_err());
    }

    #[test]
    #[should_panic(expected = "at least one task")]
    fn degenerate_config_rejected() {
        let c = cluster();
        let _ = try_run_load(&c, &[], 1);
    }
}
