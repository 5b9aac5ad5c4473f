//! The live-runtime execution backend: lowers scenario cells onto a
//! threaded [`brb_rt::RtCluster`] and reports through the same
//! `brb-lab/report-v1` pipeline as the simulator.
//!
//! `brb-lab run <scenario> --backend rt` routes here. Each lowered cell
//! becomes, per (strategy × seed), a fresh in-process cluster driven by
//! the **open-loop** Poisson load generator at the cell's offered load —
//! latency is recorded from intended arrivals, the measurement model the
//! simulator uses (a closed-loop harness would coordinated-omit queueing
//! delay and make live numbers incomparable to simulated ones).
//!
//! ## What the live backend can and cannot honor
//!
//! Axes lower faithfully where real threads can express them: cluster
//! shape (servers / cores / replication), offered load (arrival rate
//! against the service model's capacity), fan-out sweeps, scheduling
//! policy, selector choice, forecast quality, the constant mesh
//! latency (accounted into every recorded latency as a request +
//! response hop — a uniform shift is exact for a constant-latency
//! model, so nothing sleeps for it), and the **overload lane**: bounded
//! server queues with watermark shedding and CoDel run on real sojourn
//! timestamps, client timeouts are wall-clock deadline timers with the
//! simulator's capped-exponential budgeted retries, and every run is
//! checked against the conservation contract
//! `completed + dropped + timed_out + shed == issued`. Degraded-server
//! speed factors divide live service times exactly like the simulator's.
//!
//! The complete figure-2 strategy set now lowers **natively**:
//! `Credits` spawns the runtime's controller thread (the *same*
//! `brb-sched` allocation math the simulator calls, fed by real demand
//! reports and server congestion signals) with per-client token-bucket
//! admission; `Model` runs the single cross-server queue as the
//! runtime's work-pull global queue; and `Hedged` arms real hedge
//! timers with first-response-wins and duplicate-aware cancellation
//! (the loser is de-queued in place or discarded on completion,
//! with its selector accounting released either way).
//!
//! Everything else fails with a typed [`ScenarioError::RtUnsupported`]
//! instead of a panic or a silent approximation:
//!
//! * the oracle selector (needs instantaneous global queue state),
//! * non-constant latency models, telemetry snapshots, replay mode,
//! * per-priority drop/shed accounting (`priority_stats` — the live
//!   transport does not tag failures with engine priority classes).
//!
//! Two mappings remain deliberate approximations and are documented in
//! the report semantics (`crates/rt/README.md`): playlist workloads
//! flatten to the SoundCloud fan-out mixture over a uniform key
//! universe (synthetic workloads keep their Zipf key popularity and
//! service noise is sampled live from the same model the simulator
//! draws), and transient latency spikes become extra *service* time
//! held by the worker — the in-process transport has no wire to delay,
//! so a spike occupies the server instead of only the message.
//!
//! A live run that dies mid-flight — a cluster thread panics,
//! or the cluster shuts down under a waiting task — surfaces as
//! [`ScenarioError::RtRunFailed`]; the panic-guarded runtime converts
//! what used to be a hang into a typed failure.

use crate::error::ScenarioError;
use crate::runner::CellResult;
use crate::spec::{ScenarioCell, ScenarioSpec};
use brb_core::config::{ExperimentConfig, SelectorKind, Strategy, WorkloadKind};
use brb_core::experiment::{OverloadStats, RunResult, StrategySummary};
use brb_net::LatencyModel;
use brb_rt::{
    try_run_load, LoadGenConfig, LoadMode, RtCluster, RtClusterConfig, RtCreditsConfig,
    RtQueueMode, SpikeModel, WorkModel,
};
use brb_sched::{CreditsConfig, PolicyKind};
use brb_select::SelectorSpec;
use brb_workload::FanoutDist;

fn unsupported(what: impl Into<String>) -> ScenarioError {
    ScenarioError::RtUnsupported { what: what.into() }
}

fn rt_failed(e: brb_rt::RtError) -> ScenarioError {
    ScenarioError::RtRunFailed {
        cause: e.to_string(),
    }
}

/// One strategy lowered to what the live client can run.
#[derive(Debug, Clone, Copy)]
struct RtStrategy {
    policy: PolicyKind,
    selector: SelectorSpec,
    /// `Some` spawns the credits controller thread; the per-client
    /// token-bucket admission then replaces `selector`.
    credits: Option<CreditsConfig>,
    /// Run the model realization's single cross-server work-pull queue.
    global_queue: bool,
    /// Arm live hedge timers at this delay.
    hedge_delay_ns: Option<u64>,
}

fn lower_selector(kind: SelectorKind) -> Result<SelectorSpec, ScenarioError> {
    match kind {
        SelectorKind::Random => Ok(SelectorSpec::Random),
        SelectorKind::RoundRobin => Ok(SelectorSpec::RoundRobin),
        SelectorKind::LeastOutstanding => Ok(SelectorSpec::LeastOutstanding),
        SelectorKind::C3 => Ok(SelectorSpec::C3),
        SelectorKind::Oracle => Err(unsupported(
            "the oracle selector (it reads instantaneous global queue state \
             only the simulator can provide)",
        )),
    }
}

fn lower_strategy(strategy: &Strategy) -> Result<RtStrategy, ScenarioError> {
    let direct = |policy: PolicyKind, selector: SelectorSpec| RtStrategy {
        policy,
        selector,
        credits: None,
        global_queue: false,
        hedge_delay_ns: None,
    };
    match strategy {
        Strategy::Direct {
            selector,
            policy,
            priority_queues,
        } => {
            // The live server always schedules through its stable
            // priority queue; with FIFO priorities that *is* FIFO order,
            // but a non-FIFO policy cannot be combined with FIFO servers
            // without a server mode the runtime does not have.
            if !priority_queues && *policy != PolicyKind::Fifo {
                return Err(unsupported(format!(
                    "direct dispatch with {policy:?} priorities but FIFO servers \
                     (live servers always honor priorities)"
                )));
            }
            Ok(direct(*policy, lower_selector(*selector)?))
        }
        // Native credits: the controller thread runs the same brb-sched
        // allocation math the simulator calls; the configured selector
        // is irrelevant because per-client token-bucket admission
        // replaces it at client construction.
        Strategy::Credits { policy, credits } => Ok(RtStrategy {
            credits: Some(*credits),
            ..direct(*policy, SelectorSpec::LeastOutstanding)
        }),
        // Native model realization: one cross-server work-pull queue.
        // Round-robin selection only spreads the *entry point*; service
        // order is owned by the shared queue, as in the simulator.
        Strategy::Model { policy } => Ok(RtStrategy {
            global_queue: true,
            ..direct(*policy, SelectorSpec::RoundRobin)
        }),
        Strategy::Hedged { selector, delay_us } => Ok(RtStrategy {
            hedge_delay_ns: Some(delay_us * 1_000),
            ..direct(PolicyKind::Fifo, lower_selector(*selector)?)
        }),
    }
}

/// The live workload shape: fan-out distribution, key universe and key
/// popularity. Synthetic workloads keep their Zipf exponent; playlists
/// flatten to the SoundCloud fan-out mixture over uniform keys (the
/// documented approximation).
fn lower_workload_kind(kind: &WorkloadKind) -> (FanoutDist, u64, f64) {
    match kind {
        WorkloadKind::Synthetic {
            fanout,
            num_keys,
            zipf_exponent,
        } => (fanout.clone(), *num_keys, *zipf_exponent),
        WorkloadKind::Playlist { num_tracks, .. } => {
            (FanoutDist::soundcloud_like(), *num_tracks, 0.0)
        }
    }
}

/// Checks a lowered cell's base config for simulator-only machinery and
/// produces the live cluster construction parameters.
fn lower_cluster(base: &ExperimentConfig) -> Result<RtClusterConfig, ScenarioError> {
    let cluster = &base.cluster;
    // Request + response hop of the mesh's base latency, accounted into
    // recorded latencies (a uniform shift leaves queueing dynamics
    // untouched, so adding it is exact for a constant-latency model).
    // Spikes become extra worker-held service time — the documented
    // approximation (there is no wire to delay in-process).
    let (network_rtt_ns, spike) = match cluster.latency {
        LatencyModel::Constant { delay_ns } => (2 * delay_ns, None),
        LatencyModel::Spiky {
            base_ns,
            p_spike,
            spike_lo_ns,
            spike_hi_ns,
        } => (
            2 * base_ns,
            Some(SpikeModel {
                p_spike,
                extra_lo_ns: spike_lo_ns,
                extra_hi_ns: spike_hi_ns,
            }),
        ),
        _ => {
            return Err(unsupported(
                "non-constant latency models (the in-process transport replaces the mesh)",
            ))
        }
    };
    if base.telemetry_interval_ns.is_some() {
        return Err(unsupported("telemetry snapshots (virtual-time sampling)"));
    }
    if base.overload.queue.is_some_and(|q| q.priority_stats) {
        return Err(unsupported(
            "per-priority drop/shed accounting (the live transport does not \
             tag failures with engine priority classes)",
        ));
    }
    // Nominal-speed clusters keep the empty vector (the legacy shape);
    // degraded ones hand the factors to the live workers, which divide
    // service times by them exactly like the simulator does.
    let speed_factors = if cluster.server_speed_factors.iter().all(|&f| f == 1.0) {
        Vec::new()
    } else {
        cluster.server_speed_factors.clone()
    };
    let service = cluster.service_model(base.workload.sizes.mean_bytes());
    Ok(RtClusterConfig {
        num_servers: cluster.num_servers,
        workers_per_server: cluster.cores_per_server,
        replication: cluster.replication,
        num_partitions: Some(cluster.num_partitions),
        policy: PolicyKind::Fifo, // overridden per strategy below
        selector: SelectorSpec::LeastOutstanding, // overridden per strategy
        work: WorkModel::SimulateService(service),
        store_shards: 16,
        sizes: base.workload.sizes,
        forecast: cluster.forecast,
        num_clients: cluster.num_clients,
        network_rtt_ns,
        queue_mode: RtQueueMode::PerServer, // overridden per strategy
        credits: None,                      // overridden per strategy
        hedge_delay_ns: None,               // overridden per strategy
        queue: base.overload.queue,
        timeout: base.overload.timeout,
        speed_factors,
        spike,
        panic_on_key: None,
    })
}

/// Runs one (cell × strategy × seed) against a fresh live cluster.
fn run_one(
    cell: &ScenarioCell,
    cluster_template: &RtClusterConfig,
    strategy: &Strategy,
    rt: RtStrategy,
    seed: u64,
) -> Result<RunResult, ScenarioError> {
    let mut config = cluster_template.clone();
    config.policy = rt.policy;
    config.selector = rt.selector;
    config.queue_mode = if rt.global_queue {
        RtQueueMode::Global
    } else {
        RtQueueMode::PerServer
    };
    config.credits = rt.credits.map(|cc| RtCreditsConfig {
        config: cc,
        server_capacity_rps: cell.base.cluster.server_capacity_rps(),
        congestion_queue_threshold: cell.base.congestion_queue_threshold,
    });
    if config.credits.is_some() {
        // The load generator drives ONE aggregate client carrying the
        // whole offered load, so the credits lane's fair-share seeding
        // and outstanding weighting must describe that real population
        // of one — seeding buckets at `capacity / sim_num_clients`
        // would starve the only client N-fold until the controller
        // adapts. The sim's logical client count still shapes the
        // workload itself (task rate, fanout).
        config.num_clients = 1;
    }
    config.hedge_delay_ns = rt.hedge_delay_ns;
    let overload_lane = config.queue.is_some() || config.timeout.is_some();

    let (fanout, key_range, key_zipf) = lower_workload_kind(&cell.base.workload.kind);
    let task_rate = cell.base.workload.task_rate(&cell.base.cluster);
    let cluster = RtCluster::start(config);
    cluster.populate_etc(key_range);
    let report = try_run_load(
        &cluster,
        &LoadGenConfig {
            tasks: cell.base.workload.num_tasks,
            mode: LoadMode::Open {
                task_rate_per_sec: task_rate,
            },
            fanout,
            key_range,
            key_zipf,
            seed,
        },
    )
    .map_err(rt_failed)?;
    cluster.shutdown_checked().map_err(rt_failed)?;

    // The live lane fills every counter it actually measures — including
    // the credits lane (demand reports, congestion signals) and the
    // hedging lane (hedges issued, duplicate responses), which are now
    // native — the mapping is documented next to the report-v1 schema
    // (crates/rt/README.md). With the overload knobs off the loadgen
    // guarantees `completed == tasks` and all-zero failure counters, so
    // the report stays byte-identical to the legacy shape
    // (`overload: None` omits the additive keys).
    let overload = overload_lane.then_some(OverloadStats {
        goodput: report.goodput,
        dropped: report.dropped,
        timed_out: report.timed_out,
        retries: report.retries,
        shed: report.shed,
    });
    Ok(RunResult {
        strategy: strategy.name(),
        seed,
        task_latency_ms: report.task_latency_ms,
        request_latency_ms: report.request_latency_ms,
        hold_time_ms: None,
        utilization: report.utilization,
        completed_tasks: report.completed,
        measured_tasks: report.task_latency_ms.count,
        sim_secs: report.wall.as_secs_f64(),
        events: 0,
        dispatched: report.requests,
        congestion_signals: report.congestion_signals,
        demand_reports: report.demand_reports,
        hedges_issued: report.hedges_issued,
        duplicate_responses: report.duplicate_responses,
        overload,
        priority_classes: None,
    })
}

/// Runs every cell of a validated spec on the live runtime. Cells (and
/// the seeds within them) run sequentially: live runs share the
/// machine's cores, so parallel cells would contend and corrupt each
/// other's latencies.
pub fn run_spec_rt(spec: &ScenarioSpec) -> Result<Vec<CellResult>, ScenarioError> {
    run_spec_rt_with_progress(spec, |_, _| {})
}

/// [`run_spec_rt`] with a per-cell progress callback
/// (`(cell_index, num_cells)`, same contract as the simulator runner's).
pub fn run_spec_rt_with_progress(
    spec: &ScenarioSpec,
    mut progress: impl FnMut(usize, usize),
) -> Result<Vec<CellResult>, ScenarioError> {
    if spec.replay {
        return Err(unsupported("replay mode (trace JSONL round-trips)"));
    }
    let cells = spec.lower()?;
    let num_cells = cells.len();
    cells
        .into_iter()
        .map(|cell| {
            progress(cell.index, num_cells);
            let cluster_template = lower_cluster(&cell.base)?;
            // Reject every unsupported strategy *before* any run starts,
            // so a failure cannot waste a half-executed grid.
            let lowered: Vec<RtStrategy> = cell
                .strategies
                .iter()
                .map(lower_strategy)
                .collect::<Result<_, _>>()?;
            let summaries = cell
                .strategies
                .iter()
                .zip(&lowered)
                .map(|(strategy, &rt)| {
                    let runs: Vec<RunResult> = cell
                        .seeds
                        .iter()
                        .map(|&seed| run_one(&cell, &cluster_template, strategy, rt, seed))
                        .collect::<Result<_, _>>()?;
                    Ok(StrategySummary::from_runs(runs))
                })
                .collect::<Result<_, ScenarioError>>()?;
            Ok(CellResult {
                index: cell.index,
                axes: cell.axes,
                summaries,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ScenarioBuilder;
    use brb_core::config::{SelectorKind, Strategy};
    use brb_sched::PolicyKind;

    fn tiny() -> ScenarioBuilder {
        ScenarioBuilder::new("rt-tiny")
            .servers(3)
            .cores(2)
            .partitions(3)
            .replication(2)
            .service_rate(20_000.0) // 50µs mean service: fast live runs
            .tasks(150)
            .load(0.5)
            .scale_catalog(true)
            .strategies(vec![Strategy::c3()])
            .seeds(&[1])
    }

    #[test]
    fn tiny_spec_runs_live() {
        let spec = tiny().build().unwrap();
        let results = run_spec_rt(&spec).unwrap();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].summaries.len(), 1);
        let run = &results[0].summaries[0].runs[0];
        assert_eq!(run.strategy, "C3");
        assert_eq!(run.completed_tasks, 150);
        assert_eq!(run.measured_tasks, 150);
        assert_eq!(run.task_latency_ms.count, 150);
        assert!(run.task_latency_ms.p50 > 0.0);
        assert!(run.dispatched >= 150);
        assert!(run.sim_secs > 0.0);
        assert!(run.utilization > 0.0);
    }

    #[test]
    fn faults_run_live() {
        // Degraded speeds divide live service times; spikes become extra
        // worker-held time. Both lanes complete at modest load with the
        // legacy report shape (no overload knobs ⇒ no additive keys).
        let degraded = tiny().load(0.3).degrade_server(0, 0.5).build().unwrap();
        let results = run_spec_rt(&degraded).unwrap();
        let run = &results[0].summaries[0].runs[0];
        assert_eq!(run.completed_tasks, 150);
        assert!(run.overload.is_none());

        let spiky = tiny().load(0.3).spike(0.05, 200, 500).build().unwrap();
        let results = run_spec_rt(&spiky).unwrap();
        let run = &results[0].summaries[0].runs[0];
        assert_eq!(run.completed_tasks, 150);
        assert!(run.overload.is_none());
    }

    #[test]
    fn overload_knobs_run_live_and_conserve() {
        let spec = tiny()
            .load(1.2)
            .bounded_queue(crate::spec::QueueSpec {
                capacity: 8,
                shed_above: Some(6),
                codel_target_us: None,
                codel_interval_us: None,
                priority_stats: false,
            })
            .timeouts(crate::spec::TimeoutSpec {
                timeout_us: 5_000,
                max_retries: 1,
                backoff_base_us: 100,
                backoff_cap_us: 1_000,
                retry_budget_percent: Some(10),
            })
            .build()
            .unwrap();
        let results = run_spec_rt(&spec).unwrap();
        let run = &results[0].summaries[0].runs[0];
        let o = run.overload.expect("overload lane on ⇒ stats present");
        assert_eq!(
            run.completed_tasks as u64 + o.dropped + o.timed_out + o.shed,
            150,
            "live conservation must hold in the report"
        );
        assert!(o.goodput > 0.0);
        assert!(run.priority_classes.is_none());
    }

    #[test]
    fn load_axis_lowers_to_arrival_rates() {
        let spec = tiny().sweep_load(&[0.3, 0.6]).build().unwrap();
        let results = run_spec_rt(&spec).unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].axes.load, Some(0.3));
        assert_eq!(results[1].axes.load, Some(0.6));
    }

    #[test]
    fn credits_strategy_runs_live_with_native_controller() {
        // Demand reports ride the 100ms measurement tick, so the run
        // must span several ticks to observe one regardless of machine
        // load — 2000 tasks at this arrival rate is a few hundred ms.
        let spec = tiny()
            .tasks(2_000)
            .strategies(vec![Strategy::equal_max_credits()])
            .build()
            .unwrap();
        let results = run_spec_rt(&spec).unwrap();
        let run = &results[0].summaries[0].runs[0];
        assert_eq!(run.completed_tasks, 2_000);
        assert!(
            run.demand_reports > 0,
            "native credits lane must count real demand reports, got 0"
        );
    }

    #[test]
    fn model_strategy_runs_live_on_global_queue() {
        let spec = tiny()
            .strategies(vec![Strategy::equal_max_model()])
            .build()
            .unwrap();
        let results = run_spec_rt(&spec).unwrap();
        let run = &results[0].summaries[0].runs[0];
        assert_eq!(run.completed_tasks, 150);
        assert_eq!(run.measured_tasks, 150);
    }

    #[test]
    fn hedged_strategy_runs_live_and_conserves() {
        // Spikes give hedging something to duplicate: p_spike = 1 adds
        // 2ms of worker-held time the 50µs forecast can't see, so the
        // 500µs hedge timer fires on every un-settled straggler (capped
        // by the 5% budget). Conservation must hold even with losing
        // duplicates discarded mid-run.
        let spec = tiny()
            .load(0.3)
            .spike(1.0, 2_000, 2_000)
            .strategies(vec![Strategy::Hedged {
                selector: SelectorKind::LeastOutstanding,
                delay_us: 500,
            }])
            .build()
            .unwrap();
        let results = run_spec_rt(&spec).unwrap();
        let run = &results[0].summaries[0].runs[0];
        assert_eq!(run.strategy, "hedged(least-outstanding, 500us)");
        assert_eq!(run.completed_tasks, 150);
        assert!(
            run.hedges_issued > 0,
            "deterministic spikes must trigger at least one hedge"
        );
        assert!(run.duplicate_responses <= run.hedges_issued);
        assert!(run.overload.is_none(), "hedging alone keeps legacy shape");
    }

    #[test]
    fn unsupported_features_fail_typed() {
        let oracle = tiny()
            .strategies(vec![Strategy::Direct {
                selector: SelectorKind::Oracle,
                policy: PolicyKind::Fifo,
                priority_queues: false,
            }])
            .build()
            .unwrap();
        match run_spec_rt(&oracle) {
            Err(ScenarioError::RtUnsupported { what }) => assert!(what.contains("oracle")),
            other => panic!("expected RtUnsupported, got {other:?}"),
        }

        let replay = tiny().replay(true).build().unwrap();
        match run_spec_rt(&replay) {
            Err(ScenarioError::RtUnsupported { what }) => assert!(what.contains("replay")),
            other => panic!("expected RtUnsupported, got {other:?}"),
        }

        let priority_stats = tiny()
            .bounded_queue(crate::spec::QueueSpec {
                capacity: 64,
                shed_above: None,
                codel_target_us: None,
                codel_interval_us: None,
                priority_stats: true,
            })
            .build()
            .unwrap();
        match run_spec_rt(&priority_stats) {
            Err(ScenarioError::RtUnsupported { what }) => {
                assert!(what.contains("per-priority"))
            }
            other => panic!("expected RtUnsupported, got {other:?}"),
        }

        let fifo_servers_with_priorities = tiny()
            .strategies(vec![Strategy::Direct {
                selector: SelectorKind::Random,
                policy: PolicyKind::EqualMax,
                priority_queues: false,
            }])
            .build()
            .unwrap();
        match run_spec_rt(&fifo_servers_with_priorities) {
            Err(ScenarioError::RtUnsupported { what }) => assert!(what.contains("FIFO servers")),
            other => panic!("expected RtUnsupported, got {other:?}"),
        }
    }
}
