//! The discrete-event engine: clients, servers, controller and network
//! wired into one [`World`].
//!
//! Every request follows the same life cycle regardless of strategy:
//!
//! ```text
//! task arrives at client ──► split/forecast/prioritize (task.rs)
//!   ──► client hold queue (per replica group)
//!   ──► pump: replica selection + admission (selector / credits / model)
//!   ──► network ──► server queue ──► core service ──► network ──► client
//!   ──► task completes when its last response lands
//! ```
//!
//! What differs per strategy is only the *pump* admission rule and the
//! server queue discipline:
//!
//! * **Direct** (C3 & ablations): the client's [`ReplicaSelector`] picks a
//!   replica (and may rate-limit); servers run FIFO or priority queues.
//! * **Credits**: dispatch spends a token from the client's
//!   [`CreditClient`]; held requests wait (that wait counts toward task
//!   latency); servers run priority queues; a controller re-allocates
//!   grant rates every adaptation interval from demand reports and
//!   congestion signals.
//! * **Model**: requests flow into the global priority queue after normal
//!   network latency; idle server cores work-pull with zero coordination
//!   cost.
//!
//! The decisions themselves — credit admission and demand estimation,
//! congestion detection, retry / hedge budgets, backoff and terminal
//! classification — and the server queue with its bound and AQM
//! ([`ServerQueue`]) are `brb-sched`'s; this engine only drives them
//! from the calendar (`brb-rt` drives the same code from threads).

use crate::config::{ExperimentConfig, SelectorKind, Strategy, TimeoutConfig};
use crate::plan::WorkloadPlan;
use crate::slab::Slab;
use crate::task::TaskBuilder;
use crate::timeline::{Timeline, TimelineSample};
use brb_metrics::Histogram;
use brb_net::{Fabric, FabricPlan, NetNodeId};
pub use brb_sched::TaskFailure;
use brb_sched::{
    AttemptFailure, CongestionDetector, CreditClient, CreditController, CreditsConfig,
    DispatchBudget, DropReason, GrantTable, PolicyKind, Priority, PriorityQueue, RequestQueue,
    ServerQueue, Verdict,
};
use brb_select::{
    C3Config, C3Selector, LeastOutstandingSelector, OracleSelector, RandomSelector,
    ReplicaSelector, ResponseFeedback, RoundRobinSelector, Selection, SelectionCtx,
};
use brb_sim::{Ctx, DetRng, RngFactory, SimDuration, SimTime, World};
use brb_store::cost::CostModel;
use brb_store::ids::{GroupId, ServerId};
use brb_store::partition::Ring;
use brb_store::service::ServiceModel;
use brb_workload::taskgen::TaskSpec;
use std::sync::Arc;

/// Slab key of a pooled [`InFlight`] record. Calendar events carry this
/// 4-byte key instead of the record itself, and queues hold keys instead
/// of payloads — the record lives in `EngineWorld::requests` from task
/// arrival until its last referencing event has fired, then its slot is
/// recycled for a later request. Steady state allocates nothing.
pub type ReqId = u32;

/// Slab key of a pooled controller-message payload (`Vec<(u16, f64)>` of
/// per-server demands or grants). The vectors rotate through
/// `EngineWorld::payload_pool`, so the measurement/adaptation tick chains
/// stop allocating once the pool is warm.
pub type PayloadId = u32;

/// A request in flight through the system. Kept `Copy`-small: millions of
/// these move through the calendar per run.
#[derive(Debug, Clone, Copy)]
pub struct InFlight {
    /// Index of the owning task in the trace.
    pub task_idx: u32,
    /// Index of this request within its task (for hedging dedup).
    pub req_idx: u16,
    /// The owning client.
    pub client: u16,
    /// Replica group of the key.
    pub group: u16,
    /// Value size in bytes (values are capped at 1 MiB, fits u32).
    pub value_bytes: u32,
    /// Assigned scheduling priority.
    pub priority: Priority,
    /// When the client dispatched it (ns); 0 while held.
    pub dispatched_ns: u64,
    /// When the attempt entered a server (or the global) queue (ns);
    /// only maintained when queue knobs are on — it feeds the AQM's
    /// sojourn measurement.
    pub enqueued_ns: u64,
    /// Whether this is a hedge duplicate (hedges are never re-hedged).
    pub is_hedge: bool,
    /// Which attempt of its logical request this record is (0 = the
    /// original; retries increment).
    pub attempt: u8,
    /// Set when a newer attempt replaced this one (its timeout fired or
    /// its NACK was answered with a retry): whichever of its remaining
    /// events still fire must not retry or fail the task again.
    pub superseded: bool,
}

/// The engine's event alphabet. Every payload is either a small scalar
/// or a slab key ([`ReqId`]/[`PayloadId`]), keeping the enum at 24 bytes
/// (asserted in tests) — calendar entries stay small and no event
/// carries a heap allocation. The old alphabet moved a 32-byte
/// [`InFlight`] or a `Vec` through every event.
#[derive(Debug)]
pub enum Ev {
    /// Task `task_idx` arrives at its client.
    TaskArrive(u32),
    /// Re-attempt dispatch of held requests at a client.
    Pump(u16),
    /// A request reaches the queue behind a server: the server's own,
    /// or — model realization — the global queue, the server then being
    /// only where the request was addressed.
    ReqAtServer(u16, ReqId),
    /// A core finishes serving a request (`service_ns` spent).
    SvcDone(u16, ReqId, u64),
    /// A response reaches the owning client: `from` server, its queue
    /// length on departure, and the service time — the full
    /// [`ResponseFeedback`] is rebuilt at the client, where the response
    /// time is stamped anyway.
    RespAtClient(ReqId, u16, u32, u64),
    /// Clients measure and report demand (credits realization).
    MeasureTick,
    /// A demand report reaches the controller.
    DemandAtController(u16, PayloadId),
    /// A congestion signal reaches the controller.
    CongestionAtController(u16),
    /// The controller re-allocates grants.
    AdaptTick,
    /// New grant rates reach a client.
    GrantAtClient(u16, PayloadId),
    /// Hedging timer: re-issue the request if it is still pending.
    HedgeFire(ReqId),
    /// Telemetry snapshot tick (only when telemetry is enabled).
    TelemetryTick,
    /// A drop/shed notice from `from` server reaches the owning client
    /// (overload lane: bounded queues / AQM).
    Nack(ReqId, u16, DropReason),
    /// Client-side per-attempt timeout timer (overload lane).
    ReqTimeout(ReqId),
    /// A retry's backoff elapsed: re-hold and pump the new attempt.
    RetryDispatch(ReqId),
}

/// Which realization the engine is running (derived from `Strategy`).
enum Realization {
    Direct,
    Credits(CreditsConfig),
    Model,
}

struct ServerState {
    /// Speed factor: service times divide by this (0.5 = half speed).
    speed: f64,
    cores: u32,
    busy_cores: u32,
    service_rng: DetRng,
    busy_ns: u64,
    served: u64,
    /// Congestion detection (credits realization only).
    congestion: Option<CongestionDetector>,
}

struct ClientState {
    selector: Option<Box<dyn ReplicaSelector>>,
    /// Token admission, replica choice and demand estimation (credits
    /// realization only).
    credits: Option<CreditClient>,
    /// Held requests per replica group, priority-ordered.
    hold: Vec<PriorityQueue<ReqId>>,
    held: usize,
    /// Dispatch counters the retry and hedge budgets are measured
    /// against.
    budget: DispatchBudget,
    /// Earliest currently-scheduled pump, to damp duplicate events.
    pump_at: Option<u64>,
}

struct TaskState {
    arrival_ns: u64,
    pending: u16,
    client: u16,
    /// Per-request completion flags — needed once hedging can deliver two
    /// responses for one request (first wins). Filled lazily at arrival.
    done: Vec<bool>,
}

/// Run counters for diagnostics and tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Requests dispatched to servers.
    pub dispatched: u64,
    /// Pump attempts that found every candidate rate-limited.
    pub rate_limited: u64,
    /// Congestion signals sent to the controller.
    pub congestion_signals: u64,
    /// Grant messages delivered to clients.
    pub grants_delivered: u64,
    /// Demand reports delivered to the controller.
    pub demand_reports: u64,
    /// Hedge duplicates issued (hedged strategy only).
    pub hedges_issued: u64,
    /// Responses that arrived after their request was already complete
    /// (wasted work under hedging, or late arrivals for tasks that
    /// already failed terminally under the overload lane).
    pub duplicate_responses: u64,
    /// Peak total held requests across clients.
    pub peak_held: usize,
    /// Request attempts tail-dropped at capacity or AQM-dropped at
    /// dequeue (overload lane).
    pub requests_dropped: u64,
    /// Request attempts shed by admission control (overload lane).
    pub requests_shed: u64,
    /// Per-attempt timeouts that fired on a still-pending request.
    pub timeouts_fired: u64,
    /// Retry attempts issued (after NACKs or timeouts).
    pub retries_issued: u64,
    /// Tasks terminally failed by a dropped request (tail-drop or AQM).
    pub tasks_dropped: u64,
    /// Tasks terminally failed by admission-control shedding.
    pub tasks_shed: u64,
    /// Tasks terminally failed by timeout (including retries-exhausted).
    pub tasks_timed_out: u64,
}

/// The complete simulation model for one seeded run of one strategy.
pub struct EngineWorld {
    cfg: ExperimentConfig,
    realization: Realization,
    policy: PolicyKind,
    /// Hedge trigger delay (hedged strategy only).
    hedge_ns: Option<u64>,
    ring: Ring,
    cost: CostModel,
    service: ServiceModel,
    /// The fabric compiled into per-hop deltas (`cfg.net` selects the
    /// compiled fast path or the forced per-message slow path).
    plan: FabricPlan,
    /// Cached `plan.uniform_const()`: on the paper's constant mesh every
    /// send path timestamps with this single add — no node-id math, no
    /// model resolution, no RNG touch — and `prime` feeds the same delta
    /// to the calendar's hop lane.
    hop_const: Option<SimDuration>,
    latency_rng: DetRng,
    group_replicas: Vec<Vec<ServerId>>,

    /// The workload trace, shared (not copied) across the strategy cells
    /// of a sweep seed — the engine only reads it.
    trace: Arc<Vec<TaskSpec>>,
    tasks: Vec<TaskState>,
    clients: Vec<ClientState>,
    servers: Vec<ServerState>,
    /// One queue per server, or — model realization — the single global
    /// queue every server pulls from ([`Self::queue_of`]). Queues hold
    /// slab keys, not records; the overload lane's bound and AQM live
    /// inside them.
    queues: Vec<ServerQueue<ReqId>>,
    /// Heads CoDel ejected during one `start_service`, NACKed once the
    /// queue borrow ends.
    codel_rejects: Vec<ReqId>,
    controller: Option<CreditController>,

    /// Pooled in-flight records, keyed by the [`ReqId`]s events carry.
    /// The `u8` is the count of outstanding event references (the
    /// request chain plus, when hedging, the pending hedge timer); the
    /// slot is recycled when it reaches zero.
    requests: Slab<(InFlight, u8)>,
    /// Pooled controller-message payloads in flight on the virtual wire.
    payloads: Slab<Vec<(u16, f64)>>,
    /// Spent payload vectors awaiting reuse.
    payload_pool: Vec<Vec<(u16, f64)>>,
    /// Spent per-task completion-flag vectors awaiting reuse.
    done_pool: Vec<Vec<bool>>,
    /// Pooled grant table refilled by `CreditController::allocate_into`
    /// each adaptation tick — the tick chain allocates nothing once the
    /// table's rows are warm.
    grant_table: GrantTable,
    /// Per-client regroup scratch for `handle_adapt_tick`; inner vectors
    /// rotate through `payload_pool`.
    grant_scratch: Vec<Vec<(u16, f64)>>,
    /// Reusable client-side task-build pipeline.
    builder: TaskBuilder,

    /// Client timeout/retry knobs; `None` means clients never time out.
    timeout: Option<TimeoutConfig>,

    warmup_ns: u64,
    completed: usize,
    /// Tasks that failed terminally (overload lane); always 0 with the
    /// knobs off.
    failed: usize,
    measured_tasks: u64,
    finished: bool,

    /// Task latency (ns), post-warm-up.
    pub task_latency: Histogram,
    /// Per-request latency (dispatch → response, ns), post-warm-up.
    pub request_latency: Histogram,
    /// Client hold time (arrival → dispatch, ns), post-warm-up.
    pub hold_time: Histogram,
    /// Diagnostics.
    pub counters: Counters,
    /// Telemetry snapshots (empty unless `telemetry_interval_ns` is set).
    pub timeline: Timeline,
    /// Terminal drop/shed counts split by priority class (the bit length
    /// of the failing request's priority key, so class 0 holds priority
    /// 0 and class `k` holds keys in `[2^(k-1), 2^k)`). `Some` only when
    /// `QueueConfig::priority_stats` is on; the per-class drop and shed
    /// sums then equal `tasks_dropped` and `tasks_shed`.
    pub dropshed_by_class: Option<std::collections::BTreeMap<u8, (u64, u64)>>,

    oracle_scratch: Vec<u64>,
}

impl std::fmt::Debug for EngineWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineWorld")
            .field("policy", &self.policy)
            .field("hedge_ns", &self.hedge_ns)
            .finish_non_exhaustive()
    }
}

impl EngineWorld {
    /// Builds the world (generates the trace, calibrates the service
    /// model, seeds every stream) for the given configuration.
    ///
    /// # Panics
    /// Panics if the configuration fails validation.
    pub fn new(cfg: ExperimentConfig) -> Self {
        // Validation happens in `generate_trace` (and `with_trace`).
        let trace = Self::generate_trace(&cfg);
        Self::with_trace(cfg, trace)
    }

    /// Generates the workload trace a configuration implies: the
    /// config's [`WorkloadPlan`] built, then drawn from once. Only the
    /// seed and the workload section matter — the strategy does not —
    /// so sweep runners never call this per run: they build each seed's
    /// plan once, draw each distinct trace once and share it across the
    /// runs it serves (the paper's common-random-numbers methodology,
    /// also an optimization).
    ///
    /// # Panics
    /// Panics if the configuration fails validation.
    pub fn generate_trace(cfg: &ExperimentConfig) -> Vec<TaskSpec> {
        cfg.validate().expect("invalid experiment config");
        WorkloadPlan::build(cfg).draw(cfg)
    }

    /// Builds the world around an externally-supplied trace — replay a
    /// recorded production workload (`brb_workload::Trace::read_jsonl`)
    /// or a hand-crafted scenario. The config's workload *kind* is
    /// ignored; its `sizes` model still calibrates service times.
    ///
    /// # Panics
    /// Panics if the config is invalid, the trace is empty, contains an
    /// empty task or is not ordered by arrival time.
    pub fn with_trace(cfg: ExperimentConfig, trace: Vec<TaskSpec>) -> Self {
        Self::with_shared_trace(cfg, Arc::new(trace))
    }

    /// [`Self::with_trace`] without taking ownership of the task list:
    /// sweep runners hand every strategy cell of a seed the *same*
    /// trace allocation instead of deep-copying ~megabytes per cell.
    ///
    /// # Panics
    /// As for [`Self::with_trace`].
    pub fn with_shared_trace(cfg: ExperimentConfig, trace: Arc<Vec<TaskSpec>>) -> Self {
        cfg.validate().expect("invalid experiment config");
        assert!(!trace.is_empty(), "trace must contain at least one task");
        assert!(
            trace.iter().all(|t| !t.requests.is_empty()),
            "every task needs at least one request"
        );
        assert!(
            trace.windows(2).all(|w| w[0].arrival_ns <= w[1].arrival_ns),
            "trace must be ordered by arrival time"
        );
        let factory = RngFactory::new(cfg.seed);
        let cluster = &cfg.cluster;
        let ring = Ring::new(
            cluster.num_servers,
            cluster.num_partitions,
            cluster.replication,
        );

        // Service model calibrated to the workload's mean value size, so
        // "3500 req/s per core" holds by construction.
        let mean_bytes = cfg.workload.sizes.mean_bytes();
        let service = cluster.service_model(mean_bytes);
        let cost = CostModel::new(service, cluster.forecast);

        let fabric = Fabric::uniform(cluster.latency.clone());
        // Clients, servers and the controller each get a fabric node.
        let num_nodes = cluster.num_clients as u64 + cluster.num_servers as u64 + 1;
        let plan = FabricPlan::with_mode(fabric, num_nodes, cfg.net);
        let hop_const = plan.uniform_const();
        let num_groups = ring.num_groups() as usize;
        let group_replicas: Vec<Vec<ServerId>> = (0..num_groups)
            .map(|g| ring.replicas_of_group(GroupId::new(g as u64)))
            .collect();

        let (realization, policy, hedge_ns) = match &cfg.strategy {
            Strategy::Direct { policy, .. } => (Realization::Direct, *policy, None),
            Strategy::Credits { policy, credits } => {
                (Realization::Credits(*credits), *policy, None)
            }
            Strategy::Model { policy } => (Realization::Model, *policy, None),
            Strategy::Hedged { delay_us, .. } => (
                Realization::Direct,
                PolicyKind::Fifo,
                Some(delay_us * 1_000),
            ),
        };

        // Clients.
        let n_servers = cluster.num_servers as usize;
        let server_cap = cluster.server_capacity_rps();
        let credits_cfg = match &realization {
            Realization::Credits(cc) => Some(*cc),
            _ => None,
        };
        let clients: Vec<ClientState> = (0..cluster.num_clients as usize)
            .map(|c| {
                let selector_kind = match &cfg.strategy {
                    Strategy::Direct { selector, .. } => Some(*selector),
                    Strategy::Hedged { selector, .. } => Some(*selector),
                    _ => None,
                };
                let selector: Option<Box<dyn ReplicaSelector>> =
                    selector_kind.map(|kind| match kind {
                        SelectorKind::Random => Box::new(RandomSelector::new(
                            factory.stream_seed(&format!("selector-{c}")),
                        ))
                            as Box<dyn ReplicaSelector>,
                        SelectorKind::RoundRobin => Box::new(RoundRobinSelector::new()),
                        SelectorKind::LeastOutstanding => Box::new(LeastOutstandingSelector::new()),
                        SelectorKind::Oracle => Box::new(OracleSelector::new()),
                        SelectorKind::C3 => Box::new(C3Selector::new(C3Config::paper_default(
                            cluster.num_clients,
                        ))),
                    });
                ClientState {
                    selector,
                    credits: credits_cfg.map(|cc| {
                        CreditClient::new(
                            n_servers,
                            cluster.num_clients as usize,
                            server_cap,
                            cc.burst_secs,
                        )
                    }),
                    hold: (0..num_groups)
                        .map(|_| PriorityQueue::with_capacity(32))
                        .collect(),
                    held: 0,
                    budget: DispatchBudget::default(),
                    pump_at: None,
                }
            })
            .collect();

        // Overload lane: a bound plus a CoDel controller per queue, all
        // off by default.
        let queue_cfg = cfg.overload.queue.as_ref();
        let timeout = cfg.overload.timeout;
        let dropshed_by_class = cfg
            .overload
            .queue
            .is_some_and(|q| q.priority_stats)
            .then(std::collections::BTreeMap::new);
        let queues: Vec<ServerQueue<ReqId>> = match (&realization, &cfg.strategy) {
            (Realization::Model, _) => vec![ServerQueue::global(ring.num_groups(), queue_cfg)],
            (
                _,
                Strategy::Direct {
                    priority_queues: false,
                    ..
                }
                | Strategy::Hedged { .. },
            ) => (0..n_servers)
                .map(|_| ServerQueue::fifo(queue_cfg))
                .collect(),
            _ => (0..n_servers)
                .map(|_| ServerQueue::priority(queue_cfg))
                .collect(),
        };

        // Servers.
        let servers: Vec<ServerState> = (0..n_servers)
            .map(|s| ServerState {
                speed: cluster.speed_of(s),
                cores: cluster.cores_per_server,
                busy_cores: 0,
                service_rng: factory.indexed_stream("service", s as u64),
                busy_ns: 0,
                served: 0,
                congestion: credits_cfg.map(|cc| {
                    CongestionDetector::new(
                        cfg.congestion_queue_threshold,
                        server_cap,
                        cc.measurement_interval_ns,
                    )
                }),
            })
            .collect();

        let controller =
            credits_cfg.map(|cc| CreditController::new(vec![server_cap; n_servers], cc));

        let tasks: Vec<TaskState> = trace
            .iter()
            .enumerate()
            .map(|(i, t)| TaskState {
                arrival_ns: t.arrival_ns,
                pending: t.requests.len() as u16,
                client: (i % cluster.num_clients as usize) as u16,
                done: Vec::new(), // filled at arrival
            })
            .collect();

        let last_arrival = trace.last().map(|t| t.arrival_ns).unwrap_or(0);
        let warmup_ns = (last_arrival as f64 * cfg.warmup_fraction) as u64;

        let num_clients = cluster.num_clients as usize;
        EngineWorld {
            cfg,
            realization,
            policy,
            hedge_ns,
            ring,
            cost,
            service,
            plan,
            hop_const,
            latency_rng: factory.stream("latency"),
            group_replicas,
            trace,
            tasks,
            clients,
            servers,
            queues,
            codel_rejects: Vec::new(),
            controller,
            requests: Slab::with_capacity(1024),
            payloads: Slab::with_capacity(num_clients * 2),
            payload_pool: Vec::with_capacity(num_clients * 2),
            done_pool: Vec::with_capacity(64),
            grant_table: GrantTable::new(),
            grant_scratch: vec![Vec::new(); num_clients],
            builder: TaskBuilder::default(),
            timeout,
            warmup_ns,
            completed: 0,
            failed: 0,
            measured_tasks: 0,
            finished: false,
            task_latency: Histogram::for_latency_ns(),
            request_latency: Histogram::for_latency_ns(),
            hold_time: Histogram::for_latency_ns(),
            counters: Counters::default(),
            timeline: Timeline::default(),
            dropshed_by_class,
            oracle_scratch: Vec::with_capacity(8),
        }
    }

    /// Seeds the calendar — first task arrival plus, for credits, the
    /// measurement and adaptation tick chains — and, on a constant mesh,
    /// declares the calendar's hop lane at the plan's precomputed delta
    /// so every network hop bypasses the timer wheel.
    pub fn prime(sim: &mut brb_sim::Simulation<EngineWorld>) {
        let (first_arrival, ticks, telemetry, hop_const) = {
            let w = sim.world();
            let first = w.trace.first().map(|t| t.arrival_ns);
            let ticks = match &w.realization {
                Realization::Credits(c) => {
                    Some((c.measurement_interval_ns, c.adaptation_interval_ns))
                }
                _ => None,
            };
            (first, ticks, w.cfg.telemetry_interval_ns, w.hop_const)
        };
        if let Some(delta) = hop_const {
            sim.set_hop_lane(delta);
        }
        if let Some(at) = first_arrival {
            sim.schedule_at(SimTime::from_nanos(at), Ev::TaskArrive(0));
        }
        if let Some((m, a)) = ticks {
            sim.schedule_at(SimTime::from_nanos(m), Ev::MeasureTick);
            sim.schedule_at(SimTime::from_nanos(a), Ev::AdaptTick);
        }
        if let Some(interval) = telemetry {
            assert!(interval > 0, "telemetry interval must be positive");
            sim.schedule_at(SimTime::ZERO, Ev::TelemetryTick);
            let _ = interval;
        }
    }

    /// Takes one telemetry snapshot and schedules the next tick.
    fn handle_telemetry_tick(&mut self, ctx: &mut Ctx<'_, Ev>) {
        let interval = self
            .cfg
            .telemetry_interval_ns
            .expect("telemetry tick without telemetry");
        // Model-realization servers own no queue; the one there is shows
        // up as `global_queue`.
        let model = matches!(self.realization, Realization::Model);
        let depth = |q: &ServerQueue<ReqId>| q.len() as u32;
        let (server_queue, global_queue) = if model {
            (vec![0; self.servers.len()], depth(&self.queues[0]))
        } else {
            (self.queues.iter().map(depth).collect(), 0)
        };
        self.timeline.push(TimelineSample {
            t_ns: ctx.now().as_nanos(),
            server_queue,
            busy_cores: self.servers.iter().map(|s| s.busy_cores).collect(),
            client_held: self.clients.iter().map(|c| c.held as u32).collect(),
            completed_tasks: self.completed as u64,
            global_queue,
        });
        if !self.finished {
            ctx.schedule_in(SimDuration::from_nanos(interval), Ev::TelemetryTick);
        }
    }

    /// Number of tasks completed so far.
    pub fn completed_tasks(&self) -> usize {
        self.completed
    }

    /// Number of tasks that failed terminally (dropped, shed or timed
    /// out under the overload lane); 0 with the knobs off.
    pub fn failed_tasks(&self) -> usize {
        self.failed
    }

    /// Peak queue depth observed across all server queues (the global
    /// queue's, under the model realization).
    pub fn peak_server_queue(&self) -> usize {
        self.queues.iter().map(|q| q.peak()).max().unwrap_or(0)
    }

    /// Total tasks in the (possibly replayed) trace.
    pub fn total_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Number of tasks included in latency statistics (post-warm-up).
    pub fn measured_tasks(&self) -> u64 {
        self.measured_tasks
    }

    /// Whether every task has resolved (completed, or — with overload
    /// knobs on — failed terminally).
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Live pooled in-flight records. Zero after a run to exhaustion —
    /// anything else is a reference-count leak in the event lifecycle.
    pub fn live_requests(&self) -> usize {
        self.requests.len()
    }

    /// Mean server utilization over `span_ns` of virtual time.
    pub fn mean_utilization(&self, span_ns: u64) -> f64 {
        if span_ns == 0 {
            return 0.0;
        }
        let busy: u64 = self.servers.iter().map(|s| s.busy_ns).sum();
        let cores: u64 = self.servers.iter().map(|s| s.cores as u64).sum();
        busy as f64 / (span_ns as f64 * cores as f64)
    }

    /// The experiment configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.cfg
    }

    // ---- internals ----

    /// Samples the one-way delay of one message-class hop through the
    /// compiled plan. On a constant mesh this is the cached delta — the
    /// endpoints are never even resolved to fabric nodes; jittered
    /// meshes (and `PlanMode::PerMessage` builds) resolve the endpoints
    /// and draw through the latency model exactly as the historical
    /// `Fabric::one_way` path did.
    #[inline]
    fn hop_delay(&mut self, hop: Hop, bytes: u64) -> SimDuration {
        if let Some(d) = self.hop_const {
            return d;
        }
        let (from, to) = self.hop_nodes(hop);
        self.plan.delay(from, to, bytes, &mut self.latency_rng)
    }

    /// Resolves a message-class hop to its directed fabric endpoints.
    fn hop_nodes(&self, hop: Hop) -> (NetNodeId, NetNodeId) {
        match hop {
            Hop::ClientToServer { client, server } => {
                (self.client_node(client), self.server_node(server))
            }
            Hop::ServerToClient { server, client } => {
                (self.server_node(server), self.client_node(client))
            }
            Hop::ClientToController { client } => {
                (self.client_node(client), self.controller_node())
            }
            Hop::ControllerToClient { client } => {
                (self.controller_node(), self.client_node(client))
            }
            Hop::ServerToController { server } => {
                (self.server_node(server), self.controller_node())
            }
        }
    }

    fn client_node(&self, c: u16) -> NetNodeId {
        NetNodeId::new(c as u64)
    }

    fn server_node(&self, s: u16) -> NetNodeId {
        NetNodeId::new(self.cfg.cluster.num_clients as u64 + s as u64)
    }

    fn controller_node(&self) -> NetNodeId {
        NetNodeId::new(self.cfg.cluster.num_clients as u64 + self.cfg.cluster.num_servers as u64)
    }

    // ---- pooled-record lifecycle ----

    /// Pools a record with `refs` outstanding event references.
    fn alloc_req(&mut self, rec: InFlight, refs: u8) -> ReqId {
        self.requests.insert((rec, refs))
    }

    /// The record behind a key.
    fn req(&self, id: ReqId) -> &InFlight {
        &self.requests.get(id).0
    }

    /// Consumes one event reference; the slot recycles at zero.
    fn deref_req(&mut self, id: ReqId) {
        let entry = self.requests.get_mut(id);
        debug_assert!(entry.1 > 0, "request over-released");
        entry.1 -= 1;
        if entry.1 == 0 {
            self.requests.remove(id);
        }
    }

    /// A cleared payload vector, reusing a pooled allocation when one is
    /// available.
    fn take_payload(&mut self) -> Vec<(u16, f64)> {
        self.payload_pool.pop().unwrap_or_default()
    }

    /// Returns a spent payload vector to the pool.
    fn recycle_payload(&mut self, mut payload: Vec<(u16, f64)>) {
        payload.clear();
        self.payload_pool.push(payload);
    }

    fn handle_task_arrival(&mut self, ctx: &mut Ctx<'_, Ev>, task_idx: u32) {
        // Chain the next arrival.
        let next = task_idx as usize + 1;
        if next < self.trace.len() {
            ctx.schedule_at(
                SimTime::from_nanos(self.trace[next].arrival_ns),
                Ev::TaskArrive(next as u32),
            );
        }

        self.builder.build(
            &self.trace[task_idx as usize],
            &self.ring,
            &self.cost,
            self.policy,
        );
        let client = self.tasks[task_idx as usize].client;
        let mut done = self.done_pool.pop().unwrap_or_default();
        done.clear();
        done.resize(self.builder.requests.len(), false);
        self.tasks[task_idx as usize].done = done;
        // Detach the built requests so the slab and client state can be
        // borrowed; the vector returns to the builder afterwards.
        let built = std::mem::take(&mut self.builder.requests);
        for (req_idx, r) in built.iter().enumerate() {
            let inflight = InFlight {
                task_idx,
                req_idx: req_idx as u16,
                client,
                group: r.group.raw() as u16,
                value_bytes: r.value_bytes as u32,
                priority: r.priority,
                dispatched_ns: 0,
                enqueued_ns: 0,
                is_hedge: false,
                attempt: 0,
                superseded: false,
            };
            let id = self.alloc_req(inflight, 1);
            let cs = &mut self.clients[client as usize];
            cs.hold[r.group.index()].push(r.priority, id);
            cs.held += 1;
        }
        self.builder.requests = built;
        let held_total: usize = self.clients.iter().map(|c| c.held).sum();
        self.counters.peak_held = self.counters.peak_held.max(held_total);
        self.pump(ctx, client);
    }

    /// Attempts to dispatch held requests for `client`; schedules a retry
    /// pump if admission is currently denied.
    fn pump(&mut self, ctx: &mut Ctx<'_, Ev>, client: u16) {
        let now = ctx.now();
        let now_ns = now.as_nanos();
        let num_groups = self.group_replicas.len();
        let mut earliest_retry: Option<u64> = None;

        for g in 0..num_groups {
            loop {
                let (head_id, head) = {
                    let q = &self.clients[client as usize].hold[g];
                    match q.peek_item() {
                        Some(&id) => (id, *self.req(id)),
                        None => break,
                    }
                };
                let dest = match self.admit(now_ns, client, g, &head) {
                    Ok(dest) => dest,
                    Err(retry_in_ns) => {
                        self.counters.rate_limited += 1;
                        let at = now_ns.saturating_add(retry_in_ns.max(1));
                        earliest_retry = Some(earliest_retry.map_or(at, |e: u64| e.min(at)));
                        break;
                    }
                };
                let cs = &mut self.clients[client as usize];
                let (_, id) = cs.hold[g].pop().expect("head vanished");
                debug_assert_eq!(id, head_id);
                cs.held -= 1;
                // ROADMAP ledger finding "Model retries": the Global branch must count too; fixed with the next re-baseline.
                cs.budget.dispatched += u64::from(dest.is_some());
                self.requests.get_mut(id).0.dispatched_ns = now_ns;
                self.counters.dispatched += 1;
                // Hold time is a per-task metric: only the first
                // attempt's wait measures arrival → dispatch.
                if head.attempt == 0
                    && self.tasks[head.task_idx as usize].arrival_ns >= self.warmup_ns
                {
                    self.hold_time
                        .record(now_ns - self.tasks[head.task_idx as usize].arrival_ns);
                }
                // A request for the (magic) shared queue still crosses
                // the network, as if to the group's primary.
                let wire_to = dest.unwrap_or(self.group_replicas[g][0]).raw() as u16;
                let delay = self.hop_delay(
                    Hop::ClientToServer {
                        client,
                        server: wire_to,
                    },
                    head.value_bytes as u64,
                );
                ctx.schedule_in(delay, Ev::ReqAtServer(wire_to, id));
                if let Some(hedge_ns) = self.hedge_ns {
                    // The pending hedge timer holds a second reference
                    // to the record.
                    self.requests.get_mut(id).1 += 1;
                    ctx.schedule_in(SimDuration::from_nanos(hedge_ns), Ev::HedgeFire(id));
                }
                self.arm_timeout(ctx, id);
            }
        }

        // Schedule (or advance) the retry pump.
        if let Some(at) = earliest_retry {
            let cs = &mut self.clients[client as usize];
            let needs_schedule = match cs.pump_at {
                Some(existing) => at < existing || existing <= now_ns,
                None => true,
            };
            if needs_schedule {
                cs.pump_at = Some(at);
                ctx.schedule_at(SimTime::from_nanos(at), Ev::Pump(client));
            }
        } else {
            self.clients[client as usize].pump_at = None;
        }
    }

    /// The strategy's admission rule for `req` at the head of `client`'s
    /// hold queue: `Ok(Some(server))` dispatches to that replica,
    /// `Ok(None)` to the model realization's global queue, and
    /// `Err(retry_in_ns)` leaves it held.
    fn admit(
        &mut self,
        now_ns: u64,
        client: u16,
        group: usize,
        req: &InFlight,
    ) -> Result<Option<ServerId>, u64> {
        let candidates = &self.group_replicas[group];
        match &self.realization {
            Realization::Model => Ok(None),
            Realization::Credits(_) => self.clients[client as usize]
                .credits
                .as_mut()
                .expect("credits realization")
                .admit(now_ns, candidates)
                .map(Some),
            Realization::Direct => {
                // Fill the oracle's true queue depths only when needed.
                let use_oracle = matches!(
                    self.cfg.strategy,
                    Strategy::Direct {
                        selector: SelectorKind::Oracle,
                        ..
                    }
                );
                if use_oracle {
                    self.oracle_scratch.clear();
                    for s in candidates {
                        let depth = self.queues[s.index()].len() as u64;
                        self.oracle_scratch
                            .push(depth + self.servers[s.index()].busy_cores as u64);
                    }
                }
                let sel_ctx = SelectionCtx {
                    now_ns,
                    candidates,
                    value_bytes: req.value_bytes as u64,
                    oracle_queue_depths: if use_oracle {
                        Some(&self.oracle_scratch)
                    } else {
                        None
                    },
                };
                let selector = self.clients[client as usize]
                    .selector
                    .as_mut()
                    .expect("direct strategy has a selector");
                match selector.select(&sel_ctx) {
                    Selection::Dispatch(s) => Ok(Some(s)),
                    Selection::RateLimited { retry_in_ns } => Err(retry_in_ns),
                }
            }
        }
    }

    /// Index of the queue `server` admits into and pulls from: its own,
    /// or — model realization — the one global queue.
    fn queue_of(&self, server: u16) -> usize {
        (server as usize).min(self.queues.len() - 1)
    }

    /// A request reaches the queue behind `server`. The model
    /// realization's single queue honors the same bound as any server's:
    /// there `server` is the replica the request was addressed to, and a
    /// NACK travels back from it, so the client pays a symmetric network
    /// delay.
    fn handle_req_at_server(&mut self, ctx: &mut Ctx<'_, Ev>, server: u16, id: ReqId) {
        let &InFlight {
            group, priority, ..
        } = self.req(id);
        let q = self.queue_of(server);
        let queue_len = match self.queues[q].offer(GroupId::new(group as u64), priority, id) {
            Ok(len) => len,
            Err((reason, _)) => return self.send_nack(ctx, server, id, reason),
        };
        if self.cfg.overload.queue.is_some() {
            // Feed the AQM's sojourn clock.
            self.requests.get_mut(id).0.enqueued_ns = ctx.now().as_nanos();
        }
        if self.servers[server as usize]
            .congestion
            .as_mut()
            .is_some_and(|c| c.on_arrival(ctx.now().as_nanos(), queue_len))
        {
            self.counters.congestion_signals += 1;
            let delay = self.hop_delay(Hop::ServerToController { server }, 64);
            ctx.schedule_in(delay, Ev::CongestionAtController(server));
        }
        let worker = match self.realization {
            // Wake the idle replica with the most free cores
            // (deterministic tie-break on id); it will pull the global
            // best it may serve.
            Realization::Model => self.group_replicas[group as usize]
                .iter()
                .filter(|s| {
                    let srv = &self.servers[s.index()];
                    srv.busy_cores < srv.cores
                })
                .min_by_key(|s| (self.servers[s.index()].busy_cores, s.raw()))
                .map(|s| s.raw() as u16),
            _ => Some(server),
        };
        if let Some(worker) = worker {
            self.start_service(ctx, worker);
        }
    }

    /// Starts service on every idle core of `server` that can get work
    /// from the queue behind it — under the model realization, the
    /// highest-priority request of the global queue it may serve. Heads
    /// CoDel ejects on the way are NACKed [`DropReason::Sojourn`].
    fn start_service(&mut self, ctx: &mut Ctx<'_, Ev>, server: u16) {
        let q = self.queue_of(server);
        loop {
            let srv = &self.servers[server as usize];
            if srv.busy_cores >= srv.cores {
                return;
            }
            // CoDel's clock: simulated now, and the head's wait since its
            // enqueue stamp.
            let (now_ns, requests) = (ctx.now().as_nanos(), &self.requests);
            let waited = |id: ReqId| now_ns.saturating_sub(requests.get(id).0.enqueued_ns);
            let clock = |&id: &ReqId| (now_ns, waited(id));
            let puller = ServerId::new(server as u64);
            let next = self.queues[q].take(puller, &self.ring, clock, &mut self.codel_rejects);
            for i in 0..self.codel_rejects.len() {
                self.send_nack(ctx, server, self.codel_rejects[i], DropReason::Sojourn);
            }
            self.codel_rejects.clear();
            let Some((_, id)) = next else {
                return;
            };
            let value_bytes = self.requests.get(id).0.value_bytes;
            let srv = &mut self.servers[server as usize];
            srv.busy_cores += 1;
            let service = self
                .service
                .sample(value_bytes as u64, &mut srv.service_rng)
                .mul_f64(1.0 / srv.speed);
            ctx.schedule_in(service, Ev::SvcDone(server, id, service.as_nanos()));
        }
    }

    fn handle_svc_done(&mut self, ctx: &mut Ctx<'_, Ev>, server: u16, id: ReqId, service_ns: u64) {
        let req = self.requests.get(id).0;
        let srv = &mut self.servers[server as usize];
        srv.busy_cores -= 1;
        srv.busy_ns += service_ns;
        srv.served += 1;
        let queue_len = self.queues[self.queue_of(server)].len() as u32;
        let delay = self.hop_delay(
            Hop::ServerToClient {
                server,
                client: req.client,
            },
            req.value_bytes as u64,
        );
        ctx.schedule_in(delay, Ev::RespAtClient(id, server, queue_len, service_ns));
        self.start_service(ctx, server);
    }

    fn handle_resp_at_client(
        &mut self,
        ctx: &mut Ctx<'_, Ev>,
        id: ReqId,
        from: u16,
        queue_len: u32,
        service_ns: u64,
    ) {
        let req = self.requests.get(id).0;
        // This response consumes its event reference; the copied record
        // carries everything the handler needs.
        self.deref_req(id);
        let now_ns = ctx.now().as_nanos();
        let c = req.client as usize;
        let feedback = ResponseFeedback {
            response_time_ns: now_ns.saturating_sub(req.dispatched_ns),
            queue_len: queue_len as u64,
            service_time_ns: service_ns,
        };
        {
            let from = ServerId::new(from as u64);
            let cs = &mut self.clients[c];
            if let Some(credits) = cs.credits.as_mut() {
                credits.on_response(from, feedback.queue_len);
            }
            if let Some(sel) = cs.selector.as_mut() {
                sel.on_response(from, now_ns, &feedback);
            }
        }

        if self.request_done(&req) {
            // Late duplicate under hedging: the work was wasted but the
            // response must not double-complete the request.
            self.counters.duplicate_responses += 1;
            return;
        }
        let task = &mut self.tasks[req.task_idx as usize];
        task.done[req.req_idx as usize] = true;
        task.pending -= 1;
        let post_warmup = task.arrival_ns >= self.warmup_ns;
        let task_completed = task.pending == 0;
        let task_arrival_ns = task.arrival_ns;
        if task_completed {
            // Recycle the completion flags; later hedge events observe
            // the empty vector as "task done".
            let done = std::mem::take(&mut task.done);
            self.done_pool.push(done);
        }
        if post_warmup {
            self.request_latency.record(feedback.response_time_ns);
        }
        if task_completed {
            self.completed += 1;
            if post_warmup {
                self.task_latency.record(now_ns - task_arrival_ns);
                self.measured_tasks += 1;
            }
            if self.completed + self.failed == self.tasks.len() {
                self.finished = true;
            }
        }

        // A response may free admission (C3 rate windows roll on acks), so
        // pump if work is held and no pump is imminent.
        if self.clients[c].held > 0 {
            self.pump(ctx, req.client);
        }
    }

    /// Whether `req`'s logical request has already resolved — answered,
    /// or its task completed or failed. A recycled (empty) `done` vector
    /// means the whole task did.
    fn request_done(&self, req: &InFlight) -> bool {
        self.tasks[req.task_idx as usize]
            .done
            .get(req.req_idx as usize)
            .copied()
            .unwrap_or(true)
    }

    /// Hedging timer fired: if the request is still pending and the
    /// shared hedge gate allows it ([`DispatchBudget::can_hedge`]: not
    /// forecast slower than the trigger — the runaway the ablation
    /// reproduces with a sub-service-time trigger — and within the
    /// duplicate budget), re-issue it (once) to whichever replica the
    /// selector now prefers.
    fn handle_hedge_fire(&mut self, ctx: &mut Ctx<'_, Ev>, id: ReqId) {
        let req = self.requests.get(id).0;
        // The timer's reference is consumed whatever happens next.
        self.deref_req(id);
        debug_assert!(!req.is_hedge, "hedges are never re-hedged");
        if self.request_done(&req) {
            return; // answered in time — no duplicate needed
        }
        let hedge_ns = self.hedge_ns.expect("hedge timer without hedging");
        let forecast_ns = self.cost.forecast_ns(req.value_bytes as u64);
        if !self.clients[req.client as usize]
            .budget
            .can_hedge(forecast_ns, hedge_ns)
        {
            return;
        }
        let now_ns = ctx.now().as_nanos();
        // Rate-limited (or a non-direct realization): skip the hedge
        // rather than queueing duplicate work.
        if let Ok(Some(server)) = self.admit(now_ns, req.client, req.group as usize, &req) {
            let mut dup = req;
            dup.is_hedge = true;
            dup.dispatched_ns = now_ns;
            let dup_id = self.alloc_req(dup, 1);
            self.clients[req.client as usize].budget.hedged += 1;
            self.counters.hedges_issued += 1;
            self.counters.dispatched += 1;
            let server = server.raw() as u16;
            let delay = self.hop_delay(
                Hop::ClientToServer {
                    client: req.client,
                    server,
                },
                dup.value_bytes as u64,
            );
            ctx.schedule_in(delay, Ev::ReqAtServer(server, dup_id));
        }
    }

    /// Arms the per-attempt timeout timer for a just-dispatched request
    /// (overload lane). The pending timer holds its own reference to the
    /// record; hedge duplicates never get one (hedges never retry).
    fn arm_timeout(&mut self, ctx: &mut Ctx<'_, Ev>, id: ReqId) {
        if let Some(tc) = self.timeout {
            self.requests.get_mut(id).1 += 1;
            ctx.schedule_in(SimDuration::from_nanos(tc.timeout_ns()), Ev::ReqTimeout(id));
        }
    }

    /// Counts a refused or ejected attempt and sends the drop/shed notice
    /// back to the owning client. The NACK is a small control message
    /// (64 B on the wire), and it carries the attempt's chain reference —
    /// `handle_nack` consumes it.
    fn send_nack(&mut self, ctx: &mut Ctx<'_, Ev>, server: u16, id: ReqId, reason: DropReason) {
        match reason {
            DropReason::Shed => self.counters.requests_shed += 1,
            DropReason::QueueFull | DropReason::Sojourn => self.counters.requests_dropped += 1,
        }
        let client = self.req(id).client;
        let delay = self.hop_delay(Hop::ServerToClient { server, client }, 64);
        ctx.schedule_in(delay, Ev::Nack(id, server, reason));
    }

    /// The current attempt `id` of a still-unresolved request failed for
    /// `cause`: on the shared verdict ([`DispatchBudget::on_attempt_failed`])
    /// either allocate the next attempt and schedule its re-dispatch
    /// after the backoff, or fail the task terminally. Consumes the
    /// caller's reference to `id`.
    fn retry_or_fail(&mut self, ctx: &mut Ctx<'_, Ev>, id: ReqId, cause: AttemptFailure) {
        let req = self.requests.get(id).0;
        let budget = &mut self.clients[req.client as usize].budget;
        match budget.on_attempt_failed(self.timeout.as_ref(), u32::from(req.attempt), cause) {
            Verdict::Retry { backoff_ns } => {
                budget.retried += 1;
                // Whichever of this attempt's events still fire must not
                // retry or fail the task again: after a NACK its timeout
                // timer is still pending (retries imply a timeout
                // config); after a timeout its chain reference is still
                // live (no response or NACK has arrived — the request is
                // not done), so the record survives this release.
                self.requests.get_mut(id).0.superseded = true;
                self.deref_req(id);
                let next = InFlight {
                    attempt: req.attempt + 1,
                    dispatched_ns: 0,
                    enqueued_ns: 0,
                    is_hedge: false,
                    superseded: false,
                    ..req
                };
                let next_id = self.alloc_req(next, 1);
                self.counters.retries_issued += 1;
                ctx.schedule_in(
                    SimDuration::from_nanos(backoff_ns),
                    Ev::RetryDispatch(next_id),
                );
            }
            Verdict::Fail(failure) => {
                self.deref_req(id);
                self.fail_task(req.task_idx, failure, req.priority);
                if self.clients[req.client as usize].held > 0 {
                    self.pump(ctx, req.client);
                }
            }
        }
    }

    /// A drop/shed notice reached the owning client: the attempt never
    /// entered (or was ejected from) a server queue. Retry if allowed,
    /// otherwise the task fails terminally.
    fn handle_nack(&mut self, ctx: &mut Ctx<'_, Ev>, id: ReqId, from: u16, reason: DropReason) {
        let req = self.requests.get(id).0;
        // The attempt is no longer in flight toward `from`.
        if let Some(credits) = self.clients[req.client as usize].credits.as_mut() {
            credits.on_abandon(ServerId::new(from as u64));
        }
        if req.is_hedge || req.superseded || self.request_done(&req) {
            // An optional duplicate, an attempt a retry already
            // replaced, or a request that already resolved: nothing
            // further to do.
            self.deref_req(id);
            return;
        }
        self.retry_or_fail(ctx, id, AttemptFailure::Nack(reason));
    }

    /// A per-attempt timeout fired. If the attempt is still unanswered
    /// and unreplaced, issue a retry (the late original may still win —
    /// first response completes the request) or fail the task.
    fn handle_req_timeout(&mut self, ctx: &mut Ctx<'_, Ev>, id: ReqId) {
        let req = self.requests.get(id).0;
        if req.superseded || self.request_done(&req) {
            self.deref_req(id);
            return;
        }
        self.counters.timeouts_fired += 1;
        self.retry_or_fail(ctx, id, AttemptFailure::Timeout);
    }

    /// A retry's backoff elapsed: re-enter the client's hold queue and
    /// pump — the attempt flows through normal admission from here.
    fn handle_retry_dispatch(&mut self, ctx: &mut Ctx<'_, Ev>, id: ReqId) {
        let req = self.requests.get(id).0;
        if self.request_done(&req) {
            // The request resolved (a late original response won, or the
            // task failed through a sibling) while this retry backed off.
            self.deref_req(id);
            return;
        }
        let cs = &mut self.clients[req.client as usize];
        cs.hold[req.group as usize].push(req.priority, id);
        cs.held += 1;
        self.pump(ctx, req.client);
    }

    /// Terminally fails a task (overload lane). The first terminal
    /// failure wins: recycling the `done` vector marks the task resolved
    /// for every later event that touches it (sibling responses, pending
    /// timers, backed-off retries), exactly like completion does.
    fn fail_task(&mut self, task_idx: u32, failure: TaskFailure, priority: Priority) {
        let task = &mut self.tasks[task_idx as usize];
        debug_assert!(!task.done.is_empty(), "task failed after resolving");
        let done = std::mem::take(&mut task.done);
        self.done_pool.push(done);
        match failure {
            TaskFailure::Dropped => self.counters.tasks_dropped += 1,
            TaskFailure::Shed => self.counters.tasks_shed += 1,
            TaskFailure::TimedOut | TaskFailure::RetriesExhausted => {
                self.counters.tasks_timed_out += 1
            }
        }
        if let Some(by_class) = &mut self.dropshed_by_class {
            let class = (u64::BITS - priority.0.leading_zeros()) as u8;
            let slot = by_class.entry(class).or_insert((0, 0));
            match failure {
                TaskFailure::Dropped => slot.0 += 1,
                TaskFailure::Shed => slot.1 += 1,
                TaskFailure::TimedOut | TaskFailure::RetriesExhausted => {}
            }
        }
        self.failed += 1;
        if self.completed + self.failed == self.tasks.len() {
            self.finished = true;
        }
    }

    fn handle_measure_tick(&mut self, ctx: &mut Ctx<'_, Ev>) {
        let Realization::Credits(cc) = &self.realization else {
            return;
        };
        let interval_ns = cc.measurement_interval_ns;
        let dt_secs = interval_ns as f64 / 1e9;

        for c in 0..self.clients.len() {
            let mut demands = self.take_payload();
            let cs = &mut self.clients[c];
            // Held requests are demand too, attributed equally to the
            // replicas of their group.
            let backlog = cs
                .hold
                .iter()
                .zip(&self.group_replicas)
                .map(|(q, replicas)| (q.len() as f64, replicas.as_slice()));
            cs.credits.as_mut().expect("credits realization").measure(
                dt_secs,
                backlog,
                &mut demands,
            );
            if demands.is_empty() {
                self.recycle_payload(demands);
            } else {
                let payload = self.payloads.insert(demands);
                let delay = self.hop_delay(Hop::ClientToController { client: c as u16 }, 256);
                ctx.schedule_in(delay, Ev::DemandAtController(c as u16, payload));
            }
        }
        if !self.finished {
            ctx.schedule_in(SimDuration::from_nanos(interval_ns), Ev::MeasureTick);
        }
    }

    fn handle_adapt_tick(&mut self, ctx: &mut Ctx<'_, Ev>) {
        let Realization::Credits(cc) = &self.realization else {
            return;
        };
        let interval_ns = cc.adaptation_interval_ns;
        // Refill the pooled grant table in place (closing the ROADMAP
        // open item: the old `allocate()` built a fresh table each tick).
        self.controller
            .as_mut()
            .expect("credits realization")
            .allocate_into(&mut self.grant_table);
        // Regroup per client into the reusable scratch; each non-empty
        // grant vector is swapped against a pooled one and shipped by
        // slab key, so delivery allocates nothing in steady state.
        for scratch in &mut self.grant_scratch {
            scratch.clear();
        }
        for (s, row) in self.grant_table.iter() {
            for &(client, rate) in row {
                self.grant_scratch[client.index()].push((s as u16, rate));
            }
        }
        for c in 0..self.clients.len() {
            if self.grant_scratch[c].is_empty() {
                continue;
            }
            let replacement = self.take_payload();
            let grant = std::mem::replace(&mut self.grant_scratch[c], replacement);
            let payload = self.payloads.insert(grant);
            let delay = self.hop_delay(Hop::ControllerToClient { client: c as u16 }, 256);
            ctx.schedule_in(delay, Ev::GrantAtClient(c as u16, payload));
        }
        if !self.finished {
            ctx.schedule_in(SimDuration::from_nanos(interval_ns), Ev::AdaptTick);
        }
    }

    fn handle_grant(&mut self, ctx: &mut Ctx<'_, Ev>, client: u16, payload: PayloadId) {
        let grants = self.payloads.remove(payload);
        let now_ns = ctx.now().as_nanos();
        let credits = self.clients[client as usize]
            .credits
            .as_mut()
            .expect("credits realization");
        for &(s, rate) in &grants {
            credits.set_grant(now_ns, ServerId::new(s as u64), rate);
        }
        self.recycle_payload(grants);
        self.counters.grants_delivered += 1;
        if self.clients[client as usize].held > 0 {
            self.pump(ctx, client);
        }
    }
}

/// The engine's message classes: every directed hop a message can take
/// across the fabric, by role. `hop_delay` resolves a class to concrete
/// fabric endpoints only when the mesh actually needs per-pair
/// resolution — constant meshes never touch the node-id math.
#[derive(Debug, Clone, Copy)]
enum Hop {
    /// Request dispatch (original or hedge duplicate), value bytes on
    /// the wire.
    ClientToServer { client: u16, server: u16 },
    /// Response back to the owning client, value bytes on the wire.
    ServerToClient { server: u16, client: u16 },
    /// Demand report to the credits controller (~256 B).
    ClientToController { client: u16 },
    /// Grant delivery from the credits controller (~256 B).
    ControllerToClient { client: u16 },
    /// Congestion signal to the credits controller (~64 B).
    ServerToController { server: u16 },
}

impl World for EngineWorld {
    type Event = Ev;

    fn handle(&mut self, ctx: &mut Ctx<'_, Ev>, event: Ev) {
        match event {
            Ev::TaskArrive(i) => self.handle_task_arrival(ctx, i),
            Ev::Pump(c) => {
                if self.clients[c as usize].held > 0 {
                    self.pump(ctx, c);
                } else {
                    self.clients[c as usize].pump_at = None;
                }
            }
            Ev::ReqAtServer(s, req) => self.handle_req_at_server(ctx, s, req),
            Ev::SvcDone(s, req, ns) => self.handle_svc_done(ctx, s, req, ns),
            Ev::RespAtClient(id, from, queue_len, service_ns) => {
                self.handle_resp_at_client(ctx, id, from, queue_len, service_ns)
            }
            Ev::MeasureTick => self.handle_measure_tick(ctx),
            Ev::DemandAtController(client, payload) => {
                self.counters.demand_reports += 1;
                let demands = self.payloads.remove(payload);
                let ctrl = self.controller.as_mut().expect("credits realization");
                for &(s, rate) in &demands {
                    ctrl.report_demand(
                        brb_store::ids::ClientId::new(client as u64),
                        ServerId::new(s as u64),
                        rate,
                    );
                }
                self.recycle_payload(demands);
            }
            Ev::CongestionAtController(s) => {
                self.controller
                    .as_mut()
                    .expect("credits realization")
                    .signal_congestion(ServerId::new(s as u64));
            }
            Ev::AdaptTick => self.handle_adapt_tick(ctx),
            Ev::GrantAtClient(c, grants) => self.handle_grant(ctx, c, grants),
            Ev::HedgeFire(req) => self.handle_hedge_fire(ctx, req),
            Ev::TelemetryTick => self.handle_telemetry_tick(ctx),
            Ev::Nack(req, from, reason) => self.handle_nack(ctx, req, from, reason),
            Ev::ReqTimeout(req) => self.handle_req_timeout(ctx, req),
            Ev::RetryDispatch(req) => self.handle_retry_dispatch(ctx, req),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{paper_small_config, OverloadConfig, QueueConfig, TimeoutConfig};
    use brb_sched::CoDelConfig;
    use brb_sim::Simulation;

    fn run(strategy: Strategy, seed: u64, tasks: usize) -> Simulation<EngineWorld> {
        let cfg = paper_small_config(strategy, seed, tasks);
        let world = EngineWorld::new(cfg);
        let mut sim = Simulation::new(world);
        EngineWorld::prime(&mut sim);
        sim.run();
        sim
    }

    fn overload_run(
        strategy: Strategy,
        seed: u64,
        tasks: usize,
        load: f64,
        overload: OverloadConfig,
    ) -> Simulation<EngineWorld> {
        let mut cfg = paper_small_config(strategy, seed, tasks);
        cfg.workload.load = load;
        cfg.overload = overload;
        let world = EngineWorld::new(cfg);
        let mut sim = Simulation::new(world);
        EngineWorld::prime(&mut sim);
        sim.run();
        sim
    }

    /// Every task resolves exactly once and the pooled records drain —
    /// the conservation invariant every overload test leans on.
    fn assert_conserved(w: &EngineWorld, tasks: usize) {
        assert!(w.is_finished());
        assert_eq!(w.completed_tasks() + w.failed_tasks(), tasks);
        let c = &w.counters;
        assert_eq!(
            c.tasks_dropped + c.tasks_shed + c.tasks_timed_out,
            w.failed_tasks() as u64
        );
        assert_eq!(w.live_requests(), 0, "overload run leaked records");
    }

    #[test]
    fn c3_completes_all_tasks() {
        let sim = run(Strategy::c3(), 1, 2_000);
        let w = sim.world();
        assert!(w.is_finished());
        assert_eq!(w.completed_tasks(), 2_000);
        assert!(!w.task_latency.is_empty());
        assert!(w.counters.dispatched >= 2_000);
    }

    /// Calendar entries are the hot-path currency: the event enum must
    /// stay pointer-small so millions of entries stream through cache.
    #[test]
    fn event_enum_stays_small() {
        assert!(
            std::mem::size_of::<Ev>() <= 24,
            "Ev grew to {} bytes",
            std::mem::size_of::<Ev>()
        );
    }

    /// The pooled-record lifecycle must balance exactly: after a run to
    /// exhaustion no slab entry may survive, for every realization —
    /// including hedging, whose timers hold second references.
    #[test]
    fn request_slab_drains_for_every_strategy() {
        let mut strategies = Strategy::figure2_set();
        strategies.push(Strategy::hedged_default());
        for (i, strategy) in strategies.into_iter().enumerate() {
            let sim = run(strategy, 20 + i as u64, 1_000);
            let w = sim.world();
            assert!(w.is_finished());
            assert_eq!(w.live_requests(), 0, "strategy {i} leaked records");
        }
    }

    #[test]
    fn credits_completes_all_tasks_and_reports_demand() {
        let sim = run(Strategy::equal_max_credits(), 2, 2_000);
        let w = sim.world();
        assert!(w.is_finished());
        assert_eq!(w.completed_tasks(), 2_000);
        assert!(
            w.counters.demand_reports > 0,
            "controller never heard demand"
        );
        assert!(w.counters.grants_delivered > 0, "no grants delivered");
    }

    #[test]
    fn model_completes_all_tasks() {
        let sim = run(Strategy::unif_incr_model(), 3, 2_000);
        let w = sim.world();
        assert!(w.is_finished());
        assert_eq!(w.completed_tasks(), 2_000);
        // The global queue must be fully drained.
        assert!(w.queues[0].is_empty());
    }

    #[test]
    fn work_is_conserved_across_strategies() {
        for (i, strategy) in Strategy::figure2_set().into_iter().enumerate() {
            let sim = run(strategy, 10 + i as u64, 500);
            let w = sim.world();
            let total_requests: u64 = w.trace.iter().map(|t| t.requests.len() as u64).sum();
            let served: u64 = w.servers.iter().map(|s| s.served).sum();
            assert_eq!(served, total_requests, "strategy {i} lost work");
            assert_eq!(w.counters.dispatched, total_requests);
        }
    }

    #[test]
    fn same_seed_same_results() {
        let a = run(Strategy::equal_max_credits(), 7, 800);
        let b = run(Strategy::equal_max_credits(), 7, 800);
        assert_eq!(
            a.world().task_latency.value_at_percentile(99.0),
            b.world().task_latency.value_at_percentile(99.0)
        );
        assert_eq!(a.events_executed(), b.events_executed());
        assert_eq!(a.now(), b.now());
    }

    #[test]
    fn different_seeds_differ() {
        let a = run(Strategy::c3(), 1, 800);
        let b = run(Strategy::c3(), 2, 800);
        assert_ne!(
            (a.events_executed(), a.now()),
            (b.events_executed(), b.now())
        );
    }

    #[test]
    fn utilization_is_sane() {
        let sim = run(Strategy::c3(), 5, 3_000);
        let w = sim.world();
        let span = sim.now().as_nanos();
        let u = w.mean_utilization(span);
        // 70% offered load; allow wide tolerance on a short run.
        assert!((0.3..0.95).contains(&u), "utilization {u}");
    }

    #[test]
    fn warmup_excludes_early_tasks() {
        let sim = run(Strategy::c3(), 6, 1_000);
        let w = sim.world();
        assert!(w.measured_tasks() < 1_000);
        assert!(w.measured_tasks() > 800);
    }

    #[test]
    fn telemetry_samples_when_enabled() {
        let mut cfg = paper_small_config(Strategy::equal_max_credits(), 4, 2_000);
        cfg.telemetry_interval_ns = Some(10_000_000); // 10ms
        let world = EngineWorld::new(cfg);
        let mut sim = Simulation::new(world);
        EngineWorld::prime(&mut sim);
        sim.run();
        let w = sim.world();
        assert!(w.is_finished());
        // ~200ms of virtual time → ≥15 samples.
        assert!(w.timeline.len() >= 15, "only {} samples", w.timeline.len());
        let mut prev = 0;
        for s in &w.timeline.samples {
            assert!(s.t_ns >= prev);
            prev = s.t_ns;
            assert_eq!(s.server_queue.len(), 9);
            assert_eq!(s.busy_cores.len(), 9);
            assert_eq!(s.client_held.len(), 18);
            assert!(s.busy_cores.iter().all(|&b| b <= 4));
        }
        // The last sample must see (nearly) all tasks completed.
        assert!(w.timeline.samples.last().unwrap().completed_tasks >= 1_900);
        // Queues were actually observed doing something.
        assert!(w.timeline.peak_queued() > 0);
    }

    #[test]
    fn telemetry_disabled_costs_nothing() {
        let sim = run(Strategy::c3(), 4, 500);
        assert!(sim.world().timeline.is_empty());
    }

    #[test]
    fn hedging_issues_duplicates_and_still_completes() {
        let sim = run(Strategy::hedged_default(), 8, 3_000);
        let w = sim.world();
        assert!(w.is_finished());
        assert_eq!(w.completed_tasks(), 3_000);
        assert!(
            w.counters.hedges_issued > 0,
            "a p99-level trigger must fire on tail requests"
        );
        // A p99-level trigger duplicates a small fraction of traffic —
        // enough hedging pressure to matter but no runaway feedback loop.
        let total_requests: u64 = w.trace.iter().map(|t| t.requests.len() as u64).sum();
        assert!(
            w.counters.hedges_issued < total_requests / 5,
            "hedging {}/{} requests is runaway duplication",
            w.counters.hedges_issued,
            total_requests
        );
        assert!(w.counters.duplicate_responses <= w.counters.hedges_issued);
        // Work done = originals + hedges that actually reached a server.
        let served: u64 = w.servers.iter().map(|s| s.served).sum();
        assert_eq!(served, w.counters.dispatched);
    }

    /// An aggressive (near-median) trigger would destabilize the cluster
    /// — hedges add load, load inflates latencies, latencies fire more
    /// hedges — so the client-side budget must clamp duplication at ~5%
    /// of issued traffic no matter how hot the trigger runs.
    #[test]
    fn aggressive_hedging_is_capped_by_the_budget() {
        let sim = run(
            Strategy::Hedged {
                selector: SelectorKind::LeastOutstanding,
                delay_us: 1_000,
            },
            8,
            3_000,
        );
        let w = sim.world();
        assert!(w.is_finished());
        let total_requests: u64 = w.trace.iter().map(|t| t.requests.len() as u64).sum();
        assert!(w.counters.hedges_issued > 0, "trigger must fire");
        let ratio = w.counters.hedges_issued as f64 / total_requests as f64;
        assert!(
            ratio <= 0.06,
            "budget breached: {:.1}% hedges",
            ratio * 100.0
        );
    }

    /// Hedging's canonical win (Dean & Barroso): *transient* stragglers
    /// — rare network spikes at moderate utilization — are rescued by
    /// re-issuing the request, because a healthy duplicate path almost
    /// certainly avoids the spike and spare capacity absorbs the ~2%
    /// extra load. (A *sustained* bottleneck — e.g. a persistently slow
    /// replica near saturation — is exactly what hedging cannot fix:
    /// duplicates add load precisely where there is no headroom, which
    /// the aggressive-trigger ablation demonstrates.)
    #[test]
    fn hedging_absorbs_transient_latency_spikes() {
        let run_with_spikes = |strategy: Strategy, seed: u64| {
            let mut cfg = paper_small_config(strategy, seed, 4_000);
            cfg.workload.load = 0.3;
            // 1% of messages eat a 10–20ms in-network spike — far above
            // the 5ms hedge trigger, so spiked requests get re-issued.
            cfg.cluster.latency = brb_net::LatencyModel::Spiky {
                base_ns: 50_000,
                p_spike: 0.01,
                spike_lo_ns: 10_000_000,
                spike_hi_ns: 20_000_000,
            };
            let world = EngineWorld::new(cfg);
            let mut sim = Simulation::new(world);
            EngineWorld::prime(&mut sim);
            sim.run();
            sim
        };
        for seed in [9u64, 10, 11] {
            let plain = run_with_spikes(
                Strategy::Direct {
                    selector: SelectorKind::Random,
                    policy: PolicyKind::Fifo,
                    priority_queues: false,
                },
                seed,
            );
            let hedged = run_with_spikes(
                Strategy::Hedged {
                    selector: SelectorKind::Random,
                    delay_us: 5_000,
                },
                seed,
            );
            let plain_p99 = plain.world().task_latency.value_at_percentile(99.0) as f64;
            let hedged_p99 = hedged.world().task_latency.value_at_percentile(99.0) as f64;
            assert!(hedged.world().counters.hedges_issued > 0, "trigger idle");
            // The win is large (≈3×), so demand a solid margin, not a
            // coin-flip direction.
            assert!(
                hedged_p99 < plain_p99 * 0.6,
                "seed {seed}: hedging should absorb spikes: {hedged_p99}ns vs {plain_p99}ns"
            );
        }
    }

    #[test]
    fn bounded_queue_drops_and_conserves_past_saturation() {
        let ov = OverloadConfig {
            queue: Some(QueueConfig {
                capacity: 64,
                shed_above: None,
                codel: None,
                priority_stats: false,
            }),
            timeout: None,
        };
        let sim = overload_run(Strategy::c3(), 1, 2_000, 1.3, ov);
        let w = sim.world();
        assert_conserved(w, 2_000);
        assert!(w.counters.requests_dropped > 0, "1.3× load must tail-drop");
        assert!(w.counters.tasks_dropped > 0);
        assert_eq!(w.counters.requests_shed, 0, "no watermark configured");
        assert!(
            w.peak_server_queue() <= 64,
            "bound breached: peak {}",
            w.peak_server_queue()
        );
        assert!(w.completed_tasks() > 0, "goodput must not collapse to zero");
    }

    #[test]
    fn shed_watermark_fires_before_tail_drop() {
        let ov = OverloadConfig {
            queue: Some(QueueConfig {
                capacity: 64,
                shed_above: Some(32),
                codel: None,
                priority_stats: false,
            }),
            timeout: None,
        };
        let sim = overload_run(Strategy::c3(), 2, 2_000, 1.3, ov);
        let w = sim.world();
        assert_conserved(w, 2_000);
        assert!(w.counters.requests_shed > 0, "watermark must shed");
        assert!(w.counters.tasks_shed > 0);
        // Admission control keeps depth at the watermark, so the
        // tail-drop bound above it can never fire.
        assert_eq!(w.counters.requests_dropped, 0);
        assert!(w.peak_server_queue() <= 32);
    }

    #[test]
    fn codel_sheds_sojourn_under_sustained_overload() {
        let ov = OverloadConfig {
            queue: Some(QueueConfig {
                capacity: 100_000,
                shed_above: None,
                codel: Some(CoDelConfig::paper_default()),
                priority_stats: false,
            }),
            timeout: None,
        };
        let sim = overload_run(Strategy::c3(), 3, 2_000, 1.3, ov);
        let w = sim.world();
        assert_conserved(w, 2_000);
        // The capacity is effectively unbounded: every drop here is the
        // AQM ejecting over-sojourn heads at dequeue.
        assert!(w.counters.requests_dropped > 0, "CoDel never fired");
        assert_eq!(w.counters.requests_shed, 0);
        assert!(w.completed_tasks() > w.failed_tasks(), "AQM too aggressive");
    }

    #[test]
    fn model_realization_honors_bound_and_codel() {
        let ov = OverloadConfig {
            queue: Some(QueueConfig {
                capacity: 256,
                shed_above: None,
                codel: Some(CoDelConfig::paper_default()),
                priority_stats: false,
            }),
            timeout: None,
        };
        let sim = overload_run(Strategy::unif_incr_model(), 4, 2_000, 1.3, ov);
        let w = sim.world();
        assert_conserved(w, 2_000);
        assert!(w.counters.requests_dropped > 0);
        assert!(w.queues[0].is_empty());
        // The global queue's depth is tracked like any server's, and the
        // bound pins it.
        let peak = w.peak_server_queue();
        assert!(0 < peak && peak <= 256, "global queue peaked at {peak}");
    }

    #[test]
    fn timeouts_without_retries_fail_tasks_typed() {
        let ov = OverloadConfig {
            queue: None,
            timeout: Some(TimeoutConfig {
                timeout_us: 5_000,
                max_retries: 0,
                backoff_base_us: 0,
                backoff_cap_us: 0,
                retry_budget_percent: None,
            }),
        };
        let sim = overload_run(Strategy::c3(), 5, 2_000, 1.2, ov);
        let w = sim.world();
        assert_conserved(w, 2_000);
        assert!(w.counters.timeouts_fired > 0, "1.2× must blow a 5ms budget");
        assert!(w.counters.tasks_timed_out > 0);
        assert_eq!(w.counters.retries_issued, 0);
        assert_eq!(w.counters.tasks_dropped + w.counters.tasks_shed, 0);
    }

    #[test]
    fn retries_amplify_offered_load_then_exhaust() {
        let ov = OverloadConfig {
            queue: None,
            timeout: Some(TimeoutConfig {
                timeout_us: 5_000,
                max_retries: 3,
                backoff_base_us: 100,
                backoff_cap_us: 1_000,
                retry_budget_percent: None,
            }),
        };
        let sim = overload_run(Strategy::c3(), 6, 2_000, 1.2, ov);
        let w = sim.world();
        assert_conserved(w, 2_000);
        assert!(
            w.counters.retries_issued > 0,
            "timeouts must trigger retries"
        );
        // The storm: every retry is a fresh dispatch on top of the
        // originals, amplifying offered load past what arrived.
        let total_requests: u64 = w.trace.iter().map(|t| t.requests.len() as u64).sum();
        assert!(
            w.counters.dispatched > total_requests,
            "retries must amplify dispatch: {} vs {total_requests}",
            w.counters.dispatched
        );
    }

    #[test]
    fn retry_budget_caps_the_storm() {
        let budget = 10u64;
        let ov = OverloadConfig {
            queue: None,
            timeout: Some(TimeoutConfig {
                timeout_us: 5_000,
                max_retries: 16,
                backoff_base_us: 0,
                backoff_cap_us: 0,
                retry_budget_percent: Some(budget as u32),
            }),
        };
        let sim = overload_run(Strategy::c3(), 7, 2_000, 1.2, ov);
        let w = sim.world();
        assert_conserved(w, 2_000);
        assert!(w.counters.retries_issued > 0);
        // Per-client: retried*100 < dispatched*budget held at every
        // issue, so globally retries stay within the budget plus one
        // attempt of slack per client.
        let clients = w.clients.len() as u64;
        assert!(
            w.counters.retries_issued * 100 <= w.counters.dispatched * budget + 100 * clients,
            "budget breached: {} retries vs {} dispatched",
            w.counters.retries_issued,
            w.counters.dispatched
        );
    }

    #[test]
    fn overload_runs_are_deterministic() {
        let ov = OverloadConfig {
            queue: Some(QueueConfig {
                capacity: 64,
                shed_above: Some(48),
                codel: Some(CoDelConfig::paper_default()),
                priority_stats: false,
            }),
            timeout: Some(TimeoutConfig {
                timeout_us: 10_000,
                max_retries: 2,
                backoff_base_us: 200,
                backoff_cap_us: 2_000,
                retry_budget_percent: Some(20),
            }),
        };
        let a = overload_run(Strategy::c3(), 9, 1_000, 1.3, ov);
        let b = overload_run(Strategy::c3(), 9, 1_000, 1.3, ov);
        assert_eq!(a.events_executed(), b.events_executed());
        assert_eq!(a.now(), b.now());
        assert_eq!(
            a.world().completed_tasks() + a.world().failed_tasks(),
            b.world().completed_tasks() + b.world().failed_tasks()
        );
        assert_eq!(
            a.world().counters.retries_issued,
            b.world().counters.retries_issued
        );
    }

    /// Past saturation an unbounded queue's peak depth is the excess
    /// load integrated over the run — it scales with the task horizon.
    /// The bound pins it at capacity regardless of horizon and accounts
    /// the excess as drops instead.
    #[test]
    fn unbounded_backlog_scales_with_horizon_where_the_bound_pins_it() {
        let off = OverloadConfig::default();
        let short = overload_run(Strategy::c3(), 5, 2_000, 1.3, off);
        let long = overload_run(Strategy::c3(), 5, 4_000, 1.3, off);
        let (ps, pl) = (
            short.world().peak_server_queue(),
            long.world().peak_server_queue(),
        );
        // C3's rate control throttles the excess, so growth is
        // sub-linear in the horizon — but it must still *grow* (and be
        // far past any bounded capacity), which is the regression.
        assert!(
            pl > ps + ps / 4,
            "unbounded backlog should grow with the horizon: {ps} -> {pl}"
        );
        assert!(
            ps > 64 * 2,
            "unbounded backlog should dwarf the bound: {ps}"
        );

        let ov = OverloadConfig {
            queue: Some(QueueConfig {
                capacity: 64,
                shed_above: None,
                codel: Some(CoDelConfig::paper_default()),
                priority_stats: false,
            }),
            timeout: None,
        };
        for tasks in [2_000, 4_000] {
            let sim = overload_run(Strategy::c3(), 5, tasks, 1.3, ov);
            let w = sim.world();
            assert!(w.peak_server_queue() <= 64, "the bound must pin the peak");
            assert!(w.counters.tasks_dropped > 0);
            assert_conserved(w, tasks);
        }
    }

    #[test]
    fn model_beats_fifo_c3_at_the_tail() {
        // The ideal realization should not lose to the realizable baseline
        // (sanity direction check at small scale; the full claim is
        // validated in the figure2 bench). Averaged over eight seeds: a
        // single 4k-task run's p99 rests on ~40 samples, and per-seed
        // comparisons between *independently evolving* runs swing ±10% —
        // the direction claim is about the expectation.
        let mean_p99 = |strategy: Strategy| -> f64 {
            let seeds = [40u64, 41, 42, 43, 44, 45, 46, 47];
            seeds
                .iter()
                .map(|&seed| {
                    let sim = run(strategy.clone(), seed, 4_000);
                    sim.world().task_latency.value_at_percentile(99.0) as f64
                })
                .sum::<f64>()
                / seeds.len() as f64
        };
        let c3_p99 = mean_p99(Strategy::c3());
        let model_p99 = mean_p99(Strategy::equal_max_model());
        assert!(
            model_p99 < c3_p99,
            "model p99 {model_p99}ns should beat C3 p99 {c3_p99}ns"
        );
    }
}
