//! The threaded storage cluster: servers, worker pools, shared queues.
//!
//! Each server owns a [`ShardedStore`] replica of its partitions and
//! `workers_per_server` OS threads that pull the most urgent request
//! from the server's queue bundle (`QueueShared`: a mutex-guarded
//! [`ServerQueue`], a condvar, a length mirror), read the value,
//! optionally simulate a size-proportional service cost and reply over
//! the request's channel.
//!
//! There is no thread between a client and the queue: the submitting
//! thread itself runs `ServerShared::submit` — admission, congestion
//! detection, the push and the wake-up — so a priority takes effect the
//! moment its request arrives, and a cluster of S×W runs exactly S·W
//! threads (+1 with credits). Nothing polls: a worker with nothing to
//! pop parks on the queue's condvar, and `submit` pays the wake-up
//! syscall only when the queue's `parked` count says one is asleep.
//!
//! The overload lane runs on real queues, through the same
//! [`ServerQueue`] the simulator drives: `submit` offers (tail-drop at
//! capacity, shed at the watermark) and workers take, answering CoDel's
//! clock with each dequeued request's *measured* sojourn time — drops
//! and sheds NACK back over the transport as typed [`RtNack`] replies
//! instead of silently growing the queue.
//!
//! Two further lanes complete the figure-2 strategy set natively:
//!
//! * **Credits** ([`crate::credits`]): a controller thread adapts grant
//!   allocations from live demand reports and server-raised congestion
//!   signals; clients gate dispatch through token buckets. `submit`
//!   feeds every admitted arrival to the server's
//!   [`brb_sched::CongestionDetector`].
//! * **Model** ([`RtQueueMode::Global`]): every server holds the *same*
//!   bundle, around the global queue; idle workers pull the
//!   highest-priority request their replica constraint allows — the
//!   paper's unrealizable ideal, made "realizable" here only because
//!   the cluster is in-process.
//!
//! `ServerShared::cancel` honors [`crate::transport::RtCancel`]: a
//! hedged request whose twin already won is removed from the queue in
//! place (O(n), cold path), so duplicate work is bounded by in-service
//! requests.

use crate::client::RtClient;
use crate::credits::{self, CreditMsg, CreditSelector, CreditsHub, RtCreditsConfig};
use crate::timing;
use crate::transport::{RtCancel, RtNack, RtReply, RtRequest, RtResponse};
use brb_sched::overload::{DropReason, QueueConfig, TimeoutConfig};
use brb_sched::{CongestionDetector, PolicyKind, ServerQueue};
use brb_select::{ReplicaSelector, SelectorSpec};
use brb_store::cost::{CostModel, ForecastQuality};
use brb_store::ids::{ClientId, ServerId};
use brb_store::partition::Ring;
use brb_store::service::{ServiceModel, ServiceNoise};
use brb_store::ShardedStore;
use brb_workload::taskgen::SizeModel;
use bytes::Bytes;
use crossbeam::channel::Sender;
use parking_lot::{Condvar, Mutex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// How servers spend service time.
#[derive(Debug, Clone, Copy)]
pub enum WorkModel {
    /// Serve as fast as the store allows (unit tests, throughput benches).
    Instant,
    /// Wait out a service time *sampled* from the model for the value's
    /// size (noise included — the same service process the simulator
    /// draws, so sim-vs-rt comparisons face the same distribution) —
    /// turns the cluster into a scale model of the paper's servers. The
    /// wait is a hybrid sleep/spin ([`crate::timing`]): a raw
    /// `thread::sleep` overshoots tens-of-µs services by 50µs–1ms of OS
    /// timer slack, which would drown every strategy difference.
    SimulateService(ServiceModel),
}

/// Which queue topology the cluster runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RtQueueMode {
    /// One priority queue per server (the realizable deployments:
    /// direct dispatch, credits).
    #[default]
    PerServer,
    /// One global priority queue shared by all servers; workers pull
    /// the best request their replica constraint allows — the paper's
    /// "model" realization.
    Global,
}

/// Transient service spikes: with probability `p_spike` a request's
/// service wait stretches by a uniform `[extra_lo_ns, extra_hi_ns]`
/// draw. This is the live lowering of the simulator's in-network spike
/// fault — the in-process transport has no wire to delay, so the spike
/// occupies the serving worker instead (a deliberate, documented
/// approximation: spiked requests still hit client deadlines and still
/// consume server capacity).
#[derive(Debug, Clone, Copy)]
pub struct SpikeModel {
    /// Per-request spike probability in `[0, 1]`.
    pub p_spike: f64,
    /// Minimum additional delay (ns).
    pub extra_lo_ns: u64,
    /// Maximum additional delay (ns), inclusive.
    pub extra_hi_ns: u64,
}

/// Cluster construction parameters.
#[derive(Debug, Clone)]
pub struct RtClusterConfig {
    /// Number of servers.
    pub num_servers: u32,
    /// Worker threads per server (the paper's "cores").
    pub workers_per_server: u32,
    /// Replication factor.
    pub replication: u32,
    /// Partitions on the ring; `None` = one per server.
    pub num_partitions: Option<u32>,
    /// Priority-assignment policy clients use.
    pub policy: PolicyKind,
    /// Replica selection strategy clients run (fed by the piggybacked
    /// `queue_len` / `service_ns` response fields).
    pub selector: SelectorSpec,
    /// Service-time behaviour.
    pub work: WorkModel,
    /// Store shards per server.
    pub store_shards: usize,
    /// Value-size model used by `populate_etc` and client cost
    /// forecasts.
    pub sizes: SizeModel,
    /// How accurately clients forecast service costs from value sizes.
    pub forecast: ForecastQuality,
    /// Declared client population — C3's concurrency-compensation
    /// weight (`q̂ = 1 + outstanding·w + q̄`). Keeping it equal to the
    /// scenario's client count makes the live C3 the *same algorithm*
    /// the simulator runs, even when fewer live clients exist.
    pub num_clients: u32,
    /// Constant network round trip accounted per request (ns). The
    /// in-process transport has no real propagation delay; for a
    /// constant-latency mesh a uniform shift leaves queueing dynamics
    /// untouched, so the RTT is *added to the recorded latencies*
    /// (request, task completion, selector feedback) rather than slept.
    pub network_rtt_ns: u64,
    /// Queue topology: per-server queues or the model realization's
    /// single global work-pull queue.
    pub queue_mode: RtQueueMode,
    /// Credits lane (`None` = no controller): spawns the controller
    /// thread and replaces each client's selector with the token-bucket
    /// credits admission.
    pub credits: Option<RtCreditsConfig>,
    /// Hedged requests: after this many nanoseconds without a response,
    /// a client duplicates the request to another replica; first
    /// response wins, the loser is cancelled (`None` = no hedging).
    pub hedge_delay_ns: Option<u64>,
    /// Bounded server queues + AQM (`None` = unbounded, the legacy
    /// behavior) — the simulator's own config struct. The bound is
    /// applied under the queue lock, so it is exact however many clients
    /// submit at once; CoDel judges measured sojourn (enqueue `Instant`
    /// → dequeue `Instant`); `priority_stats` is simulator-only and
    /// ignored.
    pub queue: Option<QueueConfig>,
    /// Client-side deadline timers and retries (`None` = clients wait
    /// forever, the legacy behavior): per-attempt wall-clock deadlines
    /// under the shared retry policy.
    pub timeout: Option<TimeoutConfig>,
    /// Per-server speed factors: service times divide by the factor
    /// (0.5 = half speed, the degraded-node fault). Empty or shorter
    /// than the server count means nominal speed for the rest.
    pub speed_factors: Vec<f64>,
    /// Transient service spikes (`None` = no spikes).
    pub spike: Option<SpikeModel>,
    /// Fault injection for panic-safety tests: a worker that pops this
    /// key panics mid-service. Never set outside tests.
    pub panic_on_key: Option<u64>,
}

impl Default for RtClusterConfig {
    fn default() -> Self {
        RtClusterConfig {
            num_servers: 3,
            workers_per_server: 2,
            replication: 2,
            num_partitions: None,
            policy: PolicyKind::UnifIncr,
            selector: SelectorSpec::LeastOutstanding,
            work: WorkModel::Instant,
            store_shards: 16,
            sizes: SizeModel::facebook_etc(),
            forecast: ForecastQuality::Exact,
            num_clients: 1,
            network_rtt_ns: 0,
            queue_mode: RtQueueMode::PerServer,
            credits: None,
            hedge_delay_ns: None,
            queue: None,
            timeout: None,
            speed_factors: Vec::new(),
            spike: None,
            panic_on_key: None,
        }
    }
}

/// The queue and what must change under the same lock, guarded by one
/// mutex: drop decisions must serialize with dequeues anyway, so a
/// second lock would only add an acquisition per request.
pub(crate) struct QueueState {
    /// Each request beside the instant it entered the queue — the AQM's
    /// sojourn clock, read before the lock is taken.
    pub(crate) queue: ServerQueue<(RtRequest, Instant)>,
    /// Workers asleep on `available` (`+= 1` before the wait, `-= 1`
    /// after, both under this mutex): `submit` notifies only when it is
    /// non-zero.
    pub(crate) parked: usize,
}

/// One queue and everything that synchronises on it. In
/// [`RtQueueMode::PerServer`] every server has its own; in
/// [`RtQueueMode::Global`] every server holds the same `Arc` — one
/// mutex + condvar for the whole cluster, the coordination cost the
/// paper calls unrealizable (here it is one in-process lock).
pub(crate) struct QueueShared {
    pub(crate) state: Mutex<QueueState>,
    pub(crate) available: Condvar,
    /// Queue length mirror, written only under `state`'s lock, so the
    /// piggybacked feedback read costs no queue lock.
    pub(crate) len: AtomicUsize,
    /// Workers of every server park here: a wake-up must reach them all.
    global: bool,
    /// Ring copy for the global queue's replica-constrained pull.
    ring: Ring,
    /// Time base for the `now_ns` of the queue's CoDel controller and of
    /// the congestion detectors of the servers that feed it.
    epoch: Instant,
}

impl QueueShared {
    pub(crate) fn new(config: &RtClusterConfig, ring: &Ring) -> Arc<QueueShared> {
        let global = config.queue_mode == RtQueueMode::Global;
        let queue = if global {
            ServerQueue::global(ring.num_groups(), config.queue.as_ref())
        } else {
            ServerQueue::priority(config.queue.as_ref())
        };
        Arc::new(QueueShared {
            state: Mutex::new(QueueState { queue, parked: 0 }),
            available: Condvar::new(),
            len: AtomicUsize::new(0),
            global,
            ring: ring.clone(),
            epoch: Instant::now(),
        })
    }
}

/// Shared state of one server.
pub(crate) struct ServerShared {
    pub(crate) id: u32,
    /// The queue this server's clients push into and its workers pull
    /// from.
    pub(crate) q: Arc<QueueShared>,
    /// Credits-lane congestion detection (`None` without the lane).
    congestion: Option<CongestionMonitor>,
    pub(crate) store: ShardedStore,
    pub(crate) stop: AtomicBool,
    pub(crate) served: AtomicU64,
    /// Requests tail-dropped at capacity or CoDel-dropped at dequeue.
    pub(crate) dropped: AtomicU64,
    /// Requests shed by the admission watermark.
    pub(crate) shed: AtomicU64,
    /// Total nanoseconds workers spent in service (utilization).
    pub(crate) busy_ns: AtomicU64,
}

/// A server's congestion detection for the credits lane: the shared
/// detector, and the channel its signals go out on. The detector has a
/// lock of its own, taken only after the queue's guard has dropped — it
/// never nests with the queue lock.
struct CongestionMonitor {
    detector: Mutex<CongestionDetector>,
    tx: Sender<CreditMsg>,
}

/// A running in-process cluster.
pub struct RtCluster {
    config: RtClusterConfig,
    ring: Ring,
    cost: CostModel,
    servers: Vec<Arc<ServerShared>>,
    /// Credits lane state when `credits` is configured, else `None`.
    credits: Option<CreditsHub>,
    credits_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    /// Sticky flag set when any cluster thread panics; clients poll it
    /// so a dead thread fails runs fast instead of hanging them.
    panicked: Arc<AtomicBool>,
    next_task_id: Arc<AtomicU64>,
    next_client_id: AtomicU64,
}

impl std::fmt::Debug for RtCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RtCluster")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl RtCluster {
    /// Starts the cluster: spawns `workers_per_server` worker threads
    /// per server (and the credits controller when configured).
    ///
    /// # Panics
    /// Panics on a structurally invalid configuration.
    pub fn start(config: RtClusterConfig) -> RtCluster {
        assert!(config.num_servers > 0, "need at least one server");
        assert!(config.workers_per_server > 0, "need at least one worker");
        if let Some(q) = &config.queue {
            q.validate().expect("invalid queue config");
        }
        if let Some(t) = &config.timeout {
            t.validate().expect("invalid timeout config");
        }
        assert!(
            config.speed_factors.len() <= config.num_servers as usize,
            "more speed factors than servers"
        );
        assert!(
            config
                .speed_factors
                .iter()
                .all(|f| f.is_finite() && *f > 0.0),
            "speed factors must be positive and finite"
        );
        if let Some(s) = &config.spike {
            assert!(
                (0.0..=1.0).contains(&s.p_spike) && s.extra_lo_ns <= s.extra_hi_ns,
                "invalid spike model"
            );
        }
        let ring = Ring::new(
            config.num_servers,
            config.num_partitions.unwrap_or(config.num_servers),
            config.replication,
        );
        let service = match config.work {
            WorkModel::SimulateService(m) => m,
            WorkModel::Instant => ServiceModel::calibrated_size_linear(
                1e9 / 3500.0,
                config.sizes.mean_bytes(),
                0.2,
                ServiceNoise::None,
            ),
        };
        let cost = CostModel::new(service, config.forecast);

        let mut servers = Vec::with_capacity(config.num_servers as usize);
        let mut workers = Vec::new();
        let panicked = Arc::new(AtomicBool::new(false));

        let global =
            (config.queue_mode == RtQueueMode::Global).then(|| QueueShared::new(&config, &ring));

        let (credits_hub, credits_thread) = match config.credits {
            Some(cfg) => {
                let (hub, handle) = credits::spawn_controller(
                    cfg,
                    config.num_servers as usize,
                    Arc::clone(&panicked),
                );
                (Some(hub), Some(handle))
            }
            None => (None, None),
        };

        for s in 0..config.num_servers {
            let queue = global
                .clone()
                .unwrap_or_else(|| QueueShared::new(&config, &ring));
            let shared = Arc::new(ServerShared::new(s, &config, queue, credits_hub.as_ref()));

            let speed = config.speed_factors.get(s as usize).copied().unwrap_or(1.0);
            for w in 0..config.workers_per_server {
                let shared = Arc::clone(&shared);
                let work = config.work;
                let spike = config.spike;
                let panic_on_key = config.panic_on_key;
                let panicked = Arc::clone(&panicked);
                // Per-worker service-noise stream, seeded by position so
                // the draw sequences are reproducible run to run.
                let noise_seed = ((s as u64) << 32) | w as u64;
                workers.push(
                    std::thread::Builder::new()
                        .name(format!("brb-worker-{s}-{w}"))
                        .spawn(move || {
                            let result =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    worker_loop(
                                        &shared,
                                        work,
                                        noise_seed,
                                        speed,
                                        spike,
                                        panic_on_key,
                                    )
                                }));
                            if result.is_err() {
                                panicked.store(true, Ordering::SeqCst);
                                // Wake sibling workers parked on the
                                // condvar so a fully-dead server cannot
                                // strand them.
                                shared.wake_workers();
                            }
                        })
                        .expect("spawn worker"),
                );
            }

            servers.push(shared);
        }

        RtCluster {
            config,
            ring,
            cost,
            servers,
            credits: credits_hub,
            credits_thread,
            workers,
            panicked,
            next_task_id: Arc::new(AtomicU64::new(0)),
            next_client_id: AtomicU64::new(0),
        }
    }

    /// Populates every replica with `num_keys` keys; the value of key `k`
    /// is a zero-filled buffer of `size_of(k)` bytes, stored on exactly
    /// the `R` servers that replicate `k`.
    pub fn populate<F: Fn(u64) -> u64>(&self, num_keys: u64, size_of: F) {
        for key in 0..num_keys {
            let size = size_of(key).max(1) as usize;
            let value = Bytes::from(vec![0u8; size]);
            for server in self.ring.replicas_of_key(key) {
                self.servers[server.index()].store.put(key, value.clone());
            }
        }
    }

    /// Populates with the configured size model (the paper's ETC sizes by
    /// default).
    pub fn populate_etc(&self, num_keys: u64) {
        let m = self.config.sizes;
        self.populate(num_keys, |k| m.size_of(k));
    }

    /// Creates a client handle sharing the cluster's task-id counter.
    /// Each client runs its own selector instance (the decentralized
    /// setting): the selector's random stream is seeded by the client's
    /// creation index, so clusters behave reproducibly run to run.
    pub fn client(&self) -> RtClient {
        let client_idx = self.next_client_id.fetch_add(1, Ordering::Relaxed);
        self.build_client(client_idx, client_idx)
    }

    /// [`Self::client`] with an explicit selector seed — the load
    /// generator passes the run seed through here so a random selector
    /// draws a different stream per seeded run (matching the
    /// simulator's per-run selector seeding), not the same stream for
    /// every run of a fresh cluster.
    pub fn client_seeded(&self, selector_seed: u64) -> RtClient {
        let client_idx = self.next_client_id.fetch_add(1, Ordering::Relaxed);
        self.build_client(client_idx, selector_seed)
    }

    fn build_client(&self, client_idx: u64, selector_seed: u64) -> RtClient {
        // With the credits lane on, every client runs the token-bucket
        // credits admission (identified to the controller by its
        // creation index); the configured selector only applies to the
        // direct-dispatch realizations.
        let selector: Box<dyn ReplicaSelector + Send> = match &self.credits {
            Some(hub) => Box::new(CreditSelector::new(
                ClientId::new(client_idx),
                hub,
                self.config.num_servers as usize,
                self.config.num_clients.max(1) as usize,
            )),
            None => self
                .config
                .selector
                .build(selector_seed, self.config.num_clients.max(1)),
        };
        RtClient::new(
            self.ring.clone(),
            self.cost,
            self.config.policy,
            self.config.sizes,
            self.servers.clone(),
            Arc::clone(&self.next_task_id),
            selector,
            self.config.network_rtt_ns,
            self.config.timeout,
            self.config.hedge_delay_ns,
            Arc::clone(&self.panicked),
        )
    }

    /// Requests served per server.
    pub fn served_per_server(&self) -> Vec<u64> {
        self.servers
            .iter()
            .map(|s| s.served.load(Ordering::Relaxed))
            .collect()
    }

    /// Requests tail-dropped or CoDel-dropped per server (overload lane).
    pub fn dropped_per_server(&self) -> Vec<u64> {
        self.servers
            .iter()
            .map(|s| s.dropped.load(Ordering::Relaxed))
            .collect()
    }

    /// Requests shed by admission control per server (overload lane).
    pub fn shed_per_server(&self) -> Vec<u64> {
        self.servers
            .iter()
            .map(|s| s.shed.load(Ordering::Relaxed))
            .collect()
    }

    /// Nanoseconds each server's workers have spent in service so far.
    pub fn busy_ns_per_server(&self) -> Vec<u64> {
        self.servers
            .iter()
            .map(|s| s.busy_ns.load(Ordering::Relaxed))
            .collect()
    }

    /// Demand reports the credits controller has received (0 when the
    /// credits lane is off).
    pub fn demand_reports(&self) -> u64 {
        self.credits
            .as_ref()
            .map_or(0, |h| h.demand_reports.load(Ordering::Relaxed))
    }

    /// Congestion signals the credits controller has received (0 when
    /// the credits lane is off).
    pub fn congestion_signals(&self) -> u64 {
        self.credits
            .as_ref()
            .map_or(0, |h| h.congestion_signals.load(Ordering::Relaxed))
    }

    /// Whether any cluster thread has panicked.
    pub fn panicked(&self) -> bool {
        self.panicked.load(Ordering::SeqCst)
    }

    /// The cluster's configuration.
    pub fn config(&self) -> &RtClusterConfig {
        &self.config
    }

    /// The cluster's ring (for tests and demos).
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// The size model used by `populate_etc` and client forecasts.
    pub fn size_model(&self) -> &SizeModel {
        &self.config.sizes
    }

    /// Stops all threads and joins them, reporting a panicked thread as
    /// a typed error instead of a harness panic. Requests admitted
    /// before the stop are still served; a later `submit` hands its
    /// request back and the client sees [`crate::error::RtError`].
    pub fn shutdown_checked(mut self) -> Result<(), crate::error::RtError> {
        self.stop_threads();
        if self.panicked.load(Ordering::SeqCst) {
            Err(crate::error::RtError::WorkerPanicked)
        } else {
            Ok(())
        }
    }

    /// The one stop routine, shared by [`Self::shutdown_checked`] and
    /// `Drop` (clients keep the servers' shared state alive, so nothing
    /// stops by itself when the handle goes away). A second call finds
    /// no thread left and only repeats the cheap part.
    fn stop_threads(&mut self) {
        if let Some(hub) = &self.credits {
            // Fails only when the controller is already gone.
            let _ = hub.tx.send(CreditMsg::Shutdown);
        }
        for s in &self.servers {
            s.stop.store(true, Ordering::SeqCst);
            s.wake_workers();
        }
        // The catch_unwind wrappers make join errors impossible in
        // practice; a failed join still counts as a panic.
        for handle in self.workers.drain(..).chain(self.credits_thread.take()) {
            if handle.join().is_err() {
                self.panicked.store(true, Ordering::SeqCst);
            }
        }
        // Workers drain their queue before they exit; what is left
        // belongs to a server whose workers all died. Drop it, so its
        // reply senders drop and a ticket without a deadline observes
        // disconnection instead of waiting on a queue that only its own
        // client keeps alive.
        for s in &self.servers {
            s.discard_queued();
        }
    }

    /// [`Self::shutdown_checked`], panicking on a panicked thread (test
    /// ergonomics).
    pub fn shutdown(self) {
        self.shutdown_checked().expect("worker panicked");
    }
}

impl Drop for RtCluster {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

impl ServerShared {
    pub(crate) fn new(
        id: u32,
        config: &RtClusterConfig,
        queue: Arc<QueueShared>,
        credits: Option<&CreditsHub>,
    ) -> ServerShared {
        ServerShared {
            id,
            q: queue,
            congestion: credits.map(|hub| CongestionMonitor {
                detector: Mutex::new(CongestionDetector::new(
                    hub.cfg.congestion_queue_threshold,
                    hub.cfg.server_capacity_rps,
                    hub.cfg.config.measurement_interval_ns,
                )),
                tx: hub.tx.clone(),
            }),
            store: ShardedStore::new(config.store_shards),
            stop: AtomicBool::new(false),
            served: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
        }
    }

    /// Counts a refused request and sends its owner a typed drop/shed
    /// notice over the request's own reply channel. Call with no queue
    /// guard held: the reply channel's lock stays out of the queue's
    /// critical section.
    fn nack(&self, req: &RtRequest, reason: DropReason) {
        let counter = match reason {
            DropReason::Shed => &self.shed,
            DropReason::QueueFull | DropReason::Sojourn => &self.dropped,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        // The client may have given up (dropped receiver); ignore errors.
        let _ = req.reply.send(RtReply::Nack(RtNack {
            key: req.key,
            req_idx: req.req_idx,
            task_id: req.task_id,
            attempt: req.attempt,
            server: self.id,
            reason,
        }));
    }

    /// Enqueues `req`, on the submitting thread: admission against the
    /// bound, the push, the wake-up, congestion detection. A request
    /// the bound refuses is NACKed (from this server, whichever queue it
    /// feeds) and counts as submitted; `Err` hands the request back
    /// because the server has stopped.
    ///
    /// Admission and push share one hold of the queue mutex, so the
    /// bound stays exact however many clients submit at once. `stop` is
    /// read under the same hold (its writer brackets the lock before
    /// the workers' final drain), so nothing is pushed behind a worker
    /// that has already left; the length mirror moves under it too and
    /// therefore never drifts.
    pub(crate) fn submit(&self, req: RtRequest) -> Result<(), RtRequest> {
        let enqueued = Instant::now();
        let q = &*self.q;
        let mut state = q.state.lock();
        if self.stop.load(Ordering::SeqCst) {
            return Err(req);
        }
        let len = match state.queue.offer(req.group, req.priority, (req, enqueued)) {
            Ok(len) => len,
            Err((reason, (req, _))) => {
                drop(state);
                self.nack(&req, reason);
                return Ok(());
            }
        };
        q.len.store(len, Ordering::Relaxed);
        let wake = state.parked > 0;
        drop(state);
        if wake && q.global {
            // All, not one: a single wake could land on a worker outside
            // this group's replica set, which would re-park and strand
            // the request.
            q.available.notify_all();
        } else if wake {
            q.available.notify_one();
        }
        // Admitted: the detector sees the length including this arrival.
        if let Some(c) = &self.congestion {
            let now_ns = q.epoch.elapsed().as_nanos() as u64;
            let signal = c.detector.lock().on_arrival(now_ns, len);
            if signal {
                let _ = c.tx.send(CreditMsg::Congestion { server: self.id });
            }
        }
        Ok(())
    }

    /// Purges the still-queued loser of a hedged pair. A miss just
    /// means a worker got there first.
    pub(crate) fn cancel(&self, cancel: RtCancel) {
        let mut state = self.q.state.lock();
        let removed = state.queue.cancel(|(req, _)| {
            req.task_id == cancel.task_id
                && req.req_idx == cancel.req_idx
                && req.attempt == cancel.attempt
        });
        if removed > 0 {
            self.q.len.store(state.queue.len(), Ordering::Relaxed);
        }
    }

    /// Wakes every worker that may be parked for this server. The queue
    /// lock MUST be taken before the notify: a worker that checked
    /// `stop` (the one wait predicate not written under the mutex) and
    /// is about to park holds it, so locking here blocks until the
    /// worker is actually parked — otherwise the notify can land in
    /// that window and be lost forever (observed as a hung join on a
    /// loaded single-CPU host).
    fn wake_workers(&self) {
        drop(self.q.state.lock());
        self.q.available.notify_all();
    }

    /// Drops whatever is still queued (the guard goes first: dropping a
    /// request drops its reply sender, which may wake its receiver).
    fn discard_queued(&self) {
        let mut state = self.q.state.lock();
        let left = state.queue.drain();
        self.q.len.store(0, Ordering::Relaxed);
        drop(state);
        drop(left);
    }
}

fn worker_loop(
    shared: &ServerShared,
    work: WorkModel,
    noise_seed: u64,
    speed: f64,
    spike: Option<SpikeModel>,
    panic_on_key: Option<u64>,
) {
    let mut service_rng = StdRng::seed_from_u64(noise_seed);
    // CoDel rejects collected under the queue lock, NACKed after it
    // drops — the reply channel's own lock stays out of the queue's
    // critical section.
    let mut codel_rejects: Vec<(RtRequest, Instant)> = Vec::new();
    let server_id = shared.id;
    // Work-pulling: against the global queue `take` yields the best
    // request this server's replica constraint allows.
    let me = ServerId::new(server_id as u64);
    let q = &*shared.q;
    // CoDel's clock: the request's *measured* sojourn, on the time base
    // that started at `epoch`. Not read without a controller.
    let clock = |(_, enqueued): &(RtRequest, Instant)| {
        let now = Instant::now();
        (
            now.saturating_duration_since(q.epoch).as_nanos() as u64,
            now.saturating_duration_since(*enqueued).as_nanos() as u64,
        )
    };
    loop {
        let popped = {
            let mut state = q.state.lock();
            loop {
                let popped = state.queue.take(me, &q.ring, clock, &mut codel_rejects);
                if popped.is_some() || !codel_rejects.is_empty() {
                    q.len.store(state.queue.len(), Ordering::Relaxed);
                    // Even with nothing to serve: the rejects' owners
                    // must hear before this thread may sleep.
                    break popped;
                }
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                state.parked += 1;
                q.available.wait(&mut state);
                state.parked -= 1;
            }
        };
        for (rejected, _) in codel_rejects.drain(..) {
            shared.nack(&rejected, DropReason::Sojourn);
        }
        let Some((_, (req, _))) = popped else {
            continue;
        };
        if panic_on_key == Some(req.key) {
            panic!("injected worker fault on key {}", req.key);
        }
        let started = Instant::now();
        let value = shared.store.get(req.key);
        if let WorkModel::SimulateService(model) = work {
            let bytes = value.as_ref().map_or(0, |v| v.len() as u64);
            // Sample, not expected_ns: the simulator draws noisy service
            // times, and the live lane must face the same distribution.
            let mut ns = model.sample(bytes, &mut service_rng).as_nanos();
            // Degraded-node fault: service times divide by the speed
            // factor, the simulator's semantics exactly.
            if speed != 1.0 {
                ns = ((ns as f64) / speed).round() as u64;
            }
            // Transient spike fault: the extra delay occupies the worker
            // (see `SpikeModel` for why the live lane spikes service, not
            // the wire).
            if let Some(spike) = spike {
                if service_rng.random::<f64>() < spike.p_spike {
                    ns = ns.saturating_add(
                        service_rng.random_range(spike.extra_lo_ns..=spike.extra_hi_ns),
                    );
                }
            }
            timing::wait_for(std::time::Duration::from_nanos(ns));
        }
        let completed = Instant::now();
        let service_ns = (completed - started).as_nanos() as u64;
        let total_ns = completed
            .saturating_duration_since(req.submitted)
            .as_nanos() as u64;
        // Piggyback feedback from the atomic mirror — no second trip
        // through the queue mutex per request. Global mode piggybacks
        // the cluster-wide backlog (the only queue that exists there).
        let queue_len = q.len.load(Ordering::Relaxed);
        shared.served.fetch_add(1, Ordering::Relaxed);
        shared.busy_ns.fetch_add(service_ns, Ordering::Relaxed);
        // The client may have given up (dropped receiver); ignore errors.
        let _ = req.reply.send(RtReply::Served(RtResponse {
            key: req.key,
            req_idx: req.req_idx,
            task_id: req.task_id,
            attempt: req.attempt,
            value,
            server: server_id,
            queue_len,
            service_ns,
            total_ns,
            completed,
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;

    fn cluster(policy: PolicyKind) -> RtCluster {
        RtCluster::start(RtClusterConfig {
            num_servers: 3,
            workers_per_server: 2,
            replication: 2,
            policy,
            work: WorkModel::Instant,
            store_shards: 8,
            ..Default::default()
        })
    }

    #[test]
    fn populate_places_replicas_on_ring() {
        let c = cluster(PolicyKind::Fifo);
        c.populate(300, |_| 8);
        for key in 0..300u64 {
            let replicas = c.ring.replicas_of_key(key);
            assert_eq!(replicas.len(), 2);
            for s in 0..3u64 {
                let has = c.servers[s as usize].store.contains(key);
                let should = replicas.contains(&brb_store::ids::ServerId::new(s));
                assert_eq!(has, should, "key {key} server {s}");
            }
        }
        c.shutdown();
    }

    #[test]
    fn serves_and_counts() {
        let c = cluster(PolicyKind::EqualMax);
        c.populate(100, |_| 16);
        let client = c.client();
        for _ in 0..50 {
            let resp = client.fetch(&[1, 2, 3, 4, 5]);
            assert_eq!(resp.values.len(), 5);
            assert!(resp.values.iter().all(|v| v.is_some()));
        }
        let served: u64 = c.served_per_server().iter().sum();
        assert_eq!(served, 250);
        c.shutdown();
    }

    #[test]
    fn missing_keys_return_none() {
        let c = cluster(PolicyKind::Fifo);
        c.populate(10, |_| 4);
        let client = c.client();
        let resp = client.fetch(&[99_999]);
        assert!(resp.values[0].is_none());
        c.shutdown();
    }

    #[test]
    fn shutdown_joins_cleanly() {
        let c = cluster(PolicyKind::UnifIncr);
        c.populate(10, |_| 4);
        let client = c.client();
        let _ = client.fetch(&[0, 1]);
        c.shutdown(); // must not hang or panic
    }

    #[test]
    fn partition_count_is_honored() {
        // Default: one partition per server.
        let c = cluster(PolicyKind::Fifo);
        assert_eq!(c.ring().num_partitions(), 3);
        c.shutdown();
        // Explicit partition counts reshape the ring (the lab shim
        // passes the scenario's num_partitions through here).
        let c = RtCluster::start(RtClusterConfig {
            num_servers: 2,
            num_partitions: Some(8),
            replication: 2,
            ..Default::default()
        });
        assert_eq!(c.ring().num_partitions(), 8);
        c.populate(100, |_| 8);
        let client = c.client();
        let resp = client.fetch(&[1, 2, 3]);
        assert!(resp.values.iter().all(|v| v.is_some()));
        c.shutdown();
    }

    #[test]
    fn busy_time_accumulates_under_simulated_service() {
        let service =
            ServiceModel::calibrated_size_linear(100_000.0, 64.0, 1.0, ServiceNoise::None);
        let c = RtCluster::start(RtClusterConfig {
            num_servers: 2,
            workers_per_server: 1,
            replication: 1,
            work: WorkModel::SimulateService(service),
            store_shards: 4,
            ..Default::default()
        });
        c.populate(20, |_| 64);
        let client = c.client();
        for k in 0..20u64 {
            let _ = client.fetch(&[k]);
        }
        let busy: u64 = c.busy_ns_per_server().iter().sum();
        // 20 requests at ~100µs each.
        assert!(busy >= 20 * 90_000, "busy {busy}ns");
        c.shutdown();
    }

    #[test]
    fn concurrent_clients_share_the_cluster() {
        let c = Arc::new(cluster(PolicyKind::UnifIncr));
        c.populate(1_000, |k| (k % 100) + 1);
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                let client = c.client();
                for i in 0..100u64 {
                    let keys: Vec<u64> = (0..5).map(|j| (t * 211 + i * 7 + j) % 1_000).collect();
                    let resp = client.fetch(&keys);
                    assert_eq!(resp.values.len(), 5);
                    assert!(resp.values.iter().all(|v| v.is_some()));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let served: u64 = c.served_per_server().iter().sum();
        assert_eq!(served, 4 * 100 * 5);
        match Arc::try_unwrap(c) {
            Ok(cluster) => cluster.shutdown(),
            Err(_) => panic!("sole owner"),
        }
    }

    /// A degraded server (speed factor 0.25) must take ~4× the nominal
    /// service time — the live lowering of the degraded-node fault.
    #[test]
    fn speed_factor_slows_service() {
        let service =
            ServiceModel::calibrated_size_linear(200_000.0, 64.0, 1.0, ServiceNoise::None);
        let mut busy = Vec::new();
        for factors in [vec![], vec![0.25]] {
            let c = RtCluster::start(RtClusterConfig {
                num_servers: 1,
                workers_per_server: 1,
                replication: 1,
                work: WorkModel::SimulateService(service),
                store_shards: 4,
                speed_factors: factors,
                ..Default::default()
            });
            c.populate(10, |_| 64);
            let client = c.client();
            for k in 0..10u64 {
                let _ = client.fetch(&[k]);
            }
            busy.push(c.busy_ns_per_server()[0]);
            c.shutdown();
        }
        assert!(
            busy[1] as f64 >= busy[0] as f64 * 2.5,
            "degraded server not slower: nominal {}ns vs degraded {}ns",
            busy[0],
            busy[1]
        );
    }

    /// The model realization: one global work-pull queue. Every request
    /// must still land on a replica of its key and be served exactly
    /// once.
    #[test]
    fn global_queue_mode_serves_with_replica_constraint() {
        let c = RtCluster::start(RtClusterConfig {
            num_servers: 3,
            workers_per_server: 2,
            replication: 2,
            policy: PolicyKind::EqualMax,
            selector: SelectorSpec::RoundRobin,
            queue_mode: RtQueueMode::Global,
            work: WorkModel::Instant,
            store_shards: 8,
            ..Default::default()
        });
        c.populate(300, |k| (k % 64) + 1);
        let client = c.client();
        for i in 0..60u64 {
            let keys: Vec<u64> = (0..5).map(|j| (i * 5 + j) % 300).collect();
            let resp = client.fetch(&keys);
            assert!(resp.values.iter().all(|v| v.is_some()));
        }
        let served: u64 = c.served_per_server().iter().sum();
        assert_eq!(served, 300);
        c.shutdown();
    }

    /// The credits lane end to end: clients run the token-bucket
    /// admission, demand reports reach the controller thread, and the
    /// run completes without starving (grants adapt upward from the
    /// fair-share seed).
    #[test]
    fn credits_cluster_serves_and_reports_demand() {
        let c = RtCluster::start(RtClusterConfig {
            num_servers: 3,
            workers_per_server: 2,
            replication: 2,
            policy: PolicyKind::EqualMax,
            work: WorkModel::Instant,
            store_shards: 8,
            num_clients: 2,
            credits: Some(RtCreditsConfig {
                config: brb_sched::CreditsConfig {
                    measurement_interval_ns: 2_000_000, // 2 ms
                    adaptation_interval_ns: 10_000_000, // 10 ms
                    ..Default::default()
                },
                server_capacity_rps: 50_000.0,
                congestion_queue_threshold: 96,
            }),
            ..Default::default()
        });
        c.populate(200, |_| 16);
        let client = c.client();
        let t0 = Instant::now();
        while t0.elapsed() < std::time::Duration::from_millis(40) {
            let resp = client.fetch(&[1, 2, 3, 4, 5]);
            assert!(resp.values.iter().all(|v| v.is_some()));
        }
        assert!(
            c.demand_reports() >= 1,
            "no demand report reached the controller"
        );
        c.shutdown();
    }

    /// A bare server (no workers, no cluster) for driving `submit` /
    /// `cancel` synchronously.
    fn bare_server(queue: Option<QueueConfig>) -> ServerShared {
        let config = RtClusterConfig {
            queue,
            store_shards: 1,
            ..Default::default()
        };
        let queue = QueueShared::new(&config, &Ring::new(3, 3, 2));
        ServerShared::new(0, &config, queue, None)
    }

    fn request(req_idx: u32, attempt: u32, reply: &Sender<RtReply>) -> RtRequest {
        RtRequest {
            key: 1,
            group: brb_store::ids::GroupId::new(0),
            priority: brb_sched::Priority(1),
            req_idx,
            task_id: 7,
            attempt,
            submitted: Instant::now(),
            reply: reply.clone(),
        }
    }

    /// A cancel for a queued request must remove exactly that attempt
    /// and fix the length mirror; a cancel that matches nothing (wrong
    /// attempt) must be a no-op.
    #[test]
    fn cancel_dequeues_matching_attempt_only() {
        let shared = bare_server(None);
        let (reply_tx, reply_rx) = unbounded();
        shared.submit(request(0, 0, &reply_tx)).unwrap();
        shared.submit(request(1, 0, &reply_tx)).unwrap();
        let cancel = |attempt| RtCancel {
            task_id: 7,
            req_idx: 0,
            attempt,
        };
        // Wrong attempt: must remove nothing.
        shared.cancel(cancel(9));
        assert_eq!(shared.q.len.load(Ordering::Relaxed), 2);
        // Exact match: removes req_idx 0.
        shared.cancel(cancel(0));
        assert_eq!(shared.q.len.load(Ordering::Relaxed), 1);
        {
            let mut q = shared.q.state.lock();
            assert_eq!(q.queue.len(), 1);
            assert_eq!(q.queue.cancel(|(req, _)| req.req_idx == 1), 1);
        }
        // No reply was ever sent for the cancelled request.
        drop(reply_tx);
        assert!(reply_rx.try_recv().is_err());
    }

    /// After `stop`, `submit` hands the request back and touches
    /// neither the queue nor its length mirror.
    #[test]
    fn submit_after_stop_returns_the_request() {
        let shared = bare_server(None);
        let (reply_tx, reply_rx) = unbounded();
        shared.submit(request(0, 0, &reply_tx)).unwrap();
        shared.stop.store(true, Ordering::SeqCst);
        let back = shared
            .submit(request(1, 0, &reply_tx))
            .expect_err("a stopped server took a request");
        assert_eq!(back.req_idx, 1);
        assert_eq!(shared.q.len.load(Ordering::Relaxed), 1);
        assert_eq!(shared.q.state.lock().queue.len(), 1);
        assert!(reply_rx.try_recv().is_err(), "a stop is not a NACK");
    }

    /// The bound is exact under contention: four threads submit at once
    /// against capacity 8 and one slow worker; the length seen under
    /// the queue lock never exceeds the capacity, and every request is
    /// answered exactly once — served or NACKed.
    #[test]
    fn bound_is_exact_under_concurrent_submits() {
        const CAPACITY: usize = 8;
        let service = ServiceModel::calibrated_size_linear(50_000.0, 64.0, 1.0, ServiceNoise::None);
        let c = RtCluster::start(RtClusterConfig {
            num_servers: 1,
            workers_per_server: 1,
            replication: 1,
            work: WorkModel::SimulateService(service),
            store_shards: 4,
            queue: Some(QueueConfig {
                capacity: CAPACITY,
                shed_above: None,
                codel: None,
                priority_stats: false,
            }),
            ..Default::default()
        });
        c.populate(8, |_| 64);
        let server = &c.servers[0];
        let (reply_tx, reply_rx) = unbounded();
        let start = std::sync::Barrier::new(4);
        let deepest = std::thread::scope(|scope| {
            let submitters: Vec<_> = (0..4u32)
                .map(|t| {
                    let (reply_tx, start) = (&reply_tx, &start);
                    scope.spawn(move || {
                        start.wait();
                        let mut deepest = 0;
                        for i in 0..200 {
                            server.submit(request(t * 200 + i, 0, reply_tx)).unwrap();
                            deepest = deepest.max(server.q.state.lock().queue.len());
                        }
                        deepest
                    })
                })
                .collect();
            submitters
                .into_iter()
                .map(|h| h.join().unwrap())
                .max()
                .unwrap()
        });
        assert!(deepest <= CAPACITY, "queue reached {deepest}");
        assert!(deepest > 0);
        drop(reply_tx);
        let (mut served, mut nacked) = (0u64, 0u64);
        for _ in 0..800 {
            match reply_rx.recv_timeout(std::time::Duration::from_secs(10)) {
                Ok(RtReply::Served(_)) => served += 1,
                Ok(RtReply::Nack(_)) => nacked += 1,
                Err(e) => panic!("reply missing after {served}+{nacked}: {e:?}"),
            }
        }
        assert!(nacked > 0, "800 submits into capacity 8 never overflowed");
        assert_eq!(served, c.served_per_server()[0]);
        assert_eq!(nacked, c.dropped_per_server()[0] + c.shed_per_server()[0]);
        c.shutdown();
    }

    /// Heads CoDel ejects are NACKed even when they were the last of
    /// the queue: the worker answers them before it parks, not after
    /// the next arrival wakes it.
    #[test]
    fn codel_rejects_are_nacked_before_the_worker_parks() {
        let service =
            ServiceModel::calibrated_size_linear(20_000_000.0, 64.0, 1.0, ServiceNoise::None);
        let c = RtCluster::start(RtClusterConfig {
            num_servers: 1,
            workers_per_server: 1,
            replication: 1,
            work: WorkModel::SimulateService(service),
            store_shards: 4,
            queue: Some(QueueConfig {
                capacity: 8,
                shed_above: None,
                // Every sojourn is above target and every interval is
                // over: the second head judged and all after it go.
                codel: Some(brb_sched::CoDelConfig {
                    target_ns: 1,
                    interval_ns: 1,
                }),
                priority_stats: false,
            }),
            ..Default::default()
        });
        c.populate(8, |_| 64);
        let (reply_tx, reply_rx) = unbounded();
        // The worker serves the first for 20 ms; the other two wait,
        // then are judged back to back and leave the queue empty.
        for i in 0..3 {
            c.servers[0].submit(request(i, 0, &reply_tx)).unwrap();
        }
        let mut nacked = Vec::new();
        for _ in 0..3 {
            match reply_rx.recv_timeout(std::time::Duration::from_secs(5)) {
                Ok(RtReply::Nack(n)) => nacked.push((n.req_idx, n.reason)),
                Ok(RtReply::Served(r)) => assert_eq!(r.req_idx, 0),
                Err(e) => panic!("a reject is waiting on a parked worker: {e:?}"),
            }
        }
        assert_eq!(
            nacked,
            [(1, DropReason::Sojourn), (2, DropReason::Sojourn)],
            "FIFO among equal priorities, both ejected"
        );
        c.shutdown();
    }

    /// `shutdown_checked` with a backlog still queued: every ticket
    /// without a deadline resolves — served, or typed `ClusterDown` —
    /// promptly after it returns; none hangs on a queue only its own
    /// client keeps alive.
    #[test]
    fn shutdown_with_a_backlog_resolves_every_ticket() {
        let service =
            ServiceModel::calibrated_size_linear(2_000_000.0, 64.0, 1.0, ServiceNoise::None);
        let c = RtCluster::start(RtClusterConfig {
            num_servers: 1,
            workers_per_server: 1,
            replication: 1,
            work: WorkModel::SimulateService(service),
            store_shards: 4,
            ..Default::default()
        });
        c.populate(64, |_| 64);
        let client = c.client();
        let tickets: Vec<_> = (0..50u64).map(|k| client.fetch_async(&[k])).collect();
        c.shutdown_checked().expect("no thread panicked");
        let returned = Instant::now();
        let waiter = std::thread::spawn(move || {
            tickets
                .into_iter()
                .map(|t| match t.wait_outcome() {
                    Ok(res) => matches!(res.outcome, crate::TaskOutcome::Completed(_)),
                    Err(e) => {
                        assert_eq!(e, crate::error::RtError::ClusterDown);
                        false
                    }
                })
                .filter(|served| *served)
                .count()
        });
        while !waiter.is_finished() {
            assert!(
                returned.elapsed() < std::time::Duration::from_secs(1),
                "a ticket is still waiting 1 s after shutdown returned"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        // Admitted before the stop, so the worker drained all of them.
        assert_eq!(waiter.join().unwrap(), 50);
    }

    /// Global mode wakes conditionally too: with every worker parked, a
    /// request for each replica group must still reach a worker of its
    /// replica set (the `notify_all`), and the workers park again.
    #[test]
    fn global_mode_wakes_parked_workers_for_every_group() {
        let c = RtCluster::start(RtClusterConfig {
            num_servers: 3,
            workers_per_server: 2,
            replication: 2,
            queue_mode: RtQueueMode::Global,
            work: WorkModel::Instant,
            store_shards: 8,
            ..Default::default()
        });
        c.populate(300, |_| 16);
        let global = &c.servers[0].q;
        let all_parked = || {
            let t0 = Instant::now();
            while global.state.lock().parked != 6 {
                assert!(
                    t0.elapsed() < std::time::Duration::from_secs(5),
                    "workers never all parked: {}",
                    global.state.lock().parked
                );
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        };
        let client = c.client();
        let mut groups_hit = std::collections::BTreeSet::new();
        for key in 0..300u64 {
            if !groups_hit.insert(c.ring().group_of_key(key)) {
                continue;
            }
            all_parked();
            let ticket = client.fetch_async(&[key]);
            let res = ticket.wait_outcome().expect("stranded request");
            assert!(matches!(res.outcome, crate::TaskOutcome::Completed(_)));
        }
        assert_eq!(groups_hit.len() as u32, c.ring().num_groups());
        all_parked();
        c.shutdown();
    }

    /// A panicking worker must trip the cluster's sticky panic flag and
    /// surface from `shutdown_checked` as a typed error — never a
    /// harness panic, never a hang.
    #[test]
    fn injected_worker_panic_is_reported_typed() {
        let c = RtCluster::start(RtClusterConfig {
            num_servers: 1,
            workers_per_server: 2,
            replication: 1,
            work: WorkModel::Instant,
            store_shards: 4,
            panic_on_key: Some(3),
            ..Default::default()
        });
        c.populate(10, |_| 8);
        let client = c.client();
        // Benign traffic first, then the poisoned key; the sibling
        // worker keeps the server alive for the benign requests.
        let _ = client.fetch(&[1, 2]);
        let ticket = client.fetch_async(&[3]);
        // The poisoned request never gets a reply; the flag goes up.
        let t0 = Instant::now();
        while !c.panicked() && t0.elapsed() < std::time::Duration::from_secs(5) {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert!(c.panicked(), "worker panic not observed");
        drop(ticket);
        assert_eq!(
            c.shutdown_checked(),
            Err(crate::error::RtError::WorkerPanicked)
        );
    }
}
