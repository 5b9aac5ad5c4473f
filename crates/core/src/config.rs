//! Experiment configuration: cluster, workload, strategy.
//!
//! [`ClusterConfig::paper_default`] and [`WorkloadConfig::paper_default`]
//! encode every constant §2.2 reports: 18 clients, 9 servers at 4 cores,
//! 3 500 req/s per core, 50 µs one-way latency, ~500 k tasks at mean
//! fan-out 8.6, ETC-Pareto value sizes, Poisson arrivals at 70% of
//! capacity. Complete experiment descriptions are assembled by the
//! `brb-lab` scenario layer (registry presets / `ScenarioBuilder`), the
//! sole entry point since the deprecated `figure2*` constructors were
//! removed.

use brb_net::{LatencyModel, PlanMode};
use brb_sched::{CreditsConfig, PolicyKind};
// The overload lane's knobs live beside the code that reads them.
pub use brb_sched::{QueueConfig, TimeoutConfig};
use brb_store::cost::ForecastQuality;
use brb_store::service::{ServiceModel, ServiceNoise};
use brb_workload::taskgen::SizeModel;
use brb_workload::{task_rate_for_load, FanoutDist, MAX_VALUE_BYTES};
use serde::{Deserialize, Serialize};

/// The backend cluster being simulated.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of application servers (the paper's "clients").
    pub num_clients: u32,
    /// Number of storage servers.
    pub num_servers: u32,
    /// Worker cores per storage server ("concurrency level").
    pub cores_per_server: u32,
    /// Replication factor R.
    pub replication: u32,
    /// Partitions on the ring (defaults to `num_servers`).
    pub num_partitions: u32,
    /// Mean service rate per core, requests/second.
    pub service_rate_per_core: f64,
    /// Fraction of mean service cost that is fixed overhead (vs.
    /// size-proportional); see `brb-store::service`.
    pub service_base_fraction: f64,
    /// Server-side service-time noise.
    pub service_noise: ServiceNoise,
    /// One-way network latency model.
    pub latency: LatencyModel,
    /// How well clients forecast service costs from value sizes.
    pub forecast: ForecastQuality,
    /// Per-server speed factors (1.0 = nominal; 0.5 = half speed — the
    /// degraded-node scenario C3 was designed around). Empty means all
    /// servers run at nominal speed. Clients and the credits controller
    /// are *not* told about these factors: adapting to them is the
    /// strategies' job.
    pub server_speed_factors: Vec<f64>,
}

/// `Default` is the paper's cluster, so spec files can omit `[cluster]`
/// entirely and still describe a valid scenario.
impl Default for ClusterConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

impl ClusterConfig {
    /// The paper's cluster (§2.2).
    pub fn paper_default() -> Self {
        ClusterConfig {
            num_clients: 18,
            num_servers: 9,
            cores_per_server: 4,
            replication: 3,
            num_partitions: 9,
            service_rate_per_core: 3_500.0,
            // Service cost is dominated by value size (the paper forecasts
            // cost from the requested value's size); 20% fixed overhead.
            service_base_fraction: 0.2,
            service_noise: ServiceNoise::LogNormal { sigma: 0.3 },
            latency: LatencyModel::paper_constant(),
            forecast: ForecastQuality::Exact,
            server_speed_factors: Vec::new(),
        }
    }

    /// The speed factor of one server (1.0 when unspecified).
    pub fn speed_of(&self, server: usize) -> f64 {
        self.server_speed_factors
            .get(server)
            .copied()
            .unwrap_or(1.0)
    }

    /// Aggregate service capacity in requests/second.
    pub fn capacity_rps(&self) -> f64 {
        self.num_servers as f64 * self.cores_per_server as f64 * self.service_rate_per_core
    }

    /// Per-server capacity in requests/second.
    pub fn server_capacity_rps(&self) -> f64 {
        self.cores_per_server as f64 * self.service_rate_per_core
    }

    /// Builds the calibrated service model for a workload whose values
    /// average `mean_value_bytes`.
    pub fn service_model(&self, mean_value_bytes: f64) -> ServiceModel {
        ServiceModel::calibrated_size_linear(
            1e9 / self.service_rate_per_core,
            mean_value_bytes,
            self.service_base_fraction,
            self.service_noise,
        )
    }

    /// Validates structural invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_clients == 0 || self.num_servers == 0 || self.cores_per_server == 0 {
            return Err("cluster dimensions must be positive".into());
        }
        if self.num_partitions == 0 {
            return Err("need at least one partition".into());
        }
        if self.replication == 0 || self.replication > self.num_servers {
            return Err(format!(
                "replication {} invalid for {} servers",
                self.replication, self.num_servers
            ));
        }
        if self.service_rate_per_core <= 0.0 {
            return Err("service rate must be positive".into());
        }
        if self.server_speed_factors.len() > self.num_servers as usize {
            return Err("more speed factors than servers".into());
        }
        if self
            .server_speed_factors
            .iter()
            .any(|&f| !f.is_finite() || f <= 0.0)
        {
            return Err("speed factors must be positive and finite".into());
        }
        self.latency.validate()
    }
}

/// How tasks are generated.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadKind {
    /// Independent sampling: fan-out distribution × Zipf keys.
    Synthetic {
        /// Fan-out distribution.
        fanout: FanoutDist,
        /// Number of keys in the universe.
        num_keys: u64,
        /// Zipf exponent for key popularity (0 = uniform).
        zipf_exponent: f64,
    },
    /// Playlist-structured SoundCloud substitute (correlated key sets).
    Playlist {
        /// Number of tracks in the catalog.
        num_tracks: u64,
        /// Number of playlists.
        num_playlists: u64,
        /// Zipf exponent for playlist popularity.
        playlist_zipf: f64,
    },
}

/// The offered workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Number of tasks per run (paper: ~500 000).
    pub num_tasks: usize,
    /// Offered load as a fraction of aggregate capacity (paper: 0.7).
    pub load: f64,
    /// Task structure.
    pub kind: WorkloadKind,
    /// Value-size model (paper: Facebook ETC Pareto).
    pub sizes: SizeModel,
}

/// `Default` is the paper's workload, so spec files can omit
/// `[workload]` entirely and still describe a valid scenario.
impl Default for WorkloadConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

impl WorkloadConfig {
    /// The paper's workload at full scale (~500 k tasks). The default kind
    /// is the playlist-structured SoundCloud substitute: tasks fetch all
    /// tracks of a Zipf-popular playlist, reproducing the correlated key
    /// sets of the production trace.
    pub fn paper_default() -> Self {
        WorkloadConfig {
            num_tasks: 500_000,
            load: 0.7,
            kind: WorkloadKind::Playlist {
                num_tracks: 1_000_000,
                num_playlists: 100_000,
                playlist_zipf: 0.8,
            },
            sizes: SizeModel::facebook_etc(),
        }
    }

    /// Mean fan-out implied by the workload kind. For playlist workloads
    /// this is the length distribution's mean (popularity-independent).
    pub fn mean_fanout(&self) -> f64 {
        match &self.kind {
            WorkloadKind::Synthetic { fanout, .. } => fanout.mean(),
            WorkloadKind::Playlist { .. } => FanoutDist::soundcloud_like().mean(),
        }
    }

    /// Task arrival rate (tasks/s) against a cluster.
    pub fn task_rate(&self, cluster: &ClusterConfig) -> f64 {
        task_rate_for_load(self.load, cluster.capacity_rps(), self.mean_fanout())
    }

    /// Sets `num_tasks` and shrinks the key/catalog universe to match, so
    /// scaled-down runs keep a realistic key-reuse rate. The mapping is a
    /// function of `num_tasks` alone (not of the current catalog), so
    /// re-applying it is idempotent — every path that scales a scenario
    /// (the `brb-lab` `scale_catalog` lowering rule, core's own test
    /// helper) must produce identical configs, pinned by the
    /// `figure2-small` lowering golden.
    pub fn scale_to_tasks(&mut self, num_tasks: usize) {
        self.num_tasks = num_tasks;
        match &mut self.kind {
            WorkloadKind::Synthetic { num_keys, .. } => {
                *num_keys = (num_tasks as u64 * 20).max(1_000)
            }
            WorkloadKind::Playlist {
                num_tracks,
                num_playlists,
                ..
            } => {
                *num_tracks = (num_tasks as u64 * 10).max(1_000);
                *num_playlists = (num_tasks as u64).max(100);
            }
        }
    }

    /// Validates structural invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_tasks == 0 {
            return Err("need at least one task".into());
        }
        if !(self.load > 0.0 && self.load < 1.5) {
            return Err(format!("load {} out of sane range", self.load));
        }
        if self.sizes.cap_bytes > MAX_VALUE_BYTES {
            return Err(format!(
                "value size cap {} exceeds the limit of {MAX_VALUE_BYTES} bytes",
                self.sizes.cap_bytes
            ));
        }
        match &self.kind {
            WorkloadKind::Synthetic {
                fanout,
                num_keys,
                zipf_exponent,
            } => {
                fanout.validate()?;
                if *num_keys == 0 {
                    return Err("empty key space".into());
                }
                if *zipf_exponent < 0.0 {
                    return Err("negative zipf exponent".into());
                }
            }
            WorkloadKind::Playlist {
                num_tracks,
                num_playlists,
                ..
            } => {
                if *num_tracks == 0 || *num_playlists == 0 {
                    return Err("empty playlist catalog".into());
                }
                // A catalog names tracks by `u32` popularity rank, and a
                // popularity table indexes its slots by `u32`.
                for (what, n) in [("tracks", num_tracks), ("playlists", num_playlists)] {
                    if *n > u64::from(u32::MAX) {
                        return Err(format!(
                            "{n} {what} exceed the playlist catalog's limit of {}",
                            u32::MAX
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Replica selection strategies available to direct dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SelectorKind {
    /// Uniform random replica.
    Random,
    /// Round-robin across replicas.
    RoundRobin,
    /// Fewest client-local outstanding requests.
    LeastOutstanding,
    /// True-shortest-queue oracle (unrealizable bound).
    Oracle,
    /// The C3 baseline (scoring + rate control).
    C3,
}

impl SelectorKind {
    /// Stable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            SelectorKind::Random => "random",
            SelectorKind::RoundRobin => "round-robin",
            SelectorKind::LeastOutstanding => "least-outstanding",
            SelectorKind::Oracle => "oracle",
            SelectorKind::C3 => "c3",
        }
    }
}

/// A complete scheduling strategy — one bar group of Figure 2, or an
/// ablation combination.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Strategy {
    /// Direct dispatch: per-request replica selection, per-server queues.
    Direct {
        /// Replica selection.
        selector: SelectorKind,
        /// Priority assignment (Fifo = task-oblivious).
        policy: PolicyKind,
        /// `true` → servers use priority queues; `false` → FIFO.
        priority_queues: bool,
    },
    /// BRB's practical realization: credits controller + per-server
    /// priority queues.
    Credits {
        /// Priority assignment (EqualMax / UnifIncr in the paper).
        policy: PolicyKind,
        /// Controller tuning (spec files may omit it for the defaults).
        #[serde(default)]
        credits: CreditsConfig,
    },
    /// BRB's ideal realization: single global priority queue with
    /// work-pulling servers.
    Model {
        /// Priority assignment.
        policy: PolicyKind,
    },
    /// The "tail at scale" duplication baseline the paper's introduction
    /// cites as complementary: task-oblivious direct dispatch, but any
    /// request still pending after `delay_us` is re-issued to another
    /// replica; the first response wins (the straggler's work is wasted).
    Hedged {
        /// Replica selection for both the original and the hedge.
        selector: SelectorKind,
        /// Hedge trigger delay in microseconds (≈ a high percentile of
        /// normal response time; Dean & Barroso suggest p95).
        delay_us: u64,
    },
}

impl Strategy {
    /// The C3 baseline exactly as the paper runs it.
    pub fn c3() -> Self {
        Strategy::Direct {
            selector: SelectorKind::C3,
            policy: PolicyKind::Fifo,
            priority_queues: false,
        }
    }

    /// `EqualMax - Credits` (Figure 2).
    pub fn equal_max_credits() -> Self {
        Strategy::Credits {
            policy: PolicyKind::EqualMax,
            credits: CreditsConfig::default(),
        }
    }

    /// `EqualMax - Model` (Figure 2).
    pub fn equal_max_model() -> Self {
        Strategy::Model {
            policy: PolicyKind::EqualMax,
        }
    }

    /// `UniformIncr - Credits` (Figure 2).
    pub fn unif_incr_credits() -> Self {
        Strategy::Credits {
            policy: PolicyKind::UnifIncr,
            credits: CreditsConfig::default(),
        }
    }

    /// `UniformIncr - Model` (Figure 2).
    pub fn unif_incr_model() -> Self {
        Strategy::Model {
            policy: PolicyKind::UnifIncr,
        }
    }

    /// The five strategies of Figure 2, in the paper's legend order.
    pub fn figure2_set() -> Vec<Strategy> {
        vec![
            Strategy::c3(),
            Strategy::equal_max_credits(),
            Strategy::equal_max_model(),
            Strategy::unif_incr_credits(),
            Strategy::unif_incr_model(),
        ]
    }

    /// The "tail at scale" hedging baseline with least-outstanding
    /// selection and a 5 ms trigger (≈ p99 of healthy response times
    /// under the paper's configuration). Triggers near the median are
    /// unstable: every hedge adds load, which inflates latencies, which
    /// fires more hedges — we reproduce that runaway in the ablation.
    pub fn hedged_default() -> Self {
        Strategy::Hedged {
            selector: SelectorKind::LeastOutstanding,
            delay_us: 5_000,
        }
    }

    /// The priority policy this strategy schedules with.
    pub fn policy(&self) -> PolicyKind {
        match self {
            Strategy::Direct { policy, .. } => *policy,
            Strategy::Credits { policy, .. } => *policy,
            Strategy::Model { policy } => *policy,
            Strategy::Hedged { .. } => PolicyKind::Fifo,
        }
    }

    /// Stable display name, matching the paper's legend where applicable.
    pub fn name(&self) -> String {
        match self {
            Strategy::Direct {
                selector,
                policy,
                priority_queues,
            } => {
                if *selector == SelectorKind::C3 && *policy == PolicyKind::Fifo {
                    "C3".to_string()
                } else {
                    format!(
                        "{}+{}{}",
                        selector.name(),
                        policy_label(*policy),
                        if *priority_queues { "-pq" } else { "" }
                    )
                }
            }
            Strategy::Credits { policy, .. } => format!("{} - Credits", policy_label(*policy)),
            Strategy::Model { policy } => format!("{} - Model", policy_label(*policy)),
            Strategy::Hedged { selector, delay_us } => {
                format!("hedged({}, {}us)", selector.name(), delay_us)
            }
        }
    }
}

fn policy_label(p: PolicyKind) -> &'static str {
    match p {
        PolicyKind::Fifo => "FIFO",
        PolicyKind::EqualMax => "EqualMax",
        PolicyKind::UnifIncr => "UniformIncr",
        PolicyKind::UnifIncrSubtask => "UniformIncrSub",
        PolicyKind::Sjf => "SJF",
        PolicyKind::Edf => "EDF",
    }
}

/// The overload lane's knobs: bounded/AQM-managed server queues and
/// client-side timeouts with retries. The default (both `None`) is the
/// pre-overload engine exactly — unbounded queues, no timeouts — and
/// every pre-existing golden hash runs with that default.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct OverloadConfig {
    /// Server-queue bound + AQM (`None` = unbounded).
    #[serde(default)]
    pub queue: Option<QueueConfig>,
    /// Client timeouts + retries (`None` = never time out).
    #[serde(default)]
    pub timeout: Option<TimeoutConfig>,
}

impl OverloadConfig {
    /// Whether every knob is off (legacy behavior).
    pub fn is_off(&self) -> bool {
        self.queue.is_none() && self.timeout.is_none()
    }

    /// Validates structural invariants.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(q) = &self.queue {
            q.validate()?;
        }
        if let Some(t) = &self.timeout {
            t.validate()?;
        }
        Ok(())
    }
}

/// Everything one seeded run needs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// The cluster.
    pub cluster: ClusterConfig,
    /// The offered workload.
    pub workload: WorkloadConfig,
    /// The strategy under test.
    pub strategy: Strategy,
    /// Master seed for all randomness.
    pub seed: u64,
    /// Fraction of the run (by arrival time) treated as warm-up and
    /// excluded from latency statistics.
    pub warmup_fraction: f64,
    /// Server queue length that triggers a congestion signal (credits).
    pub congestion_queue_threshold: usize,
    /// When set, the engine samples a telemetry snapshot (per-server
    /// queue depths, busy cores, client backlogs) every this many
    /// nanoseconds of virtual time. `None` (the default) costs nothing.
    #[serde(default)]
    pub telemetry_interval_ns: Option<u64>,
    /// How the engine computes per-message network delays: `Compiled`
    /// (the default) timestamps through the precompiled
    /// [`brb_net::FabricPlan`]; `PerMessage` forces the historical
    /// `Fabric::delay`-per-message draw — the reference slow path the
    /// differential tests and `kernel_bench` compare against. Results
    /// are byte-identical either way (test-enforced).
    #[serde(default)]
    pub net: PlanMode,
    /// Overload-lane knobs (bounded queues, timeouts + retries). The
    /// default is everything off — the legacy engine, bit for bit.
    #[serde(default)]
    pub overload: OverloadConfig,
}

/// The paper's harness constants around one (strategy, seed, task-count)
/// cell — what the removed `figure2_small` shim built. Kept crate-local
/// for core's own tests, which cannot depend on `brb-lab` (every
/// external caller goes through the registry presets, test-enforced to
/// lower to this exact configuration).
#[cfg(test)]
pub(crate) fn paper_small_config(
    strategy: Strategy,
    seed: u64,
    num_tasks: usize,
) -> ExperimentConfig {
    let mut workload = WorkloadConfig::paper_default();
    workload.scale_to_tasks(num_tasks);
    ExperimentConfig {
        cluster: ClusterConfig::paper_default(),
        workload,
        strategy,
        seed,
        warmup_fraction: 0.05,
        congestion_queue_threshold: 96,
        telemetry_interval_ns: None,
        net: PlanMode::Compiled,
        overload: OverloadConfig::default(),
    }
}

impl ExperimentConfig {
    /// Validates the whole configuration.
    pub fn validate(&self) -> Result<(), String> {
        self.cluster.validate()?;
        self.workload.validate()?;
        if !(0.0..0.9).contains(&self.warmup_fraction) {
            return Err(format!(
                "warmup fraction {} out of range",
                self.warmup_fraction
            ));
        }
        if self.congestion_queue_threshold == 0 {
            return Err("congestion threshold must be positive".into());
        }
        if let Strategy::Credits { credits, .. } = &self.strategy {
            credits.validate()?;
        }
        self.overload.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brb_sched::CoDelConfig;

    #[test]
    fn paper_constants_are_pinned() {
        let c = ClusterConfig::paper_default();
        assert_eq!(c.num_clients, 18);
        assert_eq!(c.num_servers, 9);
        assert_eq!(c.cores_per_server, 4);
        assert_eq!(c.replication, 3);
        assert_eq!(c.service_rate_per_core, 3_500.0);
        assert_eq!(c.capacity_rps(), 126_000.0);
        assert_eq!(c.server_capacity_rps(), 14_000.0);
        assert_eq!(c.latency, LatencyModel::Constant { delay_ns: 50_000 });

        let w = WorkloadConfig::paper_default();
        assert_eq!(w.num_tasks, 500_000);
        assert_eq!(w.load, 0.7);
        assert!((w.mean_fanout() - 8.6).abs() < 0.2);
        // ≈10,256 tasks/s at 70% of capacity.
        let rate = w.task_rate(&c);
        assert!((10_000.0..10_500.0).contains(&rate), "{rate}");
    }

    #[test]
    fn figure2_set_matches_legend() {
        let names: Vec<String> = Strategy::figure2_set().iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec![
                "C3",
                "EqualMax - Credits",
                "EqualMax - Model",
                "UniformIncr - Credits",
                "UniformIncr - Model"
            ]
        );
    }

    #[test]
    fn strategy_policies() {
        assert_eq!(Strategy::c3().policy(), PolicyKind::Fifo);
        assert_eq!(Strategy::equal_max_model().policy(), PolicyKind::EqualMax);
        assert_eq!(Strategy::unif_incr_credits().policy(), PolicyKind::UnifIncr);
    }

    #[test]
    fn paper_scale_config_validates() {
        for s in Strategy::figure2_set() {
            let mut cfg = paper_small_config(s, 1, 1_000);
            cfg.workload = WorkloadConfig::paper_default();
            assert!(cfg.validate().is_ok());
        }
    }

    #[test]
    fn small_config_shrinks_keyspace() {
        let cfg = paper_small_config(Strategy::c3(), 1, 100);
        assert_eq!(cfg.workload.num_tasks, 100);
        match cfg.workload.kind {
            WorkloadKind::Playlist {
                num_tracks,
                num_playlists,
                ..
            } => {
                assert_eq!(num_tracks, 1_000);
                assert_eq!(num_playlists, 100);
            }
            _ => panic!("unexpected kind"),
        }
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn catalogs_beyond_u32_ranks_fail_validation() {
        let at = |num_tracks, num_playlists| {
            let mut cfg = paper_small_config(Strategy::c3(), 1, 1_000);
            cfg.workload.kind = WorkloadKind::Playlist {
                num_tracks,
                num_playlists,
                playlist_zipf: 0.8,
            };
            cfg.validate()
        };
        let max = u64::from(u32::MAX);
        assert!(at(max, 100).is_ok());
        let err = at(max + 1, 100).unwrap_err();
        assert!(err.contains("tracks exceed"), "{err}");
        let err = at(1_000, max + 1).unwrap_err();
        assert!(err.contains("playlists exceed"), "{err}");
    }

    #[test]
    fn validation_rejects_nonsense() {
        let mut cfg = paper_small_config(Strategy::c3(), 1, 1_000);
        cfg.cluster.replication = 99;
        assert!(cfg.validate().is_err());

        let mut cfg = paper_small_config(Strategy::c3(), 1, 1_000);
        cfg.workload.load = 0.0;
        assert!(cfg.validate().is_err());

        let mut cfg = paper_small_config(Strategy::c3(), 1, 1_000);
        cfg.warmup_fraction = 0.95;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn configs_serialize_round_trip() {
        let cfg = paper_small_config(Strategy::equal_max_credits(), 3, 500);
        let json = serde_json::to_string(&cfg).unwrap();
        let back: ExperimentConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.seed, 3);
        assert_eq!(back.strategy.name(), "EqualMax - Credits");
        assert_eq!(back.net, PlanMode::Compiled);
    }

    #[test]
    fn net_mode_defaults_to_compiled_on_old_configs() {
        // Configs serialized before the `net` field existed (and spec
        // files that omit it) must deserialize to the fast path.
        let mut cfg = paper_small_config(Strategy::c3(), 1, 100);
        cfg.net = PlanMode::PerMessage;
        let json = serde_json::to_string(&cfg).unwrap();
        let stripped = json.replace(",\"net\":\"PerMessage\"", "");
        assert_ne!(json, stripped, "net field missing from serialization");
        let back: ExperimentConfig = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back.net, PlanMode::Compiled);
    }

    #[test]
    fn overload_defaults_to_off_on_old_configs() {
        // Configs serialized before the overload lane existed (and spec
        // files that omit it) must deserialize with every knob off.
        let cfg = paper_small_config(Strategy::c3(), 1, 100);
        let json = serde_json::to_string(&cfg).unwrap();
        assert!(json.contains("\"overload\""));
        let stripped = json.replace(",\"overload\":{\"queue\":null,\"timeout\":null}", "");
        assert_ne!(json, stripped, "overload field missing from serialization");
        let back: ExperimentConfig = serde_json::from_str(&stripped).unwrap();
        assert!(back.overload.is_off());
    }

    #[test]
    fn overload_validation_rejects_nonsense() {
        let base = paper_small_config(Strategy::c3(), 1, 100);

        let mut cfg = base.clone();
        cfg.overload.queue = Some(QueueConfig {
            capacity: 0,
            shed_above: None,
            codel: None,
            priority_stats: false,
        });
        assert!(cfg.validate().is_err(), "zero capacity");

        let mut cfg = base.clone();
        cfg.overload.queue = Some(QueueConfig {
            capacity: 8,
            shed_above: Some(9),
            codel: None,
            priority_stats: false,
        });
        assert!(cfg.validate().is_err(), "watermark above capacity");

        let mut cfg = base.clone();
        cfg.overload.queue = Some(QueueConfig {
            capacity: 8,
            shed_above: None,
            codel: Some(CoDelConfig {
                target_ns: 0,
                interval_ns: 1,
            }),
            priority_stats: false,
        });
        assert!(cfg.validate().is_err(), "zero CoDel target");

        let mut cfg = base.clone();
        cfg.overload.timeout = Some(TimeoutConfig {
            timeout_us: 0,
            max_retries: 1,
            backoff_base_us: 0,
            backoff_cap_us: 0,
            retry_budget_percent: None,
        });
        assert!(cfg.validate().is_err(), "zero timeout");

        let mut cfg = base.clone();
        cfg.overload.timeout = Some(TimeoutConfig {
            timeout_us: 10_000,
            max_retries: 2,
            backoff_base_us: 1_000,
            backoff_cap_us: 100,
            retry_budget_percent: None,
        });
        assert!(cfg.validate().is_err(), "cap below base");

        let mut cfg = base;
        cfg.overload.queue = Some(QueueConfig {
            capacity: 64,
            shed_above: Some(48),
            codel: Some(CoDelConfig::paper_default()),
            priority_stats: false,
        });
        cfg.overload.timeout = Some(TimeoutConfig {
            timeout_us: 10_000,
            max_retries: 2,
            backoff_base_us: 1_000,
            backoff_cap_us: 8_000,
            retry_budget_percent: Some(10),
        });
        assert!(cfg.validate().is_ok(), "sane overload config rejected");
        assert!(!cfg.overload.is_off());
    }

    #[test]
    fn overload_config_round_trips() {
        let mut cfg = paper_small_config(Strategy::c3(), 1, 100);
        cfg.overload.queue = Some(QueueConfig {
            capacity: 64,
            shed_above: Some(48),
            codel: Some(CoDelConfig::paper_default()),
            priority_stats: false,
        });
        cfg.overload.timeout = Some(TimeoutConfig {
            timeout_us: 10_000,
            max_retries: 2,
            backoff_base_us: 1_000,
            backoff_cap_us: 8_000,
            retry_budget_percent: Some(10),
        });
        let json = serde_json::to_string(&cfg).unwrap();
        let back: ExperimentConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.overload, cfg.overload);
    }

    #[test]
    fn ablation_strategy_names() {
        let s = Strategy::Direct {
            selector: SelectorKind::LeastOutstanding,
            policy: PolicyKind::EqualMax,
            priority_queues: true,
        };
        assert_eq!(s.name(), "least-outstanding+EqualMax-pq");
    }
}
