//! Fluent scenario construction.
//!
//! [`ScenarioBuilder`] replaces the raw-struct-mutation idiom
//! (`let mut cfg = ExperimentConfig::figure2_small(...); cfg.workload.load = ...`)
//! with typed setters; [`ScenarioBuilder::build`] validates the result
//! and returns typed [`ScenarioError`]s instead of letting impossible
//! combinations panic downstream.

use crate::error::ScenarioError;
use crate::spec::{
    DegradedServer, FaultSpec, QueueSpec, RunSpec, ScenarioSpec, SpikeFault, SweepSpec, TimeoutSpec,
};
use brb_core::config::{ClusterConfig, ExperimentConfig, Strategy, WorkloadConfig, WorkloadKind};
use brb_net::{LatencyModel, PlanMode};
use brb_store::cost::ForecastQuality;

/// Builds a [`ScenarioSpec`] from the paper's defaults outward.
///
/// Setters never fail; every check happens in [`Self::build`] (or the
/// [`Self::build_config`] shortcut), which returns typed errors.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    spec: ScenarioSpec,
}

impl ScenarioBuilder {
    /// Starts from the paper's cluster and workload with *empty*
    /// strategy and seed sets (build fails until both are provided, or
    /// [`Self::build_config`] supplies them).
    pub fn new(name: &str) -> Self {
        ScenarioBuilder {
            spec: ScenarioSpec {
                name: name.to_string(),
                description: String::new(),
                cluster: ClusterConfig::paper_default(),
                workload: WorkloadConfig::paper_default(),
                scale_catalog: false,
                strategies: Vec::new(),
                seeds: Vec::new(),
                faults: FaultSpec::default(),
                sweep: SweepSpec::default(),
                run: RunSpec::default(),
                replay: false,
                queue: None,
                timeout: None,
            },
        }
    }

    /// Resumes building from an existing spec (e.g. a registry preset).
    pub fn from_spec(spec: ScenarioSpec) -> Self {
        ScenarioBuilder { spec }
    }

    // -- metadata ---------------------------------------------------------

    /// Sets the one-line description.
    pub fn describe(mut self, description: &str) -> Self {
        self.spec.description = description.to_string();
        self
    }

    // -- cluster ----------------------------------------------------------

    /// Sets the number of application servers (the paper's "clients").
    pub fn clients(mut self, n: u32) -> Self {
        self.spec.cluster.num_clients = n;
        self
    }

    /// Sets the number of storage servers.
    pub fn servers(mut self, n: u32) -> Self {
        self.spec.cluster.num_servers = n;
        self
    }

    /// Sets worker cores per storage server.
    pub fn cores(mut self, n: u32) -> Self {
        self.spec.cluster.cores_per_server = n;
        self
    }

    /// Sets the replication factor.
    pub fn replication(mut self, r: u32) -> Self {
        self.spec.cluster.replication = r;
        self
    }

    /// Sets the partition-ring size.
    pub fn partitions(mut self, n: u32) -> Self {
        self.spec.cluster.num_partitions = n;
        self
    }

    /// Sets the mean per-core service rate (requests/second).
    pub fn service_rate(mut self, rps: f64) -> Self {
        self.spec.cluster.service_rate_per_core = rps;
        self
    }

    /// Replaces the one-way latency model.
    pub fn latency(mut self, model: LatencyModel) -> Self {
        self.spec.cluster.latency = model;
        self
    }

    /// Sets the clients' cost-forecast quality.
    pub fn forecast(mut self, quality: ForecastQuality) -> Self {
        self.spec.cluster.forecast = quality;
        self
    }

    /// Replaces the per-server speed-factor vector directly (see also
    /// [`Self::degrade_server`] for the single-fault idiom).
    pub fn speed_factors(mut self, factors: Vec<f64>) -> Self {
        self.spec.cluster.server_speed_factors = factors;
        self
    }

    /// Replaces the whole cluster description.
    pub fn cluster(mut self, cluster: ClusterConfig) -> Self {
        self.spec.cluster = cluster;
        self
    }

    // -- workload ---------------------------------------------------------

    /// Sets the number of tasks per run.
    pub fn tasks(mut self, n: usize) -> Self {
        self.spec.workload.num_tasks = n;
        self
    }

    /// Sets the offered load as a fraction of aggregate capacity.
    pub fn load(mut self, load: f64) -> Self {
        self.spec.workload.load = load;
        self
    }

    /// Replaces the task-structure model.
    pub fn workload_kind(mut self, kind: WorkloadKind) -> Self {
        self.spec.workload.kind = kind;
        self
    }

    /// Replaces the whole workload description.
    pub fn workload(mut self, workload: WorkloadConfig) -> Self {
        self.spec.workload = workload;
        self
    }

    /// Shrinks the key/catalog universe with `num_tasks` at lowering
    /// time (`figure2-small` semantics).
    pub fn scale_catalog(mut self, on: bool) -> Self {
        self.spec.scale_catalog = on;
        self
    }

    // -- strategies and seeds ---------------------------------------------

    /// Appends one strategy.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.spec.strategies.push(strategy);
        self
    }

    /// Replaces the strategy set.
    pub fn strategies(mut self, strategies: Vec<Strategy>) -> Self {
        self.spec.strategies = strategies;
        self
    }

    /// Appends one seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seeds.push(seed);
        self
    }

    /// Replaces the seed set.
    pub fn seeds(mut self, seeds: &[u64]) -> Self {
        self.spec.seeds = seeds.to_vec();
        self
    }

    // -- faults -----------------------------------------------------------

    /// Degrades one server to `speed` × nominal (e.g. `0.5` = half
    /// speed). Clients are not told; adapting is the strategies' job.
    pub fn degrade_server(mut self, server: u32, speed: f64) -> Self {
        self.spec
            .faults
            .degraded
            .push(DegradedServer { server, speed });
        self
    }

    /// Layers transient latency spikes onto the (constant) fabric: each
    /// message independently eats `[extra_lo_us, extra_hi_us]`µs extra
    /// with probability `p_spike`.
    pub fn spike(mut self, p_spike: f64, extra_lo_us: u64, extra_hi_us: u64) -> Self {
        self.spec.faults.spike = Some(SpikeFault {
            p_spike,
            extra_lo_us,
            extra_hi_us,
        });
        self
    }

    // -- overload lane ----------------------------------------------------

    /// Bounds every server queue, optionally with an admission-control
    /// shed watermark and a CoDel AQM (see [`QueueSpec`]; durations in
    /// microseconds).
    pub fn bounded_queue(mut self, queue: QueueSpec) -> Self {
        self.spec.queue = Some(queue);
        self
    }

    /// Enables client-side request timeouts with capped-exponential
    /// retries (see [`TimeoutSpec`]; durations in microseconds).
    pub fn timeouts(mut self, timeout: TimeoutSpec) -> Self {
        self.spec.timeout = Some(timeout);
        self
    }

    // -- sweep axes -------------------------------------------------------

    /// Sweeps offered load over `values`.
    pub fn sweep_load(mut self, values: &[f64]) -> Self {
        self.spec.sweep.load = values.to_vec();
        self
    }

    /// Sweeps mean task fan-out over `values` (shifted-geometric
    /// synthetic workload per cell).
    pub fn sweep_mean_fanout(mut self, values: &[u32]) -> Self {
        self.spec.sweep.mean_fanout = values.to_vec();
        self
    }

    /// Sweeps the hedge trigger delay (µs) over `values`; applies to
    /// every `Hedged` strategy in the set.
    pub fn sweep_hedge_delay_us(mut self, values: &[u64]) -> Self {
        self.spec.sweep.hedge_delay_us = values.to_vec();
        self
    }

    /// Sweeps the admission-control shed watermark over `values`,
    /// overriding the queue spec's `shed_above` per cell (requires a
    /// queue spec — the starvation-curve sweep).
    pub fn sweep_shed_above(mut self, values: &[usize]) -> Self {
        self.spec.sweep.shed_above = values.to_vec();
        self
    }

    // -- harness ----------------------------------------------------------

    /// Sets the warm-up fraction excluded from statistics.
    pub fn warmup_fraction(mut self, fraction: f64) -> Self {
        self.spec.run.warmup_fraction = fraction;
        self
    }

    /// Enables periodic telemetry snapshots (ns of virtual time).
    pub fn telemetry_interval_ns(mut self, interval: Option<u64>) -> Self {
        self.spec.run.telemetry_interval_ns = interval;
        self
    }

    /// Selects how the engine resolves network delays: the compiled
    /// `FabricPlan` fast path (default) or the forced per-message draw.
    /// The differential test harness flips this to prove the two paths
    /// produce byte-identical results.
    pub fn net(mut self, mode: PlanMode) -> Self {
        self.spec.run.net = mode;
        self
    }

    /// Enables record/replay mode (trace round-trips through JSONL).
    pub fn replay(mut self, on: bool) -> Self {
        self.spec.replay = on;
        self
    }

    // -- terminals --------------------------------------------------------

    /// Validates and returns the spec.
    pub fn build(self) -> Result<ScenarioSpec, ScenarioError> {
        self.spec.validate()?;
        Ok(self.spec)
    }

    /// Shortcut for tests and examples: validates a *single-cell*
    /// scenario and returns the concrete config for one (strategy,
    /// seed) run. Empty strategy/seed sets default to the given pair,
    /// so `ScenarioBuilder::new("x").build_config(s, 1)` just works.
    pub fn build_config(
        mut self,
        strategy: Strategy,
        seed: u64,
    ) -> Result<ExperimentConfig, ScenarioError> {
        if self.spec.strategies.is_empty() {
            self.spec.strategies = vec![strategy.clone()];
        }
        if self.spec.seeds.is_empty() {
            self.spec.seeds = vec![seed];
        }
        self.spec.config_for(strategy, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brb_core::config::SelectorKind;

    #[test]
    fn builder_composes_a_sweep_spec() {
        let spec = ScenarioBuilder::new("composite")
            .describe("sweep demo")
            .tasks(5_000)
            .scale_catalog(true)
            .load(0.6)
            .strategy(Strategy::c3())
            .strategy(Strategy::equal_max_credits())
            .seeds(&[1, 2])
            .degrade_server(0, 0.5)
            .sweep_load(&[0.5, 0.7, 0.9])
            .build()
            .unwrap();
        assert_eq!(spec.sweep.num_cells(), 3);
        let cells = spec.lower().unwrap();
        assert_eq!(cells.len(), 3);
        assert_eq!(cells[2].base.workload.load, 0.9);
        assert_eq!(cells[2].base.cluster.speed_of(0), 0.5);
    }

    #[test]
    fn build_config_defaults_strategy_and_seed() {
        let cfg = ScenarioBuilder::new("quick")
            .tasks(1_000)
            .scale_catalog(true)
            .build_config(Strategy::equal_max_model(), 7)
            .unwrap();
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.strategy.name(), "EqualMax - Model");
        assert_eq!(cfg.workload.num_tasks, 1_000);
    }

    #[test]
    fn impossible_combinations_are_typed_errors_not_panics() {
        // Replication larger than the cluster.
        let err = ScenarioBuilder::new("r")
            .servers(3)
            .replication(5)
            .build_config(Strategy::c3(), 1)
            .unwrap_err();
        assert_eq!(
            err,
            ScenarioError::Replication {
                replication: 5,
                num_servers: 3
            }
        );

        // Zero partitions.
        let err = ScenarioBuilder::new("p")
            .partitions(0)
            .build_config(Strategy::c3(), 1)
            .unwrap_err();
        assert_eq!(err, ScenarioError::NoPartitions);

        // Absurd load.
        let err = ScenarioBuilder::new("l")
            .load(2.0)
            .build_config(Strategy::c3(), 1)
            .unwrap_err();
        assert_eq!(err, ScenarioError::Load(2.0));

        // Degrading a server the cluster does not have.
        let err = ScenarioBuilder::new("d")
            .servers(4)
            .replication(2)
            .partitions(4)
            .degrade_server(4, 0.5)
            .build_config(Strategy::c3(), 1)
            .unwrap_err();
        assert_eq!(
            err,
            ScenarioError::ServerIndexOutOfRange {
                server: 4,
                num_servers: 4
            }
        );

        // Spike over a jittery base model.
        let err = ScenarioBuilder::new("s")
            .latency(LatencyModel::LogNormal {
                median_ns: 50_000,
                sigma: 0.2,
            })
            .spike(0.01, 1_000, 2_000)
            .build_config(Strategy::c3(), 1)
            .unwrap_err();
        assert_eq!(err, ScenarioError::SpikeNeedsConstantBase);

        // A zero-capacity queue.
        let err = ScenarioBuilder::new("q")
            .bounded_queue(QueueSpec {
                capacity: 0,
                shed_above: None,
                codel_target_us: None,
                codel_interval_us: None,
                priority_stats: false,
            })
            .build_config(Strategy::c3(), 1)
            .unwrap_err();
        assert!(matches!(err, ScenarioError::BadQueueSpec(_)), "{err:?}");

        // Retries above the engine's cap.
        let err = ScenarioBuilder::new("t")
            .timeouts(TimeoutSpec {
                timeout_us: 10_000,
                max_retries: 99,
                backoff_base_us: 0,
                backoff_cap_us: 0,
                retry_budget_percent: None,
            })
            .build_config(Strategy::c3(), 1)
            .unwrap_err();
        assert!(matches!(err, ScenarioError::BadTimeoutSpec(_)), "{err:?}");
    }

    #[test]
    fn overload_setters_lower_into_the_config() {
        let cfg = ScenarioBuilder::new("overload")
            .tasks(1_000)
            .scale_catalog(true)
            .bounded_queue(QueueSpec {
                capacity: 64,
                shed_above: Some(32),
                codel_target_us: Some(5_000),
                codel_interval_us: Some(100_000),
                priority_stats: false,
            })
            .timeouts(TimeoutSpec {
                timeout_us: 20_000,
                max_retries: 3,
                backoff_base_us: 500,
                backoff_cap_us: 4_000,
                retry_budget_percent: Some(10),
            })
            .build_config(Strategy::c3(), 1)
            .unwrap();
        assert!(!cfg.overload.is_off());
        assert_eq!(cfg.overload.queue.unwrap().capacity, 64);
        assert_eq!(cfg.overload.timeout.unwrap().timeout_us, 20_000);
    }

    #[test]
    fn hedge_axis_applies_to_hedged_strategies() {
        let spec = ScenarioBuilder::new("hedge")
            .tasks(1_000)
            .scale_catalog(true)
            .strategy(Strategy::Direct {
                selector: SelectorKind::LeastOutstanding,
                policy: brb_sched::PolicyKind::Fifo,
                priority_queues: false,
            })
            .strategy(Strategy::hedged_default())
            .seed(1)
            .sweep_hedge_delay_us(&[500, 9_000])
            .build()
            .unwrap();
        let cells = spec.lower().unwrap();
        assert_eq!(cells.len(), 2);
        match &cells[0].strategies[1] {
            Strategy::Hedged { delay_us, .. } => assert_eq!(*delay_us, 500),
            other => panic!("unexpected {other:?}"),
        }
        // The non-hedged strategy is untouched.
        assert!(matches!(cells[0].strategies[0], Strategy::Direct { .. }));
    }
}
