//! Typed scenario-construction errors.
//!
//! The builder and the spec-lowering path reject impossible
//! configurations *before* anything runs, with errors that carry the
//! offending numbers — the imperative `ExperimentConfig` mutation style
//! they replace surfaced the same mistakes as panics deep inside the
//! engine (or not at all).

use crate::spec::MAX_OFFERED_LOAD;
use brb_core::experiment::GridError;
use std::fmt;

/// Everything that can be wrong with a scenario description.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The requested registry preset does not exist.
    UnknownPreset {
        /// The name that failed to resolve.
        name: String,
        /// Every name the registry knows.
        available: Vec<&'static str>,
    },
    /// Scenarios must be named (reports echo the name).
    MissingName,
    /// A scenario needs at least one strategy.
    EmptyStrategySet,
    /// A scenario needs at least one seed.
    EmptySeeds,
    /// The same seed appears twice (cells would be duplicated).
    DuplicateSeed(u64),
    /// Replication factor incompatible with the cluster size.
    Replication {
        /// Requested replication factor.
        replication: u32,
        /// Servers available.
        num_servers: u32,
    },
    /// The partition ring cannot be empty.
    NoPartitions,
    /// Offered load outside the sane `(0, MAX_OFFERED_LOAD)` band.
    Load(f64),
    /// Offered load is infeasible once degraded-server capacity is
    /// accounted for: `load / effective_capacity_fraction` leaves the
    /// sane band even though the nominal load looks fine.
    LoadInfeasible {
        /// Offered load against nominal capacity.
        load: f64,
        /// The load the *degraded* cluster actually experiences.
        effective_load: f64,
    },
    /// A fault references a server the cluster does not have.
    ServerIndexOutOfRange {
        /// The referenced server index.
        server: u32,
        /// Servers available.
        num_servers: u32,
    },
    /// A speed factor must be positive and finite.
    BadSpeedFactor {
        /// The server it was assigned to.
        server: u32,
        /// The rejected factor.
        speed: f64,
    },
    /// More speed factors than servers.
    SpeedFactorCount {
        /// Factors supplied.
        given: usize,
        /// Servers available.
        num_servers: u32,
    },
    /// The same server is degraded twice.
    DuplicateDegradedServer(u32),
    /// Spike probability outside `[0, 1]`.
    BadSpikeProbability(f64),
    /// Spike delay range inverted.
    SpikeRangeInverted {
        /// Lower bound, microseconds.
        lo_us: u64,
        /// Upper bound, microseconds.
        hi_us: u64,
    },
    /// The transient-spike fault layers onto a constant-latency fabric;
    /// the base model already carries jitter.
    SpikeNeedsConstantBase,
    /// Warm-up fraction outside `[0, 0.9)`.
    Warmup(f64),
    /// A sweep axis contains an out-of-domain value.
    AxisValue {
        /// Which axis.
        axis: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A sweep axis lists the same value twice.
    DuplicateAxisValue {
        /// Which axis.
        axis: &'static str,
        /// The duplicated value.
        value: f64,
    },
    /// A `hedge_delay_us` axis needs at least one `Hedged` strategy to
    /// apply to.
    HedgeAxisWithoutHedgedStrategy,
    /// A `shed_above` axis needs the `queue` table to override — without
    /// bounded queues there is no admission control to sweep.
    ShedAxisWithoutQueue,
    /// The overload lane's bounded-queue spec is structurally invalid
    /// (carries the core validation message, e.g. a shed watermark
    /// above capacity).
    BadQueueSpec(String),
    /// CoDel wants `codel_target_us` and `codel_interval_us` together;
    /// one alone is ambiguous (there is no universal default for the
    /// other).
    CoDelKnobsIncomplete,
    /// The overload lane's timeout/retry spec is structurally invalid
    /// (carries the core validation message, e.g. a backoff cap below
    /// the base).
    BadTimeoutSpec(String),
    /// The operation needs a single-cell scenario but the sweep grid has
    /// several cells.
    MultiCell {
        /// Cells the grid lowered to.
        cells: usize,
    },
    /// The scenario uses a feature the live `brb-rt` backend cannot
    /// honor (simulator-only machinery: hedging, oracle state, fault
    /// injection, …). Lowering fails with this typed error instead of
    /// silently running something else.
    RtUnsupported {
        /// What the live backend cannot honor.
        what: String,
    },
    /// A live `brb-rt` run failed mid-flight (a cluster thread
    /// panicked, or the cluster shut down under a waiting task). The
    /// run's numbers are unusable; the harness reports the failure typed
    /// instead of hanging or panicking through the cell loop.
    RtRunFailed {
        /// The live runtime's error rendering.
        cause: String,
    },
    /// A simulator run resolved every task yet has nothing to report —
    /// no task completed after the warm-up window, so there are no
    /// latencies to take percentiles of (an unbudgeted retry storm far
    /// past saturation does this). Names the cell, strategy and seed;
    /// the sweep stops at the first such run.
    RunFailed(GridError),
    /// A structural invariant checked by the core config layer failed
    /// (carries the core error message).
    Config(String),
    /// A spec file failed to parse.
    Parse(String),
    /// A spec file could not be read.
    Io(String),
}

impl From<GridError> for ScenarioError {
    fn from(e: GridError) -> Self {
        ScenarioError::RunFailed(e)
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use ScenarioError::*;
        match self {
            UnknownPreset { name, available } => {
                write!(
                    f,
                    "unknown preset {name:?}; available: {}",
                    available.join(", ")
                )
            }
            MissingName => write!(f, "scenario needs a non-empty name"),
            EmptyStrategySet => write!(f, "scenario needs at least one strategy"),
            EmptySeeds => write!(f, "scenario needs at least one seed"),
            DuplicateSeed(s) => write!(f, "seed {s} listed twice"),
            Replication {
                replication,
                num_servers,
            } => write!(
                f,
                "replication {replication} invalid for {num_servers} servers"
            ),
            NoPartitions => write!(f, "need at least one partition"),
            Load(l) => write!(f, "offered load {l} outside (0, {MAX_OFFERED_LOAD})"),
            LoadInfeasible {
                load,
                effective_load,
            } => write!(
                f,
                "load {load} is {effective_load:.2} of the degraded cluster's capacity — \
                 at or above the {MAX_OFFERED_LOAD} bound, infeasible"
            ),
            ServerIndexOutOfRange {
                server,
                num_servers,
            } => write!(
                f,
                "fault references server {server} but the cluster has {num_servers}"
            ),
            BadSpeedFactor { server, speed } => write!(
                f,
                "speed factor {speed} for server {server} must be positive and finite"
            ),
            SpeedFactorCount { given, num_servers } => write!(
                f,
                "{given} speed factors for a {num_servers}-server cluster"
            ),
            DuplicateDegradedServer(s) => write!(f, "server {s} degraded twice"),
            BadSpikeProbability(p) => write!(f, "spike probability {p} outside [0, 1]"),
            SpikeRangeInverted { lo_us, hi_us } => {
                write!(f, "spike range inverted: [{lo_us}, {hi_us}]us")
            }
            SpikeNeedsConstantBase => {
                write!(f, "the spike fault requires a Constant base latency model")
            }
            Warmup(w) => write!(f, "warm-up fraction {w} outside [0, 0.9)"),
            AxisValue {
                axis: "load",
                value,
            } => {
                write!(
                    f,
                    "sweep axis load: value {value} outside (0, {MAX_OFFERED_LOAD})"
                )
            }
            AxisValue { axis, value } => {
                write!(f, "sweep axis {axis}: value {value} out of domain")
            }
            DuplicateAxisValue { axis, value } => {
                write!(f, "sweep axis {axis}: value {value} listed twice")
            }
            HedgeAxisWithoutHedgedStrategy => write!(
                f,
                "hedge_delay_us sweep axis needs at least one Hedged strategy"
            ),
            ShedAxisWithoutQueue => {
                write!(f, "shed_above sweep axis needs a queue spec to override")
            }
            BadQueueSpec(msg) => write!(f, "queue spec: {msg}"),
            CoDelKnobsIncomplete => write!(
                f,
                "codel_target_us and codel_interval_us must be set together"
            ),
            BadTimeoutSpec(msg) => write!(f, "timeout spec: {msg}"),
            MultiCell { cells } => write!(
                f,
                "scenario lowers to {cells} sweep cells; a single cell is required here"
            ),
            RtUnsupported { what } => {
                write!(f, "the live rt backend cannot honor {what}")
            }
            RunFailed(e) => write!(f, "a run has no result — {e}"),
            RtRunFailed { cause } => {
                write!(f, "a live rt run failed: {cause}")
            }
            Config(msg) => write!(f, "invalid configuration: {msg}"),
            Parse(msg) => write!(f, "spec parse error: {msg}"),
            Io(msg) => write!(f, "spec I/O error: {msg}"),
        }
    }
}

impl std::error::Error for ScenarioError {}
