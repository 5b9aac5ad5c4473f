//! # brb-core — the BRB engine
//!
//! Ties the substrates together into the system the paper evaluates:
//! 18 application servers (clients) issuing batched read tasks against
//! 9 storage servers (4 cores each, ~3 500 req/s/core) over a 50 µs
//! network, under five strategies:
//!
//! | Strategy | Replica selection | Server queues | Priorities | Realization |
//! |---|---|---|---|---|
//! | C3 | C3 scoring + rate control | FIFO | none | direct dispatch |
//! | EqualMax-Credits | credit-gated | priority | EqualMax | credits controller |
//! | EqualMax-Model | work-pulling | global priority queue | EqualMax | ideal |
//! | UnifIncr-Credits | credit-gated | priority | UnifIncr | credits controller |
//! | UnifIncr-Model | work-pulling | global priority queue | UnifIncr | ideal |
//!
//! plus ablation combinations (any selector × any policy × FIFO/priority
//! queues) through [`config::Strategy::Direct`].
//!
//! Entry points: [`experiment::run_experiment`] for a single seeded run,
//! [`experiment::run_strategies_multi_seed`] for the paper's
//! 6-seed averaged comparisons.

pub mod config;
pub mod engine;
pub mod experiment;
pub mod plan;
pub mod slab;
pub mod task;
pub mod timeline;

pub use config::{
    ClusterConfig, ExperimentConfig, OverloadConfig, QueueConfig, SelectorKind, Strategy,
    TimeoutConfig, WorkloadConfig, WorkloadKind,
};
pub use engine::EngineWorld;
pub use experiment::{
    run_experiment, run_strategies_multi_seed, OverloadStats, OverloadSummary, RunResult,
    StrategySummary,
};
pub use slab::Slab;
pub use task::{BuiltRequest, BuiltTask, TaskBuilder};
pub use timeline::{Timeline, TimelineSample};
