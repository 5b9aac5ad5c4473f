//! # brb-lab — the declarative scenario layer
//!
//! Experiments used to be ad-hoc imperative mutation of
//! `ExperimentConfig` copy-pasted across examples, tests, and benches.
//! This crate makes a scenario — cluster + workload + fault injections +
//! strategy set + seeds + sweep axes — a *value*:
//!
//! * [`ScenarioSpec`] is serde-round-trippable (TOML and JSON) and
//!   lowers to a grid of concrete `ExperimentConfig` cells
//!   ([`ScenarioSpec::lower`]).
//! * [`ScenarioBuilder`] is the fluent construction path with typed
//!   validation errors ([`ScenarioError`]) instead of downstream panics.
//! * [`registry`] names the presets (`figure2`, `figure2-small`,
//!   `degraded-node`, `transient-spike`, `playlist`, `hedging-runaway`,
//!   `trace-replay`) so they are data, not constructors.
//! * [`runner::run_spec`] drives the grid through the parallel
//!   multi-seed runner; [`rt_backend::run_spec_rt`] drives it through
//!   the live threaded runtime (`brb-rt`) instead;
//!   [`report::write_jsonl`] emits the stable JSON-lines report for
//!   either backend.
//! * The `brb-lab` binary wires it together:
//!   `brb-lab run figure2-small`, `brb-lab run my-spec.toml`,
//!   `brb-lab list`, `brb-lab show <name>`.
//! * [`analysis`] turns reports into decisions: paired A/B comparison
//!   against a baseline with significance (`brb-lab compare`), and
//!   capacity-knee reports over a load sweep (`brb-lab capacity`).
//! * [`figure1`] is the paper's worked two-task scheduling example,
//!   scheduled through the real priority policies and checked exactly.
//!
//! ```no_run
//! use brb_lab::{registry, runner, report};
//!
//! let spec = registry::builder("figure2-small").unwrap()
//!     .tasks(2_000)
//!     .build().unwrap();
//! let results = runner::run_spec(&spec).unwrap();
//! println!("{}", report::to_jsonl_string(&spec, &results));
//! ```

pub mod analysis;
pub mod builder;
pub mod error;
pub mod figure1;
pub mod registry;
pub mod report;
pub mod rt_backend;
pub mod runner;
pub mod spec;

pub use analysis::{
    capacity_report, compare_report, parse_jsonl, AnalysisError, CapacityOptions, CapacityReport,
    CompareOptions, CompareReport, CAPACITY_SCHEMA, COMPARE_SCHEMA,
};
pub use builder::ScenarioBuilder;
pub use error::ScenarioError;
pub use report::REPORT_SCHEMA;
pub use runner::CellResult;
pub use spec::{
    CellAxes, DegradedServer, FaultSpec, QueueSpec, RunSpec, ScenarioCell, ScenarioSpec,
    SpikeFault, SweepSpec, TimeoutSpec,
};
