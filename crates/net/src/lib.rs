//! # brb-net — simulated network substrate
//!
//! The paper sets a one-way network latency of 50 µs between application
//! servers and the data store. This crate models message delay for the
//! discrete-event engine:
//!
//! * [`latency::LatencyModel`] — per-message one-way delay distributions
//!   (constant, uniform, log-normal jitter, empirical mixtures).
//! * [`fabric::Fabric`] — a full-mesh fabric whose every link follows
//!   one latency model.
//! * [`plan::FabricPlan`] — the fabric compiled into one hop resolution:
//!   a constant mesh resolves a hop with one precomputed add, a jittered
//!   mesh falls back to the per-message model draw through the same
//!   interface (see `README.md` for when each path is taken).
//!
//! The fabric computes *delays*; actually scheduling delivery events is
//! the engine's job (`brb-core`), keeping this crate independent of the
//! event alphabet.

pub mod fabric;
pub mod latency;
pub mod plan;

pub use fabric::{Fabric, NetNodeId};
pub use latency::LatencyModel;
pub use plan::{FabricPlan, PlanMode};
