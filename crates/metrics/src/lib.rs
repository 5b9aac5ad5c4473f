//! # brb-metrics — measurement substrate
//!
//! Latency measurement for the BRB reproduction. The paper reports task
//! read latencies at the median, 95th and 99th percentiles averaged over
//! six seeded runs; this crate provides the machinery to do that honestly:
//!
//! * [`histogram::Histogram`] — an HDR-style log-linear histogram with
//!   configurable significant digits, built from scratch (no external
//!   histogram crate). Records `u64` values (we use nanoseconds) with
//!   bounded relative error, supports merging and quantile queries.
//! * [`summary::SeedSummary`] — aggregates a statistic across seeds into
//!   mean ± stddev (the paper: "experiments are repeated 6 times with
//!   different random seeds ... standard deviation is largely negligible").
//! * [`percentile`] — exact percentiles on sorted samples, used to
//!   cross-validate the histogram in tests.
//! * [`stats`] — significance statistics for paired A/B comparison:
//!   Welch's t, deterministic paired-bootstrap CIs, order-statistic
//!   quantile CIs, and Kendall tau for cross-backend ordering checks.

pub mod histogram;
pub mod percentile;
pub mod stats;
pub mod summary;

pub use histogram::Histogram;
pub use percentile::{exact_percentile, Percentiles};
pub use stats::{
    benjamini_hochberg, kendall_tau, paired_bootstrap_ci, quantile_ci, welch_t, BootstrapCi, WelchT,
};
pub use summary::SeedSummary;
