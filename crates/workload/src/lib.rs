//! # brb-workload — workload generation substrate
//!
//! The paper drives its simulation with a production workload gathered at
//! SoundCloud: ~500,000 tasks with a mean fan-out of 8.6 requests/task,
//! value sizes drawn from the Pareto fit of Facebook's Memcached (ETC)
//! study [Atikoglu et al., SIGMETRICS'12], and Poisson task arrivals at
//! 70% of system capacity.
//!
//! The production trace is proprietary, so this crate builds the closest
//! synthetic equivalent (the [`soundcloud`] module doc argues the
//! substitution; `crates/workload/README.md` covers the catalog layout and
//! the RNG-consumption contract traces are pinned to):
//!
//! * [`pareto::GeneralizedPareto`] — inverse-CDF sampler with the published
//!   ETC value-size parameters (θ=0, σ=214.476, k=0.348238).
//! * [`zipf::Zipf`] — exact table-based Zipf sampler for key popularity.
//! * [`poisson::PoissonProcess`] — exponential inter-arrival times.
//! * [`fanout::FanoutDist`] — fan-out distributions including a
//!   SoundCloud-calibrated empirical mixture with mean ≈ 8.6 and a heavy
//!   tail.
//! * [`keyspace::KeySpace`] — key universe with pluggable popularity.
//! * [`taskgen::TaskGenerator`] — streams [`TaskSpec`]s combining all of
//!   the above.
//! * [`soundcloud`] — a playlist-structured trace builder: tasks fetch all
//!   tracks of a playlist, giving correlated keys within a task.
//! * [`trace::Trace`] — serializable trace container with summary
//!   statistics, so experiments can be replayed byte-identically.

pub mod fanout;
pub mod keyspace;
pub mod pareto;
pub mod poisson;
pub mod soundcloud;
pub mod taskgen;
pub mod trace;
pub mod zipf;

pub use fanout::FanoutDist;
pub use keyspace::KeySpace;
pub use pareto::GeneralizedPareto;
pub use poisson::PoissonProcess;
pub use taskgen::{RequestSpec, TaskGenerator, TaskSpec, MAX_TASK_REQUESTS, MAX_VALUE_BYTES};
pub use trace::{Trace, TraceStats};
pub use zipf::Zipf;

/// Computes the task arrival rate (tasks/second) that loads a system to a
/// fraction `load` of its aggregate request service capacity.
///
/// The paper: "task inter-arrival times [are generated] using a Poisson
/// process where the mean rate is set to match 70% of system capacity".
/// With capacity `C` requests/s and mean fan-out `f̄`, the task rate is
/// `load × C / f̄`.
///
/// # Panics
/// Panics if `mean_fanout` is not positive.
pub fn task_rate_for_load(load: f64, capacity_rps: f64, mean_fanout: f64) -> f64 {
    assert!(mean_fanout > 0.0, "mean fan-out must be positive");
    load * capacity_rps / mean_fanout
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_task_rate() {
        // 9 servers × 4 cores × 3500 req/s = 126,000 req/s capacity.
        // At 70% load with fan-out 8.6 → ~10,256 tasks/s.
        let rate = task_rate_for_load(0.7, 126_000.0, 8.6);
        assert!((rate - 10_255.81).abs() < 0.01, "{rate}");
    }

    #[test]
    #[should_panic(expected = "mean fan-out must be positive")]
    fn zero_fanout_rejected() {
        task_rate_for_load(0.7, 1000.0, 0.0);
    }
}
