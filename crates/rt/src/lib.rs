//! # brb-rt — a real-time threaded BRB runtime
//!
//! The simulation crates validate the algorithms; this crate is the
//! *adoptable implementation*: an in-process, multi-threaded storage
//! cluster with BRB task-aware scheduling, following the event-driven,
//! message-passing style of the networking guides (a condvar-guarded
//! [`brb_sched::ServerQueue`] per server that clients push into directly,
//! crossbeam channels for the replies, no thread between a client and
//! the queue, no polling anywhere, zero-copy reads via `bytes::Bytes`).
//!
//! Measurement discipline (see `crates/rt/README.md`):
//!
//! * service times are waited out with a hybrid sleep/spin
//!   ([`timing`]) — raw `thread::sleep` adds 50µs–1ms of OS timer slack
//!   per request, more than the differences the strategies create;
//! * the load generator ([`run_load`]) offers both a closed-loop window
//!   and an **open-loop Poisson** mode that records latency from each
//!   task's *intended* arrival, so a saturated cluster cannot hide its
//!   queueing delay (coordinated omission);
//! * replica selection is feedback-driven through `brb-select`
//!   ([`brb_select::SelectorSpec`]), consuming the `queue_len` /
//!   `service_ns` fields servers piggyback on every response.
//!
//! The **overload lane** ports the simulator's saturation story onto
//! real threads: bounded server queues with watermark shedding and a
//! CoDel controller on measured sojourn times ([`brb_sched::QueueConfig`]),
//! typed NACKs over the transport, client-side wall-clock deadline
//! timers with budgeted capped-exponential retries ([`brb_sched::TimeoutConfig`]),
//! and typed task outcomes ([`TaskOutcome`]) under the conservation
//! contract `completed + dropped + timed_out + shed == issued`. The
//! cluster's threads are panic-guarded: one that dies mid-run trips a
//! sticky flag and every wait fails fast with a typed [`RtError`]
//! instead of hanging the harness; so does a submit to a cluster that
//! has stopped.
//!
//! The **credits and duplication lanes** close the last strategy gaps
//! with the simulator: a controller thread ([`RtCreditsConfig`]) runs
//! `brb-sched`'s demand-driven credit allocation over real demand
//! reports and congestion signals, clients enforce the published grants
//! through per-client token buckets; the model realization's single
//! cross-server queue runs live as a work-pull global queue
//! ([`RtQueueMode::Global`]); and hedged requests
//! ([`RtClusterConfig::hedge_delay_ns`]) duplicate stragglers with
//! first-response-wins and duplicate-aware cancellation
//! ([`RtCancel`]).
//!
//! ```
//! use brb_rt::{RtClusterConfig, RtCluster, WorkModel};
//! use brb_sched::PolicyKind;
//!
//! let cluster = RtCluster::start(RtClusterConfig {
//!     num_servers: 3,
//!     workers_per_server: 2,
//!     replication: 2,
//!     policy: PolicyKind::UnifIncr,
//!     work: WorkModel::Instant,
//!     ..Default::default()
//! });
//! cluster.populate(1_000, |k| (k % 64) + 1);
//! let client = cluster.client();
//! let resp = client.fetch(&[1, 2, 3]);
//! assert_eq!(resp.values.len(), 3);
//! cluster.shutdown();
//! ```

pub mod client;
pub mod credits;
pub mod error;
pub mod loadgen;
pub mod server;
pub mod timing;
pub mod transport;

pub use client::{RtClient, TaskFailure, TaskOutcome, TaskResolution, TaskResponse, TaskTicket};
pub use credits::RtCreditsConfig;
pub use error::RtError;
pub use loadgen::{run_load, try_run_load, LoadGenConfig, LoadMode, LoadReport};
pub use server::{RtCluster, RtClusterConfig, RtQueueMode, SpikeModel, WorkModel};
pub use transport::{RtCancel, RtNack, RtReply, RtRequest, RtResponse};
