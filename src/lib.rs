//! # brb — BetteR Batch scheduling for cloud data stores
//!
//! Facade crate re-exporting the whole workspace. Reproduction of
//! *BRB: BetteR Batch Scheduling to Reduce Tail Latencies in Cloud Data
//! Stores* (Reda, Suresh, Canini, Braithwaite — ACM SIGCOMM 2015).
//!
//! See the `README.md` for a quickstart and the crate map, each crate's
//! own `README.md` (under `crates/`) for its design and contracts, and
//! `ROADMAP.md` for the architecture map and what is still open —
//! including a generated paper-vs-measured table, which does not exist
//! yet; `brb-lab`'s `paper_claims` test checks the paper's claims today.
//!
//! ## Crate map
//!
//! | Re-export | Crate | Contents |
//! |---|---|---|
//! | [`sim`] | `brb-sim` | deterministic discrete-event simulation kernel |
//! | [`metrics`] | `brb-metrics` | histograms, percentiles, summaries |
//! | [`workload`] | `brb-workload` | Pareto/Zipf/Poisson generators, traces |
//! | [`net`] | `brb-net` | simulated network fabric |
//! | [`store`] | `brb-store` | partitioning, service models, KV store |
//! | [`sched`] | `brb-sched` | EqualMax/UnifIncr policies, queues, credits |
//! | [`select`] | `brb-select` | replica selection incl. the C3 baseline |
//! | [`core`] | `brb-core` | the BRB engine and experiment runner |
//! | [`lab`] | `brb-lab` | declarative scenarios: specs, builder, registry, reports |
//! | [`rt`] | `brb-rt` | real-time threaded runtime |

pub use brb_core as core;
pub use brb_lab as lab;
pub use brb_metrics as metrics;
pub use brb_net as net;
pub use brb_rt as rt;
pub use brb_sched as sched;
pub use brb_select as select;
pub use brb_sim as sim;
pub use brb_store as store;
pub use brb_workload as workload;
