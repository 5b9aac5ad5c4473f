//! # brb-bench — the figure/table regeneration harness
//!
//! One module per paper artifact plus the ablation sweeps (`ROADMAP.md`
//! open item 5 folds them into `brb-lab` presets and verbs):
//!
//! * [`figure1`] — the worked scheduling example (task-oblivious vs
//!   task-aware), rendered as ASCII timelines and asserted exactly.
//! * [`figure2`] — the headline evaluation: five strategies × three
//!   percentiles, multi-seed averaged, with the paper's two quantitative
//!   claims checked programmatically.
//! * [`sweeps`] — load sweep, fan-out sweep, credit-interval sweep and the
//!   selector × policy ablation matrix.
//! * [`render`] — fixed-width table rendering shared by the binaries.
//!
//! Binaries: `figure1`, `figure2`, `sweep_load`, `sweep_fanout`,
//! `ablation` (see `cargo run --release -p brb-bench --bin ...`).

pub mod figure1;
pub mod figure2;
pub mod render;
pub mod sweeps;

pub use figure1::{run_figure1, Figure1Outcome};
pub use figure2::{check_claims, render_figure2, run_figure2, ClaimCheck, Figure2Options};
pub use render::Table;
