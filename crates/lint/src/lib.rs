//! `brb-lint` — the workspace's custom static-analysis pass.
//!
//! Three rule families scoped per lane (see [`rules::LANE_TABLE`]), and
//! one crate-scoped ratchet:
//!
//! * **D-rules** — bit-exact determinism for the sim-side crates: no
//!   wall-clock reads, no `HashMap`/`HashSet` in non-test code, no
//!   ambient entropy, no `as usize` truncation of event times.
//! * **S-rules** — schema stability for the report writers: no hash
//!   collections in emitters, and every declared schema tag
//!   (`brb-lab/report-v1`-style literal) must be pinned by a test.
//! * **R-rules** — lock/channel discipline for the live runtime: no
//!   lock acquisition inside a `send`/`recv` call expression, no
//!   `unwrap()` on channel results outside tests, and no `std::sync`
//!   locks (the debug lock-order detector in `compat/parking_lot` only
//!   sees parking_lot locks).
//! * **U001** — a ratchet on `.unwrap()` outside test code in `brb-lab`
//!   and `brb-rt`: each crate's count may not rise above its committed
//!   ceiling ([`rules::UNWRAP_CEILINGS`]), and the ceiling only goes down.
//!
//! Everything is built on a small hand-rolled lexer ([`lexer::lex`]) —
//! no `syn`, no network — that skips comments, strings and raw strings
//! so rule text can never match inside them. Suppression is explicit
//! and audited: `// brb-lint: allow(<rule>) — <reason>` on (or directly
//! above) the offending line; a directive without a reason is itself a
//! finding (`L000`).
//!
//! The binary exits nonzero on any unsuppressed finding, which is what
//! the CI "Lint (brb-lint)" step keys off.

pub mod engine;
pub mod lexer;
pub mod rules;

pub use engine::{
    collect_workspace_files, fixture_lane, lane_for_path, load_file, run, unwrap_counts, Finding,
    Report, SourceFile,
};
pub use lexer::{lex, AllowDirective, LexOutput, Token, TokenKind};
pub use rules::{
    is_schema_literal, lane_for_crate, rule, Lane, RuleInfo, LANE_TABLE, RULES, UNWRAP_CEILINGS,
};

/// Convenience for tests and embedding: lints a single source string
/// under an explicit lane (the cross-file S002 rule sees only this file).
pub fn lint_str(name: &str, lane: Lane, source: &str) -> Report {
    let file = SourceFile {
        path: std::path::PathBuf::from(name),
        lane,
        all_test: false,
        source: source.to_string(),
    };
    run(std::slice::from_ref(&file))
}
