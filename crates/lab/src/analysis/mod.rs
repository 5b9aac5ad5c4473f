//! The experiment **analysis** subsystem: paired A/B comparison and
//! capacity-knee reports over `brb-lab/report-v1` results.
//!
//! Running scenarios was solved in PRs 1–7; *comparing* them was still
//! manual JSONL-diffing. This module tree turns a report (fresh from a
//! backend or ingested from disk) into decisions:
//!
//! * [`ingest`] — parse a `report-v1` JSONL byte-for-byte back into the
//!   `(spec, results)` pair that produced it (round-trip is
//!   test-enforced, including the additive overload and
//!   `priority_classes` blocks).
//! * [`pairing`] — per-seed paired metric vectors. Common random
//!   numbers already share each seed's workload trace across
//!   strategies, so per-seed differences are free variance reduction.
//! * [`compare`] — per-cell, per-strategy deltas vs a baseline with
//!   Welch t statistics and deterministic paired-bootstrap confidence
//!   intervals (`brb-lab/compare-v1`).
//! * [`knee`] — capacity analysis over a load sweep: each strategy's
//!   saturation knee, plus headroom under growth multipliers
//!   (`brb-lab/capacity-v1`).
//! * [`concordance`] — strategy-ordering agreement between the sim and
//!   rt backends (Kendall tau), for `compare --backend both`.
//! * [`markdown`] — the human-readable companion reports.
//!
//! Everything here is read-only over run output and deterministic: the
//! bootstrap RNG is seeded from the spec's seed list, never the clock,
//! so reruns are byte-identical.

pub mod compare;
pub mod concordance;
pub mod ingest;
pub mod knee;
pub mod markdown;
pub mod pairing;

pub use compare::{compare_report, CompareOptions, CompareReport, COMPARE_SCHEMA};
pub use concordance::{ordering_concordance, CellConcordance};
pub use ingest::{parse_jsonl, ParsedReport};
pub use knee::{capacity_report, CapacityOptions, CapacityReport, CAPACITY_SCHEMA};

use std::fmt;

/// Everything that can go wrong analyzing a report.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisError {
    /// Significance needs at least two seeds — with one, every stddev
    /// is 0 by convention and a t statistic would be garbage. The
    /// analysis refuses typed instead of emitting NaN tables.
    TooFewSeeds {
        /// Seeds the report ran with.
        seeds: usize,
    },
    /// The requested baseline matches no strategy in the report
    /// (matching is case/punctuation-insensitive: `random_fifo` finds
    /// `random+FIFO`).
    UnknownBaseline {
        /// The name that failed to resolve.
        name: String,
        /// Every strategy the report carries.
        available: Vec<String>,
    },
    /// A strategy's per-seed runs do not line up with the spec's seed
    /// list — pairing would compare different workload traces.
    SeedMismatch {
        /// The strategy whose runs misalign.
        strategy: String,
        /// The cell it happened in.
        cell: usize,
    },
    /// Capacity analysis needs a `load` sweep axis; the report has none.
    NoLoadAxis,
    /// Capacity analysis needs exactly one cell per swept load; another
    /// axis is multiplying the grid.
    CapacityGridShape {
        /// Cells the report carries.
        cells: usize,
        /// Distinct load values among them.
        loads: usize,
    },
    /// The ingested file does not carry the expected schema tag.
    SchemaMismatch {
        /// The schema tag found (or a description of what was missing).
        found: String,
    },
    /// The two backends' reports disagree structurally (cells or
    /// strategy sets), so orderings cannot be compared.
    BackendShapeMismatch {
        /// What disagreed.
        what: String,
    },
    /// An analysis option is outside the range it is defined on. Checked
    /// before any run starts, so a typo costs nothing.
    InvalidOption {
        /// The CLI flag that sets the option.
        flag: &'static str,
        /// The rejected value.
        value: String,
        /// The accepted range.
        expected: &'static str,
    },
    /// The report has a header but no records.
    EmptyReport,
    /// A report line failed to parse.
    Parse(String),
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use AnalysisError::*;
        match self {
            TooFewSeeds { seeds } => write!(
                f,
                "significance needs at least 2 seeds, report has {seeds}; \
                 rerun with --seeds a,b (or more)"
            ),
            UnknownBaseline { name, available } => write!(
                f,
                "baseline {name:?} matches no strategy; available: {}",
                available.join(", ")
            ),
            SeedMismatch { strategy, cell } => write!(
                f,
                "strategy {strategy:?} in cell {cell} has runs that do not \
                 line up with the spec's seed list"
            ),
            NoLoadAxis => write!(
                f,
                "capacity analysis needs a load sweep axis (spec `sweep.load`)"
            ),
            CapacityGridShape { cells, loads } => write!(
                f,
                "capacity analysis needs one cell per swept load, got {cells} \
                 cells over {loads} loads (drop the other sweep axes)"
            ),
            SchemaMismatch { found } => {
                write!(f, "expected a brb-lab/report-v1 file, found {found}")
            }
            BackendShapeMismatch { what } => {
                write!(f, "backends disagree structurally: {what}")
            }
            InvalidOption {
                flag,
                value,
                expected,
            } => write!(f, "bad {flag} value {value}: expected {expected}"),
            EmptyReport => write!(f, "report has no records"),
            Parse(msg) => write!(f, "report parse error: {msg}"),
        }
    }
}

impl std::error::Error for AnalysisError {}

/// Canonical form for strategy-name matching: lowercase, every
/// non-alphanumeric run collapsed to one `_`, trimmed. `random+FIFO`,
/// `random_fifo` and `Random FIFO` all normalize identically.
pub fn normalize_name(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('_') && !out.is_empty() {
            out.push('_');
        }
    }
    while out.ends_with('_') {
        out.pop();
    }
    out
}

/// FNV-1a over a byte string (the repo's standing label-hash).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// The master bootstrap seed, derived from the spec's seed list alone —
/// never the clock — so the same report always yields the same
/// confidence intervals.
pub(crate) fn seed_master(seeds: &[u64]) -> u64 {
    let mut bytes = Vec::with_capacity(seeds.len() * 8);
    for s in seeds {
        bytes.extend_from_slice(&s.to_le_bytes());
    }
    fnv1a(&bytes)
}

/// One labeled bootstrap stream off the master seed (cell × strategy ×
/// metric each get their own).
pub(crate) fn stream_seed(master: u64, label: &str) -> u64 {
    master ^ fnv1a(label.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_unifies_display_and_cli_forms() {
        assert_eq!(normalize_name("random+FIFO"), "random_fifo");
        assert_eq!(normalize_name("random_fifo"), "random_fifo");
        assert_eq!(normalize_name("EqualMax - Credits"), "equalmax_credits");
        assert_eq!(
            normalize_name("hedged(random, 5000us)"),
            "hedged_random_5000us"
        );
        assert_eq!(normalize_name("C3"), "c3");
        assert_eq!(normalize_name("__C3__"), "c3");
    }

    #[test]
    fn stream_seeds_are_stable_and_label_dependent() {
        let master = seed_master(&[1, 2]);
        assert_eq!(master, seed_master(&[1, 2]));
        assert_ne!(master, seed_master(&[2, 1]), "seed order matters");
        assert_ne!(
            stream_seed(master, "cell0/C3/goodput"),
            stream_seed(master, "cell0/C3/p99_ms")
        );
    }
}
