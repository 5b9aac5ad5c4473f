//! The rule catalog and the per-lane token checks.
//!
//! Rules are scoped per *lane* via [`lane_for_crate`]: the deterministic
//! sim-side crates get the D-rules, the report-writing crates get the
//! S-rules, and the thread-heavy live runtime gets the R-rules. A crate
//! outside every lane is still lexed (its test code can satisfy S002
//! schema-pin references) but produces no findings.

use crate::lexer::{Token, TokenKind};

/// Which rule set applies to a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Bit-exact determinism rules (D001–D004).
    Deterministic,
    /// Schema/report stability rules (S001–S002).
    Schema,
    /// Live-runtime lock/channel discipline rules (R001–R003).
    Rt,
    /// Lexed but not lane-checked (crate-scoped rules such as U001
    /// still apply).
    None,
}

/// The per-crate lane table. Crate names are the directory names under
/// `crates/`.
pub const LANE_TABLE: &[(&str, Lane)] = &[
    ("sim", Lane::Deterministic),
    ("core", Lane::Deterministic),
    ("net", Lane::Deterministic),
    ("sched", Lane::Deterministic),
    ("select", Lane::Deterministic),
    ("store", Lane::Deterministic),
    ("workload", Lane::Deterministic),
    ("lab", Lane::Schema),
    ("metrics", Lane::Schema),
    ("rt", Lane::Rt),
];

/// Lane for a crate directory name (`"sim"`, `"rt"`, ...).
pub fn lane_for_crate(name: &str) -> Lane {
    LANE_TABLE
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(Lane::None, |(_, l)| *l)
}

/// Static metadata for one rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    pub id: &'static str,
    pub lane: Lane,
    pub summary: &'static str,
    pub hint: &'static str,
}

/// The full catalog (also rendered in `crates/lint/README.md`).
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "D001",
        lane: Lane::Deterministic,
        summary: "wall-clock read (`Instant`/`SystemTime`) in a deterministic crate",
        hint: "derive all time from the simulated clock (SimTime); wall-clock reads break bit-exact replay",
    },
    RuleInfo {
        id: "D002",
        lane: Lane::Deterministic,
        summary: "`HashMap`/`HashSet` in non-test code of a deterministic crate",
        hint: "RandomState makes iteration order nondeterministic; use BTreeMap/BTreeSet or a dense slab",
    },
    RuleInfo {
        id: "D003",
        lane: Lane::Deterministic,
        summary: "ambient entropy (`thread_rng`/`from_entropy`/`OsRng`) in a deterministic crate",
        hint: "all randomness must flow from the run's seed; plumb an explicit seeded Rng",
    },
    RuleInfo {
        id: "D004",
        lane: Lane::Deterministic,
        summary: "`as usize` truncation of an event-time value",
        hint: "event times are u64 nanoseconds; truncating to usize silently wraps on 32-bit targets",
    },
    RuleInfo {
        id: "S001",
        lane: Lane::Schema,
        summary: "`HashMap`/`HashSet` in non-test code of a report-writing crate",
        hint: "hand-written serde emitters must iterate in a stable order; use BTreeMap or a Vec",
    },
    RuleInfo {
        id: "S002",
        lane: Lane::Schema,
        summary: "schema string literal with no key-order pin test referencing it",
        hint: "add a test that pins the literal and the writer's key order (see crates/lab/tests/golden.rs)",
    },
    RuleInfo {
        id: "R001",
        lane: Lane::Rt,
        summary: "lock acquired inside a `send`/`recv` call expression",
        hint: "take the guard (or copy the data out) before the channel call; locks held across channel internals invite deadlock",
    },
    RuleInfo {
        id: "R002",
        lane: Lane::Rt,
        summary: "`unwrap()` on a channel send/recv result outside tests",
        hint: "channel endpoints close during shutdown; map the error to a typed RtError instead of panicking",
    },
    RuleInfo {
        id: "R003",
        lane: Lane::Rt,
        summary: "`std::sync` lock in the live runtime",
        hint: "use parking_lot — the debug lock-order detector only instruments parking_lot locks",
    },
    RuleInfo {
        id: "U001",
        lane: Lane::None,
        summary: "more `.unwrap()` calls outside tests than the crate's committed ceiling",
        hint: "return or map the error instead; the ceiling in UNWRAP_CEILINGS (crates/lint/src/rules.rs) only goes down",
    },
];

/// U001's committed ceilings: `.unwrap()` calls outside test code per
/// crate directory. Crate-scoped rather than lane-scoped (`brb-lab` is a
/// Schema crate, `brb-rt` an Rt one), and a ratchet: a ceiling is the
/// count when it was last lowered, may only go down, and
/// `tests/engine.rs` fails until it is lowered to a smaller count. Both
/// crates keep every `.unwrap()` in test code today, so both are 0.
pub const UNWRAP_CEILINGS: &[(&str, usize)] = &[("lab", 0), ("rt", 0)];

/// Looks up a rule by ID.
pub fn rule(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// A raw (pre-suppression) finding: `(line, rule id)`.
pub type RawFinding = (u32, &'static str);

const CHANNEL_CALLS: &[&str] = &["send", "try_send", "recv", "try_recv", "recv_timeout"];
const LOCK_CALLS: &[&str] = &["lock", "read", "write", "try_lock", "try_read", "try_write"];

/// Runs every identifier-level rule for `lane` over `tokens`.
/// `in_test[i]` marks tokens inside `#[cfg(test)]`/`#[test]` items (or a
/// whole test/bench/example file); "non-test" rules skip those.
pub fn check_tokens(lane: Lane, tokens: &[Token], in_test: &[bool]) -> Vec<RawFinding> {
    let mut findings = Vec::new();
    match lane {
        Lane::Deterministic => {
            check_idents(
                tokens,
                in_test,
                &["Instant", "SystemTime"],
                "D001",
                &mut findings,
            );
            check_idents(
                tokens,
                in_test,
                &["HashMap", "HashSet"],
                "D002",
                &mut findings,
            );
            check_idents(
                tokens,
                in_test,
                &["thread_rng", "from_entropy", "OsRng"],
                "D003",
                &mut findings,
            );
            check_time_truncation(tokens, in_test, &mut findings);
        }
        Lane::Schema => {
            check_idents(
                tokens,
                in_test,
                &["HashMap", "HashSet"],
                "S001",
                &mut findings,
            );
            // S002 is a cross-file rule; the engine drives it.
        }
        Lane::Rt => {
            check_lock_in_channel_call(tokens, in_test, &mut findings);
            check_channel_unwrap(tokens, in_test, &mut findings);
            check_std_sync_locks(tokens, in_test, &mut findings);
        }
        Lane::None => {}
    }
    findings
}

/// Flags any non-test identifier in `names`.
fn check_idents(
    tokens: &[Token],
    in_test: &[bool],
    names: &[&str],
    id: &'static str,
    out: &mut Vec<RawFinding>,
) {
    for (i, t) in tokens.iter().enumerate() {
        if !in_test[i] && t.kind == TokenKind::Ident && names.contains(&t.text.as_str()) {
            out.push((t.line, id));
        }
    }
}

/// D004: `<time-ish expr> as usize`. The value being cast is approximated
/// by the nearest identifier to the left of `as`, skipping closing parens
/// (so `event.time() as usize` resolves to `time`).
fn check_time_truncation(tokens: &[Token], in_test: &[bool], out: &mut Vec<RawFinding>) {
    for i in 1..tokens.len().saturating_sub(1) {
        if in_test[i] || !tokens[i].is_ident("as") || !tokens[i + 1].is_ident("usize") {
            continue;
        }
        let mut j = i;
        while j > 0 && (tokens[j - 1].is_punct(')') || tokens[j - 1].is_punct('(')) {
            j -= 1;
        }
        if j == 0 {
            continue;
        }
        let prev = &tokens[j - 1];
        if prev.kind == TokenKind::Ident && is_time_ident(&prev.text) {
            out.push((tokens[i].line, "D004"));
        }
    }
}

fn is_time_ident(name: &str) -> bool {
    matches!(name, "now" | "time" | "deadline" | "timestamp")
        || name.ends_with("_ns")
        || name.ends_with("_us")
        || name.ends_with("_ms")
        || name.ends_with("_time")
        || name.ends_with("_nanos")
        || name.ends_with("_micros")
        || name.ends_with("_millis")
        || name.ends_with("_deadline")
}

/// R001: a `.lock()`/`.read()`/`.write()` *method call* lexically inside
/// the argument list of a `send(...)`/`recv(...)` call.
fn check_lock_in_channel_call(tokens: &[Token], in_test: &[bool], out: &mut Vec<RawFinding>) {
    let mut i = 0;
    while i + 1 < tokens.len() {
        let is_channel_call = !in_test[i]
            && tokens[i].kind == TokenKind::Ident
            && CHANNEL_CALLS.contains(&tokens[i].text.as_str())
            && tokens[i + 1].is_punct('(');
        if !is_channel_call {
            i += 1;
            continue;
        }
        let mut depth = 0usize;
        let mut j = i + 1;
        while j < tokens.len() {
            if tokens[j].is_punct('(') {
                depth += 1;
            } else if tokens[j].is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if depth >= 1
                && j + 1 < tokens.len()
                && tokens[j].kind == TokenKind::Ident
                && LOCK_CALLS.contains(&tokens[j].text.as_str())
                && tokens[j + 1].is_punct('(')
                && j > 0
                && tokens[j - 1].is_punct('.')
            {
                out.push((tokens[j].line, "R001"));
            }
            j += 1;
        }
        i += 1;
    }
}

/// R002: `send(...)/recv(...)` immediately followed by `.unwrap()`.
fn check_channel_unwrap(tokens: &[Token], in_test: &[bool], out: &mut Vec<RawFinding>) {
    let mut i = 0;
    while i + 1 < tokens.len() {
        let is_channel_call = !in_test[i]
            && tokens[i].kind == TokenKind::Ident
            && CHANNEL_CALLS.contains(&tokens[i].text.as_str())
            && tokens[i + 1].is_punct('(')
            // Method-call position only: `tx.send(..)`, not `fn send(..)`.
            && i > 0
            && tokens[i - 1].is_punct('.');
        if !is_channel_call {
            i += 1;
            continue;
        }
        let mut depth = 0usize;
        let mut j = i + 1;
        while j < tokens.len() {
            if tokens[j].is_punct('(') {
                depth += 1;
            } else if tokens[j].is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        if j + 2 < tokens.len() && tokens[j + 1].is_punct('.') && tokens[j + 2].is_ident("unwrap") {
            out.push((tokens[j + 2].line, "R002"));
        }
        i = j.max(i) + 1;
    }
}

/// R003: any path `std::sync::{Mutex,RwLock,Condvar}` (inline or in a
/// `use` list). Atomics, `Arc` and `mpsc` stay legal.
fn check_std_sync_locks(tokens: &[Token], in_test: &[bool], out: &mut Vec<RawFinding>) {
    const STD_LOCKS: &[&str] = &["Mutex", "RwLock", "Condvar"];
    let mut i = 0;
    while i + 6 < tokens.len() {
        let path_head = !in_test[i]
            && tokens[i].is_ident("std")
            && tokens[i + 1].is_punct(':')
            && tokens[i + 2].is_punct(':')
            && tokens[i + 3].is_ident("sync")
            && tokens[i + 4].is_punct(':')
            && tokens[i + 5].is_punct(':');
        if !path_head {
            i += 1;
            continue;
        }
        let next = &tokens[i + 6];
        if next.kind == TokenKind::Ident && STD_LOCKS.contains(&next.text.as_str()) {
            out.push((next.line, "R003"));
        } else if next.is_punct('{') {
            // `use std::sync::{Arc, Mutex, ...};`
            let mut depth = 1usize;
            let mut j = i + 7;
            while j < tokens.len() && depth > 0 {
                if tokens[j].is_punct('{') {
                    depth += 1;
                } else if tokens[j].is_punct('}') {
                    depth -= 1;
                } else if tokens[j].kind == TokenKind::Ident
                    && STD_LOCKS.contains(&tokens[j].text.as_str())
                    // Skip sub-paths like `atomic::{...}` inside the list.
                    && !tokens.get(j + 1).is_some_and(|t| t.is_punct(':'))
                {
                    out.push((tokens[j].line, "R003"));
                }
                j += 1;
            }
        }
        i += 6;
    }
}

/// U001 helper: the lines of every `.unwrap()` call outside test code.
pub fn unwrap_lines(tokens: &[Token], in_test: &[bool]) -> Vec<u32> {
    tokens
        .windows(4)
        .zip(in_test)
        .filter(|&(w, &test)| {
            !test
                && w[0].is_punct('.')
                && w[1].is_ident("unwrap")
                && w[2].is_punct('(')
                && w[3].is_punct(')')
        })
        .map(|(w, _)| w[1].line)
        .collect()
}

/// S002 helper: does a string literal look like a schema tag
/// (`brb-lab/report-v1` and friends)?
pub fn is_schema_literal(s: &str) -> bool {
    let Some((ns, name)) = s.split_once('/') else {
        return false;
    };
    if !ns.starts_with("brb") || name.is_empty() || name.contains('/') {
        return false;
    }
    // Must end in `-v<digits>`.
    let Some(vpos) = name.rfind("-v") else {
        return false;
    };
    let digits = &name[vpos + 2..];
    !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit())
}
