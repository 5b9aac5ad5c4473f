//! The analysis driver: walks files, classifies lanes, computes test
//! regions, runs the token rules, applies `allow` suppressions and the
//! cross-file rules: the schema pin (S002) and the unwrap ratchet
//! (U001).

use crate::lexer::{lex, LexOutput, Token, TokenKind};
use crate::rules::{self, is_schema_literal, Lane};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// One reported violation.
#[derive(Debug, Clone)]
pub struct Finding {
    pub path: PathBuf,
    pub line: u32,
    pub rule: String,
    pub summary: String,
    pub hint: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{} [{}] {} — {}",
            self.path.display(),
            self.line,
            self.rule,
            self.summary,
            self.hint
        )
    }
}

/// Aggregate result of a lint run.
#[derive(Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
    pub suppressed: usize,
}

/// A file queued for analysis.
#[derive(Debug)]
pub struct SourceFile {
    pub path: PathBuf,
    pub lane: Lane,
    /// Whole file counts as test code (under `tests/`, `benches/`,
    /// `examples/`, or a `build.rs`).
    pub all_test: bool,
    pub source: String,
}

/// Marks which tokens sit inside test-only items: any item annotated
/// `#[test]`, `#[cfg(test)]` (including `cfg(all(test, ...))`) or a
/// path attribute ending in `::test`. Attributes stack, and the item
/// body is skipped by brace/semicolon matching.
pub fn compute_test_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if !tokens[i].is_punct('#') {
            i += 1;
            continue;
        }
        // Gather one attribute `#[...]` (outer only; `#![...]` inner
        // attributes configure the whole file and are left alone).
        let mut j = i + 1;
        if j < tokens.len() && tokens[j].is_punct('!') {
            i = j + 1;
            continue;
        }
        if j >= tokens.len() || !tokens[j].is_punct('[') {
            i += 1;
            continue;
        }
        let attr_start = i;
        let mut depth = 0usize;
        let mut is_test_attr = false;
        let mut attr_tokens: Vec<&Token> = Vec::new();
        while j < tokens.len() {
            if tokens[j].is_punct('[') {
                depth += 1;
            } else if tokens[j].is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else {
                attr_tokens.push(&tokens[j]);
            }
            j += 1;
        }
        if attr_matches_test(&attr_tokens) {
            is_test_attr = true;
        }
        let attr_end = j; // index of closing ']'
        if !is_test_attr {
            i = attr_end + 1;
            continue;
        }
        // Skip any further attributes stacked on the same item, then the
        // item itself (to `;` or the end of its brace block).
        let mut k = attr_end + 1;
        while k + 1 < tokens.len() && tokens[k].is_punct('#') && tokens[k + 1].is_punct('[') {
            let mut d = 0usize;
            let mut m = k + 1;
            while m < tokens.len() {
                if tokens[m].is_punct('[') {
                    d += 1;
                } else if tokens[m].is_punct(']') {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                m += 1;
            }
            k = m + 1;
        }
        let mut d_paren = 0i32;
        let mut d_brace = 0i32;
        let mut end = tokens.len();
        let mut m = k;
        while m < tokens.len() {
            let t = &tokens[m];
            if t.is_punct('(') || t.is_punct('[') {
                d_paren += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                d_paren -= 1;
            } else if t.is_punct('{') {
                d_brace += 1;
            } else if t.is_punct('}') {
                d_brace -= 1;
                if d_brace == 0 && d_paren == 0 {
                    end = m + 1;
                    break;
                }
            } else if t.is_punct(';') && d_brace == 0 && d_paren == 0 {
                end = m + 1;
                break;
            }
            m += 1;
        }
        for slot in mask.iter_mut().take(end).skip(attr_start) {
            *slot = true;
        }
        i = end;
    }
    mask
}

/// Does a parsed attribute token list mean "test code"?
/// Matches `test`, `foo::test`, and `cfg(... test ...)`.
fn attr_matches_test(attr: &[&Token]) -> bool {
    if attr.is_empty() {
        return false;
    }
    // Bare `#[test]` or `#[tokio::test]` (path ending in `test`).
    let idents: Vec<&str> = attr
        .iter()
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.as_str())
        .collect();
    if attr.last().is_some_and(|t| t.is_ident("test")) && !idents.contains(&"cfg") {
        return true;
    }
    // `#[cfg(test)]` / `#[cfg(all(test, feature = "x"))]`.
    idents.first() == Some(&"cfg") && idents.contains(&"test")
}

/// Lints one already-lexed file; S002 is handled by the caller because it
/// needs cross-file knowledge.
fn check_file(file: &SourceFile, lexed: &LexOutput) -> (Vec<Finding>, usize) {
    let in_test = test_mask(file, lexed);
    let mut raw = rules::check_tokens(file.lane, &lexed.tokens, &in_test);
    raw.sort_by_key(|&(line, id)| (line, id));

    let mut findings = Vec::new();
    let mut suppressed = 0usize;
    for (line, id) in raw {
        if is_allowed(lexed, line, id) {
            suppressed += 1;
            continue;
        }
        findings.push(make_finding(&file.path, line, id));
    }
    // Malformed directives are findings too: a suppression that doesn't
    // parse must not silently suppress nothing.
    for (line, what) in &lexed.bad_directives {
        findings.push(Finding {
            path: file.path.clone(),
            line: *line,
            rule: "L000".to_string(),
            summary: format!("malformed brb-lint directive: {what}"),
            hint: "syntax: // brb-lint: allow(<rule>) — <reason>".to_string(),
        });
    }
    (findings, suppressed)
}

/// Which tokens of `file` are test code: all of them in a test file.
fn test_mask(file: &SourceFile, lexed: &LexOutput) -> Vec<bool> {
    if file.all_test {
        vec![true; lexed.tokens.len()]
    } else {
        compute_test_mask(&lexed.tokens)
    }
}

/// The U001 scope of a file and its ceiling: a `u001_*` fixture counts
/// against zero, a crate listed in [`rules::UNWRAP_CEILINGS`] against its
/// entry, anything else is not counted.
fn unwrap_scope(path: &Path) -> Option<(&'static str, usize)> {
    let name = path.file_name().and_then(|n| n.to_str())?;
    if name.starts_with("u001_") {
        return Some(("the u001 fixture", 0));
    }
    let krate = crate_dir(path)?;
    rules::UNWRAP_CEILINGS
        .iter()
        .find(|(n, _)| *n == krate)
        .copied()
}

/// U001's `.unwrap()` sites outside tests, per scope, in file order.
type UnwrapSites = BTreeMap<(&'static str, usize), Vec<(usize, u32)>>;

fn unwrap_sites(files: &[SourceFile], lexed: &[LexOutput]) -> UnwrapSites {
    let mut sites = UnwrapSites::new();
    for (fi, (file, lx)) in files.iter().zip(lexed).enumerate() {
        let Some(scope) = unwrap_scope(&file.path) else {
            continue;
        };
        let lines = rules::unwrap_lines(&lx.tokens, &test_mask(file, lx));
        sites
            .entry(scope)
            .or_default()
            .extend(lines.into_iter().map(|line| (fi, line)));
    }
    sites
}

/// `.unwrap()` calls outside test code per [`rules::UNWRAP_CEILINGS`]
/// crate (and the U001 fixture) over `files` — what U001 compares to
/// the ceilings.
pub fn unwrap_counts(files: &[SourceFile]) -> BTreeMap<&'static str, usize> {
    let lexed: Vec<LexOutput> = files.iter().map(|f| lex(&f.source)).collect();
    unwrap_sites(files, &lexed)
        .into_iter()
        .map(|((scope, _), sites)| (scope, sites.len()))
        .collect()
}

/// A directive suppresses its own line and the line directly below it
/// (so it can sit above the offending statement when a trailing comment
/// would fight rustfmt).
fn is_allowed(lexed: &LexOutput, line: u32, rule: &str) -> bool {
    lexed
        .allows
        .iter()
        .any(|a| a.rule == rule && (a.line == line || a.line + 1 == line))
}

fn make_finding(path: &Path, line: u32, id: &str) -> Finding {
    let info = rules::rule(id).expect("unknown rule id");
    Finding {
        path: path.to_path_buf(),
        line,
        rule: id.to_string(),
        summary: info.summary.to_string(),
        hint: info.hint.to_string(),
    }
}

/// Runs the full pass over `files`: per-file token rules plus the
/// cross-file S002 schema-pin rule.
pub fn run(files: &[SourceFile]) -> Report {
    let mut report = Report {
        files_scanned: files.len(),
        ..Report::default()
    };

    // Pass 1: lex everything once; collect schema literals declared in
    // non-test S-lane code and every string literal seen in test code.
    let lexed: Vec<LexOutput> = files.iter().map(|f| lex(&f.source)).collect();
    // literal -> first (file index, line) declaring it outside tests.
    let mut declared: BTreeMap<String, (usize, u32)> = BTreeMap::new();
    let mut test_literals: BTreeSet<String> = BTreeSet::new();
    for (fi, (file, lx)) in files.iter().zip(&lexed).enumerate() {
        let in_test = test_mask(file, lx);
        for (ti, t) in lx.tokens.iter().enumerate() {
            if t.kind != TokenKind::Str || !is_schema_literal(&t.text) {
                continue;
            }
            if in_test[ti] {
                test_literals.insert(t.text.clone());
            } else if file.lane == Lane::Schema {
                declared.entry(t.text.clone()).or_insert((fi, t.line));
            }
        }
    }

    // Pass 2: per-file rules.
    for (file, lx) in files.iter().zip(&lexed) {
        let (mut findings, suppressed) = check_file(file, lx);
        report.findings.append(&mut findings);
        report.suppressed += suppressed;
    }

    // Pass 3: S002 — every declared schema literal needs a test reference.
    for (literal, (fi, line)) in &declared {
        if test_literals.contains(literal) {
            continue;
        }
        if is_allowed(&lexed[*fi], *line, "S002") {
            report.suppressed += 1;
            continue;
        }
        let mut f = make_finding(&files[*fi].path, *line, "S002");
        f.summary = format!("schema literal {literal:?} has no key-order pin test referencing it");
        report.findings.push(f);
    }

    // Pass 4: U001 — a scope over its unwrap ceiling is one finding, at
    // the first site past the ceiling. Not suppressible: the ceiling is
    // the allowance.
    for ((scope, ceiling), sites) in unwrap_sites(files, &lexed) {
        if sites.len() <= ceiling {
            continue;
        }
        let (fi, line) = sites[ceiling];
        let mut f = make_finding(&files[fi].path, line, "U001");
        f.summary = format!(
            "{} `.unwrap()` calls outside tests in {scope}, above its ceiling of {ceiling}",
            sites.len()
        );
        report.findings.push(f);
    }

    report
        .findings
        .sort_by(|a, b| (&a.path, a.line, &a.rule).cmp(&(&b.path, b.line, &b.rule)));
    report
}

/// Classifies a path into a lane.
///
/// Fixture convention first: a file whose name starts with `d`/`s`/`r`/`u`
/// followed by three digits and `_` (e.g. `d002_hashmap.rs`) gets the
/// lane of its rule prefix — this lets the fixture corpus exercise every
/// lane without living inside the real crates. Otherwise the crate
/// directory under `crates/` decides via the lane table.
pub fn lane_for_path(path: &Path) -> Lane {
    if let Some(lane) = fixture_lane(path) {
        return lane;
    }
    crate_dir(path).map_or(Lane::None, rules::lane_for_crate)
}

/// The crate directory a path lies in: the component after `crates`.
fn crate_dir(path: &Path) -> Option<&str> {
    let comps: Vec<&str> = path.iter().filter_map(|c| c.to_str()).collect();
    comps.windows(2).find(|w| w[0] == "crates").map(|w| w[1])
}

/// The fixture-corpus lane, if the filename follows the
/// `<rule-prefix><nnn>_*.rs` convention.
pub fn fixture_lane(path: &Path) -> Option<Lane> {
    let name = path.file_name().and_then(|n| n.to_str())?;
    let b = name.as_bytes();
    if b.len() > 5 && b[1..4].iter().all(|c| c.is_ascii_digit()) && b[4] == b'_' {
        match b[0] {
            b'd' => return Some(Lane::Deterministic),
            b's' => return Some(Lane::Schema),
            b'r' => return Some(Lane::Rt),
            // The crate-scoped unwrap ratchet: no lane rules.
            b'u' => return Some(Lane::None),
            _ => {}
        }
    }
    None
}

/// Is every rule in this file's lane scoped away because the whole file
/// is test/dev code?
pub fn is_all_test_path(path: &Path) -> bool {
    let comps: Vec<&str> = path.iter().filter_map(|c| c.to_str()).collect();
    comps
        .iter()
        .any(|c| *c == "tests" || *c == "benches" || *c == "examples")
        || path.file_name().is_some_and(|n| n == "build.rs")
}

/// Loads a file into a [`SourceFile`], classifying its lane and test-ness.
/// Fixture-named files are never "all test" even though the corpus lives
/// under `tests/fixtures/` — they exist to trip the non-test rules.
pub fn load_file(path: &Path) -> std::io::Result<SourceFile> {
    let source = std::fs::read_to_string(path)?;
    let is_fixture = fixture_lane(path).is_some();
    Ok(SourceFile {
        lane: lane_for_path(path),
        all_test: !is_fixture && is_all_test_path(path),
        path: path.to_path_buf(),
        source,
    })
}

/// Recursively collects `.rs` files under `root`, skipping `target/` and
/// the lint crate's own deliberately-bad fixture corpus.
pub fn collect_workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<_> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .collect();
        entries.sort();
        for path in entries {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                if name == "target" || name == ".git" || name == "fixtures" {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}
