//! Lint-engine coverage: the fixture corpus (one finding per rule), the
//! lexer's comment/string opacity, the allow-comment suppression
//! round-trip, and the test-region mask.

use brb_lint::{
    collect_workspace_files, lex, lint_str, load_file, run, unwrap_counts, Lane, TokenKind, RULES,
    UNWRAP_CEILINGS,
};
use std::path::Path;

fn fixtures_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Every fixture file `x<nnn>_*.rs` must produce exactly ONE finding, of
/// exactly the rule its filename names, and the corpus covers every rule
/// in the catalog.
#[test]
fn fixture_corpus_one_finding_per_rule() {
    let mut entries: Vec<_> = std::fs::read_dir(fixtures_dir())
        .expect("fixture dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "fixture corpus is empty");

    let mut covered: Vec<String> = Vec::new();
    for path in &entries {
        let name = path.file_name().unwrap().to_str().unwrap();
        let expected_rule = name[..4].to_ascii_uppercase();
        let file = load_file(path).expect("fixture readable");
        let report = run(std::slice::from_ref(&file));
        assert_eq!(
            report.findings.len(),
            1,
            "{name}: expected exactly one finding, got {:#?}",
            report.findings
        );
        assert_eq!(
            report.findings[0].rule, expected_rule,
            "{name}: wrong rule: {:#?}",
            report.findings[0]
        );
        covered.push(expected_rule);
    }
    for rule in RULES {
        assert!(
            covered.iter().any(|c| c == rule.id),
            "no fixture covers rule {}",
            rule.id
        );
    }
}

/// The whole corpus through the multi-file entry point: still one finding
/// per fixture (no cross-file interference), so the CLI exits nonzero on
/// it with exactly `RULES.len()` findings.
#[test]
fn fixture_corpus_as_a_set() {
    let mut paths: Vec<_> = std::fs::read_dir(fixtures_dir())
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    paths.sort();
    let files: Vec<_> = paths.iter().map(|p| load_file(p).unwrap()).collect();
    let report = run(&files);
    assert_eq!(report.findings.len(), RULES.len());
    assert_eq!(report.files_scanned, RULES.len());
}

/// Rule words inside comments, doc comments, strings, raw strings and
/// char literals must never trigger.
#[test]
fn lexer_comments_and_strings_are_opaque() {
    let src = r####"
//! HashMap in a module doc — not code.
// HashMap Instant thread_rng SystemTime — line comment.
/* HashMap /* nested Instant */ still a comment */
/// `HashSet` in a doc comment.
pub fn f() -> &'static str {
    let _not_a_lifetime: char = 'H';
    let _s = "HashMap::new() Instant SystemTime thread_rng";
    let _r = r#"HashSet "quoted" Instant"#;
    let _b = b"thread_rng";
    "from_entropy OsRng"
}
"####;
    let report = lint_str("opaque.rs", Lane::Deterministic, src);
    assert!(
        report.findings.is_empty(),
        "comment/string contents triggered rules: {:#?}",
        report.findings
    );

    // Control: the same identifiers in code position DO trigger.
    let live = "pub fn f() { let _m = HashMap::new(); }";
    let report = lint_str("live.rs", Lane::Deterministic, live);
    assert_eq!(report.findings.len(), 1);
    assert_eq!(report.findings[0].rule, "D002");
}

/// Token-level sanity: raw strings with hashes, lifetimes vs chars,
/// numbers with suffixes and ranges.
#[test]
fn lexer_token_shapes() {
    let out = lex(
        r####"fn f<'a>(x: &'a str) { let _ = 'c'; let _ = 0..10; let _ = 1.5e-3f64; let s = r#"raw"#; }"####,
    );
    let kinds: Vec<_> = out.tokens.iter().map(|t| &t.kind).collect();
    assert!(kinds.contains(&&TokenKind::Lifetime));
    assert!(kinds.contains(&&TokenKind::Char));
    assert!(out
        .tokens
        .iter()
        .any(|t| t.kind == TokenKind::Str && t.text == "raw"));
    // `0..10` must lex as Num, Punct('.'), Punct('.'), Num — not `0.` `.10`.
    let nums: Vec<_> = out
        .tokens
        .iter()
        .filter(|t| t.kind == TokenKind::Num)
        .map(|t| t.text.as_str())
        .collect();
    assert!(nums.contains(&"0") && nums.contains(&"10") && nums.contains(&"1.5e-3f64"));
}

/// Allow-comment round trip: a suppressed finding disappears (counted as
/// suppressed), the same code without the directive reappears, and a
/// directive missing its reason is itself a finding.
#[test]
fn allow_suppression_round_trip() {
    let bad = "pub fn f() { let _m = HashMap::new(); }\n";
    let report = lint_str("bad.rs", Lane::Deterministic, bad);
    assert_eq!(report.findings.len(), 1);
    assert_eq!(report.suppressed, 0);

    // Same line.
    let same_line =
        "pub fn f() { let _m = HashMap::new(); } // brb-lint: allow(D002) — fixture: safe\n";
    let report = lint_str("ok.rs", Lane::Deterministic, same_line);
    assert!(report.findings.is_empty(), "{:#?}", report.findings);
    assert_eq!(report.suppressed, 1);

    // Line above.
    let above =
        "// brb-lint: allow(D002) — fixture: safe\npub fn f() { let _m = HashMap::new(); }\n";
    let report = lint_str("ok2.rs", Lane::Deterministic, above);
    assert!(report.findings.is_empty());
    assert_eq!(report.suppressed, 1);

    // Two lines above: out of range, the finding survives.
    let too_far =
        "// brb-lint: allow(D002) — fixture: safe\n\npub fn f() { let _m = HashMap::new(); }\n";
    let report = lint_str("far.rs", Lane::Deterministic, too_far);
    assert_eq!(report.findings.len(), 1);

    // Wrong rule: doesn't suppress.
    let wrong = "pub fn f() { let _m = HashMap::new(); } // brb-lint: allow(D001) — wrong rule\n";
    let report = lint_str("wrong.rs", Lane::Deterministic, wrong);
    assert_eq!(report.findings.len(), 1);
    assert_eq!(report.findings[0].rule, "D002");

    // No reason: the directive itself becomes an L000 finding and does
    // not suppress.
    let no_reason = "pub fn f() { let _m = HashMap::new(); } // brb-lint: allow(D002)\n";
    let report = lint_str("noreason.rs", Lane::Deterministic, no_reason);
    let rules: Vec<_> = report.findings.iter().map(|f| f.rule.as_str()).collect();
    assert!(rules.contains(&"L000"), "{rules:?}");
    assert!(rules.contains(&"D002"), "{rules:?}");
}

/// `#[cfg(test)]` modules and `#[test]` functions are exempt from the
/// non-test rules; code after the module is covered again.
#[test]
fn test_regions_are_exempt() {
    let src = r#"
pub fn live() {}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    #[test]
    fn uses_hash() { let _m: HashMap<u64, u64> = HashMap::new(); }
}

pub fn also_live() { let _m = HashSet::new(); }
"#;
    let report = lint_str("mixed.rs", Lane::Deterministic, src);
    assert_eq!(report.findings.len(), 1, "{:#?}", report.findings);
    assert_eq!(report.findings[0].rule, "D002");
    assert_eq!(
        report.findings[0].line, 11,
        "only the HashSet after the test mod"
    );
}

/// S002 round trip: an unreferenced schema literal is flagged; adding a
/// test that mentions the same literal clears it.
#[test]
fn schema_pin_cross_file() {
    let writer = r#"pub const SCHEMA: &str = "brb-x/thing-v2";"#;
    let report = lint_str("writer.rs", Lane::Schema, writer);
    assert_eq!(report.findings.len(), 1);
    assert_eq!(report.findings[0].rule, "S002");

    let pinned = format!(
        "{writer}\n#[cfg(test)]\nmod tests {{\n    #[test]\n    fn pin() {{ assert_eq!(super::SCHEMA, \"brb-x/thing-v2\"); }}\n}}\n"
    );
    let report = lint_str("writer.rs", Lane::Schema, &pinned);
    assert!(report.findings.is_empty(), "{:#?}", report.findings);
}

/// R-rules: the channel-call scanners respect call shape.
#[test]
fn rt_rules_shape() {
    // Lock before the send: fine.
    let ok = "fn f(tx: &Sender<u64>, m: &Mutex<u64>) { let v = *m.lock(); let _ = tx.send(v); }";
    assert!(lint_str("ok.rs", Lane::Rt, ok).findings.is_empty());

    // `send` defined as a method on our own type: `self.send(x)` with no
    // unwrap is fine.
    let own = "impl C { fn send(&self, x: u64) {} } fn g(c: &C) { c.send(1); }";
    assert!(lint_str("own.rs", Lane::Rt, own).findings.is_empty());

    // recv_timeout + unwrap outside tests: flagged.
    let bad = "fn f(rx: &Receiver<u64>) -> u64 { rx.recv_timeout(d).unwrap() }";
    let report = lint_str("bad.rs", Lane::Rt, bad);
    assert_eq!(report.findings.len(), 1);
    assert_eq!(report.findings[0].rule, "R002");
}

/// U001's ceilings are today's counts: the workspace may not exceed
/// them (the lint fails), and a ceiling must come down with its count,
/// so an unwrap removed is never quietly spent again.
#[test]
fn unwrap_ceilings_match_the_workspace() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let files: Vec<_> = collect_workspace_files(&root)
        .expect("workspace walk")
        .iter()
        .map(|p| load_file(p).expect("readable source"))
        .collect();
    let counts = unwrap_counts(&files);
    for &(krate, ceiling) in UNWRAP_CEILINGS {
        let count = counts.get(krate).copied().unwrap_or(0);
        assert_eq!(
            count,
            ceiling,
            "crates/{krate}: {count} `.unwrap()` calls outside tests against a ceiling of \
             {ceiling} — {}",
            if count > ceiling {
                "map the error instead"
            } else {
                "lower the ceiling in crates/lint/src/rules.rs to the new count"
            }
        );
    }
}

/// U001 counts only `.unwrap()` calls outside tests in the crates it
/// ratchets, and reports one finding per crate over its ceiling.
#[test]
fn unwrap_ratchet_scope() {
    let src = "pub fn f(o: Option<u8>) -> u8 { o.unwrap() }\n";
    // A crate outside the ratchet: not counted.
    assert!(lint_str("crates/sim/src/x.rs", Lane::Deterministic, src)
        .findings
        .is_empty());
    let files = |path: &str, source: &str| {
        vec![brb_lint::SourceFile {
            path: path.into(),
            lane: Lane::Rt,
            all_test: false,
            source: source.to_string(),
        }]
    };
    let ceiling = UNWRAP_CEILINGS.iter().find(|(k, _)| *k == "rt").unwrap().1;
    let over = src.repeat(ceiling + 1);
    assert_eq!(
        unwrap_counts(&files("crates/rt/src/x.rs", &over))["rt"],
        ceiling + 1
    );
    let report = run(&files("crates/rt/src/x.rs", &over));
    assert_eq!(report.findings.len(), 1, "{:#?}", report.findings);
    assert_eq!(report.findings[0].rule, "U001");
    assert_eq!(report.findings[0].line, ceiling as u32 + 1);
    // At the ceiling, or in a test file, nothing.
    let at = src.repeat(ceiling);
    assert!(run(&files("crates/rt/src/x.rs", &at)).findings.is_empty());
    let mut test_file = files("crates/rt/tests/x.rs", &over);
    test_file[0].all_test = true;
    assert!(run(&test_file).findings.is_empty());
}
