//! Fixture round-trip: every rule has a `_good.rs` fixture that lints
//! clean and a `_bad.rs` fixture that produces at least one finding of
//! exactly that rule (and nothing else). File-local rules go through
//! `lint_source`; workspace rules go through `lint_files`, which runs
//! the full two-tier pipeline (parse → symbols → call graph).

use std::fs;
use std::path::PathBuf;

use lumen_lint::{lint_files, lint_source, Config, FileKind, FileMeta, SourceFile};

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// `no_panic_bad.rs` → `("no-panic", false)`.
fn rule_of(file_name: &str) -> (String, bool) {
    let stem = file_name.trim_end_matches(".rs");
    let (rule_snake, good) = if let Some(s) = stem.strip_suffix("_good") {
        (s, true)
    } else if let Some(s) = stem.strip_suffix("_bad") {
        (s, false)
    } else {
        panic!("fixture {file_name} must end in _good.rs or _bad.rs");
    };
    (rule_snake.replace('_', "-"), good)
}

fn meta_for(rule: &str) -> FileMeta {
    FileMeta {
        kind: FileKind::Library,
        is_crate_root: rule == "crate-root-hygiene",
    }
}

fn lint_fixture(file_name: &str) -> (String, bool, Vec<lumen_lint::Diagnostic>) {
    let (rule, good) = rule_of(file_name);
    let source = fs::read_to_string(fixture_dir().join(file_name))
        .unwrap_or_else(|e| panic!("read {file_name}: {e}"));
    let config = Config::default();
    let findings = lint_source(
        &format!("crates/fixture/src/{file_name}"),
        &source,
        meta_for(&rule),
        &config,
    );
    (rule, good, findings)
}

const RULES: &[&str] = &[
    "no-panic",
    "no-wall-clock",
    "seeded-rng-only",
    "crate-root-hygiene",
    "float-eq",
    "span-balance",
    "no-fs",
    "no-net",
];

/// Interprocedural rules: fixtures run through `lint_files`, so the
/// symbol table and call graph are live even for a one-file workspace.
const WS_RULES: &[&str] = &[
    "dead-pub",
    "error-swallowing",
    "hot-path-purity",
    "seed-substream",
    "span-early-exit",
];

fn lint_ws_fixture(file_name: &str) -> (String, bool, Vec<lumen_lint::Diagnostic>) {
    let (rule, good) = rule_of(file_name);
    let source = fs::read_to_string(fixture_dir().join(file_name))
        .unwrap_or_else(|e| panic!("read {file_name}: {e}"));
    let report = lint_files(
        vec![SourceFile {
            rel_path: format!("crates/fixture/src/{file_name}"),
            source,
        }],
        &Config::default(),
    );
    (rule, good, report.findings)
}

#[test]
fn every_rule_has_both_fixtures() {
    for rule in RULES.iter().chain(WS_RULES) {
        let snake = rule.replace('-', "_");
        for suffix in ["good", "bad"] {
            let path = fixture_dir().join(format!("{snake}_{suffix}.rs"));
            assert!(path.is_file(), "missing fixture {}", path.display());
        }
    }
}

#[test]
fn good_fixtures_lint_clean() {
    for rule in RULES {
        let file = format!("{}_good.rs", rule.replace('-', "_"));
        let (_, good, findings) = lint_fixture(&file);
        assert!(good);
        assert!(
            findings.is_empty(),
            "{file} should be clean, found: {findings:?}"
        );
    }
}

#[test]
fn bad_fixtures_trip_exactly_their_rule() {
    for rule in RULES {
        let file = format!("{}_bad.rs", rule.replace('-', "_"));
        let (expected, good, findings) = lint_fixture(&file);
        assert!(!good);
        assert!(!findings.is_empty(), "{file} should produce findings");
        for f in &findings {
            assert_eq!(
                f.rule, expected,
                "{file} tripped foreign rule {}: {f:?}",
                f.rule
            );
        }
    }
}

#[test]
fn workspace_good_fixtures_lint_clean() {
    for rule in WS_RULES {
        let file = format!("{}_good.rs", rule.replace('-', "_"));
        let (_, good, findings) = lint_ws_fixture(&file);
        assert!(good);
        assert!(
            findings.is_empty(),
            "{file} should be clean, found: {findings:?}"
        );
    }
}

#[test]
fn workspace_bad_fixtures_trip_exactly_their_rule() {
    for rule in WS_RULES {
        let file = format!("{}_bad.rs", rule.replace('-', "_"));
        let (expected, good, findings) = lint_ws_fixture(&file);
        assert!(!good);
        assert!(!findings.is_empty(), "{file} should produce findings");
        for f in &findings {
            assert_eq!(
                f.rule, expected,
                "{file} tripped foreign rule {}: {f:?}",
                f.rule
            );
        }
    }
}

#[test]
fn workspace_bad_fixtures_report_chains_and_positions() {
    // The purity diagnostic must show the discovered call chain, so the
    // conservative graph's reasoning is auditable from the finding alone.
    let (_, _, findings) = lint_ws_fixture("hot_path_purity_bad.rs");
    assert!(!findings.is_empty());
    for f in &findings {
        assert!(f.line > 0 && f.col > 0, "missing position: {f:?}");
        assert!(
            f.message.contains("detect") && f.message.contains("refine"),
            "purity finding must name the call chain: {f:?}"
        );
    }
    // So must both error-swallowing diagnostics, the one a call down too.
    let (_, _, findings) = lint_ws_fixture("error_swallowing_bad.rs");
    assert_eq!(findings.len(), 2, "{findings:?}");
    for f in &findings {
        assert!(f.line > 0 && f.col > 0, "missing position: {f:?}");
        assert!(
            f.message.contains("tick"),
            "error-swallowing finding must name the call chain: {f:?}"
        );
    }
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("`.ok()`") && f.message.contains("tick → settle")),
        "the dangling `.ok()` sits one call down: {findings:?}"
    );
}

#[test]
fn bad_fixtures_report_positions_and_hints() {
    let (_, _, findings) = lint_fixture("no_panic_bad.rs");
    for f in &findings {
        assert!(f.line > 0 && f.col > 0, "missing position: {f:?}");
        assert!(!f.snippet.is_empty(), "missing snippet: {f:?}");
        assert!(!f.hint.is_empty(), "missing hint: {f:?}");
    }
}

#[test]
fn no_stray_fixtures() {
    // Every file in the directory must belong to a shipped rule, so a
    // renamed rule cannot silently orphan its fixtures.
    for entry in fs::read_dir(fixture_dir()).expect("fixture dir") {
        let name = entry.expect("entry").file_name();
        let name = name.to_string_lossy();
        let (rule, _) = rule_of(&name);
        assert!(
            RULES.contains(&rule.as_str()) || WS_RULES.contains(&rule.as_str()),
            "fixture {name} names unknown rule {rule}"
        );
    }
}
