//! The regression that motivated the workspace tier: violations spread
//! across files — a seed label resolved through a constant defined in a
//! *different* crate, an impurity one call down from a hot entry — are
//! invisible to the old per-file token engine (`lint_source`) and must
//! be caught by the symbol-resolved full check (`lint_files`). The
//! `dead-pub` tests build mini-workspaces the same way: whether a
//! `pub fn` is dead depends on every other file.

use lumen_lint::{classify, lint_files, lint_source, Config, Diagnostic, SourceFile};

/// A substream collision hidden behind a cross-crate constant: the noise
/// crate spells its label `streams::NOISE`, the probe crate spells the
/// same value as a literal. No single file contains the collision.
fn planted_seed_reuse() -> Vec<SourceFile> {
    vec![
        SourceFile {
            rel_path: "crates/common/src/streams.rs".to_string(),
            source: "//! Stream label registry.\n\
                     /// Label for synthesis-side noise.\n\
                     pub const NOISE: u64 = 7;\n"
                .to_string(),
        },
        SourceFile {
            rel_path: "crates/synth/src/noise.rs".to_string(),
            source: "//! Synthesis noise.\n\
                     use crate::streams;\n\
                     /// Derives the noise stream.\n\
                     pub fn noise_rng(seed: u64) -> Rng {\n\
                     \x20   substream(seed, streams::NOISE)\n\
                     }\n"
            .to_string(),
        },
        SourceFile {
            rel_path: "crates/probe/src/schedule.rs".to_string(),
            source: "//! Challenge schedule.\n\
                     /// Derives the challenge stream.\n\
                     pub fn challenge_rng(seed: u64) -> Rng {\n\
                     \x20   substream(seed, 7)\n\
                     }\n"
            .to_string(),
        },
    ]
}

fn per_file_findings(files: &[SourceFile]) -> Vec<Diagnostic> {
    let config = Config::default();
    files
        .iter()
        .flat_map(|f| lint_source(&f.rel_path, &f.source, classify(&f.rel_path), &config))
        .collect()
}

#[test]
fn planted_cross_file_seed_reuse_needs_the_workspace_tier() {
    let files = planted_seed_reuse();

    // The old engine sees each file alone: every file is individually
    // blameless, so the per-file pass reports nothing at all.
    let old = per_file_findings(&files);
    assert!(
        old.is_empty(),
        "per-file engine was not supposed to see the planted collision: {old:?}"
    );

    // The workspace tier resolves `streams::NOISE` to 7 through the
    // cross-crate symbol table and reports the collision at both sites.
    let report = lint_files(files, &Config::default());
    let collisions: Vec<&Diagnostic> = report
        .findings
        .iter()
        .filter(|f| f.rule == "seed-substream")
        .collect();
    assert_eq!(
        collisions.len(),
        2,
        "expected one finding per colliding site: {:?}",
        report.findings
    );
    let paths: Vec<&str> = collisions.iter().map(|f| f.path.as_str()).collect();
    assert!(paths.contains(&"crates/synth/src/noise.rs"));
    assert!(paths.contains(&"crates/probe/src/schedule.rs"));
    for f in &collisions {
        assert!(
            f.message.contains("collides"),
            "finding must explain the collision: {f:?}"
        );
    }
}

#[test]
fn hot_path_impurity_one_call_away_needs_the_workspace_tier() {
    // The hot entry lives in one file, the wall-clock read in another;
    // the read is allow-listed for the *file-local* rule, so only the
    // reachability rule can object.
    let files = vec![
        SourceFile {
            rel_path: "crates/det/src/detector.rs".to_string(),
            source: "//! Detector.\n\
                     /// Verdict entry point.\n\
                     // lint:hot-path\n\
                     pub fn detect(x: f64) -> f64 {\n\
                     \x20   stamp(x)\n\
                     }\n"
            .to_string(),
        },
        SourceFile {
            rel_path: "crates/det/src/clock.rs".to_string(),
            source: "//! Clock helper.\n\
                     /// Stamps a value.\n\
                     pub fn stamp(x: f64) -> f64 {\n\
                     \x20   // lint:allow(no-wall-clock): cross-file fixture\n\
                     \x20   let _t = Instant::now();\n\
                     \x20   x\n\
                     }\n"
            .to_string(),
        },
    ];

    let old = per_file_findings(&files);
    assert!(
        old.is_empty(),
        "the allow silences the file-local rule, old engine sees nothing: {old:?}"
    );

    let report = lint_files(files, &Config::default());
    let purity: Vec<&Diagnostic> = report
        .findings
        .iter()
        .filter(|f| f.rule == "hot-path-purity")
        .collect();
    assert_eq!(purity.len(), 1, "findings: {:?}", report.findings);
    let f = purity[0];
    assert_eq!(f.path, "crates/det/src/clock.rs");
    assert!(
        f.message.contains("detect") && f.message.contains("stamp"),
        "diagnostic must show the cross-file chain: {f:?}"
    );
}

#[test]
fn substream_table_renders_the_allocation() {
    let report = lint_files(planted_seed_reuse(), &Config::default());
    // Even a colliding workspace renders its table — that is how the
    // collision is audited and a fresh label picked.
    assert!(
        report.substreams_md.contains("| 7 |"),
        "table must list label 7:\n{}",
        report.substreams_md
    );
    assert!(report.substreams_md.contains("noise_rng"));
    assert!(report.substreams_md.contains("challenge_rng"));
}

/// A library file with one `pub fn` and a unit test that calls it.
const STATS: &str = "//! Stats.\n\
                     /// Mean of the samples.\n\
                     pub fn mean(x: &[f64]) -> f64 {\n\
                     \x20   x.iter().sum::<f64>() / x.len() as f64\n\
                     }\n\
                     #[cfg(test)]\n\
                     mod tests {\n\
                     \x20   #[test]\n\
                     \x20   fn mean_of_two() {\n\
                     \x20       assert!((super::mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);\n\
                     \x20   }\n\
                     }\n";

fn file(rel_path: &str, source: &str) -> SourceFile {
    SourceFile {
        rel_path: rel_path.to_string(),
        source: source.to_string(),
    }
}

/// `crates/dsp/src/stats.rs` holding [`STATS`] beside one caller file.
fn stats_with_caller(rel_path: &str, caller: &str) -> Vec<Diagnostic> {
    let files = vec![
        file("crates/dsp/src/stats.rs", STATS),
        file(rel_path, caller),
    ];
    lint_files(files, &Config::default()).findings
}

#[test]
fn dead_pub_flags_a_fn_only_its_own_tests_name() {
    let findings = lint_files(
        vec![file("crates/dsp/src/stats.rs", STATS)],
        &Config::default(),
    )
    .findings;
    assert_eq!(findings.len(), 1, "{findings:?}");
    let f = &findings[0];
    assert_eq!(f.rule, "dead-pub");
    assert_eq!((f.path.as_str(), f.line), ("crates/dsp/src/stats.rs", 3));
    assert!(f.message.contains("`mean`"), "{f:?}");
}

#[test]
fn dead_pub_does_not_count_the_bench_crate_as_a_caller() {
    let bench = "//! Timing harness.\n\
                 fn main() {\n\
                 \x20   println!(\"{}\", lumen_dsp::stats::mean(&[1.0, 2.0]));\n\
                 }\n";
    let findings = stats_with_caller("crates/bench/src/bin/lumen-bench.rs", bench);
    let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
    assert_eq!(rules, ["dead-pub"], "{findings:?}");
    assert_eq!(findings[0].path, "crates/dsp/src/stats.rs");
}

#[test]
fn dead_pub_counts_code_tests_examples_and_lumenbench_as_callers() {
    let caller = "//! A caller.\n\
                  fn average(x: &[f64]) -> f64 {\n\
                  \x20   lumen_dsp::stats::mean(x)\n\
                  }\n";
    for path in [
        "crates/core/src/features.rs",
        "tests/stats.rs",
        "examples/stats.rs",
        "crates/dsp/tests/properties.rs",
        "lumenbench/src/report.rs",
    ] {
        let findings = stats_with_caller(path, caller);
        assert!(findings.is_empty(), "a call from {path}: {findings:?}");
    }
}

#[test]
fn dead_pub_never_checks_trait_impls_private_and_crate_fns() {
    let filters = "//! Filters.\n\
                   /// A filter.\n\
                   pub trait Filter {\n\
                   \x20   /// Applies it.\n\
                   \x20   fn apply(&self, x: f64) -> f64;\n\
                   }\n\
                   /// The identity filter.\n\
                   pub struct Identity;\n\
                   impl Filter for Identity {\n\
                   \x20   fn apply(&self, x: f64) -> f64 {\n\
                   \x20       x\n\
                   \x20   }\n\
                   }\n\
                   fn private_helper() {}\n\
                   pub(crate) fn crate_helper() {}\n";
    // Definitions in the bench crate and in lumenbench are skipped too.
    let unused = "//! Fixtures.\n/// Unused.\npub fn unused() {}\n";
    let files = vec![
        file("crates/dsp/src/filters.rs", filters),
        file("crates/bench/src/fixtures.rs", unused),
        file("lumenbench/src/plan.rs", unused),
    ];
    let findings = lint_files(files, &Config::default()).findings;
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn dead_pub_allow_comments_need_a_reason_and_a_finding() {
    let allowed =
        |comment: &str| STATS.replacen("pub fn mean", &format!("{comment}\npub fn mean"), 1);
    let justified = allowed("// lint:allow(dead-pub): the bench times it");
    let findings = lint_files(
        vec![file("crates/dsp/src/stats.rs", &justified)],
        &Config::default(),
    )
    .findings;
    assert!(findings.is_empty(), "{findings:?}");

    let bare = allowed("// lint:allow(dead-pub)");
    let findings = lint_files(
        vec![file("crates/dsp/src/stats.rs", &bare)],
        &Config::default(),
    )
    .findings;
    let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
    assert_eq!(rules, ["invalid-allow"], "{findings:?}");

    // With a caller there is nothing left to silence.
    let caller =
        "//! A caller.\nfn average(x: &[f64]) -> f64 {\n    lumen_dsp::stats::mean(x)\n}\n";
    let files = vec![
        file("crates/dsp/src/stats.rs", &justified),
        file("crates/core/src/features.rs", caller),
    ];
    let findings = lint_files(files, &Config::default()).findings;
    let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
    assert_eq!(rules, ["unused-allow"], "{findings:?}");
}
