//! detlint integration tests: per-rule fixtures with a golden rendered
//! report, plus the meta-test that the live workspace itself is clean
//! under `--deny`.

use std::path::{Path, PathBuf};

use cgnn_analyze::context::FileKind;
use cgnn_analyze::{Config, Engine, Report};

/// Fixture groups under `tests/fixtures/`, scanned with
/// [`FileKind::Lib`] and [`fixture_config`]. Each group is analyzed as
/// one mini-workspace (its files share a call graph; groups are
/// isolated from each other so names never resolve across fixtures).
/// Every rule has a positive (must fire) and a suppressed negative
/// (must not). `hotpath-reachability` needs two files: the hot entry
/// and the helper it reaches live a file apart by construction.
const FIXTURE_GROUPS: &[&[&str]] = &[
    &["bad_suppression.rs"],
    &["hotpath_reachability.rs", "hotpath_reachability_hot.rs"],
    &["panic_reachability.rs"],
    &["terse_expect.rs"],
];

/// Map fixture basenames into the roles the path-scoped rules look for.
fn fixture_config() -> Config {
    Config {
        hot_modules: vec!["hotpath_reachability_hot.rs".into()],
        ..Config::default()
    }
}

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn fixture_report() -> Report {
    let engine = Engine::new(fixture_config());
    let mut diagnostics = Vec::new();
    let mut files_scanned = 0usize;
    for group in FIXTURE_GROUPS {
        let files: Vec<(String, FileKind, String)> = group
            .iter()
            .map(|name| {
                #[expect(
                    clippy::panic,
                    reason = "test helper: an unreadable fixture fails the calling test"
                )]
                let src = std::fs::read_to_string(fixture_dir().join(name))
                    .unwrap_or_else(|e| panic!("fixture {name} must be readable: {e}"));
                (name.to_string(), FileKind::Lib, src)
            })
            .collect();
        files_scanned += files.len();
        diagnostics.extend(engine.analyze_sources(&files));
    }
    diagnostics
        .sort_by(|a, b| (&a.path, a.line, a.col, &a.rule).cmp(&(&b.path, b.line, b.col, &b.rule)));
    Report {
        diagnostics,
        files_scanned,
    }
}

/// Every rule's positive fires, every suppressed negative stays quiet,
/// and the report as the CLI renders it matches the checked-in golden
/// byte for byte.
#[test]
fn fixture_report_matches_golden() {
    let rendered = fixture_report().render();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fixtures.txt");
    #[expect(
        clippy::disallowed_methods,
        reason = "test-harness switch that rewrites the golden file, not a program knob"
    )]
    let bless = std::env::var_os("DETLINT_BLESS").is_some();
    if bless {
        std::fs::write(&path, &rendered).expect("golden must be writable under DETLINT_BLESS");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .expect("golden missing: regenerate with DETLINT_BLESS=1 cargo test -p cgnn-analyze");
    assert_eq!(
        rendered, golden,
        "fixture diagnostics drifted from tests/golden/fixtures.txt; \
         if the change is intended, regenerate with DETLINT_BLESS=1"
    );
}

/// Structural guard independent of the golden text: each rule fires at
/// least once across the fixtures, so a rule silently dying cannot hide
/// behind a stale golden refresh.
#[test]
fn every_rule_fires_on_its_fixture() {
    let report = fixture_report();
    for rule in cgnn_analyze::RULES.iter().chain(&["suppression-syntax"]) {
        assert!(
            report.diagnostics.iter().any(|d| d.rule == *rule),
            "rule `{rule}` produced no fixture diagnostics"
        );
    }
}

/// The interprocedural positives must carry their proof: a diagnostic
/// that claims reachability without the chain is unreviewable.
#[test]
fn interprocedural_diagnostics_carry_chains() {
    let report = fixture_report();
    for (rule, via) in [
        ("hotpath-reachability", "step_epoch → refresh_buffers"),
        // A hot-module fn is its own entry: the chain is the fn itself.
        ("hotpath-reachability", "hot-path fn `positive`"),
        ("panic-reachability", "lookup → deep_get"),
        ("panic-reachability", "`kill_switch` can reach `panic_any`"),
    ] {
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.rule == rule && d.message.contains(via)),
            "rule `{rule}` produced no diagnostic whose chain mentions `{via}`"
        );
    }
}

/// Suppressed negatives: no diagnostic may point at a line covered by a
/// well-formed fixture suppression (each fixture places its negative
/// directly under a `detlint: allow` comment).
#[test]
fn suppressed_negatives_stay_quiet() {
    let report = fixture_report();
    for d in &report.diagnostics {
        // suppression-syntax diagnostics legitimately point at malformed
        // `detlint: allow` lines; every other rule must honor them.
        if d.rule == "suppression-syntax" {
            continue;
        }
        assert!(
            !d.snippet.contains("detlint: allow"),
            "diagnostic escaped its suppression: {}",
            d.render()
        );
    }
}

/// Every registered rule has a matching `### <rule>` anchor in
/// docs/ANALYSIS.md (the `docs:` line under each diagnostic links
/// there), and so does the suppression pseudo-rule.
#[test]
fn every_rule_has_a_docs_anchor() {
    let docs_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../docs/ANALYSIS.md");
    let docs = std::fs::read_to_string(&docs_path)
        .unwrap_or_else(|e| panic!("docs/ANALYSIS.md must be readable: {e}"));
    for name in cgnn_analyze::RULES {
        assert!(
            docs.contains(&format!("### {name}")),
            "docs/ANALYSIS.md has no `### {name}` section; every rule's \
             `docs:` link must resolve to a written rationale"
        );
    }
    // The suppression pseudo-rule links to the `## Suppressions` heading.
    assert!(
        docs.contains("## Suppressions"),
        "docs/ANALYSIS.md has no `## Suppressions` section"
    );
}

/// The meta-test: the live workspace must be clean, i.e.
/// `cargo run -p cgnn-analyze -- --workspace --deny` exits 0.
#[test]
fn workspace_is_clean_under_deny() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let engine = Engine::new(Config::default());
    let report = engine
        .analyze_workspace(&root)
        .expect("workspace scan must succeed");
    assert!(report.files_scanned > 50, "workspace walk looks truncated");
    let rendered: Vec<String> = report.diagnostics.iter().map(|d| d.render()).collect();
    assert!(
        report.diagnostics.is_empty(),
        "the workspace must stay detlint-clean:\n{}",
        rendered.join("\n")
    );
}
