//! # cgnn-analyze — "detlint"
//!
//! A self-contained static analyzer for this workspace's determinism and
//! hot-path invariants. It lexes every crate's Rust sources with a
//! hand-rolled lexer ([`lexer`]), recovers lightweight structure
//! ([`context`]: test regions, fn spans, suppressions), and runs a
//! fixed rule set ([`rules`]) producing rich diagnostics with
//! file:line:col positions, source snippets, and docs links.
//!
//! Since v2 the engine is *interprocedural*: a lightweight parser
//! ([`parser`]) recovers items, call expressions, and branch structure,
//! and a workspace-wide call graph ([`callgraph`]) with receiver-type
//! heuristic resolution lets rules reason about **reachability** of
//! hazards, not just tokens.
//!
//! Rules (see `docs/ANALYSIS.md` for rationale):
//!
//! | rule | invariant |
//! |---|---|
//! | `terse-expect` | an `.expect` message in lib code states its invariant (≥ 8 characters) |
//! | `hotpath-reachability` | no per-call allocation in or reachable from hot-path code |
//! | `panic-reachability` | public API reaching a panic documents `# Panics` |
//!
//! Properties clippy can check with type information — no hash
//! collections, no `unwrap`/`panic!` in library code, environment reads
//! through one `EnvKnob` — are workspace lint configuration (the root
//! `Cargo.toml` and `clippy.toml`), not detlint rules.
//!
//! False positives are silenced *per site* with
//! `// detlint: allow(<rule>, "<reason>")` — the reason is mandatory, so
//! every suppression documents its own hazard analysis. Malformed
//! suppressions are themselves diagnostics (`suppression-syntax`).

#![warn(missing_docs)]

pub mod callgraph;
pub mod context;
pub mod lexer;
pub mod parser;
pub mod rules;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use callgraph::{CallGraph, Workspace};
use context::{FileContext, FileKind};
pub use rules::{Config, Finding, RULES};

/// A fully rendered diagnostic.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Rule name (also the suppression key and docs anchor).
    pub rule: String,
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// What is wrong and what to do instead.
    pub message: String,
    /// Where the rule is documented.
    pub docs: String,
}

impl Diagnostic {
    /// Render as the human-readable two-line form.
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{}: [{}] {}\n    | {}\n    = docs: {}",
            self.path, self.line, self.col, self.rule, self.message, self.snippet, self.docs
        )
    }
}

/// Result of one analyzer run.
pub struct Report {
    /// All diagnostics, sorted by (path, line, col, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Render the whole report as the CLI prints it: every diagnostic
    /// followed by a blank line, then the summary line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render());
            out.push_str("\n\n");
        }
        let n = self.diagnostics.len();
        out.push_str(&format!(
            "detlint: scanned {} files, {n} diagnostic{}\n",
            self.files_scanned,
            if n == 1 { "" } else { "s" }
        ));
        out
    }
}

/// Directory names never descended into. `sysbench` is a package of its
/// own outside this workspace: it times the program from outside and is
/// not program code the invariants apply to.
const SKIP_DIRS: &[&str] = &["target", "shims", "sysbench", ".git", "fixtures", "results"];

/// Classify a workspace-relative path into a [`FileKind`].
pub fn classify(rel: &str) -> FileKind {
    if rel.contains("/tests/") || rel.starts_with("tests/") || rel.contains("/benches/") {
        FileKind::Test
    } else if rel.contains("/examples/") || rel.starts_with("examples/") {
        FileKind::Example
    } else if rel.contains("/src/bin/") || rel.ends_with("/main.rs") {
        FileKind::Bin
    } else {
        FileKind::Lib
    }
}

/// The analyzer: owns the rule configuration.
pub struct Engine {
    cfg: Config,
}

impl Engine {
    /// Build an engine with the given configuration.
    pub fn new(cfg: Config) -> Self {
        Engine { cfg }
    }

    /// Analyze one already-loaded file, returning rendered diagnostics
    /// (suppressions applied). The file forms a one-file workspace, so
    /// the interprocedural rules run over its local call graph.
    pub fn analyze_source(&self, path: &str, kind: FileKind, src: &str) -> Vec<Diagnostic> {
        self.analyze_sources(&[(path.to_string(), kind, src.to_string())])
    }

    /// Analyze a set of already-loaded files as one workspace: per-file
    /// rules, then the call-graph pass over all of them together. Used
    /// directly by the fixture tests (whose interprocedural fixtures
    /// span files) and by [`Engine::analyze_workspace`].
    pub fn analyze_sources(&self, files: &[(String, FileKind, String)]) -> Vec<Diagnostic> {
        let ctxs: Vec<FileContext> = files
            .iter()
            .map(|(path, kind, src)| FileContext::new(path, *kind, src))
            .collect();
        self.run_rules(&ctxs)
    }

    /// The shared rule pipeline: per-file checks, the workspace
    /// call-graph pass, rendering, suppression application.
    fn run_rules(&self, ctxs: &[FileContext]) -> Vec<Diagnostic> {
        let findings = rules::run_rules(ctxs, &self.cfg);
        let mut diagnostics = render(findings, |p| ctxs.iter().find(|c| c.path == p));
        for ctx in ctxs {
            diagnostics.extend(bad_suppression_diags(ctx));
        }
        sort_diags(&mut diagnostics);
        diagnostics
    }

    /// Walk the workspace at `root`, analyze every `.rs` file outside
    /// `target`/`shims`/fixtures, and return the sorted report.
    pub fn analyze_workspace(&self, root: &Path) -> io::Result<Report> {
        let mut files = Vec::new();
        walk(root, &mut files)?;
        files.sort();

        let mut ctxs: Vec<FileContext> = Vec::with_capacity(files.len());
        for f in &files {
            let src = fs::read_to_string(f)?;
            let rel = f
                .strip_prefix(root)
                .unwrap_or(f)
                .to_string_lossy()
                .replace('\\', "/");
            let kind = classify(&rel);
            ctxs.push(FileContext::new(&rel, kind, &src));
        }

        let diagnostics = self.run_rules(&ctxs);
        Ok(Report {
            diagnostics,
            files_scanned: ctxs.len(),
        })
    }
}

/// Apply suppressions and attach snippets/docs links.
fn render<'a>(
    findings: Vec<Finding>,
    lookup: impl Fn(&str) -> Option<&'a FileContext>,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in findings {
        let Some(ctx) = lookup(&f.path) else { continue };
        if ctx.suppressed(f.rule, f.line) {
            continue;
        }
        out.push(Diagnostic {
            rule: f.rule.to_string(),
            path: f.path,
            line: f.line,
            col: f.col,
            snippet: ctx.snippet(f.line),
            message: f.message,
            docs: format!("docs/ANALYSIS.md#{}", f.rule),
        });
    }
    out
}

/// Malformed suppressions become diagnostics themselves (and cannot be
/// suppressed).
fn bad_suppression_diags(ctx: &FileContext) -> Vec<Diagnostic> {
    ctx.bad_suppressions
        .iter()
        .map(|b| Diagnostic {
            rule: "suppression-syntax".into(),
            path: ctx.path.clone(),
            line: b.line,
            col: 1,
            snippet: ctx.snippet(b.line),
            message: b.why.to_string(),
            docs: "docs/ANALYSIS.md#suppressions".into(),
        })
        .collect()
}

fn sort_diags(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| (&a.path, a.line, a.col, &a.rule).cmp(&(&b.path, b.line, b.col, &b.rule)));
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_by_path() {
        assert_eq!(classify("crates/tensor/src/tape.rs"), FileKind::Lib);
        assert_eq!(classify("crates/core/tests/consistency.rs"), FileKind::Test);
        assert_eq!(classify("tests/integration.rs"), FileKind::Test);
        assert_eq!(classify("examples/tgv_surrogate.rs"), FileKind::Example);
        assert_eq!(classify("crates/bench/src/bin/table1.rs"), FileKind::Bin);
        assert_eq!(classify("src/main.rs"), FileKind::Bin);
    }

    #[test]
    fn suppression_silences_and_bad_suppression_reports() {
        let engine = Engine::new(Config::default());
        let src = "\
// detlint: allow(terse-expect, \"demo: the value is checked two lines up\")\n\
fn f(x: Option<u32>) -> u32 { x.expect(\"some\") }\n\
fn g(x: Option<u32>) -> u32 { x.expect(\"some\") }\n";
        let diags = engine.analyze_source("demo.rs", FileKind::Lib, src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "terse-expect");
        assert_eq!(diags[0].line, 3);

        let bad = "// detlint: allow(terse-expect)\nfn f() {}\n";
        let diags = engine.analyze_source("demo.rs", FileKind::Lib, bad);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "suppression-syntax");
    }

    #[test]
    fn report_renders_diagnostics_then_summary() {
        let report = Report {
            diagnostics: vec![Diagnostic {
                rule: "terse-expect".into(),
                path: "a.rs".into(),
                line: 3,
                col: 7,
                snippet: "x.expect(\"ok\")".into(),
                message: "m".into(),
                docs: "docs/ANALYSIS.md#terse-expect".into(),
            }],
            files_scanned: 1,
        };
        assert_eq!(
            report.render(),
            "a.rs:3:7: [terse-expect] m\n    | x.expect(\"ok\")\n    = docs: \
             docs/ANALYSIS.md#terse-expect\n\ndetlint: scanned 1 files, 1 diagnostic\n"
        );
    }
}
