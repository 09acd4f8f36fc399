//! The detlint rule set: the three checks clippy cannot express.
//!
//! `terse-expect` is a per-file token scan over [`FileContext`]; the two
//! reachability rules walk the workspace call graph. None has type
//! information, so they are deliberately conservative: a false positive
//! is silenced with a **reasoned** `// detlint: allow(<rule>, "<why>")`
//! suppression, which doubles as in-source documentation of the hazard
//! analysis. The token-pattern rules clippy does express (hash-collection
//! iteration, panics and unwraps in library code, raw environment reads)
//! live in the workspace lint configuration instead.

use crate::callgraph::Workspace;
use crate::context::{ident_of, is_punct, FileContext, FileKind};
use crate::lexer::{Tok, Token};

/// Engine configuration: which files play which role for
/// `hotpath-reachability`.
#[derive(Debug, Clone)]
pub struct Config {
    /// Path suffixes of the audited tensor-kernel modules:
    /// `hotpath-reachability` does not walk into or report them unless
    /// they are also hot.
    pub kernel_modules: Vec<String>,
    /// Path suffixes of hot-path modules: their fns seed
    /// `hotpath-reachability`, and their own ad-hoc allocations are
    /// flagged (route through the tape buffer pool instead).
    pub hot_modules: Vec<String>,
    /// Path fragments of the wire layer: allocation inside these files
    /// is the comm API's owned-buffer contract, audited separately, so
    /// `hotpath-reachability` does not traverse into or report them.
    pub wire_modules: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            kernel_modules: vec![
                "crates/tensor/src/tensor.rs".into(),
                "crates/tensor/src/par.rs".into(),
                "crates/tensor/src/nn.rs".into(),
                "crates/tensor/src/tape.rs".into(),
            ],
            hot_modules: vec![
                "crates/tensor/src/tape.rs".into(),
                "crates/tensor/src/par.rs".into(),
                "crates/tensor/src/nn.rs".into(),
                "crates/core/src/mp_layer.rs".into(),
            ],
            wire_modules: vec!["crates/comm/src/".into()],
        }
    }
}

impl Config {
    fn is_kernel(&self, path: &str) -> bool {
        self.kernel_modules.iter().any(|m| path.ends_with(m))
    }

    fn is_hot(&self, path: &str) -> bool {
        self.hot_modules.iter().any(|m| path.ends_with(m))
    }

    fn is_wire(&self, path: &str) -> bool {
        self.wire_modules.iter().any(|m| path.contains(m))
    }
}

/// One raw finding; the engine attaches snippets/docs and applies
/// suppressions.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule that fired.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human message.
    pub message: String,
}

/// The rule names, in documentation order: each is a diagnostic tag, a
/// suppression key and a `docs/ANALYSIS.md` anchor.
pub const RULES: &[&str] = &["terse-expect", "hotpath-reachability", "panic-reachability"];

/// Run every rule: the per-file scan over each file, then the two
/// call-graph rules over the workspace.
pub fn run_rules(ctxs: &[FileContext], cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    for ctx in ctxs {
        terse_expect(ctx, &mut out);
    }
    let ws = Workspace::new(ctxs);
    hotpath_reachability(&ws, cfg, &mut out);
    panic_reachability(&ws, &mut out);
    out
}

// ---------------------------------------------------------------------
// Rule 1: terse-expect
// ---------------------------------------------------------------------

/// `.expect("…")` in library code with a message under 8 characters: the
/// message is the abort point's only documentation, so it must state what
/// must hold and why. (Clippy's `expect_used` bans the call outright;
/// nothing in clippy checks the message.)
fn terse_expect(ctx: &FileContext, out: &mut Vec<Finding>) {
    if ctx.kind != FileKind::Lib {
        return;
    }
    let toks = &ctx.tokens;
    for (i, t) in toks.iter().enumerate() {
        if ident_of(t) != Some("expect")
            || ctx.in_test(i)
            || i == 0
            || !is_punct(&toks[i - 1], '.')
            || !toks.get(i + 1).is_some_and(|a| is_punct(a, '('))
        {
            continue;
        }
        let Some(Tok::Str(m)) = toks.get(i + 2).map(|t| &t.kind) else {
            continue;
        };
        if m.len() < 8 {
            out.push(Finding {
                rule: "terse-expect",
                path: ctx.path.clone(),
                line: t.line,
                col: t.col,
                message: format!(
                    "`.expect(\"{m}\")` message is too terse to document an invariant; \
                     state what must hold and why"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------
// Call-graph rules: built on crate::parser + crate::callgraph. Each
// fires on *reachability* of a hazard, so the diagnostics carry the call
// chain that proves the claim.
// ---------------------------------------------------------------------

/// Whether a fn name marks setup-time code exempt from hot-path
/// allocation reasoning: building the pool is not using it.
fn is_ctor_named(name: &str) -> bool {
    name == "new" || name == "default" || name.starts_with("with_") || name.starts_with("from_")
}

/// Ad-hoc allocation pattern at token `i`, as a short label for
/// messages: `Vec::new`/`Vec::with_capacity`, `vec![…]`, `.to_vec()`.
fn alloc_site_label(toks: &[Token], i: usize) -> Option<String> {
    let s = ident_of(&toks[i])?;
    match s {
        "Vec"
            if toks.get(i + 1).is_some_and(|a| is_punct(a, ':'))
                && toks.get(i + 2).is_some_and(|a| is_punct(a, ':'))
                && toks
                    .get(i + 3)
                    .and_then(ident_of)
                    .is_some_and(|m| m == "new" || m == "with_capacity") =>
        {
            Some(format!(
                "`Vec::{}`",
                ident_of(&toks[i + 3]).unwrap_or_default()
            ))
        }
        "vec" if toks.get(i + 1).is_some_and(|a| is_punct(a, '!')) => Some("`vec![…]`".into()),
        "to_vec"
            if i > 0
                && is_punct(&toks[i - 1], '.')
                && toks.get(i + 1).is_some_and(|a| is_punct(a, '(')) =>
        {
            Some("`.to_vec()`".into())
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Rule 2: hotpath-reachability
// ---------------------------------------------------------------------

/// Fresh heap allocation on the training hot path: steady-state steps
/// are designed to allocate nothing (tape buffer pool), and a stray
/// `vec![…]`/`to_vec()` per step costs page faults and memset churn.
/// Every non-constructor fn in a hot module is an entry and reports its
/// own allocation sites; helpers in other files are reported when an
/// entry reaches them, so "move the alloc into a helper one file over"
/// is no loophole. The wire layer (`crates/comm`, whose owned-`Vec`
/// contract is audited separately) and kernel modules that are not hot
/// themselves are boundaries.
fn hotpath_reachability(ws: &Workspace<'_>, cfg: &Config, out: &mut Vec<Finding>) {
    let boundary = |n: usize| {
        let p = &ws.ctx(n).path;
        is_ctor_named(&ws.fn_info(n).name) || (cfg.is_kernel(p) && !cfg.is_hot(p)) || cfg.is_wire(p)
    };
    let entries: Vec<usize> = (0..ws.graph.len())
        .filter(|&n| cfg.is_hot(&ws.ctx(n).path) && !boundary(n))
        .collect();
    let reached = ws.graph.reach_from(&entries, boundary);
    for &n in reached.keys() {
        let ctx = ws.ctx(n);
        let f = ws.fn_info(n);
        if boundary(n) || ctx.kind != FileKind::Lib {
            continue;
        }
        // Reconstruct one hot entry → n chain from the BFS parents.
        let mut chain = vec![n];
        let mut cur = n;
        while let Some(&Some(parent)) = reached.get(&cur) {
            chain.push(parent);
            cur = parent;
        }
        chain.reverse();
        let whose = if chain.len() == 1 {
            format!("hot-path fn `{}`", ws.label(n))
        } else {
            format!(
                "`{}`, which hot-path code reaches via `{}`",
                ws.label(n),
                ws.chain(&chain)
            )
        };
        for i in f.span.start..f.span.end.min(ctx.tokens.len()) {
            let Some(label) = alloc_site_label(&ctx.tokens, i) else {
                continue;
            };
            out.push(Finding {
                rule: "hotpath-reachability",
                path: ctx.path.clone(),
                line: ctx.tokens[i].line,
                col: ctx.tokens[i].col,
                message: format!(
                    "{label} allocates per call in {whose}: the steady-state \
                         step is designed to allocate nothing; pool the buffer or \
                         suppress with the ownership story"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------
// Rule 3: panic-reachability
// ---------------------------------------------------------------------

/// The crate a workspace path belongs to (`crates/comm/…` → `crates/comm`).
fn crate_of(path: &str) -> &str {
    let mut seps = 0usize;
    let prefix_len = if path.starts_with("crates/") { 2 } else { 1 };
    for (i, c) in path.char_indices() {
        if c == '/' {
            seps += 1;
            if seps == prefix_len {
                return &path[..i];
            }
        }
    }
    path
}

/// A public library fn whose call graph (within its own crate) reaches a
/// panic site (see [`crate::parser`]) in a fn that does not document a
/// `# Panics` section. Callers of public API deserve to know the abort
/// contract; either the panic frontier documents itself (`# Panics` makes
/// the fn opaque to this rule) or the path should return a typed error.
/// `.expect(…)` is deliberately not a target: `terse-expect` already
/// forces its message to state the invariant.
fn panic_reachability(ws: &Workspace<'_>, out: &mut Vec<Finding>) {
    let undocumented_panic: Vec<bool> = (0..ws.graph.len())
        .map(|n| {
            let f = ws.fn_info(n);
            !f.panics.is_empty() && !f.doc_has_panics
        })
        .collect();
    for n in 0..ws.graph.len() {
        let ctx = ws.ctx(n);
        let f = ws.fn_info(n);
        if !f.is_pub || ctx.kind != FileKind::Lib || f.doc_has_panics {
            continue;
        }
        let home = crate_of(&ctx.path);
        // Documented fns are opaque: their `# Panics` section owns
        // everything below them. Other crates own their own contracts.
        let hit = ws.graph.find_path(
            n,
            |m| undocumented_panic[m] && crate_of(&ws.ctx(m).path) == home,
            |m| ws.fn_info(m).doc_has_panics || crate_of(&ws.ctx(m).path) != home,
        );
        let Some(path) = hit else { continue };
        let target = *path.last().unwrap_or(&n);
        let site = &ws.fn_info(target).panics[0];
        let fn_tok = &ctx.tokens[f.span.start];
        let via = if path.len() > 1 {
            format!(" via `{}`", ws.chain(&path))
        } else {
            String::new()
        };
        out.push(Finding {
            rule: "panic-reachability",
            path: ctx.path.clone(),
            line: fn_tok.line,
            col: fn_tok.col,
            message: format!(
                "pub fn `{}` can reach {} ({}:{}){via}, but its docs have no \
                     `# Panics` section: document the abort contract at the panic \
                     frontier or return a typed error",
                ws.label(n),
                site.what,
                ws.ctx(target).path,
                site.line,
            ),
        });
    }
}
