//! The detlint rule set.
//!
//! Each rule encodes one determinism or hot-path invariant from
//! `docs/PERFORMANCE.md` / `docs/ANALYSIS.md`. Rules are token-stream
//! scanners over [`FileContext`] — no type information — so they are
//! deliberately conservative pattern matchers: false positives are
//! expected occasionally and must be silenced with a **reasoned**
//! `// detlint: allow(<rule>, "<why>")` suppression, which doubles as
//! in-source documentation of the hazard analysis.

use std::collections::BTreeSet;

use crate::callgraph::Workspace;
use crate::context::{ident_of, is_ident, is_punct, FileContext, FileKind};
use crate::lexer::{Tok, Token};

/// Engine configuration: which files play which role, and the env-var
/// registry contents.
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
    /// Path suffixes of the env-knob registry: the only files allowed to
    /// read `std::env::var` with a non-literal name.
    pub registry_files: Vec<String>,
    /// Environment variable names declared in the registry.
    pub registered_env: BTreeSet<String>,
    /// Names exempt from registration (cargo/tooling variables).
    pub env_allowlist: BTreeSet<String>,
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
            registry_files: vec!["crates/core/src/config.rs".into()],
            registered_env: BTreeSet::new(),
            env_allowlist: ["CARGO_MANIFEST_DIR"].map(String::from).into(),
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

    fn is_registry(&self, path: &str) -> bool {
        self.registry_files.iter().any(|m| path.ends_with(m))
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

/// A detlint rule: scanned per file, then once over the workspace call
/// graph.
pub trait Rule {
    /// The rule's kebab-case name (diagnostic tag + suppression key +
    /// docs anchor).
    fn name(&self) -> &'static str;
    /// Scan one file.
    fn check(&mut self, ctx: &FileContext, cfg: &Config, out: &mut Vec<Finding>);
    /// Scan the whole workspace with the call graph available — the hook
    /// the interprocedural rules implement.
    fn check_workspace(&mut self, _ws: &Workspace<'_>, _cfg: &Config, _out: &mut Vec<Finding>) {}
}

/// The full rule set, in documentation order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(NondetIteration),
        Box::new(UnwrapInLib),
        Box::new(EnvVarRegistry),
        Box::new(HotpathReachability),
        Box::new(PanicReachability),
    ]
}

fn finding(rule: &'static str, ctx: &FileContext, tok: &Token, message: String) -> Finding {
    Finding {
        rule,
        path: ctx.path.clone(),
        line: tok.line,
        col: tok.col,
        message,
    }
}

/// Walk left from the token at `dot` (a `.`) to the base identifier of
/// the receiver, skipping balanced `[...]` / `(...)` groups, e.g.
/// `self.world.slots[self.rank]` → `slots`.
pub(crate) fn receiver_name(tokens: &[Token], dot: usize) -> Option<String> {
    let mut k = dot;
    loop {
        if k == 0 {
            return None;
        }
        k -= 1;
        match tokens[k].kind {
            Tok::Punct(']') | Tok::Punct(')') => {
                let close = if matches!(tokens[k].kind, Tok::Punct(']')) {
                    (']', '[')
                } else {
                    (')', '(')
                };
                let mut depth = 1usize;
                while k > 0 && depth > 0 {
                    k -= 1;
                    match &tokens[k].kind {
                        Tok::Punct(c) if *c == close.0 => depth += 1,
                        Tok::Punct(c) if *c == close.1 => depth -= 1,
                        _ => {}
                    }
                }
                // Continue: the token before the group names the receiver.
            }
            Tok::Ident(ref s) => return Some(s.clone()),
            _ => return None,
        }
    }
}

// ---------------------------------------------------------------------
// Rule 1: nondet-iteration
// ---------------------------------------------------------------------

/// Iterating a `HashMap`/`HashSet` in library code: the visit order is
/// seeded per map instance, so anything order-sensitive downstream
/// (reductions, wire payloads, Vec construction) silently loses
/// determinism. Fix: `BTreeMap`/`BTreeSet`, or collect + sort keys.
struct NondetIteration;

const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
    "retain",
];

impl Rule for NondetIteration {
    fn name(&self) -> &'static str {
        "nondet-iteration"
    }

    fn check(&mut self, ctx: &FileContext, _cfg: &Config, out: &mut Vec<Finding>) {
        if ctx.kind == FileKind::Test {
            return;
        }
        let toks = &ctx.tokens;
        // Pass 1: names bound to a hash collection (let bindings, struct
        // fields, fn params — anything of the form `name: HashMap<…>` or
        // `name = HashMap::new()`).
        let mut hash_names: BTreeSet<String> = BTreeSet::new();
        for (i, t) in toks.iter().enumerate() {
            let Some(s) = ident_of(t) else { continue };
            if s != "HashMap" && s != "HashSet" {
                continue;
            }
            if let Some(name) = bound_name(toks, i) {
                hash_names.insert(name);
            }
        }
        if hash_names.is_empty() {
            return;
        }
        // Pass 2: iteration over those names.
        for (i, t) in toks.iter().enumerate() {
            if ctx.in_test(i) {
                continue;
            }
            // `name.iter()` style.
            if let Some(m) = ident_of(t).filter(|m| ITER_METHODS.contains(m)) {
                if i > 0
                    && is_punct(&toks[i - 1], '.')
                    && toks.get(i + 1).is_some_and(|n| is_punct(n, '('))
                {
                    if let Some(recv) = receiver_name(toks, i - 1) {
                        if hash_names.contains(&recv) {
                            out.push(finding(
                                self.name(),
                                ctx,
                                t,
                                format!(
                                    "`{recv}.{m}()` iterates a HashMap/HashSet in \
                                     nondeterministic order; use BTreeMap/BTreeSet or \
                                     sort the keys first"
                                ),
                            ));
                        }
                    }
                }
            }
            // `for x in &name {` style.
            if is_ident(t, "in") {
                let mut j = i + 1;
                while toks
                    .get(j)
                    .is_some_and(|t| is_punct(t, '&') || is_ident(t, "mut"))
                {
                    j += 1;
                }
                if let Some(name) = toks.get(j).and_then(ident_of) {
                    if hash_names.contains(name)
                        && toks.get(j + 1).is_some_and(|t| is_punct(t, '{'))
                    {
                        out.push(finding(
                            self.name(),
                            ctx,
                            &toks[j],
                            format!(
                                "`for … in {name}` iterates a HashMap/HashSet in \
                                 nondeterministic order; use BTreeMap/BTreeSet or sort \
                                 the keys first"
                            ),
                        ));
                    }
                }
            }
        }
    }
}

/// Backwards scan from a `HashMap`/`HashSet` token to the name it is
/// bound to: the identifier directly before the nearest single `:` or `=`
/// (skipping `::` path separators).
fn bound_name(tokens: &[Token], hash_idx: usize) -> Option<String> {
    let mut k = hash_idx;
    let stop = hash_idx.saturating_sub(24);
    while k > stop {
        k -= 1;
        match &tokens[k].kind {
            Tok::Punct(':') => {
                if k > 0 && is_punct(&tokens[k - 1], ':') {
                    // `::` path separator: skip it and the segment ident.
                    k -= 1;
                    continue;
                }
                return tokens
                    .get(k.checked_sub(1)?)
                    .and_then(ident_of)
                    .map(String::from);
            }
            Tok::Punct('=') => {
                return tokens
                    .get(k.checked_sub(1)?)
                    .and_then(ident_of)
                    .map(String::from);
            }
            Tok::Ident(_) | Tok::Punct('<') | Tok::Punct('>') => continue,
            _ => return None,
        }
    }
    None
}

// ---------------------------------------------------------------------
// Rule 2: unwrap-in-lib
// ---------------------------------------------------------------------

/// `unwrap()` / `panic!` (and terse `expect`s) in library code: every
/// abort point must either become a typed error or carry an invariant
/// message long enough to act on. `expect` with a descriptive message is
/// the sanctioned form; suppressions document deliberate fail-fast
/// sites.
struct UnwrapInLib;

impl Rule for UnwrapInLib {
    fn name(&self) -> &'static str {
        "unwrap-in-lib"
    }

    fn check(&mut self, ctx: &FileContext, _cfg: &Config, out: &mut Vec<Finding>) {
        if ctx.kind != FileKind::Lib {
            return;
        }
        let toks = &ctx.tokens;
        for (i, t) in toks.iter().enumerate() {
            if ctx.in_test(i) {
                continue;
            }
            let Some(s) = ident_of(t) else { continue };
            let msg: String = match s {
                "unwrap"
                    if i > 0
                        && is_punct(&toks[i - 1], '.')
                        && toks.get(i + 1).is_some_and(|a| is_punct(a, '(')) =>
                {
                    "`.unwrap()` in library code: return a typed error or use \
                     `.expect(\"<invariant>\")` with a documented invariant"
                        .into()
                }
                "panic" | "todo" | "unimplemented"
                    if toks.get(i + 1).is_some_and(|a| is_punct(a, '!')) =>
                {
                    format!(
                        "`{s}!` in library code: prefer a typed error; if the abort is \
                         a deliberate invariant, suppress with a written reason"
                    )
                }
                "expect"
                    if i > 0
                        && is_punct(&toks[i - 1], '.')
                        && toks.get(i + 1).is_some_and(|a| is_punct(a, '(')) =>
                {
                    match toks.get(i + 2).map(|t| &t.kind) {
                        Some(Tok::Str(m)) if m.len() < 8 => format!(
                            "`.expect(\"{m}\")` message is too terse to document an \
                             invariant; state what must hold and why"
                        ),
                        _ => continue,
                    }
                }
                _ => continue,
            };
            out.push(finding(self.name(), ctx, t, msg));
        }
    }
}

// ---------------------------------------------------------------------
// Rule 3: env-var-registry
// ---------------------------------------------------------------------

/// Every `std::env::var` read must name a knob declared in the central
/// registry (`crates/core/src/config.rs`), which is also the documented
/// `CGNN_*` table in the README. Non-literal names are only allowed in
/// the registry itself ([`EnvKnob::lookup`]).
struct EnvVarRegistry;

impl Rule for EnvVarRegistry {
    fn name(&self) -> &'static str {
        "env-var-registry"
    }

    fn check(&mut self, ctx: &FileContext, cfg: &Config, out: &mut Vec<Finding>) {
        if ctx.kind == FileKind::Test || cfg.is_registry(&ctx.path) {
            return;
        }
        let toks = &ctx.tokens;
        for i in 0..toks.len() {
            if ctx.in_test(i) {
                continue;
            }
            if !is_ident(&toks[i], "env")
                || !toks.get(i + 1).is_some_and(|t| is_punct(t, ':'))
                || !toks.get(i + 2).is_some_and(|t| is_punct(t, ':'))
                || !toks
                    .get(i + 3)
                    .and_then(ident_of)
                    .is_some_and(|m| m == "var" || m == "var_os")
                || !toks.get(i + 4).is_some_and(|t| is_punct(t, '('))
            {
                continue;
            }
            match toks.get(i + 5).map(|t| &t.kind) {
                Some(Tok::Str(name)) => {
                    if !cfg.registered_env.contains(name) && !cfg.env_allowlist.contains(name) {
                        out.push(finding(
                            self.name(),
                            ctx,
                            &toks[i + 5],
                            format!(
                                "env var `{name}` is not declared in the \
                                 crates/core/src/config.rs knob registry"
                            ),
                        ));
                    }
                }
                _ => out.push(finding(
                    self.name(),
                    ctx,
                    &toks[i],
                    "env read with a non-literal name; route it through the EnvKnob \
                     registry (crates/core/src/config.rs)"
                        .into(),
                )),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Interprocedural rules (detlint v2): built on crate::parser +
// crate::callgraph. Each fires on *reachability* of a hazard, so the
// diagnostics carry the call chain that proves the claim.
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
// Rule 4: hotpath-reachability
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
struct HotpathReachability;

impl Rule for HotpathReachability {
    fn name(&self) -> &'static str {
        "hotpath-reachability"
    }

    fn check(&mut self, _ctx: &FileContext, _cfg: &Config, _out: &mut Vec<Finding>) {}

    fn check_workspace(&mut self, ws: &Workspace<'_>, cfg: &Config, out: &mut Vec<Finding>) {
        let boundary = |n: usize| {
            let p = &ws.ctx(n).path;
            is_ctor_named(&ws.fn_info(n).name)
                || (cfg.is_kernel(p) && !cfg.is_hot(p))
                || cfg.is_wire(p)
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
                    rule: self.name(),
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
}

// ---------------------------------------------------------------------
// Rule 5: panic-reachability
// ---------------------------------------------------------------------

/// A public library fn whose call graph (within its own crate) reaches a
/// `panic!`/`.unwrap()` site in a fn that does not document a `# Panics`
/// section. Callers of public API deserve to know the abort contract;
/// either the panic frontier documents itself (`# Panics` makes the fn
/// opaque to this rule) or the path should return a typed error.
/// `.expect(…)` is deliberately not a target: `unwrap-in-lib` already
/// forces its message to state the invariant.
struct PanicReachability;

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

impl Rule for PanicReachability {
    fn name(&self) -> &'static str {
        "panic-reachability"
    }

    fn check(&mut self, _ctx: &FileContext, _cfg: &Config, _out: &mut Vec<Finding>) {}

    fn check_workspace(&mut self, ws: &Workspace<'_>, _cfg: &Config, out: &mut Vec<Finding>) {
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
                rule: self.name(),
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
}
