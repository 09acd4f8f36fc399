//! Structure recovery over the token stream: items, call expressions
//! and panic sites — the "recursive descent" layer detlint v2's
//! interprocedural rules are built on.
//!
//! This is deliberately **not** a full Rust parser. It recovers exactly
//! what the call-graph rules need:
//!
//! - every `fn` item with its name, enclosing `impl` type, visibility,
//!   span, and whether its doc comment has a `# Panics` section;
//! - every call expression inside each fn, classified by receiver shape
//!   (`free()`, `self.method()`, `var.method()`, `Type::assoc()`);
//! - every direct panic site (`panic!`/`todo!`/`unimplemented!`,
//!   `.unwrap()`, `std::panic::panic_any(…)`).
//!
//! Anything it cannot confidently classify it drops, so downstream rules
//! degrade to fewer findings rather than wrong ones.

use crate::context::{ident_of, is_ident, is_punct, Span};
use crate::lexer::{Comment, Tok, Token};

/// Everything recovered from one file's token stream.
#[derive(Debug, Clone, Default)]
pub struct ParsedFile {
    /// All function items with bodies, in source order.
    pub fns: Vec<FnInfo>,
}

/// One recovered `fn` item.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// The function's name (raw identifiers keep their `r#` prefix).
    pub name: String,
    /// The `impl` type the fn is an associated item of, if any — the
    /// last path segment before generics (`impl foo::Bar<T>` → `Bar`;
    /// `impl Trait for Baz` → `Baz`).
    pub self_ty: Option<String>,
    /// True for unrestricted `pub` (not `pub(crate)`/`pub(super)`).
    pub is_pub: bool,
    /// True when the doc comment block directly above the item contains
    /// a `# Panics` line — the fn documents its abort contract.
    pub doc_has_panics: bool,
    /// Whole item span, from the `fn` keyword to the closing brace.
    pub span: Span,
    /// Call expressions lexically inside this fn (innermost-fn wins for
    /// nested items; closure bodies belong to the enclosing fn).
    pub calls: Vec<CallSite>,
    /// Direct panic sites lexically inside this fn.
    pub panics: Vec<PanicSite>,
}

/// The receiver shape of a call expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Receiver {
    /// `name(…)` — a free (or locally imported) function.
    Free,
    /// `self.name(…)` — a method on the enclosing impl type.
    SelfDot,
    /// `var.name(…)` — method call; payload is the base identifier of
    /// the receiver expression (`ctx.comm.barrier()` → `comm`).
    Var(String),
    /// `Type::name(…)` — associated call; payload is the qualifier's
    /// last ident (`Self` is resolved by the call graph).
    Ty(String),
}

/// One call expression.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The called name (method or function).
    pub callee: String,
    /// Receiver shape, for heuristic resolution.
    pub recv: Receiver,
}

/// One direct panic site.
#[derive(Debug, Clone)]
pub struct PanicSite {
    /// Human label: `panic!`, `todo!`, `unimplemented!`, `.unwrap()`,
    /// `panic_any`.
    pub what: &'static str,
    /// Token index of the site.
    pub tok: usize,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

/// Names that look like calls syntactically but are control flow or
/// binding forms — never recorded as call sites.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "fn", "let", "else", "impl", "where", "in",
    "as", "move", "unsafe", "break", "continue", "use", "pub", "mod", "struct", "enum", "trait",
    "type", "dyn", "ref", "mut", "crate", "super", "self", "Self",
];

/// Parse a file's token stream (plus its out-of-band comments, for doc
/// sections) into [`ParsedFile`].
pub fn parse(tokens: &[Token], comments: &[Comment]) -> ParsedFile {
    let impls = find_impl_spans(tokens);
    let mut fns = find_fn_items(tokens, comments, &impls);
    attribute_calls(tokens, &mut fns);
    ParsedFile { fns }
}

/// Index one past the token matching the opener at `open` (`open_c` …
/// `close_c`), or the end of the stream for unbalanced input.
fn matching_group_end(tokens: &[Token], open: usize, open_c: char, close_c: char) -> usize {
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        match t.kind {
            Tok::Punct(c) if c == open_c => depth += 1,
            Tok::Punct(c) if c == close_c => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
    }
    tokens.len()
}

/// One past the `>` closing the `<` at `open`. A `>` directly preceded
/// by `-` is the arrow of a fn-pointer type (`Fn(A) -> B`) inside the
/// generics, not a closer.
fn generic_end(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        match t.kind {
            Tok::Punct('<') => depth += 1,
            Tok::Punct('>') => {
                if j > 0 && is_punct(&tokens[j - 1], '-') {
                    continue;
                }
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            Tok::Punct(';') | Tok::Punct('{') => return j, // bail: unbalanced
            _ => {}
        }
    }
    tokens.len()
}

/// `(self type name, body span)` for every `impl` block. The self type
/// is the last path segment before generics; `impl Trait for Type` takes
/// `Type`.
fn find_impl_spans(tokens: &[Token]) -> Vec<(String, Span)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !is_ident(&tokens[i], "impl") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if tokens.get(j).is_some_and(|t| is_punct(t, '<')) {
            j = generic_end(tokens, j);
        }
        let mut candidate: Option<String> = None;
        let mut angle = 0i32;
        let mut open = None;
        while j < tokens.len() {
            match &tokens[j].kind {
                Tok::Punct('<') => angle += 1,
                Tok::Punct('>') if !(j > 0 && is_punct(&tokens[j - 1], '-')) => angle -= 1,
                Tok::Punct('{') if angle <= 0 => {
                    open = Some(j);
                    break;
                }
                Tok::Punct(';') => break, // `impl Trait for Type;` — no body
                Tok::Ident(s) if angle <= 0 => {
                    if s == "for" {
                        candidate = None;
                    } else if s == "where" {
                        // The where clause mentions other types; the self
                        // type is settled. Scan on for the brace only.
                        while j < tokens.len() && !is_punct(&tokens[j], '{') {
                            j += 1;
                        }
                        continue;
                    } else if candidate.is_none() || (j > 0 && is_punct(&tokens[j - 1], ':')) {
                        // First segment, or a later `::` path segment.
                        candidate = Some(s.clone());
                    }
                }
                _ => {}
            }
            j += 1;
        }
        match (candidate, open) {
            (Some(ty), Some(open)) => {
                let end = matching_group_end(tokens, open, '{', '}');
                out.push((ty, Span { start: open, end }));
                i = open + 1; // fns inside are found by the fn pass
            }
            _ => i = j.max(i + 1),
        }
    }
    out
}

/// Innermost impl block containing token `i`.
fn enclosing_impl(impls: &[(String, Span)], i: usize) -> Option<&str> {
    impls
        .iter()
        .filter(|(_, s)| s.contains(i))
        .max_by_key(|(_, s)| s.start)
        .map(|(ty, _)| ty.as_str())
}

/// Walk backwards from the `fn` keyword over visibility, qualifiers
/// (`const`/`async`/`unsafe`/`extern "C"`) and attributes to the first
/// token of the item. Returns `(item_start_token, is_pub)`.
fn item_start(tokens: &[Token], fn_idx: usize) -> (usize, bool) {
    let mut k = fn_idx;
    let mut is_pub = false;
    while k > 0 {
        let prev = k - 1;
        match &tokens[prev].kind {
            Tok::Ident(s)
                if matches!(
                    s.as_str(),
                    "pub"
                        | "const"
                        | "async"
                        | "unsafe"
                        | "extern"
                        | "crate"
                        | "super"
                        | "in"
                        | "default"
                ) =>
            {
                if s == "pub" {
                    // `pub(crate)`/`pub(super)` is restricted visibility.
                    is_pub = !tokens.get(k).is_some_and(|t| is_punct(t, '('));
                }
                k = prev;
            }
            Tok::Str(_) => k = prev, // extern "C"
            Tok::Punct(')') => {
                // The parens of a restricted visibility: rewind to `(`.
                let mut depth = 1usize;
                let mut j = prev;
                while j > 0 && depth > 0 {
                    j -= 1;
                    match tokens[j].kind {
                        Tok::Punct(')') => depth += 1,
                        Tok::Punct('(') => depth -= 1,
                        _ => {}
                    }
                }
                k = j;
            }
            Tok::Punct(']') => {
                // An attribute `#[…]`: rewind to its `#`.
                let mut depth = 1usize;
                let mut j = prev;
                while j > 0 && depth > 0 {
                    j -= 1;
                    match tokens[j].kind {
                        Tok::Punct(']') => depth += 1,
                        Tok::Punct('[') => depth -= 1,
                        _ => {}
                    }
                }
                if j > 0 && is_punct(&tokens[j - 1], '#') {
                    k = j - 1;
                } else {
                    break;
                }
            }
            _ => break,
        }
    }
    (k, is_pub)
}

/// Whether the contiguous doc-comment block ending directly above
/// `item_line` contains a `# Panics` section.
fn doc_block_has_panics(comments: &[Comment], item_line: u32) -> bool {
    let mut expected = item_line.saturating_sub(1);
    let mut found = false;
    // Comments are in source order; walk the block upward.
    let mut by_line = comments
        .iter()
        .filter(|c| c.own_line && (c.text.starts_with('/') || c.text.starts_with('!')))
        .collect::<Vec<_>>();
    by_line.reverse();
    for c in by_line {
        if c.line > expected {
            continue;
        }
        if c.line < expected {
            break;
        }
        if c.text.contains("# Panics") {
            found = true;
        }
        expected = expected.saturating_sub(1);
    }
    found
}

/// Recover every `fn` item that has a body.
fn find_fn_items(tokens: &[Token], comments: &[Comment], impls: &[(String, Span)]) -> Vec<FnInfo> {
    let mut fns = Vec::new();
    for i in 0..tokens.len() {
        if !is_ident(&tokens[i], "fn") {
            continue;
        }
        let Some(name) = tokens.get(i + 1).and_then(ident_of) else {
            continue;
        };
        let mut j = i + 2;
        if tokens.get(j).is_some_and(|t| is_punct(t, '<')) {
            j = generic_end(tokens, j);
        }
        if !tokens.get(j).is_some_and(|t| is_punct(t, '(')) {
            continue;
        }
        let params_end = matching_group_end(tokens, j, '(', ')');
        // First `{` outside parens/brackets opens the body; a `;` first
        // means a body-less trait method — skipped (nothing to analyze).
        let mut depth = 0i32;
        let mut open = None;
        for (b, t) in tokens.iter().enumerate().skip(params_end) {
            match t.kind {
                Tok::Punct('(') | Tok::Punct('[') => depth += 1,
                Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
                Tok::Punct('{') if depth == 0 => {
                    open = Some(b);
                    break;
                }
                Tok::Punct(';') if depth == 0 => break,
                _ => {}
            }
        }
        let Some(open) = open else { continue };
        let end = matching_group_end(tokens, open, '{', '}');
        let (start_tok, is_pub) = item_start(tokens, i);
        fns.push(FnInfo {
            name: name.to_string(),
            self_ty: enclosing_impl(impls, i).map(String::from),
            is_pub,
            doc_has_panics: doc_block_has_panics(comments, tokens[start_tok].line),
            span: Span { start: i, end },
            calls: Vec::new(),
            panics: Vec::new(),
        });
    }
    fns
}

/// Walk left from the token at `dot` (a `.`) to the base identifier of
/// the receiver, skipping balanced `[...]` / `(...)` groups, e.g.
/// `self.world.slots[self.rank]` → `slots`.
fn receiver_name(tokens: &[Token], dot: usize) -> Option<String> {
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

/// Find every call expression and panic site, attributing each to the
/// innermost enclosing fn.
fn attribute_calls(tokens: &[Token], fns: &mut [FnInfo]) {
    // Innermost = the containing fn with the largest start.
    let owner = |i: usize, fns: &[FnInfo]| -> Option<usize> {
        fns.iter()
            .enumerate()
            .filter(|(_, f)| f.span.contains(i))
            .max_by_key(|(_, f)| f.span.start)
            .map(|(idx, _)| idx)
    };
    for i in 0..tokens.len() {
        let Some(name) = ident_of(&tokens[i]) else {
            continue;
        };
        let next_is = |c: char| tokens.get(i + 1).is_some_and(|t| is_punct(t, c));
        // Panic macros.
        if next_is('!') {
            let what = match name {
                "panic" => "`panic!`",
                "todo" => "`todo!`",
                "unimplemented" => "`unimplemented!`",
                _ => continue, // other macros are neither calls nor panics
            };
            if let Some(o) = owner(i, fns) {
                fns[o].panics.push(PanicSite {
                    what,
                    tok: i,
                    line: tokens[i].line,
                    col: tokens[i].col,
                });
            }
            continue;
        }
        if !next_is('(') {
            continue;
        }
        // `.unwrap()` and `panic_any(…)` are panic sites, not call edges.
        let prev_dot = i > 0 && is_punct(&tokens[i - 1], '.');
        let what = match name {
            "unwrap" if prev_dot => Some("`.unwrap()`"),
            "panic_any" if !prev_dot => Some("`panic_any`"),
            _ => None,
        };
        if let Some(what) = what {
            if let Some(o) = owner(i, fns) {
                fns[o].panics.push(PanicSite {
                    what,
                    tok: i,
                    line: tokens[i].line,
                    col: tokens[i].col,
                });
            }
            continue;
        }
        if NON_CALL_KEYWORDS.contains(&name) {
            continue;
        }
        // `fn name(` is a definition, not a call.
        if i > 0 && is_ident(&tokens[i - 1], "fn") {
            continue;
        }
        let recv = if prev_dot {
            match receiver_name(tokens, i - 1).as_deref() {
                Some("self") => Receiver::SelfDot,
                Some(base) => Receiver::Var(base.to_string()),
                None => Receiver::Free,
            }
        } else if i >= 2 && is_punct(&tokens[i - 1], ':') && is_punct(&tokens[i - 2], ':') {
            match i.checked_sub(3).and_then(|k| ident_of(&tokens[k])) {
                Some(q) => Receiver::Ty(q.to_string()),
                None => Receiver::Free, // turbofish or `<T as Tr>::f` — drop the qualifier
            }
        } else {
            Receiver::Free
        };
        let Some(o) = owner(i, fns) else { continue };
        fns[o].calls.push(CallSite {
            callee: name.to_string(),
            recv,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> ParsedFile {
        let (tokens, comments) = lex(src);
        parse(&tokens, &comments)
    }

    #[test]
    fn fn_items_carry_impl_type_and_visibility() {
        let src = "
            impl Comm {
                pub fn barrier(&self) { self.backend.sync(); }
                pub(crate) fn internal(&self) {}
            }
            impl HaloExchange for NoExchange {
                fn begin(&self) -> Option<u32> { None }
            }
            pub fn free_helper() {}
        ";
        let p = parse_src(src);
        let by_name = |n: &str| p.fns.iter().find(|f| f.name == n).expect("fn present");
        assert_eq!(by_name("barrier").self_ty.as_deref(), Some("Comm"));
        assert!(by_name("barrier").is_pub);
        assert!(!by_name("internal").is_pub, "pub(crate) is not public API");
        assert_eq!(by_name("begin").self_ty.as_deref(), Some("NoExchange"));
        assert_eq!(by_name("free_helper").self_ty, None);
        assert!(by_name("free_helper").is_pub);
    }

    #[test]
    fn calls_classify_by_receiver_shape() {
        let src = "
            fn f(comm: &Comm) {
                helper();
                self.step();
                comm.barrier();
                Vec::with_capacity(4);
                ctx.comm.all_gather(x);
            }
        ";
        let p = parse_src(src);
        let calls = &p.fns[0].calls;
        let find = |n: &str| calls.iter().find(|c| c.callee == n).expect("call present");
        assert_eq!(find("helper").recv, Receiver::Free);
        assert_eq!(find("step").recv, Receiver::SelfDot);
        assert_eq!(find("barrier").recv, Receiver::Var("comm".into()));
        assert_eq!(find("with_capacity").recv, Receiver::Ty("Vec".into()));
        // Chained field access resolves to the base nearest the method.
        assert_eq!(find("all_gather").recv, Receiver::Var("comm".into()));
    }

    #[test]
    fn panic_sites_and_doc_panics_sections() {
        let src = "\
/// Frobnicates.
///
/// # Panics
/// Panics when the graph is empty.
pub fn documented(x: Option<u32>) -> u32 { x.unwrap() }

/// Undocumented abort.
pub fn undocumented() { panic!(\"boom\"); }

/// Typed unwind.
pub fn typed() { std::panic::panic_any(Failure::Killed); }
";
        let p = parse_src(src);
        let doc = p.fns.iter().find(|f| f.name == "documented").expect("fn");
        let undoc = p.fns.iter().find(|f| f.name == "undocumented").expect("fn");
        assert!(doc.doc_has_panics);
        assert_eq!(doc.panics.len(), 1);
        assert_eq!(doc.panics[0].what, "`.unwrap()`");
        assert!(!undoc.doc_has_panics);
        assert_eq!(undoc.panics[0].what, "`panic!`");
        let typed = p.fns.iter().find(|f| f.name == "typed").expect("fn");
        assert_eq!(typed.panics[0].what, "`panic_any`");
        assert!(typed.calls.is_empty(), "a panic site is not a call edge");
    }

    #[test]
    fn raw_identifier_fn_is_not_a_phantom_item() {
        // `r#fn` must not start an item; `r#struct` is a plain call name.
        let src = "fn f() { let r#fn = 1; r#struct(); }";
        let p = parse_src(src);
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].calls.len(), 1);
        assert_eq!(p.fns[0].calls[0].callee, "r#struct");
    }

    #[test]
    fn nested_generics_do_not_derail_item_recovery() {
        let src = "
            impl Registry {
                fn get<T: Into<Vec<Vec<f64>>>>(&self, key: BTreeMap<String, Vec<u32>>) {
                    self.fetch(key);
                }
            }
        ";
        let p = parse_src(src);
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "get");
        assert_eq!(p.fns[0].self_ty.as_deref(), Some("Registry"));
        assert_eq!(p.fns[0].calls[0].callee, "fetch");
    }

    #[test]
    fn nested_fns_own_their_calls() {
        let src = "fn outer() { inner_call(); fn inner() { deep_call(); } }";
        let p = parse_src(src);
        let outer = p.fns.iter().find(|f| f.name == "outer").expect("fn");
        let inner = p.fns.iter().find(|f| f.name == "inner").expect("fn");
        assert_eq!(outer.calls.len(), 1);
        assert_eq!(outer.calls[0].callee, "inner_call");
        assert_eq!(inner.calls.len(), 1);
        assert_eq!(inner.calls[0].callee, "deep_call");
    }
}
