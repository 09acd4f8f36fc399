//! Per-file analysis context: the token stream plus the lightweight
//! structure every rule needs — `#[cfg(test)]`/`#[test]` regions, parsed
//! `// detlint: allow(rule, "reason")` suppressions, and the fn items the
//! call graph is built from.

use crate::lexer::{lex, Comment, Tok, Token};

/// What kind of source a file is; decides which rules apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// A library target (`crates/*/src/**` except `src/bin`, root `src/`).
    Lib,
    /// A binary target (`src/bin/**`, `src/main.rs`).
    Bin,
    /// An example (`examples/**`).
    Example,
    /// Test-like code: integration `tests/**`, `benches/**`.
    Test,
}

/// A half-open token-index span `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// First token index of the span.
    pub start: usize,
    /// One past the last token index.
    pub end: usize,
}

impl Span {
    /// Whether token index `i` lies inside the span.
    pub fn contains(&self, i: usize) -> bool {
        self.start <= i && i < self.end
    }
}

/// One parsed suppression comment.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// 1-based line the comment sits on.
    pub line: u32,
    /// The rule it suppresses.
    pub rule: String,
}

/// A malformed suppression comment (missing rule or missing/empty
/// reason) — reported as a diagnostic by the engine, because reasonless
/// suppressions defeat the whole point of mandatory justifications.
#[derive(Debug, Clone)]
pub struct BadSuppression {
    /// 1-based line of the malformed comment.
    pub line: u32,
    /// Why it is malformed.
    pub why: &'static str,
}

/// Everything the rules need about one file.
pub struct FileContext {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// The file's role.
    pub kind: FileKind,
    /// Comment-free token stream.
    pub tokens: Vec<Token>,
    /// Source lines, for diagnostics snippets.
    pub lines: Vec<String>,
    /// Token spans under `#[cfg(test)]` / `#[test]` items.
    pub test_spans: Vec<Span>,
    /// Well-formed suppression comments.
    pub suppressions: Vec<Suppression>,
    /// Malformed suppression comments.
    pub bad_suppressions: Vec<BadSuppression>,
    /// Structural recovery: fn items with their calls and panic sites
    /// (see [`crate::parser`]).
    pub parsed: crate::parser::ParsedFile,
}

impl FileContext {
    /// Lex and structure `src`.
    pub fn new(path: &str, kind: FileKind, src: &str) -> Self {
        let (tokens, comments) = lex(src);
        let test_spans = find_test_spans(&tokens);
        let (suppressions, bad_suppressions) = parse_suppressions(&comments);
        let parsed = crate::parser::parse(&tokens, &comments);
        FileContext {
            path: path.to_string(),
            kind,
            tokens,
            lines: src.lines().map(|l| l.to_string()).collect(),
            test_spans,
            suppressions,
            bad_suppressions,
            parsed,
        }
    }

    /// Whether token index `i` is inside test-only code.
    pub fn in_test(&self, i: usize) -> bool {
        self.kind == FileKind::Test || self.test_spans.iter().any(|s| s.contains(i))
    }

    /// Whether a finding of `rule` at `line` is suppressed: a suppression
    /// comment covers its own line and the line immediately below it (the
    /// conventional "comment above the offending line" placement).
    pub fn suppressed(&self, rule: &str, line: u32) -> bool {
        self.suppressions
            .iter()
            .any(|s| s.rule == rule && (s.line == line || s.line + 1 == line))
    }

    /// The trimmed source line for a diagnostic snippet.
    pub fn snippet(&self, line: u32) -> String {
        let text = self
            .lines
            .get(line as usize - 1)
            .map(|l| l.trim())
            .unwrap_or_default();
        let mut s: String = text.chars().take(96).collect();
        if s.len() < text.len() {
            s.push('\u{2026}');
        }
        s
    }
}

/// Matching an identifier token.
pub fn is_ident(tok: &Token, name: &str) -> bool {
    matches!(&tok.kind, Tok::Ident(s) if s == name)
}

/// The identifier payload, if this token is one.
pub fn ident_of(tok: &Token) -> Option<&str> {
    match &tok.kind {
        Tok::Ident(s) => Some(s.as_str()),
        _ => None,
    }
}

/// Whether the token is a specific punctuation character.
pub fn is_punct(tok: &Token, c: char) -> bool {
    matches!(tok.kind, Tok::Punct(p) if p == c)
}

/// Find the token index of the brace matching the `{` at `open` (which
/// must point at a `{`); returns the index one past the matching `}` — or
/// the end of the stream for unbalanced input.
fn matching_brace_end(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        match t.kind {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
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

/// Token spans of items attributed `#[test]` or `#[cfg(test)]` (but not
/// `#[cfg(not(test))]`). The span runs from the attribute to the end of
/// the following item's braces (or its terminating `;`).
fn find_test_spans(tokens: &[Token]) -> Vec<Span> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !is_punct(&tokens[i], '#') || i + 1 >= tokens.len() || !is_punct(&tokens[i + 1], '[') {
            i += 1;
            continue;
        }
        // Collect idents inside the attribute's brackets.
        let mut j = i + 2;
        let mut depth = 1usize;
        let mut idents: Vec<&str> = Vec::new();
        while j < tokens.len() && depth > 0 {
            match &tokens[j].kind {
                Tok::Punct('[') => depth += 1,
                Tok::Punct(']') => depth -= 1,
                Tok::Ident(s) => idents.push(s.as_str()),
                _ => {}
            }
            j += 1;
        }
        let is_test_attr = match idents.first() {
            Some(&"test") => true,
            Some(&"cfg") => idents.contains(&"test") && !idents.contains(&"not"),
            _ => false,
        };
        if !is_test_attr {
            i = j;
            continue;
        }
        // Skip any further attributes, then span the item body.
        let mut k = j;
        while k + 1 < tokens.len() && is_punct(&tokens[k], '#') && is_punct(&tokens[k + 1], '[') {
            let mut d = 1usize;
            k += 2;
            while k < tokens.len() && d > 0 {
                match tokens[k].kind {
                    Tok::Punct('[') => d += 1,
                    Tok::Punct(']') => d -= 1,
                    _ => {}
                }
                k += 1;
            }
        }
        // Find the item's opening brace (or `;` for brace-less items).
        let mut open = k;
        while open < tokens.len() && !is_punct(&tokens[open], '{') && !is_punct(&tokens[open], ';')
        {
            open += 1;
        }
        let end = if open < tokens.len() && is_punct(&tokens[open], '{') {
            matching_brace_end(tokens, open)
        } else {
            open.saturating_add(1).min(tokens.len())
        };
        spans.push(Span { start: i, end });
        i = end;
    }
    spans
}

/// Parse `detlint: allow(rule, "reason")` comments. The reason is
/// mandatory and must be a non-empty quoted string.
fn parse_suppressions(comments: &[Comment]) -> (Vec<Suppression>, Vec<BadSuppression>) {
    let mut good = Vec::new();
    let mut bad = Vec::new();
    for c in comments {
        // Only comments that *start* with the marker are suppressions;
        // prose that merely mentions `detlint:` (doc comments, this very
        // function) is not.
        let Some(rest) = c.text.trim_start().strip_prefix("detlint:") else {
            continue;
        };
        let rest = rest.trim();
        let Some(args) = rest
            .strip_prefix("allow(")
            .and_then(|r| r.strip_suffix(')'))
        else {
            bad.push(BadSuppression {
                line: c.line,
                why: "expected `detlint: allow(<rule>, \"<reason>\")`",
            });
            continue;
        };
        let Some((rule, reason)) = args.split_once(',') else {
            bad.push(BadSuppression {
                line: c.line,
                why: "suppression must carry a reason: `allow(<rule>, \"<reason>\")`",
            });
            continue;
        };
        let rule = rule.trim();
        let reason = reason.trim();
        let documented = reason.len() > 2 && reason.starts_with('"') && reason.ends_with('"');
        if rule.is_empty() || !documented {
            bad.push(BadSuppression {
                line: c.line,
                why: "suppression reason must be a non-empty quoted string",
            });
            continue;
        }
        good.push(Suppression {
            line: c.line,
            rule: rule.to_string(),
        });
    }
    (good, bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_spans_cover_cfg_test_mod() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n  fn inner() { x.iter(); }\n}\n";
        let ctx = FileContext::new("a.rs", FileKind::Lib, src);
        let iter_idx = ctx
            .tokens
            .iter()
            .position(|t| is_ident(t, "iter"))
            .expect("iter token present");
        assert!(ctx.in_test(iter_idx));
        assert!(!ctx.in_test(0));
    }

    #[test]
    fn cfg_not_test_is_live_code() {
        let src = "#[cfg(not(test))]\nmod live { fn f() { x.iter(); } }\n";
        let ctx = FileContext::new("a.rs", FileKind::Lib, src);
        assert!(ctx.test_spans.is_empty());
    }

    #[test]
    fn test_attr_fn_is_covered() {
        let src = "#[test]\nfn check() { map.keys(); }\nfn live() {}\n";
        let ctx = FileContext::new("a.rs", FileKind::Lib, src);
        let keys_idx = ctx
            .tokens
            .iter()
            .position(|t| is_ident(t, "keys"))
            .expect("keys token present");
        assert!(ctx.in_test(keys_idx));
        let live_idx = ctx
            .tokens
            .iter()
            .position(|t| is_ident(t, "live"))
            .expect("live token present");
        assert!(!ctx.in_test(live_idx));
    }

    #[test]
    fn suppressions_require_reasons() {
        let src = "\
// detlint: allow(terse-expect, \"the message is the variant name\")\n\
// detlint: allow(terse-expect)\n\
// detlint: allow(hotpath-reachability, \"\")\n";
        let ctx = FileContext::new("a.rs", FileKind::Lib, src);
        assert_eq!(ctx.suppressions.len(), 1);
        assert_eq!(ctx.bad_suppressions.len(), 2);
        assert!(ctx.suppressed("terse-expect", 1));
        assert!(ctx.suppressed("terse-expect", 2));
        assert!(!ctx.suppressed("terse-expect", 3));
    }
}
