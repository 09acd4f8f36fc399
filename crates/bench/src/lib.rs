//! Shared helpers for the paper's regeneration binaries: every table and
//! figure of the evaluation section has one in `src/bin/`. Timings come
//! from `sysbench/` (see `sysbench/README.md`), not from this crate.
//!
//! | Paper artifact | Binary |
//! |---|---|
//! | Table I (model settings)            | `table1` |
//! | Table II (sub-graph statistics)     | `table2` |
//! | Fig. 6 left (loss vs R)             | `fig6_left` |
//! | Fig. 6 right (training curves)      | `fig6_right` |
//! | Fig. 7 (weak scaling)               | `fig7` |
//! | Fig. 8 (relative throughput)        | `fig8` |

use cgnn_mesh::TaylorGreen;
use cgnn_session::Session;

/// Evaluate the consistent loss of a seeded, randomly initialized GNN with
/// the input as target (the paper's Fig. 6 demonstration protocol), for
/// the session's configuration. Sessions carrying a snapshot dataset are
/// scored as the mean over the whole stream; plain sessions fall back to
/// the single `t = 0` Taylor-Green snapshot. Identical on every rank.
pub fn demo_loss(session: &Session) -> f64 {
    if session.dataset().is_some() {
        session.eval_dataset()
    } else {
        session.initial_loss(&TaylorGreen::new(0.01), 0.0)
    }
}

/// A JSON value as the result files need it: `Int` and `Num` print apart
/// (`2` vs `2.0`, non-finite `Num` as `null`), `Obj` keeps field order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Int(i64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(&'static str, Json)>),
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Int(v as i64)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}

impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Json::Arr(iter.into_iter().map(Into::into).collect())
    }
}

impl Json {
    /// Two-space-indented JSON text, without a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        let (open, close, items): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Int(i) => return out.push_str(&i.to_string()),
            Json::Num(f) if f.is_finite() => return out.push_str(&format!("{f:?}")),
            Json::Num(_) => return out.push_str("null"),
            Json::Str(s) => return write_str(out, s),
            Json::Arr(a) => ('[', ']', a.iter().map(|v| (None, v)).collect()),
            Json::Obj(o) => ('{', '}', o.iter().map(|(k, v)| (Some(*k), v)).collect()),
        };
        out.push(open);
        for (i, (key, v)) in items.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&"  ".repeat(depth + 1));
            if let Some(k) = key {
                write_str(out, k);
                out.push_str(": ");
            }
            v.write(out, depth + 1);
        }
        if !items.is_empty() {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        }
        out.push(close);
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => out.extend(['\\', c]),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Write a result as pretty JSON under `results/`.
///
/// # Panics
/// If the file cannot be written: a figure binary has no other use for its
/// result.
#[expect(
    clippy::expect_used,
    reason = "a figure binary has no use for a result it cannot write; `# Panics` says so"
)]
pub fn write_json(name: &str, value: &Json) {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, value.pretty()).expect("write results file");
    println!("\n[wrote {}]", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_keeps_ints_and_floats_apart_and_escapes_strings() {
        let v = Json::Obj(vec![
            ("a", 1usize.into()),
            ("b", [2.0, f64::NAN, 1e-7].into_iter().collect()),
            ("s", Json::Str("a\"b\\c\nd\u{1}".into())),
            ("e", Json::Arr(vec![])),
        ]);
        assert_eq!(
            v.pretty(),
            "{\n  \"a\": 1,\n  \"b\": [\n    2.0,\n    null,\n    1e-7\n  ],\n  \
             \"s\": \"a\\\"b\\\\c\\nd\\u0001\",\n  \"e\": []\n}"
        );
    }
}
