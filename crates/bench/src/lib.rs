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

/// Write a serializable result as pretty JSON under `results/`.
pub fn write_json<T: serde::Serialize>(name: &str, value: &T) {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialize");
    std::fs::write(&path, json).expect("write results file");
    println!("\n[wrote {}]", path.display());
}

/// serde bridge: serde is re-exported through serde_json's dependency; the
/// bound above needs the real crate.
pub use serde;
