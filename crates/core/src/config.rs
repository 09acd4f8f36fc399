//! Central registry of every `CGNN_*` environment knob.
//!
//! Every environment variable the workspace reads is declared as an
//! [`EnvKnob`] carrying its name, documented default, and a one-line
//! description, and listed in [`KNOBS`]. The registry is load-bearing in
//! three ways:
//!
//! 1. **Single source of truth** — the "Environment knobs" table in the
//!    repository README is rendered from [`KNOBS`] and a unit test keeps
//!    the two in sync.
//! 2. **One read path** — [`EnvKnob::lookup`] holds the workspace's only
//!    `std::env::var` call; clippy's `disallowed-methods` (root
//!    `clippy.toml`) rejects a raw read anywhere else, so a read needs an
//!    `EnvKnob` value rather than a bare string.
//! 3. **One home per knob** — the knobs the comm launch machinery reads
//!    (`CGNN_BACKEND`, the cross-process handshake) are
//!    declared in `cgnn_comm::knob`, below this crate, and re-exported
//!    here; the rest are declared in this module.
//!
//! Defaults listed as text are documentation: the operative default lives
//! at the call site (several binaries use different scales for the same
//! knob), and the table records the common case.

pub use cgnn_comm::knob::{
    EnvKnob, CGNN_BACKEND, CGNN_PROC_DIR, CGNN_PROC_SEQ, CGNN_RANK, CGNN_SOCKET_ADDR, CGNN_WORLD,
};

/// Epoch/iteration count used by the examples and figure binaries.
pub const CGNN_ITERS: EnvKnob = EnvKnob {
    name: "CGNN_ITERS",
    default: "30\u{2013}100 (per binary)",
    doc: "Training epochs in the examples and `fig6_right`.",
};

/// Cubic element count per axis for the examples and figure binaries.
pub const CGNN_ELEMS: EnvKnob = EnvKnob {
    name: "CGNN_ELEMS",
    default: "8\u{2013}12 (per binary)",
    doc: "Elements per axis of the Taylor-Green mesh in examples and \
          figure binaries (paper scale: 32).",
};

/// Rank-sweep cap for `fig6_left`.
pub const CGNN_MAXR: EnvKnob = EnvKnob {
    name: "CGNN_MAXR",
    default: "64",
    doc: "Largest rank count swept by `fig6_left`.",
};

/// `cgnn-serve`: TCP bind address of the inference server.
pub const CGNN_SERVE_ADDR: EnvKnob = EnvKnob {
    name: "CGNN_SERVE_ADDR",
    default: "127.0.0.1:7878",
    doc: "`cgnn-serve` bind address (`host:port`; port 0 picks an \
          ephemeral port, printed at startup).",
};

/// `cgnn-serve`: number of warm model replicas in the data plane.
pub const CGNN_SERVE_REPLICAS: EnvKnob = EnvKnob {
    name: "CGNN_SERVE_REPLICAS",
    default: "1",
    doc: "`cgnn-serve` warm replica count (each owns a loopback trainer \
          and pooled tape).",
};

/// `cgnn-serve`: bounded request-queue capacity (backpressure point).
pub const CGNN_SERVE_QUEUE_CAP: EnvKnob = EnvKnob {
    name: "CGNN_SERVE_QUEUE_CAP",
    default: "256",
    doc: "`cgnn-serve` request queue capacity; a full queue answers \
          `503` instead of buffering unboundedly.",
};

/// `cgnn-serve`: checkpoint-directory poll period for hot reload.
pub const CGNN_SERVE_POLL_MS: EnvKnob = EnvKnob {
    name: "CGNN_SERVE_POLL_MS",
    default: "500",
    doc: "`cgnn-serve` control-plane poll period (ms, at least 1) for \
          new checkpoints in `CGNN_SERVE_CKPT_DIR`.",
};

/// `cgnn-serve`: checkpoint directory watched for hot reload.
pub const CGNN_SERVE_CKPT_DIR: EnvKnob = EnvKnob {
    name: "CGNN_SERVE_CKPT_DIR",
    default: "unset (serve seeded weights)",
    doc: "`cgnn-serve` checkpoint directory: the newest `step-*.ckpt` is \
          loaded at startup and hot-swapped as training writes more.",
};

/// `cgnn-serve`: model architecture preset.
pub const CGNN_SERVE_MODEL: EnvKnob = EnvKnob {
    name: "CGNN_SERVE_MODEL",
    default: "small",
    doc: "`cgnn-serve` model preset (`small` or `large`); must match the \
          checkpoints being served.",
};

/// `cgnn-serve`: elements per axis of the served mesh.
pub const CGNN_SERVE_ELEMS: EnvKnob = EnvKnob {
    name: "CGNN_SERVE_ELEMS",
    default: "4",
    doc: "Elements per axis of the mesh `cgnn-serve` serves predictions \
          on (GLL order fixed at 2).",
};

/// Elastic-recovery budget: how many world rebuilds
/// `Session::train_epochs_elastic` attempts before giving up.
pub const CGNN_FAULT_MAX_RETRIES: EnvKnob = EnvKnob {
    name: "CGNN_FAULT_MAX_RETRIES",
    default: "4",
    doc: "Elastic training recovery budget: world rebuilds attempted \
          before `RetriesExhausted`.",
};

/// Seed for the chaos suite's seeded fault plans (CI sweeps it).
pub const CGNN_FAULT_SEED: EnvKnob = EnvKnob {
    name: "CGNN_FAULT_SEED",
    default: "0",
    doc: "Chaos-suite seed for `FaultPlan::seeded` (picks the victim \
          rank and kill op); any fixed value replays the same failure.",
};

/// Every declared knob, in presentation order (the README table order).
pub const KNOBS: &[&EnvKnob] = &[
    &CGNN_BACKEND,
    &CGNN_RANK,
    &CGNN_WORLD,
    &CGNN_PROC_SEQ,
    &CGNN_PROC_DIR,
    &CGNN_SOCKET_ADDR,
    &CGNN_ITERS,
    &CGNN_ELEMS,
    &CGNN_MAXR,
    &CGNN_SERVE_ADDR,
    &CGNN_SERVE_REPLICAS,
    &CGNN_SERVE_QUEUE_CAP,
    &CGNN_SERVE_POLL_MS,
    &CGNN_SERVE_CKPT_DIR,
    &CGNN_SERVE_MODEL,
    &CGNN_SERVE_ELEMS,
    &CGNN_FAULT_MAX_RETRIES,
    &CGNN_FAULT_SEED,
];

/// Render the registry as the markdown table embedded in the README
/// ("Environment knobs" section). A unit test asserts the README copy is
/// byte-identical, so editing either side without the other fails CI.
pub fn knobs_markdown_table() -> String {
    let mut out = String::from("| Variable | Default | Controls |\n|---|---|---|\n");
    for k in KNOBS {
        out.push_str(&format!("| `{}` | {} | {} |\n", k.name, k.default, k.doc));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knob_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = KNOBS.iter().map(|k| k.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate knob names");
        for k in KNOBS {
            assert!(
                k.name.starts_with("CGNN_"),
                "unexpected knob prefix: {}",
                k.name
            );
            assert!(!k.doc.is_empty(), "{} has no doc line", k.name);
            assert!(!k.default.is_empty(), "{} has no default", k.name);
        }
    }

    #[test]
    fn readme_table_matches_registry() {
        let readme =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
                .expect("README.md at workspace root");
        let table = knobs_markdown_table();
        assert!(
            readme.contains(&table),
            "README 'Environment knobs' table is out of sync with \
             cgnn_core::config::KNOBS — regenerate it with \
             knobs_markdown_table() (expected block:\n{table})"
        );
    }
}
