//! Central registry of every `CGNN_*` environment knob.
//!
//! Every environment variable the workspace reads is declared here as an
//! [`EnvKnob`] carrying its name, documented default, and a one-line
//! description. The registry is load-bearing in three ways:
//!
//! 1. **Single source of truth** — the "Environment knobs" table in the
//!    repository README is rendered from [`KNOBS`] and a unit test keeps
//!    the two in sync.
//! 2. **Machine-checked** — `cgnn-analyze`'s `env-var-registry` lint
//!    rejects any `std::env::var` read in the workspace whose variable
//!    name is not declared below, so ad-hoc knobs cannot accrete.
//! 3. **Sanctioned read point** — [`EnvKnob::lookup`] is the one place
//!    raw `std::env::var` happens for registry knobs; call sites that
//!    cannot depend on `cgnn-core` (e.g. `cgnn-comm`, which `cgnn-core`
//!    itself depends on) read their literal name directly, and the lint
//!    verifies the literal is declared here.
//!
//! Defaults listed as text are documentation: the operative default lives
//! at the call site (several binaries use different scales for the same
//! knob), and the table records the common case.

/// One declared environment variable: its name, documented default, and
/// what it controls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnvKnob {
    /// The environment variable name (`CGNN_*`).
    pub name: &'static str,
    /// Human-readable default shown in the README table.
    pub default: &'static str,
    /// One-line description of what the knob controls.
    pub doc: &'static str,
}

impl EnvKnob {
    /// Raw registry read: the value of the variable, if set and non-empty.
    ///
    /// This is the sanctioned `std::env::var` site for registry knobs —
    /// the `env-var-registry` lint whitelists this file and rejects
    /// unregistered reads everywhere else.
    pub fn lookup(&self) -> Option<String> {
        std::env::var(self.name).ok().filter(|v| !v.is_empty())
    }

    /// The knob parsed as `usize`, or `default` when unset.
    ///
    /// # Panics
    ///
    /// When the variable is set to something that is not a `usize`: a
    /// mistyped value must not silently become the default.
    pub fn usize_or(&self, default: usize) -> usize {
        match self.lookup() {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| {
                // detlint: allow(unwrap-in-lib, "config error at startup: a mistyped knob value fails loudly, naming the knob, rather than running on the default")
                panic!("{} must be a non-negative integer, got `{v}`", self.name)
            }),
        }
    }

    /// The knob as a string, or `default` when unset.
    pub fn string_or(&self, default: &str) -> String {
        self.lookup().unwrap_or_else(|| default.to_string())
    }
}

/// Communication transport selection, honored by `World::run` and the
/// session default.
pub const CGNN_BACKEND: EnvKnob = EnvKnob {
    name: "CGNN_BACKEND",
    default: "threads",
    doc: "Comm transport: `threads` (one OS thread per rank), `serial` \
          (deterministic round-robin loopback), `proc` (one OS process \
          per rank), or `socket` (one process per rank over TCP).",
};

/// Cross-process launch handshake: this process's rank index. Set by the
/// `proc`/`socket` spawner on re-exec'd children, or by an operator for
/// a manual (multi-machine) launch.
pub const CGNN_RANK: EnvKnob = EnvKnob {
    name: "CGNN_RANK",
    default: "unset (this process spawns the world)",
    doc: "Cross-process handshake: rank index of this process; unset \
          means \"spawn the world and run rank 0 inline\".",
};

/// Cross-process launch handshake: world size, cross-checked against the
/// program's own launch call.
pub const CGNN_WORLD: EnvKnob = EnvKnob {
    name: "CGNN_WORLD",
    default: "unset",
    doc: "Cross-process handshake: expected world size (cross-checked \
          against the program's launch; divergence fails loudly).",
};

/// Cross-process launch handshake: marks a re-exec'd child (as opposed to
/// a manually launched rank), which reports failures via `rank{r}.fail`
/// and exits when its rank completes.
pub const CGNN_LAUNCHED: EnvKnob = EnvKnob {
    name: "CGNN_LAUNCHED",
    default: "unset",
    doc: "Cross-process handshake: set (to `1`) on re-exec'd child ranks; \
          unset for operator-run (manual multi-machine) ranks.",
};

/// Cross-process launch handshake: which launch (1-based sequence number
/// within the program/scope) a re-exec'd child should join; earlier
/// launches are replayed in-process on the serial backend.
pub const CGNN_PROC_SEQ: EnvKnob = EnvKnob {
    name: "CGNN_PROC_SEQ",
    default: "1",
    doc: "Cross-process handshake: launch sequence number the child \
          joins; earlier launches replay deterministically in-process.",
};

/// Cross-process rendezvous directory (Unix sockets, child logs,
/// `rank{r}.fail` reports). For the spawner a base directory; for a
/// joining rank the concrete per-launch directory.
pub const CGNN_PROC_DIR: EnvKnob = EnvKnob {
    name: "CGNN_PROC_DIR",
    default: "system temp dir",
    doc: "Cross-process rendezvous directory (UDS mesh sockets, child \
          logs, failure reports); spawner treats it as a base directory.",
};

/// TCP rendezvous address of the socket backend's rank 0.
pub const CGNN_SOCKET_ADDR: EnvKnob = EnvKnob {
    name: "CGNN_SOCKET_ADDR",
    default: "127.0.0.1:0 (spawner picks an ephemeral port)",
    doc: "Socket-backend rendezvous address (`host:port`) where rank 0 \
          listens; required for manual multi-machine launches.",
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
    doc: "`cgnn-serve` control-plane poll period (ms) for new \
          checkpoints in `CGNN_SERVE_CKPT_DIR`.",
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

/// Liveness-probe heartbeat of the comm engine's heartbeat park policy
/// (threads, proc, socket): how often a blocked collective/receive
/// re-checks the peer table.
pub const CGNN_FAULT_HEARTBEAT_MS: EnvKnob = EnvKnob {
    name: "CGNN_FAULT_HEARTBEAT_MS",
    default: "25",
    doc: "Comm liveness heartbeat (ms): how often a rank blocked in a \
          collective or receive re-checks for dead peers (threads, proc \
          and socket transports).",
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
    &CGNN_LAUNCHED,
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
    &CGNN_FAULT_HEARTBEAT_MS,
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
    fn usize_or_parses_and_defaults() {
        // Use a name that is never set in CI.
        let knob = EnvKnob {
            name: "CGNN_TEST_UNSET_KNOB",
            default: "7",
            doc: "test",
        };
        assert_eq!(knob.usize_or(7), 7);
        assert_eq!(knob.string_or("x"), "x");
        assert!(knob.lookup().is_none());
    }

    #[test]
    #[should_panic(expected = "CGNN_TEST_MISTYPED_KNOB must be a non-negative integer")]
    fn usize_or_rejects_an_unparsable_value_by_name() {
        // A name no other test reads, so setting it races with nothing.
        let knob = EnvKnob {
            name: "CGNN_TEST_MISTYPED_KNOB",
            default: "1",
            doc: "test",
        };
        std::env::set_var(knob.name, "two");
        knob.usize_or(1);
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
