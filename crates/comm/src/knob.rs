//! Environment knobs: the one read path for every `CGNN_*` variable.
//!
//! An [`EnvKnob`] names a variable with its documented default and a
//! one-line description. [`EnvKnob::lookup`] holds the workspace's only
//! `std::env::var` call; clippy's `disallowed-methods` (root
//! `clippy.toml`) rejects a raw read anywhere else, so reading a variable
//! means having a knob for it. This crate declares the knobs its launch
//! machinery reads; `cgnn_core::config` re-exports them and declares the
//! rest, and its `KNOBS` list renders the README table.

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
    /// The value of the variable, if set and non-empty: an empty value
    /// reads as unset.
    #[expect(
        clippy::disallowed_methods,
        reason = "the one sanctioned environment read: every knob goes through here"
    )]
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
            #[expect(
                clippy::panic,
                reason = "config error at startup: a mistyped knob value fails loudly, naming the knob, rather than running on the default"
            )]
            Some(v) => v.parse().unwrap_or_else(|_| {
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

/// Cross-process launch handshake: which launch (1-based sequence number
/// within the program/scope) a re-exec'd child should join; earlier
/// launches are replayed in-process on the serial backend.
pub const CGNN_PROC_SEQ: EnvKnob = EnvKnob {
    name: "CGNN_PROC_SEQ",
    default: "unset (operator-run rank)",
    doc: "Cross-process handshake: launch sequence number a re-exec'd \
          child joins (earlier launches replay deterministically \
          in-process); an operator-run rank leaves it unset and joins \
          every launch.",
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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn an_empty_value_reads_as_unset() {
        // A name no other test reads, so setting it races with nothing.
        let knob = EnvKnob {
            name: "CGNN_TEST_EMPTY_KNOB",
            default: "3",
            doc: "test",
        };
        std::env::set_var(knob.name, "");
        assert_eq!(knob.lookup(), None);
        assert_eq!(knob.usize_or(3), 3);
        assert_eq!(knob.string_or("x"), "x");
    }
}
