//! The communication transports: one matching engine, five worlds.
//!
//! The set is closed. Every world is the matching engine of the `engine`
//! module — a per-rank mailbox with FIFO-per-peer arrival queues, one
//! blocking wait, and the `Bye`/`Dead` liveness lifecycle — under two
//! plug-ins, a **carrier** (how a frame reaches a peer's mailbox) and a
//! **park policy** (what a blocked rank does), so per-peer ordering,
//! collective matching and failure detection cannot differ between
//! transports. [`Backend`] names the launchable worlds:
//!
//! | world | carrier | park policy | launch adds |
//! |---|---|---|---|
//! | [`Backend::Threads`] (default) | in-memory | sleep until the mailbox changes | one OS thread per rank, real concurrency (the paper's one-GPU-per-rank SPMD setup) |
//! | [`Backend::Serial`] | in-memory | baton | deterministic round-robin scheduler with a deadlock supervisor: zero-concurrency reference semantics for debugging and CI |
//! | [`Backend::Proc`] | `CGNW` frames over Unix sockets | sleep until the mailbox changes | re-exec of the binary, one OS *process* per rank, meshed through rank 0's address table: address-space isolation and real serialization cost |
//! | [`Backend::Socket`] | `CGNW` frames over TCP | sleep until the mailbox changes | the same launch and the same handshake over TCP, so a world can span machines |
//! | [`LoopbackBackend`](loopback::LoopbackBackend) | none | never parks | a world of exactly one rank on the calling thread, for persistent single-rank trainers (the `cgnn-serve` replica pool, `sysbench`'s kernel probes) |
//!
//! The engine provides raw transport primitives only; traffic accounting
//! and the deterministic reduction arithmetic live once, in [`Comm`], so
//! all worlds are bit-identical by construction. Fault injection is part
//! of the engine too: [`Backend::launch_with`] arms each rank with the kill a
//! [`FaultPlan`] scripts for it.

pub(crate) mod engine;
pub mod loopback;
pub mod proc;
pub(crate) mod serial;
pub(crate) mod threads;
pub(crate) mod wire;

use std::sync::Arc;

use crate::comm::Comm;
use crate::fault::FaultPlan;
use crate::knob::CGNN_BACKEND;
use engine::Engine;

/// Which in-tree transport an SPMD world runs on.
///
/// Selected explicitly (`Session::builder().backend(..)`,
/// [`Backend::launch`]) or through the `CGNN_BACKEND` environment variable
/// ([`Backend::from_env`], honored by [`World::run`](crate::World::run) and
/// the session default) — which is how CI matrixes the whole test suite
/// over every transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum Backend {
    /// One OS thread per rank, real concurrency (the default).
    #[default]
    Threads,
    /// Deterministic single-stepped loopback: ranks execute round-robin,
    /// one at a time.
    Serial,
    /// One OS *process* per rank (re-exec + Unix-domain-socket mesh).
    /// Returns rank 0's result only; see the [`proc`] module docs.
    Proc,
    /// [`Backend::Proc`] over TCP (can span machines via an operator-run
    /// launch: `CGNN_RANK`, `CGNN_WORLD` and `CGNN_SOCKET_ADDR` per
    /// machine). Returns rank 0's result only.
    Socket,
}

impl Backend {
    /// Display label (also the accepted `CGNN_BACKEND` values).
    pub fn label(self) -> &'static str {
        match self {
            Backend::Threads => "threads",
            Backend::Serial => "serial",
            Backend::Proc => "proc",
            Backend::Socket => "socket",
        }
    }

    /// The in-process backends, in presentation order. The cross-process
    /// transports ([`Backend::Proc`], [`Backend::Socket`]) re-exec the
    /// binary and return only rank 0's result, so suites that iterate
    /// worlds inside one process stick to these two; the cross-process
    /// equivalence and chaos suites launch the others explicitly.
    pub fn all() -> [Backend; 2] {
        [Backend::Threads, Backend::Serial]
    }

    /// Whether launching returns every rank's result in one address space
    /// (`threads`/`serial`) rather than rank 0's only (`proc`/`socket`).
    pub fn is_in_process(self) -> bool {
        matches!(self, Backend::Threads | Backend::Serial)
    }

    /// The backend named by the `CGNN_BACKEND` environment variable
    /// (`"threads"`, `"serial"`, `"proc"`, or `"socket"`,
    /// case-insensitive), defaulting to [`Backend::Threads`] when unset
    /// or empty.
    ///
    /// # Panics
    ///
    /// On any other value: config errors at startup fail loudly rather
    /// than silently testing the wrong transport.
    pub fn from_env() -> Backend {
        match CGNN_BACKEND.string_or("threads").to_ascii_lowercase().as_str() {
            "threads" => Backend::Threads,
            "serial" => Backend::Serial,
            "proc" => Backend::Proc,
            "socket" => Backend::Socket,
            #[expect(
                clippy::panic,
                reason = "config error at startup: fail loudly rather than silently testing the wrong transport"
            )]
            other => panic!(
                "unknown CGNN_BACKEND value `{other}` (expected `threads`, `serial`, `proc`, or `socket`)"
            ),
        }
    }

    /// Run `f` on `size` ranks over this transport. The in-process
    /// backends return each rank's result in rank order; the
    /// cross-process backends return rank 0's result only (the other
    /// ranks live in other processes). Panics in any rank propagate.
    pub fn launch<T, F>(self, size: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&Comm) -> T + Sync,
    {
        self.launch_with(size, f, &FaultPlan::new(), 0)
    }

    /// [`Backend::launch`] with each rank's engine armed with the kill
    /// `plan` scripts for `(attempt, rank)` (see the
    /// [`fault`](crate::fault) module docs). An empty plan reproduces
    /// `launch`. On the cross-process backends every
    /// *process* arms its own rank.
    pub fn launch_with<T, F>(self, size: usize, f: F, plan: &FaultPlan, attempt: u32) -> Vec<T>
    where
        T: Send,
        F: Fn(&Comm) -> T + Sync,
    {
        match self {
            Backend::Threads => threads::launch(size, f, plan, attempt),
            Backend::Serial => serial::launch(size, f, plan, attempt),
            Backend::Proc => proc::launch(proc::Net::Uds, size, f, plan, attempt),
            Backend::Socket => proc::launch(proc::Net::Tcp, size, f, plan, attempt),
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(self.label())
    }
}

/// Shared in-process SPMD runner: spawn one scoped thread per engine of
/// `world`, wire it into a [`Comm`] handle, run `f`, and propagate panics.
/// The engine's start/finish hooks let the park policy impose a schedule
/// (the serial backend's baton) and announce unwinds (so peers fail fast
/// instead of hanging).
///
/// When several ranks panic, every handle is joined first and the most
/// root-cause payload is re-raised: a genuine (non-fault) panic beats an
/// injected [`RankFailure::Killed`](crate::RankFailure::Killed), which
/// beats the secondary [`RankFailure::PeerDead`](crate::RankFailure)
/// aborts that cascade from it — so a chaos run reports the fault, not its echoes, and a real bug
/// is never masked by injected noise.
pub(crate) fn run_ranks<T, F>(world: Vec<Arc<Engine>>, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(&Comm) -> T + Sync,
{
    std::thread::scope(|scope| {
        let handles: Vec<_> = world
            .into_iter()
            .map(|engine| {
                let f = &f;
                scope.spawn(move || {
                    engine.on_rank_start();
                    // Runs on both return and unwind, so a panicking rank
                    // releases its scheduling slot instead of wedging peers.
                    let _finish = FinishGuard(Arc::clone(&engine));
                    f(&Comm::new(engine))
                })
            })
            .collect();
        let mut results = Vec::with_capacity(handles.len());
        let mut panics: Vec<Box<dyn std::any::Any + Send>> = Vec::new();
        for h in handles {
            match h.join() {
                Ok(t) => results.push(t),
                Err(e) => panics.push(e),
            }
        }
        if let Some(root) = panics
            .into_iter()
            .min_by_key(|p| crate::fault::RankFailure::severity(p.as_ref()))
        {
            std::panic::resume_unwind(root);
        }
        results
    })
}

struct FinishGuard(Arc<Engine>);

impl Drop for FinishGuard {
    fn drop(&mut self) {
        self.0.on_rank_finish(std::thread::panicking());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_labels_and_display() {
        for b in Backend::all() {
            assert_eq!(b.to_string(), b.label());
        }
        assert_eq!(Backend::default(), Backend::Threads);
    }
}
