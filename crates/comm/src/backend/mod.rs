//! Pluggable communication transports.
//!
//! The front-end [`Comm`] handle is backend-agnostic: every
//! collective, point-to-point, and accounting path goes through the
//! object-safe [`CommBackend`] trait, so a new transport (a real MPI/NCCL
//! binding, a network simulator) is a new `impl`, not a rewrite of
//! `cgnn-core`.
//!
//! In-tree there is exactly one implementation — the matching engine in
//! the `engine` module: a per-rank mailbox with FIFO-per-peer arrival
//! queues, one blocking wait, and the `Bye`/`Dead` liveness lifecycle.
//! Every world below is that engine plus two plug-ins, a **carrier**
//! (how a frame reaches a peer's mailbox) and a **park policy** (what a
//! blocked rank does), so per-peer ordering, collective matching and
//! failure detection cannot differ between transports:
//!
//! | world | carrier | park policy | launcher adds |
//! |---|---|---|---|
//! | [`ThreadWorld`](threads::ThreadWorld) (default) | in-memory | heartbeat | one OS thread per rank, real concurrency (the paper's one-GPU-per-rank SPMD setup) |
//! | [`SerialBackend`](serial::SerialBackend) | in-memory | baton | deterministic round-robin scheduler with a deadlock supervisor: zero-concurrency reference semantics for debugging and CI |
//! | [`ProcWorld`](proc::ProcWorld) | `CGNW` frames over Unix sockets | heartbeat | re-exec of the binary, one OS *process* per rank: address-space isolation, real serialization cost, per-rank thread budgets that actually hold |
//! | [`SocketWorld`](socket::SocketWorld) | `CGNW` frames over TCP | heartbeat | the same launch over a full TCP mesh, spanning machines via a rank-0 rendezvous listener |
//! | [`LoopbackBackend`](loopback::LoopbackBackend) | none | never parks | a world of exactly one rank on the calling thread, for persistent single-rank trainers (the `cgnn-serve` replica pool, `sysbench`'s kernel probes) |
//!
//! The engine provides raw transport primitives only; traffic accounting
//! and the deterministic reduction arithmetic live once, in [`Comm`], so
//! all worlds are bit-identical by construction.
//! [`FaultInjector`](crate::FaultInjector) is the one other
//! [`CommBackend`]: a decorator that wraps any of them.
//!
//! # Implementing a custom backend
//!
//! A minimal single-rank loopback transport (collectives are identities,
//! point-to-point is unreachable at world size 1):
//!
//! ```
//! use std::sync::Arc;
//! use cgnn_comm::{Comm, CommBackend, RankStats, RecvOp};
//!
//! struct Loopback {
//!     stats: RankStats,
//! }
//!
//! impl CommBackend for Loopback {
//!     fn rank(&self) -> usize {
//!         0
//!     }
//!     fn size(&self) -> usize {
//!         1
//!     }
//!     fn label(&self) -> &'static str {
//!         "loopback"
//!     }
//!     fn barrier(&self) {}
//!     fn all_gather(&self, _label: &'static str, data: Vec<f64>) -> Vec<Vec<f64>> {
//!         vec![data]
//!     }
//!     fn all_to_all(&self, send: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
//!         send
//!     }
//!     fn send(&self, _dst: usize, _tag: u32, _data: Vec<f64>) {
//!         unreachable!("no peers in a single-rank world")
//!     }
//!     fn irecv(&self, _src: usize) -> Box<dyn RecvOp> {
//!         unreachable!("no peers in a single-rank world")
//!     }
//!     fn stats(&self) -> &RankStats {
//!         &self.stats
//!     }
//! }
//!
//! let comm = Comm::from_backend(Arc::new(Loopback {
//!     stats: RankStats::default(),
//! }));
//! assert_eq!(comm.all_reduce_scalar(2.5), 2.5);
//! assert_eq!(comm.backend_label(), "loopback");
//! ```

pub(crate) mod budget;
pub(crate) mod engine;
pub mod loopback;
pub mod proc;
pub mod serial;
pub mod socket;
pub mod threads;
pub(crate) mod wire;

use std::collections::HashMap;
use std::sync::Arc;

use crate::comm::Comm;
use crate::stats::RankStats;

/// Message on a point-to-point channel: `(tag, payload)`.
pub(crate) type P2pMsg = (u32, Vec<f64>);

/// An object-safe communication transport for one rank of an SPMD world.
///
/// Implementations supply *raw* primitives: deterministic rank-ordered
/// reductions, traffic counting, and tag checking are layered on top by
/// [`Comm`], identically for every backend. The contract per method:
///
/// * `all_gather` is a labeled collective: every rank contributes one
///   buffer, the result is indexed by rank and identical everywhere, and
///   mismatched `label`s across ranks must fail loudly (they indicate
///   diverged collective schedules).
/// * `all_to_all` takes one buffer per destination rank and returns one
///   buffer per source rank; empty buffers mean "no traffic".
/// * `send` is buffered and never blocks; `recv`/`irecv` match messages
///   from a given source strictly in posting order (FIFO per peer pair,
///   like a single-communicator MPI with deterministic tags).
/// * [`CommBackend::isend`]/[`CommBackend::irecv`] are the non-blocking
///   ops; the default `isend` completes immediately (correct for any
///   buffered transport), and `recv` is provided as `irecv` + wait.
pub trait CommBackend: Send + Sync {
    /// This rank's index in `0..size`.
    fn rank(&self) -> usize;

    /// World size.
    fn size(&self) -> usize;

    /// Transport label (`"threads"`, `"serial"`, ...) for diagnostics.
    fn label(&self) -> &'static str;

    /// Block until every rank has entered the barrier.
    fn barrier(&self);

    /// Gather every rank's `data`; result indexed by rank, identical on
    /// all ranks. `label` names the collective for schedule-divergence
    /// detection.
    fn all_gather(&self, label: &'static str, data: Vec<f64>) -> Vec<Vec<f64>>;

    /// Exchange `send[dst]` buffers; returns `recv[src]`.
    fn all_to_all(&self, send: Vec<Vec<f64>>) -> Vec<Vec<f64>>;

    /// Buffered point-to-point send; never blocks.
    fn send(&self, dst: usize, tag: u32, data: Vec<f64>);

    /// Post a non-blocking receive for the next unmatched message from
    /// `src`. Matching is strictly FIFO per source; the returned op is
    /// completed (on the posting rank) via [`RecvOp::take`] or polled via
    /// [`RecvOp::try_take`].
    fn irecv(&self, src: usize) -> Box<dyn RecvOp>;

    /// Begin a non-blocking send. The default completes immediately,
    /// which is correct for any transport whose `send` buffers; the
    /// in-tree engine returns an op that completes once its carrier has
    /// taken the payload off this rank (at once in memory, after the
    /// socket write over a stream).
    fn isend(&self, dst: usize, tag: u32, data: Vec<f64>) -> Box<dyn SendOp> {
        self.send(dst, tag, data);
        Box::new(CompletedSend)
    }

    /// Blocking receive of the next unmatched message from `src`,
    /// returning `(tag, payload)`.
    fn recv(&self, src: usize) -> P2pMsg {
        self.irecv(src).take()
    }

    /// This rank's traffic counters (owned by the backend so clones of the
    /// handle share them).
    fn stats(&self) -> &RankStats;

    /// Hook run on the rank's thread before the SPMD closure starts.
    fn on_rank_start(&self) {}

    /// Hook run when the SPMD closure finishes (or unwinds, in which case
    /// `panicked` is true).
    fn on_rank_finish(&self, panicked: bool) {
        let _ = panicked;
    }

    /// Liveness probe, write side: declare this rank dead to the world.
    ///
    /// Transports with peer tracking (every in-tree multi-rank world)
    /// record the death so peers blocked in collectives or receives abort
    /// with [`RankFailure::PeerDead`](crate::RankFailure::PeerDead) instead
    /// of hanging. The default is a no-op, correct for transports without
    /// liveness tracking (e.g. single-rank loopbacks, where there is no
    /// peer to warn).
    fn mark_dead(&self) {}

    /// Liveness probe, read side: ranks known to have died in this world,
    /// in ascending order. Default: none.
    fn dead_ranks(&self) -> Vec<usize> {
        Vec::new()
    }

    /// Whether ranks of this world are scheduled cooperatively: one runs
    /// at a time and control changes hands only inside a *blocking* comm
    /// call (the serial world's baton). A caller must then never spin on
    /// [`RecvOp::try_take`] or [`SendOp::try_complete`] — no peer runs
    /// until it blocks. Default: `false` (real concurrency).
    fn is_cooperative(&self) -> bool {
        false
    }
}

/// An in-flight non-blocking send, produced by [`CommBackend::isend`].
pub trait SendOp: Send {
    /// Poll for completion without blocking.
    fn try_complete(&mut self) -> bool;

    /// Block until the transport has taken ownership of the payload.
    fn complete(&mut self);
}

/// An in-flight non-blocking receive, produced by [`CommBackend::irecv`].
pub trait RecvOp: Send {
    /// Poll: take the matched message if it has arrived.
    fn try_take(&mut self) -> Option<P2pMsg>;

    /// Block until the matched message arrives, then take it.
    fn take(&mut self) -> P2pMsg;
}

/// The trivial already-finished send op backing the default
/// [`CommBackend::isend`] of buffered transports.
pub struct CompletedSend;

impl SendOp for CompletedSend {
    fn try_complete(&mut self) -> bool {
        true
    }

    fn complete(&mut self) {}
}

/// FIFO matcher between posted receives and arrived messages for one
/// `(receiver, source)` pair: post seq `k` matches the `k`-th message to
/// arrive, regardless of the order in which requests are completed.
///
/// Backends embed one per peer pair; custom backends are free to reuse it.
#[derive(Default, Debug)]
pub struct PostQueue {
    next_post: u64,
    next_arrival: u64,
    arrived: HashMap<u64, P2pMsg>,
}

impl PostQueue {
    /// Register a posted receive; returns its matching sequence number.
    pub fn post(&mut self) -> u64 {
        let seq = self.next_post;
        self.next_post += 1;
        seq
    }

    /// Record an arrived message (in transport arrival order).
    pub fn deliver(&mut self, msg: P2pMsg) {
        self.arrived.insert(self.next_arrival, msg);
        self.next_arrival += 1;
    }

    /// Take the message matching post `seq`, if it has arrived.
    pub fn claim(&mut self, seq: u64) -> Option<P2pMsg> {
        self.arrived.remove(&seq)
    }
}

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
    /// Returns rank 0's result only; see [`ProcWorld`](proc::ProcWorld).
    Proc,
    /// One process per rank over a full TCP mesh (can span machines).
    /// Returns rank 0's result only; see
    /// [`SocketWorld`](socket::SocketWorld).
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
        match std::env::var("CGNN_BACKEND") {
            Err(_) => Backend::Threads,
            Ok(v) => match v.to_ascii_lowercase().as_str() {
                "" | "threads" => Backend::Threads,
                "serial" => Backend::Serial,
                "proc" => Backend::Proc,
                "socket" => Backend::Socket,
                other => {
                    // detlint: allow(unwrap-in-lib, "config error at startup: fail loudly rather than silently testing the wrong transport")
                    panic!("unknown CGNN_BACKEND value `{other}` (expected `threads`, `serial`, `proc`, or `socket`)")
                }
            },
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
        self.launch_with(size, f, |backend| backend)
    }

    /// [`Backend::launch`] with a per-rank backend decorator: each rank's
    /// transport is passed through `decorate` before being wired into its
    /// [`Comm`] handle. This is how fault injection wraps a world (see
    /// [`FaultInjector`](crate::FaultInjector)) without the transports
    /// knowing about it; the identity decorator reproduces `launch`. On
    /// the cross-process backends every *process* decorates its own rank.
    pub fn launch_with<T, F, D>(self, size: usize, f: F, decorate: D) -> Vec<T>
    where
        T: Send,
        F: Fn(&Comm) -> T + Sync,
        D: Fn(Arc<dyn CommBackend>) -> Arc<dyn CommBackend> + Sync,
    {
        match self {
            Backend::Threads => threads::ThreadWorld::launch_with(size, f, decorate),
            Backend::Serial => serial::SerialBackend::launch_with(size, f, decorate),
            Backend::Proc => proc::ProcWorld::launch_with(size, f, decorate),
            Backend::Socket => socket::SocketWorld::launch_with(size, f, decorate),
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(self.label())
    }
}

/// Shared SPMD runner: spawn one scoped thread per rank, wire its backend
/// into a [`Comm`] handle, run `f`, and propagate panics. The start/finish
/// hooks let backends impose a schedule (the serial backend's baton) and
/// observe unwinds (so peers fail fast instead of hanging).
///
/// When several ranks panic, every handle is joined first and the most
/// root-cause payload is re-raised: a genuine (non-fault) panic beats an
/// injected [`RankFailure::Killed`](crate::RankFailure::Killed), which
/// beats the secondary [`RankFailure::Stalled`](crate::RankFailure) /
/// [`RankFailure::PeerDead`](crate::RankFailure) aborts that cascade from
/// it — so a chaos run reports the fault, not its echoes, and a real bug
/// is never masked by injected noise.
pub(crate) fn run_ranks<T, F>(
    size: usize,
    f: F,
    backend_for: impl Fn(usize) -> Arc<dyn CommBackend> + Sync,
    budget: Option<usize>,
) -> Vec<T>
where
    T: Send,
    F: Fn(&Comm) -> T + Sync,
{
    assert!(size > 0, "world size must be positive");
    let mut results: Vec<Option<T>> = (0..size).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(size);
        for (rank, slot) in results.iter_mut().enumerate() {
            let f = &f;
            let backend_for = &backend_for;
            handles.push(scope.spawn(move || {
                // Budget this rank's kernel worker pool so concurrent
                // ranks share the cores instead of contending for all of
                // them (a pure scheduling decision: kernels are
                // bit-identical at every worker count).
                let _budget = budget::BudgetGuard::arm(budget);
                let backend = backend_for(rank);
                backend.on_rank_start();
                // Runs on both return and unwind, so a panicking rank
                // releases its scheduling slot instead of wedging peers.
                let _finish = FinishGuard(Arc::clone(&backend));
                let comm = Comm::from_backend(backend);
                *slot = Some(f(&comm));
            }));
        }
        let mut panics: Vec<Box<dyn std::any::Any + Send>> = Vec::new();
        for h in handles {
            if let Err(e) = h.join() {
                panics.push(e);
            }
        }
        if let Some(root) = panics
            .into_iter()
            .min_by_key(|p| crate::fault::RankFailure::severity(p.as_ref()))
        {
            std::panic::resume_unwind(root);
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("rank produced no result"))
        .collect()
}

struct FinishGuard(Arc<dyn CommBackend>);

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

    #[test]
    fn post_queue_matches_fifo_even_out_of_order() {
        let mut q = PostQueue::default();
        let a = q.post();
        let b = q.post();
        q.deliver((1, vec![1.0]));
        // Second request polled first must not steal the first message.
        assert!(q.claim(b).is_none());
        q.deliver((2, vec![2.0]));
        assert_eq!(q.claim(b), Some((2, vec![2.0])));
        assert_eq!(q.claim(a), Some((1, vec![1.0])));
    }
}
