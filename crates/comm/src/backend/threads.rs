//! The default transport: one OS thread per rank with real in-process
//! concurrency — mirroring the paper's one-GPU-per-MPI-rank setup.
//!
//! The world is the shared `engine` over its in-memory carrier
//! with heartbeat parking: a blocked rank sleeps on its mailbox condvar,
//! is woken by the next arrival, and at the latest every
//! `CGNN_FAULT_HEARTBEAT_MS` (default 25 ms) re-checks the peer table, so
//! a rank that dies — killed by fault injection, or unwinding from a
//! genuine panic — or that finished without sending what a peer waits for
//! aborts the waiter with [`RankFailure`](crate::RankFailure)`::PeerDead`
//! instead of hanging it.

use std::sync::Arc;

use crate::backend::budget::budget_for;
use crate::backend::engine::{Engine, Heartbeat};
use crate::backend::{run_ranks, CommBackend};
use crate::comm::Comm;

/// The thread-per-rank launcher. Usually reached through
/// [`Backend::Threads`](crate::Backend::Threads); the type exists so the
/// launcher can be named directly.
pub struct ThreadWorld;

impl ThreadWorld {
    /// Run `f` on `size` ranks (one OS thread each) over this transport,
    /// returning each rank's result in rank order.
    pub fn launch<T, F>(size: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&Comm) -> T + Sync,
    {
        Self::launch_with(size, f, |backend| backend)
    }

    /// [`ThreadWorld::launch`] with a per-rank backend decorator (see
    /// [`Backend::launch_with`](crate::Backend::launch_with)).
    pub fn launch_with<T, F, D>(size: usize, f: F, decorate: D) -> Vec<T>
    where
        T: Send,
        F: Fn(&Comm) -> T + Sync,
        D: Fn(Arc<dyn CommBackend>) -> Arc<dyn CommBackend> + Sync,
    {
        let world = Engine::memory_world(size, "threads", Heartbeat::from_env());
        // Ranks run concurrently: budget each rank's kernel pool so
        // `ranks × workers` stays within the machine.
        run_ranks(
            size,
            f,
            |rank| decorate(Arc::clone(&world[rank]) as Arc<dyn CommBackend>),
            budget_for(size),
        )
    }
}
