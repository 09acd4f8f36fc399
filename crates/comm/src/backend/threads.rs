//! The default transport: one OS thread per rank with real in-process
//! concurrency — mirroring the paper's one-GPU-per-MPI-rank setup.
//!
//! The world is the shared `engine` over its in-memory carrier
//! with heartbeat parking: a blocked rank sleeps on its mailbox condvar,
//! is woken by the next arrival, and at the latest every 25 ms re-checks
//! the peer table, so a rank that dies — killed by fault injection, or
//! unwinding from a genuine panic — or that finished without sending what
//! a peer waits for aborts the waiter with
//! [`RankFailure`](crate::RankFailure)`::PeerDead` instead of hanging it.

use std::sync::Arc;

use crate::backend::engine::{Engine, Heartbeat};
use crate::backend::run_ranks;
use crate::comm::Comm;
use crate::fault::FaultPlan;

/// Run `f` on `size` ranks, one OS thread each, returning each rank's
/// result in rank order.
pub(crate) fn launch<T, F>(size: usize, f: F, plan: &FaultPlan, attempt: u32) -> Vec<T>
where
    T: Send,
    F: Fn(&Comm) -> T + Sync,
{
    let world = Engine::memory_world(size, "threads", Arc::new(Heartbeat), plan, attempt);
    run_ranks(world, f)
}
