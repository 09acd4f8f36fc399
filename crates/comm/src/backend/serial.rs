//! The deterministic loopback transport: ranks execute **one at a time**,
//! scheduled round-robin at communication points.
//!
//! Exactly one rank makes progress at any instant. Rank 0 runs first; a
//! rank keeps executing user code until a communication operation cannot
//! complete (a barrier with peers missing, a receive with no matching
//! message), at which point it hands the baton to the next rank in index
//! order. OS threads serve only as coroutine stacks — no two ranks ever run
//! concurrently, so the operation schedule is a pure function of the
//! program: reproducible traces for debugging, zero-sync reference
//! semantics for CI, and a cross-check that nothing in the stack depends on
//! the thread world's real concurrency.
//!
//! Matching, collectives and `Bye`/`Dead` liveness are the shared
//! `engine` over its in-memory carrier; this module is only the
//! scheduler, plugged in as the engine's park policy: where a thread rank
//! would sleep on its mailbox, a serial rank passes the baton.
//!
//! Liveness is supervised: if the baton completes several full cycles with
//! every live rank blocked, the world is deadlocked (mismatched collective
//! schedules, a receive whose send never comes) and the backend panics with
//! a diagnostic instead of hanging — and a rank that panics announces its
//! death like on every other transport, so its peers fail fast too.

use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use crate::backend::engine::{Arrivals, Engine, Mailbox, Park};
use crate::backend::run_ranks;
use crate::comm::Comm;
use crate::fault::FaultPlan;

/// Scheduler state (uncontended by construction: only the baton holder
/// and ranks waking to check for their turn touch it).
struct Turns {
    /// Whose turn it is to execute.
    turn: usize,
    /// Ranks whose SPMD closure has returned or unwound.
    done: Vec<bool>,
    /// Consecutive baton passes without any wait completing; a full
    /// cycle of these means every live rank is blocked.
    idle_passes: usize,
}

/// The round-robin scheduler of a serial world: the engine's park policy.
struct Baton {
    turns: Mutex<Turns>,
    cv: Condvar,
}

impl Baton {
    fn lock(&self) -> MutexGuard<'_, Turns> {
        self.turns.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Hand the baton to the next rank after `from` whose closure has not
    /// finished (back to `from` itself when it is the last one running).
    fn pass(&self, t: &mut Turns, from: usize) {
        let size = t.done.len();
        t.turn = (1..=size)
            .map(|k| (from + k) % size)
            .find(|&r| !t.done[r])
            .unwrap_or(from);
        self.cv.notify_all();
    }

    fn wait_for_turn(&self, mut t: MutexGuard<'_, Turns>, rank: usize) {
        while t.turn != rank {
            t = self.cv.wait(t).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl Park for Baton {
    /// Yield to the next live rank and return when the baton comes back.
    ///
    /// # Panics
    ///
    /// When every live rank has been blocked for a full supervision
    /// window (mismatched collective schedules, or a receive whose send
    /// never comes): panicking is the mechanism that unwedges the run.
    #[expect(
        clippy::panic,
        reason = "deadlock supervisor: panicking is the mechanism that unwedges the test run"
    )]
    fn park<'a>(&self, mailbox: &'a Mailbox, arrivals: Arrivals<'a>) -> Arrivals<'a> {
        // Peers deliver into this mailbox while they hold the baton.
        drop(arrivals);
        let mut t = self.lock();
        t.idle_passes += 1;
        if t.idle_passes > 4 * t.done.len() + 16 {
            drop(t);
            panic!(
                "serial backend deadlock: every live rank is blocked \
                 (mismatched collective schedules or a receive whose send never comes)"
            );
        }
        self.pass(&mut t, mailbox.rank());
        self.wait_for_turn(t, mailbox.rank());
        mailbox.lock()
    }

    fn progressed(&self) {
        self.lock().idle_passes = 0;
    }

    /// Wait for the baton before running any user code: rank 0 starts,
    /// everyone else queues in index order.
    fn rank_started(&self, rank: usize) {
        self.wait_for_turn(self.lock(), rank);
    }

    fn rank_finished(&self, rank: usize) {
        let mut t = self.lock();
        t.done[rank] = true;
        if t.turn == rank {
            self.pass(&mut t, rank);
        }
    }
}

/// Run `f` on `size` ranks one at a time, round-robin, returning each
/// rank's result in rank order; panics in any rank propagate (and
/// unblock peers).
pub(crate) fn launch<T, F>(size: usize, f: F, plan: &FaultPlan, attempt: u32) -> Vec<T>
where
    T: Send,
    F: Fn(&Comm) -> T + Sync,
{
    let baton = Arc::new(Baton {
        turns: Mutex::new(Turns {
            turn: 0,
            done: vec![false; size],
            idle_passes: 0,
        }),
        cv: Condvar::new(),
    });
    let world = Engine::memory_world(size, "serial", baton, plan, attempt);
    run_ranks(world, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Backend;

    /// The defining property: ranks are single-stepped in a deterministic
    /// round-robin, so an execution trace is identical across runs — and
    /// the first "round" is exactly rank order.
    #[test]
    fn schedule_is_deterministic_round_robin() {
        let trace = || {
            let log = Mutex::new(Vec::new());
            Backend::Serial.launch(3, |comm| {
                for _ in 0..3 {
                    log.lock().unwrap().push(comm.rank());
                    comm.barrier();
                }
            });
            log.into_inner().unwrap()
        };
        let a = trace();
        let b = trace();
        assert_eq!(a, b, "serial schedule must be reproducible");
        assert_eq!(&a[..3], &[0, 1, 2], "first round runs in rank order");
        for round in a.chunks(3) {
            let mut round = round.to_vec();
            round.sort_unstable();
            assert_eq!(round, vec![0, 1, 2], "each round covers every rank");
        }
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn blocked_world_panics_instead_of_hanging() {
        // Both ranks wait for a message nobody sends.
        Backend::Serial.launch(2, |comm| {
            let other = 1 - comm.rank();
            comm.recv(other, 0);
        });
    }

    #[test]
    #[should_panic]
    fn rank_panic_propagates_and_unblocks_peers() {
        Backend::Serial.launch(2, |comm| {
            if comm.rank() == 0 {
                panic!("rank 0 exploded");
            }
            // Rank 1 would wait forever without poison propagation.
            comm.barrier();
        });
    }
}
