//! Deterministic fault injection for chaos testing the SPMD stack.
//!
//! A [`FaultPlan`] scripts the one failure a transport can have — a rank
//! dies — at exact operation indices: kill rank `r` at its `n`-th comm
//! op. [`Backend::launch_with`] arms every rank's engine with the kill
//! scripted for it: the engine counts the comm operations the rank issues
//! and the rank dies at that index. A rank with no armed fault carries no
//! fault state. Because every rank's op sequence is a pure function of
//! the program (the schedule layer is deterministic by construction), a
//! seeded plan reproduces the *same* failure at the *same* place on every
//! run and under every backend — chaos tests that are replayable, not
//! flaky.
//!
//! Nothing else needs scripting. A kill at a barrier's op index is a rank
//! dying inside that barrier: the engine strikes at barrier entry, before
//! any frame is posted. No carrier drops or delays a frame: in-memory
//! dispatch cannot fail, and a stream that loses bytes fails its checksum
//! or hits EOF, which the carrier reports as the peer's death.
//!
//! Faults are tagged with an `attempt` index so a plan can script
//! *sequences* of failures across recovery: attempt 0's kill fires in the
//! first world, attempt 1's kill fires in the world rebuilt after the
//! first recovery, and so on (the session recovery loop launches each new
//! world with the same plan and an incremented attempt).
//!
//! A killed rank declares itself dead through the liveness probe (see
//! [`Comm::mark_dead`]) *before* unwinding, so peers abort with
//! [`RankFailure::PeerDead`] as soon as the announcement reaches them,
//! instead of hanging.
//!
//! [`Backend::launch_with`]: crate::Backend::launch_with
//! [`Comm::mark_dead`]: crate::Comm::mark_dead

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};

/// Typed panic payload used to tear down an SPMD world on rank failure.
///
/// The session recovery loop downcasts unwind payloads to this type to
/// distinguish injected/detected failures (recoverable: rebuild the world
/// without the dead ranks) from genuine bugs (propagated unchanged).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RankFailure {
    /// This rank was killed by fault injection at its `op`-th comm op.
    Killed {
        /// The rank that died.
        rank: usize,
        /// The per-rank comm-op index at which it died.
        op: u64,
    },
    /// This rank aborted because peers died: the world cannot complete
    /// another collective.
    PeerDead {
        /// The aborting (surviving) rank.
        rank: usize,
        /// Every rank known dead at abort time, ascending.
        dead: Vec<usize>,
    },
}

impl RankFailure {
    /// The ranks this failure identifies as dead: the killed rank, or the
    /// world's dead set a `PeerDead` carries.
    pub fn dead_ranks(&self) -> Vec<usize> {
        match self {
            RankFailure::Killed { rank, .. } => vec![*rank],
            RankFailure::PeerDead { dead, .. } => dead.clone(),
        }
    }

    /// Downcast an unwind payload (from `catch_unwind` / `JoinHandle`)
    /// to a `RankFailure`, if that is what it carries.
    pub fn from_payload(payload: &(dyn Any + Send)) -> Option<&RankFailure> {
        payload.downcast_ref::<RankFailure>()
    }

    /// Root-cause ordering for panic propagation: lower is more primary.
    /// A genuine (non-fault) panic outranks an injected kill, which
    /// outranks the peer-death aborts that cascade from it.
    pub fn severity(payload: &(dyn Any + Send)) -> u8 {
        match Self::from_payload(payload) {
            None => 0,
            Some(RankFailure::Killed { .. }) => 1,
            Some(RankFailure::PeerDead { .. }) => 2,
        }
    }
}

impl std::fmt::Display for RankFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RankFailure::Killed { rank, op } => {
                write!(f, "rank {rank} killed by fault injection at comm op {op}")
            }
            RankFailure::PeerDead { rank, dead } => {
                write!(f, "rank {rank} aborted: peer rank(s) {dead:?} died")
            }
        }
    }
}

/// One scripted kill: *which rank* dies, on *which attempt* (0 = the
/// initial world, 1 = the world after the first recovery, ...), at
/// *which* of its comm ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// Recovery attempt in which this fault is armed.
    pub attempt: u32,
    /// The rank (in the world of that attempt) that dies.
    pub rank: usize,
    /// Per-rank comm-op index at which the rank dies (0-based, counted
    /// across barriers, collectives, sends, and receive posts).
    pub at_op: u64,
}

/// A deterministic script of kills, armed into each rank's engine by
/// [`Backend::launch_with`](crate::Backend::launch_with).
///
/// Build one fluently:
///
/// ```
/// use cgnn_comm::FaultPlan;
///
/// let plan = FaultPlan::new()
///     .kill(0, 2, 40) // attempt 0: kill rank 2 at its 40th comm op
///     .kill(1, 1, 25); // after recovery: kill rank 1 at op 25
/// assert_eq!(plan.faults().len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan: nobody dies.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// The scripted faults, in insertion order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Script a kill of `rank` at comm op `at_op` on `attempt`.
    pub fn kill(mut self, attempt: u32, rank: usize, at_op: u64) -> Self {
        self.faults.push(Fault {
            attempt,
            rank,
            at_op,
        });
        self
    }

    /// A seeded single-kill plan for attempt 0: SplitMix64 on `seed`
    /// picks a victim in `0..world` and a kill op in `op_range`, so CI
    /// chaos runs explore the fault space while any given seed replays
    /// the exact same failure.
    ///
    /// # Panics
    ///
    /// If `world` is zero or `op_range` is empty: a seeded plan over an
    /// empty space is a configuration error worth failing loudly on.
    pub fn seeded(seed: u64, world: usize, op_range: std::ops::Range<u64>) -> Self {
        assert!(world > 0, "seeded fault plan needs a non-empty world");
        assert!(
            op_range.end > op_range.start,
            "seeded fault plan needs a non-empty op range"
        );
        let mut s = seed;
        let rank = (splitmix64(&mut s) % world as u64) as usize;
        let span = op_range.end - op_range.start;
        let at_op = op_range.start + splitmix64(&mut s) % span;
        FaultPlan::new().kill(0, rank, at_op)
    }

    /// The fault armed for `(attempt, rank)`, if any. A rank dies once,
    /// so of several kills for the same `(attempt, rank)` the earliest by
    /// op index is the one armed.
    pub(crate) fn armed_for(&self, attempt: u32, rank: usize) -> Option<Fault> {
        self.faults
            .iter()
            .copied()
            .filter(|f| f.attempt == attempt && f.rank == rank)
            .min_by_key(|f| f.at_op)
    }
}

/// SplitMix64: the same tiny deterministic generator the schedule layer
/// uses, re-derived here because `cgnn-comm` sits below `cgnn-core`.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The one kill a [`FaultPlan`] arms for a rank, with the counter that
/// places it.
pub(crate) struct ArmedFault {
    at_op: u64,
    ops: AtomicU64,
}

impl ArmedFault {
    pub(crate) fn new(fault: Fault) -> ArmedFault {
        ArmedFault {
            at_op: fault.at_op,
            ops: AtomicU64::new(0),
        }
    }

    /// Count one comm op; the op's index if the rank dies at it.
    pub(crate) fn strike(&self) -> Option<u64> {
        let n = self.ops.fetch_add(1, Ordering::Relaxed);
        (n == self.at_op).then_some(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Backend;
    use crate::comm::Comm;
    use crate::stats::StatsSnapshot;
    use std::panic::AssertUnwindSafe;
    use std::time::{Duration, Instant};

    fn catch(f: impl FnOnce()) -> Box<dyn Any + Send> {
        std::panic::catch_unwind(AssertUnwindSafe(f)).expect_err("expected a panic")
    }

    #[test]
    fn plan_builder_and_lookup() {
        let plan = FaultPlan::new().kill(0, 1, 5).kill(1, 0, 2).kill(0, 2, 3);
        assert_eq!(
            plan.armed_for(0, 1),
            Some(Fault {
                attempt: 0,
                rank: 1,
                at_op: 5
            })
        );
        assert_eq!(plan.armed_for(0, 0), None);
        assert_eq!(plan.armed_for(1, 0).map(|f| f.at_op), Some(2));
    }

    #[test]
    fn seeded_plans_are_reproducible_and_in_range() {
        let a = FaultPlan::seeded(42, 4, 10..50);
        let b = FaultPlan::seeded(42, 4, 10..50);
        assert_eq!(a, b, "same seed must give the same plan");
        let Fault {
            attempt,
            rank,
            at_op,
        } = a.faults()[0];
        assert_eq!(attempt, 0);
        assert!(rank < 4);
        assert!((10..50).contains(&at_op));
        assert_ne!(
            FaultPlan::seeded(1, 4, 10..50),
            FaultPlan::seeded(2, 4, 10..50),
            "different seeds should explore the space"
        );
    }

    /// The cross-backend contract of the whole fault layer: a kill tears
    /// down the world with a typed root-cause payload, peers abort (typed
    /// PeerDead) instead of hanging, and the propagated panic is the kill.
    #[test]
    fn kill_tears_down_both_backends_with_typed_payload() {
        for backend in Backend::all() {
            let plan = FaultPlan::new().kill(0, 1, 2);
            let payload = catch(|| {
                backend.launch_with(
                    3,
                    |comm| {
                        for _ in 0..10 {
                            comm.barrier();
                        }
                    },
                    &plan,
                    0,
                );
            });
            match RankFailure::from_payload(payload.as_ref()) {
                Some(RankFailure::Killed { rank: 1, op: 2 }) => {}
                other => panic!("{backend}: expected Killed{{rank:1,op:2}}, got {other:?}"),
            }
        }
    }

    /// One of every comm op on a 2-rank world: barrier, both all-reduces,
    /// all-gather, all-to-all, two sends, recv and irecv/wait.
    fn mixed_sequence(comm: &Comm) -> StatsSnapshot {
        let other = 1 - comm.rank();
        comm.barrier();
        comm.all_reduce_sum(&mut [1.0]);
        comm.all_reduce_max(&mut [1.0]);
        comm.all_gather(vec![1.0]);
        comm.all_to_all(vec![vec![1.0]; 2]);
        comm.send(other, 1, vec![1.0]);
        comm.send(other, 2, vec![2.0]);
        comm.recv(other, 1);
        comm.irecv(other, 2).wait();
        comm.stats_snapshot()
    }

    fn ops_of(s: &StatsSnapshot) -> u64 {
        s.barriers + s.all_reduces + s.all_gathers + s.all_to_alls + s.sends + s.recvs
    }

    /// The traffic counters add up to the op index a kill is placed by:
    /// after `n` counted ops, `Kill { at_op: n }` fires on the next op and
    /// `Kill { at_op: n - 1 }` on the last one of the sequence.
    #[test]
    fn stats_count_the_ops_faults_are_placed_by() {
        for backend in Backend::all() {
            let n = ops_of(&backend.launch(2, mixed_sequence)[0]);
            assert_eq!(n, 9, "{backend}");
            for (at_op, then_barrier) in [(n, true), (n - 1, false)] {
                let plan = FaultPlan::new().kill(0, 0, at_op);
                let payload = catch(|| {
                    backend.launch_with(
                        2,
                        |comm| {
                            mixed_sequence(comm);
                            if then_barrier {
                                comm.barrier();
                            }
                        },
                        &plan,
                        0,
                    );
                });
                assert_eq!(
                    RankFailure::from_payload(payload.as_ref()),
                    Some(&RankFailure::Killed { rank: 0, op: at_op }),
                    "{backend}"
                );
            }
        }
    }

    #[test]
    fn faults_on_other_attempts_do_not_fire() {
        for backend in Backend::all() {
            let plan = FaultPlan::new().kill(1, 0, 0);
            let sums = backend.launch_with(2, |comm| comm.all_reduce_scalar(1.0), &plan, 0);
            assert_eq!(sums, vec![2.0; 2], "{backend}");
        }
    }

    /// A rank dies once: of two kills scripted for one `(attempt, rank)`,
    /// the earlier op index fires, whatever order the plan lists them in.
    #[test]
    fn the_earliest_of_a_ranks_kills_fires() {
        for backend in Backend::all() {
            let plan = FaultPlan::new().kill(0, 1, 50).kill(0, 1, 10);
            let payload = catch(|| {
                backend.launch_with(
                    2,
                    |comm| {
                        for _ in 0..60 {
                            comm.barrier();
                        }
                    },
                    &plan,
                    0,
                );
            });
            assert_eq!(
                RankFailure::from_payload(payload.as_ref()),
                Some(&RankFailure::Killed { rank: 1, op: 10 }),
                "{backend}"
            );
        }
    }

    #[test]
    fn genuine_panic_outranks_injected_noise() {
        let payload = catch(|| {
            Backend::Threads.launch(2, |comm| {
                if comm.rank() == 0 {
                    panic!("genuine bug");
                }
                comm.barrier();
            });
        });
        let msg = payload
            .downcast_ref::<&'static str>()
            .copied()
            .expect("the genuine panic must be the propagated payload");
        assert_eq!(msg, "genuine bug");
    }

    #[test]
    fn peers_detect_death_instead_of_hanging() {
        // No fault plan at all: a *genuine* panic on rank 0 must still
        // unblock rank 1's barrier via the liveness probe.
        let t0 = Instant::now();
        let payload = catch(|| {
            Backend::Threads.launch(3, |comm| {
                if comm.rank() == 0 {
                    panic!("boom");
                }
                comm.barrier();
            });
        });
        assert!(payload.downcast_ref::<&'static str>().is_some());
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "peers must not hang when a rank dies"
        );
    }
}
