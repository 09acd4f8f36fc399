//! Deterministic fault injection for chaos testing the SPMD stack.
//!
//! A [`FaultPlan`] scripts faults at exact operation indices — kill rank
//! `r` at its `n`-th comm op, poison its `n`-th barrier, delay or drop its
//! `n`-th point-to-point send — and [`Backend::launch_with`] arms every
//! rank's engine with the fault scripted for it: the engine counts the
//! comm operations the rank issues and fires the fault at its index. A
//! rank with no armed fault carries no fault state. Because every rank's
//! op sequence is a pure function of the program (the schedule layer is
//! deterministic by construction), a seeded plan reproduces the *same*
//! failure at the *same* place on every run and under every backend —
//! chaos tests that are replayable, not flaky.
//!
//! Faults are tagged with an `attempt` index so a plan can script
//! *sequences* of failures across recovery: attempt 0's kill fires in the
//! first world, attempt 1's kill fires in the world rebuilt after the
//! first recovery, and so on (the session recovery loop launches each new
//! world with the same plan and an incremented attempt).
//!
//! A killed rank declares itself dead through the liveness probe (see
//! [`Comm::mark_dead`]) *before* unwinding, so peers abort with
//! [`RankFailure::PeerDead`] within a heartbeat instead of hanging.
//!
//! [`Backend::launch_with`]: crate::Backend::launch_with
//! [`Comm::mark_dead`]: crate::Comm::mark_dead

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

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
    /// This rank gave up waiting on a receive that never completed within
    /// the stall deadline (e.g. the matching send was dropped).
    Stalled {
        /// The stalled (receiving) rank.
        rank: usize,
        /// The source rank whose message never arrived.
        src: usize,
    },
}

impl RankFailure {
    /// The ranks this failure identifies as dead. `Stalled` names the
    /// unresponsive source; `PeerDead` carries the world's dead set.
    pub fn dead_ranks(&self) -> Vec<usize> {
        match self {
            RankFailure::Killed { rank, .. } => vec![*rank],
            RankFailure::PeerDead { dead, .. } => dead.clone(),
            RankFailure::Stalled { src, .. } => vec![*src],
        }
    }

    /// Downcast an unwind payload (from `catch_unwind` / `JoinHandle`)
    /// to a `RankFailure`, if that is what it carries.
    pub fn from_payload(payload: &(dyn Any + Send)) -> Option<&RankFailure> {
        payload.downcast_ref::<RankFailure>()
    }

    /// Root-cause ordering for panic propagation: lower is more primary.
    /// A genuine (non-fault) panic outranks an injected kill, which
    /// outranks the stalls and peer-death aborts that cascade from it.
    pub fn severity(payload: &(dyn Any + Send)) -> u8 {
        match Self::from_payload(payload) {
            None => 0,
            Some(RankFailure::Killed { .. }) => 1,
            Some(RankFailure::Stalled { .. }) => 2,
            Some(RankFailure::PeerDead { .. }) => 3,
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
            RankFailure::Stalled { rank, src } => {
                write!(
                    f,
                    "rank {rank} stalled waiting on a receive from rank {src}"
                )
            }
        }
    }
}

/// What a single scripted fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Kill the rank at its `at_op`-th communication operation (0-based,
    /// counted across barriers, collectives, sends, and receive posts).
    Kill {
        /// Per-rank comm-op index at which the rank dies.
        at_op: u64,
    },
    /// Kill the rank as it enters its `at_barrier`-th barrier: peers are
    /// left waiting on a rendezvous the victim registered for but will
    /// never complete — the worst-case death point for a barrier.
    PoisonBarrier {
        /// Per-rank barrier index at which the rank dies.
        at_barrier: u64,
    },
    /// Defer the rank's `at_send`-th point-to-point send until its
    /// [`SendRequest`](crate::SendRequest) is waited (instead of the
    /// transport's eager buffering) — surfacing latent reorderings that
    /// eager sends hide. A blocking `send` at that index is unaffected.
    DelaySend {
        /// Per-rank p2p-send index to defer.
        at_send: u64,
    },
    /// Silently drop the rank's `at_send`-th point-to-point send. The
    /// receiver's stall deadline (every concurrent transport) or the
    /// deadlock supervisor (serial backend) converts the resulting hang
    /// into a failure.
    DropSend {
        /// Per-rank p2p-send index to drop.
        at_send: u64,
    },
}

/// One scripted fault: *which rank*, on *which attempt* (0 = the initial
/// world, 1 = the world after the first recovery, ...), does *what*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// Recovery attempt in which this fault is armed.
    pub attempt: u32,
    /// The rank (in the world of that attempt) the fault applies to.
    pub rank: usize,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic script of faults, armed into each rank's engine by
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
    stall: Option<Duration>,
}

impl FaultPlan {
    /// An empty plan (no faults, no stall supervision).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// The scripted faults, in insertion order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// The receive stall deadline, if armed.
    pub fn stall(&self) -> Option<Duration> {
        self.stall
    }

    /// Script a [`FaultKind::Kill`] of `rank` at comm op `at_op` on
    /// `attempt`.
    pub fn kill(mut self, attempt: u32, rank: usize, at_op: u64) -> Self {
        self.faults.push(Fault {
            attempt,
            rank,
            kind: FaultKind::Kill { at_op },
        });
        self
    }

    /// Script a [`FaultKind::PoisonBarrier`] on `rank`'s `at_barrier`-th
    /// barrier on `attempt`.
    pub fn poison_barrier(mut self, attempt: u32, rank: usize, at_barrier: u64) -> Self {
        self.faults.push(Fault {
            attempt,
            rank,
            kind: FaultKind::PoisonBarrier { at_barrier },
        });
        self
    }

    /// Script a [`FaultKind::DelaySend`] of `rank`'s `at_send`-th p2p send
    /// on `attempt`.
    pub fn delay_send(mut self, attempt: u32, rank: usize, at_send: u64) -> Self {
        self.faults.push(Fault {
            attempt,
            rank,
            kind: FaultKind::DelaySend { at_send },
        });
        self
    }

    /// Script a [`FaultKind::DropSend`] of `rank`'s `at_send`-th p2p send
    /// on `attempt`.
    pub fn drop_send(mut self, attempt: u32, rank: usize, at_send: u64) -> Self {
        self.faults.push(Fault {
            attempt,
            rank,
            kind: FaultKind::DropSend { at_send },
        });
        self
    }

    /// Arm a stall deadline on receives: a blocking receive that does not
    /// complete within `deadline` aborts with [`RankFailure::Stalled`].
    /// Applied on every transport with real concurrency (threads, proc,
    /// socket); the serial backend's deadlock supervisor already bounds
    /// its stalls.
    pub fn stall_after(mut self, deadline: Duration) -> Self {
        self.stall = Some(deadline);
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

    /// The fault armed for `(attempt, rank)`, if any. Plans with several
    /// faults for the same `(attempt, rank)` fire the first by op index.
    pub(crate) fn armed_for(&self, attempt: u32, rank: usize) -> Option<Fault> {
        self.faults
            .iter()
            .copied()
            .find(|f| f.attempt == attempt && f.rank == rank)
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

/// The comm-op classes a [`FaultKind`] indexes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    Barrier,
    /// An all-gather (every all-reduce is one) or an all-to-all.
    Collective,
    /// A blocking `send` or an `isend`: one shared counter.
    Send,
    /// A receive post (`irecv`, or the post inside a blocking `recv`).
    Recv,
}

/// What an armed fault does to the op it is counting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Strike {
    /// Nothing: the op proceeds.
    Pass,
    /// The rank dies at this per-rank comm-op index.
    Kill(u64),
    /// Swallow this send.
    Drop,
    /// Defer this send until its request is completed.
    Delay,
}

/// The one fault a [`FaultPlan`] arms for a rank, with the counters that
/// place it: every comm op, plus the barriers or sends its kind indexes.
pub(crate) struct ArmedFault {
    kind: FaultKind,
    ops: AtomicU64,
    /// Barriers ([`FaultKind::PoisonBarrier`]) or p2p sends (the send
    /// faults) seen so far; unused by [`FaultKind::Kill`].
    events: AtomicU64,
}

impl ArmedFault {
    pub(crate) fn new(kind: FaultKind) -> ArmedFault {
        ArmedFault {
            kind,
            ops: AtomicU64::new(0),
            events: AtomicU64::new(0),
        }
    }

    /// Count one `op`; what the fault does to it.
    pub(crate) fn strike(&self, op: Op) -> Strike {
        let n = self.ops.fetch_add(1, Ordering::Relaxed);
        // Each arm's pattern admits one fault kind and one op class, so
        // `events` advances once per barrier or send it indexes.
        let nth = || self.events.fetch_add(1, Ordering::Relaxed);
        match (self.kind, op) {
            (FaultKind::Kill { at_op }, _) if n == at_op => Strike::Kill(n),
            (FaultKind::PoisonBarrier { at_barrier }, Op::Barrier) if nth() == at_barrier => {
                Strike::Kill(n)
            }
            (FaultKind::DropSend { at_send }, Op::Send) if nth() == at_send => Strike::Drop,
            (FaultKind::DelaySend { at_send }, Op::Send) if nth() == at_send => Strike::Delay,
            _ => Strike::Pass,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Backend;
    use crate::comm::Comm;
    use crate::stats::StatsSnapshot;
    use std::panic::AssertUnwindSafe;
    use std::time::Instant;

    fn catch(f: impl FnOnce()) -> Box<dyn Any + Send> {
        std::panic::catch_unwind(AssertUnwindSafe(f)).expect_err("expected a panic")
    }

    #[test]
    fn plan_builder_and_lookup() {
        let plan = FaultPlan::new()
            .kill(0, 1, 5)
            .poison_barrier(1, 0, 2)
            .drop_send(0, 2, 3);
        assert_eq!(
            plan.armed_for(0, 1),
            Some(Fault {
                attempt: 0,
                rank: 1,
                kind: FaultKind::Kill { at_op: 5 }
            })
        );
        assert_eq!(plan.armed_for(0, 0), None);
        assert_eq!(
            plan.armed_for(1, 0).map(|f| f.kind),
            Some(FaultKind::PoisonBarrier { at_barrier: 2 })
        );
    }

    #[test]
    fn seeded_plans_are_reproducible_and_in_range() {
        let a = FaultPlan::seeded(42, 4, 10..50);
        let b = FaultPlan::seeded(42, 4, 10..50);
        assert_eq!(a, b, "same seed must give the same plan");
        let Fault {
            attempt,
            rank,
            kind,
        } = a.faults()[0];
        assert_eq!(attempt, 0);
        assert!(rank < 4);
        let FaultKind::Kill { at_op } = kind else {
            panic!("seeded plan must be a kill");
        };
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
    /// all-gather, all-to-all, send, isend/wait and irecv/wait.
    fn mixed_sequence(comm: &Comm) -> StatsSnapshot {
        let other = 1 - comm.rank();
        comm.barrier();
        comm.all_reduce_sum(&mut [1.0]);
        comm.all_reduce_max(&mut [1.0]);
        comm.all_gather(vec![1.0]);
        comm.all_to_all(vec![vec![1.0]; 2]);
        comm.send(other, 1, vec![1.0]);
        comm.isend(other, 2, vec![2.0]).wait();
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

    #[test]
    fn poisoned_barrier_kills_at_exact_barrier_index() {
        let plan = FaultPlan::new().poison_barrier(0, 0, 3);
        let payload = catch(|| {
            Backend::Threads.launch_with(
                2,
                |comm| {
                    for _ in 0..8 {
                        comm.barrier();
                    }
                },
                &plan,
                0,
            );
        });
        match RankFailure::from_payload(payload.as_ref()) {
            Some(RankFailure::Killed { rank: 0, .. }) => {}
            other => panic!("expected rank 0 killed at its 4th barrier, got {other:?}"),
        }
    }

    #[test]
    fn dropped_send_is_caught_by_stall_deadline_on_threads() {
        let plan = FaultPlan::new()
            .drop_send(0, 0, 0)
            .stall_after(Duration::from_millis(100));
        let payload = catch(|| {
            Backend::Threads.launch_with(
                2,
                |comm| {
                    if comm.rank() == 0 {
                        comm.send(1, 7, vec![1.0]);
                    } else {
                        comm.recv(0, 7);
                    }
                },
                &plan,
                0,
            );
        });
        match RankFailure::from_payload(payload.as_ref()) {
            Some(RankFailure::Stalled { rank: 1, src: 0 }) => {}
            other => panic!("expected rank 1 stalled on rank 0, got {other:?}"),
        }
    }

    #[test]
    fn delayed_send_still_delivers() {
        let plan = FaultPlan::new().delay_send(0, 0, 0);
        for backend in Backend::all() {
            let out = backend.launch_with(
                2,
                |comm| {
                    if comm.rank() == 0 {
                        comm.isend(1, 3, vec![4.5]).wait();
                        0.0
                    } else {
                        comm.recv(0, 3)[0]
                    }
                },
                &plan,
                0,
            );
            assert_eq!(out[1], 4.5, "{backend}");
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
    fn peers_detect_death_within_heartbeat_instead_of_hanging() {
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
