//! The transport-agnostic communicator handle and the [`World`] launcher.
//!
//! [`Comm`] is a thin, cloneable handle over one rank of the matching
//! engine: the deterministic reduction arithmetic, traffic accounting,
//! and tag checking live here — once — while the engine supplies raw
//! transport primitives. Swapping transports therefore cannot change
//! arithmetic: every backend is bit-identical by construction.
//!
//! There is one send, [`Comm::send`]: it hands the payload to the
//! transport and returns without waiting on the receiving rank's
//! program, so posting every send before any receive (Send-Recv,
//! Ovl-SR) cannot deadlock. Receives come blocking ([`Comm::recv`]) or
//! split ([`Comm::irecv`] and [`RecvRequest::wait`]).

use std::cell::RefCell;
use std::sync::Arc;

use crate::backend::engine::Engine;
use crate::backend::Backend;
use crate::stats::StatsSnapshot;

/// Per-rank communicator handle. Cloneable; clones refer to the same world
/// and the same rank (so they can be captured by autodiff backward
/// closures). Every transport is the same engine, so the handle works
/// identically over all of them.
#[derive(Clone)]
pub struct Comm {
    engine: Arc<Engine>,
}

/// A collection of `R` ranks executing the same SPMD closure.
///
/// [`World::run`] is a convenience over [`Backend::launch`] using the
/// environment-selected transport ([`Backend::from_env`], i.e. the
/// `CGNN_BACKEND` variable, defaulting to the thread world) — which is how
/// one test suite exercises every backend.
pub struct World;

impl World {
    /// Run `f` on `size` ranks of the environment-selected backend,
    /// returning each rank's result in rank order. Panics in any rank
    /// propagate.
    ///
    /// ```
    /// use cgnn_comm::World;
    /// let sums = World::run(4, |comm| {
    ///     let mut v = [comm.rank() as f64];
    ///     comm.all_reduce_sum(&mut v);
    ///     v[0]
    /// });
    /// assert_eq!(sums, vec![6.0; 4]);
    /// ```
    pub fn run<T, F>(size: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&Comm) -> T + Sync,
    {
        Backend::from_env().launch(size, f)
    }
}

impl Comm {
    pub(crate) fn new(engine: Arc<Engine>) -> Self {
        Comm { engine }
    }

    /// The transport's label (`"threads"`, `"serial"`, ...).
    pub fn backend_label(&self) -> &'static str {
        self.engine.label()
    }

    /// This rank's index in `0..size`.
    pub fn rank(&self) -> usize {
        self.engine.rank()
    }

    /// World size (number of SPMD ranks).
    pub fn size(&self) -> usize {
        self.engine.size()
    }

    /// Liveness probe, write side: declare this rank dead to the world,
    /// so peers blocked in collectives or receives on it abort with
    /// [`RankFailure::PeerDead`](crate::RankFailure::PeerDead) instead of
    /// hanging. A rank that unwinds does this by itself.
    pub fn mark_dead(&self) {
        self.engine.mark_dead()
    }

    /// Liveness probe, read side: ranks known to have died in this world,
    /// ascending.
    pub fn dead_ranks(&self) -> Vec<usize> {
        self.engine.dead_ranks()
    }

    /// Synchronize all ranks.
    pub fn barrier(&self) {
        self.engine.stats().barriers += 1;
        self.engine.barrier();
    }

    /// Deterministic all-reduce (sum) over `buf`, in place.
    ///
    /// Every rank sums the per-rank contributions in rank order, so all
    /// ranks compute bit-identical results — essential for keeping DDP
    /// replicas in lockstep without parameter broadcasts.
    ///
    /// # Panics
    /// If the ranks' buffers differ in length.
    pub fn all_reduce_sum(&self, buf: &mut [f64]) {
        self.all_reduce("all_reduce_sum", buf, 0.0, |b, p| b + p);
    }

    /// All-reduce a single scalar (sum).
    pub fn all_reduce_scalar(&self, v: f64) -> f64 {
        let mut buf = [v];
        self.all_reduce_sum(&mut buf);
        buf[0]
    }

    /// Deterministic all-reduce (max). A NaN on any rank is the result
    /// on every rank.
    ///
    /// # Panics
    /// If the ranks' buffers differ in length.
    pub fn all_reduce_max(&self, buf: &mut [f64]) {
        self.all_reduce("all_reduce_max", buf, f64::NEG_INFINITY, nan_max);
    }

    /// The body of both all-reduces, in place: send `buf` to every peer
    /// under `label`, then fold every rank's part into `buf` in rank
    /// order, from `identity`, with `op`. The round hands the parts over in
    /// rank order, and each is folded as it arrives: the parts of lower
    /// ranks into the first of them, which then folds into `buf`, the
    /// rank's own part; each higher rank's part into `buf` after it. So the
    /// only copy of `buf` is each peer's payload, nothing else is
    /// allocated, and at one rank the round only counts the op against
    /// the fault plan.
    fn all_reduce(
        &self,
        label: &'static str,
        buf: &mut [f64],
        identity: f64,
        op: impl Fn(f64, f64) -> f64,
    ) {
        let (me, len, bytes) = (self.rank(), buf.len(), std::mem::size_of_val(buf));
        // The payload closure reads `buf` while the fold writes it; the
        // round posts every payload before it takes the first part.
        let buf = RefCell::new(buf);
        // The lower ranks' fold, until it goes into `buf`.
        let mut below: Option<Vec<f64>> = None;
        let mut merged = false;
        let merge = |buf: &mut [f64], below: Option<Vec<f64>>| match below {
            Some(acc) => buf.iter_mut().zip(&acc).for_each(|(b, &a)| *b = op(a, *b)),
            None => buf.iter_mut().for_each(|b| *b = op(identity, *b)),
        };
        self.engine.round(
            label,
            |_| buf.borrow().to_vec(),
            |p, mut part| {
                assert_eq!(
                    part.len(),
                    len,
                    "{label} length mismatch across ranks: rank {p} sent {}, rank {me} holds {len}",
                    part.len(),
                );
                if p > me {
                    let mut buf = buf.borrow_mut();
                    if !std::mem::replace(&mut merged, true) {
                        merge(&mut buf, below.take());
                    }
                    fold(&mut buf, &part, &op);
                } else if let Some(acc) = below.as_mut() {
                    fold(acc, &part, &op);
                } else {
                    part.iter_mut().for_each(|a| *a = op(identity, *a));
                    below = Some(part);
                }
            },
        );
        let mut st = self.engine.stats();
        st.all_reduces += 1;
        st.all_reduce_bytes += bytes as u64;
        drop(st);
        if !merged {
            merge(buf.into_inner(), below);
        }
    }

    /// Gather every rank's buffer; result is indexed by rank and identical
    /// on all ranks. Contributions may have different lengths per rank.
    ///
    /// Traffic accounting: the contribution is replicated to every other
    /// rank, so `len * 8 * (R - 1)` bytes are charged (the all-reduces,
    /// which send the same way, are charged as all-reduce bytes instead and
    /// do not hit these counters).
    pub fn all_gather(&self, data: Vec<f64>) -> Vec<Vec<f64>> {
        let mut st = self.engine.stats();
        st.all_gathers += 1;
        st.all_gather_bytes += std::mem::size_of_val(&data[..]) as u64 * (self.size() as u64 - 1);
        drop(st);
        self.engine.all_gather("all_gather", data)
    }

    /// All-to-all exchange. `send[dst]` is the buffer for rank `dst`; empty
    /// buffers mean "no traffic to that peer" (the paper's Neighbor-AllToAll
    /// trick of passing `torch.empty(0)` for non-neighbours). Returns
    /// `recv[src]`, the buffer sent to this rank by rank `src`.
    ///
    /// # Panics
    /// If `send` does not hold one buffer per rank.
    pub fn all_to_all(&self, send: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
        assert_eq!(
            send.len(),
            self.size(),
            "all_to_all needs one buffer per rank"
        );
        let mut st = self.engine.stats();
        st.all_to_alls += 1;
        for (dst, buf) in send.iter().enumerate() {
            if dst != self.rank() && !buf.is_empty() {
                st.a2a_messages += 1;
                st.a2a_bytes += std::mem::size_of_val(&buf[..]) as u64;
            }
        }
        drop(st);
        self.engine.all_to_all(send)
    }

    /// Point-to-point send. Returns without waiting on `dst`'s program:
    /// in memory the payload lands in `dst`'s mailbox at once; over a
    /// stream it is written on this thread, which waits at most for
    /// `dst`'s reader thread to drain the socket.
    ///
    /// # Panics
    /// If `dst` is not a rank of this world.
    pub fn send(&self, dst: usize, tag: u32, data: Vec<f64>) {
        assert!(dst < self.size(), "send to invalid rank {dst}");
        self.count_send(&data);
        self.engine.send(dst, tag, data);
    }

    /// Blocking receive from `src`; the next message's tag must equal `tag`
    /// (matching is FIFO per peer, so a mismatch means the program's
    /// communication schedules diverged).
    ///
    /// # Panics
    /// If `src` is not a rank of this world, or the next message's tag is
    /// not `tag`.
    pub fn recv(&self, src: usize, tag: u32) -> Vec<f64> {
        self.irecv(src, tag).wait()
    }

    /// Post a non-blocking receive for the next unmatched message from
    /// `src`, returning a wait-able [`RecvRequest`]. Matching is FIFO per
    /// source (requests may be *completed* in any order; each still
    /// receives the message matching its posting position). Every posted
    /// request must eventually be waited on the posting rank, or its
    /// matched message is lost.
    ///
    /// # Panics
    /// If `src` is not a rank of this world.
    pub fn irecv(&self, src: usize, tag: u32) -> RecvRequest {
        assert!(src < self.size(), "irecv from invalid rank {src}");
        RecvRequest {
            seq: self.engine.irecv(src),
            comm: self.clone(),
            src,
            tag,
        }
    }

    fn count_send(&self, data: &[f64]) {
        let mut st = self.engine.stats();
        st.sends += 1;
        st.send_bytes += std::mem::size_of_val(data) as u64;
    }

    fn count_recv(&self, data: &[f64]) {
        let mut st = self.engine.stats();
        st.recvs += 1;
        st.recv_bytes += std::mem::size_of_val(data) as u64;
    }

    fn check_tag(&self, src: usize, want: u32, got: u32) {
        assert_eq!(
            got,
            want,
            "rank {} expected tag {want} from {src} but got {got}",
            self.rank()
        );
    }

    /// Snapshot this rank's traffic counters.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        *self.engine.stats()
    }

    /// Reset this rank's traffic counters.
    pub fn stats_reset(&self) {
        *self.engine.stats() = StatsSnapshot::default();
    }
}

/// `acc[i] = op(acc[i], part[i])` for every `i`.
fn fold(acc: &mut [f64], part: &[f64], op: impl Fn(f64, f64) -> f64) {
    for (a, &p) in acc.iter_mut().zip(part) {
        *a = op(*a, p);
    }
}

/// `f64::max` that propagates NaN: `f64::max(m, NaN)` is `m`, so a rank's
/// NaN would vanish from the reduced result.
fn nan_max(m: f64, e: f64) -> f64 {
    if e.is_nan() || e > m {
        e
    } else {
        m
    }
}

/// Wait-able handle to an in-flight non-blocking receive (see
/// [`Comm::irecv`]). Completion checks the message tag and records the
/// recv-side traffic counters.
pub struct RecvRequest {
    comm: Comm,
    src: usize,
    tag: u32,
    /// Matching position among this rank's posts from `src`.
    seq: u64,
}

impl RecvRequest {
    /// The rank this request receives from.
    pub fn source(&self) -> usize {
        self.src
    }

    /// The tag this request expects.
    pub fn tag(&self) -> u32 {
        self.tag
    }

    /// Block until the matched message arrives and take its payload.
    pub fn wait(self) -> Vec<f64> {
        let (got_tag, data) = self.comm.engine.take(self.src, self.seq);
        self.comm.check_tag(self.src, self.tag, got_tag);
        self.comm.count_recv(&data);
        data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run a closure on every in-tree backend: the API contract below must
    /// hold transport-independently.
    fn on_every_backend<T: Send, F: Fn(&Comm) -> T + Sync>(size: usize, f: F) -> Vec<Vec<T>> {
        Backend::all()
            .into_iter()
            .map(|b| b.launch(size, &f))
            .collect()
    }

    #[test]
    fn single_rank_world() {
        let out = World::run(1, |comm| {
            assert_eq!(comm.size(), 1);
            comm.all_reduce_scalar(5.0)
        });
        assert_eq!(out, vec![5.0]);
    }

    #[test]
    fn all_reduce_sum_is_deterministic_and_identical() {
        for out in on_every_backend(7, |comm| {
            let mut v = vec![comm.rank() as f64 * 0.1, 1.0];
            comm.all_reduce_sum(&mut v);
            v
        }) {
            for v in &out {
                assert_eq!(v, &out[0], "ranks disagree on reduced value");
            }
            assert!((out[0][1] - 7.0).abs() < 1e-15);
        }
    }

    #[test]
    fn all_reduce_max_works() {
        for out in on_every_backend(4, |comm| {
            let mut v = vec![-(comm.rank() as f64), comm.rank() as f64];
            comm.all_reduce_max(&mut v);
            v
        }) {
            assert_eq!(out[0], vec![0.0, 3.0]);
        }
    }

    /// `f64::max` drops a NaN operand; the max all-reduce must not, on
    /// whichever rank the NaN is (first, inside, last) and whichever side
    /// of the larger values it meets.
    #[test]
    fn all_reduce_max_propagates_a_nan_on_one_rank() {
        const R: usize = 4;
        for nan_rank in 0..R {
            for out in on_every_backend(R, |comm| {
                let r = comm.rank() as f64;
                let mut v = vec![r, -r, 1e300 * r];
                if comm.rank() == nan_rank {
                    v[1] = f64::NAN;
                }
                comm.all_reduce_max(&mut v);
                v
            }) {
                for v in &out {
                    assert_eq!(v[0], 3.0, "NaN on rank {nan_rank}");
                    assert!(v[1].is_nan(), "NaN on rank {nan_rank}: {v:?}");
                    assert_eq!(v[2], 3e300, "NaN on rank {nan_rank}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "all_reduce_max length mismatch across ranks")]
    fn all_reduce_max_rejects_ragged_lengths() {
        World::run(2, |comm| {
            let mut v = vec![1.0; comm.rank() + 1];
            comm.all_reduce_max(&mut v);
        });
    }

    #[test]
    fn all_to_all_exchanges_rank_tagged_buffers() {
        for out in on_every_backend(4, |comm| {
            let send: Vec<Vec<f64>> = (0..4)
                .map(|dst| vec![(comm.rank() * 10 + dst) as f64])
                .collect();
            comm.all_to_all(send)
        }) {
            for (dst, recv) in out.iter().enumerate() {
                for (src, buf) in recv.iter().enumerate() {
                    assert_eq!(buf, &vec![(src * 10 + dst) as f64]);
                }
            }
        }
    }

    #[test]
    fn all_to_all_empty_buffers_skip_traffic() {
        let out = World::run(3, |comm| {
            let send: Vec<Vec<f64>> = (0..3)
                .map(|dst| {
                    if dst == (comm.rank() + 1) % 3 {
                        vec![1.0, 2.0]
                    } else {
                        vec![]
                    }
                })
                .collect();
            let recv = comm.all_to_all(send);
            (recv, comm.stats_snapshot())
        });
        for (rank, (recv, stats)) in out.iter().enumerate() {
            let from = (rank + 2) % 3;
            assert_eq!(recv[from], vec![1.0, 2.0]);
            assert_eq!(stats.a2a_messages, 1, "only one real message per rank");
            assert_eq!(stats.a2a_bytes, 16);
        }
    }

    #[test]
    fn repeated_collectives_do_not_cross_talk() {
        let out = World::run(5, |comm| {
            let mut total = 0.0;
            for i in 0..20 {
                total += comm.all_reduce_scalar((comm.rank() + i) as f64);
            }
            total
        });
        let expect: f64 = (0..20)
            .map(|i| (0..5).map(|r| (r + i) as f64).sum::<f64>())
            .sum();
        for v in out {
            assert_eq!(v, expect);
        }
    }

    #[test]
    fn p2p_ring_send_recv() {
        for out in on_every_backend(6, |comm| {
            let next = (comm.rank() + 1) % 6;
            let prev = (comm.rank() + 5) % 6;
            comm.send(next, 7, vec![comm.rank() as f64]);
            comm.recv(prev, 7)
        }) {
            for (rank, v) in out.iter().enumerate() {
                assert_eq!(v, &vec![((rank + 5) % 6) as f64]);
            }
        }
    }

    #[test]
    fn send_irecv_ring_completes() {
        for out in on_every_backend(5, |comm| {
            let next = (comm.rank() + 1) % 5;
            let prev = (comm.rank() + 4) % 5;
            comm.send(next, 3, vec![comm.rank() as f64; 4]);
            let recv = comm.irecv(prev, 3);
            recv.wait()
        }) {
            for (rank, v) in out.iter().enumerate() {
                assert_eq!(v, &vec![((rank + 4) % 5) as f64; 4]);
            }
        }
    }

    /// Requests may be completed in any order; matching stays FIFO per
    /// source, so the first-posted request gets the first-sent message.
    #[test]
    fn irecv_completion_order_is_independent_of_wait_order() {
        for out in on_every_backend(2, |comm| {
            let other = 1 - comm.rank();
            comm.send(other, 10, vec![1.0]);
            comm.send(other, 20, vec![2.0]);
            let first = comm.irecv(other, 10);
            let second = comm.irecv(other, 20);
            // Wait in reverse posting order.
            let b = second.wait();
            let a = first.wait();
            (a, b)
        }) {
            for (a, b) in out {
                assert_eq!(a, vec![1.0]);
                assert_eq!(b, vec![2.0]);
            }
        }
    }

    #[test]
    fn recv_counters_mirror_send_counters() {
        for out in on_every_backend(4, |comm| {
            comm.stats_reset();
            let next = (comm.rank() + 1) % 4;
            let prev = (comm.rank() + 3) % 4;
            comm.send(next, 1, vec![1.0; 8]);
            let r = comm.irecv(prev, 1);
            let _ = r.wait();
            comm.send(next, 2, vec![2.0; 3]);
            let _ = comm.recv(prev, 2);
            comm.stats_snapshot()
        }) {
            let sends: u64 = out.iter().map(|s| s.sends).sum();
            let recvs: u64 = out.iter().map(|s| s.recvs).sum();
            let send_bytes: u64 = out.iter().map(|s| s.send_bytes).sum();
            let recv_bytes: u64 = out.iter().map(|s| s.recv_bytes).sum();
            assert_eq!(sends, recvs, "every send must be drained by a recv");
            assert_eq!(send_bytes, recv_bytes, "byte accounting must be symmetric");
            for s in &out {
                assert_eq!(s.sends, 2);
                assert_eq!(s.recvs, 2);
                assert_eq!(s.send_bytes, 11 * 8);
                assert_eq!(s.recv_bytes, 11 * 8);
            }
        }
    }

    #[test]
    fn all_gather_returns_rank_ordered() {
        for out in on_every_backend(3, |comm| comm.all_gather(vec![comm.rank() as f64; 2])) {
            for parts in out {
                for (r, p) in parts.iter().enumerate() {
                    assert_eq!(p, &vec![r as f64; 2]);
                }
            }
        }
    }

    #[test]
    fn all_gather_records_replicated_traffic() {
        let out = World::run(4, |comm| {
            comm.stats_reset();
            let _ = comm.all_gather(vec![1.0, 2.0, 3.0]);
            comm.stats_snapshot()
        });
        for s in &out {
            assert_eq!(s.all_gathers, 1);
            // 3 doubles replicated to 3 peers.
            assert_eq!(s.all_gather_bytes, 3 * 8 * 3);
            assert_eq!(s.all_reduces, 0, "gathers are not all-reduces");
        }
        // Unequal contributions (Coal-AG): rank `r` pushes its own `r + 1`
        // values to each of the 3 peers, not the bytes it receives.
        let out = World::run(4, |comm| {
            comm.stats_reset();
            let parts = comm.all_gather(vec![1.0; comm.rank() + 1]);
            (
                parts.iter().map(Vec::len).sum::<usize>(),
                comm.stats_snapshot(),
            )
        });
        for (r, (gathered, s)) in out.iter().enumerate() {
            assert_eq!(*gathered, 1 + 2 + 3 + 4);
            assert_eq!(s.all_gather_bytes, (r as u64 + 1) * 8 * 3, "rank {r}");
        }
    }

    #[test]
    fn stats_reset_zeroes() {
        World::run(2, |comm| {
            comm.all_reduce_scalar(1.0);
            assert!(comm.stats_snapshot().all_reduces > 0);
            comm.stats_reset();
            assert_eq!(comm.stats_snapshot().all_reduces, 0);
        });
    }

    /// Arithmetic is transport-independent bit for bit: the reductions are
    /// computed by `Comm` in rank order from gathered contributions, so the
    /// backends cannot diverge.
    #[test]
    fn backends_produce_bit_identical_reductions() {
        let run = |b: Backend| {
            b.launch(6, |comm| {
                let mut acc = Vec::new();
                for i in 0..10 {
                    let x = ((comm.rank() + 1) as f64).powf(1.1 + i as f64 * 0.07);
                    acc.push(comm.all_reduce_scalar(x * 1e-3));
                }
                acc
            })
        };
        assert_eq!(run(Backend::Threads), run(Backend::Serial));
    }
}
