//! Transport conformance: one body, run over every launchable transport.
//!
//! All four worlds are the same matching engine under a different carrier
//! and park policy, so one function states the contract once — healthy
//! traffic, a diverged collective schedule, a receive from a rank that
//! already finished, the liveness probe, the in-place all-reduces
//! held to their gather-then-fold oracle on generated payloads at
//! R = 1..=4, and oversized traffic both ways — and each `#[test]` only
//! picks the [`Backend`] (the loopback world, which is not launched, runs
//! the property at R = 1).
//! The cross-process tests pin their own name as the re-exec argv (via
//! `reexec_scope`), so child ranks re-run exactly that test, replay the
//! launches before theirs, and join.

#![expect(
    clippy::expect_used,
    reason = "a failed setup step fails the test, and its message names the step"
)]

use std::any::Any;
use std::panic::AssertUnwindSafe;
use std::time::{Duration, Instant};

use cgnn_comm::{reexec_scope, Backend, Comm, LoopbackBackend, RankFailure};

const WORLD: usize = 3;

/// Healthy traffic through every primitive; asserts on every rank and
/// returns a digest the launching process checks.
fn healthy(comm: &Comm) -> Vec<f64> {
    let size = comm.size();
    let rank = comm.rank();
    let r = rank as f64;
    assert_eq!(size, WORLD);

    let sum = comm.all_reduce_scalar(r + 1.0);
    assert_eq!(sum, 6.0, "1 + 2 + 3 across the world");
    // A NaN on one rank is the max on every rank.
    let mut max = [r, if rank == 1 { f64::NAN } else { -r }];
    comm.all_reduce_max(&mut max);
    assert_eq!(max[0], 2.0);
    assert!(
        max[1].is_nan(),
        "rank 1's NaN vanished from the max: {max:?}"
    );
    comm.barrier();

    let gathered = comm.all_gather(vec![r, r * 10.0]);
    for (src, buf) in gathered.iter().enumerate() {
        assert_eq!(buf, &vec![src as f64, src as f64 * 10.0]);
    }

    // One buffer per destination, including an empty one to self's
    // successor: empty buffers must still keep the exchange in lockstep.
    let send: Vec<Vec<f64>> = (0..size)
        .map(|dst| {
            if dst == (rank + 1) % size {
                Vec::new()
            } else {
                vec![r * 10.0 + dst as f64]
            }
        })
        .collect();
    let received = comm.all_to_all(send);
    for (src, buf) in received.iter().enumerate() {
        if rank == (src + 1) % size {
            assert!(buf.is_empty(), "src {src} sent an empty buffer here");
        } else {
            assert_eq!(buf, &vec![src as f64 * 10.0 + r]);
        }
    }

    // Point-to-point ring with two tags and deliberately out-of-order
    // completion: FIFO-per-peer matching must pair post k with arrival k.
    comm.stats_reset();
    let next = (rank + 1) % size;
    let prev = (rank + size - 1) % size;
    comm.send(next, 7, vec![r, 1.0]);
    comm.send(next, 8, vec![r, 2.0]);
    let first = comm.irecv(prev, 7);
    let second = comm.irecv(prev, 8);
    let tagged8 = second.wait();
    let tagged7 = first.wait();
    assert_eq!(tagged7, vec![prev as f64, 1.0]);
    assert_eq!(tagged8, vec![prev as f64, 2.0]);

    // The ring is symmetric, so a drained world has symmetric counters.
    comm.barrier();
    let snap = comm.stats_snapshot();
    assert_eq!((snap.sends, snap.recvs), (2, 2));
    assert_eq!((snap.send_bytes, snap.recv_bytes), (32, 32));
    vec![
        sum,
        gathered[2][1],
        received[prev].first().copied().unwrap_or(-1.0),
    ]
}

/// SplitMix64: the property's payloads follow from the case number and
/// the rank alone, so every transport and every re-exec'd rank draws the
/// same ones.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A payload value, weighted towards the ones a fold can get wrong:
    /// signed zeros, subnormals, infinities, and (`nan`) NaNs of either
    /// sign; the rest are ordinary values of mixed sign and scale.
    fn value(&mut self, nan: bool) -> f64 {
        let sign = if self.below(2) == 0 { 1.0 } else { -1.0 };
        match self.below(if nan { 7 } else { 6 }) {
            0 => sign * 0.0,
            1 => sign * f64::from_bits(1 + self.below(1 << 52)),
            2 => sign * f64::MIN_POSITIVE,
            3 => sign * f64::INFINITY,
            4 | 5 => sign * (self.below(1 << 20) as f64) * 2f64.powi(self.below(80) as i32 - 40),
            _ => sign * f64::NAN,
        }
    }
}

/// The all-reduce body before it worked in place, kept as the oracle:
/// gather every rank's buffer, then fold the parts into a buffer filled
/// with `identity`, in rank order, with `op`.
fn gather_then_fold(
    comm: &Comm,
    buf: &[f64],
    identity: f64,
    op: impl Fn(f64, f64) -> f64,
) -> Vec<f64> {
    let parts = comm.all_gather(buf.to_vec());
    let mut out = vec![identity; buf.len()];
    for part in &parts {
        for (o, &p) in out.iter_mut().zip(part) {
            *o = op(*o, p);
        }
    }
    out
}

/// The max that keeps a NaN, as the max all-reduce folds.
fn nan_max(m: f64, e: f64) -> f64 {
    if e.is_nan() || e > m {
        e
    } else {
        m
    }
}

const REDUCE_CASES: u64 = 24;

/// The property: on generated payloads, `all_reduce_sum` and
/// `all_reduce_max` (NaNs drawn for max only) are bit-equal to
/// [`gather_then_fold`] on every rank. A column is shared by every rank
/// with probability 1/3, so every rank sometimes holds the same special
/// value, −0.0 above all: folded from the identity `0.0 + -0.0` is `+0.0`,
/// so a fold that starts from the rank's own part instead fails here.
fn reduce_in_place(comm: &Comm) {
    let (rank, size) = (comm.rank(), comm.size());
    for case in 0..REDUCE_CASES {
        let mut shared = Draw(case);
        let mut own = Draw(case ^ ((rank as u64 + 1) << 32));
        let len = shared.below(40) as usize;
        let sum = |a: f64, b: f64| a + b;
        let ops: [(&str, bool, f64, fn(f64, f64) -> f64, fn(&Comm, &mut [f64])); 2] = [
            ("sum", false, 0.0, sum, Comm::all_reduce_sum),
            (
                "max",
                true,
                f64::NEG_INFINITY,
                nan_max,
                Comm::all_reduce_max,
            ),
        ];
        for (name, nan, identity, op, reduce) in ops {
            let buf: Vec<f64> = (0..len)
                .map(|_| {
                    let (s, o) = (shared.value(nan), own.value(nan));
                    if shared.below(3) == 0 {
                        s
                    } else {
                        o
                    }
                })
                .collect();
            let want = gather_then_fold(comm, &buf, identity, op);
            let mut got = buf.clone();
            reduce(comm, &mut got);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            assert_eq!(
                bits(&got),
                bits(&want),
                "{} R={size} rank {rank} case {case} {name}: {buf:?} reduced to {got:?}, want {want:?}",
                comm.backend_label()
            );
        }
    }
}

/// Frames every rank sends each peer in [`oversized`]: at least two per
/// direction, or a send made under the mailbox lock gets through.
const BIG_FRAMES: usize = 4;
/// Elements of one 2 MiB frame.
const BIG_LEN: usize = (2 << 20) / 8;

/// Frame `k` from `src` to `dst` in [`oversized`], `len` elements long,
/// every element distinct.
fn big_frame(src: usize, dst: usize, k: usize, len: usize) -> Vec<f64> {
    let base = (((src * WORLD + dst) * (BIG_FRAMES + 1) + k) * len) as f64;
    (0..len).map(|i| base + i as f64).collect()
}

/// Oversized traffic both ways: every rank sends each peer
/// [`BIG_FRAMES`] frames of 2 MiB, far more than a socket buffers, before
/// it receives any; then an all-to-all of 1 MiB per peer. A send that
/// waited on the peer's program, or one posted while its rank holds the
/// mailbox lock the peer's reader needs, hangs here.
fn oversized(comm: &Comm) {
    let (rank, size) = (comm.rank(), comm.size());
    let peers = || (0..size).filter(move |&p| p != rank);
    for dst in peers() {
        for k in 0..BIG_FRAMES {
            comm.send(dst, k as u32, big_frame(rank, dst, k, BIG_LEN));
        }
    }
    for src in peers() {
        for k in 0..BIG_FRAMES {
            let got = comm.recv(src, k as u32);
            let ok = got == big_frame(src, rank, k, BIG_LEN);
            assert!(ok, "rank {rank}: frame {k} from {src} arrived changed");
        }
    }
    let send = (0..size)
        .map(|dst| big_frame(rank, dst, BIG_FRAMES, BIG_LEN / 2))
        .collect();
    for (src, got) in comm.all_to_all(send).into_iter().enumerate() {
        let ok = got == big_frame(src, rank, BIG_FRAMES, BIG_LEN / 2);
        assert!(
            ok,
            "rank {rank}: all_to_all part from {src} arrived changed"
        );
    }
}

fn unwind_of(f: impl FnOnce()) -> Box<dyn Any + Send> {
    std::panic::catch_unwind(AssertUnwindSafe(f)).expect_err("the world must unwind")
}

fn conformance(backend: Backend) {
    // 1. Healthy traffic. In-process launches return every rank,
    //    cross-process ones rank 0 only.
    let out = backend.launch(WORLD, |comm| {
        // (A child rank replaying an earlier cross-process launch runs
        // it on the serial reference, under that label.)
        if backend.is_in_process() {
            assert_eq!(comm.backend_label(), backend.label());
        }
        healthy(comm)
    });
    assert_eq!(out.len(), if backend.is_in_process() { WORLD } else { 1 });
    assert_eq!(out[0], vec![6.0, 20.0, -1.0], "{backend}");

    // 2. A diverged collective schedule fails loudly on its labels
    //    instead of exchanging garbage or hanging, whichever two
    //    collectives diverged: rank 0 runs the first, its peers the second.
    let all_to_all = |comm: &Comm| {
        comm.all_to_all(vec![Vec::new(); comm.size()]);
    };
    let all_gather = |comm: &Comm| {
        comm.all_gather(vec![1.0]);
    };
    let diverged: [(&str, fn(&Comm), fn(&Comm)); 3] = [
        ("all_gather/all_reduce", all_gather, |comm| {
            comm.all_reduce_scalar(1.0);
        }),
        ("barrier/all_to_all", Comm::barrier, all_to_all),
        ("all_to_all/all_gather", all_to_all, all_gather),
    ];
    for (pairing, first, rest) in diverged {
        let payload = unwind_of(|| {
            backend.launch(WORLD, |comm| {
                if comm.rank() == 0 {
                    first(comm);
                } else {
                    rest(comm);
                }
            });
        });
        #[expect(
            clippy::panic,
            reason = "test body shared by #[test] fns: a non-string payload fails the test"
        )]
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&'static str>().copied())
            .unwrap_or_else(|| panic!("{backend} {pairing}: label mismatch must be a plain panic"));
        assert!(
            message.contains("collective mismatch"),
            "{backend} {pairing}: {message}"
        );
    }

    // 3. A receive from a rank that already finished its program can
    //    never complete: the peer's `Bye` aborts the wait, typed.
    let payload = unwind_of(|| {
        backend.launch(WORLD, |comm| {
            if comm.rank() == 0 {
                comm.recv(1, 9);
            }
        });
    });
    assert_eq!(
        RankFailure::from_payload(payload.as_ref()),
        Some(&RankFailure::PeerDead {
            rank: 0,
            dead: vec![1]
        }),
        "{backend}"
    );

    // 4. The liveness probe: a rank that declares itself dead shows up in
    //    every peer's `dead_ranks` without anyone blocking on it.
    backend.launch(WORLD, |comm| {
        if comm.rank() == 0 {
            comm.mark_dead();
            assert_eq!(comm.dead_ranks(), vec![0]);
            return;
        }
        let give_up = Instant::now() + Duration::from_secs(5);
        while comm.dead_ranks() != [0] {
            assert!(
                Instant::now() < give_up,
                "{backend}: rank {} never saw rank 0's death",
                comm.rank()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    });

    // 5. The in-place all-reduces against their gather-then-fold oracle.
    for size in 1..=4 {
        backend.launch(size, reduce_in_place);
    }

    // 6. Oversized traffic both ways.
    backend.launch(WORLD, oversized);
}

fn worker_args(test_name: &str) -> [String; 4] {
    [
        test_name.to_string(),
        "--exact".to_string(),
        "--test-threads=1".to_string(),
        "--quiet".to_string(),
    ]
}

#[test]
fn loopback_reduces_in_place() {
    reduce_in_place(&LoopbackBackend::comm());
}

#[test]
fn threads_conform() {
    conformance(Backend::Threads);
}

#[test]
fn serial_conforms() {
    conformance(Backend::Serial);
}

#[test]
fn proc_conforms() {
    let _scope = reexec_scope(worker_args("proc_conforms"));
    conformance(Backend::Proc);
}

#[test]
fn socket_conforms() {
    let _scope = reexec_scope(worker_args("socket_conforms"));
    conformance(Backend::Socket);
}
