//! Transport conformance: one body, run over every launchable transport.
//!
//! All four worlds are the same matching engine under a different carrier
//! and park policy, so one function states the contract once — healthy
//! traffic, a diverged collective schedule, a receive from a rank that
//! already finished, and the liveness probe — and each `#[test]` only
//! picks the [`Backend`]. The cross-process tests pin their own name as
//! the re-exec argv (via `reexec_scope`), so child ranks re-run exactly
//! that test, replay the launches before theirs, and join.

#![expect(
    clippy::expect_used,
    reason = "a failed setup step fails the test, and its message names the step"
)]

use std::any::Any;
use std::panic::AssertUnwindSafe;
use std::time::{Duration, Instant};

use cgnn_comm::{reexec_scope, Backend, Comm, RankFailure};

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
    let isend = comm.isend(next, 7, vec![r, 1.0]);
    comm.send(next, 8, vec![r, 2.0]);
    let first = comm.irecv(prev, 7);
    let second = comm.irecv(prev, 8);
    let tagged8 = second.wait();
    let tagged7 = first.wait();
    isend.wait();
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
