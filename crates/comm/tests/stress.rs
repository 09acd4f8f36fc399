//! Stress and interleaving tests of the communicator: the consistent GNN
//! issues long alternating sequences of all-to-alls, all-reduces, and
//! point-to-point traffic across layers and iterations; these tests hammer
//! those patterns for cross-talk and ordering bugs — over every in-tree
//! transport, asserting that traffic accounting stays send/recv symmetric.

use cgnn_comm::{Backend, StatsSnapshot, World};

/// Sum-aggregate snapshots and assert the world drained every byte it
/// injected point-to-point.
fn assert_p2p_symmetric(stats: &[StatsSnapshot]) {
    let sends: u64 = stats.iter().map(|s| s.sends).sum();
    let recvs: u64 = stats.iter().map(|s| s.recvs).sum();
    let send_bytes: u64 = stats.iter().map(|s| s.send_bytes).sum();
    let recv_bytes: u64 = stats.iter().map(|s| s.recv_bytes).sum();
    assert_eq!(sends, recvs, "total sends must equal total recvs");
    assert_eq!(
        send_bytes, recv_bytes,
        "total send bytes must equal total recv bytes"
    );
}

#[test]
fn interleaved_collectives_and_p2p_do_not_cross_talk() {
    let r = 8;
    for backend in Backend::all() {
        let out = backend.launch(r, |comm| {
            comm.stats_reset();
            let mut acc = 0.0f64;
            for round in 0..50 {
                // All-to-all with round-stamped payloads.
                let send: Vec<Vec<f64>> = (0..r)
                    .map(|dst| vec![(comm.rank() * 1000 + dst * 10 + round) as f64])
                    .collect();
                let recv = comm.all_to_all(send);
                for (src, buf) in recv.iter().enumerate() {
                    assert_eq!(buf[0], (src * 1000 + comm.rank() * 10 + round) as f64);
                }
                // Ring p2p in between.
                let next = (comm.rank() + 1) % r;
                let prev = (comm.rank() + r - 1) % r;
                comm.send(next, round as u32, vec![comm.rank() as f64 + round as f64]);
                let got = comm.recv(prev, round as u32);
                assert_eq!(got[0], prev as f64 + round as f64);
                // All-reduce mixing both.
                acc += comm.all_reduce_scalar(got[0]);
            }
            (acc, comm.stats_snapshot())
        });
        for (v, _) in &out {
            assert_eq!(
                v, &out[0].0,
                "ranks disagree after interleaved traffic ({backend})"
            );
        }
        let stats: Vec<StatsSnapshot> = out.iter().map(|&(_, s)| s).collect();
        assert_p2p_symmetric(&stats);
    }
}

#[test]
fn many_small_allreduces_remain_deterministic() {
    // The consistent loss issues tiny scalar all-reduces every iteration;
    // results must be bit-identical across ranks, across runs — and across
    // transports, since the reduction arithmetic lives above the backend.
    let run = |backend: Backend| {
        backend.launch(7, |comm| {
            let mut acc = 0.0f64;
            for i in 0..200 {
                let x = ((comm.rank() + 1) as f64).powf(1.0 + (i % 7) as f64 * 0.1);
                acc += comm.all_reduce_scalar(x * 1e-3);
            }
            acc
        })
    };
    let a = run(Backend::Threads);
    let b = run(Backend::Threads);
    assert_eq!(a, b, "runs differ");
    for v in &a[1..] {
        assert_eq!(v, &a[0], "ranks differ");
    }
    assert_eq!(
        a,
        run(Backend::Serial),
        "serial backend must reproduce the thread world bit for bit"
    );
}

#[test]
fn large_buffer_all_to_all_roundtrip() {
    let r = 4;
    let n = 100_000;
    let out = World::run(r, |comm| {
        let send: Vec<Vec<f64>> = (0..r)
            .map(|dst| {
                (0..n)
                    .map(|i| (comm.rank() * r + dst) as f64 + i as f64 * 1e-6)
                    .collect()
            })
            .collect();
        let recv = comm.all_to_all(send);
        recv.iter()
            .enumerate()
            .map(|(src, buf)| {
                assert_eq!(buf.len(), n);
                assert_eq!(buf[0], (src * r + comm.rank()) as f64);
                buf[n - 1]
            })
            .sum::<f64>()
    });
    for v in &out[1..] {
        assert_ne!(*v, 0.0);
    }
    drop(out);
}

#[test]
fn buffered_sends_do_not_deadlock_in_any_order() {
    // All ranks send to everyone before receiving anything — only safe with
    // buffered (non-blocking) sends, which the halo SendRecv mode relies on.
    // The serial backend must tolerate the same pattern: sends never yield.
    let r = 6;
    for backend in Backend::all() {
        let stats = backend.launch(r, |comm| {
            comm.stats_reset();
            for dst in 0..r {
                if dst != comm.rank() {
                    comm.send(dst, 9, vec![comm.rank() as f64; 64]);
                }
            }
            for src in 0..r {
                if src != comm.rank() {
                    let got = comm.recv(src, 9);
                    assert_eq!(got, vec![src as f64; 64]);
                }
            }
            comm.stats_snapshot()
        });
        assert_p2p_symmetric(&stats);
        for s in &stats {
            // Per-rank symmetry holds too for this all-pairs pattern.
            assert_eq!(s.sends, (r - 1) as u64);
            assert_eq!(s.recvs, (r - 1) as u64);
            assert_eq!(s.send_bytes, s.recv_bytes);
        }
    }
}

#[test]
fn overlapped_send_irecv_storm_completes_in_any_wait_order() {
    // The overlapped halo exchange posts every send, then every irecv,
    // then waits — stress that pattern with many in-flight requests per
    // peer and reversed completion order.
    let r = 5;
    let rounds = 20;
    for backend in Backend::all() {
        let out = backend.launch(r, |comm| {
            comm.stats_reset();
            let mut total = 0.0f64;
            for round in 0..rounds {
                for dst in 0..r {
                    if dst != comm.rank() {
                        comm.send(dst, round, vec![comm.rank() as f64 + round as f64; 16]);
                    }
                }
                let mut recvs = Vec::new();
                for src in 0..r {
                    if src != comm.rank() {
                        recvs.push(comm.irecv(src, round));
                    }
                }
                // Complete receives in reverse posting order.
                for req in recvs.into_iter().rev() {
                    let src = req.source();
                    let got = req.wait();
                    assert_eq!(got, vec![src as f64 + round as f64; 16]);
                    total += got[0];
                }
            }
            (total, comm.stats_snapshot())
        });
        for (rank, (v, _)) in out.iter().enumerate() {
            // sum over rounds and peers of (src + round):
            // rounds * (sum of peers) + (r-1) * sum of rounds.
            let peer_sum = (0..r).filter(|&s| s != rank).sum::<usize>() as f64;
            let round_sum = (rounds * (rounds - 1) / 2) as f64;
            let expect = rounds as f64 * peer_sum + (r - 1) as f64 * round_sum;
            assert_eq!(*v, expect, "rank {rank} total mismatch ({backend})");
        }
        let stats: Vec<StatsSnapshot> = out.iter().map(|&(_, s)| s).collect();
        assert_p2p_symmetric(&stats);
        for s in &stats {
            assert_eq!(s.sends, (rounds * (r - 1) as u32) as u64);
            assert_eq!(s.recvs, s.sends, "every irecv completion is counted");
        }
    }
}
