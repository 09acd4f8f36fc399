//! Transport equivalence across *all four* launchable backends: for every
//! consistent halo-exchange mode, a world of 3 ranks must produce
//! bit-identical loss trajectories, bit-identical checkpoint files, and
//! bit-identical resumed trajectories whether the ranks are OS threads
//! (`Backend::Threads`), round-robin single-stepped (`Backend::Serial`),
//! separate re-exec'd processes over a Unix-socket mesh (`Backend::Proc`),
//! or separate processes over a localhost TCP mesh (`Backend::Socket`).
//!
//! The cross-process backends re-exec this test binary for ranks 1..R, so
//! the suite is **one** parent `#[test]` plus an `#[ignore]`d worker entry
//! the children run instead (`reexec_scope` pins the child argv; the cell
//! under test travels in `CGNN_TEST_CELL`). Each cell spans two launches —
//! train-and-checkpoint, then restore-and-resume — and a child joining the
//! second launch deterministically replays the first in-process, rewriting
//! the (atomically saved, byte-identical) checkpoint on its way.

#![expect(
    clippy::expect_used,
    reason = "a failed setup step fails the test, and its message names the step"
)]

use std::path::{Path, PathBuf};

use cgnn::comm::reexec_scope;
use cgnn::prelude::*;

const SEED: u64 = 41;
const LR: f64 = 1e-3;
const K: usize = 4;
const WORLD: usize = 3;

const WORKER: &str = "backend_worker_entry";
const CELL_ENV: &str = "CGNN_TEST_CELL";
const DIR_ENV: &str = "CGNN_EQUIV_DIR";

fn mesh() -> BoxMesh {
    BoxMesh::new((4, 3, 2), 1, (1.0, 1.0, 1.0), false)
}

/// The argv child rank processes re-run: exactly the ignored worker entry,
/// single-threaded so launch numbering inside the scope is deterministic.
fn worker_args() -> [&'static str; 5] {
    [
        WORKER,
        "--exact",
        "--ignored",
        "--test-threads=1",
        "--quiet",
    ]
}

/// Everything a (mode, backend) cell produces that must agree bit-for-bit
/// across backends.
struct CellOut {
    /// Rank 0's loss trajectory for the first `K` steps.
    head: Vec<f64>,
    /// Raw bytes of the checkpoint file rank 0 saved after the head.
    ckpt_bytes: Vec<u8>,
    /// Rank 0's loss trajectory for `K` further steps resumed from it.
    tail: Vec<f64>,
    /// World-summed `[sends, recvs, send_bytes, recv_bytes]` of the tail.
    traffic: [u64; 4],
    /// Per rank, over the tail's steps after its first (warm) one:
    /// all-reduces, and `[messages, bytes]` of the halo exchanges, counted
    /// and as `HaloContext::traffic_per_exchange` predicts them.
    per_step: Vec<(u64, [u64; 2], [u64; 2])>,
}

/// One equivalence cell: two launches on `backend` under whatever
/// `reexec_scope` the caller pinned. Runs identically in the parent test
/// and in re-exec'd child rank processes (where one launch joins the
/// spawned world and the other replays in-process).
fn run_cell(mode: HaloExchangeMode, backend: Backend, dir: &Path) -> CellOut {
    let field = TaylorGreen::new(0.01);
    let session = Session::builder()
        .mesh(mesh())
        .partition(Strategy::Block)
        .ranks(WORLD)
        .exchange(mode)
        .backend(backend)
        .seed(SEED)
        .learning_rate(LR)
        .build()
        .expect("session");
    let path = dir.join(format!("{}-{}.ckpt", mode.label(), backend.label()));

    // Launch 1: train K steps, checkpoint on rank 0.
    let heads = session.run(|h| {
        let data = h.autoencode_data(&field, 0.0);
        let hist = h.train(&data, K);
        if h.rank() == 0 {
            h.save_params(&path).expect("checkpoint");
        }
        hist
    });
    for (rank, head) in heads.iter().enumerate().skip(1) {
        assert_eq!(head, &heads[0], "rank {rank} head diverged from rank 0");
    }
    let ckpt_bytes = std::fs::read(&path).expect("read checkpoint back");

    // Launch 2: restore and train K more, measuring p2p traffic symmetry
    // and the traffic of the steps after the first inside the SPMD region
    // (each rank contributes its counters to an all-gather so rank 0 can
    // report them all).
    let tails = session.restore(&path).expect("restore").run(|h| {
        let data = h.autoencode_data(&field, 0.0);
        h.traffic_reset();
        let mut hist = h.train(&data, 1);
        let warm = h.traffic();
        hist.extend(h.train(&data, K - 1));
        let t = h.traffic();
        let peers = h.size() as u64 - 1;
        let halo = |s: &StatsSnapshot| {
            let messages = s.a2a_messages + s.sends + s.all_gathers * peers;
            [messages, s.a2a_bytes + s.send_bytes + s.all_gather_bytes]
        };
        let config = h.trainer().model.config;
        let exchanges = (2 * config.n_mp_layers * (K - 1)) as u64;
        let predicted = h
            .trainer()
            .ctx
            .traffic_per_exchange(h.graph(), config.hidden);
        let counts = [
            t.sends,
            t.recvs,
            t.send_bytes,
            t.recv_bytes,
            t.all_reduces - warm.all_reduces,
            halo(&t)[0] - halo(&warm)[0],
            halo(&t)[1] - halo(&warm)[1],
            exchanges * predicted.messages,
            exchanges * predicted.bytes,
        ];
        let gathered = h.comm().all_gather(counts.map(|c| c as f64).to_vec());
        let mut totals = [0u64; 4];
        let mut per_step = Vec::new();
        for buf in gathered {
            let c: Vec<u64> = buf.into_iter().map(|v| v as u64).collect();
            for (slot, v) in totals.iter_mut().zip(&c) {
                *slot += v;
            }
            per_step.push((c[4], [c[5], c[6]], [c[7], c[8]]));
        }
        (hist, totals, per_step)
    });
    for (rank, (tail, ..)) in tails.iter().enumerate().skip(1) {
        assert_eq!(tail, &tails[0].0, "rank {rank} tail diverged from rank 0");
    }
    let (tail, traffic, per_step) = tails.into_iter().next().expect("rank 0 result");
    CellOut {
        head: heads.into_iter().next().expect("rank 0 result"),
        ckpt_bytes,
        tail,
        traffic,
        per_step,
    }
}

#[expect(
    clippy::panic,
    reason = "test helper: an unknown label is a bug in the test matrix"
)]
fn mode_from_label(label: &str) -> HaloExchangeMode {
    HaloExchangeMode::all()
        .into_iter()
        .find(|m| m.label() == label)
        .unwrap_or_else(|| panic!("unknown exchange mode label {label:?}"))
}

#[expect(
    clippy::panic,
    reason = "test helper: an unknown label is a bug in the test matrix"
)]
fn backend_from_label(label: &str) -> Backend {
    [
        Backend::Threads,
        Backend::Serial,
        Backend::Proc,
        Backend::Socket,
    ]
    .into_iter()
    .find(|b| b.label() == label)
    .unwrap_or_else(|| panic!("unknown backend label {label:?}"))
}

/// Re-exec entry point: child rank processes run *this* (ignored) test,
/// read the cell from the environment, and replay the parent's launch
/// sequence for that cell so `CGNN_PROC_SEQ` lines up.
#[test]
#[ignore = "re-exec entry point for cross-process child ranks"]
fn backend_worker_entry() {
    #[expect(
        clippy::disallowed_methods,
        reason = "test-harness handshake between this test and its re-exec'd children, not a program knob"
    )]
    let Ok(cell) = std::env::var(CELL_ENV) else {
        return; // invoked via `--ignored` by hand, not as a child rank
    };
    let (mode_label, backend_label) = cell
        .split_once('/')
        .unwrap_or_else(|| panic!("malformed {CELL_ENV}={cell:?}"));
    #[expect(
        clippy::disallowed_methods,
        reason = "test-harness handshake between this test and its re-exec'd children, not a program knob"
    )]
    let dir = PathBuf::from(std::env::var(DIR_ENV).expect("parent exports the cell dir"));
    let _scope = reexec_scope(worker_args());
    run_cell(
        mode_from_label(mode_label),
        backend_from_label(backend_label),
        &dir,
    );
}

/// The tentpole claim, executable: all four transports are bit-identical —
/// trajectories, checkpoint files, and checkpoint/restore round-trips —
/// for every consistent halo-exchange mode, and the cross-process
/// transports' point-to-point traffic is exactly symmetric (every posted
/// send was drained by a matching receive; nothing lost on the wire).
/// On every transport, each warm step of every rank issues exactly two
/// all-reduces (the loss's and the gradients') and the halo messages and
/// bytes predicted for two exchanges per message-passing layer (forward
/// and backward).
#[test]
fn all_backends_bit_identical_for_all_consistent_modes() {
    let dir = std::env::temp_dir().join(format!("cgnn-equiv-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("cell dir");
    // Children inherit these: the worker entry reads them to find its cell.
    // (This test binary runs exactly one non-ignored test, so process-global
    // env mutation races with nothing.)
    std::env::set_var(DIR_ENV, &dir);

    let backends = [
        Backend::Threads,
        Backend::Serial,
        Backend::Proc,
        Backend::Socket,
    ];
    for mode in HaloExchangeMode::all()
        .into_iter()
        .filter(|m| m.is_consistent())
    {
        let mut outs: Vec<(Backend, CellOut)> = Vec::new();
        for backend in backends {
            std::env::set_var(CELL_ENV, format!("{}/{}", mode.label(), backend.label()));
            let _scope = reexec_scope(worker_args());
            outs.push((backend, run_cell(mode, backend, &dir)));
        }
        let reference = &outs[0].1;
        assert_eq!(reference.head.len(), K);
        assert_eq!(reference.tail.len(), K);
        for (backend, out) in &outs[1..] {
            let b = backend.label();
            assert_eq!(out.head, reference.head, "mode {mode}, backend {b}: head");
            assert_eq!(
                out.ckpt_bytes, reference.ckpt_bytes,
                "mode {mode}, backend {b}: checkpoint file bytes"
            );
            assert_eq!(
                out.tail, reference.tail,
                "mode {mode}, backend {b}: resumed tail"
            );
        }
        for (backend, out) in &outs {
            let b = backend.label();
            for (rank, (all_reduces, halo, predicted)) in out.per_step.iter().enumerate() {
                let what = format!("mode {mode}, backend {b}, rank {rank}");
                assert_eq!(*all_reduces, 2 * (K as u64 - 1), "{what}: all-reduces");
                assert!(predicted[1] > 0, "{what}: halo check is vacuous");
                assert_eq!(halo, predicted, "{what}: halo [messages, bytes]");
            }
            if backend.is_in_process() {
                continue;
            }
            let [sends, recvs, send_bytes, recv_bytes] = out.traffic;
            assert_eq!(sends, recvs, "mode {mode}, backend {b}: sends != recvs");
            assert_eq!(
                send_bytes, recv_bytes,
                "mode {mode}, backend {b}: send bytes != recv bytes"
            );
            if matches!(
                mode,
                HaloExchangeMode::SendRecv | HaloExchangeMode::Overlapped
            ) {
                assert!(sends > 0, "mode {mode}, backend {b}: p2p check is vacuous");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
