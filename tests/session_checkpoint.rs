//! Session checkpointing: `RankHandle::save_params` writes model
//! parameters + Adam optimizer state; `Session::restore` produces a
//! session whose runs resume from that checkpoint. The defining property
//! is **exact resume**: train k steps, checkpoint, resume — the combined
//! trajectory equals the uninterrupted run bit for bit, on every backend.

#![expect(
    clippy::expect_used,
    reason = "a failed setup step fails the test, and its message names the step"
)]

use cgnn::prelude::*;

const SEED: u64 = 23;
const LR: f64 = 1e-3;
const K: usize = 6;

fn mesh() -> BoxMesh {
    BoxMesh::new((4, 4, 2), 1, (1.0, 1.0, 1.0), false)
}

fn session(backend: Backend) -> Session {
    Session::builder()
        .mesh(mesh())
        .partition(Strategy::Block)
        .ranks(4)
        .exchange(HaloExchangeMode::NeighborAllToAll)
        .seed(SEED)
        .learning_rate(LR)
        .backend(backend)
        .build()
        .expect("session")
}

fn tmp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cgnn_ckpt_it_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir.join(name)
}

/// Train k steps, checkpoint, train k more in a *separate resumed run*:
/// the resumed tail must equal the uninterrupted run's tail bit for bit —
/// Adam moments and step count included (plain parameter restore would
/// diverge through the bias correction).
#[test]
fn resume_equals_uninterrupted_run_bit_for_bit() {
    let field = TaylorGreen::new(0.01);
    let s = session(Backend::Threads);

    // Reference: 2k uninterrupted steps.
    let full = s.train_autoencode(&field, 0.0, 2 * K);

    // Interrupted: k steps, checkpoint on rank 0, stop.
    let path = tmp_path("resume.ckpt");
    let head = s.run(|h| {
        let data = h.autoencode_data(&field, 0.0);
        let hist = h.train(&data, K);
        if h.rank() == 0 {
            h.save_params(&path).expect("checkpoint");
        }
        hist
    });

    // Resume: a restored session trains the remaining k steps.
    let tail = s
        .restore(&path)
        .expect("restore")
        .train_autoencode(&field, 0.0, K);

    for rank in 0..s.ranks() {
        assert_eq!(head[rank], full[rank][..K], "head must match (rank {rank})");
        assert_eq!(
            tail[rank],
            full[rank][K..],
            "resumed tail must be bit-identical to the uninterrupted run (rank {rank})"
        );
    }
    let _ = std::fs::remove_file(&path);
}

/// Checkpoints are transport-independent: save under the thread world,
/// resume on the deterministic serial backend (and vice versa) — the
/// trajectories stay bit-identical because arithmetic lives above the
/// backend.
#[test]
fn checkpoint_round_trips_across_backends() {
    let field = TaylorGreen::new(0.01);
    let threads = session(Backend::Threads);
    let full = threads.train_autoencode(&field, 0.0, 2 * K);

    let path = tmp_path("cross_backend.ckpt");
    threads.run(|h| {
        let data = h.autoencode_data(&field, 0.0);
        let _ = h.train(&data, K);
        if h.rank() == 0 {
            h.save_params(&path).expect("checkpoint");
        }
    });

    let tail_serial = session(Backend::Serial)
        .restore(&path)
        .expect("restore")
        .train_autoencode(&field, 0.0, K);
    for rank in 0..threads.ranks() {
        assert_eq!(
            tail_serial[rank],
            full[rank][K..],
            "serial resume of a threads checkpoint diverged (rank {rank})"
        );
    }
    let _ = std::fs::remove_file(&path);
}

/// A checkpoint taken before any training step (empty Adam moments) also
/// resumes exactly: the restored run reproduces the from-seed trajectory.
#[test]
fn fresh_checkpoint_resumes_from_step_zero() {
    let field = TaylorGreen::new(0.01);
    let s = session(Backend::Threads);
    let path = tmp_path("fresh.ckpt");
    s.run(|h| {
        if h.rank() == 0 {
            h.save_params(&path).expect("checkpoint");
        }
    });
    let reference = s.train_autoencode(&field, 0.0, K);
    let restored = s
        .restore(&path)
        .expect("restore")
        .train_autoencode(&field, 0.0, K);
    assert_eq!(reference, restored);
    let _ = std::fs::remove_file(&path);
}
