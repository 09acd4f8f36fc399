//! Cross-process distributed training: the same R = 4 job launched three
//! ways — on the deterministic in-process serial backend (the reference),
//! as four **OS processes** over a Unix-socket mesh (`Backend::Proc`), and
//! as four processes over a localhost **TCP** mesh (`Backend::Socket`) —
//! asserting the loss trajectories are bit-identical transport for
//! transport.
//!
//! The cross-process launchers re-exec this binary for ranks 1..R: a child
//! re-runs `main`, replays any earlier launch deterministically
//! in-process, and joins its world at the matching launch (see
//! `docs/DISTRIBUTED.md`). Each rank process runs its kernels on its one
//! rank thread.
//!
//! ```sh
//! cargo run --release --example cross_process_training
//! ```
//!
//! Env: `CGNN_ITERS` (training steps, default 20), `CGNN_ELEMS` (mesh
//! elements per axis, default 4).

use cgnn::core::config;
use cgnn::prelude::*;

const SEED: u64 = 29;
const LR: f64 = 1e-3;
const RANKS: usize = 4;

fn main() {
    let iters = config::CGNN_ITERS.usize_or(20);
    let elems = config::CGNN_ELEMS.usize_or(4);
    let field = TaylorGreen::new(0.01);
    let mesh = BoxMesh::new((elems, elems, elems), 1, (1.0, 1.0, 1.0), false);
    #[expect(
        clippy::panic,
        reason = "example: a session that fails to build ends the demo, naming the backend"
    )]
    let session = |backend: Backend| {
        Session::builder()
            .mesh(mesh.clone())
            .partition(Strategy::Block)
            .ranks(RANKS)
            .exchange(HaloExchangeMode::NeighborAllToAll)
            .backend(backend)
            .model(GnnConfig::small())
            .seed(SEED)
            .learning_rate(LR)
            .build()
            .unwrap_or_else(|e| panic!("{} session: {e:?}", backend.label()))
    };

    // Reference: the serial backend single-steps all four ranks in this
    // process. (Child rank processes re-run this too before joining their
    // world — it is part of the deterministic replay.)
    let reference = session(Backend::Serial).train_autoencode(&field, 0.0, iters);

    // Four OS processes over a Unix-socket mesh. Only rank 0 (this
    // process) returns; ranks 1..4 are re-exec'd children.
    let proc = session(Backend::Proc).train_autoencode(&field, 0.0, iters);
    assert_eq!(
        proc[0], reference[0],
        "cross-process trajectory must be bit-identical to the serial reference"
    );

    // Four processes over a localhost TCP mesh (the same handshake).
    let socket = session(Backend::Socket).train_autoencode(&field, 0.0, iters);
    assert_eq!(
        socket[0], reference[0],
        "TCP-mesh trajectory must be bit-identical to the serial reference"
    );

    println!(
        "R={RANKS} x {iters} steps on {elems}^3 elements ({} nodes/rank avg)",
        mesh.num_global_nodes() / RANKS
    );
    for (label, hist) in [
        ("serial (reference)", &reference[0]),
        ("proc   (UDS mesh)", &proc[0]),
        ("socket (TCP mesh)", &socket[0]),
    ] {
        println!(
            "{label}: first {:.8e} -> final {:.8e}",
            hist[0],
            hist[iters - 1]
        );
    }
    println!(
        "\nall three transports produced bit-identical trajectories \
         ({iters} steps, {RANKS} ranks)"
    );
}
