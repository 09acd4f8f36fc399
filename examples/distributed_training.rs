//! Distributed training demonstration (paper Fig. 6, right, widened to a
//! snapshot stream): train the same GNN (same seed, same dataset, same
//! shuffled batch order) four ways —
//!
//! * R = 1, un-partitioned (the target trajectory),
//! * R = 8 with consistent NMP layers (halo exchanges on),
//! * R = 8 with the **overlapped** consistent exchange — the same halos
//!   shipped through the non-blocking `isend`/`irecv` API end to end,
//! * R = 8 with standard NMP layers (halo exchanges off),
//!
//! and print the per-epoch mean-loss curves side by side. Every
//! configuration walks the identical mini-batch order (the epoch schedule
//! is a pure function of the seed, not of the rank count or backend), so
//! both consistent curves overlap the target to rounding precision — and
//! each other **exactly** — while the standard curve drifts.
//!
//! ```sh
//! cargo run --release --example distributed_training
//! ```

use cgnn::core::config;
use cgnn::prelude::*;

const SEED: u64 = 17;
const LR: f64 = 1e-3;

fn main() {
    let epochs = config::CGNN_ITERS.usize_or(30) as u64;
    let field = TaylorGreen::new(0.01);
    let mesh = BoxMesh::new((6, 6, 6), 2, (1.0, 1.0, 1.0), false);
    // Snapshot stream: the Taylor-Green field autoencoded at four decay
    // times, two snapshots per optimizer step, reshuffled every epoch.
    let times = [0.0, 0.15, 0.3, 0.45];
    let dataset = || Dataset::tgv_autoencode(&mesh, &field, &times).batch_size(2);
    println!(
        "mesh: 6^3 elements p=2, {} unique nodes; {} snapshots, {epochs} epochs\n",
        mesh.num_global_nodes(),
        times.len()
    );
    let base = || {
        Session::builder()
            .mesh(mesh.clone())
            .partition(Strategy::Block)
            .dataset(dataset())
            .model(GnnConfig::small())
            .seed(SEED)
            .learning_rate(LR)
    };
    let epoch_means =
        |reports: Vec<EpochReport>| -> Vec<f64> { reports.iter().map(|r| r.mean_loss()).collect() };

    // Target: R = 1.
    let target = epoch_means(
        base()
            .build()
            .expect("R=1 session")
            .train_epochs(epochs)
            .pop()
            .expect("reports"),
    );

    // R = 8 — one wiring, three exchange strategies against it.
    let r8 = base().ranks(8).build().expect("R=8 session");
    let mut curves = Vec::new();
    for mode in [
        HaloExchangeMode::NeighborAllToAll,
        HaloExchangeMode::Overlapped,
        HaloExchangeMode::None,
    ] {
        curves.push(epoch_means(
            r8.with_exchange(mode)
                .train_epochs(epochs)
                .pop()
                .expect("reports"),
        ));
    }
    assert_eq!(
        curves[0], curves[1],
        "the non-blocking overlapped exchange must be bit-identical to N-A2A"
    );

    println!(
        "{:>5} {:>16} {:>16} {:>16} {:>16} {:>12}",
        "epoch", "target (R=1)", "consistent R=8", "Ovl-SR R=8", "standard R=8", "cons rel-dev"
    );
    let e = epochs as usize;
    for i in (0..e).step_by((e / 12).max(1)) {
        println!(
            "{:>5} {:>16.8e} {:>16.8e} {:>16.8e} {:>16.8e} {:>12.2e}",
            i,
            target[i],
            curves[0][i],
            curves[1][i],
            curves[2][i],
            (curves[0][i] - target[i]).abs() / target[i],
        );
    }
    let last = e - 1;
    println!(
        "\nfinal: consistent deviates from target by {:.2e} (rounding),\n       \
         overlapped (isend/irecv) is bit-identical to consistent,\n       \
         standard deviates by {:.2e}",
        (curves[0][last] - target[last]).abs() / target[last],
        (curves[2][last] - target[last]).abs() / target[last],
    );
}
