//! Surrogate-modeling workflow (paper Fig. 1, end to end): the mini
//! spectral-element solver plays NekRS and dumps a **stream** of velocity
//! snapshots from one continuous diffusion trajectory; a distributed
//! consistent GNN then learns the coarse time-advancement map
//! `u(t_k) -> u(t_{k+1})` over the whole stream with shuffled mini-batch
//! epochs, and is evaluated on held-out per-node prediction error.
//!
//! ```sh
//! cargo run --release --example tgv_surrogate
//! ```

#![expect(
    clippy::expect_used,
    reason = "an example stops with a message instead of threading errors through its walkthrough"
)]

use cgnn::core::config;
use cgnn::prelude::*;

fn main() {
    // 1. "NekRS": diffuse the TGV velocity field on a 3^3-element p=4 box,
    //    capturing six consecutive snapshot pairs of one trajectory.
    let mesh = BoxMesh::tgv_cube(3, 4);
    println!(
        "generating data: diffusing TGV on {} nodes, 6 snapshot pairs...",
        mesh.num_global_nodes()
    );
    let stream = SnapshotStream::tgv_diffusion(&mesh, 0.5, 5e-4, 40, 6);

    // 2.+3. Partition the mesh the way the solver would and train the
    //    forecasting GNN on R = 4 thread-ranks: two pairs per optimizer
    //    step, order reshuffled each epoch (identically on every rank).
    let ranks = 4;
    let session = Session::builder()
        .mesh(mesh.clone())
        .partition(Strategy::Block)
        .ranks(ranks)
        .exchange(HaloExchangeMode::NeighborAllToAll)
        .dataset(Dataset::from_stream(stream).batch_size(2))
        .model(GnnConfig::small())
        .seed(11)
        .learning_rate(2e-3)
        .build()
        .expect("session");

    let epochs = config::CGNN_ITERS.usize_or(50) as u64;
    let results = session.run(move |h| {
        let reports = h.train_epochs(epochs);
        // 4. Evaluate: per-node RMS prediction error vs the solver truth,
        //    on the *last* pair of the stream (the latest physics).
        let data = h.dataset_sample(h.dataset_len().expect("dataset") - 1);
        let pred = h.predict(data);
        let g = h.graph();
        let mut se = 0.0;
        let mut target_sq = 0.0;
        for i in 0..g.n_local() {
            for c in 0..3 {
                let d = pred.get(i, c) - data.target.get(i, c);
                se += g.node_inv_degree[i] * d * d;
                target_sq += g.node_inv_degree[i] * data.target.get(i, c).powi(2);
            }
        }
        (
            reports,
            h.all_reduce_scalar(se),
            h.all_reduce_scalar(target_sq),
        )
    });

    let (reports, global_se, global_target_sq) = &results[0];
    println!(
        "trained {} epochs x {} steps on {} ranks",
        reports.len(),
        session.dataset().expect("dataset").steps_per_epoch(),
        ranks
    );
    for r in reports.iter().step_by((epochs as usize / 10).max(1)) {
        println!(
            "  epoch {:>4}  mean consistent loss {:.6e}",
            r.epoch,
            r.mean_loss()
        );
    }
    let n = mesh.num_global_nodes() as f64;
    let rms = (global_se / (3.0 * n)).sqrt();
    let target_rms = (global_target_sq / (3.0 * n)).sqrt();
    println!("\nsurrogate RMS error: {rms:.4e}  (target field RMS {target_rms:.4e})");
    println!("relative error: {:.2}%", 100.0 * rms / target_rms);
}
