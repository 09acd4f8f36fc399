//! Quickstart: build a spectral-element mesh, attach a multi-snapshot
//! Taylor-Green dataset, and train a consistent GNN for a few epochs on
//! one rank — all wiring done by the `Session` builder.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

#![expect(
    clippy::expect_used,
    reason = "an example stops with a message instead of threading errors through its walkthrough"
)]

use cgnn::prelude::*;

fn main() {
    // A 4^3-element periodic box at polynomial order p = 3 (the mesh the
    // CFD solver would hand us), plus a snapshot stream: the Taylor-Green
    // velocity field autoencoded at four decay times, shuffled each epoch
    // and fed two snapshots per optimizer step.
    let mesh = BoxMesh::tgv_cube(4, 3);
    let field = TaylorGreen::new(0.01);
    let dataset = Dataset::tgv_autoencode(&mesh, &field, &[0.0, 0.1, 0.2, 0.3]).batch_size(2);
    let session = Session::builder()
        .mesh(mesh)
        .dataset(dataset)
        .model(GnnConfig::small())
        .seed(42)
        .learning_rate(1e-3)
        .build()
        .expect("valid session");

    let mesh = session.mesh();
    println!(
        "mesh: {} elements at p = {}, {} unique nodes ({} comm backend)",
        mesh.num_elements(),
        mesh.order(),
        mesh.num_global_nodes(),
        session.backend()
    );
    println!(
        "graph: {} nodes, {} directed edges",
        session.graph(0).n_local(),
        session.graph(0).n_edges()
    );
    let ds = session.dataset().expect("dataset configured");
    println!(
        "dataset: {} snapshot pairs, {} optimizer steps per epoch",
        ds.len(),
        ds.steps_per_epoch()
    );

    // Train the paper's "small" GNN configuration over the stream: each
    // epoch revisits every snapshot once, in a seeded shuffled order that
    // is identical on every rank and across every comm backend.
    let epochs = 25;
    let reports = session
        .run(|h| {
            if h.rank() == 0 {
                println!(
                    "model: {} trainable parameters\n",
                    h.trainer().model.num_scalars()
                );
            }
            h.train_epochs(epochs)
        })
        .pop()
        .expect("one rank's reports");

    for r in reports.iter().step_by(4) {
        println!("epoch {:>3}   mean loss {:.6e}", r.epoch, r.mean_loss());
    }
    let (first, last) = (&reports[0], &reports[reports.len() - 1]);
    println!(
        "mean epoch loss reduced by {:.1}x over {} epochs",
        first.mean_loss() / last.mean_loss(),
        reports.len()
    );
}
