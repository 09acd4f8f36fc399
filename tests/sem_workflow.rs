//! End-to-end "NekRS-GNN workflow" integration test (paper Fig. 1), on the
//! live datagen path: the spectral-element solver streams snapshot data on
//! a mesh, `Dataset::from_stream` adopts it, and a `Session` partitions the
//! mesh, slices the snapshots per rank and trains a consistent GNN — with
//! the whole pipeline remaining partition-invariant.

use cgnn::prelude::{
    BoxMesh, Dataset, GnnConfig, HaloExchangeMode, Session, SnapshotStream, Strategy,
};

/// Train `ranks` ranks for 8 steps on the dataset's one pair; every rank's
/// loss history.
fn train_on_solver_data(mesh: &BoxMesh, dataset: Dataset, ranks: usize) -> Vec<Vec<f64>> {
    let session = Session::builder()
        .mesh(mesh.clone())
        .ranks(ranks)
        .partition(Strategy::Block)
        .exchange(HaloExchangeMode::NeighborAllToAll)
        .dataset(dataset)
        .model(GnnConfig::small())
        .seed(3)
        .learning_rate(1e-3)
        .build()
        .expect("session");
    session.run(|h| {
        let data = h.dataset_sample(0).clone();
        h.train(&data, 8)
    })
}

#[test]
fn gnn_trains_on_sem_generated_forecasting_data() {
    // Generate data: diffuse the TGV field with the SEM stepper.
    let mesh = BoxMesh::tgv_cube(2, 3);
    let dataset = Dataset::from_stream(SnapshotStream::tgv_diffusion(&mesh, 0.5, 5e-4, 40, 1));

    // R=1 reference trajectory on the same data.
    let reference = train_on_solver_data(&mesh, dataset.clone(), 1)
        .pop()
        .expect("one history");
    let histories = train_on_solver_data(&mesh, dataset, 4);
    assert_eq!(histories.len(), 4);

    // Distributed training on solver data follows the R=1 curve and learns.
    for h in &histories {
        assert_eq!(h.len(), reference.len());
        for (a, b) in h.iter().zip(&reference) {
            assert!(
                (a - b).abs() / b.abs().max(1e-300) < 1e-8,
                "distributed {a} vs reference {b}"
            );
        }
    }
    assert!(
        reference[7] < reference[0],
        "training on SEM data should reduce loss"
    );
}
