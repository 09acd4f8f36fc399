//! Regenerate paper Fig. 6 (left): consistent-loss evaluations of a
//! randomly initialized GNN versus the number of ranks R, for standard NMP
//! layers (no halo exchange) and consistent NMP layers. One `Session` per
//! (R, mode) configuration.
//!
//! `CGNN_ELEMS` sets the cubic element count per axis (paper: 32, default
//! here 12 to stay fast on laptops); `CGNN_MAXR` caps the rank sweep.

#![expect(
    clippy::expect_used,
    reason = "a figure binary stops with a message when its setup or its output fails"
)]

use cgnn_bench::{demo_loss, write_json, Json};
use cgnn_core::config;
use cgnn_core::HaloExchangeMode;
use cgnn_mesh::{BoxMesh, TaylorGreen};
use cgnn_partition::Strategy;
use cgnn_session::{Dataset, Session};

const SEED: u64 = 2024;

fn main() {
    let elems = config::CGNN_ELEMS.usize_or(12);
    let max_r = config::CGNN_MAXR.usize_or(64);
    let mesh = BoxMesh::new((elems, elems, elems), 1, (1.0, 1.0, 1.0), false);
    println!(
        "Fig. 6 (left): mean dataset loss vs number of ranks; {}^3 elements p=1, {} nodes",
        elems,
        mesh.num_global_nodes()
    );
    // One wiring (partition + graphs) per rank count; the mode sweep swaps
    // only the exchange strategy via `with_exchange`. The score is the
    // mean consistent loss over a three-snapshot Taylor-Green stream.
    let field = TaylorGreen::new(0.01);
    let times = [0.0, 0.2, 0.4];
    let session = |r: usize| {
        Session::builder()
            .mesh(mesh.clone())
            .partition(Strategy::Block)
            .ranks(r)
            .dataset(Dataset::tgv_autoencode(&mesh, &field, &times))
            .seed(SEED)
            .build()
            .expect("session")
    };

    let reference = demo_loss(&session(1).with_exchange(HaloExchangeMode::None));
    println!("R=1 reference loss: {reference:.12e}\n");
    println!(
        "{:>5} {:>18} {:>18} {:>12} {:>12}",
        "R", "standard NMP", "consistent NMP", "std relerr", "cons relerr"
    );

    let row = |ranks: usize, standard: f64, consistent: f64| {
        Json::Obj(vec![
            ("ranks", ranks.into()),
            ("standard", standard.into()),
            ("consistent", consistent.into()),
        ])
    };
    let mut rows = vec![row(1, reference, reference)];
    let mut r = 2;
    while r <= max_r && mesh.num_elements() >= r {
        let wired = session(r);
        let losses: Vec<f64> = [HaloExchangeMode::None, HaloExchangeMode::NeighborAllToAll]
            .into_iter()
            .map(|mode| demo_loss(&wired.with_exchange(mode)))
            .collect();
        println!(
            "{:>5} {:>18.10e} {:>18.10e} {:>12.3e} {:>12.3e}",
            r,
            losses[0],
            losses[1],
            (losses[0] - reference).abs() / reference,
            (losses[1] - reference).abs() / reference
        );
        rows.push(row(r, losses[0], losses[1]));
        r *= 2;
    }
    println!(
        "\nPaper claim check: consistent NMP is rank-count invariant (relerr at\n\
         machine precision); standard NMP deviation grows roughly linearly in R."
    );
    write_json(
        "fig6_left",
        &Json::Obj(vec![
            ("reference", reference.into()),
            ("rows", Json::Arr(rows)),
        ]),
    );
}
