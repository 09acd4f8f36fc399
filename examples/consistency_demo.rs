//! Consistency demonstration (paper Fig. 6, left): evaluate a randomly
//! initialized GNN + consistent loss on the same mesh partitioned onto
//! R = 1..=32 thread-ranks, with and without halo exchanges. One `Session`
//! per configuration; the builder owns all wiring.
//!
//! The consistent formulation reproduces the R = 1 loss at every R; the
//! standard (no-exchange) formulation deviates, increasingly with R.
//!
//! ```sh
//! cargo run --release --example consistency_demo
//! ```

use cgnn::core::config;
use cgnn::prelude::*;

const SEED: u64 = 123;

fn main() {
    // Paper: cubic domain of 32^3 elements at p = 1; we default to 12^3 to
    // stay fast on laptops (set CGNN_ELEMS=32 for the full-size run).
    let elems = config::CGNN_ELEMS.usize_or(12);
    let mesh = BoxMesh::new((elems, elems, elems), 1, (1.0, 1.0, 1.0), false);
    let field = TaylorGreen::new(0.01);
    println!(
        "mesh: {}^3 elements, {} unique nodes\n",
        elems,
        mesh.num_global_nodes()
    );
    let base = || {
        Session::builder()
            .mesh(mesh.clone())
            .partition(Strategy::Block)
            .model(GnnConfig::small())
            .seed(SEED)
    };

    let reference = base()
        .build()
        .expect("R=1 session")
        .initial_loss(&field, 0.0);
    println!("R = 1 reference loss: {reference:.12e}\n");
    println!(
        "{:>5} {:>18} {:>18} {:>14} {:>14}",
        "R", "standard", "consistent", "std rel-err", "cons rel-err"
    );

    for r in [2usize, 4, 8, 16, 32] {
        if mesh.num_elements() < r {
            break;
        }
        // One wiring per R; swap only the exchange strategy between modes.
        let wired = base().ranks(r).build().expect("session");
        let mut losses = [0.0f64; 2];
        for (k, mode) in [HaloExchangeMode::None, HaloExchangeMode::NeighborAllToAll]
            .into_iter()
            .enumerate()
        {
            losses[k] = wired.with_exchange(mode).initial_loss(&field, 0.0);
        }
        println!(
            "{:>5} {:>18.10e} {:>18.10e} {:>14.3e} {:>14.3e}",
            r,
            losses[0],
            losses[1],
            (losses[0] - reference).abs() / reference,
            (losses[1] - reference).abs() / reference,
        );
    }
    println!("\nconsistent NMP reproduces the R = 1 loss at every R;");
    println!("standard NMP deviates, increasingly with the number of partitions.");
}
