//! Regenerate paper Table II: per-rank statistics of partitioned sub-graphs
//! at nominally 512k local nodes per rank (p = 5 elements, periodic TGV
//! box), for R in {8, 64, 512, 2048}.
//!
//! Uses the closed-form structured statistics (validated against the real
//! graph builder in the test suite), so the 2048-rank / 1.1e9-node case
//! runs in milliseconds.

use cgnn_bench::{write_json, Json};
use cgnn_graph::{analytic_block_stats, summarize};
use cgnn_mesh::BoxMesh;
use cgnn_perf::cubic_layout;

fn main() {
    // 16^3 elements per rank at p = 5 -> (5*16+1)^3 = 531k local nodes.
    let block = 16;
    let p = 5;
    println!("Table II: statistics of partitioned sub-graphs, nominally 512k local nodes");
    println!(
        "{:>6} | {:>26} | {:>26} | {:>20}",
        "Ranks", "Graph nodes (10^3)", "Halo nodes (10^3)", "Neighbors"
    );
    println!(
        "{:>6} | {:>26} | {:>26} | {:>20}",
        "", "(min, max, avg)", "(min, max, avg)", "(min, max, avg)"
    );
    let min_max_avg = |(min, max, avg): (usize, usize, f64)| {
        Json::Obj(vec![
            ("min", min.into()),
            ("max", max.into()),
            ("avg", avg.into()),
        ])
    };
    let mut rows = Vec::new();
    for ranks in [8usize, 64, 512, 2048] {
        let layout = cubic_layout(ranks);
        let mesh = BoxMesh::new(
            (layout.rx * block, layout.ry * block, layout.rz * block),
            p,
            (1.0, 1.0, 1.0),
            true,
        );
        let stats = analytic_block_stats(&mesh, &layout);
        let s = summarize(&stats);
        let total: usize = stats.iter().map(|r| r.local_nodes).sum();
        println!(
            "{:>6} | {:>8.1}, {:>7.1}, {:>7.1} | {:>8.1}, {:>7.1}, {:>7.1} | {:>6}, {:>5}, {:>5.1}",
            ranks,
            s.local_nodes.0 as f64 / 1e3,
            s.local_nodes.1 as f64 / 1e3,
            s.local_nodes.2 / 1e3,
            s.halo_nodes.0 as f64 / 1e3,
            s.halo_nodes.1 as f64 / 1e3,
            s.halo_nodes.2 / 1e3,
            s.neighbors.0,
            s.neighbors.1,
            s.neighbors.2,
        );
        rows.push(Json::Obj(vec![
            ("ranks", ranks.into()),
            (
                "layout",
                [layout.rx, layout.ry, layout.rz].into_iter().collect(),
            ),
            ("total_local_nodes", total.into()),
            ("local_nodes", min_max_avg(s.local_nodes)),
            ("halo_nodes", min_max_avg(s.halo_nodes)),
            ("neighbors", min_max_avg(s.neighbors)),
        ]));
    }
    println!(
        "\nPaper (NekRS partitioner):  R=8: 518k nodes, 12.8k halo, 2 nbrs;\n\
         R=64/2048: 540k nodes, 57.6k halo, 11 nbrs; R=512: 528-544k, 32.6-67.6k, 5-15.\n\
         Our structured partitioner keeps blocks cubic at every R, so halo and\n\
         neighbour counts are uniform and bounded (max 26), preserving the\n\
         paper's load-balance claim; exact neighbour counts differ because the\n\
         NekRS recursive-spectral-bisection partitioner produces different cuts."
    );
    write_json("table2", &Json::Arr(rows));
}
