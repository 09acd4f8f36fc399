//! Host calibration: measure the *real* single-rank NMP training iteration
//! implemented in this repository, so the simulated Frontier numbers can be
//! cross-checked against measured arithmetic on the machine running the
//! benchmarks (the absolute scale differs; the per-node cost structure is
//! what carries over).

use std::sync::Arc;
use std::time::Instant;

use cgnn_comm::World;
use cgnn_core::{GnnConfig, HaloContext, RankData, Trainer};
use cgnn_graph::build_global_graph;
use cgnn_mesh::{BoxMesh, TaylorGreen};

/// Result of a calibration run.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    pub nodes: usize,
    pub edges: usize,
    pub iters: usize,
    pub seconds_per_iter: f64,
    /// Measured single-rank throughput [nodes/s].
    pub nodes_per_sec: f64,
}

/// Time `iters` real training iterations of `config` on an `e^3`-element
/// p-order box on one rank of this host.
pub fn measure_single_rank(config: GnnConfig, elems: usize, p: usize, iters: usize) -> Calibration {
    let mesh = BoxMesh::tgv_cube(elems, p);
    let graph = Arc::new(build_global_graph(&mesh));
    let nodes = graph.n_local();
    let edges = graph.n_edges();
    let field = TaylorGreen::new(0.01);
    let secs = World::run(1, |comm| {
        let ctx = HaloContext::single(comm.clone());
        let mut trainer = Trainer::new(config, 7, 1e-4, ctx);
        let data = RankData::tgv_autoencode(Arc::clone(&graph), &field, 0.0);
        // Warm-up iteration excluded from timing.
        trainer.step(&data);
        let start = Instant::now();
        for _ in 0..iters {
            trainer.step(&data);
        }
        start.elapsed().as_secs_f64()
    })[0];
    let seconds_per_iter = secs / iters as f64;
    Calibration {
        nodes,
        edges,
        iters,
        seconds_per_iter,
        nodes_per_sec: nodes as f64 / seconds_per_iter,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_runs_and_reports_positive_throughput() {
        let c = measure_single_rank(GnnConfig::small(), 3, 1, 2);
        assert!(c.nodes_per_sec > 0.0);
        // Periodic 3^3-element p=1 box: (1*3)^3 = 27 unique nodes.
        assert_eq!(c.nodes, 27);
    }
}
