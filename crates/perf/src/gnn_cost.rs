//! Analytic FLOP / byte counts for one training iteration of the
//! encode-process-decode GNN, used as the compute term of the weak-scaling
//! model. A roofline-style additive model: `t = flops/rate + bytes/bw`.

use cgnn_core::GnnConfig;
use cgnn_graph::{EDGE_FEATS, NODE_FEATS};

use crate::machine::MachineModel;

/// Work performed by one rank in one training iteration.
#[derive(Debug, Clone, Copy)]
pub struct RankWork {
    pub flops: f64,
    pub bytes: f64,
}

/// FLOPs of one dense MLP forward application per row.
fn mlp_flops_per_row(inp: usize, hidden: usize, out: usize, n_hidden: usize) -> f64 {
    // 2 flops per MAC; n_hidden interior h->h linears plus in->h and h->out,
    // activations and layer norm are O(width) and folded into the constant.
    let macs = inp * hidden + n_hidden * hidden * hidden + hidden * out;
    2.2 * macs as f64
}

/// Bytes touched per row by an MLP (activations in/out + weight streaming
/// amortized across rows; weights are small enough to stay in cache, so the
/// activation traffic dominates).
fn mlp_bytes_per_row(inp: usize, hidden: usize, out: usize, n_hidden: usize) -> f64 {
    8.0 * (inp + out + (n_hidden + 1) * hidden) as f64
}

/// Forward work of one message-passing layer. The edge MLP's input layer
/// `[x_i | x_j | e] * W` runs as `Tape::gather_linear`: `x` times its two
/// `h`-row blocks of `W` once per node (two `h -> h` node-row products),
/// `e` through an `h -> h` product per edge, and the two gathered `h`-wide
/// product rows added per edge — no `3h`-wide concatenation. The node MLP
/// runs on `[a* | x]` (2h) per node.
fn mp_layer_work(config: &GnnConfig, nodes: f64, edges: f64) -> RankWork {
    let h = config.hidden;
    let nh = config.mlp_hidden;
    let hf = h as f64;
    let node_products = nodes * 2.0 * (2.0 * hf * hf);
    let edge_mlp = edges * (mlp_flops_per_row(h, h, h, nh) + 2.0 * hf);
    let node_mlp = nodes * mlp_flops_per_row(2 * h, h, h, nh);
    // Node products read `x` and write two products per node; each edge
    // reads its two gathered product rows.
    let bytes = nodes * 8.0 * (3.0 * hf)
        + edges * (mlp_bytes_per_row(h, h, h, nh) + 8.0 * 2.0 * hf)
        + nodes * mlp_bytes_per_row(2 * h, h, h, nh);
    RankWork {
        flops: node_products + edge_mlp + node_mlp,
        bytes,
    }
}

/// Per-iteration work for a rank holding `nodes` local nodes and `edges`
/// directed edges. `fwd+bwd` is costed as 3x the forward pass (the standard
/// accounting: backward does roughly two forward-equivalents).
pub fn iteration_work(config: &GnnConfig, nodes: f64, edges: f64) -> RankWork {
    let h = config.hidden;
    let nh = config.mlp_hidden;
    let mut flops = 0.0;
    let mut bytes = 0.0;

    // Encoders.
    flops += nodes * mlp_flops_per_row(NODE_FEATS, h, h, nh);
    flops += edges * mlp_flops_per_row(EDGE_FEATS, h, h, nh);
    bytes += nodes * mlp_bytes_per_row(NODE_FEATS, h, h, nh);
    bytes += edges * mlp_bytes_per_row(EDGE_FEATS, h, h, nh);

    let layer = mp_layer_work(config, nodes, edges);
    flops += config.n_mp_layers as f64 * layer.flops;
    bytes += config.n_mp_layers as f64 * layer.bytes;

    // Decoder.
    flops += nodes * mlp_flops_per_row(h, h, NODE_FEATS, nh);
    bytes += nodes * mlp_bytes_per_row(h, h, NODE_FEATS, nh);

    // Forward + backward.
    RankWork {
        flops: 3.0 * flops,
        bytes: 3.0 * bytes,
    }
}

/// Compute time of one iteration on one rank (roofline additive).
pub fn compute_time(machine: &MachineModel, work: &RankWork) -> f64 {
    work.flops / machine.rank_flops + work.bytes / machine.rank_mem_bw + machine.iter_overhead
}

/// Scalar parameter count of a model config (for the gradient all-reduce
/// volume). Delegates to the real model builder so the cost model can never
/// drift from the implementation.
pub fn param_count(config: &GnnConfig) -> usize {
    let (_, model) = cgnn_core::ConsistentGnn::seeded(*config, 0);
    model.num_scalars()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn large_model_costs_more_than_small() {
        let nodes = 531_441.0;
        let edges = 6.0 * nodes;
        let small = iteration_work(&GnnConfig::small(), nodes, edges);
        let large = iteration_work(&GnnConfig::large(), nodes, edges);
        assert!(large.flops > 5.0 * small.flops);
        assert!(large.bytes > small.bytes);
    }

    #[test]
    fn compute_time_is_sub_second_at_paper_loadings() {
        // Sanity: one iteration of the large model at 512k nodes/rank should
        // land in the 10ms..1s band on a Frontier GCD (the paper's total
        // throughput plots imply iteration times of this order).
        let m = MachineModel::frontier();
        let w = iteration_work(&GnnConfig::large(), 531_441.0, 6.0 * 531_441.0);
        let t = compute_time(&m, &w);
        assert!(t > 0.01 && t < 1.0, "t = {t}");
    }

    /// The large model's layer on the `train_r1_compute` mesh (729 nodes,
    /// 3 888 edges), counted by hand: h = 32, five `h -> h` interior
    /// layers, 2.2 flops per MAC in the MLPs.
    #[test]
    fn large_layer_flops_match_a_hand_count() {
        let (nodes, edges) = (729.0, 3888.0);
        // Node products: 729 nodes x 2 blocks x 32 x 32 MACs x 2 flops.
        let node_products = 729.0 * 2.0 * 1024.0 * 2.0;
        // Edge MLP: (1 + 5 + 1) x 32 x 32 = 7 x 1024 MACs per row at
        // 2.2 flops, plus 2 x 32 gathered adds.
        let edge_mlp = 3888.0 * (2.2 * 7.0 * 1024.0 + 64.0);
        // Node MLP: (64 + 5 x 32 + 32) x 32 = 8 x 1024 MACs per row.
        let node_mlp = 729.0 * 2.2 * 8.0 * 1024.0;
        let want = node_products + edge_mlp + node_mlp;
        let got = mp_layer_work(&GnnConfig::large(), nodes, edges).flops;
        assert!((got - want).abs() <= 1e-9 * want, "{got} vs {want}");
    }

    #[test]
    fn param_counts_match_table1_implementation() {
        assert_eq!(param_count(&GnnConfig::small()), 4_003);
        assert_eq!(param_count(&GnnConfig::large()), 91_555);
    }
}
