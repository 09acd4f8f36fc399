//! # cgnn-graph
//!
//! Distributed mesh-based graph generation (paper Sec. II-A): nodes from
//! GLL quadrature points, nearest-neighbour lattice edges, local coincident
//! node collapse into the *reduced distributed graph* (paper Fig. 3c), halo
//! exchange plans over non-local coincident nodes (paper Fig. 4), and the
//! `1/d_i` / `1/d_ij` consistency weights of paper Eqs. 4b and 6b.
//!
//! The [`stats`] module additionally provides closed-form per-rank
//! statistics for structured partitions, which is how the Frontier-scale
//! entries of the paper's Table II and the weak-scaling inputs of Figs. 7-8
//! are produced without materializing billion-node graphs.

pub mod builder;
pub mod features;
pub mod local_graph;
pub mod stats;

pub use builder::{build_distributed_graph, build_global_graph};
pub use features::{
    edge_features, node_noise_features, node_velocity_features, EDGE_FEATS, NODE_FEATS,
};
pub use local_graph::{HaloPlan, LocalGraph};
pub use stats::{
    analytic_block_profiles, analytic_block_stats, exact_stats, summarize, RankGraphStats,
    RankProfile, StatsSummary,
};
