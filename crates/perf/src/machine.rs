//! Machine model parameters — Frontier (OLCF) by default, per the hardware
//! description in the paper's Sec. III-B and the Frontier system paper.

/// Analytic machine model for one homogeneous GPU system.
#[derive(Debug, Clone)]
pub struct MachineModel {
    pub name: String,
    /// MPI ranks (GPU dies) per node — 8 GCDs on Frontier.
    pub ranks_per_node: usize,
    /// Sustained compute rate per rank for GNN-style kernels [FLOP/s].
    /// MI250X GCD peak is ~24 TFLOP/s FP32; message-passing workloads with
    /// gather/scatter sustain a modest fraction of that.
    pub rank_flops: f64,
    /// HBM bandwidth per rank [B/s] (MI250X: ~1.6 TB/s per GCD).
    pub rank_mem_bw: f64,
    /// Intra-node GPU-GPU bandwidth per direction [B/s] (Infinity Fabric).
    pub intra_bw: f64,
    /// Intra-node message latency \[s\].
    pub intra_latency: f64,
    /// NIC bandwidth per node [B/s] — 4 x 25 GB/s Slingshot NICs.
    pub node_nic_bw: f64,
    /// Inter-node message latency \[s\].
    pub inter_latency: f64,
    /// Per-message software/NIC overhead \[s\] (dominates dense all-to-all).
    pub msg_overhead: f64,
    /// Fixed per-iteration framework overhead \[s\] (kernel launches, Python
    /// dispatch in the original; scheduling here).
    pub iter_overhead: f64,
    /// Network contention growth coefficient: effective inter-node
    /// bandwidth degrades by `1 / (1 + c * log2(n_nodes))` as the job
    /// spans more of the fabric.
    pub contention: f64,
    /// Fraction of a halo exchange's transfer time (bandwidth + wire
    /// latency, not message-injection overhead) hidden behind independent
    /// compute by the overlapped (`Ovl-SR`) schedule, in `[0, 1]`. The
    /// node-MLP of the previous NMP layer is the compute being overlapped;
    /// 1.0 would mean the window always covers the transfer.
    pub overlap_fraction: f64,
}

impl MachineModel {
    /// Frontier-like parameters (HPE Cray EX, MI250X, Slingshot-11).
    pub fn frontier() -> Self {
        MachineModel {
            name: "frontier".to_string(),
            ranks_per_node: 8,
            rank_flops: 8.0e12,  // sustained FP32-equivalent for NMP kernels
            rank_mem_bw: 1.2e12, // sustained HBM
            intra_bw: 40.0e9,    // Infinity Fabric effective per pair
            intra_latency: 4.0e-6,
            node_nic_bw: 4.0 * 25.0e9,
            inter_latency: 12.0e-6,
            msg_overhead: 1.5e-6,
            iter_overhead: 3.0e-3,
            contention: 0.035,
            overlap_fraction: 0.7,
        }
    }

    /// Aurora-like parameters (HPE Cray EX, Intel PVC, Slingshot-11 with 8
    /// NICs/node, 12 GPU tiles per node) — the paper's conclusion proposes
    /// exactly this cross-machine comparison as future work; the consistent
    /// GNN's halo/arithmetic mix makes it a fabric-sensitive benchmark.
    pub fn aurora() -> Self {
        MachineModel {
            name: "aurora".to_string(),
            ranks_per_node: 12,
            rank_flops: 7.0e12,
            rank_mem_bw: 1.0e12,
            intra_bw: 30.0e9,
            intra_latency: 5.0e-6,
            node_nic_bw: 8.0 * 25.0e9,
            inter_latency: 12.0e-6,
            msg_overhead: 1.5e-6,
            iter_overhead: 3.0e-3,
            contention: 0.035,
            overlap_fraction: 0.7,
        }
    }

    /// NIC bandwidth share per rank when all ranks of a node send
    /// concurrently.
    pub fn nic_bw_per_rank(&self) -> f64 {
        self.node_nic_bw / self.ranks_per_node as f64
    }

    /// Effective inter-node bandwidth per rank for a job of `n_nodes`
    /// nodes, including the fabric contention factor.
    pub fn effective_inter_bw(&self, n_nodes: usize) -> f64 {
        let f = 1.0 + self.contention * (n_nodes.max(1) as f64).log2();
        self.nic_bw_per_rank() / f
    }

    /// Number of nodes a job of `ranks` ranks occupies.
    pub fn nodes_for(&self, ranks: usize) -> usize {
        ranks.div_ceil(self.ranks_per_node)
    }

    /// Whether two ranks land on the same node (block rank placement).
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        a / self.ranks_per_node == b / self.ranks_per_node
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_basics() {
        let m = MachineModel::frontier();
        assert_eq!(m.ranks_per_node, 8);
        assert_eq!(m.nodes_for(8), 1);
        assert_eq!(m.nodes_for(9), 2);
        assert_eq!(m.nodes_for(2048), 256);
        assert!(m.same_node(0, 7));
        assert!(!m.same_node(7, 8));
    }

    #[test]
    fn aurora_has_more_nic_headroom_per_rank() {
        // 8 NICs for 12 ranks vs 4 NICs for 8 ranks.
        let f = MachineModel::frontier();
        let a = MachineModel::aurora();
        assert!(a.nic_bw_per_rank() > f.nic_bw_per_rank());
        assert_eq!(a.nodes_for(24), 2);
    }

    #[test]
    fn contention_reduces_bandwidth_monotonically() {
        let m = MachineModel::frontier();
        let b1 = m.effective_inter_bw(1);
        let b256 = m.effective_inter_bw(256);
        assert!(b256 < b1);
        assert!(b256 > 0.5 * b1, "contention model too aggressive");
    }
}
