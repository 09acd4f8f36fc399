//! Alpha-beta cost models for the collectives the consistent GNN issues:
//! ring all-reduce (loss + DDP gradients), dense all-to-all (A2A halo
//! exchange), neighbour all-to-all (N-A2A halo exchange), ring all-gather
//! (the coalesced fused-buffer halo exchange), and the overlapped
//! non-blocking neighbour exchange whose transfer time is partially hidden
//! behind compute.

use cgnn_graph::RankProfile;

use crate::machine::MachineModel;

/// Ring all-reduce of `bytes` across `ranks` ranks. Hierarchical model:
/// the inter-node ring over the job's nodes is the bottleneck once the job
/// spans multiple nodes.
pub fn all_reduce_time(machine: &MachineModel, ranks: usize, bytes: f64) -> f64 {
    if ranks <= 1 {
        return 0.0;
    }
    let n_nodes = machine.nodes_for(ranks);
    if n_nodes <= 1 {
        // Intra-node ring over GPU links.
        let steps = 2 * (ranks - 1);
        steps as f64 * machine.intra_latency
            + 2.0 * (ranks - 1) as f64 / ranks as f64 * bytes / machine.intra_bw
    } else {
        // Hierarchical reduce-scatter + all-gather: ring bandwidth term
        // across node NICs, but tree-depth latency (RCCL's tree/collnet
        // algorithms give O(log N) latency, not the ring's O(N)).
        let depth = (n_nodes as f64).log2().ceil();
        let intra = 2.0 * bytes / machine.intra_bw
            + 2.0 * (machine.ranks_per_node - 1) as f64 * machine.intra_latency;
        let inter = 2.0 * depth * machine.inter_latency
            + 2.0 * (n_nodes - 1) as f64 / n_nodes as f64 * bytes
                / (machine.node_nic_bw / machine.contention.mul_add((n_nodes as f64).log2(), 1.0));
        intra + inter
    }
}

/// Dense all-to-all with uniform buffers of `buf_bytes` from every rank to
/// every other rank (the paper's naive A2A halo exchange). Every rank sends
/// `ranks - 1` messages; traffic to off-node peers shares the NIC.
pub fn dense_all_to_all_time(machine: &MachineModel, ranks: usize, buf_bytes: f64) -> f64 {
    if ranks <= 1 {
        return 0.0;
    }
    let n_nodes = machine.nodes_for(ranks);
    let on_node_peers = (machine.ranks_per_node.min(ranks) - 1) as f64;
    let off_node_peers = (ranks - 1) as f64 - on_node_peers;
    let intra_time = on_node_peers * (machine.msg_overhead + buf_bytes / machine.intra_bw);
    let inter_time = off_node_peers
        * (machine.msg_overhead + buf_bytes / machine.effective_inter_bw(n_nodes))
        + if off_node_peers > 0.0 {
            machine.inter_latency
        } else {
            0.0
        };
    intra_time + inter_time + machine.intra_latency
}

/// Ring all-gather of one `contrib_bytes` fused buffer per rank (the
/// coalesced halo exchange): a single collective entry — no per-neighbour
/// message overheads — but every rank's contribution circulates the whole
/// ring, so the bandwidth term grows with `ranks`. Cheap at modest rank
/// counts where per-message overhead dominates N-A2A; collapses at scale
/// like the dense A2A, only with smaller (exact-halo) buffers.
pub fn all_gather_time(machine: &MachineModel, ranks: usize, contrib_bytes: f64) -> f64 {
    if ranks <= 1 {
        return 0.0;
    }
    let n_nodes = machine.nodes_for(ranks);
    if n_nodes <= 1 {
        let steps = (ranks - 1) as f64;
        machine.intra_latency + steps * contrib_bytes / machine.intra_bw
    } else {
        // Hierarchical ring: intra-node gather, then the inter-node ring of
        // node-aggregated buffers over the NICs (the bottleneck), with
        // tree-depth latency as in the all-reduce model.
        let depth = (n_nodes as f64).log2().ceil();
        let intra = machine.intra_latency
            + (machine.ranks_per_node - 1) as f64 * contrib_bytes / machine.intra_bw;
        let node_bytes = machine.ranks_per_node as f64 * contrib_bytes;
        let inter = depth * machine.inter_latency
            + (n_nodes - 1) as f64 * node_bytes
                / (machine.node_nic_bw / machine.contention.mul_add((n_nodes as f64).log2(), 1.0));
        intra + inter
    }
}

/// Neighbour all-to-all: only real neighbour buffers are exchanged (the
/// empty-tensor trick). Per-rank time is the serialized cost of its own
/// messages — neighbour counts are bounded (<= 26), so this stays flat in R.
pub fn neighbor_all_to_all_time(
    machine: &MachineModel,
    rank: usize,
    ranks: usize,
    profile: &RankProfile,
    bytes_per_shared_node: f64,
) -> f64 {
    if ranks <= 1 || profile.shared_per_neighbor.is_empty() {
        return 0.0;
    }
    let n_nodes = machine.nodes_for(ranks);
    let mut t = machine.intra_latency; // collective entry overhead
    for &(nbr, shared) in &profile.shared_per_neighbor {
        let bytes = shared as f64 * bytes_per_shared_node;
        t += machine.msg_overhead;
        t += if machine.same_node(rank, nbr) {
            bytes / machine.intra_bw
        } else {
            bytes / machine.effective_inter_bw(n_nodes)
        };
        if !machine.same_node(rank, nbr) {
            t += machine.inter_latency / profile.shared_per_neighbor.len() as f64;
        }
    }
    t
}

/// Exposed (non-hidden) time of one overlapped neighbour exchange
/// (`Ovl-SR`): the Send-Recv schedule with every send and non-blocking
/// receive posted before any wait, and a fraction `overlap_fraction` of
/// the *transfer* time hidden behind independent compute.
///
/// Posting costs cannot be hidden — the CPU/GPU still has to inject one
/// message per neighbour plus the collective-entry overhead — so the model
/// splits the N-A2A cost into an un-hidable posting term (entry latency +
/// per-message overheads) and a hidable transfer term (bandwidth + wire
/// latency), and discounts only the latter:
///
/// `t = posting + (1 - f) * transfer`
///
/// At `f = 0` this degenerates to exactly
/// [`neighbor_all_to_all_time`]; at `f = 1` only the posting overhead
/// remains.
pub fn overlapped_neighbor_time(
    machine: &MachineModel,
    rank: usize,
    ranks: usize,
    profile: &RankProfile,
    bytes_per_shared_node: f64,
    overlap_fraction: f64,
) -> f64 {
    if ranks <= 1 || profile.shared_per_neighbor.is_empty() {
        return 0.0;
    }
    let f = overlap_fraction.clamp(0.0, 1.0);
    let n_msgs = profile.shared_per_neighbor.len() as f64;
    let posting = machine.intra_latency + n_msgs * machine.msg_overhead;
    let full = neighbor_all_to_all_time(machine, rank, ranks, profile, bytes_per_shared_node);
    let transfer = (full - posting).max(0.0);
    posting + (1.0 - f) * transfer
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgnn_graph::{RankGraphStats, RankProfile};

    fn profile(neighbors: &[(usize, usize)]) -> RankProfile {
        RankProfile {
            stats: RankGraphStats {
                local_nodes: 0,
                halo_nodes: neighbors.iter().map(|&(_, s)| s).sum(),
                neighbors: neighbors.len(),
                directed_edges: 0,
            },
            shared_per_neighbor: neighbors.to_vec(),
        }
    }

    #[test]
    fn dense_a2a_grows_linearly_with_ranks() {
        let m = MachineModel::frontier();
        let t64 = dense_all_to_all_time(&m, 64, 64.0 * 1024.0);
        let t1024 = dense_all_to_all_time(&m, 1024, 64.0 * 1024.0);
        assert!(t1024 > 10.0 * t64, "t64={t64} t1024={t1024}");
    }

    #[test]
    fn neighbor_a2a_is_flat_in_rank_count() {
        let m = MachineModel::frontier();
        let p = profile(&[(100, 3600), (200, 3600), (300, 60), (400, 1)]);
        let t64 = neighbor_all_to_all_time(&m, 0, 64, &p, 256.0);
        let t2048 = neighbor_all_to_all_time(&m, 0, 2048, &p, 256.0);
        assert!(t2048 < 2.0 * t64, "t64={t64} t2048={t2048}");
    }

    #[test]
    fn neighbor_a2a_beats_dense_a2a_at_scale() {
        let m = MachineModel::frontier();
        let p = profile(&[(9, 3600); 11]);
        let bytes_per_node = 32.0 * 8.0;
        let dense = dense_all_to_all_time(&m, 2048, 3600.0 * bytes_per_node);
        let nbr = neighbor_all_to_all_time(&m, 0, 2048, &p, bytes_per_node);
        assert!(nbr < dense / 10.0, "dense={dense} nbr={nbr}");
    }

    #[test]
    fn all_gather_beats_na2a_latency_at_small_scale_only() {
        let m = MachineModel::frontier();
        // Tiny per-neighbour buffers, many neighbours: message overhead
        // dominates N-A2A, so a single fused collective wins on one node...
        let p = profile(&[(1, 8), (2, 8), (3, 8), (4, 8), (5, 8), (6, 8), (7, 8)]);
        let fused_bytes = 7.0 * 8.0 * 64.0;
        let gather8 = all_gather_time(&m, 8, fused_bytes);
        let na2a8 = neighbor_all_to_all_time(&m, 0, 8, &p, 64.0);
        assert!(gather8 < na2a8, "gather {gather8} vs na2a {na2a8}");
        // ...but the ring grows with rank count while N-A2A stays flat.
        let gather2048 = all_gather_time(&m, 2048, fused_bytes);
        let na2a2048 = neighbor_all_to_all_time(&m, 0, 2048, &p, 64.0);
        assert!(gather2048 > na2a2048, "{gather2048} vs {na2a2048}");
    }

    #[test]
    fn all_gather_grows_with_ranks() {
        let m = MachineModel::frontier();
        let t8 = all_gather_time(&m, 8, 1e6);
        let t2048 = all_gather_time(&m, 2048, 1e6);
        assert!(t2048 > 10.0 * t8, "t8={t8} t2048={t2048}");
        assert_eq!(all_gather_time(&m, 1, 1e6), 0.0);
    }

    #[test]
    fn overlap_discounts_transfer_but_never_posting() {
        let m = MachineModel::frontier();
        let p = profile(&[(9, 3600); 11]);
        let bytes_per_node = 32.0 * 8.0;
        let full = neighbor_all_to_all_time(&m, 0, 2048, &p, bytes_per_node);
        // f = 0 degenerates to the blocking neighbour exchange.
        let f0 = overlapped_neighbor_time(&m, 0, 2048, &p, bytes_per_node, 0.0);
        assert!((f0 - full).abs() < 1e-15, "{f0} vs {full}");
        // Monotonically cheaper as more transfer hides behind compute.
        let f5 = overlapped_neighbor_time(&m, 0, 2048, &p, bytes_per_node, 0.5);
        let f9 = overlapped_neighbor_time(&m, 0, 2048, &p, bytes_per_node, 0.9);
        let f1 = overlapped_neighbor_time(&m, 0, 2048, &p, bytes_per_node, 1.0);
        assert!(f0 > f5 && f5 > f9 && f9 > f1, "{f0} {f5} {f9} {f1}");
        // Even at full overlap the injection overheads remain.
        let posting = m.intra_latency + 11.0 * m.msg_overhead;
        assert!((f1 - posting).abs() < 1e-12, "{f1} vs {posting}");
        // Degenerate cases stay free.
        assert_eq!(overlapped_neighbor_time(&m, 0, 1, &p, 256.0, 0.5), 0.0);
        assert_eq!(
            overlapped_neighbor_time(&m, 0, 64, &profile(&[]), 256.0, 0.5),
            0.0
        );
    }

    #[test]
    fn all_reduce_time_increases_with_bytes_and_ranks() {
        let m = MachineModel::frontier();
        assert!(all_reduce_time(&m, 8, 1e6) < all_reduce_time(&m, 8, 1e8));
        assert!(all_reduce_time(&m, 8, 1e6) < all_reduce_time(&m, 2048, 1e6));
        assert_eq!(all_reduce_time(&m, 1, 1e6), 0.0);
    }
}
