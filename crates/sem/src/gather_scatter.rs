//! Direct stiffness summation (NekRS's `gs` / QQ^T gather-scatter).
//!
//! Element-based discretizations duplicate values at coincident nodes;
//! assembling a continuous operator requires summing every copy and writing
//! the sum back — exactly the coincident-node synchronization the paper's
//! consistent NMP layer performs over graph aggregates. The serial version
//! here works on the full mesh; the distributed version reuses the
//! [`cgnn_graph::HaloPlan`] and an all-to-all, demonstrating that the GNN
//! halo machinery is the solver's gather-scatter in disguise.

use cgnn_comm::Comm;
use cgnn_graph::LocalGraph;
use cgnn_mesh::BoxMesh;

/// Serial gather-scatter over a full mesh: element-local storage
/// (`n_elements * (p+1)^3` values) <-> unique global vector.
#[derive(Debug, Clone)]
pub struct GatherScatter {
    /// `gid` of each element-local slot, element-major.
    pub slot_gid: Vec<u64>,
    /// Number of unique global nodes.
    pub n_global: usize,
    /// Local index lookup: sorted unique gids (dense meshes have dense gids,
    /// but we stay general).
    gids: Vec<u64>,
}

impl GatherScatter {
    pub fn new(mesh: &BoxMesh) -> Self {
        let locals: Vec<_> = mesh.local_nodes().collect();
        let mut slot_gid = Vec::with_capacity(mesh.num_elements() * locals.len());
        for e in 0..mesh.num_elements() {
            for &l in &locals {
                slot_gid.push(mesh.elem_node_gid(e, l));
            }
        }
        let mut gids = slot_gid.clone();
        gids.sort_unstable();
        gids.dedup();
        GatherScatter {
            slot_gid,
            n_global: gids.len(),
            gids,
        }
    }

    /// Dense row index of a gid.
    #[inline]
    pub fn row_of(&self, gid: u64) -> usize {
        self.gids.binary_search(&gid).expect("gid in mesh")
    }

    /// Sum all element-local copies into a global vector (`Q^T`).
    pub fn gather_sum(&self, local: &[f64]) -> Vec<f64> {
        assert_eq!(local.len(), self.slot_gid.len());
        let mut global = vec![0.0; self.n_global];
        for (slot, &gid) in self.slot_gid.iter().enumerate() {
            global[self.row_of(gid)] += local[slot];
        }
        global
    }

    /// Copy a global vector out to every element-local slot (`Q`).
    pub fn scatter(&self, global: &[f64]) -> Vec<f64> {
        assert_eq!(global.len(), self.n_global);
        self.slot_gid
            .iter()
            .map(|&gid| global[self.row_of(gid)])
            .collect()
    }

    /// Direct stiffness summation `QQ^T`: replace each local copy by the sum
    /// over all coincident copies.
    pub fn dssum(&self, local: &mut [f64]) {
        let global = self.gather_sum(local);
        for (slot, &gid) in self.slot_gid.iter().enumerate() {
            local[slot] = global[self.row_of(gid)];
        }
    }

    /// Assembled diagonal of a local-diagonal operator (e.g. the mass
    /// matrix): gather-sum of per-element diagonals.
    pub fn assemble_diagonal(&self, local_diag_per_element: &[f64]) -> Vec<f64> {
        self.gather_sum(local_diag_per_element)
    }
}

/// Distributed coincident-node summation on a [`LocalGraph`]'s *local node*
/// vector: adds neighbouring ranks' values at shared nodes via one
/// neighbour all-to-all. After the call, every coincident copy across ranks
/// holds the identical global sum — the solver-side twin of the consistent
/// NMP synchronization (paper Eq. 4d).
pub fn distributed_dssum(values: &mut [f64], graph: &LocalGraph, comm: &Comm) {
    assert_eq!(values.len(), graph.n_local());
    let world = comm.size();
    let mut send: Vec<Vec<f64>> = vec![Vec::new(); world];
    for (ni, &s) in graph.halo.neighbors.iter().enumerate() {
        send[s] = graph.halo.send_ids[ni].iter().map(|&l| values[l]).collect();
    }
    let recv = comm.all_to_all(send);
    for (ni, &s) in graph.halo.neighbors.iter().enumerate() {
        for (k, &l) in graph.halo.send_ids[ni].iter().enumerate() {
            values[l] += recv[s][k];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgnn_comm::World;
    use cgnn_graph::build_distributed_graph;
    use cgnn_partition::{Partition, Strategy};
    use std::sync::Arc;

    #[test]
    fn dssum_multiplies_by_multiplicity() {
        let mesh = BoxMesh::new((2, 2, 2), 1, (1.0, 1.0, 1.0), false);
        let gs = GatherScatter::new(&mesh);
        let mut local = vec![1.0; gs.slot_gid.len()];
        gs.dssum(&mut local);
        // After dssum of all-ones, each slot holds its node's multiplicity;
        // center corner node is shared by 8 elements.
        let max = local.iter().cloned().fold(0.0, f64::max);
        assert_eq!(max, 8.0);
        // Domain corners remain 1.
        let min = local.iter().cloned().fold(f64::INFINITY, f64::min);
        assert_eq!(min, 1.0);
    }

    #[test]
    fn gather_scatter_roundtrip_preserves_continuous_fields() {
        let mesh = BoxMesh::new((3, 2, 2), 2, (1.0, 1.0, 1.0), false);
        let gs = GatherScatter::new(&mesh);
        let global: Vec<f64> = (0..gs.n_global).map(|i| (i as f64 * 0.13).sin()).collect();
        let local = gs.scatter(&global);
        // A scattered (continuous) field gathered with averaging-by-count
        // must reproduce itself; here we check Q^T Q = diag(multiplicity).
        let summed = gs.gather_sum(&local);
        let ones = gs.gather_sum(&vec![1.0; local.len()]);
        for i in 0..gs.n_global {
            assert!((summed[i] - global[i] * ones[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn distributed_dssum_matches_serial() {
        let mesh = BoxMesh::new((4, 2, 2), 2, (1.0, 1.0, 1.0), false);
        let part = Partition::new(&mesh, 4, Strategy::Slab);
        let graphs = Arc::new(build_distributed_graph(&mesh, &part));

        // Serial reference: per-gid sum of per-rank values.
        let value_of = |rank: usize, gid: u64| (gid as f64 * 0.31).sin() + rank as f64 * 0.05;
        let mut reference: std::collections::BTreeMap<u64, f64> = Default::default();
        for g in graphs.iter() {
            for &gid in &g.gids {
                *reference.entry(gid).or_insert(0.0) += value_of(g.rank, gid);
            }
        }

        let results = World::run(4, |comm| {
            let g = &graphs[comm.rank()];
            let mut v: Vec<f64> = g
                .gids
                .iter()
                .map(|&gid| value_of(comm.rank(), gid))
                .collect();
            distributed_dssum(&mut v, g, comm);
            (g.gids.clone(), v)
        });
        for (gids, v) in &results {
            for (i, &gid) in gids.iter().enumerate() {
                let copies = graphs
                    .iter()
                    .filter(|g| g.local_of_gid(gid).is_some())
                    .count();
                let expect = if copies > 1 {
                    reference[&gid]
                } else {
                    v[i] // interior: unchanged
                };
                assert!((v[i] - expect).abs() < 1e-12, "gid {gid}");
            }
        }
    }
}
