//! Direct stiffness summation (NekRS's `gs` / QQ^T gather-scatter).
//!
//! Element-based discretizations duplicate values at coincident nodes;
//! assembling a continuous operator requires summing every copy and writing
//! the sum back — exactly the coincident-node synchronization the paper's
//! consistent NMP layer performs over graph aggregates. This is the serial
//! version over the full mesh; its distributed twin is the GNN's halo
//! exchange, `cgnn_core::exchange`, which sums each shared node's copies
//! across ranks.

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
        let mut slot_gid = Vec::with_capacity(mesh.num_elements() * mesh.nodes_per_element());
        for e in 0..mesh.num_elements() {
            slot_gid.extend(mesh.elem_node_gids(e));
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
    ///
    /// # Panics
    /// If `gid` is not a node of the mesh.
    #[expect(
        clippy::expect_used,
        reason = "callers pass gids of this mesh; `# Panics` covers any other"
    )]
    pub fn row_of(&self, gid: u64) -> usize {
        self.gids.binary_search(&gid).expect("gid in mesh")
    }

    /// Sum all element-local copies into a global vector (`Q^T`).
    ///
    /// # Panics
    /// If `local` does not hold one value per element-local slot.
    pub fn gather_sum(&self, local: &[f64]) -> Vec<f64> {
        assert_eq!(local.len(), self.slot_gid.len());
        let mut global = vec![0.0; self.n_global];
        for (slot, &gid) in self.slot_gid.iter().enumerate() {
            global[self.row_of(gid)] += local[slot];
        }
        global
    }

    /// Copy a global vector out to every element-local slot (`Q`).
    ///
    /// # Panics
    /// If `global` does not hold one value per mesh node.
    pub fn scatter(&self, global: &[f64]) -> Vec<f64> {
        assert_eq!(global.len(), self.n_global);
        self.slot_gid
            .iter()
            .map(|&gid| global[self.row_of(gid)])
            .collect()
    }

    /// Assembled diagonal of a local-diagonal operator (e.g. the mass
    /// matrix): gather-sum of per-element diagonals.
    pub fn assemble_diagonal(&self, local_diag_per_element: &[f64]) -> Vec<f64> {
        self.gather_sum(local_diag_per_element)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
