//! The reduced distributed graph stored on one rank (paper Fig. 3c).
//!
//! Local coincident nodes are collapsed (one row per global id), non-local
//! coincident nodes keep their geometric consistency weights (`1/d_i`,
//! `1/d_ij`), and a [`HaloPlan`] describes which aggregate rows must be
//! swapped with which neighbouring ranks (paper Fig. 4).

use std::sync::Arc;

/// Communication plan for the halo exchanges of one rank.
///
/// For each neighbour `s`, the shared global ids are listed in ascending gid
/// order *on both ranks*, so `send_ids[k]` on rank `r` and `send_ids[k]` on
/// rank `s` refer to the same physical node. Halo rows are appended after
/// the `n_local` owned rows, grouped by neighbour in `neighbors` order.
#[derive(Debug, Clone, Default)]
pub struct HaloPlan {
    /// Neighbouring ranks (sharing at least one non-local coincident node),
    /// ascending.
    pub neighbors: Vec<usize>,
    /// Per neighbour: local row indices of the shared nodes, sorted by gid.
    /// These rows are both the send mask and the sync targets.
    pub send_ids: Vec<Vec<usize>>,
}

impl HaloPlan {
    /// Total number of halo rows (sum of shared counts over neighbours).
    pub fn halo_count(&self) -> usize {
        self.send_ids.iter().map(Vec::len).sum()
    }

    /// Row offset (relative to `n_local`) of the halo block of neighbour
    /// index `ni`.
    pub fn halo_offset(&self, ni: usize) -> usize {
        self.send_ids[..ni].iter().map(Vec::len).sum()
    }
}

/// The per-rank reduced distributed graph.
#[derive(Debug, Clone)]
pub struct LocalGraph {
    /// Owning rank index.
    pub rank: usize,
    /// World size this graph was partitioned for.
    pub n_ranks: usize,
    /// Global ids of local nodes, ascending; length is `n_local`.
    pub gids: Vec<u64>,
    /// Canonical physical positions per local node.
    pub pos: Vec<[f64; 3]>,
    /// Directed edge endpoints (local indices). Both directions of every
    /// undirected link are present. Reference-counted so every
    /// message-passing layer (and every training step) shares the same
    /// index buffer instead of deep-cloning it.
    pub edge_src: Arc<Vec<usize>>,
    /// Destination endpoints, shared like [`LocalGraph::edge_src`].
    pub edge_dst: Arc<Vec<usize>>,
    /// Physical displacement `pos[dst] - pos[src]` per directed edge,
    /// measured inside the generating element (periodic-safe).
    pub edge_disp: Vec<[f64; 3]>,
    /// `1/d_ij` per directed edge: inverse of the number of ranks whose
    /// local graphs contain this edge (paper Eq. 4b). Arc-shared across
    /// layers.
    pub edge_inv_degree: Arc<Vec<f64>>,
    /// `1/d_i` per local node: inverse of the number of ranks owning a
    /// coincident copy (paper Eq. 6b). Arc-shared across layers.
    pub node_inv_degree: Arc<Vec<f64>>,
    /// `N_eff = sum_r sum_i 1/d_i` over every rank's nodes (paper Eq. 6c):
    /// the number of global nodes, summed as a sum-all-reduce of the
    /// per-rank sums of [`LocalGraph::node_inv_degree`] would, so the loss
    /// needs no collective for it. The same on every rank.
    pub n_eff: f64,
    /// Local rows *not* shared with any other rank, ascending — the rows
    /// whose node update can run while halo aggregates are in flight.
    pub interior_rows: Arc<Vec<usize>>,
    /// Local rows shared with at least one other rank (the union of the
    /// halo send lists), ascending. Together with
    /// [`LocalGraph::interior_rows`] this partitions `0..n_local`.
    pub boundary_rows: Arc<Vec<usize>>,
    /// Halo exchange plan.
    pub halo: HaloPlan,
}

impl LocalGraph {
    /// Number of local (owned, collapsed) nodes.
    pub fn n_local(&self) -> usize {
        self.gids.len()
    }

    /// Number of halo rows appended after the local rows.
    pub fn n_halo(&self) -> usize {
        self.halo.halo_count()
    }

    /// Number of directed edges.
    pub fn n_edges(&self) -> usize {
        self.edge_src.len()
    }

    /// Local index of a global id, if present.
    pub fn local_of_gid(&self, gid: u64) -> Option<usize> {
        self.gids.binary_search(&gid).ok()
    }

    /// True when this node is a non-local coincident node (shared with at
    /// least one other rank).
    pub fn is_shared(&self, local: usize) -> bool {
        self.node_inv_degree[local] < 1.0
    }

    /// Basic structural sanity checks; used by tests and debug builds.
    ///
    /// # Panics
    /// On the first invariant that does not hold.
    pub fn validate(&self) {
        let n = self.n_local();
        assert_eq!(self.pos.len(), n);
        assert_eq!(self.node_inv_degree.len(), n);
        assert_eq!(self.edge_src.len(), self.edge_dst.len());
        assert_eq!(self.edge_src.len(), self.edge_disp.len());
        assert_eq!(self.edge_src.len(), self.edge_inv_degree.len());
        assert!(
            self.gids.windows(2).all(|w| w[0] < w[1]),
            "gids must be strictly ascending"
        );
        for (&s, &d) in self.edge_src.iter().zip(self.edge_dst.iter()) {
            assert!(s < n && d < n, "edge endpoint out of range");
            assert_ne!(s, d, "self-loop");
        }
        assert_eq!(self.halo.neighbors.len(), self.halo.send_ids.len());
        assert!(
            self.halo.neighbors.windows(2).all(|w| w[0] < w[1]),
            "neighbors must be ascending"
        );
        for (ni, ids) in self.halo.send_ids.iter().enumerate() {
            assert!(!ids.is_empty(), "empty halo block for neighbor {ni}");
            assert!(
                ids.windows(2).all(|w| self.gids[w[0]] < self.gids[w[1]]),
                "halo block must be sorted by gid"
            );
            for &i in ids {
                assert!(i < n);
                assert!(self.is_shared(i), "halo send id {i} is not a shared node");
            }
        }
        assert_eq!(
            self.interior_rows.len() + self.boundary_rows.len(),
            n,
            "interior/boundary rows must partition the local rows"
        );
        let mut seen = vec![false; n];
        for &r in self.interior_rows.iter().chain(self.boundary_rows.iter()) {
            assert!(r < n && !seen[r], "row {r} out of range or duplicated");
            seen[r] = true;
        }
        for &r in self.boundary_rows.iter() {
            assert!(
                self.halo.send_ids.iter().any(|ids| ids.contains(&r)),
                "boundary row {r} is in no halo send list"
            );
        }
    }
}

/// Split `0..n_local` into (interior, boundary) rows given the halo send
/// lists: boundary rows appear in at least one list, interior rows in none.
/// Both outputs are ascending.
pub fn split_interior_boundary(
    n_local: usize,
    send_ids: &[Vec<usize>],
) -> (Vec<usize>, Vec<usize>) {
    let mut is_boundary = vec![false; n_local];
    for ids in send_ids {
        for &i in ids {
            is_boundary[i] = true;
        }
    }
    let mut interior = Vec::with_capacity(n_local);
    let mut boundary = Vec::new();
    for (i, &b) in is_boundary.iter().enumerate() {
        if b {
            boundary.push(i);
        } else {
            interior.push(i);
        }
    }
    (interior, boundary)
}
