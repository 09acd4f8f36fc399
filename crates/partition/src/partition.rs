//! Element-to-rank assignment (the NekRS domain decomposition stand-in).

use cgnn_mesh::BoxMesh;

use crate::layout::{range_of, uniform_ranges, Layout};
use crate::rcb::rcb_partition;

/// How the element grid is decomposed onto ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// 1D slabs along x (NekRS's "vertical rectangular chunks" regime).
    Slab,
    /// 2D pencils in x-y.
    Pencil,
    /// 3D blocks (sub-cubes), surface-minimizing layout.
    Block,
    /// Recursive coordinate bisection on element centroids.
    Rcb,
}

impl Strategy {
    /// Display label for diagnostics and reports.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::Slab => "slab",
            Strategy::Pencil => "pencil",
            Strategy::Block => "block",
            Strategy::Rcb => "rcb",
        }
    }
}

/// A domain decomposition: every element is owned by exactly one rank.
#[derive(Debug, Clone)]
pub struct Partition {
    n_ranks: usize,
    owner: Vec<u32>,
    rank_elems: Vec<Vec<usize>>,
}

impl Partition {
    /// Decompose `mesh` onto `n_ranks` ranks with the given strategy.
    ///
    /// # Panics
    /// If `n_ranks` is zero or exceeds the element count.
    pub fn new(mesh: &BoxMesh, n_ranks: usize, strategy: Strategy) -> Self {
        assert!(n_ranks > 0, "need at least one rank");
        assert!(
            mesh.num_elements() >= n_ranks,
            "cannot give {} ranks at least one of {} elements",
            n_ranks,
            mesh.num_elements()
        );
        let (ex, ey, ez) = mesh.elem_counts();
        let fits = |l: &Layout| l.rx <= ex && l.ry <= ey && l.rz <= ez;
        // Structured layouts that cannot tile the element grid degrade to the
        // next more-dimensional strategy (slab -> pencil -> block -> RCB),
        // mirroring how production partitioners switch regimes as rank
        // counts outgrow a single axis.
        match strategy {
            Strategy::Slab if fits(&Layout::slab(n_ranks)) => {
                Self::structured(mesh, Layout::slab(n_ranks))
            }
            Strategy::Slab => Self::new(mesh, n_ranks, Strategy::Pencil),
            Strategy::Pencil if fits(&Layout::pencil(n_ranks)) => {
                Self::structured(mesh, Layout::pencil(n_ranks))
            }
            Strategy::Pencil => Self::new(mesh, n_ranks, Strategy::Block),
            Strategy::Block if fits(&Layout::block(n_ranks, mesh.elem_counts())) => {
                Self::structured(mesh, Layout::block(n_ranks, mesh.elem_counts()))
            }
            Strategy::Block => Self::new(mesh, n_ranks, Strategy::Rcb),
            Strategy::Rcb => Self::from_owner(rcb_partition(mesh, n_ranks), n_ranks),
        }
    }

    /// Structured decomposition from an explicit process grid.
    ///
    /// # Panics
    /// If `layout` does not fit the element grid.
    pub fn structured(mesh: &BoxMesh, layout: Layout) -> Self {
        let (ex, ey, ez) = mesh.elem_counts();
        assert!(
            layout.rx <= ex && layout.ry <= ey && layout.rz <= ez,
            "layout {layout:?} does not fit element grid {:?}",
            (ex, ey, ez)
        );
        let sx = uniform_ranges(ex, layout.rx);
        let sy = uniform_ranges(ey, layout.ry);
        let sz = uniform_ranges(ez, layout.rz);
        let mut owner = vec![0u32; mesh.num_elements()];
        for e in 0..mesh.num_elements() {
            let (ei, ej, ek) = mesh.elem_coords(e);
            let cell = (range_of(&sx, ei), range_of(&sy, ej), range_of(&sz, ek));
            owner[e] = layout.rank_of_cell(cell) as u32;
        }
        Self::from_owner(owner, layout.num_ranks())
    }

    fn from_owner(owner: Vec<u32>, n_ranks: usize) -> Self {
        let mut rank_elems: Vec<Vec<usize>> = vec![Vec::new(); n_ranks];
        for (e, &r) in owner.iter().enumerate() {
            rank_elems[r as usize].push(e);
        }
        for (r, elems) in rank_elems.iter().enumerate() {
            assert!(!elems.is_empty(), "rank {r} received no elements");
        }
        Partition {
            n_ranks,
            owner,
            rank_elems,
        }
    }

    pub fn n_ranks(&self) -> usize {
        self.n_ranks
    }

    /// Owning rank of element `e`.
    pub fn owner_of(&self, e: usize) -> usize {
        self.owner[e] as usize
    }

    /// Elements owned by rank `r`, ascending.
    pub fn elements_of(&self, r: usize) -> &[usize] {
        &self.rank_elems[r]
    }

    pub fn owners(&self) -> &[u32] {
        &self.owner
    }

    /// Load imbalance: max over ranks of (local elements / mean).
    pub fn imbalance(&self) -> f64 {
        let mean = self.owner.len() as f64 / self.n_ranks as f64;
        self.rank_elems
            .iter()
            .map(|e| e.len() as f64 / mean)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_invariants(mesh: &BoxMesh, part: &Partition) {
        // Every element owned exactly once and listed exactly once.
        let mut seen = vec![false; mesh.num_elements()];
        for r in 0..part.n_ranks() {
            for &e in part.elements_of(r) {
                assert!(!seen[e], "element {e} owned twice");
                seen[e] = true;
                assert_eq!(part.owner_of(e), r);
            }
        }
        assert!(seen.iter().all(|&s| s), "some element unowned");
    }

    #[test]
    fn all_strategies_cover_all_elements() {
        let mesh = BoxMesh::unit_cube(4, 2);
        for strategy in [
            Strategy::Slab,
            Strategy::Pencil,
            Strategy::Block,
            Strategy::Rcb,
        ] {
            for r in [1, 2, 4, 8] {
                let part = Partition::new(&mesh, r, strategy);
                check_invariants(&mesh, &part);
            }
        }
    }

    #[test]
    fn block_partition_of_cube_is_balanced() {
        let mesh = BoxMesh::unit_cube(8, 1);
        let part = Partition::new(&mesh, 8, Strategy::Block);
        assert!((part.imbalance() - 1.0).abs() < 1e-12);
        for r in 0..8 {
            assert_eq!(part.elements_of(r).len(), 64);
        }
    }

    #[test]
    fn slab_partition_groups_by_x() {
        let mesh = BoxMesh::unit_cube(4, 1);
        let part = Partition::new(&mesh, 4, Strategy::Slab);
        for e in 0..mesh.num_elements() {
            let (ei, _, _) = mesh.elem_coords(e);
            assert_eq!(part.owner_of(e), ei);
        }
    }

    #[test]
    fn rcb_is_balanced_for_awkward_rank_counts() {
        let mesh = BoxMesh::unit_cube(6, 1); // 216 elements
        for r in [3, 5, 7, 9] {
            let part = Partition::new(&mesh, r, Strategy::Rcb);
            check_invariants(&mesh, &part);
            assert!(
                part.imbalance() < 1.35,
                "r={r} imbalance={}",
                part.imbalance()
            );
        }
    }

    #[test]
    fn single_rank_partition_owns_everything() {
        let mesh = BoxMesh::unit_cube(2, 3);
        let part = Partition::new(&mesh, 1, Strategy::Block);
        assert_eq!(part.elements_of(0).len(), mesh.num_elements());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Strategy::Slab.label(), "slab");
        assert_eq!(Strategy::Pencil.label(), "pencil");
        assert_eq!(Strategy::Block.label(), "block");
        assert_eq!(Strategy::Rcb.label(), "rcb");
    }

    #[test]
    fn strategies_are_deterministic_across_calls() {
        let mesh = BoxMesh::unit_cube(5, 1);
        assert_eq!(
            Partition::new(&mesh, 7, Strategy::Rcb).owners(),
            Partition::new(&mesh, 7, Strategy::Rcb).owners()
        );
    }

    #[test]
    #[should_panic(expected = "cannot give")]
    fn too_many_ranks_panics() {
        let mesh = BoxMesh::unit_cube(2, 1);
        let _ = Partition::new(&mesh, 9, Strategy::Rcb);
    }
}
