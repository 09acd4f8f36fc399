//! Structured spectral-element box meshes.
//!
//! A [`BoxMesh`] covers `[0,Lx] x [0,Ly] x [0,Lz]` with `ex * ey * ez`
//! non-intersecting hexahedral elements, each carrying a `(p+1)^3` GLL
//! lattice of quadrature points — the discretization NekRS uses and the one
//! the paper's graphs are generated from (paper Sec. II-A, Figs. 2-3).
//!
//! Coincident nodes (shared element faces/edges/corners) are expressed
//! through **global node IDs**: two element-local nodes with the same global
//! ID occupy the same physical position. Periodic numbering (used for the
//! Taylor-Green vortex box) wraps the global lattice.

use crate::gll::GllRule;

/// Element index triple `(ei, ej, ek)`.
pub type ElemCoords = (usize, usize, usize);

/// Up to `N` values held on the stack, in insertion order: what a lattice
/// query returns instead of a heap `Vec` (at most 8 elements touch a node,
/// 4 an edge). Reads as a slice.
#[derive(Debug, Clone, Copy)]
pub struct StackVec<T, const N: usize> {
    items: [T; N],
    len: usize,
}

impl<T: Copy + Default, const N: usize> StackVec<T, N> {
    fn new() -> Self {
        StackVec {
            items: [T::default(); N],
            len: 0,
        }
    }

    fn push(&mut self, v: T) {
        self.items[self.len] = v;
        self.len += 1;
    }
}

impl<T, const N: usize> IntoIterator for StackVec<T, N> {
    type Item = T;
    type IntoIter = std::iter::Take<std::array::IntoIter<T, N>>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter().take(self.len)
    }
}

impl<T, const N: usize> std::ops::Deref for StackVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.items[..self.len]
    }
}

/// Structured hexahedral spectral-element mesh of a box domain.
#[derive(Debug, Clone)]
pub struct BoxMesh {
    ex: usize,
    ey: usize,
    ez: usize,
    p: usize,
    lx: f64,
    ly: f64,
    lz: f64,
    periodic: bool,
    gll: GllRule,
}

impl BoxMesh {
    /// Mesh with `ex x ey x ez` elements of polynomial order `p` covering a
    /// box of side lengths `(lx, ly, lz)`.
    ///
    /// # Panics
    /// If a count, `p` or a length is not positive, or `periodic` has an axis
    /// of one element.
    pub fn new(
        (ex, ey, ez): (usize, usize, usize),
        p: usize,
        (lx, ly, lz): (f64, f64, f64),
        periodic: bool,
    ) -> Self {
        assert!(
            ex > 0 && ey > 0 && ez > 0,
            "element counts must be positive"
        );
        assert!(p >= 1, "polynomial order must be >= 1");
        assert!(
            lx > 0.0 && ly > 0.0 && lz > 0.0,
            "box lengths must be positive"
        );
        if periodic {
            // A periodic axis forms a node ring of p * e lattice points;
            // rings of fewer than 3 nodes would duplicate edges between the
            // same node pair (the wrap link coincides with an interior
            // link), which is geometrically degenerate.
            assert!(
                ex > 1 && ey > 1 && ez > 1,
                "periodic wrap needs at least 2 elements per axis"
            );
            assert!(
                p * ex >= 3 && p * ey >= 3 && p * ez >= 3,
                "periodic axis needs a node ring of >= 3 (p * elements >= 3)"
            );
        }
        BoxMesh {
            ex,
            ey,
            ez,
            p,
            lx,
            ly,
            lz,
            periodic,
            gll: GllRule::new(p),
        }
    }

    /// Convenience: unit-spaced cube of `e^3` elements on `[0, 2*pi]^3`
    /// (the Taylor-Green vortex box), periodic numbering.
    pub fn tgv_cube(e: usize, p: usize) -> Self {
        let l = 2.0 * std::f64::consts::PI;
        Self::new((e, e, e), p, (l, l, l), true)
    }

    /// Non-periodic unit cube with `e^3` elements.
    pub fn unit_cube(e: usize, p: usize) -> Self {
        Self::new((e, e, e), p, (1.0, 1.0, 1.0), false)
    }

    pub fn order(&self) -> usize {
        self.p
    }

    pub fn gll(&self) -> &GllRule {
        &self.gll
    }

    pub fn is_periodic(&self) -> bool {
        self.periodic
    }

    pub fn elem_counts(&self) -> (usize, usize, usize) {
        (self.ex, self.ey, self.ez)
    }

    pub fn lengths(&self) -> (f64, f64, f64) {
        (self.lx, self.ly, self.lz)
    }

    pub fn num_elements(&self) -> usize {
        self.ex * self.ey * self.ez
    }

    /// Nodes per element, `(p+1)^3`.
    pub fn nodes_per_element(&self) -> usize {
        (self.p + 1).pow(3)
    }

    /// Linear element id from coordinates.
    pub fn elem_id(&self, (ei, ej, ek): ElemCoords) -> usize {
        debug_assert!(ei < self.ex && ej < self.ey && ek < self.ez);
        ei + self.ex * (ej + self.ey * ek)
    }

    /// Element coordinates from linear id.
    pub fn elem_coords(&self, e: usize) -> ElemCoords {
        debug_assert!(e < self.num_elements());
        let ei = e % self.ex;
        let ej = (e / self.ex) % self.ey;
        let ek = e / (self.ex * self.ey);
        (ei, ej, ek)
    }

    /// Global lattice extent along each axis.
    pub fn lattice_dims(&self) -> (usize, usize, usize) {
        if self.periodic {
            (self.p * self.ex, self.p * self.ey, self.p * self.ez)
        } else {
            (
                self.p * self.ex + 1,
                self.p * self.ey + 1,
                self.p * self.ez + 1,
            )
        }
    }

    /// Total number of *unique* global nodes.
    pub fn num_global_nodes(&self) -> usize {
        let (nx, ny, nz) = self.lattice_dims();
        nx * ny * nz
    }

    /// Global node id of lattice coordinates (wrapping when periodic).
    pub fn gid_of_lattice(&self, (i, j, k): (usize, usize, usize)) -> u64 {
        let (nx, ny, nz) = self.lattice_dims();
        let (i, j, k) = if self.periodic {
            (i % nx, j % ny, k % nz)
        } else {
            (i, j, k)
        };
        debug_assert!(i < nx && j < ny && k < nz);
        (i as u64) + (nx as u64) * ((j as u64) + (ny as u64) * (k as u64))
    }

    /// Lattice coordinates of a global node id.
    pub fn lattice_of_gid(&self, gid: u64) -> (usize, usize, usize) {
        let (nx, ny, _) = self.lattice_dims();
        let i = (gid % nx as u64) as usize;
        let j = ((gid / nx as u64) % ny as u64) as usize;
        let k = (gid / (nx as u64 * ny as u64)) as usize;
        (i, j, k)
    }

    /// Global node id of element-local GLL node `(a, b, c)` in element `e`.
    pub fn elem_node_gid(&self, e: usize, (a, b, c): (usize, usize, usize)) -> u64 {
        debug_assert!(a <= self.p && b <= self.p && c <= self.p);
        let (ei, ej, ek) = self.elem_coords(e);
        self.gid_of_lattice((self.p * ei + a, self.p * ej + b, self.p * ek + c))
    }

    /// Global node ids of every GLL node of element `e`, in
    /// [`BoxMesh::local_nodes`] order: `elem_node_gid(e, local)` for each
    /// `local`, from one division of `e` into its lattice base.
    pub fn elem_node_gids(&self, e: usize) -> impl Iterator<Item = u64> + '_ {
        let (nx, ny, nz) = self.lattice_dims();
        let (ei, ej, ek) = self.elem_coords(e);
        let base = (self.p * ei, self.p * ej, self.p * ek);
        // Only a periodic mesh's last element reaches index `n`, which is 0.
        let wrap = |i: usize, n: usize| (if i == n { 0 } else { i }) as u64;
        let (nx64, nxy) = (nx as u64, (nx * ny) as u64);
        self.local_nodes().map(move |(a, b, c)| {
            wrap(base.0 + a, nx) + nx64 * wrap(base.1 + b, ny) + nxy * wrap(base.2 + c, nz)
        })
    }

    fn axis_coord(&self, lattice: usize, n_elems: usize, length: f64) -> f64 {
        let h = length / n_elems as f64;
        if lattice == self.p * n_elems {
            // Non-periodic far boundary.
            return length;
        }
        let ei = lattice / self.p;
        let a = lattice % self.p;
        (ei as f64 + (self.gll.nodes[a] + 1.0) * 0.5) * h
    }

    /// Canonical physical position of a global node. Identical no matter
    /// which element or rank asks — this is what makes node attributes
    /// rank-invariant.
    pub fn node_pos(&self, gid: u64) -> [f64; 3] {
        let (i, j, k) = self.lattice_of_gid(gid);
        [
            self.axis_coord(i, self.ex, self.lx),
            self.axis_coord(j, self.ey, self.ly),
            self.axis_coord(k, self.ez, self.lz),
        ]
    }

    /// Physical position of an element-local node, computed *within* the
    /// element (never wrapped). Used for periodic-safe edge geometry.
    pub fn elem_node_pos(&self, e: usize, local: (usize, usize, usize)) -> [f64; 3] {
        self.pos_in_elem(self.elem_coords(e), local)
    }

    /// [`BoxMesh::elem_node_pos`] of the element at coordinates
    /// `(ei, ej, ek)`.
    pub fn pos_in_elem(
        &self,
        (ei, ej, ek): ElemCoords,
        (a, b, c): (usize, usize, usize),
    ) -> [f64; 3] {
        let hx = self.lx / self.ex as f64;
        let hy = self.ly / self.ey as f64;
        let hz = self.lz / self.ez as f64;
        [
            (ei as f64 + (self.gll.nodes[a] + 1.0) * 0.5) * hx,
            (ej as f64 + (self.gll.nodes[b] + 1.0) * 0.5) * hy,
            (ek as f64 + (self.gll.nodes[c] + 1.0) * 0.5) * hz,
        ]
    }

    /// Iterate all `(a, b, c)` local lattice coordinates of an element.
    pub fn local_nodes(&self) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        let n = self.p + 1;
        (0..n).flat_map(move |c| (0..n).flat_map(move |b| (0..n).map(move |a| (a, b, c))))
    }

    /// Elements (by axis index) whose lattice range contains axis lattice
    /// coordinate `i`. One element for interior coordinates, two for
    /// element-boundary coordinates (coincident planes): the one to the
    /// left of the shared plane first.
    fn axis_elems(&self, i: usize, n_elems: usize) -> StackVec<usize, 2> {
        let mut out = StackVec::new();
        if i.is_multiple_of(self.p) {
            let right = i / self.p;
            if right > 0 {
                out.push(right - 1);
            } else if self.periodic {
                out.push(n_elems - 1);
            }
            if right < n_elems {
                out.push(right);
            }
        } else {
            out.push(i / self.p);
        }
        out
    }

    /// All elements containing global node `gid` (up to 8), z-major.
    pub fn elements_of_node(&self, gid: u64) -> StackVec<usize, 8> {
        let (i, j, k) = self.lattice_of_gid(gid);
        let mut out = StackVec::new();
        for &ek in self.axis_elems(k, self.ez).iter() {
            for &ej in self.axis_elems(j, self.ey).iter() {
                for &ei in self.axis_elems(i, self.ex).iter() {
                    out.push(self.elem_id((ei, ej, ek)));
                }
            }
        }
        out
    }

    /// Coordinates of all elements containing the lattice link from
    /// `lower` one step up `axis` (0, 1, 2 for x, y, z), up to 4, z-major:
    /// the elements that contain both of its ends. `lower` is unwrapped:
    /// its `axis` coordinate is below `p * elements` on that axis, and the
    /// upper end wraps to 0 on a periodic mesh.
    pub fn elements_of_link(&self, lower: [usize; 3], axis: usize) -> StackVec<ElemCoords, 4> {
        let n = [self.ex, self.ey, self.ez];
        let along = |d: usize| {
            if d == axis {
                let mut one = StackVec::new();
                one.push(lower[d] / self.p);
                one
            } else {
                self.axis_elems(lower[d], n[d])
            }
        };
        let mut out = StackVec::new();
        for &ek in along(2).iter() {
            for &ej in along(1).iter() {
                for &ei in along(0).iter() {
                    out.push((ei, ej, ek));
                }
            }
        }
        out
    }

    /// Undirected nearest-neighbour links of the local `(p+1)^3` GLL
    /// lattice, as pairs of local linear indices. This is the paper's edge
    /// generation rule: p=1 gives 12 links (24 directed edges), p=3 gives
    /// 144, p=5 gives 540 (Fig. 2).
    pub fn lattice_links(&self) -> Vec<(usize, usize)> {
        let n = self.p + 1;
        let mut links = Vec::with_capacity(3 * n * n * (n - 1));
        let idx = |a: usize, b: usize, c: usize| a + n * (b + n * c);
        for c in 0..n {
            for b in 0..n {
                for a in 0..n {
                    if a + 1 < n {
                        links.push((idx(a, b, c), idx(a + 1, b, c)));
                    }
                    if b + 1 < n {
                        links.push((idx(a, b, c), idx(a, b + 1, c)));
                    }
                    if c + 1 < n {
                        links.push((idx(a, b, c), idx(a, b, c + 1)));
                    }
                }
            }
        }
        links
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_link_counts_match_paper_fig2() {
        for (p, nodes, directed_edges) in [(1, 8, 24), (3, 64, 288), (5, 216, 1080)] {
            let m = BoxMesh::unit_cube(2, p);
            assert_eq!(m.nodes_per_element(), nodes);
            assert_eq!(m.lattice_links().len() * 2, directed_edges, "p={p}");
        }
    }

    #[test]
    fn global_node_count_non_periodic() {
        let m = BoxMesh::new((2, 3, 4), 2, (1.0, 1.0, 1.0), false);
        assert_eq!(m.num_global_nodes(), 5 * 7 * 9);
    }

    #[test]
    fn global_node_count_periodic() {
        let m = BoxMesh::new((2, 3, 4), 2, (1.0, 1.0, 1.0), true);
        assert_eq!(m.num_global_nodes(), 4 * 6 * 8);
    }

    #[test]
    fn face_sharing_elements_share_gids() {
        let m = BoxMesh::unit_cube(2, 3);
        let e0 = m.elem_id((0, 0, 0));
        let e1 = m.elem_id((1, 0, 0));
        // Right face of e0 (a = p) coincides with left face of e1 (a = 0).
        for b in 0..=3 {
            for c in 0..=3 {
                assert_eq!(
                    m.elem_node_gid(e0, (3, b, c)),
                    m.elem_node_gid(e1, (0, b, c))
                );
            }
        }
    }

    #[test]
    fn periodic_wraps_far_face_to_near_face() {
        let m = BoxMesh::new((3, 3, 3), 2, (1.0, 1.0, 1.0), true);
        let last = m.elem_id((2, 0, 0));
        let first = m.elem_id((0, 0, 0));
        for b in 0..=2 {
            for c in 0..=2 {
                assert_eq!(
                    m.elem_node_gid(last, (2, b, c)),
                    m.elem_node_gid(first, (0, b, c))
                );
            }
        }
    }

    #[test]
    fn node_positions_consistent_across_sharing_elements() {
        let m = BoxMesh::unit_cube(3, 4);
        for e in 0..m.num_elements() {
            for local in m.local_nodes().collect::<Vec<_>>() {
                let gid = m.elem_node_gid(e, local);
                let canon = m.node_pos(gid);
                let direct = m.elem_node_pos(e, local);
                for d in 0..3 {
                    assert!(
                        (canon[d] - direct[d]).abs() < 1e-12,
                        "e={e} local={local:?} dim {d}: {} vs {}",
                        canon[d],
                        direct[d]
                    );
                }
            }
        }
    }

    #[test]
    fn elements_of_node_multiplicity() {
        let m = BoxMesh::unit_cube(2, 2);
        // Center of the box: corner shared by all 8 elements.
        let gid = m.gid_of_lattice((2, 2, 2));
        assert_eq!(m.elements_of_node(gid).len(), 8);
        // Center of a face between two elements.
        let gid = m.gid_of_lattice((2, 1, 1));
        assert_eq!(m.elements_of_node(gid).len(), 2);
        // Interior node of one element.
        let gid = m.gid_of_lattice((1, 1, 1));
        assert_eq!(m.elements_of_node(gid).len(), 1);
        // Domain corner: exactly one element (non-periodic).
        let gid = m.gid_of_lattice((0, 0, 0));
        assert_eq!(m.elements_of_node(gid).len(), 1);
    }

    #[test]
    fn elements_of_node_periodic_corner() {
        let m = BoxMesh::new((2, 2, 2), 2, (1.0, 1.0, 1.0), true);
        // Periodic: the origin corner is shared by 8 elements through wrap.
        let gid = m.gid_of_lattice((0, 0, 0));
        assert_eq!(m.elements_of_node(gid).len(), 8);
    }

    #[test]
    fn elements_of_node_contains_consistent_gid() {
        let m = BoxMesh::new((3, 2, 2), 3, (2.0, 1.0, 1.0), false);
        for gid in 0..m.num_global_nodes() as u64 {
            let elems = m.elements_of_node(gid);
            assert!(!elems.is_empty());
            for e in elems {
                // The element must indeed contain a local node with this gid.
                let found = m
                    .local_nodes()
                    .any(|local| m.elem_node_gid(e, local) == gid);
                assert!(found, "element {e} does not contain gid {gid}");
            }
        }
    }

    /// The lattice-base form of every element's gids is the per-node one,
    /// wrapped or not.
    #[test]
    fn elem_node_gids_match_elem_node_gid() {
        for periodic in [false, true] {
            let m = BoxMesh::new((3, 2, 4), 2, (1.0, 1.0, 1.0), periodic);
            for e in 0..m.num_elements() {
                let each: Vec<u64> = m.local_nodes().map(|l| m.elem_node_gid(e, l)).collect();
                assert_eq!(m.elem_node_gids(e).collect::<Vec<_>>(), each, "e={e}");
            }
        }
    }

    /// The elements of a link are the elements of its lower end that also
    /// hold its upper end, in the same order.
    #[test]
    fn elements_of_link_are_those_holding_both_ends() {
        for (periodic, p) in [(false, 1), (false, 2), (true, 1), (true, 3)] {
            let m = BoxMesh::new((3, 4, 3), p, (1.0, 1.0, 1.0), periodic);
            let (nx, ny, nz) = m.lattice_dims();
            let dims = [nx, ny, nz];
            for gid in 0..m.num_global_nodes() as u64 {
                let (i, j, k) = m.lattice_of_gid(gid);
                let lower = [i, j, k];
                for axis in 0..3 {
                    let mut upper = lower;
                    upper[axis] += 1;
                    if !periodic && upper[axis] == dims[axis] {
                        continue;
                    }
                    let up = m.gid_of_lattice((upper[0], upper[1], upper[2]));
                    let held_up = m.elements_of_node(up);
                    let both: Vec<usize> = m
                        .elements_of_node(gid)
                        .into_iter()
                        .filter(|e| held_up.contains(e))
                        .collect();
                    let link: Vec<usize> = m
                        .elements_of_link(lower, axis)
                        .into_iter()
                        .map(|c| m.elem_id(c))
                        .collect();
                    assert_eq!(
                        link, both,
                        "periodic={periodic} p={p} {lower:?} axis {axis}"
                    );
                }
            }
        }
    }

    #[test]
    fn total_element_nodes_vs_unique_nodes() {
        // Sum over elements of (p+1)^3 = sum over gids of multiplicity.
        let m = BoxMesh::unit_cube(2, 3);
        let total = m.num_elements() * m.nodes_per_element();
        let mult_sum: usize = (0..m.num_global_nodes() as u64)
            .map(|g| m.elements_of_node(g).len())
            .sum();
        assert_eq!(total, mult_sum);
    }
}
