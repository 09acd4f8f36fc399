//! Distributed mesh-based graph generation (paper Sec. II-A).
//!
//! For every rank, the builder instantiates graph nodes from the GLL
//! quadrature points of the rank's owned elements, collapses local
//! coincident nodes via global ids, generates nearest-neighbour lattice
//! edges, computes the `1/d` consistency weights, and derives the halo
//! exchange plan from coincident global ids shared with other ranks.
//!
//! ## By lattice arithmetic
//!
//! Every query is answered from lattice coordinates, and nothing is
//! allocated per node or per edge:
//! - the elements holding a node (at most 8) or a lattice link (at most
//!   4) come from [`BoxMesh::elements_of_node`] and
//!   [`BoxMesh::elements_of_link`] in stack arrays;
//! - a rank's nodes are its elements' gids, each element divided into its
//!   lattice base once ([`BoxMesh::elem_node_gids`]), sorted and deduped;
//! - the undirected edges are generated node-major: for each local node
//!   `g` in ascending order, the lattice neighbours `h > g` in ascending
//!   order, each kept if an owned element holds the link. That is
//!   `(min_gid, max_gid)` order, so no map or sort of edges is needed.
//!   A link's displacement is measured inside the lowest-numbered owned
//!   element that holds it, the element an element-major walk meets it in
//!   first;
//! - `1/d_ij` counts the distinct owner ranks of the link's elements, and
//!   `1/d_i` those of the node's;
//! - the local row of a neighbour `h` comes from one cursor per kind of
//!   lattice step: along a step kind, `h` grows with `g`, so each cursor
//!   only moves forward through the sorted gids.
//!
//! The builder is checked against the element-major builder it
//! replaced (kept as the test oracle) field for field, bit for bit.

use std::collections::BTreeMap;
use std::sync::Arc;

use cgnn_mesh::{BoxMesh, ElemCoords};
use cgnn_partition::Partition;

use crate::local_graph::{split_interior_boundary, HaloPlan, LocalGraph};

/// Build the reduced distributed graph for every rank of `partition`.
///
/// The returned vector is indexed by rank. Building all ranks at once (as
/// opposed to SPMD-style per-rank construction) mirrors the NekRS-GNN
/// plugin, which derives every rank's connectivity from the same partitioned
/// mesh object; it also gives every rank the global `N_eff` without a
/// collective.
pub fn build_distributed_graph(mesh: &BoxMesh, partition: &Partition) -> Vec<LocalGraph> {
    let mut graphs: Vec<LocalGraph> = (0..partition.n_ranks())
        .map(|rank| build_rank_graph(mesh, partition, rank))
        .collect();
    set_n_eff(&mut graphs);
    graphs
}

/// Build the un-partitioned `R = 1` graph (paper Fig. 3a, after local
/// coincident-node collapse).
pub fn build_global_graph(mesh: &BoxMesh) -> LocalGraph {
    let partition = Partition::new(mesh, 1, cgnn_partition::Strategy::Block);
    let mut g = build_rank_graph(mesh, &partition, 0);
    set_n_eff(std::slice::from_mut(&mut g));
    g
}

/// Store `N_eff = sum_r sum_i 1/d_i` (paper Eq. 6c) on every rank's
/// graph, summed as a sum-all-reduce of the per-rank sums would: from
/// `0.0`, in rank order.
fn set_n_eff(graphs: &mut [LocalGraph]) {
    let n_eff = graphs
        .iter()
        .fold(0.0, |acc, g| acc + g.node_inv_degree.iter().sum::<f64>());
    for g in graphs {
        g.n_eff = n_eff;
    }
}

/// Number of distinct values in `owners`.
fn distinct(owners: &[usize]) -> usize {
    (0..owners.len())
        .filter(|&i| !owners[..i].contains(&owners[i]))
        .count()
}

/// One undirected lattice link, seen from its lower-gid end `g`.
#[derive(Clone, Copy, Default)]
struct Link {
    /// The other end's gid, above `g`.
    h: u64,
    /// Unwrapped lattice coordinates of the link's lower end.
    lower: [usize; 3],
    axis: usize,
    /// Whether the link crosses the periodic wrap: then `g` is its upper
    /// end and `h` its lower one.
    wraps: bool,
}

impl Link {
    /// The kind of lattice step from `g` to `h`: along a kind, `h` grows
    /// with `g`.
    fn kind(&self) -> usize {
        2 * self.axis + self.wraps as usize
    }
}

/// The links from lattice point `l` (gid `g`) to neighbours of higher gid,
/// ascending in that gid: the step up each axis, and on a periodic mesh
/// the wrap step down from coordinate 0.
fn links_up(g: u64, l: [usize; 3], dims: [usize; 3], periodic: bool) -> ([Link; 6], usize) {
    let stride = [1, dims[0] as u64, (dims[0] * dims[1]) as u64];
    let mut out = [Link::default(); 6];
    let mut n = 0;
    for axis in 0..3 {
        if l[axis] + 1 < dims[axis] {
            out[n] = Link {
                h: g + stride[axis],
                lower: l,
                axis,
                wraps: false,
            };
            n += 1;
        }
        if periodic && l[axis] == 0 {
            let mut lower = l;
            lower[axis] = dims[axis] - 1;
            out[n] = Link {
                h: g + stride[axis] * (dims[axis] - 1) as u64,
                lower,
                axis,
                wraps: true,
            };
            n += 1;
        }
    }
    // Insertion sort: at most six entries.
    for i in 1..n {
        let mut j = i;
        while j > 0 && out[j - 1].h > out[j].h {
            out.swap(j - 1, j);
            j -= 1;
        }
    }
    (out, n)
}

fn build_rank_graph(mesh: &BoxMesh, partition: &Partition, rank: usize) -> LocalGraph {
    let elems = partition.elements_of(rank);
    let p = mesh.order();
    let (nx, ny, nz) = mesh.lattice_dims();
    let dims = [nx, ny, nz];

    // ---- Local coincident node collapse: unique sorted gids. ----
    let mut gids: Vec<u64> = Vec::with_capacity(elems.len() * mesh.nodes_per_element());
    for &e in elems {
        gids.extend(mesh.elem_node_gids(e));
    }
    gids.sort_unstable();
    gids.dedup();
    // The graph keeps the list: no slots for the duplicates it had.
    gids.shrink_to_fit();

    let pos: Vec<[f64; 3]> = gids.iter().map(|&g| mesh.node_pos(g)).collect();

    // ---- Node-major pass: edges, 1/d_ij, 1/d_i, halo lists. ----
    // Undirected links come out in (min_gid, max_gid) order, each
    // directed pair as (min -> max, max -> min).
    // A link is known by its lower end, a local node, and its axis, so
    // there are at most three per node; the vectors are cut to their
    // length at the end.
    let links_per_elem = 3 * p * (p + 1) * (p + 1);
    let n_dir = 2 * (3 * gids.len()).min(links_per_elem * elems.len());
    let mut edge_src = Vec::with_capacity(n_dir);
    let mut edge_dst = Vec::with_capacity(n_dir);
    let mut edge_disp = Vec::with_capacity(n_dir);
    let mut edge_inv_degree = Vec::with_capacity(n_dir);
    let mut node_inv_degree = Vec::with_capacity(gids.len());
    let mut shared_per_rank: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let mut cursor = [0usize; 6];
    for (lid, &g) in gids.iter().enumerate() {
        let (i, j, k) = mesh.lattice_of_gid(g);
        let (links, n_links) = links_up(g, [i, j, k], dims, mesh.is_periodic());
        for link in &links[..n_links] {
            let holders = mesh.elements_of_link(link.lower, link.axis);
            let mut owners = [0usize; 4];
            let mut first: Option<(usize, ElemCoords)> = None;
            for (o, &c) in owners.iter_mut().zip(holders.iter()) {
                let e = mesh.elem_id(c);
                *o = partition.owner_of(e);
                if *o == rank && first.is_none_or(|(f, _)| e < f) {
                    first = Some((e, c));
                }
            }
            let Some((_, c)) = first else { continue };
            let inv = 1.0 / distinct(&owners[..holders.len()]) as f64;

            // The link's ends inside element `c`, lower then upper.
            let base = [p * c.0, p * c.1, p * c.2];
            let local = |d: usize| {
                // Below the base only at a periodic wrap, on the far side.
                if link.lower[d] >= base[d] {
                    link.lower[d] - base[d]
                } else {
                    link.lower[d] + dims[d] - base[d]
                }
            };
            let la = (local(0), local(1), local(2));
            let mut lb = la;
            match link.axis {
                0 => lb.0 += 1,
                1 => lb.1 += 1,
                _ => lb.2 += 1,
            }
            let (pa, pb) = (mesh.pos_in_elem(c, la), mesh.pos_in_elem(c, lb));
            // Displacement min -> max: the lower end is the max only when
            // the link wraps.
            let d = if link.wraps {
                [pa[0] - pb[0], pa[1] - pb[1], pa[2] - pb[2]]
            } else {
                [pb[0] - pa[0], pb[1] - pa[1], pb[2] - pa[2]]
            };

            let at = &mut cursor[link.kind()];
            while gids[*at] < link.h {
                *at += 1;
            }
            debug_assert_eq!(gids[*at], link.h, "a link's ends are local");
            let lh = *at;
            edge_src.extend([lid, lh]);
            edge_dst.extend([lh, lid]);
            edge_disp.extend([d, [-d[0], -d[1], -d[2]]]);
            edge_inv_degree.extend([inv, inv]);
        }

        let holders = mesh.elements_of_node(g);
        let mut owners = [0usize; 8];
        for (o, &e) in owners.iter_mut().zip(holders.iter()) {
            *o = partition.owner_of(e);
        }
        let owners = &owners[..holders.len()];
        debug_assert!(
            owners.contains(&rank),
            "rank {rank} holds gid {g} but is not among its owners"
        );
        for (idx, &s) in owners.iter().enumerate() {
            if s != rank && !owners[..idx].contains(&s) {
                // gids are iterated ascending, so per-rank lists come out
                // sorted by gid automatically.
                shared_per_rank.entry(s).or_default().push(lid);
            }
        }
        node_inv_degree.push(1.0 / distinct(owners) as f64);
    }
    edge_src.shrink_to_fit();
    edge_dst.shrink_to_fit();
    edge_disp.shrink_to_fit();
    edge_inv_degree.shrink_to_fit();
    // BTreeMap keys iterate ascending — neighbor order is sorted for free.
    let (neighbors, send_ids): (Vec<usize>, Vec<Vec<usize>>) = shared_per_rank.into_iter().unzip();

    let (interior_rows, boundary_rows) = split_interior_boundary(gids.len(), &send_ids);
    let g = LocalGraph {
        rank,
        n_ranks: partition.n_ranks(),
        gids,
        pos,
        edge_src: Arc::new(edge_src),
        edge_dst: Arc::new(edge_dst),
        edge_disp,
        edge_inv_degree: Arc::new(edge_inv_degree),
        node_inv_degree: Arc::new(node_inv_degree),
        n_eff: f64::NAN,
        interior_rows: Arc::new(interior_rows),
        boundary_rows: Arc::new(boundary_rows),
        halo: HaloPlan {
            neighbors,
            send_ids,
        },
    };
    debug_assert!({
        g.validate();
        true
    });
    g
}

/// The element-major builder the lattice one replaced, kept as its
/// oracle: every owned element's lattice links deduplicated through a
/// `BTreeMap` keyed by `(min_gid, max_gid)`, keeping the first-generated
/// displacement, with the elements and ranks of every node and link
/// collected into `Vec`s.
#[cfg(test)]
mod reference {
    use std::collections::BTreeMap;
    use std::sync::Arc;

    use cgnn_mesh::BoxMesh;
    use cgnn_partition::Partition;

    use crate::local_graph::{split_interior_boundary, HaloPlan, LocalGraph};

    /// Every rank's graph, `n_eff` summed over ranks from `0.0`.
    pub fn build_distributed_graph(mesh: &BoxMesh, partition: &Partition) -> Vec<LocalGraph> {
        let mut graphs: Vec<LocalGraph> = (0..partition.n_ranks())
            .map(|rank| build_rank_graph(mesh, partition, rank))
            .collect();
        let mut n_eff = 0.0;
        for g in &graphs {
            n_eff += g.node_inv_degree.iter().sum::<f64>();
        }
        for g in &mut graphs {
            g.n_eff = n_eff;
        }
        graphs
    }

    /// Distinct ranks owning at least one element containing `gid`,
    /// ascending.
    fn node_ranks(mesh: &BoxMesh, partition: &Partition, gid: u64) -> Vec<usize> {
        let mut ranks: Vec<usize> = mesh
            .elements_of_node(gid)
            .iter()
            .map(|&e| partition.owner_of(e))
            .collect();
        ranks.sort_unstable();
        ranks.dedup();
        ranks
    }

    /// Distinct ranks owning an element that contains both `ga` and `gb`.
    fn edge_ranks(mesh: &BoxMesh, partition: &Partition, ga: u64, gb: u64) -> Vec<usize> {
        let ea = mesh.elements_of_node(ga);
        let eb = mesh.elements_of_node(gb);
        let mut ranks: Vec<usize> = ea
            .iter()
            .filter(|e| eb.contains(e))
            .map(|&e| partition.owner_of(e))
            .collect();
        ranks.sort_unstable();
        ranks.dedup();
        ranks
    }

    fn build_rank_graph(mesh: &BoxMesh, partition: &Partition, rank: usize) -> LocalGraph {
        let elems = partition.elements_of(rank);
        let locals: Vec<(usize, usize, usize)> = mesh.local_nodes().collect();
        let links = mesh.lattice_links();

        let mut gids: Vec<u64> = Vec::with_capacity(elems.len() * locals.len());
        for &e in elems {
            for &local in &locals {
                gids.push(mesh.elem_node_gid(e, local));
            }
        }
        gids.sort_unstable();
        gids.dedup();
        let lid_of = |gid: u64| -> usize { gids.binary_search(&gid).unwrap() };
        let pos: Vec<[f64; 3]> = gids.iter().map(|&g| mesh.node_pos(g)).collect();

        let mut edge_map: BTreeMap<(u64, u64), [f64; 3]> = BTreeMap::new();
        for &e in elems {
            for &(la, lb) in &links {
                let (na, nb) = (locals[la], locals[lb]);
                let (ga, gb) = (mesh.elem_node_gid(e, na), mesh.elem_node_gid(e, nb));
                let pa = mesh.elem_node_pos(e, na);
                let pb = mesh.elem_node_pos(e, nb);
                let (key, disp) = if ga < gb {
                    ((ga, gb), [pb[0] - pa[0], pb[1] - pa[1], pb[2] - pa[2]])
                } else {
                    ((gb, ga), [pa[0] - pb[0], pa[1] - pb[1], pa[2] - pb[2]])
                };
                edge_map.entry(key).or_insert(disp);
            }
        }

        let n_dir = edge_map.len() * 2;
        let mut edge_src = Vec::with_capacity(n_dir);
        let mut edge_dst = Vec::with_capacity(n_dir);
        let mut edge_disp = Vec::with_capacity(n_dir);
        let mut edge_inv_degree = Vec::with_capacity(n_dir);
        for (&(ga, gb), &d) in &edge_map {
            let inv = 1.0 / edge_ranks(mesh, partition, ga, gb).len() as f64;
            let (la, lb) = (lid_of(ga), lid_of(gb));
            edge_src.extend([la, lb]);
            edge_dst.extend([lb, la]);
            edge_disp.extend([d, [-d[0], -d[1], -d[2]]]);
            edge_inv_degree.extend([inv, inv]);
        }

        let mut node_inv_degree = Vec::with_capacity(gids.len());
        let mut shared_per_rank: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (lid, &gid) in gids.iter().enumerate() {
            let ranks = node_ranks(mesh, partition, gid);
            node_inv_degree.push(1.0 / ranks.len() as f64);
            for &s in &ranks {
                if s != rank {
                    shared_per_rank.entry(s).or_default().push(lid);
                }
            }
        }
        let (neighbors, send_ids): (Vec<usize>, Vec<Vec<usize>>) =
            shared_per_rank.into_iter().unzip();
        let (interior_rows, boundary_rows) = split_interior_boundary(gids.len(), &send_ids);
        LocalGraph {
            rank,
            n_ranks: partition.n_ranks(),
            gids,
            pos,
            edge_src: Arc::new(edge_src),
            edge_dst: Arc::new(edge_dst),
            edge_disp,
            edge_inv_degree: Arc::new(edge_inv_degree),
            node_inv_degree: Arc::new(node_inv_degree),
            n_eff: f64::NAN,
            interior_rows: Arc::new(interior_rows),
            boundary_rows: Arc::new(boundary_rows),
            halo: HaloPlan {
                neighbors,
                send_ids,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgnn_partition::Strategy;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    const STRATEGIES: [Strategy; 4] = [
        Strategy::Slab,
        Strategy::Pencil,
        Strategy::Block,
        Strategy::Rcb,
    ];

    /// The bits of an `f64` slice.
    fn bits(v: impl IntoIterator<Item = f64>) -> Vec<u64> {
        v.into_iter().map(f64::to_bits).collect()
    }

    /// Where `got` differs from `want`: the first field, or `None`.
    fn first_difference(got: &LocalGraph, want: &LocalGraph) -> Option<&'static str> {
        let flat = |v: &[[f64; 3]]| bits(v.iter().flatten().copied());
        let checks = [
            ("rank", got.rank == want.rank),
            ("n_ranks", got.n_ranks == want.n_ranks),
            ("gids", got.gids == want.gids),
            ("pos", flat(&got.pos) == flat(&want.pos)),
            ("edge_src", got.edge_src == want.edge_src),
            ("edge_dst", got.edge_dst == want.edge_dst),
            ("edge_disp", flat(&got.edge_disp) == flat(&want.edge_disp)),
            (
                "edge_inv_degree",
                bits(got.edge_inv_degree.iter().copied())
                    == bits(want.edge_inv_degree.iter().copied()),
            ),
            (
                "node_inv_degree",
                bits(got.node_inv_degree.iter().copied())
                    == bits(want.node_inv_degree.iter().copied()),
            ),
            ("n_eff", got.n_eff.to_bits() == want.n_eff.to_bits()),
            ("interior_rows", got.interior_rows == want.interior_rows),
            ("boundary_rows", got.boundary_rows == want.boundary_rows),
            ("halo.neighbors", got.halo.neighbors == want.halo.neighbors),
            ("halo.send_ids", got.halo.send_ids == want.halo.send_ids),
        ];
        checks.into_iter().find(|&(_, same)| !same).map(|(f, _)| f)
    }

    /// The lattice builder against the element-major oracle, every rank.
    fn assert_matches_reference(
        dims: (usize, usize, usize),
        order: usize,
        periodic: bool,
        strategy: Strategy,
        ranks: usize,
    ) -> Result<(), String> {
        let mesh = BoxMesh::new(dims, order, (1.0, 1.5, 2.0), periodic);
        let part = Partition::new(&mesh, ranks, strategy);
        let got = build_distributed_graph(&mesh, &part);
        let want = reference::build_distributed_graph(&mesh, &part);
        if ranks == 1 {
            let global = build_global_graph(&mesh);
            if let Some(f) = first_difference(&global, &want[0]) {
                return Err(format!(
                    "global graph of {dims:?} p={order} periodic={periodic}: {f}"
                ));
            }
        }
        for (g, w) in got.iter().zip(&want) {
            if let Some(f) = first_difference(g, w) {
                return Err(format!(
                    "{dims:?} p={order} periodic={periodic} {strategy:?} R={ranks}, rank {}: {f}",
                    g.rank
                ));
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Every field of every rank's graph equals the element-major
        /// builder's, bit for bit, on generated boxes, orders, periodicity,
        /// strategies and world sizes.
        #[test]
        fn lattice_builder_matches_the_element_major_oracle(
            ex in 1usize..5, ey in 1usize..5, ez in 1usize..5,
            order in 1usize..5,
            periodic in proptest::bool::ANY,
            strat in 0usize..4,
            ranks in 1usize..9,
        ) {
            // A periodic axis needs two elements and a node ring of three.
            prop_assume!(!periodic || (ex.min(ey).min(ez) >= 2 && order * ex.min(ey).min(ez) >= 3));
            prop_assume!(ranks <= ex * ey * ez);
            let checked = assert_matches_reference((ex, ey, ez), order, periodic, STRATEGIES[strat], ranks);
            prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
        }
    }

    /// Tiny periodic boxes, where one link is met in several elements and
    /// across the wrap: the smallest rings (three nodes at p = 1, four at
    /// p = 2) and ranks whose elements meet only through the wrap.
    #[test]
    fn tiny_periodic_boxes_match_the_element_major_oracle() {
        for (dims, order, strategy, ranks) in [
            ((3, 3, 3), 1, Strategy::Rcb, 3),
            ((2, 2, 2), 2, Strategy::Slab, 2),
            ((2, 2, 2), 2, Strategy::Block, 8),
            ((3, 4, 3), 1, Strategy::Pencil, 4),
            ((2, 3, 4), 2, Strategy::Rcb, 5),
        ] {
            if let Err(e) = assert_matches_reference(dims, order, true, strategy, ranks) {
                panic!("{e}");
            }
        }
    }

    /// FNV-1a over one u64.
    fn fnv(h: &mut u64, v: u64) {
        for b in v.to_le_bytes() {
            *h ^= b as u64;
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Order-sensitive fingerprint of every field of a [`LocalGraph`].
    fn graph_fingerprint(g: &LocalGraph) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        fnv(&mut h, g.rank as u64);
        fnv(&mut h, g.n_ranks as u64);
        for &x in &g.gids {
            fnv(&mut h, x);
        }
        for p in &g.pos {
            for &c in p {
                fnv(&mut h, c.to_bits());
            }
        }
        for &x in g.edge_src.iter() {
            fnv(&mut h, x as u64);
        }
        for &x in g.edge_dst.iter() {
            fnv(&mut h, x as u64);
        }
        for d in &g.edge_disp {
            for &c in d {
                fnv(&mut h, c.to_bits());
            }
        }
        for &x in g.edge_inv_degree.iter() {
            fnv(&mut h, x.to_bits());
        }
        for &x in g.node_inv_degree.iter() {
            fnv(&mut h, x.to_bits());
        }
        for &x in g.interior_rows.iter() {
            fnv(&mut h, x as u64);
        }
        for &x in g.boundary_rows.iter() {
            fnv(&mut h, x as u64);
        }
        for &n in &g.halo.neighbors {
            fnv(&mut h, n as u64);
        }
        for ids in &g.halo.send_ids {
            fnv(&mut h, ids.len() as u64);
            for &x in ids {
                fnv(&mut h, x as u64);
            }
        }
        h
    }

    #[test]
    fn construction_fingerprints_are_frozen() {
        // Golden fingerprints captured from the HashMap-based builder
        // immediately before the BTreeMap refactor: asserting them pins
        // field-identical graph construction across container changes.
        let mesh = BoxMesh::new((3, 3, 3), 2, (1.0, 1.0, 1.0), false);
        let part = Partition::new(&mesh, 4, Strategy::Pencil);
        let fp: Vec<u64> = build_distributed_graph(&mesh, &part)
            .iter()
            .map(graph_fingerprint)
            .collect();
        assert_eq!(
            fp,
            [
                0xe1a6_5089_88b4_24a2,
                0x9cbe_1032_8ee7_ea22,
                0x85e1_3f23_54b7_e5bb,
                0xbe94_4522_c1a0_510f,
            ]
        );

        let mesh = BoxMesh::new((4, 2, 2), 3, (2.0, 1.0, 1.0), true);
        let part = Partition::new(&mesh, 2, Strategy::Slab);
        let fp2: Vec<u64> = build_distributed_graph(&mesh, &part)
            .iter()
            .map(graph_fingerprint)
            .collect();
        assert_eq!(fp2, [0x6e63_5c88_c432_8081, 0x6d0b_49be_7f44_be0e]);
    }

    #[test]
    fn single_element_graph_matches_paper_fig2() {
        for (p, nodes, directed) in [(1usize, 8, 24), (3, 64, 288), (5, 216, 1080)] {
            let mesh = BoxMesh::new((1, 1, 1), p, (1.0, 1.0, 1.0), false);
            let g = build_global_graph(&mesh);
            assert_eq!(g.n_local(), nodes, "p={p}");
            assert_eq!(g.n_edges(), directed, "p={p}");
            assert_eq!(g.n_halo(), 0);
            assert!(g.node_inv_degree.iter().all(|&d| d == 1.0));
            assert!(g.edge_inv_degree.iter().all(|&d| d == 1.0));
        }
    }

    #[test]
    fn global_graph_collapses_local_coincident_nodes() {
        // 2x1x1 elements at p=2: 3x3x3 + 3x3x3 lattices sharing a 3x3 face.
        let mesh = BoxMesh::new((2, 1, 1), 2, (2.0, 1.0, 1.0), false);
        let g = build_global_graph(&mesh);
        assert_eq!(g.n_local(), 5 * 3 * 3);
        // Shared-face edges must not be duplicated: total undirected links =
        // 2 elements * 54 links - 12 duplicated face links... compute
        // directly instead: x-axis segments 4 * 9, y segments 2 * (5*3),
        // z segments likewise.
        let expect_undirected = 4 * 9 + 2 * 5 * 3 + 2 * 5 * 3;
        assert_eq!(g.n_edges(), expect_undirected * 2);
    }

    #[test]
    fn two_rank_split_produces_symmetric_halo() {
        let mesh = BoxMesh::new((2, 2, 2), 1, (1.0, 1.0, 1.0), false);
        let part = Partition::new(&mesh, 2, Strategy::Slab);
        let graphs = build_distributed_graph(&mesh, &part);
        assert_eq!(graphs.len(), 2);
        for g in &graphs {
            g.validate();
            assert_eq!(g.halo.neighbors.len(), 1);
            // The shared plane is the x-midplane: 3x3 nodes at p=1 on a
            // 2x2x2 element grid.
            assert_eq!(g.halo.send_ids[0].len(), 9);
            assert_eq!(g.n_halo(), 9);
        }
        // Shared gid lists must agree across the pair.
        let shared0: Vec<u64> = graphs[0].halo.send_ids[0]
            .iter()
            .map(|&l| graphs[0].gids[l])
            .collect();
        let shared1: Vec<u64> = graphs[1].halo.send_ids[0]
            .iter()
            .map(|&l| graphs[1].gids[l])
            .collect();
        assert_eq!(shared0, shared1);
    }

    #[test]
    fn union_of_rank_gids_covers_global_graph() {
        let mesh = BoxMesh::new((4, 4, 4), 2, (1.0, 1.0, 1.0), false);
        let part = Partition::new(&mesh, 8, Strategy::Block);
        let graphs = build_distributed_graph(&mesh, &part);
        let mut all: Vec<u64> = graphs.iter().flat_map(|g| g.gids.iter().copied()).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), mesh.num_global_nodes());
    }

    /// A graph's gid list holds its nodes and no slot more: the duplicate
    /// gids of shared element faces are gone with their capacity.
    #[test]
    fn gids_hold_no_spare_capacity() {
        let mesh = BoxMesh::new((4, 4, 4), 2, (1.0, 1.0, 1.0), false);
        let part = Partition::new(&mesh, 3, Strategy::Rcb);
        let mut graphs = build_distributed_graph(&mesh, &part);
        graphs.push(build_global_graph(&mesh));
        for g in &graphs {
            assert_eq!(g.gids.capacity(), g.gids.len(), "rank {}", g.rank);
        }
    }

    #[test]
    fn inverse_node_degrees_sum_to_global_count() {
        // Paper Eq. 6c: sum over ranks and local nodes of 1/d_i = N.
        for (r, strategy) in [
            (2, Strategy::Slab),
            (4, Strategy::Pencil),
            (8, Strategy::Block),
            (5, Strategy::Rcb),
        ] {
            let mesh = BoxMesh::new((4, 4, 4), 1, (1.0, 1.0, 1.0), false);
            let part = Partition::new(&mesh, r, strategy);
            let graphs = build_distributed_graph(&mesh, &part);
            let neff: f64 = graphs.iter().flat_map(|g| g.node_inv_degree.iter()).sum();
            assert!(
                (neff - mesh.num_global_nodes() as f64).abs() < 1e-9,
                "r={r}: Neff={neff} vs N={}",
                mesh.num_global_nodes()
            );
        }
    }

    #[test]
    fn inverse_edge_degrees_sum_to_global_edge_count() {
        // Same telescoping identity for edges: sum over ranks of
        // sum_e 1/d_ij = number of directed edges of the R=1 graph.
        let mesh = BoxMesh::new((3, 3, 3), 2, (1.0, 1.0, 1.0), false);
        let global = build_global_graph(&mesh);
        let part = Partition::new(&mesh, 8, Strategy::Rcb);
        let graphs = build_distributed_graph(&mesh, &part);
        let eff: f64 = graphs.iter().flat_map(|g| g.edge_inv_degree.iter()).sum();
        assert!(
            (eff - global.n_edges() as f64).abs() < 1e-9,
            "effective {eff} vs {}",
            global.n_edges()
        );
    }

    #[test]
    fn halo_plans_are_pairwise_consistent() {
        let mesh = BoxMesh::new((4, 4, 4), 3, (1.0, 1.0, 1.0), false);
        let part = Partition::new(&mesh, 8, Strategy::Block);
        let graphs = build_distributed_graph(&mesh, &part);
        for g in &graphs {
            for (ni, &s) in g.halo.neighbors.iter().enumerate() {
                let other = &graphs[s];
                let back = other
                    .halo
                    .neighbors
                    .iter()
                    .position(|&x| x == g.rank)
                    .expect("neighbor relation must be symmetric");
                let mine: Vec<u64> = g.halo.send_ids[ni].iter().map(|&l| g.gids[l]).collect();
                let theirs: Vec<u64> = other.halo.send_ids[back]
                    .iter()
                    .map(|&l| other.gids[l])
                    .collect();
                assert_eq!(
                    mine, theirs,
                    "shared gid lists differ for pair ({}, {s})",
                    g.rank
                );
            }
        }
    }

    #[test]
    fn periodic_mesh_halo_includes_wrap_neighbors() {
        let mesh = BoxMesh::new((4, 4, 4), 1, (1.0, 1.0, 1.0), true);
        let part = Partition::new(&mesh, 4, Strategy::Slab);
        let graphs = build_distributed_graph(&mesh, &part);
        // Slabs on a periodic ring: every rank has exactly 2 neighbors
        // (including the wrap pair 0 <-> 3).
        for g in &graphs {
            assert_eq!(g.halo.neighbors.len(), 2, "rank {}", g.rank);
        }
        assert!(graphs[0].halo.neighbors.contains(&3));
    }

    #[test]
    fn edge_features_are_rank_invariant() {
        // The same physical edge present on two ranks must carry identical
        // displacement vectors.
        let mesh = BoxMesh::new((2, 2, 2), 3, (1.0, 1.0, 1.0), false);
        let part = Partition::new(&mesh, 2, Strategy::Slab);
        let graphs = build_distributed_graph(&mesh, &part);
        let mut by_key: BTreeMap<(u64, u64), [f64; 3]> = BTreeMap::new();
        for g in &graphs {
            for e in 0..g.n_edges() {
                let key = (g.gids[g.edge_src[e]], g.gids[g.edge_dst[e]]);
                let d = g.edge_disp[e];
                if let Some(prev) = by_key.insert(key, d) {
                    assert_eq!(prev, d, "edge {key:?} has rank-dependent geometry");
                }
            }
        }
    }

    #[test]
    fn distributed_edges_cover_global_edges() {
        let mesh = BoxMesh::new((3, 3, 3), 1, (1.0, 1.0, 1.0), false);
        let global = build_global_graph(&mesh);
        let part = Partition::new(&mesh, 4, Strategy::Pencil);
        let graphs = build_distributed_graph(&mesh, &part);
        let mut global_keys: Vec<(u64, u64)> = (0..global.n_edges())
            .map(|e| {
                (
                    global.gids[global.edge_src[e]],
                    global.gids[global.edge_dst[e]],
                )
            })
            .collect();
        global_keys.sort_unstable();
        let mut dist_keys: Vec<(u64, u64)> = graphs
            .iter()
            .flat_map(|g| {
                (0..g.n_edges()).map(move |e| (g.gids[g.edge_src[e]], g.gids[g.edge_dst[e]]))
            })
            .collect();
        dist_keys.sort_unstable();
        dist_keys.dedup();
        assert_eq!(global_keys, dist_keys);
    }

    /// Microseconds of graph construction per built node (the sum of
    /// `n_local` over ranks), median of repeated builds, on order-2
    /// Taylor-Green boxes: the 4³ global build (729 nodes), the
    /// `(2, 10, 10)` two-slab build and the 16³ global build (35 937
    /// nodes). A measurement, printed for docs/PERFORMANCE.md ("Graph
    /// construction").
    #[test]
    #[ignore = "probe: cargo test --release -p cgnn-graph graph_build_us_per_node -- --ignored --nocapture"]
    fn graph_build_us_per_node() {
        let l = 2.0 * std::f64::consts::PI;
        for (dims, ranks) in [((4, 4, 4), 1), ((2, 10, 10), 2), ((16, 16, 16), 1)] {
            let mesh = BoxMesh::new(dims, 2, (l, l, l), false);
            let part = Partition::new(&mesh, ranks, Strategy::Slab);
            let build = || {
                if ranks > 1 {
                    build_distributed_graph(&mesh, &part)
                } else {
                    vec![build_global_graph(&mesh)]
                }
            };
            let nodes: usize = build().iter().map(LocalGraph::n_local).sum();
            let reps = (4_000_000 / nodes).clamp(5, 401);
            let mut us: Vec<f64> = (0..reps)
                .map(|_| {
                    let t = std::time::Instant::now();
                    std::hint::black_box(build());
                    t.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            us.sort_by(f64::total_cmp);
            let median = us[reps / 2];
            println!(
                "{dims:?} R = {ranks}: {nodes} nodes, {:.3} ms, {:.3} us/node ({reps} reps)",
                median * 1e-3,
                median / nodes as f64
            );
        }
    }
}
