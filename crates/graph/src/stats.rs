//! Per-rank sub-graph statistics (paper Table II) — exact counts from built
//! graphs, plus a closed-form path for structured block partitions that
//! scales to Frontier-size meshes (1e9+ nodes) without materializing them.

use cgnn_mesh::BoxMesh;
use cgnn_partition::layout::{uniform_ranges, Layout};

use crate::local_graph::LocalGraph;

/// Statistics of one rank's reduced sub-graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankGraphStats {
    /// Local (owned, collapsed) node count.
    pub local_nodes: usize,
    /// Total halo rows (sum over neighbours of shared node counts).
    pub halo_nodes: usize,
    /// Number of neighbouring ranks.
    pub neighbors: usize,
    /// Directed local edge count.
    pub directed_edges: usize,
}

/// min / max / mean summary over ranks, as reported in the paper's Table II.
#[derive(Debug, Clone, Copy)]
pub struct StatsSummary {
    pub local_nodes: (usize, usize, f64),
    pub halo_nodes: (usize, usize, f64),
    pub neighbors: (usize, usize, f64),
    pub directed_edges: (usize, usize, f64),
}

/// Exact statistics of a built [`LocalGraph`].
pub fn exact_stats(g: &LocalGraph) -> RankGraphStats {
    RankGraphStats {
        local_nodes: g.n_local(),
        halo_nodes: g.n_halo(),
        neighbors: g.halo.neighbors.len(),
        directed_edges: g.n_edges(),
    }
}

/// Summarize per-rank stats into (min, max, avg) triples.
///
/// # Panics
/// If `stats` is empty.
pub fn summarize(stats: &[RankGraphStats]) -> StatsSummary {
    assert!(!stats.is_empty());
    let reduce = |f: fn(&RankGraphStats) -> usize| {
        let min = stats.iter().map(f).min().unwrap_or_default();
        let max = stats.iter().map(f).max().unwrap_or_default();
        let avg = stats.iter().map(f).sum::<usize>() as f64 / stats.len() as f64;
        (min, max, avg)
    };
    StatsSummary {
        local_nodes: reduce(|s| s.local_nodes),
        halo_nodes: reduce(|s| s.halo_nodes),
        neighbors: reduce(|s| s.neighbors),
        directed_edges: reduce(|s| s.directed_edges),
    }
}

/// Full per-rank communication profile: stats plus per-neighbour shared
/// node counts (the halo exchange buffer sizes).
#[derive(Debug, Clone)]
pub struct RankProfile {
    pub stats: RankGraphStats,
    /// `(neighbour rank, shared node count)`, one entry per neighbour.
    pub shared_per_neighbor: Vec<(usize, usize)>,
}

/// Closed-form per-rank statistics for a structured block partition of a
/// [`BoxMesh`]. Exact — validated against [`exact_stats`] of built graphs in
/// tests — but O(R * 27) instead of O(total nodes), so it handles the
/// paper's 2048-rank / 1.1e9-node configurations instantly.
pub fn analytic_block_stats(mesh: &BoxMesh, layout: &Layout) -> Vec<RankGraphStats> {
    analytic_block_profiles(mesh, layout)
        .into_iter()
        .map(|p| p.stats)
        .collect()
}

/// Closed-form per-rank [`RankProfile`]s (stats + per-neighbour buffer
/// sizes) for a structured block partition.
pub fn analytic_block_profiles(mesh: &BoxMesh, layout: &Layout) -> Vec<RankProfile> {
    let (ex, ey, ez) = mesh.elem_counts();
    let p = mesh.order();
    let periodic = mesh.is_periodic();
    let ranges = [
        uniform_ranges(ex, layout.rx),
        uniform_ranges(ey, layout.ry),
        uniform_ranges(ez, layout.rz),
    ];
    let dims = [ex, ey, ez];
    let rr = [layout.rx, layout.ry, layout.rz];

    (0..layout.num_ranks())
        .map(|rank| {
            let cell = layout.cell_of_rank(rank);
            let cells = [cell.0, cell.1, cell.2];

            // Per-axis node counts and segment counts of this rank's block.
            let mut counts = [0usize; 3];
            let mut segs = [0usize; 3];
            for a in 0..3 {
                let b = ranges[a][cells[a] + 1] - ranges[a][cells[a]];
                if rr[a] == 1 && periodic {
                    counts[a] = p * dims[a]; // full wrapped ring
                    segs[a] = p * dims[a];
                } else {
                    counts[a] = p * b + 1;
                    segs[a] = p * b;
                }
            }
            let local_nodes = counts[0] * counts[1] * counts[2];
            let directed_edges = 2
                * (segs[0] * counts[1] * counts[2]
                    + counts[0] * segs[1] * counts[2]
                    + counts[0] * counts[1] * segs[2]);

            // Enumerate distinct neighbour ranks among the 26 cell offsets.
            let mut neighbor_ranks: Vec<usize> = Vec::new();
            for dz in -1i64..=1 {
                for dy in -1i64..=1 {
                    for dx in -1i64..=1 {
                        if dx == 0 && dy == 0 && dz == 0 {
                            continue;
                        }
                        let Some(ncell) = offset_cell(cells, [dx, dy, dz], rr, periodic) else {
                            continue;
                        };
                        let nr = layout.rank_of_cell((ncell[0], ncell[1], ncell[2]));
                        if nr != rank && !neighbor_ranks.contains(&nr) {
                            neighbor_ranks.push(nr);
                        }
                    }
                }
            }

            // Halo rows = sum over neighbours of shared lattice-node counts.
            let mut halo_nodes = 0usize;
            let mut shared_per_neighbor = Vec::with_capacity(neighbor_ranks.len());
            for &nr in &neighbor_ranks {
                let ncell = layout.cell_of_rank(nr);
                let ncells = [ncell.0, ncell.1, ncell.2];
                let mut shared = 1usize;
                for a in 0..3 {
                    shared *=
                        axis_overlap(p, dims[a], rr[a], periodic, &ranges[a], cells[a], ncells[a]);
                }
                halo_nodes += shared;
                shared_per_neighbor.push((nr, shared));
            }

            RankProfile {
                stats: RankGraphStats {
                    local_nodes,
                    halo_nodes,
                    neighbors: neighbor_ranks.len(),
                    directed_edges,
                },
                shared_per_neighbor,
            }
        })
        .collect()
}

/// Neighbour cell at `cells + d`, wrapping per axis when periodic; `None`
/// when it falls off a non-periodic boundary.
fn offset_cell(
    cells: [usize; 3],
    d: [i64; 3],
    rr: [usize; 3],
    periodic: bool,
) -> Option<[usize; 3]> {
    let mut out = [0usize; 3];
    for a in 0..3 {
        let c = cells[a] as i64 + d[a];
        let r = rr[a] as i64;
        out[a] = if c < 0 || c >= r {
            if periodic {
                (c.rem_euclid(r)) as usize
            } else {
                return None;
            }
        } else {
            c as usize
        };
    }
    Some(out)
}

/// Number of lattice coordinates shared along one axis between the blocks
/// of cells `ca` and `cb` (closed lattice intervals, ring intersection when
/// periodic).
fn axis_overlap(
    p: usize,
    n_elems: usize,
    r_axis: usize,
    periodic: bool,
    starts: &[usize],
    ca: usize,
    cb: usize,
) -> usize {
    if r_axis == 1 {
        // Both blocks own the full axis.
        debug_assert_eq!(ca, cb);
        return if periodic {
            p * n_elems
        } else {
            p * n_elems + 1
        };
    }
    let a = ((p * starts[ca]) as i64, (p * starts[ca + 1]) as i64);
    let b = ((p * starts[cb]) as i64, (p * starts[cb + 1]) as i64);
    let closed = |x: (i64, i64), y: (i64, i64)| -> i64 { (x.1.min(y.1) - x.0.max(y.0) + 1).max(0) };
    let mut total = closed(a, b);
    if periodic {
        let n = (p * n_elems) as i64;
        total += closed(a, (b.0 + n, b.1 + n));
        total += closed(a, (b.0 - n, b.1 - n));
    }
    total as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_distributed_graph;
    use cgnn_partition::Partition;

    fn check_analytic_matches_exact(mesh: &BoxMesh, layout: Layout) {
        let part = Partition::structured(mesh, layout);
        let graphs = build_distributed_graph(mesh, &part);
        let exact: Vec<RankGraphStats> = graphs.iter().map(exact_stats).collect();
        let analytic = analytic_block_stats(mesh, &layout);
        assert_eq!(exact.len(), analytic.len());
        for (r, (e, a)) in exact.iter().zip(&analytic).enumerate() {
            assert_eq!(
                e,
                a,
                "rank {r} of layout {layout:?} (periodic={})",
                mesh.is_periodic()
            );
        }
    }

    #[test]
    fn analytic_matches_exact_non_periodic() {
        for p in [1usize, 2, 5] {
            let mesh = BoxMesh::new((4, 4, 4), p, (1.0, 1.0, 1.0), false);
            for layout in [
                Layout::new(1, 1, 1),
                Layout::new(2, 1, 1),
                Layout::new(4, 1, 1),
                Layout::new(2, 2, 1),
                Layout::new(2, 2, 2),
                Layout::new(4, 2, 2),
                Layout::new(1, 3, 1),
            ] {
                check_analytic_matches_exact(&mesh, layout);
            }
        }
    }

    #[test]
    fn analytic_matches_exact_periodic() {
        for p in [1usize, 3] {
            let mesh = BoxMesh::new((4, 4, 4), p, (1.0, 1.0, 1.0), true);
            for layout in [
                Layout::new(1, 1, 1),
                Layout::new(2, 1, 1),
                Layout::new(4, 1, 1),
                Layout::new(2, 2, 2),
                Layout::new(4, 4, 1),
                Layout::new(1, 2, 4),
            ] {
                check_analytic_matches_exact(&mesh, layout);
            }
        }
    }

    #[test]
    fn analytic_matches_exact_uneven_blocks() {
        let mesh = BoxMesh::new((5, 3, 4), 2, (1.0, 1.0, 1.0), false);
        for layout in [
            Layout::new(3, 1, 1),
            Layout::new(2, 3, 2),
            Layout::new(5, 3, 1),
        ] {
            check_analytic_matches_exact(&mesh, layout);
        }
    }

    #[test]
    fn frontier_scale_stats_are_instant_and_plausible() {
        // Paper Table II: p = 5, nominally 512k local nodes per rank at
        // R = 2048 -> 16^3 elements per rank.
        let mesh = BoxMesh::new((16 * 16, 16 * 16, 16 * 8), 5, (1.0, 1.0, 1.0), true);
        let layout = Layout::new(16, 16, 8);
        let stats = analytic_block_stats(&mesh, &layout);
        assert_eq!(stats.len(), 2048);
        let s = summarize(&stats);
        // ~531k local nodes per rank ((5*16+1)^3), bounded halos/neighbors.
        assert!(
            s.local_nodes.0 >= 500_000 && s.local_nodes.1 <= 550_000,
            "{s:?}"
        );
        assert!(s.neighbors.1 <= 26);
        assert!(s.halo_nodes.1 < s.local_nodes.0 / 2);
        // Total graph size ~1.1e9 nodes (before accounting for shared
        // copies; unique count is lattice product).
        let unique = mesh.num_global_nodes();
        assert!(unique > 1_000_000_000, "unique nodes {unique}");
    }

    #[test]
    fn summarize_computes_min_max_avg() {
        let stats = vec![
            RankGraphStats {
                local_nodes: 10,
                halo_nodes: 1,
                neighbors: 2,
                directed_edges: 30,
            },
            RankGraphStats {
                local_nodes: 20,
                halo_nodes: 3,
                neighbors: 4,
                directed_edges: 50,
            },
        ];
        let s = summarize(&stats);
        assert_eq!(s.local_nodes, (10, 20, 15.0));
        assert_eq!(s.neighbors, (2, 4, 3.0));
    }
}
