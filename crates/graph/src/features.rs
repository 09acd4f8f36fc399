//! Node and edge attribute assembly (paper Sec. III: node features are the
//! three velocity components; edge features are relative node features,
//! distance vectors, and distance magnitudes — 7 in total).

use cgnn_mesh::{GidNoise, TaylorGreen};

use crate::local_graph::LocalGraph;

/// Input node feature dimensionality used by the paper (velocity).
pub const NODE_FEATS: usize = 3;
/// Input edge feature dimensionality used by the paper.
pub const EDGE_FEATS: usize = NODE_FEATS + 4;

/// Sample Taylor-Green velocities at time `t` onto the local nodes,
/// returning a row-major `[n_local, 3]` buffer. Positions are canonical per
/// gid, so coincident copies on other ranks get bit-identical rows.
pub fn node_velocity_features(g: &LocalGraph, field: &TaylorGreen, t: f64) -> Vec<f64> {
    let mut out = Vec::with_capacity(g.n_local() * NODE_FEATS);
    for &p in &g.pos {
        out.extend_from_slice(&field.velocity(p, t));
    }
    out
}

/// Deterministic per-gid noise features, `[n_local, dim]` row-major.
pub fn node_noise_features(g: &LocalGraph, noise: &GidNoise, dim: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(g.n_local() * dim);
    for &gid in &g.gids {
        out.extend(noise.sample_vec(gid, dim));
    }
    out
}

/// Assemble the 7-dimensional edge features from node features (`[n, fx]`
/// row-major with `fx = 3`) and the stored edge displacements:
/// `[x_j - x_i, dx, dy, dz, |d|]` per directed edge, row-major `[n_edges, 7]`.
///
/// # Panics
/// If `fx` is not 3 or `node_feats` is not `[n_local, fx]`.
pub fn edge_features(g: &LocalGraph, node_feats: &[f64], fx: usize) -> Vec<f64> {
    assert_eq!(fx, NODE_FEATS, "paper edge features assume 3 node features");
    assert_eq!(
        node_feats.len(),
        g.n_local() * fx,
        "node feature buffer size"
    );
    let mut out = Vec::with_capacity(g.n_edges() * EDGE_FEATS);
    for e in 0..g.n_edges() {
        let (i, j) = (g.edge_src[e], g.edge_dst[e]);
        let xi = &node_feats[i * fx..(i + 1) * fx];
        let xj = &node_feats[j * fx..(j + 1) * fx];
        for d in 0..fx {
            out.push(xj[d] - xi[d]);
        }
        let disp = g.edge_disp[e];
        out.extend_from_slice(&disp);
        out.push((disp[0] * disp[0] + disp[1] * disp[1] + disp[2] * disp[2]).sqrt());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build_global_graph;
    use cgnn_mesh::BoxMesh;

    #[test]
    fn velocity_features_have_expected_layout() {
        let mesh = BoxMesh::tgv_cube(3, 1);
        let g = build_global_graph(&mesh);
        let f = node_velocity_features(&g, &TaylorGreen::new(0.0), 0.0);
        assert_eq!(f.len(), g.n_local() * 3);
        // w component is identically zero for TGV.
        for i in 0..g.n_local() {
            assert_eq!(f[i * 3 + 2], 0.0);
        }
    }

    #[test]
    fn edge_features_antisymmetric_pairs() {
        let mesh = BoxMesh::unit_cube(2, 2);
        let g = build_global_graph(&mesh);
        let noise = GidNoise::new(5);
        let x = node_noise_features(&g, &noise, 3);
        let ef = edge_features(&g, &x, 3);
        assert_eq!(ef.len(), g.n_edges() * EDGE_FEATS);
        // Directed edges come in consecutive (forward, reverse) pairs; the
        // first 6 features flip sign, the magnitude is equal.
        for e in (0..g.n_edges()).step_by(2) {
            let fwd = &ef[e * EDGE_FEATS..(e + 1) * EDGE_FEATS];
            let rev = &ef[(e + 1) * EDGE_FEATS..(e + 2) * EDGE_FEATS];
            for d in 0..6 {
                assert!((fwd[d] + rev[d]).abs() < 1e-15);
            }
            assert_eq!(fwd[6], rev[6]);
        }
    }

    #[test]
    fn edge_magnitudes_are_positive_and_bounded_by_element_size() {
        let mesh = BoxMesh::unit_cube(4, 3);
        let g = build_global_graph(&mesh);
        let x = vec![0.0; g.n_local() * 3];
        let ef = edge_features(&g, &x, 3);
        let h = 0.25; // element size
        for e in 0..g.n_edges() {
            let m = ef[e * EDGE_FEATS + 6];
            assert!(m > 0.0 && m <= h + 1e-12, "edge {e} magnitude {m}");
        }
    }
}
