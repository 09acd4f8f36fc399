//! Training-data generation: run the solver and capture its state as
//! gid-major snapshots the GNN can learn from — the "NekRS as data
//! generator" workflow the paper's Fig. 1 describes. Slicing a snapshot
//! into per-rank features is `cgnn-session`'s `Dataset`'s job.

use cgnn_mesh::{BoxMesh, TaylorGreen};

use crate::stepper::DiffusionSolver;

/// A stream of consecutive snapshot pairs captured from **one continuous
/// solver trajectory**: sample `k` is `(u(t_k), u(t_{k+1}))` with
/// `t_{k+1} - t_k = steps_per_pair * dt`. This is the multi-snapshot
/// training set a surrogate needs — the "NekRS as data generator" loop of
/// the paper's Fig. 1 run for many dumps instead of one.
///
/// Buffers are stored **gid-major** (`n_nodes * 3`, components interleaved
/// per node, indexed by global node id), the layout the session layer's
/// `Dataset` consumes directly; no solver internals leak out.
pub struct SnapshotStream {
    n_nodes: usize,
    pairs: Vec<(Vec<f64>, Vec<f64>)>,
}

impl SnapshotStream {
    /// Generate `n_pairs` consecutive training pairs by diffusing the
    /// Taylor-Green velocity field: initialize at `t = 0`, advance
    /// `steps_per_pair` RK4 steps of `dt` between captures, and pair each
    /// snapshot with its successor. The trajectory is continuous — pair
    /// `k`'s target is pair `k+1`'s input — so the stream samples one
    /// physical decay at `n_pairs + 1` distinct times.
    pub fn tgv_diffusion(
        mesh: &BoxMesh,
        nu: f64,
        dt: f64,
        steps_per_pair: usize,
        n_pairs: usize,
    ) -> Self {
        assert!(n_pairs > 0, "a stream needs at least one snapshot pair");
        let solver = DiffusionSolver::new(mesh, nu);
        let field = TaylorGreen::new(nu);
        let n_rows = solver.n_dofs();
        let n_nodes = mesh.num_global_nodes();
        let mut state: [Vec<f64>; 3] = [vec![0.0; n_rows], vec![0.0; n_rows], vec![0.0; n_rows]];
        for gid in 0..n_nodes as u64 {
            let v = field.velocity(mesh.node_pos(gid), 0.0);
            let row = solver.row_of(gid);
            for c in 0..3 {
                state[c][row] = v[c];
            }
        }
        let capture = |state: &[Vec<f64>; 3]| -> Vec<f64> {
            let mut out = Vec::with_capacity(n_nodes * 3);
            for gid in 0..n_nodes as u64 {
                let row = solver.row_of(gid);
                for comp in state {
                    out.push(comp[row]);
                }
            }
            out
        };
        let mut pairs = Vec::with_capacity(n_pairs);
        let mut input = capture(&state);
        for _ in 0..n_pairs {
            for comp in &mut state {
                *comp = solver.integrate(comp, dt, steps_per_pair);
            }
            let target = capture(&state);
            pairs.push((input, target.clone()));
            input = target;
        }
        SnapshotStream { n_nodes, pairs }
    }

    /// Wrap hand-built gid-major snapshot pairs (each buffer `n_nodes * 3`).
    ///
    /// # Panics
    /// If `pairs` is empty or any buffer has the wrong length.
    pub fn from_pairs(n_nodes: usize, pairs: Vec<(Vec<f64>, Vec<f64>)>) -> Self {
        assert!(!pairs.is_empty(), "a stream needs at least one pair");
        for (i, (x, y)) in pairs.iter().enumerate() {
            assert_eq!(x.len(), n_nodes * 3, "pair {i}: input buffer length");
            assert_eq!(y.len(), n_nodes * 3, "pair {i}: target buffer length");
        }
        SnapshotStream { n_nodes, pairs }
    }

    /// Number of `(input, target)` samples in the stream.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the stream holds no samples (constructors forbid this, so
    /// only reachable through `Default`-less manual surgery — provided for
    /// clippy's `len_without_is_empty` convention).
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Unique global nodes each snapshot covers.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Sample `i` as gid-major `(input, target)` buffer slices.
    pub fn pair(&self, i: usize) -> (&[f64], &[f64]) {
        let (x, y) = &self.pairs[i];
        (x, y)
    }

    /// Consume the stream into its raw gid-major pairs (what
    /// `cgnn-session`'s `Dataset::from_pairs` ingests).
    pub fn into_pairs(self) -> Vec<(Vec<f64>, Vec<f64>)> {
        self.pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_pairs_chain_one_continuous_trajectory() {
        let mesh = BoxMesh::tgv_cube(2, 2);
        let stream = SnapshotStream::tgv_diffusion(&mesh, 0.5, 1e-4, 20, 4);
        assert_eq!(stream.len(), 4);
        assert_eq!(stream.n_nodes(), mesh.num_global_nodes());
        let energy = |s: &[f64]| -> f64 { s.iter().map(|v| v * v).sum() };
        for k in 0..stream.len() {
            let (x, y) = stream.pair(k);
            assert_eq!(x.len(), mesh.num_global_nodes() * 3);
            assert!(energy(y) < energy(x), "diffusion must decay pair {k}");
            if k + 1 < stream.len() {
                assert_eq!(y, stream.pair(k + 1).0, "pairs must chain");
            }
        }
    }

    #[test]
    fn from_pairs_validates_buffer_lengths() {
        let ok = SnapshotStream::from_pairs(2, vec![(vec![0.0; 6], vec![1.0; 6])]);
        assert_eq!(ok.len(), 1);
        assert!(!ok.is_empty());
        let bad = std::panic::catch_unwind(|| {
            SnapshotStream::from_pairs(2, vec![(vec![0.0; 5], vec![1.0; 6])])
        });
        assert!(bad.is_err(), "short input buffer must be rejected");
    }
}
