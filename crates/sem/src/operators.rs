//! Per-element spectral operators on the GLL lattice.
//!
//! Box elements are affine images of the reference cube `[-1,1]^3`, so the
//! Jacobian is constant per element and the stiffness/mass actions reduce to
//! tensor-product applications of the 1-D differentiation matrix — the same
//! sum-factorization structure NekRS's kernels exploit.

use cgnn_mesh::BoxMesh;

/// Precomputed per-element operator data for a (uniform) box mesh.
#[derive(Debug, Clone)]
pub struct ElementOps {
    /// Points per direction, `p + 1`.
    pub n: usize,
    /// 1-D differentiation matrix, row-major `n x n`.
    pub d: Vec<f64>,
    /// 1-D GLL weights.
    pub w: Vec<f64>,
    /// Physical element extents `(hx, hy, hz)`.
    pub h: (f64, f64, f64),
}

impl ElementOps {
    pub fn new(mesh: &BoxMesh) -> Self {
        let gll = mesh.gll();
        let (ex, ey, ez) = mesh.elem_counts();
        let (lx, ly, lz) = mesh.lengths();
        ElementOps {
            n: gll.len(),
            d: gll.diff_matrix(),
            w: gll.weights.clone(),
            h: (lx / ex as f64, ly / ey as f64, lz / ez as f64),
        }
    }

    #[inline]
    fn idx(&self, a: usize, b: usize, c: usize) -> usize {
        a + self.n * (b + self.n * c)
    }

    /// Apply the reference-space derivative along axis `axis` to the local
    /// field `u` (`n^3` values), writing into `out`.
    ///
    /// # Panics
    ///
    /// If `axis >= 3`. Callers iterate the fixed `0..3` axes; a typed
    /// error would force fallible signatures through every kernel.
    pub fn apply_d(&self, axis: usize, u: &[f64], out: &mut [f64]) {
        let n = self.n;
        debug_assert_eq!(u.len(), n * n * n);
        debug_assert_eq!(out.len(), n * n * n);
        out.fill(0.0);
        match axis {
            0 => {
                for c in 0..n {
                    for b in 0..n {
                        for a in 0..n {
                            let mut acc = 0.0;
                            for ap in 0..n {
                                acc += self.d[a * n + ap] * u[self.idx(ap, b, c)];
                            }
                            out[self.idx(a, b, c)] = acc;
                        }
                    }
                }
            }
            1 => {
                for c in 0..n {
                    for b in 0..n {
                        for a in 0..n {
                            let mut acc = 0.0;
                            for bp in 0..n {
                                acc += self.d[b * n + bp] * u[self.idx(a, bp, c)];
                            }
                            out[self.idx(a, b, c)] = acc;
                        }
                    }
                }
            }
            2 => {
                for c in 0..n {
                    for b in 0..n {
                        for a in 0..n {
                            let mut acc = 0.0;
                            for cp in 0..n {
                                acc += self.d[c * n + cp] * u[self.idx(a, b, cp)];
                            }
                            out[self.idx(a, b, c)] = acc;
                        }
                    }
                }
            }
            #[expect(
                clippy::panic,
                reason = "axis comes from internal 0..3 loops; a typed error would force fallible signatures through every kernel"
            )]
            _ => panic!("axis must be 0..3"),
        }
    }

    /// Apply the transpose derivative along `axis` and *accumulate* into
    /// `out` (the `D^T W` half of the weak Laplacian).
    ///
    /// # Panics
    ///
    /// If `axis >= 3`. Callers iterate the fixed `0..3` axes; a typed
    /// error would force fallible signatures through every kernel.
    pub fn apply_dt_accumulate(&self, axis: usize, u: &[f64], out: &mut [f64]) {
        let n = self.n;
        match axis {
            0 => {
                for c in 0..n {
                    for b in 0..n {
                        for a in 0..n {
                            let mut acc = 0.0;
                            for ap in 0..n {
                                acc += self.d[ap * n + a] * u[self.idx(ap, b, c)];
                            }
                            out[self.idx(a, b, c)] += acc;
                        }
                    }
                }
            }
            1 => {
                for c in 0..n {
                    for b in 0..n {
                        for a in 0..n {
                            let mut acc = 0.0;
                            for bp in 0..n {
                                acc += self.d[bp * n + b] * u[self.idx(a, bp, c)];
                            }
                            out[self.idx(a, b, c)] += acc;
                        }
                    }
                }
            }
            2 => {
                for c in 0..n {
                    for b in 0..n {
                        for a in 0..n {
                            let mut acc = 0.0;
                            for cp in 0..n {
                                acc += self.d[cp * n + c] * u[self.idx(a, b, cp)];
                            }
                            out[self.idx(a, b, c)] += acc;
                        }
                    }
                }
            }
            #[expect(
                clippy::panic,
                reason = "axis comes from internal 0..3 loops; a typed error would force fallible signatures through every kernel"
            )]
            _ => panic!("axis must be 0..3"),
        }
    }

    /// Element Jacobian determinant (constant for affine boxes).
    pub fn jacobian(&self) -> f64 {
        (self.h.0 * 0.5) * (self.h.1 * 0.5) * (self.h.2 * 0.5)
    }

    /// Diagonal (collocation) mass values `w_a w_b w_c * J` for each local
    /// node.
    pub fn local_mass(&self) -> Vec<f64> {
        let n = self.n;
        let j = self.jacobian();
        let mut m = Vec::with_capacity(n * n * n);
        for c in 0..n {
            for b in 0..n {
                for a in 0..n {
                    m.push(self.w[a] * self.w[b] * self.w[c] * j);
                }
            }
        }
        m
    }

    /// Local weak-Laplacian (stiffness) action: `out = K^e u` with
    /// `K^e = sum_axis D_a^T W G_a D_a`, `G_a = (2/h_a)^2`.
    pub fn apply_stiffness(&self, u: &[f64], out: &mut [f64], scratch: &mut [f64]) {
        let n3 = self.n * self.n * self.n;
        debug_assert_eq!(u.len(), n3);
        out.fill(0.0);
        let j = self.jacobian();
        let g = [
            (2.0 / self.h.0) * (2.0 / self.h.0),
            (2.0 / self.h.1) * (2.0 / self.h.1),
            (2.0 / self.h.2) * (2.0 / self.h.2),
        ];
        let n = self.n;
        let mut weighted = vec![0.0; n3];
        for axis in 0..3 {
            self.apply_d(axis, u, scratch);
            // Multiply by quadrature weights, Jacobian, and metric factor.
            let mut k = 0;
            for c in 0..n {
                for b in 0..n {
                    for a in 0..n {
                        weighted[k] = scratch[k] * self.w[a] * self.w[b] * self.w[c] * j * g[axis];
                        k += 1;
                    }
                }
            }
            self.apply_dt_accumulate(axis, &weighted, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivative_of_linear_field_is_constant() {
        let mesh = BoxMesh::new((2, 2, 2), 4, (2.0, 2.0, 2.0), false);
        let ops = ElementOps::new(&mesh);
        let n = ops.n;
        // u = xi (reference coordinate along axis 0).
        let gll = mesh.gll().nodes.clone();
        let mut u = vec![0.0; n * n * n];
        for c in 0..n {
            for b in 0..n {
                for a in 0..n {
                    u[a + n * (b + n * c)] = gll[a];
                }
            }
        }
        let mut out = vec![0.0; n * n * n];
        ops.apply_d(0, &u, &mut out);
        for &v in &out {
            assert!((v - 1.0).abs() < 1e-10, "{v}");
        }
        ops.apply_d(1, &u, &mut out);
        for &v in &out {
            assert!(v.abs() < 1e-10);
        }
    }

    #[test]
    fn stiffness_annihilates_constants() {
        let mesh = BoxMesh::new((2, 2, 2), 3, (1.0, 1.0, 1.0), false);
        let ops = ElementOps::new(&mesh);
        let n3 = ops.n * ops.n * ops.n;
        let u = vec![5.0; n3];
        let mut out = vec![0.0; n3];
        let mut scratch = vec![0.0; n3];
        ops.apply_stiffness(&u, &mut out, &mut scratch);
        for &v in &out {
            assert!(v.abs() < 1e-10);
        }
    }

    #[test]
    fn stiffness_is_symmetric_positive_semidefinite() {
        let mesh = BoxMesh::new((2, 2, 2), 2, (1.0, 1.0, 1.0), false);
        let ops = ElementOps::new(&mesh);
        let n3 = ops.n * ops.n * ops.n;
        let mut scratch = vec![0.0; n3];
        // <K u, v> == <u, K v> and <K u, u> >= 0 for a few random-ish vectors.
        let u: Vec<f64> = (0..n3)
            .map(|i| ((i * 37 % 17) as f64 - 8.0) / 8.0)
            .collect();
        let v: Vec<f64> = (0..n3)
            .map(|i| ((i * 53 % 23) as f64 - 11.0) / 11.0)
            .collect();
        let mut ku = vec![0.0; n3];
        let mut kv = vec![0.0; n3];
        ops.apply_stiffness(&u, &mut ku, &mut scratch);
        ops.apply_stiffness(&v, &mut kv, &mut scratch);
        let dot = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>();
        assert!((dot(&ku, &v) - dot(&u, &kv)).abs() < 1e-10);
        assert!(dot(&ku, &u) >= -1e-12);
    }

    #[test]
    fn mass_integrates_unity_to_element_volume() {
        let mesh = BoxMesh::new((4, 2, 2), 5, (2.0, 1.0, 1.0), false);
        let ops = ElementOps::new(&mesh);
        let vol: f64 = ops.local_mass().iter().sum();
        assert!((vol - 0.5 * 0.5 * 0.5).abs() < 1e-12, "{vol}");
    }
}
