//! Gauss-Legendre-Lobatto (GLL) quadrature: nodes, weights, and the
//! Lagrange differentiation matrix on the reference interval `[-1, 1]`.
//!
//! NekRS discretizes each spectral element with a `(p+1)^3` GLL lattice;
//! graph nodes in the paper coincide with these quadrature points (paper
//! Fig. 2). The differentiation matrix drives the `cgnn-sem` mini-solver.

/// GLL rule of polynomial order `p` (`p + 1` points).
#[derive(Debug, Clone)]
pub struct GllRule {
    /// Quadrature nodes in `[-1, 1]`, ascending; endpoints are exactly ±1.
    pub nodes: Vec<f64>,
    /// Quadrature weights; sum to 2.
    pub weights: Vec<f64>,
}

impl GllRule {
    /// Construct the GLL rule for polynomial order `p >= 1`.
    ///
    /// Interior nodes are the roots of `P'_p` (derivative of the Legendre
    /// polynomial), found by Newton iteration from Chebyshev-Gauss-Lobatto
    /// initial guesses; weights are `2 / (p (p+1) P_p(x)^2)`.
    ///
    /// # Panics
    /// If `p` is zero.
    pub fn new(p: usize) -> Self {
        assert!(p >= 1, "GLL rule requires polynomial order >= 1");
        let n = p + 1;
        let mut nodes = vec![0.0; n];
        let mut weights = vec![0.0; n];
        nodes[0] = -1.0;
        nodes[p] = 1.0;
        // Chebyshev-Gauss-Lobatto initial guesses, then Newton on
        // (1 - x^2) P'_p(x) = 0 <=> P'_p(x) = 0 for interior points.
        for i in 1..p {
            let mut x = -(std::f64::consts::PI * i as f64 / p as f64).cos();
            for _ in 0..100 {
                let (pp, dp, d2p) = legendre_with_derivs(p, x);
                let _ = pp;
                let step = dp / d2p;
                x -= step;
                if step.abs() < 1e-15 {
                    break;
                }
            }
            nodes[i] = x;
        }
        nodes.sort_by(f64::total_cmp);
        // Enforce exact antisymmetry (x_i = -x_{p-i}). Newton converges to
        // ~1 ulp but not necessarily bitwise-symmetric roots; downstream
        // rank-invariance arguments (edge displacements computed in
        // different elements) rely on exact lattice symmetry.
        for i in 0..n / 2 {
            let s = 0.5 * (nodes[i] - nodes[n - 1 - i]);
            nodes[i] = s;
            nodes[n - 1 - i] = -s;
        }
        if n % 2 == 1 {
            nodes[n / 2] = 0.0;
        }
        let c = 2.0 / (p as f64 * (p + 1) as f64);
        for i in 0..n {
            let (pp, _, _) = legendre_with_derivs(p, nodes[i]);
            weights[i] = c / (pp * pp);
        }
        GllRule { nodes, weights }
    }

    /// Number of points, `p + 1`.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        false
    }

    /// Polynomial order `p`.
    pub fn order(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Dense Lagrange differentiation matrix `D` with
    /// `D[i][j] = l'_j(x_i)` (row-major `(p+1) x (p+1)`), such that for
    /// nodal values `u`, `(D u)_i` approximates `u'(x_i)`.
    pub fn diff_matrix(&self) -> Vec<f64> {
        let n = self.len();
        let x = &self.nodes;
        // Barycentric weights.
        let mut w = vec![1.0; n];
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    w[i] *= x[i] - x[j];
                }
            }
            w[i] = 1.0 / w[i];
        }
        let mut d = vec![0.0; n * n];
        for i in 0..n {
            let mut diag = 0.0;
            for j in 0..n {
                if i != j {
                    let v = (w[j] / w[i]) / (x[i] - x[j]);
                    d[i * n + j] = v;
                    diag -= v;
                }
            }
            d[i * n + i] = diag;
        }
        d
    }
}

/// Evaluate `P_p(x)`, `P'_p(x)`, `P''_p(x)` via the three-term recurrence
/// and the standard derivative identities.
fn legendre_with_derivs(p: usize, x: f64) -> (f64, f64, f64) {
    let mut p0 = 1.0;
    let mut p1 = x;
    if p == 0 {
        return (1.0, 0.0, 0.0);
    }
    for k in 2..=p {
        let kf = k as f64;
        let p2 = ((2.0 * kf - 1.0) * x * p1 - (kf - 1.0) * p0) / kf;
        p0 = p1;
        p1 = p2;
    }
    // p1 = P_p, p0 = P_{p-1}
    let pf = p as f64;
    let denom = 1.0 - x * x;
    let (dp, d2p);
    if denom.abs() > 1e-14 {
        dp = pf * (p0 - x * p1) / denom;
        d2p = (2.0 * x * dp - pf * (pf + 1.0) * p1) / denom;
    } else {
        // Endpoint values (only used defensively; Newton never lands here).
        let sign: f64 = if x > 0.0 { 1.0 } else { -1.0 };
        dp = sign.powi(p as i32 + 1) * pf * (pf + 1.0) / 2.0;
        d2p = 0.0;
    }
    (p1, dp, d2p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p1_is_trapezoid() {
        let r = GllRule::new(1);
        assert_eq!(r.nodes, vec![-1.0, 1.0]);
        assert!((r.weights[0] - 1.0).abs() < 1e-15);
        assert!((r.weights[1] - 1.0).abs() < 1e-15);
    }

    #[test]
    fn p2_known_values() {
        let r = GllRule::new(2);
        assert!((r.nodes[1]).abs() < 1e-14);
        assert!((r.weights[0] - 1.0 / 3.0).abs() < 1e-14);
        assert!((r.weights[1] - 4.0 / 3.0).abs() < 1e-14);
    }

    #[test]
    fn p5_known_values() {
        // Interior nodes of GLL(5): ±sqrt((7 ± 2 sqrt(7)) / 21).
        let r = GllRule::new(5);
        let a = ((7.0 - 2.0 * 7.0f64.sqrt()) / 21.0).sqrt();
        let b = ((7.0 + 2.0 * 7.0f64.sqrt()) / 21.0).sqrt();
        assert!((r.nodes[2] + a).abs() < 1e-12, "{} vs {}", r.nodes[2], -a);
        assert!((r.nodes[1] + b).abs() < 1e-12);
        assert!((r.nodes[3] - a).abs() < 1e-12);
        assert!((r.nodes[4] - b).abs() < 1e-12);
    }

    #[test]
    fn weights_sum_to_two() {
        for p in 1..=12 {
            let r = GllRule::new(p);
            let s: f64 = r.weights.iter().sum();
            assert!((s - 2.0).abs() < 1e-12, "p={p} sum={s}");
        }
    }

    #[test]
    fn quadrature_exact_for_polynomials() {
        // GLL(p) integrates polynomials up to degree 2p-1 exactly.
        for p in 2..=8 {
            let r = GllRule::new(p);
            let deg = 2 * p - 1;
            // integral of x^deg over [-1,1] = 0 (odd), x^(deg-1): 2/deg.
            let int_odd: f64 = r
                .nodes
                .iter()
                .zip(&r.weights)
                .map(|(&x, &w)| w * x.powi(deg as i32))
                .sum();
            assert!(int_odd.abs() < 1e-12, "p={p}");
            let d = (deg - 1) as i32;
            let int_even: f64 = r
                .nodes
                .iter()
                .zip(&r.weights)
                .map(|(&x, &w)| w * x.powi(d))
                .sum();
            assert!((int_even - 2.0 / (d as f64 + 1.0)).abs() < 1e-12, "p={p}");
        }
    }

    #[test]
    fn diff_matrix_differentiates_polynomials_exactly() {
        for p in 1..=7 {
            let r = GllRule::new(p);
            let d = r.diff_matrix();
            let n = r.len();
            // f(x) = x^p has derivative p x^(p-1); exact for degree <= p.
            let f: Vec<f64> = r.nodes.iter().map(|&x| x.powi(p as i32)).collect();
            for i in 0..n {
                let mut df = 0.0;
                for j in 0..n {
                    df += d[i * n + j] * f[j];
                }
                let exact = p as f64 * r.nodes[i].powi(p as i32 - 1);
                assert!((df - exact).abs() < 1e-9, "p={p} i={i}: {df} vs {exact}");
            }
        }
    }

    #[test]
    fn diff_matrix_annihilates_constants() {
        let r = GllRule::new(6);
        let d = r.diff_matrix();
        let n = r.len();
        for i in 0..n {
            let row_sum: f64 = (0..n).map(|j| d[i * n + j]).sum();
            assert!(row_sum.abs() < 1e-12);
        }
    }
}
