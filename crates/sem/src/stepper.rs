//! Explicit spectral-element diffusion stepper — the "NekRS as data
//! generator" role: it evolves nodal fields on the same meshes the GNN
//! trains on, using the same gather-scatter synchronization.
//!
//! Solves `du/dt = -nu * Laplacian(u)`... more precisely the method-of-lines
//! weak form `M du/dt = -nu K u` with diagonal (collocation) mass `M`,
//! per-element stiffness `K`, direct stiffness summation, and RK4 in time.
//! On the periodic box, Fourier modes decay at exactly `nu |k|^2`, giving a
//! sharp validation target.

use cgnn_mesh::BoxMesh;

use crate::gather_scatter::GatherScatter;
use crate::operators::ElementOps;

/// Serial (R=1) diffusion solver on a [`BoxMesh`].
pub struct DiffusionSolver {
    mesh_elems: usize,
    n3: usize,
    ops: ElementOps,
    gs: GatherScatter,
    /// Assembled diagonal mass, one entry per unique global node row.
    inv_mass: Vec<f64>,
    pub nu: f64,
}

impl DiffusionSolver {
    pub fn new(mesh: &BoxMesh, nu: f64) -> Self {
        let ops = ElementOps::new(mesh);
        let gs = GatherScatter::new(mesh);
        let n3 = mesh.nodes_per_element();
        let local_mass = ops.local_mass();
        let all_local: Vec<f64> = (0..mesh.num_elements())
            .flat_map(|_| local_mass.iter().copied())
            .collect();
        let mass = gs.assemble_diagonal(&all_local);
        let inv_mass = mass.iter().map(|&m| 1.0 / m).collect();
        DiffusionSolver {
            mesh_elems: mesh.num_elements(),
            n3,
            ops,
            gs,
            inv_mass,
            nu,
        }
    }

    /// Number of unique global nodes (state vector length).
    pub fn n_dofs(&self) -> usize {
        self.gs.n_global
    }

    /// Dense state row for a gid.
    pub fn row_of(&self, gid: u64) -> usize {
        self.gs.row_of(gid)
    }

    /// Right-hand side `f(u) = -nu * M^{-1} (Q^T K^e Q u)`.
    ///
    /// # Panics
    /// If `u` does not hold one value per mesh node.
    pub fn rhs(&self, u: &[f64]) -> Vec<f64> {
        assert_eq!(u.len(), self.gs.n_global);
        let local = self.gs.scatter(u);
        let mut k_local = vec![0.0; local.len()];
        let mut scratch = vec![0.0; self.n3];
        let mut out_e = vec![0.0; self.n3];
        for e in 0..self.mesh_elems {
            let u_e = &local[e * self.n3..(e + 1) * self.n3];
            self.ops.apply_stiffness(u_e, &mut out_e, &mut scratch);
            k_local[e * self.n3..(e + 1) * self.n3].copy_from_slice(&out_e);
        }
        let assembled = self.gs.gather_sum(&k_local);
        assembled
            .iter()
            .zip(&self.inv_mass)
            .map(|(&k, &im)| -self.nu * k * im)
            .collect()
    }

    /// One classical RK4 step of size `dt`, in place.
    pub fn rk4_step(&self, u: &mut [f64], dt: f64) {
        let k1 = self.rhs(u);
        let u2: Vec<f64> = u.iter().zip(&k1).map(|(&x, &k)| x + 0.5 * dt * k).collect();
        let k2 = self.rhs(&u2);
        let u3: Vec<f64> = u.iter().zip(&k2).map(|(&x, &k)| x + 0.5 * dt * k).collect();
        let k3 = self.rhs(&u3);
        let u4: Vec<f64> = u.iter().zip(&k3).map(|(&x, &k)| x + dt * k).collect();
        let k4 = self.rhs(&u4);
        for i in 0..u.len() {
            u[i] += dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        }
    }

    /// Integrate from `t=0` over `steps` RK4 steps of size `dt`.
    pub fn integrate(&self, u0: &[f64], dt: f64, steps: usize) -> Vec<f64> {
        let mut u = u0.to_vec();
        for _ in 0..steps {
            self.rk4_step(&mut u, dt);
        }
        u
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgnn_mesh::SineProduct;

    /// On the periodic box, u0 = sin(x) sin(y) sin(z) decays at e^{-3 nu t}.
    #[test]
    fn sine_mode_decays_at_analytic_rate() {
        let tau = 2.0 * std::f64::consts::PI;
        let mesh = BoxMesh::new((3, 3, 3), 4, (tau, tau, tau), true);
        let nu = 0.5;
        let solver = DiffusionSolver::new(&mesh, nu);
        let mode = SineProduct { k: [1.0, 1.0, 1.0] };

        // Initial condition sampled at the unique global nodes.
        let mut u0 = vec![0.0; solver.n_dofs()];
        for gid in 0..mesh.num_global_nodes() as u64 {
            u0[solver.row_of(gid)] = mode.eval(mesh.node_pos(gid));
        }
        let dt = 1e-3;
        let steps = 100;
        let t = dt * steps as f64;
        let u = solver.integrate(&u0, dt, steps);

        let decay = (-mode.decay_rate(nu) * t).exp();
        let mut max_err = 0.0f64;
        for gid in 0..mesh.num_global_nodes() as u64 {
            let exact = mode.eval(mesh.node_pos(gid)) * decay;
            let got = u[solver.row_of(gid)];
            max_err = max_err.max((got - exact).abs());
        }
        assert!(max_err < 2e-3, "max error {max_err} (decay {decay})");
    }

    #[test]
    fn constant_field_is_steady_state() {
        let mesh = BoxMesh::new((2, 2, 2), 3, (1.0, 1.0, 1.0), true);
        let solver = DiffusionSolver::new(&mesh, 1.0);
        let u0 = vec![3.5; solver.n_dofs()];
        let u = solver.integrate(&u0, 1e-5, 50);
        for &v in &u {
            assert!((v - 3.5).abs() < 1e-10);
        }
    }

    #[test]
    fn diffusion_monotonically_dissipates_energy() {
        let tau = 2.0 * std::f64::consts::PI;
        let mesh = BoxMesh::new((3, 3, 3), 3, (tau, tau, tau), true);
        let solver = DiffusionSolver::new(&mesh, 0.2);
        let mut u: Vec<f64> = (0..solver.n_dofs())
            .map(|i| ((i * 7919) % 13) as f64 - 6.0)
            .collect();
        // Remove the mean so the invariant state is zero.
        let mean = u.iter().sum::<f64>() / u.len() as f64;
        for v in &mut u {
            *v -= mean;
        }
        let mut prev = f64::INFINITY;
        for _ in 0..5 {
            solver.rk4_step(&mut u, 1e-5);
            let energy: f64 = u.iter().map(|v| v * v).sum();
            assert!(
                energy <= prev * (1.0 + 1e-12),
                "energy grew: {energy} > {prev}"
            );
            prev = energy;
        }
    }
}
