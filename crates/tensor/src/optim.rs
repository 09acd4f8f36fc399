//! The Adam optimizer, operating on a [`ParamSet`].
//!
//! Because the consistent formulation makes gradients identical on every
//! rank (paper Eq. 3), running the same deterministic Adam step on each
//! rank keeps parameters bit-identical without a broadcast.

use crate::nn::ParamSet;
use crate::tensor::Tensor;

/// The mutable state of an [`Adam`] optimizer: step counter and first/second
/// moment estimates. Snapshot with [`Adam::state`], reinstall with
/// [`Adam::set_state`] — together with the parameters this is everything a
/// training run needs to resume *bit-for-bit* (see `cgnn-tensor::serialize`
/// checkpointing).
#[derive(Debug, Clone, Default)]
pub struct AdamState {
    /// Number of steps taken (drives bias correction).
    pub t: u64,
    /// First-moment estimates, one per parameter tensor.
    pub m: Vec<Tensor>,
    /// Second-moment estimates, one per parameter tensor.
    pub v: Vec<Tensor>,
}

impl AdamState {
    /// Check that this state can drive an optimizer over `params`: either
    /// fresh (no moments yet) or exactly one moment pair per parameter
    /// tensor, each with the parameter's shape. A state that fails this
    /// would panic (count mismatch) or silently truncate updates (shape
    /// mismatch) inside [`Adam::step`]; callers restoring untrusted
    /// checkpoints validate here first.
    pub fn validate_for(&self, params: &ParamSet) -> Result<(), String> {
        if self.m.len() != self.v.len() {
            return Err(format!(
                "adam state has {} first moments but {} second moments",
                self.m.len(),
                self.v.len()
            ));
        }
        if self.m.is_empty() {
            return Ok(());
        }
        if self.m.len() != params.len() {
            return Err(format!(
                "adam state has {} moment pairs for {} parameters",
                self.m.len(),
                params.len()
            ));
        }
        for (i, t) in params.tensors().iter().enumerate() {
            for (kind, moment) in [("m", &self.m[i]), ("v", &self.v[i])] {
                if moment.shape() != t.shape() {
                    return Err(format!(
                        "adam {kind}[{i}] shape {:?} does not match parameter shape {:?}",
                        moment.shape(),
                        t.shape()
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Adam (Kingma & Ba) with bias correction — the optimizer used for the
/// paper's training consistency demonstration (Fig. 6 right).
pub struct Adam {
    pub lr: f64,
    pub beta1: f64,
    pub beta2: f64,
    pub eps: f64,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    pub fn new(lr: f64) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Number of optimizer steps taken so far (restored along with the
    /// moments by [`Adam::set_state`]). Cheap — no state is cloned.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Snapshot the optimizer state (step count + moment estimates). Before
    /// the first step the moments are empty, which round-trips correctly:
    /// they are lazily initialized on the next step.
    pub fn state(&self) -> AdamState {
        AdamState {
            t: self.t,
            m: self.m.clone(),
            v: self.v.clone(),
        }
    }

    /// Reinstall a snapshot taken by [`Adam::state`]; the next step resumes
    /// exactly where the snapshot left off.
    ///
    /// # Panics
    /// If `state.m` and `state.v` differ in length.
    pub fn set_state(&mut self, state: AdamState) {
        assert_eq!(
            state.m.len(),
            state.v.len(),
            "adam state moment count mismatch"
        );
        self.t = state.t;
        self.m = state.m;
        self.v = state.v;
    }

    /// One Adam update of `params` from `grads`, the gradients of all
    /// parameters flattened in registration order (as
    /// [`ParamSet::flatten`] lays the parameters out).
    ///
    /// # Panics
    /// If `grads.len()` is not `params.num_scalars()`.
    pub fn step(&mut self, params: &mut ParamSet, grads: &[f64]) {
        assert_eq!(
            grads.len(),
            params.num_scalars(),
            "adam step: {} gradients for {} parameter scalars",
            grads.len(),
            params.num_scalars()
        );
        if self.m.is_empty() {
            let zeros = |t: &Tensor| Tensor::zeros(t.rows(), t.cols());
            self.m = params.tensors().iter().map(zeros).collect();
            self.v = params.tensors().iter().map(zeros).collect();
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let mut grads = grads;
        for (i, t) in params.tensors_mut().iter_mut().enumerate() {
            let (g, rest) = grads.split_at(t.len());
            grads = rest;
            let m = &mut self.m[i];
            let v = &mut self.v[i];
            for ((mj, vj), (&gj, tj)) in m
                .data_mut()
                .iter_mut()
                .zip(v.data_mut().iter_mut())
                .zip(g.iter().zip(t.data_mut().iter_mut()))
            {
                *mj = self.beta1 * *mj + (1.0 - self.beta1) * gj;
                *vj = self.beta2 * *vj + (1.0 - self.beta2) * gj * gj;
                let mhat = *mj / bc1;
                let vhat = *vj / bc2;
                *tj -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::ParamSet;

    fn quadratic_grads(params: &ParamSet) -> Vec<f64> {
        // f = 0.5 * |theta|^2 -> grad = theta
        params.flatten()
    }

    #[test]
    fn adam_decays_quadratic() {
        let mut params = ParamSet::new();
        params.register("x", Tensor::from_vec(1, 2, vec![3.0, -1.5]));
        let mut opt = Adam::new(0.05);
        for _ in 0..2000 {
            let g = quadratic_grads(&params);
            opt.step(&mut params, &g);
        }
        assert!(params.tensors()[0].data().iter().all(|v| v.abs() < 1e-3));
    }

    #[test]
    fn adam_state_roundtrip_resumes_exactly() {
        let mut params = ParamSet::new();
        params.register("x", Tensor::from_vec(1, 3, vec![0.5, 0.25, -0.75]));
        let mut opt = Adam::new(0.01);
        for _ in 0..5 {
            let g = quadratic_grads(&params);
            opt.step(&mut params, &g);
        }
        // Snapshot mid-run, keep training the original.
        let ckpt_params = params.flatten();
        let ckpt_state = opt.state();
        for _ in 0..5 {
            let g = quadratic_grads(&params);
            opt.step(&mut params, &g);
        }
        // Resume a fresh optimizer from the snapshot: bit-identical tail.
        let mut resumed = ParamSet::new();
        resumed.register("x", Tensor::from_vec(1, 3, ckpt_params));
        let mut opt2 = Adam::new(0.01);
        opt2.set_state(ckpt_state);
        for _ in 0..5 {
            let g = quadratic_grads(&resumed);
            opt2.step(&mut resumed, &g);
        }
        assert_eq!(params.flatten(), resumed.flatten());
    }

    #[test]
    fn adam_is_deterministic() {
        let run = || {
            let mut params = ParamSet::new();
            params.register("x", Tensor::from_vec(1, 3, vec![0.5, 0.25, -0.75]));
            let mut opt = Adam::new(0.01);
            for _ in 0..10 {
                let g = quadratic_grads(&params);
                opt.step(&mut params, &g);
            }
            params.flatten()
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "adam step: 5 gradients for 6 parameter scalars")]
    fn adam_names_both_lengths_of_a_wrong_gradient() {
        let mut params = ParamSet::new();
        params.register("w", Tensor::zeros(2, 2));
        params.register("b", Tensor::zeros(1, 2));
        Adam::new(0.01).step(&mut params, &[0.0; 5]);
    }
}
