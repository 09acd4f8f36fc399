//! Finite-difference gradient checking utilities.
//!
//! Used by this crate's own op tests and re-used by `cgnn-core` to verify
//! that distributed gradients (Eq. 3 of the paper) match both the R=1 tape
//! and central finite differences.

use crate::nn::{ParamId, ParamSet};
use crate::tensor::nan_max;

/// Central-difference gradient of `f` with respect to every scalar in
/// `params`, returned flattened in registration order.
pub fn finite_difference_grad(
    params: &mut ParamSet,
    eps: f64,
    mut f: impl FnMut(&ParamSet) -> f64,
) -> Vec<f64> {
    let mut grad = Vec::with_capacity(params.num_scalars());
    for t in (0..params.len()).map(ParamId) {
        for j in 0..params.get(t).len() {
            let theta = params.get(t).data()[j];
            params.get_mut(t).data_mut()[j] = theta + eps;
            let fp = f(params);
            params.get_mut(t).data_mut()[j] = theta - eps;
            let fm = f(params);
            params.get_mut(t).data_mut()[j] = theta;
            grad.push((fp - fm) / (2.0 * eps));
        }
    }
    grad
}

/// Maximum relative error between two flat gradient vectors, flooring the
/// denominator to avoid blow-ups on tiny entries. A NaN on either side
/// makes the result NaN, so `< bound` fails.
///
/// # Panics
/// If the lengths differ.
pub fn max_rel_error(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "gradient length mismatch");
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| (x - y).abs() / x.abs().max(y.abs()).max(1e-6))
        .fold(0.0, nan_max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::{Mlp, ParamSet};
    use crate::tape::Tape;
    use crate::tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    /// End-to-end gradient check of an MLP with ELU + LayerNorm against
    /// central finite differences.
    #[test]
    fn mlp_gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut params = ParamSet::new();
        let mlp = Mlp::new(&mut params, "m", 3, 6, 2, 1, true, &mut rng);
        let x = Tensor::from_fn(4, 3, |r, c| ((r * 3 + c) as f64 * 0.37).sin());

        let eval = |p: &ParamSet| {
            let mut tape = Tape::new();
            let bound = p.bind(&mut tape);
            let xv = tape.leaf(x.clone());
            let y = mlp.forward(&mut tape, &bound, xv);
            let sq = tape.mul(y, y);
            let s = tape.sum(sq);
            tape.value(s).item()
        };

        // Autodiff gradient.
        let mut tape = Tape::new();
        let bound = params.bind(&mut tape);
        let xv = tape.leaf(x.clone());
        let y = mlp.forward(&mut tape, &bound, xv);
        let sq = tape.mul(y, y);
        let s = tape.sum(sq);
        let grads = tape.backward(s);
        let mut auto_flat = Vec::new();
        for (i, _) in params.tensors().iter().enumerate() {
            let g = grads
                .get(bound.var(crate::nn::ParamId(i)))
                .cloned()
                .unwrap_or_else(|| Tensor::zeros(1, 1));
            auto_flat.extend_from_slice(g.data());
        }

        let fd = finite_difference_grad(&mut params, 1e-5, eval);
        assert_eq!(auto_flat.len(), fd.len());
        // Central differences carry O(eps^2) truncation error plus
        // cancellation noise through LayerNorm; 5e-4 relative is the
        // expected accuracy floor here.
        let err = max_rel_error(&auto_flat, &fd);
        assert!(err < 5e-4, "max relative error {err}");
    }

    /// Central differences on the *inputs* of `layer_norm_add` — `x` and
    /// the residual `res` — as well as on gamma and beta: all four are
    /// registered as parameters, so one sweep perturbs every entry. The
    /// loss squares the output, so `res`'s gradient depends on `x` too.
    /// Widths 8 (four rows in lockstep, plus a remainder row) and 3.
    #[test]
    fn layer_norm_add_input_gradients_match_finite_differences() {
        for cols in [8, 3] {
            let rows = 5;
            let wave =
                |salt: usize, r: usize, c: usize| (((r * cols + c) * 7 + salt) as f64 * 0.37).sin();
            let mut params = ParamSet::new();
            let ids = [
                params.register("x", Tensor::from_fn(rows, cols, |r, c| wave(1, r, c))),
                params.register("res", Tensor::from_fn(rows, cols, |r, c| wave(2, r, c))),
                params.register(
                    "gamma",
                    Tensor::from_fn(1, cols, |_, c| 1.0 + wave(3, 0, c)),
                ),
                params.register("beta", Tensor::from_fn(1, cols, |_, c| wave(4, 0, c))),
            ];
            let weights = Arc::new((0..rows).map(|r| 1.0 + 0.25 * r as f64).collect::<Vec<_>>());
            let record = |p: &ParamSet, tape: &mut Tape| {
                let bound = p.bind(tape);
                let [x, res, gamma, beta] = ids.map(|id| bound.var(id));
                let y = tape.layer_norm_add(x, res, gamma, beta, 1e-5);
                (bound, tape.weighted_sq_sum(y, Arc::clone(&weights)))
            };

            let mut tape = Tape::new();
            let (bound, loss) = record(&params, &mut tape);
            let grads = tape.backward(loss);
            let auto: Vec<f64> = ids
                .iter()
                .flat_map(|&id| {
                    grads
                        .get(bound.var(id))
                        .expect("leaf gradient")
                        .data()
                        .to_vec()
                })
                .collect();

            let fd = finite_difference_grad(&mut params, 1e-6, |p| {
                let mut tape = Tape::new();
                let (_, loss) = record(p, &mut tape);
                tape.value(loss).item()
            });
            let err = max_rel_error(&auto, &fd);
            assert!(err < 1e-6, "width {cols}: max relative error {err}");
        }
    }

    /// Central differences on both input blocks of `linear_elu_blocks`
    /// — the node MLP's first layer over `[a* | x]` — as well as on its
    /// weight and bias: all four are registered as parameters, so one sweep
    /// perturbs every entry. `x` also enters the loss on its own, so its
    /// adjoint exists before the layer's block is added into it, as the
    /// node MLP's residual makes it in the model. Blocks 3 and 5 wide into
    /// 4 outputs, and two 4-wide blocks (the first one's adjoint is written
    /// over the output's).
    #[test]
    fn linear_blocks_input_gradients_match_finite_differences() {
        for (ka, kx, h) in [(3, 5, 4), (4, 4, 4)] {
            let rows = 6;
            let wave =
                |salt: usize, r: usize, c: usize| (((r * 11 + c) * 7 + salt) as f64 * 0.29).sin();
            let mut params = ParamSet::new();
            let ids = [
                params.register("a", Tensor::from_fn(rows, ka, |r, c| wave(1, r, c))),
                params.register("x", Tensor::from_fn(rows, kx, |r, c| wave(2, r, c))),
                params.register("w", Tensor::from_fn(ka + kx, h, |r, c| wave(3, r, c))),
                params.register("b", Tensor::from_fn(1, h, |_, c| 0.1 * wave(4, 0, c))),
            ];
            let weights = Arc::new((0..rows).map(|r| 1.0 + 0.25 * r as f64).collect::<Vec<_>>());
            let record = |p: &ParamSet, tape: &mut Tape| {
                let bound = p.bind(tape);
                let [a, x, w, b] = ids.map(|id| bound.var(id));
                let y = tape.linear_elu_blocks(&[a, x], w, b);
                let ly = tape.weighted_sq_sum(y, Arc::clone(&weights));
                let lx = tape.weighted_sq_sum(x, Arc::clone(&weights));
                (bound, tape.add(ly, lx))
            };

            let mut tape = Tape::new();
            let (bound, loss) = record(&params, &mut tape);
            let grads = tape.backward(loss);
            let auto: Vec<f64> = ids
                .iter()
                .flat_map(|&id| {
                    grads
                        .get(bound.var(id))
                        .expect("leaf gradient")
                        .data()
                        .to_vec()
                })
                .collect();

            let fd = finite_difference_grad(&mut params, 1e-6, |p| {
                let mut tape = Tape::new();
                let (_, loss) = record(p, &mut tape);
                tape.value(loss).item()
            });
            let err = max_rel_error(&auto, &fd);
            assert!(
                err < 1e-6,
                "blocks {ka}+{kx} -> {h}: max relative error {err}"
            );
        }
    }

    /// A NaN on either side, anywhere in the vectors, makes the error NaN,
    /// which fails every `< bound` check.
    #[test]
    fn nan_is_never_within_bound() {
        assert!(max_rel_error(&[f64::NAN], &[1.0]).is_nan());
        assert!(max_rel_error(&[1.0, 0.0], &[1.0, f64::NAN]).is_nan());
        assert!(max_rel_error(&[f64::NAN, 1.0], &[0.0, 3.0]).is_nan());
    }

    /// Gradient check through gather -> degree-weighted scatter, the
    /// skeleton of the paper's consistent edge aggregation (Eq. 4b).
    #[test]
    fn aggregation_pipeline_gradients() {
        let mut params = ParamSet::new();
        let x0 = Tensor::from_fn(3, 2, |r, c| 0.3 * (r as f64) - 0.2 * (c as f64) + 0.1);
        params.register("x", x0);
        let idx_src = Arc::new(vec![0usize, 1, 2, 0]);
        let idx_dst = Arc::new(vec![1usize, 1, 0, 2]);
        let w = Arc::new(vec![1.0, 0.5, 0.5, 1.0]);

        let eval = |p: &ParamSet| {
            let mut tape = Tape::new();
            let bound = p.bind(&mut tape);
            let x = bound.var(crate::nn::ParamId(0));
            let g = tape.gather_concat(&[(x, Some(idx_src.clone()))]);
            let a = tape.scatter_add_rows_scaled(g, w.clone(), idx_dst.clone(), 3);
            let sq = tape.mul(a, a);
            let s = tape.sum(sq);
            tape.value(s).item()
        };

        let mut tape = Tape::new();
        let bound = params.bind(&mut tape);
        let x = bound.var(crate::nn::ParamId(0));
        let g = tape.gather_concat(&[(x, Some(idx_src.clone()))]);
        let a = tape.scatter_add_rows_scaled(g, w.clone(), idx_dst.clone(), 3);
        let sq = tape.mul(a, a);
        let s = tape.sum(sq);
        let grads = tape.backward(s);
        let auto: Vec<f64> = grads.get(x).unwrap().data().to_vec();

        let fd = finite_difference_grad(&mut params, 1e-6, eval);
        let err = max_rel_error(&auto, &fd);
        assert!(err < 1e-6, "max relative error {err}");
    }
}
