//! Property-based tests of the tensor/autodiff substrate: algebraic
//! identities of the kernels and adjoint correctness of the gather/scatter
//! pair (the structural core of the consistent aggregation).

#![expect(
    clippy::expect_used,
    reason = "a failed setup step fails the test, and its message names the step"
)]

use proptest::prelude::*;
use std::sync::Arc;

use cgnn_tensor::{Tape, Tensor};

fn tensor_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-10.0f64..10.0, rows * cols)
        .prop_map(move |v| Tensor::from_vec(rows, cols, v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// (A B) C == A (B C) up to floating-point rounding.
    #[test]
    fn matmul_is_associative(
        a in tensor_strategy(3, 4),
        b in tensor_strategy(4, 5),
        c in tensor_strategy(5, 2),
    ) {
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        prop_assert!(left.max_rel_diff(&right) < 1e-10);
    }

    /// The two adjoint products: `a * b^T` through the explicit transpose
    /// (the tape's route) is the row-by-row dot product, terms in index
    /// order, bit for bit; the fused `a^T * c` agrees with the explicit
    /// transpose.
    #[test]
    fn matmul_transpose_variants_agree(
        a in tensor_strategy(4, 3),
        b in tensor_strategy(5, 3),
        c in tensor_strategy(4, 5),
    ) {
        let dots = Tensor::from_fn(4, 5, |i, j| {
            a.row(i).iter().zip(b.row(j)).fold(0.0, |acc, (u, v)| acc + u * v)
        });
        prop_assert_eq!(a.matmul(&b.transpose()), dots);
        prop_assert!(a.matmul_tn(&c).max_rel_diff(&a.transpose().matmul(&c)) < 1e-12);
    }

    /// ELU, the fused kernels' post-op (the in-crate `exp` underneath):
    /// the identity, bit for bit, on non-negative inputs (either zero
    /// included); within `[-1, 0]` and within 2 ULP of `exp` (an absolute
    /// `2^-52` after the `- 1`) of libm's value on negative ones, however
    /// far out.
    #[test]
    fn elu_is_bounded_and_exact_where_linear(
        body in proptest::collection::vec(-50.0f64..50.0, 24),
        tail in proptest::collection::vec(-1e4f64..1e4, 8),
    ) {
        let edges = [0.0, -0.0, -1e-300, -708.0, -709.0, -1e300, f64::NEG_INFINITY, f64::MAX];
        let xs: Vec<f64> = body.into_iter().chain(tail).chain(edges).collect();
        for (x, y) in xs.iter().map(|&x| (x, cgnn_tensor::elu(x))) {
            if x >= 0.0 {
                prop_assert_eq!(y.to_bits(), x.to_bits(), "elu({}) = {}", x, y);
            } else {
                prop_assert!((-1.0..=0.0).contains(&y), "elu({}) = {}", x, y);
                prop_assert!((y - (x.exp() - 1.0)).abs() <= f64::EPSILON, "elu({}) = {}", x, y);
            }
        }
    }

    /// <gather(x, idx), y> == <x, scatter_add(y, idx)>: gather and
    /// scatter-add are adjoint, which is exactly why the tape uses one as
    /// the backward of the other.
    #[test]
    fn gather_scatter_are_adjoint(
        x in tensor_strategy(6, 3),
        y in tensor_strategy(10, 3),
        idx in proptest::collection::vec(0usize..6, 10),
    ) {
        let gx = x.gather_rows(&idx);
        let sy = y.scatter_add_rows(&idx, 6);
        let dot = |a: &Tensor, b: &Tensor| -> f64 {
            a.data().iter().zip(b.data()).map(|(u, v)| u * v).sum()
        };
        prop_assert!((dot(&gx, &y) - dot(&x, &sy)).abs() < 1e-9);
    }

    /// Autodiff of the sum of the row-scaled scatter
    /// `out[idx[i]] += w_i (x ⊙ x)[i]` equals the hand-derived gradient
    /// 2 w_i x_ij, wherever the rows land.
    #[test]
    fn rowscale_square_gradient_closed_form(
        x in tensor_strategy(5, 2),
        w in proptest::collection::vec(0.1f64..2.0, 5),
        idx in proptest::collection::vec(0usize..3, 5),
    ) {
        let w = Arc::new(w);
        let mut tape = Tape::new();
        let xv = tape.leaf(x.clone());
        let sq = tape.mul(xv, xv);
        let scaled = tape.scatter_add_rows_scaled(sq, w.clone(), Arc::new(idx), 3);
        let s = tape.sum(scaled);
        let grads = tape.backward(s);
        let g = grads.get(xv).expect("grad exists");
        for r in 0..5 {
            for c in 0..2 {
                let expect = 2.0 * w[r] * x.get(r, c);
                prop_assert!((g.get(r, c) - expect).abs() < 1e-12);
            }
        }
    }

    /// LayerNorm output rows have zero mean and (near-)unit variance when
    /// gamma = 1, beta = 0 and the row is non-degenerate.
    #[test]
    fn layer_norm_normalizes_rows(x in tensor_strategy(4, 8)) {
        // Skip degenerate rows (all entries equal).
        for r in 0..4 {
            let row = x.row(r);
            let spread = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
                - row.iter().cloned().fold(f64::INFINITY, f64::min);
            prop_assume!(spread > 1e-3);
        }
        let mut tape = Tape::new();
        let xv = tape.leaf(x.clone());
        let g = tape.leaf(Tensor::full(1, 8, 1.0));
        let b = tape.leaf(Tensor::zeros(1, 8));
        let y = tape.layer_norm(xv, g, b, 1e-9);
        let out = tape.value(y);
        for r in 0..4 {
            let row = out.row(r);
            let mean: f64 = row.iter().sum::<f64>() / 8.0;
            let var: f64 = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f64>() / 8.0;
            prop_assert!(mean.abs() < 1e-9, "row {r} mean {mean}");
            prop_assert!((var - 1.0).abs() < 1e-5, "row {r} var {var}");
        }
    }

    /// Backward through an arbitrary composition never changes values
    /// (backward is read-only on the forward results).
    #[test]
    fn backward_does_not_mutate_values(
        x in tensor_strategy(3, 3),
        y in tensor_strategy(3, 3),
        b in tensor_strategy(1, 3),
    ) {
        let mut tape = Tape::new();
        let xv = tape.leaf(x.clone());
        let yv = tape.leaf(y.clone());
        let bv = tape.leaf(b.clone());
        let e = tape.linear_elu(xv, yv, bv);
        let s = tape.sum(e);
        let before = tape.value(e).clone();
        let _ = tape.backward(s);
        prop_assert_eq!(tape.value(e), &before);
    }
}

/// `count` deterministic values in `-1..1`.
fn wave(seed: u64, count: usize) -> Vec<f64> {
    (0..count)
        .map(|i| ((seed * 131 + i as u64) as f64 * 0.618).sin())
        .collect()
}

/// The inputs of one edge-update input layer: node rows `x` (`[nodes, h]`),
/// edge rows `e` (`[edges, h]`), the source/destination indices, the
/// `[3h, h]` weight, the bias and an upstream adjoint for the output.
struct EdgeLayer {
    x: Tensor,
    e: Tensor,
    src: Arc<Vec<usize>>,
    dst: Arc<Vec<usize>>,
    w: Tensor,
    b: Tensor,
    up: Tensor,
}

impl EdgeLayer {
    /// Indices repeat and are unsorted; `edges` may be 0.
    fn new(nodes: usize, edges: usize, h: usize, seed: u64) -> Self {
        let t = |rows: usize, cols: usize, salt: u64| {
            Tensor::from_vec(rows, cols, wave(seed + salt, rows * cols))
        };
        EdgeLayer {
            x: t(nodes, h, 1),
            e: t(edges, h, 2),
            src: Arc::new((0..edges).map(|i| (i * 5 + 3) % nodes).collect()),
            dst: Arc::new((0..edges).map(|i| (edges - i) * 7 % nodes).collect()),
            w: t(3 * h, h, 3),
            b: t(1, h, 4),
            up: t(edges, h, 5),
        }
    }

    /// `sum(up ⊙ layer([x[src] | x[dst] | e]))` recorded as `gather_linear`
    /// (`fused`) or as `gather_concat` → `linear_elu`; returns the output
    /// and the gradients of `x`, `e`, `w` and `b`.
    fn run(&self, fused: bool) -> [Tensor; 5] {
        let mut tape = Tape::new();
        let [x, e, w, b] = [&self.x, &self.e, &self.w, &self.b].map(|t| tape.leaf_copy(t));
        let parts = [
            (x, Some(Arc::clone(&self.src))),
            (x, Some(Arc::clone(&self.dst))),
            (e, None),
        ];
        let y = if fused {
            tape.gather_linear(&parts, w, b)
        } else {
            let cat = tape.gather_concat(&parts);
            tape.linear_elu(cat, w, b)
        };
        let up = tape.shared_constant(Arc::new(self.up.clone()));
        let weighted = tape.mul(y, up);
        let loss = tape.sum(weighted);
        let grads = tape.backward(loss);
        let grad = |v| grads.get(v).expect("leaf gradient").clone();
        [tape.value(y).clone(), grad(x), grad(e), grad(w), grad(b)]
    }
}

/// `gather_linear` is `gather_concat` → `linear_elu` with the concat
/// folded into the product, in value and in the gradients of `x`, `e`, `w`
/// and `b`. The two sum each output's terms in different orders, so this
/// is a **rounding bound, not bit-equality**: relative 1e-13 (denominator
/// floored at 1). Widths on and off the 4 x 8 tile, `x` used as two parts,
/// repeated and unsorted indices, and no edges at all.
#[test]
fn gather_linear_is_gather_concat_then_linear_to_rounding() {
    for h in [3, 8, 12, 32] {
        for (nodes, edges) in [(7, 23), (5, 0), (1, 4), (19, 67)] {
            let layer = EdgeLayer::new(nodes, edges, h, (h * 100 + edges) as u64);
            let fused = layer.run(true);
            let split = layer.run(false);
            for (name, (a, b)) in ["y", "dx", "de", "dw", "db"]
                .iter()
                .zip(fused.iter().zip(&split))
            {
                let gap = a.max_rel_diff(b);
                assert!(
                    gap <= 1e-13,
                    "{name}: h={h} nodes={nodes} edges={edges}: gap {gap}"
                );
            }
        }
    }
}

/// Central differences on the *inputs* `x` and `e` of `gather_linear`
/// (parameters are covered by `check.rs`): every entry, on both sides of
/// the ELU's kink.
#[test]
fn gather_linear_input_gradients_match_central_differences() {
    for seed in [17, 18] {
        let layer = EdgeLayer::new(4, 9, 3, seed);
        let [_, dx, de, ..] = layer.run(true);
        let loss = |x: &Tensor, e: &Tensor| {
            let mut tape = Tape::new();
            let [xv, ev, w, b, up] =
                [x, e, &layer.w, &layer.b, &layer.up].map(|t| tape.leaf_copy(t));
            let parts = [
                (xv, Some(Arc::clone(&layer.src))),
                (xv, Some(Arc::clone(&layer.dst))),
                (ev, None),
            ];
            let y = tape.gather_linear(&parts, w, b);
            let weighted = tape.mul(y, up);
            let s = tape.sum(weighted);
            tape.value(s).item()
        };
        let eps = 1e-6;
        let central = |t: &Tensor, f: &dyn Fn(&Tensor) -> f64| -> Vec<f64> {
            (0..t.len())
                .map(|i| {
                    let (mut plus, mut minus) = (t.clone(), t.clone());
                    plus.data_mut()[i] += eps;
                    minus.data_mut()[i] -= eps;
                    (f(&plus) - f(&minus)) / (2.0 * eps)
                })
                .collect()
        };
        let fd_x = central(&layer.x, &|x| loss(x, &layer.e));
        let fd_e = central(&layer.e, &|e| loss(&layer.x, e));
        for (name, auto, fd) in [("x", &dx, fd_x), ("e", &de, fd_e)] {
            let err = cgnn_tensor::check::max_rel_error(auto.data(), &fd);
            assert!(err < 1e-6, "d{name}, seed {seed}: relative error {err}");
        }
    }
}
