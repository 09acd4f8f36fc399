//! Property-based tests of the tensor/autodiff substrate: algebraic
//! identities of the kernels and adjoint correctness of the gather/scatter
//! pair (the structural core of the consistent aggregation).

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

    /// ELU through the tape (the in-crate `exp` underneath): the identity,
    /// bit for bit, on non-negative inputs (either zero included); within
    /// `[-1, 0]` and within 2 ULP of `exp` (an absolute `2^-52` after the
    /// `- 1`) of libm's value on negative ones, however far out.
    #[test]
    fn elu_is_bounded_and_exact_where_linear(
        body in proptest::collection::vec(-50.0f64..50.0, 24),
        tail in proptest::collection::vec(-1e4f64..1e4, 8),
    ) {
        let edges = [0.0, -0.0, -1e-300, -708.0, -709.0, -1e300, f64::NEG_INFINITY, f64::MAX];
        let xs: Vec<f64> = body.into_iter().chain(tail).chain(edges).collect();
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(5, 8, xs.clone()));
        let y = tape.elu(x);
        for (&x, &y) in xs.iter().zip(tape.value(y).data()) {
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

    /// Autodiff of sum(row_scale(x ⊙ x, w)) equals the hand-derived
    /// gradient 2 w_i x_ij.
    #[test]
    fn rowscale_square_gradient_closed_form(
        x in tensor_strategy(5, 2),
        w in proptest::collection::vec(0.1f64..2.0, 5),
    ) {
        let w = Arc::new(w);
        let mut tape = Tape::new();
        let xv = tape.leaf(x.clone());
        let sq = tape.mul(xv, xv);
        let scaled = tape.row_scale(sq, w.clone());
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
    ) {
        let mut tape = Tape::new();
        let xv = tape.leaf(x.clone());
        let yv = tape.leaf(y.clone());
        let m = tape.matmul(xv, yv);
        let e = tape.elu(m);
        let s = tape.sum(e);
        let before = tape.value(e).clone();
        let _ = tape.backward(s);
        prop_assert_eq!(tape.value(e), &before);
    }
}
