//! Serial-order and row-partition bit-identity of the tensor kernels.
//!
//! The determinism contract of the tensor kernels: each writes an output
//! row from that row's inputs alone and equals its documented serial-order
//! sum bit for bit (checked against naive one-element-at-a-time
//! references), so any row partition — the L1-sized row blocks of the
//! kernels that pass over their output more than once (`tn_panel_rows`
//! rows), or a row mask with its closing backfill — gives the same bits,
//! over odd shapes that straddle block and tile boundaries.

#![expect(
    clippy::expect_used,
    reason = "a failed setup step fails the test, and its message names the step"
)]

use proptest::prelude::*;
use std::sync::Arc;

use cgnn_tensor::{Tape, Tensor, VarId};

/// `count` deterministic pseudo-random values in `-1..1`.
fn noise(seed: u64, count: usize) -> Vec<f64> {
    (0..count)
        .map(|i| ((seed + i as u64) as f64 * 0.618).sin())
        .collect()
}

/// Record `gather_concat → linear_elu → linear → layer_norm →
/// linear_elu_blocks` (over `[layer norm | first layer]`) on
/// `edges` gathered rows of an `[nodes, width]` source, reduce it to a
/// scalar and run backward. With `mask = Some((rows, complement))` the
/// chain is recorded under `begin_row_mask(rows)` and closed with
/// `end_row_mask(complement)`. Returns every node's value and gradient.
fn row_chain(
    (nodes, edges, width, hidden): (usize, usize, usize, usize),
    seed: u64,
    mask: Option<(&[usize], &[usize])>,
) -> Vec<(Vec<f64>, Option<Vec<f64>>)> {
    let mut tape = Tape::new();
    let mut leaf = |rows: usize, cols: usize, salt: u64| {
        tape.leaf(Tensor::from_vec(
            rows,
            cols,
            noise(seed + salt, rows * cols),
        ))
    };
    let x = leaf(nodes, width, 0);
    let e = leaf(edges, width, 1);
    let (w1, b1) = (leaf(3 * width, hidden, 2), leaf(1, hidden, 3));
    let (w2, b2) = (leaf(hidden, hidden, 4), leaf(1, hidden, 5));
    let (gamma, beta) = (leaf(1, hidden, 6), leaf(1, hidden, 7));
    let (w3, b3) = (leaf(2 * hidden, hidden, 9), leaf(1, hidden, 10));
    let index = |stride: usize| Arc::new((0..edges).map(|i| (i * stride + 1) % nodes).collect());
    if let Some((rows, _)) = mask {
        tape.begin_row_mask(Arc::new(rows.to_vec()));
    }
    let cat = tape.gather_concat(&[(x, Some(index(3))), (x, Some(index(7))), (e, None)]);
    let h1 = tape.linear_elu(cat, w1, b1);
    let h2 = tape.linear(h1, w2, b2);
    let ln = tape.layer_norm(h2, gamma, beta, 1e-5);
    let out = tape.linear_elu_blocks(&[ln, h1], w3, b3);
    if let Some((_, complement)) = mask {
        tape.end_row_mask(complement);
    }
    let loss = tape.weighted_sq_sum(out, Arc::new(noise(seed + 8, edges)));
    let grads = tape.backward(loss);
    let vars: [VarId; 16] = [
        x, e, w1, b1, w2, b2, gamma, beta, w3, b3, cat, h1, h2, ln, out, loss,
    ];
    vars.iter()
        .map(|&v| {
            let grad = grads.get(v).map(|g| g.data().to_vec());
            (tape.value(v).data().to_vec(), grad)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Row-masked recording is the unmasked recording, bit for bit, in
    /// every node value and every gradient: the masked fill and the
    /// closing backfill run the same range kernel as the full-tensor path,
    /// over packed blocks of an arbitrary row subset and of its complement.
    #[test]
    fn masked_chain_is_bit_identical_to_unmasked(
        nodes in 1usize..40,
        edges in 1usize..90,
        width in 1usize..6,
        hidden in 1usize..20,
        seed in 0u64..1000,
    ) {
        let shape = (nodes, edges, width, hidden);
        let scatter = |r: usize| (r as u64 + seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60;
        let subsets: [(&str, &dyn Fn(usize) -> bool); 6] = [
            ("empty", &|_| false),
            ("full", &|_| true),
            ("single row", &|r| r == seed as usize % edges),
            ("alternating", &|r| r % 2 == 0),
            ("random half", &|r| scatter(r) < 8),
            ("random eighth", &|r| scatter(r) < 2),
        ];
        for (name, in_mask) in subsets {
            let (rows, complement): (Vec<usize>, Vec<usize>) =
                (0..edges).partition(|&r| in_mask(r));
            let whole = row_chain(shape, seed, None);
            let masked = row_chain(shape, seed, Some((&rows, &complement)));
            prop_assert!(whole == masked, "{name} mask {rows:?}");
        }
    }
}

/// Record the node-MLP shape the overlap window masks at hidden width
/// `width` over `rows` rows: `linear_elu_blocks` over `[a | x]`,
/// `linear_elu`, `linear`, `layer_norm`, then `layer_norm_add` onto `x`;
/// reduce it to a scalar and run backward. `mask` as in [`row_chain`].
/// Returns every node's value and gradient.
fn node_chain(
    rows: usize,
    width: usize,
    seed: u64,
    mask: Option<(&[usize], &[usize])>,
) -> Vec<(Vec<f64>, Option<Vec<f64>>)> {
    let mut tape = Tape::new();
    let mut leaf = |rows: usize, cols: usize, salt: u64| {
        tape.leaf(Tensor::from_vec(
            rows,
            cols,
            noise(seed + salt, rows * cols),
        ))
    };
    let (a, x) = (leaf(rows, width, 0), leaf(rows, width, 1));
    let (w1, b1) = (leaf(2 * width, width, 2), leaf(1, width, 3));
    let (w2, b2) = (leaf(width, width, 4), leaf(1, width, 5));
    let (w3, b3) = (leaf(width, width, 6), leaf(1, width, 7));
    let (g1, be1) = (leaf(1, width, 8), leaf(1, width, 9));
    let (g2, be2) = (leaf(1, width, 10), leaf(1, width, 11));
    if let Some((rows, _)) = mask {
        tape.begin_row_mask(Arc::new(rows.to_vec()));
    }
    let h1 = tape.linear_elu_blocks(&[a, x], w1, b1);
    let h2 = tape.linear_elu(h1, w2, b2);
    let h3 = tape.linear(h2, w3, b3);
    let ln = tape.layer_norm(h3, g1, be1, 1e-5);
    let out = tape.layer_norm_add(ln, x, g2, be2, 1e-5);
    if let Some((_, complement)) = mask {
        tape.end_row_mask(complement);
    }
    let loss = tape.weighted_sq_sum(out, Arc::new(noise(seed + 12, rows)));
    let grads = tape.backward(loss);
    let vars = [
        a, x, w1, b1, w2, b2, w3, b3, g1, be1, g2, be2, h1, h2, h3, ln, out, loss,
    ];
    vars.iter()
        .map(|&v| {
            let grad = grads.get(v).map(|g| g.data().to_vec());
            (tape.value(v).data().to_vec(), grad)
        })
        .collect()
}

/// The masked fill packs its rows into blocks of `tn_panel_rows` rows
/// (85 and 21 for the linears at widths 8 and 32, 128 and 32 for their
/// layer norms) and runs the kernels' 4-row tiles and layer-norm quads
/// over them: at both quad widths, on row counts up to several blocks,
/// every value and gradient is the unmasked recording's, bit for bit —
/// under the overlap window's stride-3 mask (one boundary row, then two
/// interior rows) filled either way round, a single row, no rows, every
/// row and a scattered half.
#[test]
fn packed_masked_fill_is_bit_identical_to_unmasked() {
    for width in [8, 32] {
        for rows in [1, 2, 5, 23, 131, 400] {
            let seed = (rows * 64 + width) as u64;
            let scatter = |r: usize| (r as u64 + seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60;
            let subsets: [(&str, &dyn Fn(usize) -> bool); 6] = [
                ("ovl-sr interior", &|r| r % 3 != 0),
                ("ovl-sr boundary", &|r| r % 3 == 0),
                ("single row", &|r| r == rows / 2),
                ("empty", &|_| false),
                ("full", &|_| true),
                ("random half", &|r| scatter(r) < 8),
            ];
            let whole = node_chain(rows, width, seed, None);
            for (name, in_mask) in subsets {
                let (mask, complement): (Vec<usize>, Vec<usize>) =
                    (0..rows).partition(|&r| in_mask(r));
                let masked = node_chain(rows, width, seed, Some((&mask, &complement)));
                assert!(whole == masked, "{rows} rows, width {width}: {name} mask");
            }
        }
    }
}

/// `x^T * g` by the definition: each element sums its `k` terms from zero
/// in serial `p` order.
fn naive_tn(x: &Tensor, g: &Tensor) -> Vec<f64> {
    let (k, m, n) = (x.rows(), x.cols(), g.cols());
    let mut out = Vec::with_capacity(m * n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for p in 0..k {
                acc += x.get(p, i) * g.get(p, j);
            }
            out.push(acc);
        }
    }
    out
}

/// The `k`-panelled `matmul_tn_into` is the serial-order sum, bit for bit:
/// panels only decide when a partial sum passes through memory. Shapes
/// cover full and ragged `4 x 8` tiles; `k` sits on
/// and around the panel height (mirrored from `tn_panel_rows`), so panels
/// of every fill level occur, the empty product included.
#[test]
fn matmul_tn_is_the_serial_order_sum_at_every_panel_boundary() {
    let shapes = [
        (1, 1),
        (4, 8),
        (8, 16),
        (5, 8),
        (4, 11),
        (7, 13),
        (33, 3),
        (70, 33),
        (96, 32),
    ];
    for (m, n) in shapes {
        let panel = (2048 / (m + n)).max(8);
        for k in [0, 1, panel - 1, panel, panel + 1, 3 * panel + 5] {
            let x = Tensor::from_vec(k, m, noise(k as u64, k * m));
            let g = Tensor::from_vec(k, n, noise(7 + k as u64, k * n));
            let want = naive_tn(&x, &g);
            // A dirty output buffer: the kernel must not read it.
            let mut out = Tensor::full(m, n, f64::NAN);
            x.matmul_tn_into(&g, &mut out);
            let same = out
                .data()
                .iter()
                .zip(&want)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "m={m} n={n} k={k}");
        }
    }
}

/// Layer norm one row at a time, as the one-row kernel computes it: the
/// row's mean and variance are `Iterator::sum`s in column order, the
/// adjoint's two row sums run in column order from `0.0`, and the
/// gamma/beta gradients add the rows in order. Returns the values and the
/// adjoints of `x`, gamma and beta for the upstream gradient `up`.
fn naive_layer_norm(x: &Tensor, gamma: &[f64], beta: &[f64], up: &Tensor) -> [Vec<f64>; 4] {
    let (rows, cols) = x.shape();
    let n = cols as f64;
    let (mut y, mut dx) = (Vec::new(), Vec::new());
    let (mut dgamma, mut dbeta) = (vec![0.0; cols], vec![0.0; cols]);
    for r in 0..rows {
        let (xr, ur) = (x.row(r), up.row(r));
        let mean = xr.iter().sum::<f64>() / n;
        let var = xr.iter().map(|&u| (u - mean) * (u - mean)).sum::<f64>() / n;
        let inv = 1.0 / (var + LN_EPS).sqrt();
        let xhat: Vec<f64> = xr.iter().map(|&u| (u - mean) * inv).collect();
        let dxhat: Vec<f64> = ur.iter().zip(gamma).map(|(&u, &g)| u * g).collect();
        let (mut sum_dxhat, mut sum_dxhat_xhat) = (0.0, 0.0);
        for c in 0..cols {
            y.push(gamma[c] * (xr[c] - mean) * inv + beta[c]);
            sum_dxhat += dxhat[c];
            sum_dxhat_xhat += dxhat[c] * xhat[c];
            dgamma[c] += ur[c] * xhat[c];
            dbeta[c] += ur[c];
        }
        for c in 0..cols {
            dx.push(inv / n * (n * dxhat[c] - sum_dxhat - xhat[c] * sum_dxhat_xhat));
        }
    }
    [y, dx, dgamma, dbeta]
}

const LN_EPS: f64 = 1e-5;

/// [`naive_layer_norm`]'s outputs from the tape: `layer_norm`, optionally
/// recorded under `begin_row_mask(mask)` and backfilled, then `sum(y ⊙ up)`
/// so that the adjoint reaching `y` is exactly `up`.
fn taped_layer_norm(
    x: &Tensor,
    gamma: &[f64],
    beta: &[f64],
    up: &Tensor,
    mask: Option<(&[usize], &[usize])>,
) -> [Vec<f64>; 4] {
    let cols = x.cols();
    let mut tape = Tape::new();
    let xv = tape.leaf_copy(x);
    let g = tape.leaf(Tensor::from_vec(1, cols, gamma.to_vec()));
    let b = tape.leaf(Tensor::from_vec(1, cols, beta.to_vec()));
    let u = tape.shared_constant(Arc::new(up.clone()));
    if let Some((rows, _)) = mask {
        tape.begin_row_mask(Arc::new(rows.to_vec()));
    }
    let y = tape.layer_norm(xv, g, b, LN_EPS);
    if let Some((_, complement)) = mask {
        tape.end_row_mask(complement);
    }
    let yu = tape.mul(y, u);
    let loss = tape.sum(yu);
    let grads = tape.backward(loss);
    let grad = |v| grads.get(v).expect("leaf gradient").data().to_vec();
    [tape.value(y).data().to_vec(), grad(xv), grad(g), grad(b)]
}

/// The layer-norm kernels — four rows in lockstep at widths 8 and 32,
/// one at a time elsewhere and for the rows left over — are the one-row
/// kernel bit for bit in values and in the x, gamma and beta gradients:
/// whole and under two row masks with their backfills, over
/// widths on and off the lockstep ones and row counts around a quad.
#[test]
fn layer_norm_is_the_one_row_kernel_bit_for_bit() {
    let bits = |v: &[Vec<f64>; 4]| {
        v.each_ref()
            .map(|t| t.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
    };
    for cols in [1, 3, 8, 12, 16, 32, 33] {
        for rows in [0, 1, 3, 4, 5, 37, 133] {
            let seed = (rows * 64 + cols) as u64;
            let x = Tensor::from_vec(rows, cols, noise(seed, rows * cols));
            let up = Tensor::from_vec(rows, cols, noise(seed + 1, rows * cols));
            let gamma: Vec<f64> = noise(seed + 2, cols).iter().map(|g| 1.0 + g).collect();
            let beta = noise(seed + 3, cols);
            let want = bits(&naive_layer_norm(&x, &gamma, &beta, &up));
            let masks: [(Vec<usize>, Vec<usize>); 2] = [
                (0..rows).partition(|r| r % 3 != 1),
                (0..rows).partition(|r| (r / 5) % 2 == 0),
            ];
            let whole = taped_layer_norm(&x, &gamma, &beta, &up, None);
            assert_eq!(bits(&whole), want, "{rows}x{cols}");
            for (mask, rest) in &masks {
                let masked = taped_layer_norm(&x, &gamma, &beta, &up, Some((mask, rest)));
                assert_eq!(bits(&masked), want, "{rows}x{cols} masked {mask:?}");
            }
        }
    }
}

/// `linear_elu` against [`naive_dense`], whole and filled under a row
/// mask and backfilled, values and every gradient bit-equal, over shapes
/// with and without tile remainders — the bias gradient among them, the
/// row-ordered column sum of the `elu'`-scaled adjoint ([`elu_scaled`]).
#[test]
fn linear_elu_routes_agree_bit_for_bit() {
    let shapes = [
        (1, 1, 1),
        (4, 3, 8),
        (5, 3, 8),
        (7, 5, 9),
        (37, 6, 13),
        (130, 4, 16),
        (67, 32, 32),
    ];
    for (rows, k, n) in shapes {
        let x = Tensor::from_vec(rows, k, noise(1, rows * k));
        let w = Tensor::from_vec(k, n, noise(2, k * n));
        let b = Tensor::from_vec(1, n, noise(3, n));
        let up = Tensor::from_vec(rows, n, noise(4, rows * n));
        let (mask, rest): (Vec<usize>, Vec<usize>) = (0..rows).partition(|r| r % 3 != 1);
        let want = naive_dense(&x, &w, &b, &up, true);
        let whole = taped_dense(&x, &w, &b, &up, true, None);
        let masked = taped_dense(&x, &w, &b, &up, true, Some((&mask, &rest)));
        assert!(whole == want, "whole, {:?}", (rows, k, n));
        assert!(masked == want, "masked, {:?}", (rows, k, n));
    }
}

/// `gather_linear`'s pre-activation by its documented order, one output
/// element at a time: the bias, then the streamed part's terms in column
/// order, then each gathered product `x_p * W_p` (summed from zero in
/// column order) in part order.
fn naive_gather_linear(parts: &[(&Tensor, Option<&[usize]>)], w: &Tensor, b: &Tensor) -> Vec<f64> {
    let rows = parts
        .iter()
        .find_map(|(_, ix)| ix.map(<[usize]>::len))
        .unwrap_or(0);
    let offsets: Vec<usize> = parts
        .iter()
        .scan(0, |row, (t, _)| {
            *row += t.cols();
            Some(*row - t.cols())
        })
        .collect();
    let streamed = parts.iter().position(|(_, ix)| ix.is_none());
    let term = |p: usize, src: usize, j: usize, acc: f64| {
        let x = parts[p].0;
        (0..x.cols()).fold(acc, |acc, k| acc + x.get(src, k) * w.get(offsets[p] + k, j))
    };
    let mut out = Vec::with_capacity(rows * w.cols());
    for r in 0..rows {
        for j in 0..w.cols() {
            let mut acc = streamed.map_or(b.get(0, j), |p| term(p, r, j, b.get(0, j)));
            for (p, (_, ix)) in parts.iter().enumerate() {
                if let Some(ix) = ix {
                    acc += term(p, ix[r], j, 0.0);
                }
            }
            out.push(acc);
        }
    }
    out
}

/// The edge-update input layer `elu([x[src] | x[dst] | e] * w + b)`
/// recorded as `gather_linear` under a weighted-square loss. Returns the
/// bits of its value and of the gradients of `x`, `e`, `w` and `b`.
fn taped_gather_linear(
    x: &Tensor,
    e: &Tensor,
    idx: [&Arc<Vec<usize>>; 2],
    w: &Tensor,
    b: &Tensor,
) -> Vec<Vec<u64>> {
    let mut tape = Tape::new();
    let [xv, ev, wv, bv] = [x, e, w, b].map(|t| tape.leaf_copy(t));
    let parts = [
        (xv, Some(Arc::clone(idx[0]))),
        (xv, Some(Arc::clone(idx[1]))),
        (ev, None),
    ];
    let y = tape.gather_linear(&parts, wv, bv);
    let loss = tape.weighted_sq_sum(y, Arc::new(noise(5, e.rows())));
    let grads = tape.backward(loss);
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect();
    let mut out: Vec<Vec<u64>> = vec![bits(tape.value(y))];
    out.extend([xv, ev, wv, bv].map(|v| bits(grads.get(v).expect("leaf gradient"))));
    out
}

/// `gather_linear` sums each output row in its documented order, bit for
/// bit (against [`naive_gather_linear`]), so its row blocks cannot change
/// it: widths on and off the `4 x 8` tile, edge counts on every side of a
/// forward block ([`adjoint_block`] of its `3h`-wide input), `x` as two
/// gathered parts; its store-time ELU is [`cgnn_tensor::elu`].
#[test]
fn gather_linear_is_its_documented_order_bit_for_bit() {
    for h in [3, 8, 12, 32] {
        for edges in block_row_counts(adjoint_block(3 * h, h)) {
            let nodes = 1 + edges / 3;
            let seed = (h * 1000 + edges) as u64;
            let x = Tensor::from_vec(nodes, h, noise(seed, nodes * h));
            let e = Tensor::from_vec(edges, h, noise(seed + 1, edges * h));
            let w = Tensor::from_vec(3 * h, h, noise(seed + 2, 3 * h * h));
            let b = Tensor::from_vec(1, h, noise(seed + 3, h));
            let src = Arc::new((0..edges).map(|i| (i * 7 + 2) % nodes).collect::<Vec<_>>());
            let dst = Arc::new(
                (0..edges)
                    .map(|i| (edges - i) * 3 % nodes)
                    .collect::<Vec<_>>(),
            );
            let parts = [
                (&x, Some(src.as_slice())),
                (&x, Some(dst.as_slice())),
                (&e, None),
            ];
            let pre = naive_gather_linear(&parts, &w, &b);
            let want = bits(elu_of(Tensor::from_vec(edges, h, pre)).data());
            let got = taped_gather_linear(&x, &e, [&src, &dst], &w, &b);
            assert!(got[0] == want, "h={h} nodes={nodes} edges={edges}: values");
        }
    }
}

/// `gather_linear` computes every row at once; recording it inside a row
/// mask is refused by name.
#[test]
#[should_panic(expected = "gather_linear is not supported under an active row mask")]
fn gather_linear_refuses_a_row_mask() {
    let mut tape = Tape::new();
    let x = tape.leaf(Tensor::zeros(3, 2));
    let w = tape.leaf(Tensor::zeros(4, 2));
    let b = tape.leaf(Tensor::zeros(1, 2));
    tape.begin_row_mask(Arc::new(vec![0]));
    tape.gather_linear(
        &[
            (x, Some(Arc::new(vec![2, 0]))),
            (x, Some(Arc::new(vec![1, 1]))),
        ],
        w,
        b,
    );
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// [`cgnn_tensor::elu`] of every element.
fn elu_of(mut t: Tensor) -> Tensor {
    for v in t.data_mut() {
        *v = cgnn_tensor::elu(*v);
    }
    t
}

/// The adjoint reaching a layer's pre-activation from the upstream `up`:
/// `up` itself, or with ELU `up * (y + 1)` where the stored `y < 0`.
fn elu_scaled(up: &Tensor, y: &Tensor, elu: bool) -> Tensor {
    Tensor::from_fn(up.rows(), up.cols(), |r, j| {
        let (g, yv) = (up.get(r, j), y.get(r, j));
        if elu && yv < 0.0 {
            g * (yv + 1.0)
        } else {
            g
        }
    })
}

/// `t * w_blockᵀ` for the rows `first..first + cols` of `w`: each element
/// is the dot product of a row of `t` with a row of `w`, its terms added
/// from zero in column order.
fn naive_times_rows_t(t: &Tensor, w: &Tensor, first: usize, cols: usize) -> Tensor {
    Tensor::from_fn(t.rows(), cols, |r, p| {
        (0..t.cols()).fold(0.0, |acc, j| acc + t.get(r, j) * w.get(first + p, j))
    })
}

/// Column sums of `t`, its rows added in order from zero.
fn naive_col_sums(t: &Tensor) -> Vec<f64> {
    (0..t.cols())
        .map(|j| (0..t.rows()).fold(0.0, |acc, r| acc + t.get(r, j)))
        .collect()
}

/// The dense layer `y = act(x * w + b)` and its adjoints under the
/// upstream gradient `up`, in the documented order, one element at a
/// time: a value starts from the bias and adds its `k` terms in index
/// order; `dx` is [`naive_times_rows_t`] of the pre-activation adjoint;
/// `dw` is [`naive_tn`] and `db` the row-ordered column sums. Returns the
/// bits of `y`, `dx`, `dw` and `db`.
fn naive_dense(x: &Tensor, w: &Tensor, b: &Tensor, up: &Tensor, elu: bool) -> Vec<Vec<u64>> {
    let (k, n) = w.shape();
    let pre = Tensor::from_fn(x.rows(), n, |r, j| {
        (0..k).fold(b.get(0, j), |acc, p| acc + x.get(r, p) * w.get(p, j))
    });
    let y = if elu { elu_of(pre) } else { pre };
    let t = elu_scaled(up, &y, elu);
    vec![
        bits(y.data()),
        bits(naive_times_rows_t(&t, w, 0, k).data()),
        bits(&naive_tn(x, &t)),
        bits(&naive_col_sums(&t)),
    ]
}

/// [`naive_dense`]'s outputs from the tape: `linear` or `linear_elu`,
/// optionally recorded under `begin_row_mask(mask)` and backfilled, then
/// `sum(y ⊙ up)` so that the adjoint reaching `y` is exactly `up`.
fn taped_dense(
    x: &Tensor,
    w: &Tensor,
    b: &Tensor,
    up: &Tensor,
    elu: bool,
    mask: Option<(&[usize], &[usize])>,
) -> Vec<Vec<u64>> {
    let mut tape = Tape::new();
    let [xv, wv, bv] = [x, w, b].map(|t| tape.leaf_copy(t));
    let u = tape.shared_constant(Arc::new(up.clone()));
    if let Some((rows, _)) = mask {
        tape.begin_row_mask(Arc::new(rows.to_vec()));
    }
    let y = if elu {
        tape.linear_elu(xv, wv, bv)
    } else {
        tape.linear(xv, wv, bv)
    };
    if let Some((_, complement)) = mask {
        tape.end_row_mask(complement);
    }
    let yu = tape.mul(y, u);
    let loss = tape.sum(yu);
    let grads = tape.backward(loss);
    let mut out = vec![bits(tape.value(y).data())];
    out.extend([xv, wv, bv].map(|v| bits(grads.get(v).expect("leaf gradient").data())));
    out
}

/// The row GEMM (`linear`, `linear_elu`, the adjoint `g * wᵀ`) and the
/// transposed one (`dw = xᵀ g`) are the serial-order sums, bit for bit,
/// in values and in the x, w and b gradients. The shapes
/// reach every branch: full `4 x 8` tiles, the column tail beside them,
/// the remainder rows below them, `k = 0` and no rows at all. A `gather_linear` whose gathered part owns a row block of
/// `w` that does not start at row 0 covers the weight-block slices.
#[test]
fn gemm_is_the_serial_order_sum_bit_for_bit() {
    for rows in [0, 1, 3, 4, 5, 37, 133] {
        for k in [0, 1, 7, 8, 32, 33, 96] {
            for n in [1, 3, 8, 12, 32] {
                let seed = (rows * 10_000 + k * 100 + n) as u64;
                let x = Tensor::from_vec(rows, k, noise(seed, rows * k));
                let w = Tensor::from_vec(k, n, noise(seed + 1, k * n));
                let b = Tensor::from_vec(1, n, noise(seed + 2, n));
                let up = Tensor::from_vec(rows, n, noise(seed + 3, rows * n));
                for elu in [false, true] {
                    let want = naive_dense(&x, &w, &b, &up, elu);
                    let got = taped_dense(&x, &w, &b, &up, elu, None);
                    assert!(got == want, "rows={rows} k={k} n={n} elu={elu}");
                }
            }
        }
    }

    // `[e | x[idx]] * w + b`: the streamed `e` owns rows 0..7 of `w`, the
    // gathered `x` rows 7..19.
    let (nodes, edges, h) = (11, 37, 12);
    let e = Tensor::from_vec(edges, 7, noise(1, edges * 7));
    let x = Tensor::from_vec(nodes, 12, noise(2, nodes * 12));
    let w = Tensor::from_vec(19, h, noise(3, 19 * h));
    let b = Tensor::from_vec(1, h, noise(4, h));
    let up = Tensor::from_vec(edges, h, noise(5, edges * h));
    let idx: Vec<usize> = (0..edges).map(|i| (i * 5 + 3) % nodes).collect();
    let pre = naive_gather_linear(&[(&e, None), (&x, Some(idx.as_slice()))], &w, &b);
    let y = elu_of(Tensor::from_vec(edges, h, pre));
    let t = elu_scaled(&up, &y, true);
    let mut s = Tensor::zeros(nodes, h);
    for (r, &src) in idx.iter().enumerate() {
        for j in 0..h {
            s.set(src, j, s.get(src, j) + t.get(r, j));
        }
    }
    let mut dw = naive_tn(&e, &t);
    dw.extend(naive_tn(&x, &s));
    let want = vec![
        bits(y.data()),
        bits(naive_times_rows_t(&t, &w, 0, 7).data()),
        bits(naive_times_rows_t(&s, &w, 7, 12).data()),
        bits(&dw),
        bits(&naive_col_sums(&t)),
    ];
    let idx = Arc::new(idx);
    let mut tape = Tape::new();
    let [ev, xv, wv, bv] = [&e, &x, &w, &b].map(|t| tape.leaf_copy(t));
    let u = tape.shared_constant(Arc::new(up));
    let y = tape.gather_linear(&[(ev, None), (xv, Some(idx))], wv, bv);
    let yu = tape.mul(y, u);
    let loss = tape.sum(yu);
    let grads = tape.backward(loss);
    let mut got = vec![bits(tape.value(y).data())];
    got.extend([ev, xv, wv, bv].map(|v| bits(grads.get(v).expect("leaf gradient").data())));
    assert!(got == want, "gather_linear");
}

/// [`taped_layer_norm`] with the residual folded in: `layer_norm_add(x,
/// res)`, optionally under `begin_row_mask(mask)` and backfilled, then
/// `sum(y ⊙ up)`. Returns the bits of the value and of the adjoints of
/// `x`, `res`, gamma and beta.
fn taped_layer_norm_add(
    [x, res, up]: [&Tensor; 3],
    gamma: &[f64],
    beta: &[f64],
    mask: Option<(&[usize], &[usize])>,
) -> Vec<Vec<u64>> {
    let cols = x.cols();
    let mut tape = Tape::new();
    let [xv, rv] = [x, res].map(|t| tape.leaf_copy(t));
    let g = tape.leaf(Tensor::from_vec(1, cols, gamma.to_vec()));
    let b = tape.leaf(Tensor::from_vec(1, cols, beta.to_vec()));
    let u = tape.shared_constant(Arc::new(up.clone()));
    if let Some((rows, _)) = mask {
        tape.begin_row_mask(Arc::new(rows.to_vec()));
    }
    let y = tape.layer_norm_add(xv, rv, g, b, LN_EPS);
    if let Some((_, complement)) = mask {
        tape.end_row_mask(complement);
    }
    let yu = tape.mul(y, u);
    let loss = tape.sum(yu);
    let grads = tape.backward(loss);
    let mut out = vec![bits(tape.value(y).data())];
    out.extend([xv, rv, g, b].map(|v| bits(grads.get(v).expect("leaf gradient").data())));
    out
}

/// `layer_norm_add` is `layer_norm` then `add`, bit for bit, against the
/// naive one-row layer norm: the value is the layer norm's, rounded, plus
/// the residual; `x`, gamma and beta take the layer norm's adjoints and
/// `res` the upstream adjoint itself — whole and under two row masks with
/// their backfills, at widths on and off the four-row lockstep and row
/// counts on every side of a forward block ([`adjoint_block`] of `cols`,
/// `cols`).
#[test]
fn layer_norm_add_is_layer_norm_then_add_bit_for_bit() {
    for cols in [1, 3, 8, 12, 32] {
        for rows in block_row_counts(adjoint_block(cols, cols)) {
            let seed = (rows * 64 + cols) as u64 + 5000;
            let t = |salt: u64| Tensor::from_vec(rows, cols, noise(seed + salt, rows * cols));
            let (x, res, up) = (t(0), t(1), t(4));
            let gamma: Vec<f64> = noise(seed + 2, cols).iter().map(|g| 1.0 + g).collect();
            let beta = noise(seed + 3, cols);
            let [y, dx, dgamma, dbeta] = naive_layer_norm(&x, &gamma, &beta, &up);
            let y: Vec<f64> = y.iter().zip(res.data()).map(|(a, r)| a + r).collect();
            let want = [&y[..], &dx, up.data(), &dgamma, &dbeta].map(bits).to_vec();
            let masks: [(Vec<usize>, Vec<usize>); 2] = [
                (0..rows).partition(|r| r % 3 != 1),
                (0..rows).partition(|r| (r / 5) % 2 == 0),
            ];
            let whole = taped_layer_norm_add([&x, &res, &up], &gamma, &beta, None);
            assert!(whole == want, "{rows}x{cols}");
            for (mask, rest) in &masks {
                let masked =
                    taped_layer_norm_add([&x, &res, &up], &gamma, &beta, Some((mask, rest)));
                assert!(masked == want, "{rows}x{cols} masked {mask:?}");
            }
        }
    }
}

/// Rows per block of a `[rows, in_dim]` to `[rows, h]` kernel (mirrored
/// from `tn_panel_rows`): the linear adjoints, and the forwards of
/// `gather_linear` and `layer_norm_add`. The row counts below sit on and
/// around it.
fn adjoint_block(in_dim: usize, h: usize) -> usize {
    (2048 / (in_dim + h).max(1)).max(8)
}

/// The row counts that straddle a kernel's row blocks: none, one, one
/// short of a block, a block, one past it, and several with a remainder.
fn block_row_counts(block: usize) -> [usize; 6] {
    [0, 1, block - 1, block, block + 1, 3 * block + 5]
}

/// The row-blocked adjoint of `linear` and `linear_elu` is the serial-order
/// sum, bit for bit: `dx`, `dw` and `db` equal [`naive_dense`]'s whole-tensor
/// products at row counts on every side of a block boundary, `in_dim = 0`
/// included (no `dx` columns, an empty `dw`), on widths on and off the
/// `4 x 8` tile.
#[test]
fn linear_adjoint_row_blocks_are_the_serial_order_sum() {
    for (k, n) in [(0, 8), (1, 3), (8, 8), (24, 8), (5, 12), (32, 32)] {
        for rows in block_row_counts(adjoint_block(k, n)) {
            let seed = (rows * 10_000 + k * 100 + n) as u64 + 77;
            let x = Tensor::from_vec(rows, k, noise(seed, rows * k));
            let w = Tensor::from_vec(k, n, noise(seed + 1, k * n));
            let b = Tensor::from_vec(1, n, noise(seed + 2, n));
            let up = Tensor::from_vec(rows, n, noise(seed + 3, rows * n));
            for elu in [false, true] {
                let want = naive_dense(&x, &w, &b, &up, elu);
                let got = taped_dense(&x, &w, &b, &up, elu, None);
                assert!(got == want, "rows={rows} k={k} n={n} elu={elu}");
            }
        }
    }
}

/// The edge-update input layer `elu([x[src] | x[dst] | e] * w + b)` by the
/// definition: [`naive_gather_linear`]'s value; `t = up ⊙ elu'`; each
/// gathered part's `S` the rows of `t` summed onto their sources in edge
/// order; `dx = S_src * W_srcᵀ + S_dst * W_dstᵀ`, `de = t * W_eᵀ`, the row
/// blocks of `dw` `xᵀ S_src`, `xᵀ S_dst`, `eᵀ t`, and `db` the row-ordered
/// column sums of `t`. Returns the bits of `y`, `dx`, `de`, `dw` and `db`.
fn naive_edge_layer(
    x: &Tensor,
    e: &Tensor,
    idx: [&[usize]; 2],
    w: &Tensor,
    b: &Tensor,
    up: &Tensor,
) -> Vec<Vec<u64>> {
    let (kx, ke, h) = (x.cols(), e.cols(), w.cols());
    let parts = [(x, Some(idx[0])), (x, Some(idx[1])), (e, None)];
    let pre = naive_gather_linear(&parts, w, b);
    let y = elu_of(Tensor::from_vec(e.rows(), h, pre));
    let t = elu_scaled(up, &y, true);
    let sums = idx.map(|idx| {
        let mut s = Tensor::zeros(x.rows(), h);
        for (r, &src) in idx.iter().enumerate() {
            for j in 0..h {
                s.set(src, j, s.get(src, j) + t.get(r, j));
            }
        }
        s
    });
    let dx_src = naive_times_rows_t(&sums[0], w, 0, kx);
    let dx_dst = naive_times_rows_t(&sums[1], w, kx, kx);
    let dx: Vec<f64> = dx_src
        .data()
        .iter()
        .zip(dx_dst.data())
        .map(|(a, b)| a + b)
        .collect();
    let mut dw = naive_tn(x, &sums[0]);
    dw.extend(naive_tn(x, &sums[1]));
    dw.extend(naive_tn(e, &t));
    vec![
        bits(y.data()),
        bits(&dx),
        bits(naive_times_rows_t(&t, w, 2 * kx, ke).data()),
        bits(&dw),
        bits(&naive_col_sums(&t)),
    ]
}

/// The row-blocked adjoint of `gather_linear` is the serial-order sum, bit
/// for bit (against [`naive_edge_layer`]): edge counts on every side of a
/// block of the streamed part, widths on and off the `4 x 8` tile, and
/// parts zero columns wide (`in_dim = 0` when both are).
#[test]
fn gather_linear_adjoint_row_blocks_are_the_serial_order_sum() {
    for (kx, ke, h) in [(0, 0, 8), (3, 0, 3), (0, 4, 8), (8, 8, 8), (5, 3, 12)] {
        for edges in block_row_counts(adjoint_block(ke, h)) {
            let nodes = 1 + edges / 3;
            let seed = (edges * 1000 + kx * 100 + ke * 10 + h) as u64;
            let x = Tensor::from_vec(nodes, kx, noise(seed, nodes * kx));
            let e = Tensor::from_vec(edges, ke, noise(seed + 1, edges * ke));
            let w = Tensor::from_vec(2 * kx + ke, h, noise(seed + 2, (2 * kx + ke) * h));
            let b = Tensor::from_vec(1, h, noise(seed + 3, h));
            let up = Tensor::from_vec(edges, h, noise(seed + 4, edges * h));
            let src: Vec<usize> = (0..edges).map(|i| (i * 7 + 2) % nodes).collect();
            let dst: Vec<usize> = (0..edges).map(|i| (edges - i) * 3 % nodes).collect();
            let want = naive_edge_layer(&x, &e, [&src, &dst], &w, &b, &up);

            let mut tape = Tape::new();
            let [xv, ev, wv, bv] = [&x, &e, &w, &b].map(|t| tape.leaf_copy(t));
            let u = tape.shared_constant(Arc::new(up));
            let parts = [
                (xv, Some(Arc::new(src))),
                (xv, Some(Arc::new(dst))),
                (ev, None),
            ];
            let y = tape.gather_linear(&parts, wv, bv);
            let yu = tape.mul(y, u);
            let loss = tape.sum(yu);
            let grads = tape.backward(loss);
            let mut got = vec![bits(tape.value(y).data())];
            got.extend([xv, ev, wv, bv].map(|v| bits(grads.get(v).expect("leaf gradient").data())));
            assert!(got == want, "kx={kx} ke={ke} h={h} edges={edges}");
        }
    }
}

/// `elu([a | x] * w + b)` for `(rows, a's width, x's width, h)`: recorded
/// as `linear_elu_blocks` over the two blocks or as `gather_concat` then
/// `linear_elu`, whole or under a row mask with its backfill. `x` is read
/// again by a loss term recorded after the layer, so its adjoint already
/// exists when the layer's block reaches it (the in-place add), while
/// `a`'s does not; with `same`, both blocks are `x`. Returns the bits of
/// the value and of the gradients of `a`, `x`, `w` and `b`.
fn column_block_layer(
    (rows, ka, kx, h): (usize, usize, usize, usize),
    blocks: bool,
    mask: Option<(&[usize], &[usize])>,
    same: bool,
) -> Vec<Vec<u64>> {
    let seed = (rows * 10_000 + ka * 100 + kx + h * 7) as u64;
    let mut tape = Tape::new();
    let a = tape.leaf(Tensor::from_vec(rows, ka, noise(seed, rows * ka)));
    let x = tape.leaf(Tensor::from_vec(rows, kx, noise(seed + 1, rows * kx)));
    let a = if same { x } else { a };
    let k = tape.value(a).cols() + kx;
    let w = tape.leaf(Tensor::from_vec(k, h, noise(seed + 2, k * h)));
    let b = tape.leaf(Tensor::from_vec(1, h, noise(seed + 3, h)));
    if let Some((rows, _)) = mask {
        tape.begin_row_mask(Arc::new(rows.to_vec()));
    }
    let y = if blocks {
        tape.linear_elu_blocks(&[a, x], w, b)
    } else {
        let cat = tape.gather_concat(&[(a, None), (x, None)]);
        tape.linear_elu(cat, w, b)
    };
    if let Some((_, complement)) = mask {
        tape.end_row_mask(complement);
    }
    let ly = tape.weighted_sq_sum(y, Arc::new(noise(seed + 4, rows)));
    let lx = tape.weighted_sq_sum(x, Arc::new(noise(seed + 5, rows)));
    let loss = tape.add(ly, lx);
    let grads = tape.backward(loss);
    let mut out = vec![bits(tape.value(y).data())];
    out.extend([a, x, w, b].map(|v| bits(grads.get(v).expect("leaf gradient").data())));
    out
}

/// The column-block linear is `gather_concat` then `linear_elu`, bit for
/// bit, in the value and in the gradients of both
/// blocks, the weight and the bias: whole and under a row mask with its
/// backfill, at block widths 1, 3, 8 and 32 and zero, with a block as wide
/// as the output (whose adjoint is written over the output's) and not,
/// with both blocks one variable, and at row counts across the assembly
/// blocks.
#[test]
fn linear_blocks_are_concat_then_linear_bit_for_bit() {
    let widths = [
        (1, 3, 8),
        (3, 1, 3),
        (8, 8, 8),
        (32, 32, 32),
        (3, 32, 8),
        (32, 3, 32),
        (8, 0, 8),
        (0, 1, 3),
        (0, 0, 8),
    ];
    for (ka, kx, h) in widths {
        for rows in [0, 1, 5, 37, 133, 301] {
            let (mask, rest): (Vec<usize>, Vec<usize>) = (0..rows).partition(|r| r % 3 != 1);
            for same in [false, true] {
                let shape = (rows, ka, kx, h);
                let want = column_block_layer(shape, false, None, same);
                let whole = column_block_layer(shape, true, None, same);
                let masked = column_block_layer(shape, true, Some((&mask, &rest)), same);
                let what = format!("rows={rows} ka={ka} kx={kx} h={h} same={same}");
                assert!(whole == want, "{what}: whole");
                assert!(masked == want, "{what}: masked");
            }
        }
    }
}

/// `x`'s gradient through `gather_linear` over a gathered and a streamed
/// part of the same `x`, in either order, when a later op has already
/// given `x` an adjoint: the parts' contributions are added to it in part
/// order, bit for bit the sum of the three gradients taken from three
/// separate copies of `x`. (The streamed part adds into `x`'s adjoint in
/// place only when no earlier part adds to it first.)
#[test]
fn gather_linear_adds_a_shared_source_in_part_order() {
    let (rows, k, h) = (37, 5, 8);
    let x = Tensor::from_vec(rows, k, noise(1, rows * k));
    let w = Tensor::from_vec(2 * k, h, noise(2, 2 * k * h));
    let b = Tensor::from_vec(1, h, noise(3, h));
    let idx = Arc::new((0..rows).map(|i| (i * 7 + 3) % rows).collect::<Vec<_>>());
    for streamed_first in [false, true] {
        // `[gathered, streamed, later]` reads of `x`: one variable, or three.
        let run = |one: bool| {
            let mut tape = Tape::new();
            let xs = if one {
                [tape.leaf_copy(&x); 3]
            } else {
                [0; 3].map(|_| tape.leaf_copy(&x))
            };
            let [wv, bv] = [&w, &b].map(|t| tape.leaf_copy(t));
            let gathered = (xs[0], Some(Arc::clone(&idx)));
            let parts = if streamed_first {
                [(xs[1], None), gathered]
            } else {
                [gathered, (xs[1], None)]
            };
            let y = tape.gather_linear(&parts, wv, bv);
            let ly = tape.weighted_sq_sum(y, Arc::new(noise(4, rows)));
            let lx = tape.weighted_sq_sum(xs[2], Arc::new(noise(5, rows)));
            let loss = tape.add(ly, lx);
            let grads = tape.backward(loss);
            xs.map(|v| grads.get(v).expect("leaf gradient").clone())
        };
        let [g_gathered, g_streamed, g_later] = run(false);
        let (first, second) = if streamed_first {
            (&g_streamed, &g_gathered)
        } else {
            (&g_gathered, &g_streamed)
        };
        let want: Vec<f64> = g_later
            .data()
            .iter()
            .zip(first.data())
            .zip(second.data())
            .map(|((p, a), b)| (p + a) + b)
            .collect();
        let got = run(true)[0].clone();
        assert_eq!(
            bits(got.data()),
            bits(&want),
            "streamed first: {streamed_first}"
        );
    }
}
