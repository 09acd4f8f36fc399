//! Serial-vs-parallel bit-identity of the tensor kernels.
//!
//! The determinism contract of `crates/tensor/src/par.rs`: every kernel's
//! result is **bit-identical** at any worker count, because chunk
//! boundaries are fixed functions of the shape, each output row is written
//! by exactly one chunk, and reductions accumulate per destination in the
//! serial input order. These property tests pin the worker count per run
//! (via the rayon shim's `with_num_threads`) and compare against the
//! 1-worker path over odd shapes that straddle chunk boundaries.

use proptest::prelude::*;
use std::sync::Arc;

use cgnn_tensor::{Tape, Tensor, VarId};

/// Worker counts to compare against the serial path: an even split, an odd
/// split (uneven chunk distribution), and more workers than chunks.
const WORKERS: [usize; 3] = [2, 3, 7];

fn assert_worker_invariant<T: PartialEq + std::fmt::Debug>(f: impl Fn() -> T) {
    let serial = rayon::with_num_threads(1, &f);
    for w in WORKERS {
        let par = rayon::with_num_threads(w, &f);
        assert!(par == serial, "parallel ({w} workers) diverged from serial");
    }
}

/// `count` deterministic pseudo-random values in `-1..1`.
fn noise(seed: u64, count: usize) -> Vec<f64> {
    (0..count)
        .map(|i| ((seed + i as u64) as f64 * 0.618).sin())
        .collect()
}

/// Record `gather_concat → linear_elu → linear → layer_norm → tanh` over
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
    let index = |stride: usize| Arc::new((0..edges).map(|i| (i * stride + 1) % nodes).collect());
    if let Some((rows, _)) = mask {
        tape.begin_row_mask(Arc::new(rows.to_vec()));
    }
    let cat = tape.gather_concat(&[(x, Some(index(3))), (x, Some(index(7))), (e, None)]);
    let h1 = tape.linear_elu(cat, w1, b1);
    let h2 = tape.linear(h1, w2, b2);
    let ln = tape.layer_norm(h2, gamma, beta, 1e-5);
    let out = tape.tanh(ln);
    if let Some((_, complement)) = mask {
        tape.end_row_mask(complement);
    }
    let loss = tape.weighted_sq_sum(out, Arc::new(noise(seed + 8, edges)));
    let grads = tape.backward(loss);
    let vars: [VarId; 14] = [
        x, e, w1, b1, w2, b2, gamma, beta, cat, h1, h2, ln, out, loss,
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
    /// over the runs of an arbitrary row subset and of its complement.
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
            for workers in [1, 2] {
                let (whole, masked) = rayon::with_num_threads(workers, || (
                    row_chain(shape, seed, None),
                    row_chain(shape, seed, Some((&rows, &complement))),
                ));
                prop_assert!(whole == masked, "{name} mask {rows:?}, {workers} workers");
            }
        }
    }

    /// `A * B` over shapes that straddle the fixed chunk boundary and the
    /// 4x8 register-tile edges.
    #[test]
    fn matmul_is_worker_invariant(
        rows in 1usize..200,
        k in 1usize..17,
        n in 1usize..19,
        seed in 0u64..1000,
    ) {
        let a = Tensor::from_fn(rows, k, |r, c| ((seed + (r * k + c) as u64) as f64 * 0.37).sin());
        let b = Tensor::from_fn(k, n, |r, c| ((seed + (r * n + c) as u64) as f64 * 0.21).cos());
        assert_worker_invariant(|| a.matmul(&b).into_vec());
    }

    /// The adjoint products: `g * w^T` through the explicit transpose (the
    /// route the tape's backward takes) and the fused `x^T * g`.
    #[test]
    fn matmul_transpose_variants_are_worker_invariant(
        rows in 1usize..150,
        k in 1usize..13,
        n in 1usize..13,
        seed in 0u64..1000,
    ) {
        let g = Tensor::from_fn(rows, k, |r, c| ((seed + (r * k + c) as u64) as f64 * 0.11).sin());
        let w = Tensor::from_fn(n, k, |r, c| ((seed + (r * k + c) as u64) as f64 * 0.23).cos());
        assert_worker_invariant(|| g.matmul(&w.transpose()).into_vec());
        let x = Tensor::from_fn(rows, n, |r, c| ((seed + (r * n + c) as u64) as f64 * 0.31).sin());
        assert_worker_invariant(|| g.matmul_tn(&x).into_vec());
    }

    /// Gather and scatter-add over random index patterns: scatter is the
    /// kernel whose parallel path reduces — per-destination input order
    /// must make it exact, not approximately equal.
    #[test]
    fn gather_scatter_are_worker_invariant(
        src_rows in 1usize..60,
        n_idx in 1usize..300,
        cols in 1usize..9,
        seed in 0u64..1000,
    ) {
        let x = Tensor::from_fn(src_rows, cols, |r, c| {
            ((seed + (r * cols + c) as u64) as f64 * 0.17).sin()
        });
        let idx: Vec<usize> = (0..n_idx).map(|i| (i * 7 + seed as usize) % src_rows).collect();
        assert_worker_invariant(|| x.gather_rows(&idx).into_vec());
        let y = Tensor::from_fn(n_idx, cols, |r, c| {
            ((seed + (r * cols + c) as u64) as f64 * 0.13).cos()
        });
        assert_worker_invariant(|| y.scatter_add_rows(&idx, src_rows).into_vec());
    }

    /// The tape-level row kernels (fused linear(+ELU), layer norm, ELU) and
    /// a full forward+backward: gradients must also be worker-invariant.
    #[test]
    fn tape_forward_backward_is_worker_invariant(
        rows in 1usize..150,
        in_dim in 1usize..10,
        out_dim in 1usize..10,
        seed in 0u64..1000,
    ) {
        let xv = Tensor::from_fn(rows, in_dim, |r, c| {
            ((seed + (r * in_dim + c) as u64) as f64 * 0.19).sin()
        });
        let wv = Tensor::from_fn(in_dim, out_dim, |r, c| {
            ((seed + (r * out_dim + c) as u64) as f64 * 0.29).cos()
        });
        let bv = Tensor::from_fn(1, out_dim, |_, c| 0.05 * c as f64 - 0.1);
        let gv = Tensor::from_fn(1, out_dim, |_, c| 1.0 + 0.01 * c as f64);
        let bt = Tensor::zeros(1, out_dim);
        let run = || {
            let mut tape = Tape::new();
            let x = tape.leaf(xv.clone());
            let w = tape.leaf(wv.clone());
            let b = tape.leaf(bv.clone());
            let h = tape.linear_elu(x, w, b);
            let gamma = tape.leaf(gv.clone());
            let beta = tape.leaf(bt.clone());
            let h = tape.layer_norm(h, gamma, beta, 1e-5);
            let h = tape.elu(h);
            let s = tape.weighted_sq_sum(h, Arc::new(vec![1.0; rows]));
            let grads = tape.backward(s);
            (
                tape.value(h).clone().into_vec(),
                grads.get(x).unwrap().clone().into_vec(),
                grads.get(w).unwrap().clone().into_vec(),
                grads.get(gamma).unwrap().clone().into_vec(),
            )
        };
        assert_worker_invariant(run);
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
/// cover full and ragged `4 x 8` tiles and several row chunks; `k` sits on
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
            for workers in [1, 2, 3] {
                // A dirty output buffer: the kernel must not read it.
                let mut out = Tensor::full(m, n, f64::NAN);
                rayon::with_num_threads(workers, || x.matmul_tn_into(&g, &mut out));
                let same = out
                    .data()
                    .iter()
                    .zip(&want)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "m={m} n={n} k={k} workers={workers}");
            }
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
    let u = tape.constant_copy(up);
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
/// whole, under two row masks with their backfills, at 1–3 workers, over
/// widths on and off the lockstep ones and row counts around a quad and
/// across a chunk boundary.
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
            for workers in [1, 2, 3] {
                rayon::with_num_threads(workers, || {
                    let whole = taped_layer_norm(&x, &gamma, &beta, &up, None);
                    assert_eq!(bits(&whole), want, "{rows}x{cols}, {workers} workers");
                    for (mask, rest) in &masks {
                        let masked = taped_layer_norm(&x, &gamma, &beta, &up, Some((mask, rest)));
                        assert_eq!(
                            bits(&masked),
                            want,
                            "{rows}x{cols} masked {mask:?}, {workers} workers"
                        );
                    }
                });
            }
        }
    }
}

/// One hidden layer three ways — fused `linear_elu`, `linear` then `elu`,
/// and the fused op filled under a row mask and backfilled — reduced to a
/// scalar and differentiated. Returns the activation and the gradients of
/// `x`, `w`, `b`, plus (unfused only) the adjoint of the pre-activation.
fn hidden_layer(
    (rows, in_dim, out_dim): (usize, usize, usize),
    route: &str,
) -> (Vec<Vec<f64>>, Option<Tensor>) {
    let mut tape = Tape::new();
    let x = tape.leaf(Tensor::from_vec(rows, in_dim, noise(1, rows * in_dim)));
    let w = tape.leaf(Tensor::from_vec(
        in_dim,
        out_dim,
        noise(2, in_dim * out_dim),
    ));
    let b = tape.leaf(Tensor::from_vec(1, out_dim, noise(3, out_dim)));
    let (pre, h) = match route {
        "fused" => (None, tape.linear_elu(x, w, b)),
        "unfused" => {
            let u = tape.linear(x, w, b);
            (Some(u), tape.elu(u))
        }
        "masked" => {
            let (mask, rest): (Vec<usize>, Vec<usize>) = (0..rows).partition(|r| r % 3 != 1);
            tape.begin_row_mask(Arc::new(mask));
            let h = tape.linear_elu(x, w, b);
            tape.end_row_mask(&rest);
            (None, h)
        }
        other => panic!("unknown route {other}"),
    };
    let loss = tape.weighted_sq_sum(h, Arc::new(noise(4, rows)));
    let grads = tape.backward(loss);
    let mut out = vec![tape.value(h).data().to_vec()];
    out.extend([x, w, b].map(|v| grads.get(v).expect("leaf gradient").data().to_vec()));
    (
        out,
        pre.map(|u| grads.get(u).expect("pre-activation adjoint").clone()),
    )
}

/// `linear_elu` ≡ `linear` → `elu` ≡ masked fill + backfill, values and
/// every gradient bit-equal, over shapes with and without tile remainders;
/// and the fused adjoint prologue's bias gradient is the row-ordered
/// column sum of the separately computed `elu'`-scaled adjoint.
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
    for shape in shapes {
        for workers in [1, 2] {
            rayon::with_num_threads(workers, || {
                let (fused, _) = hidden_layer(shape, "fused");
                let (unfused, pre_adjoint) = hidden_layer(shape, "unfused");
                let (masked, _) = hidden_layer(shape, "masked");
                assert!(
                    fused == unfused,
                    "fused vs unfused, {shape:?}, {workers} workers"
                );
                assert!(
                    fused == masked,
                    "fused vs masked, {shape:?}, {workers} workers"
                );

                let scaled = pre_adjoint.expect("unfused route returns it");
                let mut sums = vec![0.0; shape.2];
                for r in 0..scaled.rows() {
                    for (s, &v) in sums.iter_mut().zip(scaled.row(r)) {
                        *s += v;
                    }
                }
                assert!(fused[3] == sums, "bias gradient, {shape:?}");
            });
        }
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
/// bit (against [`naive_gather_linear`]), so neither the row chunking nor
/// the worker count can change it: widths on and off the `4 x 8` tile,
/// edge counts from none to past a chunk boundary at every width, `x` as
/// two gathered parts, 1–3 workers; its store-time ELU is the unfused
/// `elu`'s, and its gradients are the same bits at every worker count.
#[test]
fn gather_linear_is_its_documented_order_bit_for_bit() {
    for h in [3, 8, 12, 32] {
        for (nodes, edges) in [(1, 0), (5, 3), (11, 37), (29, 133), (40, 401)] {
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
            let mut tape = Tape::new();
            let pre = tape.leaf(Tensor::from_vec(
                edges,
                h,
                naive_gather_linear(&parts, &w, &b),
            ));
            let want = tape.elu(pre);
            let want: Vec<u64> = tape
                .value(want)
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let serial =
                rayon::with_num_threads(1, || taped_gather_linear(&x, &e, [&src, &dst], &w, &b));
            let case = format!("h={h} nodes={nodes} edges={edges}");
            assert!(serial[0] == want, "{case}: values");
            for workers in [2, 3] {
                let par = rayon::with_num_threads(workers, || {
                    taped_gather_linear(&x, &e, [&src, &dst], &w, &b)
                });
                assert!(par == serial, "{case}: {workers} workers");
            }
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

/// `elu` of every element, as the tape's unfused `elu` computes it.
fn elu_of(t: Tensor) -> Tensor {
    let mut tape = Tape::new();
    let u = tape.leaf(t);
    let y = tape.elu(u);
    tape.value(y).clone()
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

/// [`naive_dense`]'s outputs from the tape: `linear` or `linear_elu`, then
/// `sum(y ⊙ up)` so that the adjoint reaching `y` is exactly `up`.
fn taped_dense(x: &Tensor, w: &Tensor, b: &Tensor, up: &Tensor, elu: bool) -> Vec<Vec<u64>> {
    let mut tape = Tape::new();
    let [xv, wv, bv] = [x, w, b].map(|t| tape.leaf_copy(t));
    let u = tape.constant_copy(up);
    let y = if elu {
        tape.linear_elu(xv, wv, bv)
    } else {
        tape.linear(xv, wv, bv)
    };
    let yu = tape.mul(y, u);
    let loss = tape.sum(yu);
    let grads = tape.backward(loss);
    let mut out = vec![bits(tape.value(y).data())];
    out.extend([xv, wv, bv].map(|v| bits(grads.get(v).expect("leaf gradient").data())));
    out
}

/// The row GEMM (`linear`, `linear_elu`, the adjoint `g * wᵀ`) and the
/// transposed one (`dw = xᵀ g`) are the serial-order sums, bit for bit,
/// in values and in the x, w and b gradients, at 1–3 workers. The shapes
/// reach every branch: full `4 x 8` tiles, the column tail beside them,
/// the remainder rows below them, `k = 0`, no rows at all, and several
/// row chunks. A `gather_linear` whose gathered part owns a row block of
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
                    for workers in [1, 2, 3] {
                        let got =
                            rayon::with_num_threads(workers, || taped_dense(&x, &w, &b, &up, elu));
                        assert!(
                            got == want,
                            "rows={rows} k={k} n={n} elu={elu} workers={workers}"
                        );
                    }
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
    for workers in [1, 2, 3] {
        let got = rayon::with_num_threads(workers, || {
            let mut tape = Tape::new();
            let [ev, xv, wv, bv] = [&e, &x, &w, &b].map(|t| tape.leaf_copy(t));
            let u = tape.constant_copy(&up);
            let y = tape.gather_linear(&[(ev, None), (xv, Some(Arc::clone(&idx)))], wv, bv);
            let yu = tape.mul(y, u);
            let loss = tape.sum(yu);
            let grads = tape.backward(loss);
            let mut out = vec![bits(tape.value(y).data())];
            out.extend([ev, xv, wv, bv].map(|v| bits(grads.get(v).expect("leaf gradient").data())));
            out
        });
        assert!(got == want, "gather_linear, {workers} workers");
    }
}
