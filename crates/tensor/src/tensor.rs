//! Dense row-major `f64` matrices.
//!
//! Everything flowing through the GNN is a rank-2 tensor: node attribute
//! matrices `[N, F]`, edge attribute matrices `[E, F]`, weight matrices
//! `[in, out]`, and `[1, 1]` scalars. A single concrete 2-D type keeps the
//! autodiff tape simple and the hot loops free of shape-polymorphism.
//!
//! The dominant kernels come in two forms: an allocating convenience
//! (`matmul`, `gather_rows`, ...) and a `*_into` variant writing into a
//! caller-provided tensor, which is what the [`crate::Tape`] workspace uses
//! to recycle buffers across training steps. All `*_into` kernels walk
//! fixed row chunks under the rules of `par.rs`, so a row's bits do not
//! depend on how the rows are partitioned.

use std::fmt;

use crate::par::for_row_chunks;

/// A dense, row-major, heap-allocated `f64` matrix.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor[{}x{}]", self.rows, self.cols)?;
        if self.len() <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Tensor {
    /// Zero-filled `rows x cols` tensor.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            data: vec![0.0; rows * cols],
            rows,
            cols,
        }
    }

    /// Tensor filled with a constant value.
    pub fn full(rows: usize, cols: usize, value: f64) -> Self {
        Tensor {
            data: vec![value; rows * cols],
            rows,
            cols,
        }
    }

    /// Build from an existing buffer; `data.len()` must equal `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Tensor { data, rows, cols }
    }

    /// Reshape a recycled buffer into a `rows x cols` tensor **without**
    /// clearing it: entries carry stale values from the buffer's previous
    /// life, so the caller must overwrite every element. The buffer's
    /// capacity is reused; it only reallocates when it grew too small.
    pub(crate) fn from_pool_uninit(rows: usize, cols: usize, mut buf: Vec<f64>) -> Self {
        let len = rows * cols;
        if buf.len() > len {
            buf.truncate(len);
        } else {
            buf.resize(len, 0.0);
        }
        Tensor {
            data: buf,
            rows,
            cols,
        }
    }

    /// Reshape a recycled buffer into a zero-filled `rows x cols` tensor.
    pub(crate) fn from_pool_zeroed(rows: usize, cols: usize, buf: Vec<f64>) -> Self {
        let mut t = Self::from_pool_uninit(rows, cols, buf);
        t.data.fill(0.0);
        t
    }

    /// 1x1 scalar tensor.
    pub fn scalar(value: f64) -> Self {
        Tensor {
            data: vec![value],
            rows: 1,
            cols: 1,
        }
    }

    /// Build row-by-row from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Tensor { data, rows, cols }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn data(&self) -> &[f64] {
        &self.data
    }

    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrow row `r` as a slice of length `cols`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Value of a 1x1 tensor.
    pub fn item(&self) -> f64 {
        assert_eq!(self.shape(), (1, 1), "item() requires a 1x1 tensor");
        self.data[0]
    }

    /// `self += other` elementwise; shapes must match.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// Overwrite `out` with a copy of `self` (shapes must already match).
    pub fn copy_into(&self, out: &mut Tensor) {
        assert_eq!(self.shape(), out.shape(), "copy_into shape mismatch");
        out.data.copy_from_slice(&self.data);
    }

    /// Elementwise sum of all entries.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Maximum absolute entry (0 for empty tensors).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &v| m.max(v.abs()))
    }

    /// Matrix product `self * rhs` (`[m,k] x [k,n] -> [m,n]`).
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        let mut out = Tensor::from_pool_uninit(self.rows, rhs.cols, Vec::new());
        self.matmul_into(rhs, &mut out);
        out
    }

    /// [`Tensor::matmul`] writing into `out` (must be `[m, n]`).
    ///
    /// Register-blocked microkernel: output tiles of up to `4 x 8` are
    /// accumulated in stack registers across the whole inner dimension,
    /// then stored once — the matrices here are tall-skinny (`N x F` with
    /// small `F`), so the tile accumulators give the multiply and add ports
    /// independent chains (plain IEEE multiplies and adds; no FMA is ever
    /// contracted) while each output element still sums its `k` terms in
    /// the serial order (bit-identical at any chunking). Rows are walked in
    /// chunks per `par.rs`.
    pub fn matmul_into(&self, rhs: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul inner dims: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        assert_eq!(out.shape(), (m, n), "matmul_into output shape");
        let a_data = &self.data;
        let b_data = &rhs.data;
        for_row_chunks(&mut out.data, n, |first_row, nrows, chunk| {
            gemm_rows(a_data, b_data, chunk, first_row, nrows, k, n, None, false);
        });
    }

    /// `self^T * rhs` (`[k,m]^T x [k,n] -> [m,n]`), without materializing the
    /// transpose. Used by matmul backward: `dB = A^T * dC`.
    pub fn matmul_tn(&self, rhs: &Tensor) -> Tensor {
        let mut out = Tensor::from_pool_uninit(self.cols, rhs.cols, Vec::new());
        self.matmul_tn_into(rhs, &mut out);
        out
    }

    /// [`Tensor::matmul_tn`] writing into `out` (must be `[m, n]`).
    ///
    /// The reduction runs over the shared `k` rows (`k` is the tall
    /// dimension here), walked in panels of `tn_panel_rows(m, n)` rows that
    /// fit in L1: every output tile of up to `4 x 8` is loaded from `out`,
    /// accumulates the panel's terms in registers and is stored back, so
    /// the huge operands stream through L1 once per panel instead of
    /// through the outer caches once per tile. Each output element still
    /// sums its `k` terms in the serial `p` order (an `f64` passes through
    /// memory unchanged, so where a panel ends cannot alter a bit) —
    /// per-chunk sequential accumulation, no atomics.
    pub fn matmul_tn_into(&self, rhs: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.rows, rhs.rows,
            "matmul_tn inner dims: ({}x{})^T * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        let (k, m, n) = (self.rows, self.cols, rhs.cols);
        assert_eq!(out.shape(), (m, n), "matmul_tn_into output shape");
        gemm_tn(&self.data, &rhs.data, &mut out.data, k, m, n);
    }

    /// Explicit transpose. The backward pass materializes transposes of the
    /// *small* weight matrices (cheap) so the adjoint products run through
    /// the register-tiled [`Tensor::matmul_into`] kernel.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// [`Tensor::transpose`] writing into `out` (must be `[cols, rows]`).
    pub fn transpose_into(&self, out: &mut Tensor) {
        assert_eq!(
            out.shape(),
            (self.cols, self.rows),
            "transpose_into output shape"
        );
        transpose(&self.data, self.rows, self.cols, &mut out.data);
    }

    /// Gather rows: `out[i] = self[idx[i]]`.
    pub fn gather_rows(&self, idx: &[usize]) -> Tensor {
        let mut out = Tensor::from_pool_uninit(idx.len(), self.cols, Vec::new());
        self.gather_rows_into(idx, &mut out);
        out
    }

    /// [`Tensor::gather_rows`] writing into `out` (must be `[idx.len(), cols]`).
    pub fn gather_rows_into(&self, idx: &[usize], out: &mut Tensor) {
        // Element loop, not copy_from_slice: a per-row memcpy call
        // dominates these narrow (~8-wide) copies.
        self.gather_rows_with(idx, out, |_, o_row, src| {
            for (o, &v) in o_row.iter_mut().zip(src) {
                *o = v;
            }
        });
    }

    /// `out[i] = weights[i] * self[idx[i]]`: the adjoint of
    /// [`Tensor::scatter_add_rows_scaled_into`].
    pub(crate) fn gather_rows_scaled_into(&self, idx: &[usize], weights: &[f64], out: &mut Tensor) {
        assert_eq!(weights.len(), idx.len(), "gather weight length mismatch");
        self.gather_rows_with(idx, out, |i, o_row, src| {
            let w = weights[i];
            for (o, &v) in o_row.iter_mut().zip(src) {
                *o = w * v;
            }
        });
    }

    /// Fill row `i` of `out` (`[idx.len(), cols]`) by `row(i, out_row,
    /// self[idx[i]])`.
    fn gather_rows_with(
        &self,
        idx: &[usize],
        out: &mut Tensor,
        row: impl Fn(usize, &mut [f64], &[f64]),
    ) {
        assert_eq!(
            out.shape(),
            (idx.len(), self.cols),
            "gather_rows_into output shape"
        );
        let cols = self.cols;
        for_row_chunks(&mut out.data, cols, |first_row, _, chunk| {
            for (i, o_row) in chunk.chunks_exact_mut(cols).enumerate() {
                let src = idx[first_row + i];
                debug_assert!(
                    src < self.rows,
                    "gather index {src} out of {} rows",
                    self.rows
                );
                row(first_row + i, o_row, self.row(src));
            }
        });
    }

    /// Scatter-add rows: `out[idx[i]] += self[i]`, with `out` having
    /// `out_rows` rows.
    pub fn scatter_add_rows(&self, idx: &[usize], out_rows: usize) -> Tensor {
        let mut out = Tensor::from_pool_uninit(out_rows, self.cols, Vec::new());
        self.scatter_add_rows_into(idx, &mut out);
        out
    }

    /// [`Tensor::scatter_add_rows`] overwriting `out` (must be
    /// `[out_rows, cols]`; it is zeroed first, previous contents ignored).
    /// Every destination row receives its contributions in input order.
    pub fn scatter_add_rows_into(&self, idx: &[usize], out: &mut Tensor) {
        self.scatter_rows_with(idx, out, |_, d, src| {
            for (o, &s) in d.iter_mut().zip(src) {
                *o += s;
            }
        });
    }

    /// [`Tensor::scatter_add_rows_into`] of the rows scaled by `weights`:
    /// `out[idx[i]] += weights[i] * self[i]` in input order, the bits of
    /// [`Tensor::row_scale_into`] followed by the scatter.
    pub(crate) fn scatter_add_rows_scaled_into(
        &self,
        weights: &[f64],
        idx: &[usize],
        out: &mut Tensor,
    ) {
        assert_eq!(weights.len(), self.rows, "scatter weight length mismatch");
        self.scatter_rows_with(idx, out, |i, d, src| {
            let w = weights[i];
            for (o, &s) in d.iter_mut().zip(src) {
                *o += w * s;
            }
        });
    }

    /// Zero `out` (`[out_rows, cols]`), then `add(i, out[idx[i]], self[i])`
    /// for every row `i` in order.
    fn scatter_rows_with(
        &self,
        idx: &[usize],
        out: &mut Tensor,
        add: impl Fn(usize, &mut [f64], &[f64]),
    ) {
        assert_eq!(idx.len(), self.rows, "scatter index length mismatch");
        assert_eq!(out.cols, self.cols, "scatter_add_rows_into column mismatch");
        let cols = self.cols;
        let out_rows = out.rows;
        // Validate up front so a bad index fails by name, before `out` is
        // touched.
        assert!(
            idx.iter().all(|&d| d < out_rows),
            "scatter index out of {out_rows} rows"
        );
        out.data.fill(0.0);
        for (i, &dst) in idx.iter().enumerate() {
            add(i, &mut out.data[dst * cols..(dst + 1) * cols], self.row(i));
        }
    }

    /// Multiply row `i` by `weights[i]`.
    pub fn row_scale(&self, weights: &[f64]) -> Tensor {
        let mut out = Tensor::from_pool_uninit(self.rows, self.cols, Vec::new());
        self.row_scale_into(weights, &mut out);
        out
    }

    /// [`Tensor::row_scale`] writing into `out` (must match `self`'s shape).
    pub fn row_scale_into(&self, weights: &[f64], out: &mut Tensor) {
        assert_eq!(weights.len(), self.rows, "row_scale weight length mismatch");
        assert_eq!(self.shape(), out.shape(), "row_scale_into output shape");
        let cols = self.cols;
        for_row_chunks(&mut out.data, cols, |first_row, nrows, chunk| {
            for i in 0..nrows {
                let w = weights[first_row + i];
                let src = self.row(first_row + i);
                for (o, &s) in chunk[i * cols..(i + 1) * cols].iter_mut().zip(src.iter()) {
                    *o = w * s;
                }
            }
        });
    }

    /// Maximum relative difference against another tensor, where the
    /// denominator floors at 1 to keep near-zero entries well behaved.
    pub fn max_rel_diff(&self, other: &Tensor) -> f64 {
        assert_eq!(self.shape(), other.shape(), "max_rel_diff shape mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| (a - b).abs() / a.abs().max(b.abs()).max(1.0))
            .fold(0.0_f64, f64::max)
    }
}

/// ELU with alpha = 1: the store-time post-op of the fused linear kernel
/// and the body of the unfused [`crate::Tape::elu`] — the one definition
/// behind the fused, unfused, masked and backfill paths.
#[inline(always)]
pub(crate) fn elu_scalar(x: f64) -> f64 {
    if x < 0.0 {
        exp_nonpos(x) - 1.0
    } else {
        x
    }
}

/// `e^x` for `x <= 0` within 1 ULP (measured; the unit test allows 2), in
/// plain IEEE multiplies and adds: no branch, so the 8-wide store loops
/// around it vectorize, and no libm call (or FMA), so the value is a
/// function of this source alone — the same bits on every host and target
/// feature level.
///
/// `x = k ln2 + r` with `k` rounded to nearest by the add-and-subtract of
/// `1.5 * 2^52` and `|r| <= ln2 / 2` by a two-part `ln2` (the high part
/// has 32 trailing zero bits, so `k * LN2_HI` is exact). `e^r` is
/// `1 + (r + r² q(r))`, where `1 + r + r² q` is the degree-11 polynomial
/// closest to `e^r` in relative error on `|r| <= 1.0001 ln2 / 2` (Remez
/// exchange in 60-digit arithmetic; 3.6e-18 before rounding, 1/30 ULP) and
/// `q` is evaluated as an Estrin tree: its pairs and quads are
/// independent, so the dependency chain from `r` is ten operations deep
/// (Horner's form would chain all 26), and the leading `1 + r` is added
/// last so only the final additions round at the result's scale.
/// `2^k` is built by shifting `k + 1023`, still in the low bits of the
/// shifted sum, into the exponent field. Arguments below -708 are clamped
/// there (the result stays a normal number).
#[inline(always)]
fn exp_nonpos(x: f64) -> f64 {
    const SHIFT: f64 = 6_755_399_441_055_744.0;
    const LN2_HI: f64 = 0.693_147_180_369_123_8;
    const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
    /// Coefficients of `r^2 ..= r^11` (within 0.3 % of `1/i!`).
    const Q: [f64; 10] = [
        0.500_000_000_000_001_1,
        0.166_666_666_666_664_13,
        0.041_666_666_666_530_155,
        0.008_333_333_333_494_461,
        0.001_388_888_894_363_011_4,
        0.000_198_412_695_065_786_88,
        2.480_149_309_890_655e-5,
        2.755_758_637_384_016_5e-6,
        2.763_024_837_921_144e-7,
        2.500_006_160_283_566_6e-8,
    ];
    let x = x.max(-708.0);
    let shifted = x * std::f64::consts::LOG2_E + SHIFT;
    let k = shifted - SHIFT;
    let r = (x - k * LN2_HI) - k * LN2_LO;
    let r2 = r * r;
    let r4 = r2 * r2;
    let q0 = (Q[0] + Q[1] * r) + (Q[2] + Q[3] * r) * r2;
    let q1 = (Q[4] + Q[5] * r) + (Q[6] + Q[7] * r) * r2;
    let q = (q0 + q1 * r4) + (Q[8] + Q[9] * r) * (r4 * r4);
    (1.0 + (r + r2 * q)) * f64::from_bits(shifted.to_bits().wrapping_add(1023) << 52)
}

/// Register-blocked row-band GEMM shared by [`Tensor::matmul_into`] and the
/// tape's fused linear kernel: computes `nrows` rows of `A * B` (rows
/// `first_row..` of `A`, `[k, n]` `B`) into `chunk`, with accumulator tiles
/// of up to `4 x 8` initialized to `bias` (or zero) and held in registers
/// across the whole `k` loop. Every output element accumulates its `k`
/// terms in the serial order, so tiling never changes a bit.
///
/// Slicing rule for the kernels below: each cuts its operand slices once
/// per tile or row — `A`'s rows as `&a[row * k..][..k]`, `B` walked as
/// `b[..k * n].chunks_exact(n)` — so the `k` loop does no per-term index
/// arithmetic and no per-term bounds check. At these sizes the operands
/// sit in L1/L2 and the loop is bound by issue slots, which per-term index
/// work would take from the multiplies and adds.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_rows(
    a: &[f64],
    b: &[f64],
    chunk: &mut [f64],
    first_row: usize,
    nrows: usize,
    k: usize,
    n: usize,
    bias: Option<&[f64]>,
    elu: bool,
) {
    if k == 0 {
        match bias {
            Some(bias) => {
                for i in 0..nrows {
                    chunk[i * n..(i + 1) * n].copy_from_slice(bias);
                }
            }
            None => chunk.fill(0.0),
        }
        if elu {
            for v in chunk[..nrows * n].iter_mut() {
                *v = elu_scalar(*v);
            }
        }
        return;
    }
    let mut i0 = 0;
    // Full 4-row bands go through the fixed-shape tile kernel (constant
    // loop bounds keep the accumulators in SIMD registers); the remainder
    // rows fall back to the generic row loop with identical per-element
    // arithmetic order.
    while i0 + 4 <= nrows {
        let mut j0 = 0;
        while j0 + 8 <= n {
            gemm_tile_4x8(a, b, chunk, first_row, i0, j0, k, n, bias, elu);
            j0 += 8;
        }
        if j0 < n {
            for r in 0..4 {
                gemm_row_generic(a, b, chunk, first_row, i0 + r, j0, n - j0, k, n, bias, elu);
            }
        }
        i0 += 4;
    }
    while i0 < nrows {
        gemm_row_generic(a, b, chunk, first_row, i0, 0, n, k, n, bias, elu);
        i0 += 1;
    }
}

/// Fixed `4 x 8` register tile of [`gemm_rows`]: accumulates 32 outputs in
/// registers over the whole `k` loop, each in serial term order.
#[allow(clippy::too_many_arguments)]
#[inline]
fn gemm_tile_4x8(
    a: &[f64],
    b: &[f64],
    chunk: &mut [f64],
    first_row: usize,
    i0: usize,
    j0: usize,
    k: usize,
    n: usize,
    bias: Option<&[f64]>,
    elu: bool,
) {
    let mut acc = [[0.0f64; 8]; 4];
    if let Some(bias) = bias {
        let init: &[f64; 8] = bias[j0..j0 + 8].try_into().expect("bias tile");
        acc.fill(*init);
    }
    let a_rows: [&[f64]; 4] = std::array::from_fn(|r| &a[(first_row + i0 + r) * k..][..k]);
    for (p, b_row) in (0..k).zip(b[..k * n].chunks_exact(n)) {
        let b_row: &[f64; 8] = b_row[j0..j0 + 8]
            .try_into()
            .expect("j0 + 8 <= n: caller tiles n in full 8-wide blocks");
        for (acc_row, a_row) in acc.iter_mut().zip(&a_rows) {
            let a_val = a_row[p];
            for t in 0..8 {
                acc_row[t] += a_val * b_row[t];
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        let o = &mut chunk[(i0 + r) * n + j0..(i0 + r) * n + j0 + 8];
        if elu {
            for (ov, &av) in o.iter_mut().zip(acc_row.iter()) {
                *ov = elu_scalar(av);
            }
        } else {
            o.copy_from_slice(acc_row);
        }
    }
}

/// The body of [`Tensor::transpose_into`] over raw row-major buffers:
/// `out = srcᵀ` for a `[rows, cols]` `src`; `src` may be a row block of a
/// larger `cols`-wide tensor.
pub(crate) fn transpose(src: &[f64], rows: usize, cols: usize, out: &mut [f64]) {
    debug_assert_eq!((src.len(), out.len()), (rows * cols, rows * cols));
    for r in 0..rows {
        for c in 0..cols {
            out[c * rows + r] = src[r * cols + c];
        }
    }
}

/// The body of [`Tensor::matmul_tn_into`] over raw row-major buffers:
/// `out = aᵀ * b` for `[k, m]` `a` and `[k, n]` `b`; `out` may be a row
/// block of a larger `n`-wide tensor.
///
/// Slicing rule, as for [`gemm_rows`]: a tile or element walks its panel
/// as `a[..k * m].chunks_exact(m)` zipped with `b[..k * n].chunks_exact(n)`,
/// one row pair per `p`, so the `p` loop does no per-term index
/// arithmetic or bounds check.
pub(crate) fn gemm_tn(a: &[f64], b: &[f64], out: &mut [f64], k: usize, m: usize, n: usize) {
    debug_assert_eq!((a.len(), b.len()), (k * m, k * n));
    debug_assert_eq!(out.len(), m * n);
    let panel = tn_panel_rows(m, n);
    for_row_chunks(out, n, |first_row, nrows, chunk| {
        chunk.fill(0.0);
        for p0 in (0..k).step_by(panel) {
            let kp = panel.min(k - p0);
            let a = &a[p0 * m..(p0 + kp) * m];
            let b = &b[p0 * n..(p0 + kp) * n];
            let mut i0 = 0;
            while i0 + 4 <= nrows {
                let mut j0 = 0;
                while j0 + 8 <= n {
                    gemm_tn_tile_4x8(a, b, chunk, first_row, i0, j0, kp, m, n);
                    j0 += 8;
                }
                while j0 < n {
                    for r in 0..4 {
                        gemm_tn_elem(a, b, chunk, first_row, i0 + r, j0, kp, m, n);
                    }
                    j0 += 1;
                }
                i0 += 4;
            }
            while i0 < nrows {
                for j0 in 0..n {
                    gemm_tn_elem(a, b, chunk, first_row, i0, j0, kp, m, n);
                }
                i0 += 1;
            }
        }
    });
}

/// Rows of the shared `k` dimension per panel of
/// [`Tensor::matmul_tn_into`]: a panel of both operands (`m + n` values per
/// row) stays within 16 KiB, half of the smallest L1 data cache in use. A
/// pure function of the shape — and no function of it can change a bit.
fn tn_panel_rows(m: usize, n: usize) -> usize {
    (2048 / (m + n).max(1)).max(8)
}

/// Fixed `4 x 8` register tile of [`Tensor::matmul_tn_into`]: adds one
/// `k`-row panel's terms to the tile of `chunk`, which stays in registers
/// across the panel, each output element accumulating in the serial `p`
/// order.
#[allow(clippy::too_many_arguments)]
#[inline]
fn gemm_tn_tile_4x8(
    a: &[f64],
    b: &[f64],
    chunk: &mut [f64],
    first_row: usize,
    i0: usize,
    j0: usize,
    k: usize,
    m: usize,
    n: usize,
) {
    let mut acc = [[0.0f64; 8]; 4];
    for (r, acc_row) in acc.iter_mut().enumerate() {
        acc_row.copy_from_slice(&chunk[(i0 + r) * n + j0..(i0 + r) * n + j0 + 8]);
    }
    let col = first_row + i0;
    for (a_row, b_row) in a[..k * m].chunks_exact(m).zip(b[..k * n].chunks_exact(n)) {
        let a_col: &[f64; 4] = a_row[col..col + 4]
            .try_into()
            .expect("col + 4 <= m: caller tiles m in full 4-high blocks");
        let b_row: &[f64; 8] = b_row[j0..j0 + 8]
            .try_into()
            .expect("j0 + 8 <= n: caller tiles n in full 8-wide blocks");
        for (acc_row, &a_val) in acc.iter_mut().zip(a_col.iter()) {
            for t in 0..8 {
                acc_row[t] += a_val * b_row[t];
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        chunk[(i0 + r) * n + j0..(i0 + r) * n + j0 + 8].copy_from_slice(acc_row);
    }
}

/// Scalar edge element of [`Tensor::matmul_tn_into`]: one panel's terms
/// added to `chunk[i, j]`, same term order.
#[allow(clippy::too_many_arguments)]
#[inline]
fn gemm_tn_elem(
    a: &[f64],
    b: &[f64],
    chunk: &mut [f64],
    first_row: usize,
    i: usize,
    j: usize,
    k: usize,
    m: usize,
    n: usize,
) {
    let mut acc = chunk[i * n + j];
    for (a_row, b_row) in a[..k * m].chunks_exact(m).zip(b[..k * n].chunks_exact(n)) {
        acc += a_row[first_row + i] * b_row[j];
    }
    chunk[i * n + j] = acc;
}

/// Generic edge path of [`gemm_rows`]: one output row, columns
/// `[j0, j0 + width)`, same per-element accumulation order as the tiles.
#[allow(clippy::too_many_arguments)]
#[inline]
fn gemm_row_generic(
    a: &[f64],
    b: &[f64],
    chunk: &mut [f64],
    first_row: usize,
    i: usize,
    j0: usize,
    width: usize,
    k: usize,
    n: usize,
    bias: Option<&[f64]>,
    elu: bool,
) {
    let o_row = &mut chunk[i * n + j0..i * n + j0 + width];
    match bias {
        Some(bias) => o_row.copy_from_slice(&bias[j0..j0 + width]),
        None => o_row.fill(0.0),
    }
    let a_row = &a[(first_row + i) * k..][..k];
    for (&a_val, b_row) in a_row.iter().zip(b[..k * n].chunks_exact(n)) {
        for (o, &bv) in o_row.iter_mut().zip(&b_row[j0..]) {
            *o += a_val * bv;
        }
    }
    if elu {
        for o in o_row.iter_mut() {
            *o = elu_scalar(*o);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small_known() {
        let a = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_tn_agrees_with_explicit_transpose() {
        let a = Tensor::from_fn(4, 3, |r, c| (r * 3 + c) as f64 * 0.5 - 1.0);
        let c = Tensor::from_fn(4, 5, |r, c| ((r + c) as f64).sin());
        let tn = a.matmul_tn(&c);
        let reference = a.transpose().matmul(&c);
        assert!(tn.max_rel_diff(&reference) < 1e-14);
    }

    #[test]
    fn exp_nonpos_is_within_two_ulp_of_libm() {
        let ulps = |x: f64| (exp_nonpos(x).to_bits() as i64 - x.exp().to_bits() as i64).abs();
        let mut worst = 0;
        // Dense sweeps of the whole domain and of the range activations
        // live in, then seeded random points of both.
        for i in 0..=1_000_000 {
            let t = i as f64 / 1e6;
            worst = worst.max(ulps(-708.0 * t)).max(ulps(-40.0 * t));
        }
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        for _ in 0..1_000_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let t = (state >> 11) as f64 / (1u64 << 53) as f64;
            worst = worst.max(ulps(-708.0 * t)).max(ulps(-t));
        }
        assert!(worst <= 2, "exp_nonpos is {worst} ULP from f64::exp");
    }

    #[test]
    fn exp_nonpos_edges() {
        assert_eq!(exp_nonpos(0.0), 1.0);
        assert_eq!(exp_nonpos(-0.0), 1.0);
        let floor = exp_nonpos(-708.0);
        assert!(floor.is_normal() && floor > 0.0);
        for x in [-708.000_000_1, -709.0, -745.2, -1e300, f64::NEG_INFINITY] {
            assert_eq!(exp_nonpos(x), floor, "x={x}");
        }
        assert_eq!(elu_scalar(f64::NEG_INFINITY), floor - 1.0);
        assert!(elu_scalar(f64::NAN).is_nan());
    }

    #[test]
    fn gather_scatter_roundtrip_sums() {
        // scatter_add(gather(x, idx), idx) multiplies each row by its
        // multiplicity in idx.
        let x = Tensor::from_fn(3, 2, |r, c| (r * 2 + c) as f64);
        let idx = vec![0, 1, 1, 2, 2, 2];
        let g = x.gather_rows(&idx);
        let s = g.scatter_add_rows(&idx, 3);
        for r in 0..3 {
            let mult = (r + 1) as f64;
            for c in 0..2 {
                assert_eq!(s.get(r, c), mult * x.get(r, c));
            }
        }
    }

    #[test]
    fn row_scale_scales_rows() {
        let a = Tensor::from_vec(2, 2, vec![1., 2., 3., 4.]);
        let s = a.row_scale(&[2.0, 0.5]);
        assert_eq!(s.data(), &[2., 4., 1.5, 2.]);
    }

    #[test]
    #[should_panic(expected = "matmul inner dims")]
    fn matmul_shape_mismatch_panics() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(4.25).item(), 4.25);
    }

    #[test]
    fn into_variants_reuse_capacity_and_match() {
        let a = Tensor::from_fn(37, 5, |r, c| ((r * 5 + c) as f64 * 0.3).sin());
        let b = Tensor::from_fn(5, 9, |r, c| ((r + 2 * c) as f64 * 0.17).cos());
        let fresh = a.matmul(&b);
        let mut out = Tensor::from_pool_uninit(37, 9, vec![7.0; 1000]);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, fresh);
    }

    #[test]
    #[should_panic(expected = "scatter index out of")]
    fn scatter_index_out_of_range_panics_by_name() {
        let x = Tensor::zeros(3, 2);
        let _ = x.scatter_add_rows(&[0, 4, 1], 4);
    }
}
