//! Tape-based reverse-mode automatic differentiation.
//!
//! Each rank (thread) owns one [`Tape`] per forward pass. Operations append
//! nodes recording the op kind and parent variables; [`Tape::backward`]
//! walks the nodes in reverse, propagating adjoints. Distributed operations
//! (halo swaps, all-reduces) are [`CustomOp`]s whose backward closures carry
//! a communicator handle — this is the Rust analogue of the differentiable
//! `torch.distributed.nn` routines the paper relies on for Eq. (3).
//!
//! ## Reusable workspace
//!
//! A training loop records thousands of tape ops per mini-batch, and every
//! op produces a tensor. Instead of allocating each one fresh, the tape
//! owns a buffer pool: [`Tape::reset`] returns all node values (and, via
//! [`Tape::recycle`], gradient tensors) to the pool, and subsequent ops
//! draw recycled buffers in recording order. Because the op sequence of a
//! training step is identical from step to step, every op gets back a
//! buffer of exactly the right capacity — steady-state steps perform no
//! heap allocation in the tensor hot path. Arithmetic is unaffected:
//! recycled buffers are fully overwritten (or zeroed where kernels
//! accumulate), so a reset tape replays bit-identically to a fresh one.
//!
//! The pool is **closed**: it takes back only as many buffers of a length
//! as it has handed out. A tensor that entered from outside
//! ([`Tape::leaf`], a [`CustomOp`] gradient) is dropped at `reset` /
//! `recycle` unless a pool-born buffer of its length left for good, so
//! the pool never holds more than the high-water mark of one step.
//!
//! An adjoint is held only while it is live. [`Tape::backward`] keeps the
//! adjoints of leaves; every other adjoint goes back to the pool as
//! soon as its node has been propagated (a pass-through adjoint — `add`,
//! `sub`, `add_row` — moves on to a parent instead of being copied), so
//! the next scratch tensor of its length reuses a buffer that is still in
//! cache and the backward pass never holds a second copy of the forward.

use std::sync::Arc;

use crate::par::{ew_map, ew_zip, for_row_chunks};
use crate::tensor::{elu_scalar, gemm_rows, gemm_tn, transpose, Tensor};

/// Handle to a variable on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(pub(crate) usize);

/// A user-defined differentiable operation.
///
/// `backward` receives the adjoint of the op output plus the recorded input
/// values, and returns one adjoint per input (or `None` for inputs that do
/// not need gradients). Implementations may perform communication; all ranks
/// replay their tapes in the same order, so collective calls match up.
pub trait CustomOp: Send {
    /// Human-readable op name for debugging.
    fn name(&self) -> &'static str;

    /// Compute input adjoints given the output adjoint.
    fn backward(&self, grad_out: &Tensor, inputs: &[&Tensor]) -> Vec<Option<Tensor>>;
}

/// One input of a fused gather-concatenate (see [`Tape::gather_concat`])
/// or gather-linear ([`Tape::gather_linear`]): a source variable and,
/// optionally, the row indices to gather from it (`None` streams the
/// source's rows through directly).
pub(crate) struct GatherPart {
    src: VarId,
    idx: Option<Arc<Vec<usize>>>,
    cols: usize,
}

pub(crate) enum Op {
    /// Input / parameter: no parents.
    Leaf,
    /// Input that takes no gradient: no parents, and no adjoint is ever
    /// computed for it (see [`Tape::constant_copy`]).
    Constant,
    /// `C = A * B`
    Matmul(VarId, VarId),
    /// `C[i, :] = b[0, :] + A[i, :] * W`, optionally passed through ELU at
    /// store time — the fused linear(+activation) layer.
    Linear {
        x: VarId,
        w: VarId,
        b: VarId,
        elu: bool,
    },
    /// `C = A + B` (same shape)
    Add(VarId, VarId),
    /// `C = A - B` (same shape)
    Sub(VarId, VarId),
    /// `C = A ⊙ B` (Hadamard)
    Mul(VarId, VarId),
    /// `C[i, :] = A[i, :] + bias[0, :]`
    AddRow(VarId, VarId),
    /// `C = alpha * A`
    Scale(VarId, f64),
    /// Fused gather + column concatenation:
    /// `C[i, :] = [P0[idx0[i]] | P1[idx1[i]] | ...]` (`None` index = row i).
    GatherConcat(Vec<GatherPart>),
    /// [`Op::Linear`] over the [`Op::GatherConcat`] of `parts`, without the
    /// concatenation: `C[i, :] = b + sum_p P_p[idx_p[i], :] * W_p`, `W_p` the
    /// row block of `w` part `p` owns; ELU at store time.
    GatherLinear {
        parts: Vec<GatherPart>,
        w: VarId,
        b: VarId,
    },
    /// `C[i] = A[idx[i]]`
    GatherRows(VarId, Arc<Vec<usize>>, usize),
    /// `C[idx[i]] += A[i]`, C has `out_rows` rows.
    ScatterAddRows(VarId, Arc<Vec<usize>>),
    /// `C[i, :] = w[i] * A[i, :]` with constant weights.
    RowScale(VarId, Arc<Vec<f64>>),
    /// `C[idx[i]] += w[i] * A[i]` with constant weights: [`Op::RowScale`]
    /// then [`Op::ScatterAddRows`] without the scaled copy.
    ScatterAddScaled(VarId, Arc<Vec<f64>>, Arc<Vec<usize>>),
    /// ELU activation (alpha = 1).
    Elu(VarId),
    /// Row-wise layer normalization with learned gain/bias.
    LayerNorm {
        x: VarId,
        gamma: VarId,
        beta: VarId,
        eps: f64,
    },
    /// `c = sum_i w[i] * sum_j A[i,j]^2` (scalar); weights constant.
    WeightedSqSum(VarId, Arc<Vec<f64>>),
    /// `c = sum_ij A[i,j]` (scalar).
    Sum(VarId),
    /// User-defined op (e.g. halo exchange, all-reduce).
    Custom {
        inputs: Vec<VarId>,
        op: Box<dyn CustomOp>,
    },
}

pub(crate) struct Node {
    pub value: Tensor,
    pub op: Op,
}

/// Recycled `f64` buffers, bucketed by length: a training step replays the
/// same op sequence every iteration, so every request finds a bucket with a
/// buffer of exactly the right size — no reallocation, no zero-fill of
/// grown tails, steady-state steps allocate nothing.
///
/// Each bucket counts the buffers it has lent and [`BufPool::put`] takes a
/// buffer back only against that count, so `free + lent` of a length grows
/// only when a `take` finds the bucket empty: the pool holds at most one
/// step's high-water mark however many foreign tensors pass through.
#[derive(Default)]
struct BufPool {
    by_len: std::collections::BTreeMap<usize, Bucket>,
}

#[derive(Default)]
struct Bucket {
    free: Vec<Vec<f64>>,
    lent: usize,
}

impl BufPool {
    fn take(&mut self, len: usize) -> Vec<f64> {
        let bucket = self.by_len.entry(len).or_default();
        bucket.lent += 1;
        bucket.free.pop().unwrap_or_default()
    }

    /// The only way into the pool: `buf` is kept if a buffer of its length
    /// is still out on loan, dropped otherwise.
    fn put(&mut self, buf: Vec<f64>) {
        if let Some(bucket) = self.by_len.get_mut(&buf.len()) {
            if bucket.lent > 0 {
                bucket.lent -= 1;
                bucket.free.push(buf);
            }
        }
    }

    fn uninit(&mut self, rows: usize, cols: usize) -> Tensor {
        Tensor::from_pool_uninit(rows, cols, self.take(rows * cols))
    }

    fn zeroed(&mut self, rows: usize, cols: usize) -> Tensor {
        Tensor::from_pool_zeroed(rows, cols, self.take(rows * cols))
    }

    fn scalar(&mut self, value: f64) -> Tensor {
        let mut out = self.uninit(1, 1);
        out.data_mut()[0] = value;
        out
    }

    fn copy_of(&mut self, t: &Tensor) -> Tensor {
        let mut out = self.uninit(t.rows(), t.cols());
        t.copy_into(&mut out);
        out
    }
}

/// Active row-masked recording region (see [`Tape::begin_row_mask`]).
struct RowMask {
    rows: Arc<Vec<usize>>,
    first_node: usize,
}

/// Reverse-mode autodiff tape.
///
/// ```
/// use cgnn_tensor::{Tape, Tensor};
/// let mut tape = Tape::new();
/// let x = tape.leaf(Tensor::from_vec(1, 2, vec![3.0, -1.0]));
/// let y = tape.mul(x, x); // elementwise square
/// let s = tape.sum(y);
/// let grads = tape.backward(s);
/// assert_eq!(grads.get(x).unwrap().data(), &[6.0, -2.0]);
/// ```
pub struct Tape {
    nodes: Vec<Node>,
    pool: BufPool,
    mask: Option<RowMask>,
}

/// Gradients produced by [`Tape::backward`], indexed by [`VarId`]: one
/// per participating leaf; every interior adjoint was released during
/// the pass.
pub struct Gradients {
    grads: Vec<Option<Tensor>>,
}

impl Gradients {
    /// Gradient of the loss w.r.t. variable `id`, if it participated and
    /// is a leaf.
    pub fn get(&self, id: VarId) -> Option<&Tensor> {
        self.grads.get(id.0).and_then(|g| g.as_ref())
    }

    /// Remove and return the gradient for `id`.
    pub fn take(&mut self, id: VarId) -> Option<Tensor> {
        self.grads.get_mut(id.0).and_then(|g| g.take())
    }
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl Tape {
    pub fn new() -> Self {
        Tape {
            nodes: Vec::new(),
            pool: BufPool::default(),
            mask: None,
        }
    }

    /// Enter **row-masked recording**: until [`Tape::end_row_mask`], the
    /// row-separable ops ([`Tape::linear`], [`Tape::elu`],
    /// [`Tape::layer_norm`], [`Tape::gather_concat`]) compute their values
    /// only for the given output rows; the remaining rows hold stale
    /// buffer contents until the closing backfill overwrites them.
    ///
    /// This is the mechanism behind true compute/communication overlap:
    /// the NMP layer records the node-MLP chain monolithically (so the
    /// backward pass is the ordinary full-tensor one, bit-identical to the
    /// non-overlapped schedule) while computing interior rows inside the
    /// halo-exchange window and boundary rows after it.
    ///
    /// # Panics
    /// If a mask is already active, or an unsupported op is recorded while
    /// masked.
    pub fn begin_row_mask(&mut self, rows: Arc<Vec<usize>>) {
        assert!(self.mask.is_none(), "row mask already active");
        self.mask = Some(RowMask {
            rows,
            first_node: self.nodes.len(),
        });
    }

    /// Close the row-masked region: compute the `complement` rows of every
    /// node recorded since [`Tape::begin_row_mask`], in recording order.
    /// Together the mask rows and `complement` must cover every output row
    /// that is ever read (in practice: they partition the row space).
    pub fn end_row_mask(&mut self, complement: &[usize]) {
        let mask = self.mask.take().expect("no row mask active");
        for i in mask.first_node..self.nodes.len() {
            let (before, rest) = self.nodes.split_at_mut(i);
            let Node { value, op, .. } = &mut rest[0];
            RowKernel::of(before, op).fill(value, complement);
        }
    }

    /// Record a row-separable op with a `[rows, cols]` value: every row is
    /// computed now, or only the mask rows while a row mask is active
    /// ([`Tape::end_row_mask`] computes the rest) — by the same kernel, so
    /// a value assembled from any partition of its rows is bit-identical
    /// to the one computed whole.
    fn record_rows(&mut self, rows: usize, cols: usize, op: Op) -> VarId {
        let mut out = self.pool.uninit(rows, cols);
        {
            let kernel = RowKernel::of(&self.nodes, &op);
            match &self.mask {
                Some(mask) => kernel.fill(&mut out, &mask.rows),
                None => for_row_chunks(out.data_mut(), cols, |first_row, nrows, chunk| {
                    kernel.run(chunk, cols, first_row, nrows);
                }),
            }
        }
        self.push(out, op)
    }

    /// Guard for ops that cannot participate in a row-masked region.
    fn assert_unmasked(&self, what: &str) {
        assert!(
            self.mask.is_none(),
            "{what} is not supported under an active row mask"
        );
    }

    /// Clear all recorded nodes while **keeping** their buffers (and the
    /// node-list capacity) for the next recording. The next forward pass
    /// draws recycled buffers instead of allocating; arithmetic is
    /// unaffected (every kernel fully overwrites or zero-initializes its
    /// output), so a reset tape replays bit-identically to a fresh one.
    pub fn reset(&mut self) {
        for node in self.nodes.drain(..) {
            self.pool.put(node.value.into_vec());
        }
    }

    /// Return gradient tensors to the workspace pool (the natural follow-up
    /// to [`Tape::backward`] once the gradients have been consumed).
    pub fn recycle(&mut self, grads: Gradients) {
        for g in grads.grads.into_iter().flatten() {
            self.pool.put(g.into_vec());
        }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Value of a recorded variable.
    pub fn value(&self, id: VarId) -> &Tensor {
        &self.nodes[id.0].value
    }

    /// Copy of a recorded value, drawn from the workspace pool (for callers
    /// that need an owned tensor to mutate, e.g. halo accumulation).
    pub fn value_copy(&mut self, id: VarId) -> Tensor {
        self.pool.copy_of(&self.nodes[id.0].value)
    }

    /// Number of `f64`s parked in the workspace pool, i.e. held for reuse
    /// and not part of any recorded value or outstanding gradient. Flat
    /// from step to step once the pool has seen one full step.
    pub fn pooled_len(&self) -> usize {
        let parked = |(len, bucket): (&usize, &Bucket)| len * bucket.free.len();
        self.pool.by_len.iter().map(parked).sum()
    }

    /// Mutable access to a recorded value — the completion hook of the
    /// split-phase halo exchange, which accumulates arrived halos into the
    /// boundary rows of an already-recorded sync node. Callers must finish
    /// all mutation before any later op (or the backward pass) reads the
    /// affected rows.
    pub fn value_mut(&mut self, id: VarId) -> &mut Tensor {
        &mut self.nodes[id.0].value
    }

    fn push(&mut self, value: Tensor, op: Op) -> VarId {
        self.nodes.push(Node { value, op });
        VarId(self.nodes.len() - 1)
    }

    /// Record an input or parameter tensor.
    pub fn leaf(&mut self, t: Tensor) -> VarId {
        self.push(t, Op::Leaf)
    }

    /// Record a leaf by copying `t` into a recycled buffer — the
    /// allocation-free way to feed per-step inputs (parameters, features)
    /// to a reused tape.
    pub fn leaf_copy(&mut self, t: &Tensor) -> VarId {
        let v = self.pool.copy_of(t);
        self.push(v, Op::Leaf)
    }

    /// [`Tape::leaf_copy`] for an input nothing differentiates against
    /// (features, a loss target): [`Tape::backward`] computes no adjoint
    /// for it — the ops that read it skip that product — so its
    /// [`Gradients::get`] is `None`. Every other gradient is bit-equal to
    /// the one the same pass gives with the input recorded as a leaf.
    pub fn constant_copy(&mut self, t: &Tensor) -> VarId {
        let v = self.pool.copy_of(t);
        self.push(v, Op::Constant)
    }

    /// `a * b` (matrix product).
    pub fn matmul(&mut self, a: VarId, b: VarId) -> VarId {
        self.assert_unmasked("matmul");
        let len = self.value(a).rows() * self.value(b).cols();
        let buf = self.pool.take(len);
        let (va, vb) = (self.value(a), self.value(b));
        let mut out = Tensor::from_pool_uninit(va.rows(), vb.cols(), buf);
        va.matmul_into(vb, &mut out);
        self.push(out, Op::Matmul(a, b))
    }

    /// Fused linear layer `x * w + b` (`b` is a `[1, out]` row broadcast
    /// over rows): one kernel, one output tensor, instead of a matmul
    /// followed by a broadcast add.
    pub fn linear(&mut self, x: VarId, w: VarId, b: VarId) -> VarId {
        self.linear_impl(x, w, b, false)
    }

    /// [`Tape::linear`] with ELU (alpha = 1) applied as the kernel's
    /// store-time post-op: `elu(x * w + b)` as **one** op and one tensor —
    /// the hidden-layer body of every MLP in the model.
    pub fn linear_elu(&mut self, x: VarId, w: VarId, b: VarId) -> VarId {
        self.linear_impl(x, w, b, true)
    }

    fn linear_impl(&mut self, x: VarId, w: VarId, b: VarId, elu: bool) -> VarId {
        let (vx, vw, vb) = (self.value(x), self.value(w), self.value(b));
        assert_eq!(
            vx.cols(),
            vw.rows(),
            "linear inner dims: {}x{} * {}x{}",
            vx.rows(),
            vx.cols(),
            vw.rows(),
            vw.cols()
        );
        assert_eq!(vb.shape(), (1, vw.cols()), "linear bias shape");
        self.record_rows(vx.rows(), vw.cols(), Op::Linear { x, w, b, elu })
    }

    /// `a + b` elementwise.
    pub fn add(&mut self, a: VarId, b: VarId) -> VarId {
        self.assert_unmasked("add");
        let buf = self.pool.take(self.value(a).len());
        let (va, vb) = (self.value(a), self.value(b));
        assert_eq!(va.shape(), vb.shape(), "add shape mismatch");
        let mut out = Tensor::from_pool_uninit(va.rows(), va.cols(), buf);
        ew_zip(va.data(), vb.data(), va.cols(), out.data_mut(), |x, y| {
            x + y
        });
        self.push(out, Op::Add(a, b))
    }

    /// `a - b` elementwise.
    pub fn sub(&mut self, a: VarId, b: VarId) -> VarId {
        self.assert_unmasked("sub");
        let buf = self.pool.take(self.value(a).len());
        let (va, vb) = (self.value(a), self.value(b));
        assert_eq!(va.shape(), vb.shape(), "sub shape mismatch");
        let mut out = Tensor::from_pool_uninit(va.rows(), va.cols(), buf);
        ew_zip(va.data(), vb.data(), va.cols(), out.data_mut(), |x, y| {
            x - y
        });
        self.push(out, Op::Sub(a, b))
    }

    /// `a ⊙ b` elementwise product.
    pub fn mul(&mut self, a: VarId, b: VarId) -> VarId {
        self.assert_unmasked("mul");
        let buf = self.pool.take(self.value(a).len());
        let (va, vb) = (self.value(a), self.value(b));
        assert_eq!(va.shape(), vb.shape(), "mul shape mismatch");
        let mut out = Tensor::from_pool_uninit(va.rows(), va.cols(), buf);
        ew_zip(va.data(), vb.data(), va.cols(), out.data_mut(), |x, y| {
            x * y
        });
        self.push(out, Op::Mul(a, b))
    }

    /// Broadcast-add a `[1, n]` bias row to every row of `a`.
    pub fn add_row(&mut self, a: VarId, bias: VarId) -> VarId {
        self.assert_unmasked("add_row");
        let buf = self.pool.take(self.value(a).len());
        let (va, vb) = (self.value(a), self.value(bias));
        assert_eq!(vb.rows(), 1, "bias must be a row vector");
        assert_eq!(va.cols(), vb.cols(), "bias width mismatch");
        let cols = va.cols();
        let mut out = Tensor::from_pool_uninit(va.rows(), cols, buf);
        let a_data = va.data();
        let b_row = vb.data();
        for_row_chunks(out.data_mut(), cols, |first_row, nrows, chunk| {
            for i in 0..nrows {
                let src = &a_data[(first_row + i) * cols..(first_row + i + 1) * cols];
                let dst = &mut chunk[i * cols..(i + 1) * cols];
                for ((o, &x), &b) in dst.iter_mut().zip(src.iter()).zip(b_row.iter()) {
                    *o = x + b;
                }
            }
        });
        self.push(out, Op::AddRow(a, bias))
    }

    /// `alpha * a`.
    pub fn scale(&mut self, a: VarId, alpha: f64) -> VarId {
        self.assert_unmasked("scale");
        let buf = self.pool.take(self.value(a).len());
        let va = self.value(a);
        let mut out = Tensor::from_pool_uninit(va.rows(), va.cols(), buf);
        ew_map(va.data(), va.cols(), out.data_mut(), |x| alpha * x);
        self.push(out, Op::Scale(a, alpha))
    }

    /// Fused gather + column concatenation — the message-passing prologue
    /// `[x[src] | x[dst] | e]` as **one** kernel and one output tensor.
    /// Each part is `(variable, Some(row indices))` to gather, or
    /// `(variable, None)` to stream the variable's rows through directly.
    /// All gathered index lists must share one length; `None` parts must
    /// have exactly that many rows.
    pub fn gather_concat(&mut self, parts: &[(VarId, Option<Arc<Vec<usize>>>)]) -> VarId {
        let (rows, meta) = self.gather_parts(parts);
        let cols = meta.iter().map(|p| p.cols).sum();
        self.record_rows(rows, cols, Op::GatherConcat(meta))
    }

    /// The first layer of an ELU MLP over a [`Tape::gather_concat`] of
    /// `parts` — `linear_elu(gather_concat(parts), w, b)` — without the
    /// concatenation: a part gathered by `idx` is
    /// multiplied by its row block `W_p` of `w` once per *source* row and
    /// the products are gathered, so the message-passing edge update
    /// `[x[src] | x[dst] | e] * W` costs two node-row products and one
    /// edge-row product instead of one edge-row product three times as
    /// wide.
    ///
    /// Each output row is summed in one fixed order: the bias, then the
    /// terms of the (at most one) part without indices, in the order of
    /// [`Tape::linear`]'s tile kernel, then the gathered products in part
    /// order, then ELU at store time — so chunking changes no bit. The
    /// result equals `linear_elu(gather_concat(parts), ..)` to rounding,
    /// not bit for bit.
    ///
    /// # Panics
    /// Under a row mask; if more than one part has no indices; if the
    /// parts' widths do not sum to `w`'s rows, or `b` is not `[1, w.cols]`;
    /// on the shape checks of [`Tape::gather_concat`].
    pub fn gather_linear(
        &mut self,
        parts: &[(VarId, Option<Arc<Vec<usize>>>)],
        w: VarId,
        b: VarId,
    ) -> VarId {
        self.assert_unmasked("gather_linear");
        let (rows, meta) = self.gather_parts(parts);
        let Tape { nodes, pool, .. } = self;
        let (vw, bias) = (value(nodes, w), value(nodes, b).data());
        let h = vw.cols();
        let in_dim: usize = meta.iter().map(|p| p.cols).sum();
        assert_eq!(
            in_dim,
            vw.rows(),
            "gather_linear: parts {in_dim} wide, w has {} rows",
            vw.rows()
        );
        assert_eq!(bias.len(), h, "gather_linear bias shape");
        assert!(
            meta.iter().filter(|p| p.idx.is_none()).count() <= 1,
            "gather_linear takes at most one part without indices"
        );
        let (sx, sw, sk) = match weight_blocks(&meta, h).find(|(p, _)| p.idx.is_none()) {
            Some((p, block)) => (value(nodes, p.src).data(), &vw.data()[block], p.cols),
            None => (&[][..], &[][..], 0),
        };
        // `x_p * W_p` over the source rows of every gathered part.
        let gathered: Vec<(Tensor, &[usize])> = weight_blocks(&meta, h)
            .filter_map(|(p, block)| {
                let idx = p.idx.as_deref()?;
                let x = value(nodes, p.src);
                let mut prod = pool.uninit(x.rows(), h);
                let w_p = &vw.data()[block];
                for_row_chunks(prod.data_mut(), h, |first_row, nrows, chunk| {
                    gemm_rows(
                        x.data(),
                        w_p,
                        chunk,
                        first_row,
                        nrows,
                        p.cols,
                        h,
                        None,
                        false,
                    );
                });
                Some((prod, idx.as_slice()))
            })
            .collect();
        let mut out = pool.uninit(rows, h);
        for_row_chunks(out.data_mut(), h, |first_row, nrows, chunk| {
            gemm_rows(sx, sw, chunk, first_row, nrows, sk, h, Some(bias), false);
            for (i, o_row) in chunk.chunks_exact_mut(h).enumerate() {
                for (prod, idx) in &gathered {
                    for (o, &v) in o_row.iter_mut().zip(prod.row(idx[first_row + i])) {
                        *o += v;
                    }
                }
                for o in o_row.iter_mut() {
                    *o = elu_scalar(*o);
                }
            }
        });
        for (prod, _) in gathered {
            pool.put(prod.into_vec());
        }
        self.push(out, Op::GatherLinear { parts: meta, w, b })
    }

    /// Validate the parts of a [`Tape::gather_concat`] /
    /// [`Tape::gather_linear`] and return the output row count with the
    /// recorded part list.
    fn gather_parts(&self, parts: &[(VarId, Option<Arc<Vec<usize>>>)]) -> (usize, Vec<GatherPart>) {
        assert!(!parts.is_empty(), "gather_concat needs at least one part");
        let rows = match &parts[0] {
            (_, Some(ix)) => ix.len(),
            (p, None) => self.value(*p).rows(),
        };
        let meta = parts
            .iter()
            .map(|(p, idx)| {
                match idx {
                    Some(ix) => assert_eq!(ix.len(), rows, "gather_concat index length mismatch"),
                    None => assert_eq!(self.value(*p).rows(), rows, "gather_concat row mismatch"),
                }
                GatherPart {
                    src: *p,
                    idx: idx.clone(),
                    cols: self.value(*p).cols(),
                }
            })
            .collect();
        (rows, meta)
    }

    /// `out[i] = a[idx[i]]`.
    pub fn gather_rows(&mut self, a: VarId, idx: Arc<Vec<usize>>) -> VarId {
        self.assert_unmasked("gather_rows");
        let buf = self.pool.take(idx.len() * self.value(a).cols());
        let va = self.value(a);
        let src_rows = va.rows();
        let mut out = Tensor::from_pool_uninit(idx.len(), va.cols(), buf);
        va.gather_rows_into(&idx, &mut out);
        self.push(out, Op::GatherRows(a, idx, src_rows))
    }

    /// `out[idx[i]] += a[i]` with `out_rows` output rows.
    pub fn scatter_add_rows(&mut self, a: VarId, idx: Arc<Vec<usize>>, out_rows: usize) -> VarId {
        self.assert_unmasked("scatter_add_rows");
        let buf = self.pool.take(out_rows * self.value(a).cols());
        let va = self.value(a);
        let mut out = Tensor::from_pool_uninit(out_rows, va.cols(), buf);
        va.scatter_add_rows_into(&idx, &mut out);
        self.push(out, Op::ScatterAddRows(a, idx))
    }

    /// Scale row `i` by the constant `weights[i]` (no gradient w.r.t.
    /// weights — these are the geometric 1/d consistency factors). The
    /// model aggregates with [`Tape::scatter_add_rows_scaled`]; this op is
    /// kept as the reference the tests hold that fused op to.
    pub fn row_scale(&mut self, a: VarId, weights: Arc<Vec<f64>>) -> VarId {
        self.assert_unmasked("row_scale");
        let buf = self.pool.take(self.value(a).len());
        let va = self.value(a);
        let mut out = Tensor::from_pool_uninit(va.rows(), va.cols(), buf);
        va.row_scale_into(&weights, &mut out);
        self.push(out, Op::RowScale(a, weights))
    }

    /// `out[idx[i]] += weights[i] * a[i]` with `out_rows` output rows:
    /// [`Tape::row_scale`] then [`Tape::scatter_add_rows`] as one op, with
    /// the bits of the two and without their `[rows, cols]` scaled copy —
    /// the degree-weighted aggregation of the paper's Eq. 4b. No gradient
    /// w.r.t. the weights; `a`'s adjoint is `weights[i] * g[idx[i]]`.
    pub fn scatter_add_rows_scaled(
        &mut self,
        a: VarId,
        weights: Arc<Vec<f64>>,
        idx: Arc<Vec<usize>>,
        out_rows: usize,
    ) -> VarId {
        self.assert_unmasked("scatter_add_rows_scaled");
        let buf = self.pool.take(out_rows * self.value(a).cols());
        let va = self.value(a);
        let mut out = Tensor::from_pool_uninit(out_rows, va.cols(), buf);
        va.scatter_add_rows_scaled_into(&weights, &idx, &mut out);
        self.push(out, Op::ScatterAddScaled(a, weights, idx))
    }

    /// ELU activation with alpha = 1.
    pub fn elu(&mut self, a: VarId) -> VarId {
        let (rows, cols) = self.value(a).shape();
        self.record_rows(rows, cols, Op::Elu(a))
    }

    /// Row-wise layer normalization with learned `gamma`/`beta` (`[1, F]`).
    pub fn layer_norm(&mut self, x: VarId, gamma: VarId, beta: VarId, eps: f64) -> VarId {
        let (rows, cols) = self.value(x).shape();
        assert_eq!(
            self.value(gamma).shape(),
            (1, cols),
            "layer_norm gamma shape"
        );
        assert_eq!(self.value(beta).shape(), (1, cols), "layer_norm beta shape");
        let op = Op::LayerNorm {
            x,
            gamma,
            beta,
            eps,
        };
        self.record_rows(rows, cols, op)
    }

    /// Scalar `sum_i w[i] * sum_j a[i,j]^2` with constant row weights — the
    /// building block of the paper's consistent MSE (Eq. 6b).
    pub fn weighted_sq_sum(&mut self, a: VarId, weights: Arc<Vec<f64>>) -> VarId {
        self.assert_unmasked("weighted_sq_sum");
        let va = self.value(a);
        assert_eq!(weights.len(), va.rows(), "weighted_sq_sum weight length");
        let mut acc = 0.0;
        for (r, &w) in weights.iter().enumerate() {
            let row = va.row(r);
            acc += w * row.iter().map(|&u| u * u).sum::<f64>();
        }
        let out = self.pool.scalar(acc);
        self.push(out, Op::WeightedSqSum(a, weights))
    }

    /// Scalar sum over all entries.
    pub fn sum(&mut self, a: VarId) -> VarId {
        self.assert_unmasked("sum");
        let s = self.value(a).sum();
        let out = self.pool.scalar(s);
        self.push(out, Op::Sum(a))
    }

    /// Record a user-defined differentiable op with an already-computed
    /// forward value (the caller performs the forward communication).
    pub fn custom(&mut self, inputs: Vec<VarId>, value: Tensor, op: Box<dyn CustomOp>) -> VarId {
        self.assert_unmasked("custom");
        self.push(value, Op::Custom { inputs, op })
    }

    /// Run reverse-mode accumulation from scalar variable `root`.
    ///
    /// The adjoint of `root` is seeded with 1. Returns the gradients of
    /// the participating leaves ([`Tape::constant_copy`] inputs take none).
    /// An interior adjoint lives only from its first contribution until
    /// its node has been propagated, then goes back to the buffer pool, so
    /// the next scratch tensor of its length reuses it. Gradient tensors
    /// draw from the tape's buffer pool; hand them back with
    /// [`Tape::recycle`] once consumed to keep steady-state steps
    /// allocation-free.
    pub fn backward(&mut self, root: VarId) -> Gradients {
        assert!(
            self.mask.is_none(),
            "backward with an active row mask (end_row_mask missing)"
        );
        assert_eq!(
            self.value(root).shape(),
            (1, 1),
            "backward root must be a scalar"
        );
        let mut grads: Vec<Option<Tensor>> = (0..self.nodes.len()).map(|_| None).collect();
        grads[root.0] = Some(self.pool.scalar(1.0));

        let Tape { nodes, pool, .. } = self;
        let nodes: &[Node] = nodes;
        for (i, node) in nodes.iter().enumerate().rev() {
            let Some(g) = grads[i].take() else {
                continue;
            };
            if matches!(node.op, Op::Leaf) {
                grads[i] = Some(g);
            } else {
                accumulate(nodes, pool, &mut grads, node, g);
            }
        }
        Gradients { grads }
    }
}

/// Value of a recorded variable (free-function form for split borrows).
fn value(nodes: &[Node], id: VarId) -> &Tensor {
    &nodes[id.0].value
}

/// Propagate one node's adjoint `g` to its parents, drawing scratch
/// tensors from the workspace pool, and release `g`: a pass-through
/// adjoint moves on to a parent, any other goes back to the pool.
fn accumulate(
    nodes: &[Node],
    pool: &mut BufPool,
    grads: &mut [Option<Tensor>],
    node: &Node,
    g: Tensor,
) {
    // Constants take no adjoint: the ops below skip the products that
    // would only feed one, and `add` drops whatever else reaches one.
    let wants = |id: VarId| !matches!(nodes[id.0].op, Op::Constant);
    let mut add = |id: VarId, contrib: Tensor, pool: &mut BufPool| match &mut grads[id.0] {
        _ if !wants(id) => pool.put(contrib.into_vec()),
        Some(acc) => {
            acc.add_assign(&contrib);
            pool.put(contrib.into_vec());
        }
        slot @ None => *slot = Some(contrib),
    };
    // Pass-through adjoints: the last parent takes `g` itself. The `add`s
    // keep their order, so a parent reached twice (`x + x`) sums the same
    // bits as it would from two copies. Every other op only reads `g`.
    match &node.op {
        Op::Leaf | Op::Constant => {}
        Op::Add(a, b) => {
            add(*a, pool.copy_of(&g), pool);
            return add(*b, g, pool);
        }
        Op::Sub(a, b) => {
            let neg = wants(*b).then(|| {
                let mut gb = pool.uninit(g.rows(), g.cols());
                ew_map(g.data(), g.cols(), gb.data_mut(), |x| -x);
                gb
            });
            add(*a, g, pool);
            if let Some(gb) = neg {
                add(*b, gb, pool);
            }
            return;
        }
        Op::AddRow(a, bias) => {
            let gb = col_sums(pool, &g);
            add(*a, g, pool);
            return add(*bias, gb, pool);
        }
        Op::Matmul(a, b) => {
            let (va, vb) = (value(nodes, *a), value(nodes, *b));
            if wants(*a) {
                add(*a, times_transposed(pool, &g, vb.data(), vb.rows()), pool);
            }
            if wants(*b) {
                let mut gb = pool.uninit(va.cols(), g.cols());
                va.matmul_tn_into(&g, &mut gb);
                add(*b, gb, pool);
            }
        }
        Op::Linear { x, w, b, elu } => {
            let (vx, vw) = (value(nodes, *x), value(nodes, *w));
            // Fused activation: one pass folds elu'(u) into the adjoint and
            // sums the bias gradient from it, rows in order.
            let (gp, gb) = if *elu {
                let (t, gb) = elu_adjoint_with_col_sums(pool, &g, &node.value);
                (Some(t), gb)
            } else {
                (None, col_sums(pool, &g))
            };
            let gref = gp.as_ref().unwrap_or(&g);
            if wants(*x) {
                add(*x, times_transposed(pool, gref, vw.data(), vw.rows()), pool);
            }
            let mut gw = pool.uninit(vx.cols(), gref.cols());
            vx.matmul_tn_into(gref, &mut gw);
            add(*w, gw, pool);
            add(*b, gb, pool);
            if let Some(t) = gp {
                pool.put(t.into_vec());
            }
        }
        Op::Mul(a, b) => {
            let (va, vb) = (value(nodes, *a), value(nodes, *b));
            let mut ga = pool.uninit(g.rows(), g.cols());
            ew_zip(g.data(), vb.data(), g.cols(), ga.data_mut(), |x, y| x * y);
            add(*a, ga, pool);
            let mut gb = pool.uninit(g.rows(), g.cols());
            ew_zip(g.data(), va.data(), g.cols(), gb.data_mut(), |x, y| x * y);
            add(*b, gb, pool);
        }
        Op::Scale(a, alpha) => {
            let al = *alpha;
            let mut ga = pool.uninit(g.rows(), g.cols());
            ew_map(g.data(), g.cols(), ga.data_mut(), |x| al * x);
            add(*a, ga, pool);
        }
        Op::GatherConcat(parts) => {
            let mut off = 0;
            for p in parts {
                let w = p.cols;
                if !wants(p.src) {
                    off += w;
                    continue;
                }
                let mut gp = pool.uninit(g.rows(), w);
                slice_cols_into(&g, off, w, &mut gp);
                match &p.idx {
                    Some(idx) => {
                        let src_rows = value(nodes, p.src).rows();
                        let mut contrib = pool.uninit(src_rows, w);
                        gp.scatter_add_rows_into(idx, &mut contrib);
                        pool.put(gp.into_vec());
                        add(p.src, contrib, pool);
                    }
                    None => add(p.src, gp, pool),
                }
                off += w;
            }
        }
        Op::GatherLinear { parts, w, b } => {
            let vw = value(nodes, *w);
            let h = vw.cols();
            let (t, gb) = elu_adjoint_with_col_sums(pool, &g, &node.value);
            // Every part writes its own row block of the one weight gradient.
            let mut gw = pool.uninit(vw.rows(), h);
            for (p, block) in weight_blocks(parts, h) {
                let x = value(nodes, p.src);
                // The adjoint at the part's own rows: `t`, or `t` summed
                // back onto the source rows it was gathered from.
                let scattered = p.idx.as_ref().map(|idx| {
                    let mut s = pool.uninit(x.rows(), h);
                    t.scatter_add_rows_into(idx, &mut s);
                    s
                });
                let s = scattered.as_ref().unwrap_or(&t);
                if wants(p.src) {
                    add(
                        p.src,
                        times_transposed(pool, s, &vw.data()[block.clone()], p.cols),
                        pool,
                    );
                }
                gemm_tn(
                    x.data(),
                    s.data(),
                    &mut gw.data_mut()[block],
                    x.rows(),
                    p.cols,
                    h,
                );
                if let Some(s) = scattered {
                    pool.put(s.into_vec());
                }
            }
            add(*w, gw, pool);
            add(*b, gb, pool);
            pool.put(t.into_vec());
        }
        Op::GatherRows(a, idx, src_rows) => {
            let mut contrib = pool.uninit(*src_rows, g.cols());
            g.scatter_add_rows_into(idx, &mut contrib);
            add(*a, contrib, pool);
        }
        Op::ScatterAddRows(a, idx) => {
            let mut contrib = pool.uninit(idx.len(), g.cols());
            g.gather_rows_into(idx, &mut contrib);
            add(*a, contrib, pool);
        }
        Op::RowScale(a, w) => {
            let mut contrib = pool.uninit(g.rows(), g.cols());
            g.row_scale_into(w, &mut contrib);
            add(*a, contrib, pool);
        }
        Op::ScatterAddScaled(a, w, idx) => {
            let mut contrib = pool.uninit(idx.len(), g.cols());
            g.gather_rows_scaled_into(idx, w, &mut contrib);
            add(*a, contrib, pool);
        }
        Op::Elu(a) => {
            // d/du elu(u) = exp(u) for u < 0, and the forward already
            // computed y = exp(u) - 1 (y < 0 iff u < 0), so the backward
            // reuses y + 1 instead of a second exp evaluation.
            let vy = &node.value;
            let mut ga = pool.uninit(g.rows(), g.cols());
            ew_zip(g.data(), vy.data(), g.cols(), ga.data_mut(), |x, y| {
                if y < 0.0 {
                    x * (y + 1.0)
                } else {
                    x
                }
            });
            add(*a, ga, pool);
        }
        Op::LayerNorm {
            x,
            gamma,
            beta,
            eps,
        } => {
            let vx = value(nodes, *x);
            let (rows, cols) = vx.shape();
            let mut gx = pool.uninit(rows, cols);
            let mut ggamma = pool.zeroed(1, cols);
            let mut gbeta = pool.zeroed(1, cols);
            let mut xhat = pool.uninit(4, cols);
            layer_norm_adjoint(
                vx.data(),
                g.data(),
                value(nodes, *gamma).data(),
                *eps,
                gx.data_mut(),
                ggamma.data_mut(),
                gbeta.data_mut(),
                xhat.data_mut(),
            );
            pool.put(xhat.into_vec());
            add(*x, gx, pool);
            add(*gamma, ggamma, pool);
            add(*beta, gbeta, pool);
        }
        Op::WeightedSqSum(a, w) => {
            let va = value(nodes, *a);
            let s = g.item();
            let cols = va.cols();
            let mut ga = pool.uninit(va.rows(), cols);
            let a_data = va.data();
            for_row_chunks(ga.data_mut(), cols, |first_row, nrows, chunk| {
                for i in 0..nrows {
                    let r = first_row + i;
                    let wr = w[r];
                    let src = &a_data[r * cols..(r + 1) * cols];
                    let dst = &mut chunk[i * cols..(i + 1) * cols];
                    for (d, &u) in dst.iter_mut().zip(src.iter()) {
                        *d = 2.0 * wr * u * s;
                    }
                }
            });
            add(*a, ga, pool);
        }
        Op::Sum(a) => {
            let va = value(nodes, *a);
            let s = g.item();
            let mut contrib = pool.uninit(va.rows(), va.cols());
            contrib.data_mut().fill(s);
            add(*a, contrib, pool);
        }
        Op::Custom { inputs, op } => {
            let vals: Vec<&Tensor> = inputs.iter().map(|&i| value(nodes, i)).collect();
            let contribs = op.backward(&g, &vals);
            assert_eq!(
                contribs.len(),
                inputs.len(),
                "custom op {} returned wrong gradient count",
                op.name()
            );
            for ((id, c), v) in inputs.iter().zip(contribs).zip(vals) {
                if let Some(c) = c {
                    assert_eq!(
                        c.shape(),
                        v.shape(),
                        "custom op {} returned an adjoint of the wrong shape",
                        op.name()
                    );
                    add(*id, c, pool);
                }
            }
        }
    }
    pool.put(g.into_vec());
}

/// The forward body of a row-separable op — the only kind that may be
/// recorded under a row mask — over its operands' raw buffers: it computes
/// any contiguous range of output rows, each row from its own inputs
/// alone. Full-tensor recording runs it over [`for_row_chunks`], masked
/// recording over the runs of the mask rows and of their complement.
enum RowKernel<'a> {
    Linear {
        x: &'a Tensor,
        w: &'a [f64],
        bias: &'a [f64],
        elu: bool,
    },
    Elu(&'a [f64]),
    LayerNorm {
        x: &'a [f64],
        gamma: &'a [f64],
        beta: &'a [f64],
        eps: f64,
    },
    /// `(source, gather indices or None for row i)` per column block.
    GatherConcat(Vec<(&'a Tensor, Option<&'a [usize]>)>),
}

impl<'a> RowKernel<'a> {
    /// # Panics
    ///
    /// If `op` is not row-separable: reaching here with any other op is a
    /// programming error in the op registry.
    fn of(nodes: &'a [Node], op: &'a Op) -> Self {
        let val = |id: &VarId| &nodes[id.0].value;
        match op {
            Op::Linear { x, w, b, elu } => RowKernel::Linear {
                x: val(x),
                w: val(w).data(),
                bias: val(b).data(),
                elu: *elu,
            },
            Op::Elu(a) => RowKernel::Elu(val(a).data()),
            Op::LayerNorm {
                x,
                gamma,
                beta,
                eps,
            } => RowKernel::LayerNorm {
                x: val(x).data(),
                gamma: val(gamma).data(),
                beta: val(beta).data(),
                eps: *eps,
            },
            Op::GatherConcat(parts) => RowKernel::GatherConcat(
                parts
                    .iter()
                    .map(|p| (val(&p.src), p.idx.as_deref().map(Vec::as_slice)))
                    .collect(),
            ),
            #[expect(
                clippy::panic,
                reason = "programming error in the op registry; masked recording is only reachable for row-separable ops"
            )]
            _ => panic!("op is not row-separable and cannot be recorded under a row mask"),
        }
    }

    /// Compute output rows `first_row..first_row + nrows` into `chunk`
    /// (those rows of the `cols`-wide output, row-major).
    fn run(&self, chunk: &mut [f64], cols: usize, first_row: usize, nrows: usize) {
        let span = first_row * cols..(first_row + nrows) * cols;
        match self {
            RowKernel::Linear { x, w, bias, elu } => crate::tensor::gemm_rows(
                x.data(),
                w,
                chunk,
                first_row,
                nrows,
                x.cols(),
                cols,
                Some(bias),
                *elu,
            ),
            RowKernel::Elu(src) => {
                for (o, &u) in chunk.iter_mut().zip(&src[span]) {
                    *o = crate::tensor::elu_scalar(u);
                }
            }
            RowKernel::LayerNorm {
                x,
                gamma,
                beta,
                eps,
            } => layer_norm_forward(&x[span], gamma, beta, *eps, chunk, cols),
            RowKernel::GatherConcat(parts) => {
                for i in 0..nrows {
                    let r = first_row + i;
                    let o_row = &mut chunk[i * cols..(i + 1) * cols];
                    let mut off = 0;
                    for (t, ix) in parts {
                        let src = ix.map_or(r, |ix| ix[r]);
                        let w = t.cols();
                        // Element loop, not copy_from_slice: a per-row memcpy
                        // call dominates these narrow (~8-wide) copies.
                        for (o, &v) in o_row[off..off + w].iter_mut().zip(t.row(src).iter()) {
                            *o = v;
                        }
                        off += w;
                    }
                }
            }
        }
    }

    /// Compute the listed rows of `value`, one [`RowKernel::run`] per
    /// maximal run of consecutive row ids.
    fn fill(&self, value: &mut Tensor, rows: &[usize]) {
        let cols = value.cols();
        let mut i = 0;
        while i < rows.len() {
            let first = rows[i];
            let mut end = first + 1;
            i += 1;
            while rows.get(i) == Some(&end) {
                end += 1;
                i += 1;
            }
            let chunk = &mut value.data_mut()[first * cols..end * cols];
            self.run(chunk, cols, first, end - first);
        }
    }
}

/// `g * w^T` for a row-major `[rows, g.cols]` weight `w`, via an explicit
/// (pooled) transpose of the small matrix, so the adjoint product runs
/// through the register-tiled row GEMM. Each output element is the dot
/// product of a row of `g` with a row of `w`, its terms summed in index
/// order.
fn times_transposed(pool: &mut BufPool, g: &Tensor, w: &[f64], rows: usize) -> Tensor {
    let mut wt = pool.uninit(g.cols(), rows);
    transpose(w, rows, g.cols(), wt.data_mut());
    let mut out = pool.uninit(g.rows(), rows);
    g.matmul_into(&wt, &mut out);
    pool.put(wt.into_vec());
    out
}

/// Each part with the rows of a weight matrix it owns, as a range of that
/// matrix's row-major data: consecutive blocks in part order.
fn weight_blocks(
    parts: &[GatherPart],
    h: usize,
) -> impl Iterator<Item = (&GatherPart, std::ops::Range<usize>)> {
    parts.iter().scan(0, move |row, p| {
        let block = *row * h..(*row + p.cols) * h;
        *row += p.cols;
        Some((p, block))
    })
}

/// Column sums of `g` as a `[1, cols]` tensor (bias gradients).
fn col_sums(pool: &mut BufPool, g: &Tensor) -> Tensor {
    let mut out = pool.zeroed(1, g.cols());
    for r in 0..g.rows() {
        let row = g.row(r);
        for (o, &v) in out.data_mut().iter_mut().zip(row.iter()) {
            *o += v;
        }
    }
    out
}

/// The adjoint prologue of a fused `linear_elu`: `t = g ⊙ elu'(u)` from the
/// stored `y = elu(u)` (`elu'(u) = y + 1` for `y < 0`, else 1) together
/// with `t`'s column sums, in one pass over `g`. Row order is that of
/// [`col_sums`], so the sums are the bits `col_sums(t)` would give.
fn elu_adjoint_with_col_sums(pool: &mut BufPool, g: &Tensor, y: &Tensor) -> (Tensor, Tensor) {
    let mut t = pool.uninit(g.rows(), g.cols());
    let mut sums = pool.zeroed(1, g.cols());
    for r in 0..g.rows() {
        let row = t.row_mut(r).iter_mut().zip(g.row(r)).zip(y.row(r));
        for (((o, &gv), &yv), s) in row.zip(sums.data_mut().iter_mut()) {
            *o = if yv < 0.0 { gv * (yv + 1.0) } else { gv };
            *s += *o;
        }
    }
    (t, sums)
}

/// Layer norm's forward over a band of whole rows: `out` gets
/// `gamma * (x - mean) * inv + beta` for the same rows of `x` (`cols`
/// wide). At the widths with a constant-shaped block (8 and 32: the
/// model's hidden widths) rows go four at a time, the
/// rest one at a time; either way a row's bits are those of the one-row
/// path ([`layer_norm_lanes`] with one lane), so grouping, chunking and
/// masking change none of them.
fn layer_norm_forward(
    x: &[f64],
    gamma: &[f64],
    beta: &[f64],
    eps: f64,
    out: &mut [f64],
    cols: usize,
) {
    let done = match cols {
        0 => return,
        8 => layer_norm_forward_quads::<8>(x, gamma, beta, eps, out),
        32 => layer_norm_forward_quads::<32>(x, gamma, beta, eps, out),
        _ => 0,
    };
    let rest = done * cols..;
    for (xr, o) in x[rest.clone()]
        .chunks_exact(cols)
        .zip(out[rest].chunks_exact_mut(cols))
    {
        layer_norm_lanes([xr], gamma, beta, eps, [o]);
    }
}

/// The lockstep part of [`layer_norm_forward`] at width `W`: every whole
/// quad of rows. Returns the number of rows done.
fn layer_norm_forward_quads<const W: usize>(
    x: &[f64],
    gamma: &[f64],
    beta: &[f64],
    eps: f64,
    out: &mut [f64],
) -> usize {
    let quads = row_quads::<W>(x);
    for (xs, os) in quads.iter().zip(row_quads_mut::<W>(out)) {
        let xs = xs.each_ref().map(|r| r.as_slice());
        let os = os.each_mut().map(|r| r.as_mut_slice());
        layer_norm_lanes(xs, &gamma[..W], &beta[..W], eps, os);
    }
    4 * quads.len()
}

/// Layer norm's adjoint: `dx` into `gx` and, summed over rows in row
/// order, `g * x̂` into `gg` and `g` into `gb` (the gamma and beta
/// gradients, zeroed by the caller); `xhat` (four rows) is scratch. Rows
/// are grouped as in [`layer_norm_forward`], and each row's `dx` is the
/// one-row path's.
fn layer_norm_adjoint(
    x: &[f64],
    g: &[f64],
    gamma: &[f64],
    eps: f64,
    gx: &mut [f64],
    gg: &mut [f64],
    gb: &mut [f64],
    xhat: &mut [f64],
) {
    let cols = gamma.len();
    let done = match cols {
        0 => return,
        8 => layer_norm_adjoint_quads::<8>(x, g, gamma, eps, gx, gg, gb, xhat),
        32 => layer_norm_adjoint_quads::<32>(x, g, gamma, eps, gx, gg, gb, xhat),
        _ => 0,
    };
    let rest = done * cols..;
    let rows = x[rest.clone()]
        .chunks_exact(cols)
        .zip(g[rest.clone()].chunks_exact(cols));
    for ((xr, gr), o) in rows.zip(gx[rest].chunks_exact_mut(cols)) {
        let xh = &mut xhat[..cols];
        layer_norm_adjoint_lanes([xr], [gr], gamma, eps, [o], gg, gb, [xh]);
    }
}

/// The lockstep part of [`layer_norm_adjoint`] at width `W`: every whole
/// quad of rows, in order. Returns the number of rows done.
fn layer_norm_adjoint_quads<const W: usize>(
    x: &[f64],
    g: &[f64],
    gamma: &[f64],
    eps: f64,
    gx: &mut [f64],
    gg: &mut [f64],
    gb: &mut [f64],
    xhat: &mut [f64],
) -> usize {
    let quads = row_quads::<W>(x);
    let rows = quads.iter().zip(row_quads::<W>(g));
    let xhat = &mut row_quads_mut::<W>(xhat)[0];
    for ((xs, gs), os) in rows.zip(row_quads_mut::<W>(gx)) {
        let xs = xs.each_ref().map(|r| r.as_slice());
        let gs = gs.each_ref().map(|r| r.as_slice());
        let os = os.each_mut().map(|r| r.as_mut_slice());
        let xh = xhat.each_mut().map(|r| r.as_mut_slice());
        let (gg, gb) = (&mut gg[..W], &mut gb[..W]);
        layer_norm_adjoint_lanes(xs, gs, &gamma[..W], eps, os, gg, gb, xh);
    }
    4 * quads.len()
}

/// The leading whole quads of `W`-wide rows of a row-major buffer.
fn row_quads<const W: usize>(buf: &[f64]) -> &[[[f64; W]; 4]] {
    buf.as_chunks::<W>().0.as_chunks::<4>().0
}

/// [`row_quads`], mutably.
fn row_quads_mut<const W: usize>(buf: &mut [f64]) -> &mut [[[f64; W]; 4]] {
    buf.as_chunks_mut::<W>().0.as_chunks_mut::<4>().0
}

/// Mean and `1 / sqrt(var + eps)` of `L` equally long rows in lockstep.
/// Each lane adds its own row's terms in column order starting from
/// `-0.0` — the fold of `Iterator::<f64>::sum`, which is how a row alone
/// (`L = 1`) is summed — so a lane's bits never depend on its neighbours,
/// while the `L` dependency chains overlap instead of running back to back.
#[inline(always)]
fn layer_norm_moments<const L: usize>(xs: &[&[f64]; L], eps: f64) -> ([f64; L], [f64; L]) {
    let cols = xs[0].len();
    let n = cols as f64;
    let mut sum = [-0.0; L];
    for c in 0..cols {
        for l in 0..L {
            sum[l] += xs[l][c];
        }
    }
    let mean = sum.map(|s| s / n);
    let mut sq = [-0.0; L];
    for c in 0..cols {
        for l in 0..L {
            let d = xs[l][c] - mean[l];
            sq[l] += d * d;
        }
    }
    (mean, sq.map(|s| 1.0 / (s / n + eps).sqrt()))
}

/// Layer norm's forward on `L` rows in lockstep (see [`layer_norm_moments`]).
#[inline(always)]
fn layer_norm_lanes<const L: usize>(
    xs: [&[f64]; L],
    gamma: &[f64],
    beta: &[f64],
    eps: f64,
    out: [&mut [f64]; L],
) {
    let (mean, inv) = layer_norm_moments(&xs, eps);
    for (l, (xr, o)) in xs.iter().zip(out).enumerate() {
        let terms = xr.iter().zip(gamma).zip(beta);
        for (o, ((&u, &ga), &be)) in o.iter_mut().zip(terms) {
            *o = ga * (u - mean[l]) * inv[l] + be;
        }
    }
}

/// Layer norm's adjoint on `L` rows in lockstep: each lane's two sums run
/// in its own row's column order from `0.0`, and `gg` / `gb` take the
/// lanes' terms in row order, column by column — the bits of the rows done
/// one after another. `xhat` holds each row's `x̂` between the two passes.
#[inline(always)]
fn layer_norm_adjoint_lanes<const L: usize>(
    xs: [&[f64]; L],
    gs: [&[f64]; L],
    gamma: &[f64],
    eps: f64,
    out: [&mut [f64]; L],
    gg: &mut [f64],
    gb: &mut [f64],
    xhat: [&mut [f64]; L],
) {
    let (mean, inv) = layer_norm_moments(&xs, eps);
    let cols = gamma.len();
    let n = cols as f64;
    // xhat = (x - mean) * inv ; dxhat = g * gamma
    // dx = inv/n * (n*dxhat - sum(dxhat) - xhat * sum(dxhat*xhat))
    let mut sum_dxhat = [0.0; L];
    let mut sum_dxhat_xhat = [0.0; L];
    // `out` holds dxhat until the row's two sums are known.
    for c in 0..cols {
        for l in 0..L {
            let xh = (xs[l][c] - mean[l]) * inv[l];
            let dxhat = gs[l][c] * gamma[c];
            sum_dxhat[l] += dxhat;
            sum_dxhat_xhat[l] += dxhat * xh;
            gg[c] += gs[l][c] * xh;
            gb[c] += gs[l][c];
            xhat[l][c] = xh;
            out[l][c] = dxhat;
        }
    }
    for l in 0..L {
        for c in 0..cols {
            let xh = xhat[l][c];
            out[l][c] = inv[l] / n * (n * out[l][c] - sum_dxhat[l] - xh * sum_dxhat_xhat[l]);
        }
    }
}

/// Copy the column window `[off, off + w)` of `g` into `out` (`[rows, w]`).
fn slice_cols_into(g: &Tensor, off: usize, w: usize, out: &mut Tensor) {
    debug_assert_eq!(out.shape(), (g.rows(), w));
    for_row_chunks(out.data_mut(), w, |first_row, nrows, chunk| {
        for i in 0..nrows {
            let src = &g.row(first_row + i)[off..off + w];
            for (o, &v) in chunk[i * w..(i + 1) * w].iter_mut().zip(src.iter()) {
                *o = v;
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backward_through_matmul_chain() {
        // f = sum(A * B); df/dA = 1 * B^T rows, df/dB = A^T * 1
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::from_vec(2, 2, vec![1., 2., 3., 4.]));
        let b = tape.leaf(Tensor::from_vec(2, 2, vec![5., 6., 7., 8.]));
        let c = tape.matmul(a, b);
        let s = tape.sum(c);
        let g = tape.backward(s);
        // dA[i,k] = sum_j B[k,j]
        assert_eq!(g.get(a).unwrap().data(), &[11., 15., 11., 15.]);
        // dB[k,j] = sum_i A[i,k]
        assert_eq!(g.get(b).unwrap().data(), &[4., 4., 6., 6.]);
    }

    #[test]
    fn gather_then_scatter_gradients() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(3, 1, vec![1., 2., 3.]));
        let idx = Arc::new(vec![0usize, 0, 2]);
        let gth = tape.gather_rows(x, idx.clone());
        let sct = tape.scatter_add_rows(gth, Arc::new(vec![1usize, 1, 0]), 2);
        let s = tape.sum(sct);
        let g = tape.backward(s);
        // Every gathered copy contributes 1 to its source row.
        assert_eq!(g.get(x).unwrap().data(), &[2., 0., 1.]);
    }

    #[test]
    fn custom_op_identity_backward() {
        struct Identity;
        impl CustomOp for Identity {
            fn name(&self) -> &'static str {
                "identity"
            }
            fn backward(&self, grad_out: &Tensor, _inputs: &[&Tensor]) -> Vec<Option<Tensor>> {
                vec![Some(grad_out.clone())]
            }
        }
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(1, 3, vec![1., -2., 3.]));
        let v = tape.value(x).clone();
        let y = tape.custom(vec![x], v, Box::new(Identity));
        let sq = tape.mul(y, y);
        let s = tape.sum(sq);
        let g = tape.backward(s);
        assert_eq!(g.get(x).unwrap().data(), &[2., -4., 6.]);
    }

    /// A custom op whose adjoint has the wrong shape fails by the op's
    /// name, even when the adjoint would be the input's first contribution.
    #[test]
    #[should_panic(expected = "custom op shrink returned an adjoint of the wrong shape")]
    fn custom_op_adjoint_of_the_wrong_shape_panics() {
        struct Shrink;
        impl CustomOp for Shrink {
            fn name(&self) -> &'static str {
                "shrink"
            }
            fn backward(&self, _grad_out: &Tensor, _inputs: &[&Tensor]) -> Vec<Option<Tensor>> {
                vec![Some(Tensor::zeros(1, 1))]
            }
        }
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(3, 2, vec![1., -2., 3., 0.5, -1., 2.]));
        let h = tape.elu(x);
        let v = tape.value(h).clone();
        let y = tape.custom(vec![h], v, Box::new(Shrink));
        let s = tape.sum(y);
        tape.backward(s);
    }

    #[test]
    fn grad_accumulates_over_multiple_uses() {
        // f = sum(x + x) => df/dx = 2
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(1, 2, vec![1., 2.]));
        let y = tape.add(x, x);
        let s = tape.sum(y);
        let g = tape.backward(s);
        assert_eq!(g.get(x).unwrap().data(), &[2., 2.]);
    }

    #[test]
    fn interior_adjoints_are_released() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_fn(7, 3, |r, c| {
            ((r * 3 + c) as f64 * 0.37).sin()
        }));
        let w = tape.leaf(Tensor::from_fn(3, 5, |r, c| {
            ((r + 2 * c) as f64 * 0.29).cos()
        }));
        let b = tape.leaf(Tensor::from_fn(1, 5, |_, c| 0.1 * c as f64 - 0.2));
        let u = tape.linear(x, w, b);
        let h = tape.elu(u);
        let sq = tape.mul(h, h);
        let s = tape.sum(sq);
        let grads = tape.backward(s);
        for interior in [u, h, sq, s] {
            assert!(grads.get(interior).is_none(), "interior adjoint kept");
        }
        for leaf in [x, w, b] {
            assert!(grads.get(leaf).is_some(), "leaf adjoint released");
        }
    }

    #[test]
    fn unused_leaf_has_no_grad() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::scalar(1.0));
        let y = tape.leaf(Tensor::scalar(2.0));
        let s = tape.sum(x);
        let g = tape.backward(s);
        assert!(g.get(y).is_none());
    }

    /// One graph reading its input `x` and target `t` through every op
    /// that skips constant parents — `gather_concat`, `linear_elu`,
    /// `matmul`, `sub` — recorded with the two as leaves or as constants.
    /// Returns the bits of the loss and of the parameter gradients, and the
    /// gradients of `x` / `t`.
    fn input_graph(constant: bool) -> (Vec<Vec<u64>>, [Option<Tensor>; 2]) {
        let mut tape = Tape::new();
        let xv = Tensor::from_fn(6, 3, |r, c| ((r * 3 + c) as f64 * 0.37).sin());
        let tv = Tensor::from_fn(6, 4, |r, c| ((r + 5 * c) as f64 * 0.23).cos());
        let (x, t) = if constant {
            (tape.constant_copy(&xv), tape.constant_copy(&tv))
        } else {
            (tape.leaf_copy(&xv), tape.leaf_copy(&tv))
        };
        let w1 = tape.leaf(Tensor::from_fn(6, 4, |r, c| {
            ((r * 4 + c) as f64 * 0.41).cos()
        }));
        let b1 = tape.leaf(Tensor::from_fn(1, 4, |_, c| 0.1 * c as f64 - 0.2));
        let w2 = tape.leaf(Tensor::from_fn(3, 4, |r, c| ((r + c) as f64 * 0.19).sin()));
        let idx = Arc::new(vec![5usize, 0, 3, 3, 1, 2]);
        let cat = tape.gather_concat(&[(x, Some(idx)), (x, None)]);
        let h = tape.linear_elu(cat, w1, b1);
        let m = tape.matmul(x, w2);
        let hm = tape.add(h, m);
        let d = tape.sub(hm, t);
        let loss = tape.weighted_sq_sum(d, Arc::new(vec![1.0; 6]));
        let mut grads = tape.backward(loss);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect();
        let mut out = vec![bits(tape.value(loss))];
        out.extend([w1, b1, w2].map(|p| bits(grads.get(p).expect("parameter gradient"))));
        (out, [grads.take(x), grads.take(t)])
    }

    #[test]
    fn constants_take_no_gradient_and_change_no_other() {
        let (leaf_bits, leaf_inputs) = input_graph(false);
        let (const_bits, const_inputs) = input_graph(true);
        assert!(leaf_inputs.iter().all(Option::is_some));
        assert!(const_inputs.iter().all(Option::is_none));
        assert_eq!(leaf_bits, const_bits);
    }

    #[test]
    fn linear_matches_matmul_plus_bias_values_and_grads() {
        let xv = Tensor::from_fn(5, 3, |r, c| ((r * 3 + c) as f64 * 0.31).sin());
        let wv = Tensor::from_fn(3, 4, |r, c| ((r + 2 * c) as f64 * 0.17).cos());
        let bv = Tensor::from_fn(1, 4, |_, c| 0.05 * c as f64 - 0.1);

        let mut fused = Tape::new();
        let (x, w, b) = (
            fused.leaf(xv.clone()),
            fused.leaf(wv.clone()),
            fused.leaf(bv.clone()),
        );
        let y = fused.linear(x, w, b);
        let s = fused.sum(y);
        let gf = fused.backward(s);

        let mut split = Tape::new();
        let (x2, w2, b2) = (split.leaf(xv), split.leaf(wv), split.leaf(bv));
        let mm = split.matmul(x2, w2);
        let y2 = split.add_row(mm, b2);
        let s2 = split.sum(y2);
        let gs = split.backward(s2);

        assert!(fused.value(y).max_rel_diff(split.value(y2)) < 1e-15);
        for (a, b) in [(x, x2), (w, w2), (b, b2)] {
            assert_eq!(gf.get(a).unwrap().data(), gs.get(b).unwrap().data());
        }
    }

    #[test]
    fn gather_concat_matches_gather_then_concat() {
        let xv = Tensor::from_fn(6, 2, |r, c| (r * 2 + c) as f64);
        let ev = Tensor::from_fn(4, 3, |r, c| 100.0 + (r * 3 + c) as f64);
        let src = Arc::new(vec![0usize, 2, 4, 5]);
        let dst = Arc::new(vec![1usize, 3, 5, 0]);

        let mut fused = Tape::new();
        let (x, e) = (fused.leaf(xv.clone()), fused.leaf(ev.clone()));
        let cat = fused.gather_concat(&[
            (x, Some(Arc::clone(&src))),
            (x, Some(Arc::clone(&dst))),
            (e, None),
        ]);
        let sq = fused.mul(cat, cat);
        let s = fused.sum(sq);
        let gf = fused.backward(s);

        let mut split = Tape::new();
        let (x2, e2) = (split.leaf(xv), split.leaf(ev));
        let xi = split.gather_rows(x2, Arc::clone(&src));
        let xj = split.gather_rows(x2, Arc::clone(&dst));
        let cat2 = split.gather_concat(&[(xi, None), (xj, None), (e2, None)]);
        let sq2 = split.mul(cat2, cat2);
        let s2 = split.sum(sq2);
        let gs = split.backward(s2);

        assert_eq!(fused.value(cat).data(), split.value(cat2).data());
        assert_eq!(gf.get(x).unwrap().data(), gs.get(x2).unwrap().data());
        assert_eq!(gf.get(e).unwrap().data(), gs.get(e2).unwrap().data());
    }

    /// The fused degree-weighted aggregation gives the bits of
    /// `scatter_add_rows(row_scale(..))`, value and input adjoint, with
    /// repeated and absent destinations and an output row count that is
    /// not a multiple of four.
    #[test]
    fn scatter_add_rows_scaled_matches_row_scale_then_scatter() {
        let av = Tensor::from_fn(9, 3, |r, c| ((r * 3 + c) as f64 * 0.43).sin());
        let tv = Tensor::from_fn(7, 3, |r, c| ((r + 4 * c) as f64 * 0.31).cos());
        let weights = Arc::new((0..9).map(|i| 1.0 / (1 + i % 4) as f64).collect::<Vec<_>>());
        // Rows 1 and 5 receive nothing; 0, 3 and 6 receive several.
        let idx = Arc::new(vec![3usize, 0, 6, 3, 2, 0, 4, 6, 3]);
        let run = |fused: bool| {
            let mut tape = Tape::new();
            let a = tape.leaf(av.clone());
            let out = if fused {
                tape.scatter_add_rows_scaled(a, Arc::clone(&weights), Arc::clone(&idx), 7)
            } else {
                let scaled = tape.row_scale(a, Arc::clone(&weights));
                tape.scatter_add_rows(scaled, Arc::clone(&idx), 7)
            };
            // A non-uniform adjoint at the output rows.
            let t = tape.leaf(tv.clone());
            let prod = tape.mul(out, t);
            let sq = tape.mul(prod, prod);
            let s = tape.sum(sq);
            let grads = tape.backward(s);
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            (
                bits(tape.value(out)),
                bits(grads.get(a).expect("input adjoint")),
            )
        };
        let (fused, split) = (run(true), run(false));
        assert_eq!(fused.0, split.0, "value");
        assert_eq!(fused.1, split.1, "input adjoint");
        assert!(fused.0[3..6].iter().all(|&b| b == 0), "row 1 is zero");
    }

    #[test]
    fn reset_tape_replays_bit_identically() {
        let run = |tape: &mut Tape| -> (Vec<f64>, Vec<f64>) {
            let x = tape.leaf(Tensor::from_fn(9, 4, |r, c| {
                ((r * 4 + c) as f64 * 0.3).sin()
            }));
            let w = tape.leaf(Tensor::from_fn(4, 4, |r, c| ((r + c) as f64 * 0.21).cos()));
            let b = tape.leaf(Tensor::zeros(1, 4));
            let h = tape.linear(x, w, b);
            let h = tape.elu(h);
            let sq = tape.mul(h, h);
            let s = tape.sum(sq);
            let out = tape.value(h).data().to_vec();
            let grads = tape.backward(s);
            let gx = grads.get(x).unwrap().data().to_vec();
            tape.recycle(grads);
            (out, gx)
        };
        let mut tape = Tape::new();
        let first = run(&mut tape);
        tape.reset();
        let second = run(&mut tape);
        assert_eq!(first, second);
        // And the pool actually retained buffers.
        tape.reset();
        assert!(tape.is_empty());
    }
}
