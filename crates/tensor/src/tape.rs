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
//! `sub` — moves on to a parent instead of being copied), so
//! the next scratch tensor of its length reuses a buffer that is still in
//! cache and the backward pass never holds a second copy of the forward.
//!
//! Nothing is stored that only one fused neighbour would read. A residual
//! add is folded into the layer norm before it ([`Tape::layer_norm_add`]),
//! so the layer norm's output is never a tensor of its own. The adjoints
//! of [`Tape::linear`] / [`Tape::linear_elu`] and [`Tape::gather_linear`]
//! stream their rows one L1-sized block at a time: a block's `elu'`-scaled
//! adjoint feeds the bias sums, its rows of the input adjoint and its
//! share of the weight gradient before the next block is read, so the
//! scaled `[rows, h]` adjoint is never stored whole. Every sum keeps its
//! serial order, so each gradient has the bits of the whole-tensor form.
//!
//! ## Held once
//!
//! A step holds each tensor once. Nothing is copied only to be read:
//! - a layer over a concatenation reads its input as column blocks
//!   ([`Tape::linear_elu_blocks`]), so the concatenation is never stored;
//! - an input the caller already holds is shared, not copied
//!   ([`Tape::shared_constant`]): it is never put into the pool and never
//!   released.
//!
//! No adjoint is materialized beside the adjoint it is added into:
//! - an `h → h` linear writes its input adjoint over its output adjoint,
//!   one row block at a time;
//! - a row-aligned contribution — a linear block's, a scatter's gathered
//!   rows — is added in place into an adjoint that already exists;
//! - a pass-through adjoint moves on: the residual of a layer norm and
//!   a [`CustomOp`] take `g` itself.
//!
//! Each of these performs the same operations in the same order as the
//! form that stores the copy, so every value and gradient keeps its bits.
//!
//! Each op has one recording path: ELU is only a fused store-time
//! post-op, a row gather is a one-part [`Tape::gather_concat`], and an
//! input that takes no gradient is a [`Tape::shared_constant`].
//!
//! ## The gradient bucket
//!
//! Parameters are not copied onto the tape either:
//! [`ParamSet::bind`](crate::ParamSet::bind) registers each one where its
//! set keeps it, as a shared constant is read, but it takes a gradient.
//! The parameters' adjoints are not tensors of their own. Each has a slice
//! of one flat buffer, the **bucket**, in binding order: its first
//! contribution is written there and later ones are added in order, and a
//! parameter the loss never reached reads zero. That is the flat gradient
//! a data-parallel step all-reduces, so nothing is gathered from per-tensor
//! gradients. A weight gradient accumulates in its slice directly. The
//! tape keeps its buckets apart from the pool: one is drawn per backward
//! and comes back with the other gradients ([`Tape::recycle`]), or on its
//! own once the caller is done with it ([`Gradients::take_bucket`],
//! [`Tape::recycle_bucket`]), so a steady-state step reuses one bucket.
//!
//! ## Forward-only recordings
//!
//! A recording that no backward pass will follow ([`Tape::forward_only`]:
//! inference and evaluation) need not keep a value once no later op reads
//! it. [`Tape::release_except`] returns every interior value to the pool
//! except the ones named, so a model that calls it at its layer boundaries
//! holds one layer's values at a time instead of the whole forward. On a
//! training recording the call does nothing. A released value stays
//! released: reading it, or calling [`Tape::backward`] on a forward-only
//! recording, panics.

use std::cell::OnceCell;
use std::ops::Range;
use std::sync::Arc;

use crate::tensor::{elu, gemm_rows, gemm_tn, gemm_tn_acc, tn_panel_rows, transpose, Tensor};

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

    /// Compute input adjoints given the output adjoint. `grad_out` is the
    /// op's to keep: an op whose input adjoint is a function of it alone
    /// may compute that in place and return the same tensor, which the
    /// tape then takes back into its pool instead of a fresh one.
    fn backward(&self, grad_out: Tensor, inputs: &[&Tensor]) -> Vec<Option<Tensor>>;
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

/// The input of an [`Op::Linear`]: its column blocks `[x_0 | x_1 | ...]`,
/// in order. The first is held inline, so a one-block input (every layer
/// but one that reads a concatenation) allocates nothing.
pub(crate) struct Blocks {
    first: VarId,
    rest: Vec<VarId>,
}

impl Blocks {
    fn iter(&self) -> impl Iterator<Item = VarId> + '_ {
        std::iter::once(self.first).chain(self.rest.iter().copied())
    }
}

pub(crate) enum Op {
    /// Input / parameter: no parents.
    Leaf,
    /// Input that takes no gradient, read where its owner keeps it (see
    /// [`Tape::shared_constant`]): no parents, no adjoint is ever computed
    /// for it, and its node's own value is empty.
    Shared(Arc<Tensor>),
    /// Parameter `index` of a parameter set, read where the set keeps it
    /// (see [`ParamSet::bind`](crate::ParamSet::bind)): no parents, its
    /// node's own value is empty, and its adjoint accumulates in the
    /// bucket slice of the tape's bound parameter `slot`.
    Param {
        store: Arc<Vec<Tensor>>,
        index: usize,
        slot: usize,
    },
    /// `C[i, :] = b[0, :] + [X_0[i, :] | X_1[i, :] | ...] * W`, optionally
    /// passed through ELU at store time — the fused linear(+activation)
    /// layer over the column blocks of its input.
    Linear {
        x: Blocks,
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
    /// `C[idx[i]] += w[i] * A[i]` with constant weights, without a scaled
    /// copy of `A`; `C[idx[i]] += A[i]` without weights.
    ScatterAdd(VarId, Option<Arc<Vec<f64>>>, Arc<Vec<usize>>),
    /// Row-wise layer normalization with learned gain/bias, plus the
    /// residual `res` when there is one: `C = LN(x) + res`.
    LayerNorm {
        x: VarId,
        res: Option<VarId>,
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
    /// An interior value [`Tape::release_except`] gave back to the pool;
    /// its node holds an empty tensor.
    Released,
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

    /// Number of `f64`s parked for reuse.
    fn parked(&self) -> usize {
        let parked = |(len, bucket): (&usize, &Bucket)| len * bucket.free.len();
        self.by_len.iter().map(parked).sum()
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
    /// Gradient buckets, kept apart from the workspace pool: as many as
    /// were out at once (one per sample of a mini-batch), parked between
    /// steps.
    buckets: BufPool,
    mask: Option<RowMask>,
    /// Set by [`Tape::forward_only`] until the next [`Tape::reset`].
    forward_only: bool,
    /// The parameters bound since the last reset, in binding order: the
    /// bucket's layout.
    slots: Vec<Slot>,
    /// [`Tape::backward`]'s per-node adjoint slots (empty) and its copy of
    /// the bucket layout, as [`Tape::recycle`] gave them back: cleared
    /// between passes, not freed.
    spare_held: Vec<Option<Tensor>>,
    spare_slots: Vec<Slot>,
}

/// A bound parameter's slice of the gradient bucket.
#[derive(Clone)]
struct Slot {
    var: VarId,
    at: usize,
    rows: usize,
    cols: usize,
    /// A contribution has been written (set during [`Tape::backward`]).
    reached: bool,
}

impl Slot {
    fn range(&self) -> Range<usize> {
        self.at..self.at + self.rows * self.cols
    }
}

/// Gradients produced by [`Tape::backward`], indexed by [`VarId`]: one
/// per participating leaf; every interior adjoint was released during
/// the pass. The gradients of bound parameters sit in the bucket (see the
/// module docs), flat in binding order.
pub struct Gradients {
    held: Vec<Option<Tensor>>,
    bucket: Vec<f64>,
    slots: Vec<Slot>,
    /// The parameters' gradients as tensors, per slot, copied out of the
    /// bucket by the first [`Gradients::get`] that asks for one.
    views: OnceCell<Vec<Option<Tensor>>>,
}

impl Gradients {
    /// Gradient of the loss w.r.t. variable `id`, if it participated and
    /// is a leaf. A bound parameter's is a copy of its bucket slice, made
    /// (for every parameter at once) the first time one is asked for;
    /// [`Gradients::param`] reads the slice itself.
    pub fn get(&self, id: VarId) -> Option<&Tensor> {
        match self.slot(id) {
            Some(i) => {
                let views = (0..self.slots.len()).map(|s| self.param_tensor(s));
                self.views.get_or_init(|| views.collect())[i].as_ref()
            }
            None => self.held.get(id.0).and_then(Option::as_ref),
        }
    }

    /// Remove and return the gradient for `id` (a copy of a bound
    /// parameter's, which stays in the bucket).
    pub fn take(&mut self, id: VarId) -> Option<Tensor> {
        match self.slot(id) {
            Some(i) => self.param_tensor(i),
            None => self.held.get_mut(id.0).and_then(Option::take),
        }
    }

    /// The gradient of bound parameter `id`, where it sits in the bucket:
    /// `None` if the loss did not reach it, `id` is not a bound parameter,
    /// or the bucket was taken.
    pub fn param(&self, id: VarId) -> Option<&[f64]> {
        let s = &self.slots[self.slot(id)?];
        (s.reached && !self.bucket.is_empty()).then(|| &self.bucket[s.range()])
    }

    /// Move the bucket out, without a copy: every bound parameter's
    /// gradient, flat in binding order, zero where the loss did not reach
    /// it. Give it back with [`Tape::recycle_bucket`] once consumed.
    /// Parameters read no gradient here afterwards.
    pub fn take_bucket(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.bucket)
    }

    fn slot(&self, id: VarId) -> Option<usize> {
        self.slots.binary_search_by_key(&id.0, |s| s.var.0).ok()
    }

    fn param_tensor(&self, slot: usize) -> Option<Tensor> {
        let s = &self.slots[slot];
        let g = self.param(s.var)?;
        Some(Tensor::from_vec(s.rows, s.cols, g.to_vec()))
    }

    /// Where the weight gradient of a dense op on weight `w` (`[rows,
    /// cols]`) accumulates, zeroed: `w`'s bucket slice itself if `w` is a
    /// bound parameter the loss reaches here first, else a scratch tensor
    /// to add to its adjoint once complete. Either way the gradient has
    /// the same bits.
    fn weight_grad(
        &mut self,
        nodes: &[Node],
        pool: &mut BufPool,
        w: VarId,
        rows: usize,
        cols: usize,
    ) -> WeightGrad {
        if let Op::Param { slot, .. } = nodes[w.0].op {
            let s = &mut self.slots[slot];
            if !s.reached {
                s.reached = true;
                self.bucket[s.range()].fill(0.0);
                return WeightGrad::Slice(s.range());
            }
        }
        WeightGrad::Scratch(pool.zeroed(rows, cols))
    }

    /// Add one contribution to bound parameter `slot`'s gradient: the
    /// first is written, later ones are added, in order — the bits of
    /// summing the contributions into a tensor of its own.
    fn add_to_param(&mut self, slot: usize, contrib: &[f64]) {
        let s = &mut self.slots[slot];
        let dst = &mut self.bucket[s.range()];
        assert_eq!(
            dst.len(),
            contrib.len(),
            "parameter gradient shape mismatch"
        );
        if s.reached {
            for (d, &v) in dst.iter_mut().zip(contrib) {
                *d += v;
            }
        } else {
            dst.copy_from_slice(contrib);
            s.reached = true;
        }
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
            buckets: BufPool::default(),
            mask: None,
            forward_only: false,
            slots: Vec::new(),
            spare_held: Vec::new(),
            spare_slots: Vec::new(),
        }
    }

    /// Mark the recording about to start as **forward-only**: no backward
    /// pass will follow it, so [`Tape::release_except`] may give its
    /// interior values back to the pool. The mark lasts until the next
    /// [`Tape::reset`].
    ///
    /// # Panics
    /// If anything has been recorded since the last reset.
    pub fn forward_only(&mut self) {
        assert!(
            self.nodes.is_empty(),
            "forward_only must mark a recording before its first op"
        );
        self.forward_only = true;
    }

    /// On a forward-only recording, return the value of every interior
    /// node recorded so far to the pool, except the nodes in `keep`: the
    /// caller's promise that no later op reads any other. Leaves and
    /// constants, shared or not, are never released. Does nothing on a
    /// training recording, whose backward pass reads the values.
    ///
    /// # Panics
    /// Under an active row mask: its closing backfill still reads the
    /// masked chain's inputs.
    pub fn release_except(&mut self, keep: &[VarId]) {
        if !self.forward_only {
            return;
        }
        assert!(
            self.mask.is_none(),
            "release_except with an active row mask (its window is still open)"
        );
        for (i, node) in self.nodes.iter_mut().enumerate() {
            let interior = !matches!(
                node.op,
                Op::Leaf | Op::Shared(_) | Op::Param { .. } | Op::Released
            );
            if interior && !keep.contains(&VarId(i)) {
                let value = std::mem::replace(&mut node.value, Tensor::zeros(0, 0));
                self.pool.put(value.into_vec());
                node.op = Op::Released;
            }
        }
    }

    /// Enter **row-masked recording**: until [`Tape::end_row_mask`], the
    /// row-separable ops ([`Tape::linear`], [`Tape::linear_elu`],
    /// [`Tape::linear_elu_blocks`], [`Tape::layer_norm`],
    /// [`Tape::layer_norm_add`], [`Tape::gather_concat`]) compute their values
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
    ///
    /// # Panics
    /// If no row mask is active.
    pub fn end_row_mask(&mut self, complement: &[usize]) {
        #[expect(
            clippy::expect_used,
            reason = "closing a mask that was never opened is a recording bug, as `# Panics` says"
        )]
        let mask = self.mask.take().expect("no row mask active");
        for i in mask.first_node..self.nodes.len() {
            let (before, rest) = self.nodes.split_at_mut(i);
            let Node { value, op, .. } = &mut rest[0];
            let rows = value.rows();
            let mut kernel = RowKernel::of(before, op, rows, &mut self.pool);
            kernel.fill(value, complement, &mut self.pool);
            kernel.release(&mut self.pool);
        }
    }

    /// Record a row-separable op with a `[rows, cols]` value: every row is
    /// computed now, or only the mask rows while a row mask is active
    /// ([`Tape::end_row_mask`] computes the rest) — by the same kernel, so
    /// a value assembled from any partition of its rows is bit-identical
    /// to the one computed whole.
    fn record_rows(&mut self, rows: usize, cols: usize, op: Op) -> VarId {
        let Tape {
            nodes, pool, mask, ..
        } = self;
        let mut out = pool.uninit(rows, cols);
        let mut kernel = RowKernel::of(nodes, &op, rows, pool);
        match mask {
            Some(mask) => kernel.fill(&mut out, &mask.rows, pool),
            None => kernel.run(out.data_mut(), cols, 0, rows),
        }
        kernel.release(pool);
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
            if !matches!(node.op, Op::Released | Op::Shared(_) | Op::Param { .. }) {
                self.pool.put(node.value.into_vec());
            }
        }
        self.slots.clear();
        self.forward_only = false;
    }

    /// Return gradient tensors to the workspace pool, the pass's
    /// bookkeeping to the tape and, unless it was taken, the bucket to the
    /// tape's buckets (the natural follow-up to [`Tape::backward`] once the
    /// gradients have been consumed).
    pub fn recycle(&mut self, grads: Gradients) {
        let Gradients {
            mut held,
            bucket,
            slots,
            ..
        } = grads;
        for g in held.drain(..).flatten() {
            self.pool.put(g.into_vec());
        }
        self.spare_held = held;
        self.spare_slots = slots;
        self.recycle_bucket(bucket);
    }

    /// Give a bucket taken with [`Gradients::take_bucket`] back to the
    /// tape, where the next [`Tape::backward`] of the same binding draws it
    /// again: in the steady state every step reuses one bucket. Like the
    /// pool, the tape keeps only as many buckets of a length as it handed
    /// out.
    pub fn recycle_bucket(&mut self, bucket: Vec<f64>) {
        self.buckets.put(bucket);
    }

    /// Drop the tape's references to the parameters bound since its reset,
    /// so that their [`ParamSet`](crate::ParamSet) updates them in place
    /// rather than copying them on write. The gradients already taken are
    /// unaffected; reading a released parameter's value panics, as reading
    /// any released value does.
    pub fn release_params(&mut self) {
        for node in &mut self.nodes {
            if matches!(node.op, Op::Param { .. }) {
                node.op = Op::Released;
            }
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
    ///
    /// # Panics
    /// If [`Tape::release_except`] released it.
    pub fn value(&self, id: VarId) -> &Tensor {
        value(&self.nodes, id)
    }

    /// Copy of a recorded value, drawn from the workspace pool (for callers
    /// that need an owned tensor to mutate, e.g. halo accumulation).
    pub fn value_copy(&mut self, id: VarId) -> Tensor {
        self.pool.copy_of(value(&self.nodes, id))
    }

    /// Number of `f64`s parked in the workspace pool, i.e. held for reuse
    /// and not part of any recorded value or outstanding gradient. Flat
    /// from step to step once the pool has seen one full step. A parked
    /// gradient bucket is not in the pool ([`Tape::held_len`] counts it).
    pub fn pooled_len(&self) -> usize {
        self.pool.parked()
    }

    /// Number of `f64`s this tape holds: every recorded value not
    /// released, plus [`Tape::pooled_len`], plus its parked gradient
    /// buckets. On a fresh tape, at the end of a recording, this is the
    /// recording's working set. A [`Tape::shared_constant`] or a bound
    /// parameter is its owner's, not the tape's.
    pub fn held_len(&self) -> usize {
        let values: usize = self.nodes.iter().map(|n| n.value.len()).sum();
        values + self.pooled_len() + self.buckets.parked()
    }

    /// Mutable access to a recorded value — the completion hook of the
    /// split-phase halo exchange, which accumulates arrived halos into the
    /// boundary rows of an already-recorded sync node. Callers must finish
    /// all mutation before any later op (or the backward pass) reads the
    /// affected rows.
    ///
    /// # Panics
    /// If the value was released, or is a [`Tape::shared_constant`] or a
    /// bound parameter.
    pub fn value_mut(&mut self, id: VarId) -> &mut Tensor {
        assert_live(&self.nodes, id);
        assert!(
            !matches!(self.nodes[id.0].op, Op::Shared(_) | Op::Param { .. }),
            "tape value {} is shared with its owner and cannot be mutated",
            id.0
        );
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

    /// Record an input nothing differentiates against (features, a loss
    /// target), read where its owner keeps it (a training sample's
    /// features, a request's input) until the next [`Tape::reset`]: it is
    /// never copied, never put into the pool and never released.
    /// [`Tape::backward`] computes no adjoint for it — the ops that read it
    /// skip that product — so its [`Gradients::get`] is `None`. Every other
    /// value and gradient is bit-equal to the one the same pass gives with
    /// the input recorded as a leaf.
    pub fn shared_constant(&mut self, t: Arc<Tensor>) -> VarId {
        self.push(Tensor::zeros(0, 0), Op::Shared(t))
    }

    /// Record parameter `index` of `store` where the store keeps it, with
    /// the next slice of the gradient bucket (the body of
    /// [`ParamSet::bind`](crate::ParamSet::bind)).
    pub(crate) fn param(&mut self, store: &Arc<Vec<Tensor>>, index: usize) -> VarId {
        let t = &store[index];
        self.slots.push(Slot {
            var: VarId(self.nodes.len()),
            at: self.slots.last().map_or(0, |s| s.range().end),
            rows: t.rows(),
            cols: t.cols(),
            reached: false,
        });
        let op = Op::Param {
            store: Arc::clone(store),
            index,
            slot: self.slots.len() - 1,
        };
        self.push(Tensor::zeros(0, 0), op)
    }

    /// Fused linear layer `x * w + b` (`b` is a `[1, out]` row broadcast
    /// over rows): one kernel, one output tensor, instead of a matmul
    /// followed by a broadcast add.
    pub fn linear(&mut self, x: VarId, w: VarId, b: VarId) -> VarId {
        self.linear_impl(&[x], w, b, false)
    }

    /// [`Tape::linear`] with ELU (alpha = 1) applied as the kernel's
    /// store-time post-op: `elu(x * w + b)` as **one** op and one tensor —
    /// the hidden-layer body of every MLP in the model.
    pub fn linear_elu(&mut self, x: VarId, w: VarId, b: VarId) -> VarId {
        self.linear_impl(&[x], w, b, true)
    }

    /// [`Tape::linear_elu`] over the column blocks `x` of its input,
    /// `elu([x_0 | x_1 | ...] * w + b)`, with the concatenation never
    /// stored: each row block of the input is assembled in an L1-sized
    /// scratch and multiplied there, and each block's adjoint goes to its
    /// own variable. The value and every gradient have the bits of
    /// [`Tape::gather_concat`] (no indices) then [`Tape::linear_elu`].
    /// Row-separable, so it may be recorded under a row mask.
    ///
    /// # Panics
    /// If `x` is empty, its blocks differ in row count, their widths do not
    /// sum to `w`'s rows, or `b` is not `[1, w.cols]`.
    pub fn linear_elu_blocks(&mut self, x: &[VarId], w: VarId, b: VarId) -> VarId {
        self.linear_impl(x, w, b, true)
    }

    fn linear_impl(&mut self, x: &[VarId], w: VarId, b: VarId, elu: bool) -> VarId {
        assert!(!x.is_empty(), "linear needs at least one input block");
        let (first, rest) = (x[0], &x[1..]);
        let rows = self.value(first).rows();
        let mut in_dim = 0;
        for &block in x {
            let v = self.value(block);
            assert_eq!(v.rows(), rows, "linear input blocks differ in rows");
            in_dim += v.cols();
        }
        let (vw, vb) = (self.value(w), self.value(b));
        assert_eq!(
            in_dim,
            vw.rows(),
            "linear inner dims: {}x{} * {}x{}",
            rows,
            in_dim,
            vw.rows(),
            vw.cols()
        );
        assert_eq!(vb.shape(), (1, vw.cols()), "linear bias shape");
        let x = Blocks {
            first,
            rest: rest.to_vec(),
        };
        self.record_rows(rows, vw.cols(), Op::Linear { x, w, b, elu })
    }

    /// `a + b` elementwise.
    ///
    /// # Panics
    /// Under a row mask, or if the shapes differ.
    pub fn add(&mut self, a: VarId, b: VarId) -> VarId {
        self.zip("add", a, b, Op::Add(a, b), |x, y| x + y)
    }

    /// `a - b` elementwise.
    ///
    /// # Panics
    /// Under a row mask, or if the shapes differ.
    pub fn sub(&mut self, a: VarId, b: VarId) -> VarId {
        self.zip("sub", a, b, Op::Sub(a, b), |x, y| x - y)
    }

    /// `a ⊙ b` elementwise product.
    ///
    /// # Panics
    /// Under a row mask, or if the shapes differ.
    pub fn mul(&mut self, a: VarId, b: VarId) -> VarId {
        self.zip("mul", a, b, Op::Mul(a, b), |x, y| x * y)
    }

    /// Record the elementwise `f(a, b)` as `op`.
    fn zip(
        &mut self,
        what: &str,
        a: VarId,
        b: VarId,
        op: Op,
        f: impl Fn(f64, f64) -> f64,
    ) -> VarId {
        self.assert_unmasked(what);
        let Tape { nodes, pool, .. } = self;
        let (va, vb) = (value(nodes, a), value(nodes, b));
        assert_eq!(va.shape(), vb.shape(), "{what} shape mismatch");
        let out = zip_map(pool, va, vb, f);
        self.push(out, op)
    }

    /// `alpha * a`.
    pub fn scale(&mut self, a: VarId, alpha: f64) -> VarId {
        self.assert_unmasked("scale");
        let buf = self.pool.take(self.value(a).len());
        let va = self.value(a);
        let mut out = Tensor::from_pool_uninit(va.rows(), va.cols(), buf);
        for (o, &x) in out.data_mut().iter_mut().zip(va.data()) {
            *o = alpha * x;
        }
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
    /// Each output element is summed in one fixed order: the bias, then
    /// the terms of the (at most one) part without indices, in the order of
    /// [`Tape::linear`]'s tile kernel, then the gathered products in part
    /// order, then ELU — so the row blocking changes no bit. Each block of
    /// `tn_panel_rows(in, h)` rows takes those three passes while it is in
    /// L1. The result equals `linear_elu(gather_concat(parts), ..)` to
    /// rounding, not bit for bit.
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
                let (w_p, out) = (&vw.data()[block], prod.data_mut());
                gemm_rows(x.data(), w_p, out, 0, x.rows(), p.cols, h, None, false);
                Some((prod, idx.as_slice()))
            })
            .collect();
        let mut out = pool.uninit(rows, h);
        let block = tn_panel_rows(in_dim, h);
        for r0 in (0..rows).step_by(block) {
            let nr = block.min(rows - r0);
            let chunk = &mut out.data_mut()[r0 * h..(r0 + nr) * h];
            gemm_rows(sx, sw, chunk, r0, nr, sk, h, Some(bias), false);
            for (prod, idx) in &gathered {
                for (i, &src) in idx[r0..r0 + nr].iter().enumerate() {
                    let o_row = &mut chunk[i * h..(i + 1) * h];
                    for (o, &v) in o_row.iter_mut().zip(prod.row(src)) {
                        *o += v;
                    }
                }
            }
            for o in chunk.iter_mut() {
                *o = elu(*o);
            }
        }
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

    /// `out[idx[i]] += a[i]` with `out_rows` output rows: the op of
    /// [`Tape::scatter_add_rows_scaled`] without weights.
    pub fn scatter_add_rows(&mut self, a: VarId, idx: Arc<Vec<usize>>, out_rows: usize) -> VarId {
        self.assert_unmasked("scatter_add_rows");
        let mut out = self.pool.uninit(out_rows, self.value(a).cols());
        self.value(a).scatter_add_rows_into(&idx, &mut out);
        self.push(out, Op::ScatterAdd(a, None, idx))
    }

    /// `out[idx[i]] += weights[i] * a[i]` with `out_rows` output rows: each
    /// row scaled, then added to its destination in input order, without a
    /// `[rows, cols]` scaled copy — the degree-weighted aggregation of the
    /// paper's Eq. 4b. No gradient w.r.t. the weights; `a`'s adjoint is
    /// `weights[i] * g[idx[i]]`.
    pub fn scatter_add_rows_scaled(
        &mut self,
        a: VarId,
        weights: Arc<Vec<f64>>,
        idx: Arc<Vec<usize>>,
        out_rows: usize,
    ) -> VarId {
        self.assert_unmasked("scatter_add_rows_scaled");
        let mut out = self.pool.uninit(out_rows, self.value(a).cols());
        self.value(a)
            .scatter_add_rows_scaled_into(&weights, &idx, &mut out);
        self.push(out, Op::ScatterAdd(a, Some(weights), idx))
    }

    /// Row-wise layer normalization with learned `gamma`/`beta` (`[1, F]`).
    pub fn layer_norm(&mut self, x: VarId, gamma: VarId, beta: VarId, eps: f64) -> VarId {
        self.layer_norm_impl(x, None, gamma, beta, eps)
    }

    /// `layer_norm(x) + res` as one op — the residual MLP's output — with
    /// the bits of [`Tape::layer_norm`] then [`Tape::add`] in value and in
    /// every gradient, but without storing the layer norm's output, which
    /// only the add would read. Row-separable, so it may be recorded under
    /// a row mask.
    ///
    /// # Panics
    /// If `res` and `x` differ in shape, or `gamma`/`beta` are not `[1, F]`.
    pub fn layer_norm_add(
        &mut self,
        x: VarId,
        res: VarId,
        gamma: VarId,
        beta: VarId,
        eps: f64,
    ) -> VarId {
        assert_eq!(
            self.value(res).shape(),
            self.value(x).shape(),
            "layer_norm_add residual shape"
        );
        self.layer_norm_impl(x, Some(res), gamma, beta, eps)
    }

    fn layer_norm_impl(
        &mut self,
        x: VarId,
        res: Option<VarId>,
        gamma: VarId,
        beta: VarId,
        eps: f64,
    ) -> VarId {
        let (rows, cols) = self.value(x).shape();
        assert_eq!(
            self.value(gamma).shape(),
            (1, cols),
            "layer_norm gamma shape"
        );
        assert_eq!(self.value(beta).shape(), (1, cols), "layer_norm beta shape");
        let op = Op::LayerNorm {
            x,
            res,
            gamma,
            beta,
            eps,
        };
        self.record_rows(rows, cols, op)
    }

    /// Scalar `sum_i w[i] * sum_j a[i,j]^2` with constant row weights — the
    /// building block of the paper's consistent MSE (Eq. 6b).
    ///
    /// # Panics
    /// Under a row mask, or if `weights.len()` is not `a`'s row count.
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
    /// the participating leaves ([`Tape::shared_constant`] inputs take none),
    /// the bound parameters' in the bucket. An interior adjoint lives only
    /// from its first contribution until its node has been propagated,
    /// then goes back to the buffer pool, so the next scratch tensor of
    /// its length reuses it. Gradient tensors draw from the tape's buffer
    /// pool and the bucket from its buckets; hand them back with
    /// [`Tape::recycle`] once consumed to keep steady-state steps
    /// allocation-free.
    ///
    /// # Panics
    /// On a forward-only recording, under an open row mask, or if `root` is not `1x1`.
    pub fn backward(&mut self, root: VarId) -> Gradients {
        assert!(
            !self.forward_only,
            "backward on a forward-only recording (Tape::forward_only): \
             its released values are gone"
        );
        assert!(
            self.mask.is_none(),
            "backward with an active row mask (end_row_mask missing)"
        );
        assert_eq!(
            self.value(root).shape(),
            (1, 1),
            "backward root must be a scalar"
        );
        let len = self.slots.last().map_or(0, |s| s.range().end);
        let mut bucket = self.buckets.take(len);
        bucket.resize(len, 0.0);
        let mut held = std::mem::take(&mut self.spare_held);
        held.resize_with(self.nodes.len(), || None);
        let mut slots = std::mem::take(&mut self.spare_slots);
        slots.clone_from(&self.slots);
        let mut grads = Gradients {
            held,
            bucket,
            slots,
            views: OnceCell::new(),
        };
        grads.held[root.0] = Some(self.pool.scalar(1.0));

        let Tape { nodes, pool, .. } = self;
        let nodes: &[Node] = nodes;
        for (i, node) in nodes.iter().enumerate().rev() {
            let Some(g) = grads.held[i].take() else {
                continue;
            };
            match node.op {
                Op::Leaf => grads.held[i] = Some(g),
                Op::Param { slot, .. } => {
                    grads.add_to_param(slot, g.data());
                    pool.put(g.into_vec());
                }
                _ => accumulate(nodes, pool, &mut grads, node, g),
            }
        }
        // A parameter the loss never reached reads zero.
        let Gradients { bucket, slots, .. } = &mut grads;
        for s in slots.iter().filter(|s| !s.reached) {
            bucket[s.range()].fill(0.0);
        }
        grads
    }
}

/// Value of a recorded variable (free-function form for split borrows).
/// Every read of a recorded value goes through here or [`assert_live`].
fn value(nodes: &[Node], id: VarId) -> &Tensor {
    assert_live(nodes, id);
    match &nodes[id.0].op {
        Op::Shared(t) => t,
        Op::Param { store, index, .. } => &store[*index],
        _ => &nodes[id.0].value,
    }
}

/// Never read an empty buffer in place of a released value.
fn assert_live(nodes: &[Node], id: VarId) {
    assert!(
        !matches!(nodes[id.0].op, Op::Released),
        "tape value {} was released by Tape::release_except on a forward-only recording",
        id.0
    );
}

/// Propagate one node's adjoint `g` to its parents, drawing scratch
/// tensors from the workspace pool, and release `g`: a pass-through
/// adjoint moves on to a parent, any other goes back to the pool.
fn accumulate(
    nodes: &[Node],
    pool: &mut BufPool,
    grads: &mut Gradients,
    node: &Node,
    mut g: Tensor,
) {
    // Constants take no adjoint: the ops below skip the products that
    // would only feed one, and `add` drops whatever else reaches one.
    // A bound parameter's contribution goes into its bucket slice.
    let wants = |id: VarId| !matches!(nodes[id.0].op, Op::Shared(_));
    let add = |grads: &mut Gradients, id: VarId, contrib: Tensor, pool: &mut BufPool| {
        match (&nodes[id.0].op, &mut grads.held[id.0]) {
            (Op::Shared(_), _) => {}
            (Op::Param { slot, .. }, _) => grads.add_to_param(*slot, contrib.data()),
            (_, Some(acc)) => acc.add_assign(&contrib),
            (_, slot @ None) => return *slot = Some(contrib),
        }
        pool.put(contrib.into_vec());
    };
    // A dense layer's input block, once its adjoint has streamed: the
    // adjoint goes to the block's variable (`g` itself if it was written
    // over it), the block's `wᵀ` back to the pool.
    let finish = |grads: &mut Gradients,
                  id: VarId,
                  adjoint: Option<(Tensor, Dest)>,
                  g: &mut Option<Tensor>,
                  pool: &mut BufPool| {
        let Some((wt, dest)) = adjoint else { return };
        pool.put(wt.into_vec());
        let contrib = match dest {
            Dest::Add(t) | Dest::Fresh(t) => Some(t),
            Dest::OverG => g.take(),
        };
        if let Some(c) = contrib {
            add(grads, id, c, pool);
        }
    };
    // Pass-through adjoints: the last parent takes `g` itself. The `add`s
    // keep their order, so a parent reached twice (`x + x`) sums the same
    // bits as it would from two copies. Every other op only reads `g`, or
    // writes a parent's adjoint over it and passes it on.
    match &node.op {
        Op::Leaf | Op::Shared(_) | Op::Param { .. } | Op::Released => {}
        Op::Add(a, b) => {
            add(grads, *a, pool.copy_of(&g), pool);
            return add(grads, *b, g, pool);
        }
        Op::Sub(a, b) => {
            let neg = wants(*b).then(|| zip_map(pool, &g, &g, |x, _| -x));
            add(grads, *a, g, pool);
            if let Some(gb) = neg {
                add(grads, *b, gb, pool);
            }
            return;
        }
        Op::Linear { x, w, b, elu } => {
            let vw = value(nodes, *w);
            let (rows, h) = g.shape();
            let mut gw = grads.weight_grad(nodes, pool, *w, vw.rows(), h);
            let mut plan = AdjointPlan {
                nodes,
                w: vw.data(),
                rows,
                h,
                g_free: true,
            };
            // The blocks own consecutive row blocks of `w`, in order.
            let mut row = 0;
            let mut block = |id: VarId, grads: &mut Gradients, pool: &mut BufPool| {
                let k = value(nodes, id).cols();
                let w_rows = row * h..(row + k) * h;
                row += k;
                plan.block(&mut grads.held, pool, id, w_rows, true)
            };
            let mut one: [InputBlock; 1];
            let mut many: Vec<InputBlock>;
            let blocks: &mut [InputBlock] = if x.rest.is_empty() {
                one = [block(x.first, grads, pool)];
                &mut one
            } else {
                many = x.iter().map(|id| block(id, grads, pool)).collect();
                &mut many
            };
            let y = elu.then_some(&node.value);
            let gb = dense_adjoint(pool, &mut g, y, blocks, gw.data(grads), |_, _, _| {});
            let mut g = Some(g);
            for blk in blocks {
                finish(grads, blk.id, blk.adjoint.take(), &mut g, pool);
            }
            if let WeightGrad::Scratch(gw) = gw {
                add(grads, *w, gw, pool);
            }
            add(grads, *b, gb, pool);
            if let Some(g) = g {
                pool.put(g.into_vec());
            }
            return;
        }
        Op::Mul(a, b) => {
            let (va, vb) = (value(nodes, *a), value(nodes, *b));
            let ga = zip_map(pool, &g, vb, |x, y| x * y);
            add(grads, *a, ga, pool);
            let gb = zip_map(pool, &g, va, |x, y| x * y);
            add(grads, *b, gb, pool);
        }
        Op::Scale(a, alpha) => {
            let ga = zip_map(pool, &g, &g, |x, _| alpha * x);
            add(grads, *a, ga, pool);
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
                        add(grads, p.src, contrib, pool);
                    }
                    None => add(grads, p.src, gp, pool),
                }
                off += w;
            }
        }
        Op::GatherLinear { parts, w, b } => {
            let vw = value(nodes, *w);
            let (rows, h) = g.shape();
            // Every part owns its own row block of the one weight gradient.
            let mut gw = grads.weight_grad(nodes, pool, *w, vw.rows(), h);
            // The streamed part (if any) takes its adjoint row block by row
            // block, as `linear` does — added into its source's adjoint
            // unless an earlier part adds to that source first; a gathered
            // part's `S`, the adjoint `t` summed back onto the source rows
            // it was gathered from, accumulates block by block in edge
            // order.
            let mut plan = AdjointPlan {
                nodes,
                w: vw.data(),
                rows,
                h,
                g_free: true,
            };
            let mut streamed = weight_blocks(parts, h)
                .enumerate()
                .find(|(_, (p, _))| p.idx.is_none())
                .map(|(i, (p, w_rows))| {
                    let may_add = parts[..i].iter().all(|q| q.src != p.src);
                    plan.block(&mut grads.held, pool, p.src, w_rows, may_add)
                });
            let mut sums: Vec<Option<Tensor>> = parts
                .iter()
                .map(|p| {
                    let src_rows = value(nodes, p.src).rows();
                    p.idx.as_ref().map(|_| pool.zeroed(src_rows, h))
                })
                .collect();
            let y = Some(&node.value);
            let blocks = streamed.as_mut_slice();
            let gb = dense_adjoint(pool, &mut g, y, blocks, gw.data(grads), |r0, nr, t| {
                for (p, s) in parts.iter().zip(sums.iter_mut()) {
                    if let (Some(idx), Some(s)) = (&p.idx, s) {
                        scatter_add_block(t, &idx[r0..r0 + nr], s);
                    }
                }
            });
            let mut g = Some(g);
            for ((p, block), s) in weight_blocks(parts, h).zip(sums) {
                let Some(s) = s else {
                    if let Some(blk) = streamed.take() {
                        finish(grads, blk.id, blk.adjoint, &mut g, pool);
                    }
                    continue;
                };
                let x = value(nodes, p.src);
                if wants(p.src) {
                    let gx = times_transposed(pool, &s, &vw.data()[block.clone()], p.cols);
                    add(grads, p.src, gx, pool);
                }
                let gwp = &mut gw.data(grads)[block];
                gemm_tn(x.data(), s.data(), gwp, x.rows(), p.cols, h);
                pool.put(s.into_vec());
            }
            if let WeightGrad::Scratch(gw) = gw {
                add(grads, *w, gw, pool);
            }
            add(grads, *b, gb, pool);
            if let Some(g) = g {
                pool.put(g.into_vec());
            }
            return;
        }
        // One closure per case, so the weighted adjoint has no
        // per-element branch on the weights.
        Op::ScatterAdd(a, w, idx) => {
            let acc = grads.held[a.0].as_mut();
            let fresh = match w {
                _ if !wants(*a) => None,
                Some(w) => add_gathered_rows(acc, pool, &g, idx, |i, v| w[i] * v),
                None => add_gathered_rows(acc, pool, &g, idx, |_, v| v),
            };
            if let Some(contrib) = fresh {
                add(grads, *a, contrib, pool);
            }
        }
        Op::LayerNorm {
            x,
            res,
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
            // `+ res` passes the adjoint through: `res` takes `g` itself
            // now that the layer norm's adjoint has read it, and before
            // `x` takes its own, as the separate `add` gave it.
            match res.filter(|&r| wants(r)) {
                Some(res) => add(grads, res, g, pool),
                None => pool.put(g.into_vec()),
            }
            add(grads, *x, gx, pool);
            add(grads, *gamma, ggamma, pool);
            return add(grads, *beta, gbeta, pool);
        }
        Op::WeightedSqSum(a, w) => {
            let va = value(nodes, *a);
            let s = g.item();
            let cols = va.cols();
            let mut ga = pool.uninit(va.rows(), cols);
            for (r, &wr) in w.iter().enumerate() {
                let dst = &mut ga.data_mut()[r * cols..(r + 1) * cols];
                for (d, &u) in dst.iter_mut().zip(va.row(r)) {
                    *d = 2.0 * wr * u * s;
                }
            }
            add(grads, *a, ga, pool);
        }
        Op::Sum(a) => {
            let va = value(nodes, *a);
            let s = g.item();
            let mut contrib = pool.uninit(va.rows(), va.cols());
            contrib.data_mut().fill(s);
            add(grads, *a, contrib, pool);
        }
        Op::Custom { inputs, op } => {
            let vals: Vec<&Tensor> = inputs.iter().map(|&i| value(nodes, i)).collect();
            // The op takes `g`: one that works in place hands it back.
            let contribs = op.backward(g, &vals);
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
                    add(grads, *id, c, pool);
                }
            }
            return;
        }
    }
    pool.put(g.into_vec());
}

/// The rows of `g` gathered by `idx`, row `i` mapped by `f(i, value)`
/// elementwise, as an adjoint contribution: added in place into `acc`,
/// the adjoint its variable already holds, or returned as a fresh tensor.
/// Each element is `acc + f(i, v)`, the bits of adding the materialized
/// contribution.
fn add_gathered_rows(
    acc: Option<&mut Tensor>,
    pool: &mut BufPool,
    g: &Tensor,
    idx: &[usize],
    f: impl Fn(usize, f64) -> f64,
) -> Option<Tensor> {
    match acc {
        Some(acc) => {
            g.gather_rows_with(idx, acc, |i, o_row, src| {
                for (o, &v) in o_row.iter_mut().zip(src) {
                    *o += f(i, v);
                }
            });
            None
        }
        None => {
            let mut contrib = pool.uninit(idx.len(), g.cols());
            g.gather_rows_with(idx, &mut contrib, |i, o_row, src| {
                for (o, &v) in o_row.iter_mut().zip(src) {
                    *o = f(i, v);
                }
            });
            Some(contrib)
        }
    }
}

/// The forward body of a row-separable op — the only kind that may be
/// recorded under a row mask — over its operands' raw buffers: it computes
/// any contiguous range of output rows, each row from its own inputs
/// alone. Full-tensor recording runs it once over all rows, masked
/// recording over packed blocks of the mask rows and of their complement
/// ([`RowKernel::fill`]).
enum RowKernel<'a> {
    Linear {
        nodes: &'a [Node],
        x: &'a Blocks,
        /// The width of the whole input.
        k: usize,
        w: &'a [f64],
        bias: &'a [f64],
        elu: bool,
        /// For an input of several blocks: rows of `[x_0 | x_1 | ...]`,
        /// assembled one L1-sized block of rows at a time. One block is
        /// read in place.
        rows: Option<Tensor>,
    },
    LayerNorm {
        x: &'a [f64],
        res: Option<&'a [f64]>,
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
    fn of(nodes: &'a [Node], op: &'a Op, rows: usize, pool: &mut BufPool) -> Self {
        let val = |id: &VarId| value(nodes, *id);
        match op {
            Op::Linear { x, w, b, elu } => {
                let (k, h) = val(w).shape();
                let block = tn_panel_rows(k, h).min(rows);
                RowKernel::Linear {
                    nodes,
                    x,
                    k,
                    w: val(w).data(),
                    bias: val(b).data(),
                    elu: *elu,
                    rows: (!x.rest.is_empty()).then(|| pool.uninit(block, k)),
                }
            }
            Op::LayerNorm {
                x,
                res,
                gamma,
                beta,
                eps,
            } => RowKernel::LayerNorm {
                x: val(x).data(),
                res: res.as_ref().map(|r| val(r).data()),
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
    fn run(&mut self, chunk: &mut [f64], cols: usize, first_row: usize, nrows: usize) {
        match self {
            RowKernel::Linear {
                nodes,
                x,
                k,
                w,
                bias,
                elu,
                rows,
            } => {
                let k = *k;
                let Some(rows) = rows else {
                    let x = value(nodes, x.first).data();
                    return gemm_rows(x, w, chunk, first_row, nrows, k, cols, Some(bias), *elu);
                };
                let block = rows.rows().max(1);
                for r0 in (0..nrows).step_by(block) {
                    let nr = block.min(nrows - r0);
                    let a = &mut rows.data_mut()[..nr * k];
                    assemble(nodes, x, k, a, |i| first_row + r0 + i);
                    let out = &mut chunk[r0 * cols..(r0 + nr) * cols];
                    gemm_rows(a, w, out, 0, nr, k, cols, Some(bias), *elu);
                }
            }
            RowKernel::LayerNorm {
                x,
                res,
                gamma,
                beta,
                eps,
            } => {
                let Some(res) = res else {
                    let span = first_row * cols..(first_row + nrows) * cols;
                    return layer_norm_forward(&x[span], gamma, beta, *eps, chunk, cols);
                };
                // `+ res` rounds separately, as a following `add` would: a
                // second pass over each L1-sized block the norm has written.
                let block = tn_panel_rows(cols, cols);
                for r0 in (0..nrows).step_by(block) {
                    let nr = block.min(nrows - r0);
                    let span = (first_row + r0) * cols..(first_row + r0 + nr) * cols;
                    let out = &mut chunk[r0 * cols..(r0 + nr) * cols];
                    layer_norm_forward(&x[span.clone()], gamma, beta, *eps, out, cols);
                    for (o, &r) in out.iter_mut().zip(&res[span]) {
                        *o += r;
                    }
                }
            }
            RowKernel::GatherConcat(parts) => {
                for i in 0..nrows {
                    let r = first_row + i;
                    let o_row = &mut chunk[i * cols..(i + 1) * cols];
                    let mut off = 0;
                    for (t, ix) in parts.iter() {
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

    /// Compute the listed rows of `value`, a packed block of
    /// `tn_panel_rows` rows at a time: the block's input rows (every column
    /// block of a linear, `x` of a layer norm) are gathered into pooled
    /// scratch, the range kernel runs once over them as rows `0..n`, and
    /// the output rows are scattered back (plus their `res` rows, for a
    /// layer norm with a residual, rounded after the norm as in `run`). A
    /// row's bits do not depend on its neighbours (rule 2), so they are the
    /// full-tensor path's, while a mask without long runs keeps the 4-row
    /// tiles and quads.
    fn fill(&mut self, value: &mut Tensor, ids: &[usize], pool: &mut BufPool) {
        let cols = value.cols();
        let (k, panel, res) = match self {
            RowKernel::Linear { k, .. } => (*k, tn_panel_rows(*k, cols), None),
            RowKernel::LayerNorm { res, .. } => (cols, tn_panel_rows(cols, cols), *res),
            // Each row is its own sources' copy: nothing to pack.
            RowKernel::GatherConcat(_) => {
                for &r in ids {
                    self.run(&mut value.data_mut()[r * cols..(r + 1) * cols], cols, r, 1);
                }
                return;
            }
        };
        if ids.is_empty() || cols == 0 {
            return;
        }
        let block = panel.min(ids.len());
        let mut input = match self {
            // A column-block linear packs into its assembly scratch.
            RowKernel::Linear { rows, .. } => rows.take(),
            _ => None,
        }
        .unwrap_or_else(|| pool.uninit(block, k));
        let mut out = pool.uninit(block, cols);
        for ids in ids.chunks(block) {
            let nr = ids.len();
            let a = &mut input.data_mut()[..nr * k];
            let o = &mut out.data_mut()[..nr * cols];
            match self {
                RowKernel::Linear {
                    nodes,
                    x,
                    w,
                    bias,
                    elu,
                    ..
                } => {
                    assemble(nodes, x, k, a, |i| ids[i]);
                    gemm_rows(a, w, o, 0, nr, k, cols, Some(bias), *elu);
                }
                RowKernel::LayerNorm {
                    x,
                    gamma,
                    beta,
                    eps,
                    ..
                } => {
                    copy_rows(x, cols, a, cols, 0, |i| ids[i]);
                    layer_norm_forward(a, gamma, beta, *eps, o, cols);
                }
                RowKernel::GatherConcat(_) => unreachable!("gather_concat returned above"),
            }
            let data = value.data_mut();
            for (&r, src) in ids.iter().zip(o.chunks_exact(cols)) {
                let row = r * cols..(r + 1) * cols;
                match res {
                    Some(res) => {
                        for ((d, &v), &x) in data[row.clone()].iter_mut().zip(src).zip(&res[row]) {
                            *d = v + x;
                        }
                    }
                    None => copy_row(&mut data[row], src),
                }
            }
        }
        pool.put(input.into_vec());
        pool.put(out.into_vec());
    }

    /// Give the kernel's scratch back to the pool.
    fn release(self, pool: &mut BufPool) {
        if let RowKernel::Linear { rows: Some(t), .. } = self {
            pool.put(t.into_vec());
        }
    }
}

/// `to = from` for one narrow row. An element loop, as in
/// `gather_concat`: a per-row memcpy call dominates narrow copies.
#[inline]
fn copy_row(to: &mut [f64], from: &[f64]) {
    for (o, &v) in to.iter_mut().zip(from) {
        *o = v;
    }
}

/// Copy row `src_row(i)` of the `w`-wide `src` into columns
/// `off..off + w` of row `i` of the `k`-wide `dst`, for every row of
/// `dst`.
fn copy_rows(
    src: &[f64],
    w: usize,
    dst: &mut [f64],
    k: usize,
    off: usize,
    src_row: impl Fn(usize) -> usize,
) {
    for i in 0..dst.len() / k.max(1) {
        copy_row(&mut dst[i * k + off..][..w], &src[src_row(i) * w..][..w]);
    }
}

/// Rows `src_row(i)` of `[x_0 | x_1 | ...]` into the `k`-wide `a`, one
/// column block after another.
fn assemble(nodes: &[Node], x: &Blocks, k: usize, a: &mut [f64], src_row: impl Fn(usize) -> usize) {
    let mut off = 0;
    for id in x.iter() {
        let t = value(nodes, id);
        copy_rows(t.data(), t.cols(), a, k, off, &src_row);
        off += t.cols();
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

/// Where a dense op's weight gradient accumulates
/// ([`Gradients::weight_grad`]).
enum WeightGrad {
    /// The weight's bucket slice.
    Slice(Range<usize>),
    /// A scratch tensor, added to the weight's adjoint once complete.
    Scratch(Tensor),
}

impl WeightGrad {
    fn data<'a>(&'a mut self, grads: &'a mut Gradients) -> &'a mut [f64] {
        match self {
            WeightGrad::Slice(range) => &mut grads.bucket[range.clone()],
            WeightGrad::Scratch(t) => t.data_mut(),
        }
    }
}

/// Where [`dense_adjoint`] puts an input block's adjoint.
enum Dest {
    /// Added, row block by row block, into the adjoint the block's
    /// variable already has (taken out of its slot meanwhile).
    Add(Tensor),
    /// Written into a fresh tensor.
    Fresh(Tensor),
    /// Written over the output adjoint `g`, which is as wide.
    OverG,
}

/// One column block of a dense layer's input, as [`dense_adjoint`]
/// streams its adjoint.
struct InputBlock<'a> {
    id: VarId,
    /// The block's `[rows, k]` values.
    x: &'a [f64],
    k: usize,
    /// The block's rows of the weight (and of its gradient), as a range of
    /// their row-major data.
    w_rows: std::ops::Range<usize>,
    /// The block's `wᵀ` and its adjoint's destination; `None` for a
    /// constant.
    adjoint: Option<(Tensor, Dest)>,
}

/// The [`InputBlock`]s of one dense layer's backward, for its `[rows, h]`
/// output adjoint `g` and its `[.., h]` weight `w`.
struct AdjointPlan<'a> {
    nodes: &'a [Node],
    w: &'a [f64],
    rows: usize,
    h: usize,
    /// No block writes over `g` yet.
    g_free: bool,
}

impl<'a> AdjointPlan<'a> {
    /// Block `id`, owning `w_rows` of `w`. A block that takes an adjoint
    /// gets its `wᵀ` and a destination: the adjoint its variable already
    /// has (if `may_add`); else `g`, if the block is as wide and no other
    /// block took it; else a fresh tensor.
    fn block(
        &mut self,
        grads: &mut [Option<Tensor>],
        pool: &mut BufPool,
        id: VarId,
        w_rows: std::ops::Range<usize>,
        may_add: bool,
    ) -> InputBlock<'a> {
        let x = value(self.nodes, id);
        let (k, h) = (x.cols(), self.h);
        let adjoint = (!matches!(self.nodes[id.0].op, Op::Shared(_))).then(|| {
            let mut wt = pool.uninit(h, k);
            transpose(&self.w[w_rows.clone()], k, h, wt.data_mut());
            let existing = if may_add { grads[id.0].take() } else { None };
            let dest = match existing {
                Some(acc) => Dest::Add(acc),
                None if k == h && self.g_free => {
                    self.g_free = false;
                    Dest::OverG
                }
                None => Dest::Fresh(pool.uninit(self.rows, k)),
            };
            (wt, dest)
        });
        InputBlock {
            id,
            x: x.data(),
            k,
            w_rows,
            adjoint,
        }
    }
}

/// The adjoint of a dense layer `y = act([x_0 | x_1 | ...] * w + b)`
/// (`act` ELU when the stored output `y` is given, else the identity) from
/// its `[rows, h]` output adjoint `g`, one block of `tn_panel_rows(k, h)`
/// rows at a time, for the input `blocks` (`k` columns in all). Each
/// block, in row order: `t = g ⊙ act'(u)` into an L1-sized scratch (`g`'s
/// rows themselves without ELU, unless a block writes over `g`); `t`'s
/// rows added to the bias gradient; for each input block, its rows of
/// `t * w_pᵀ` to its [`Dest`] and `x_pᵀ * t` added into its rows of `gw`;
/// then `each(first_row, rows, t)`. Every sum keeps the serial row order
/// of the whole-tensor products, so the gradients are their bits, and
/// neither the `[rows, h]` tensor `t` nor an adjoint that is only added
/// into another is stored. Returns the bias gradient.
fn dense_adjoint(
    pool: &mut BufPool,
    g: &mut Tensor,
    y: Option<&Tensor>,
    blocks: &mut [InputBlock],
    gw: &mut [f64],
    mut each: impl FnMut(usize, usize, &[f64]),
) -> Tensor {
    let (rows, h) = g.shape();
    let block = tn_panel_rows(blocks.iter().map(|b| b.k).sum(), h).min(rows);
    let over_g = blocks
        .iter()
        .any(|b| matches!(b.adjoint, Some((_, Dest::OverG))));
    let add_k = blocks
        .iter()
        .filter(|b| matches!(b.adjoint, Some((_, Dest::Add(_)))))
        .map(|b| b.k)
        .max();
    let mut gb = pool.zeroed(1, h);
    // `t` is copied out of `g` when ELU scales it or a block overwrites
    // `g`; an added block's rows pass through `sums` on their way.
    let mut scratch = (y.is_some() || over_g).then(|| pool.uninit(block, h));
    let mut sums = add_k.map(|k| pool.uninit(block, k));
    for r0 in (0..rows).step_by(block.max(1)) {
        let nr = block.min(rows - r0);
        let span = r0 * h..(r0 + nr) * h;
        let (t, mut g_rows): (&[f64], Option<&mut [f64]>) = match scratch.as_mut() {
            Some(s) => {
                let t = &mut s.data_mut()[..nr * h];
                let gs = &g.data()[span.clone()];
                match y {
                    // elu'(u) = exp(u) for u < 0: the stored y = exp(u) - 1,
                    // so y + 1.
                    Some(y) => {
                        for (o, (&gv, &yv)) in
                            t.iter_mut().zip(gs.iter().zip(&y.data()[span.clone()]))
                        {
                            *o = if yv < 0.0 { gv * (yv + 1.0) } else { gv };
                        }
                    }
                    None => t.copy_from_slice(gs),
                }
                (t, Some(&mut g.data_mut()[span]))
            }
            None => (&g.data()[span], None),
        };
        for i in 0..nr {
            for (s, &v) in gb.data_mut().iter_mut().zip(&t[i * h..(i + 1) * h]) {
                *s += v;
            }
        }
        for b in blocks.iter_mut() {
            let rows_k = r0 * b.k..(r0 + nr) * b.k;
            if let Some((wt, dest)) = b.adjoint.as_mut().filter(|_| b.k > 0) {
                let (wt, k) = (wt.data(), b.k);
                // `g_rows` is there when a block writes over `g`, `sums`
                // when one adds: both were sized above.
                match dest {
                    Dest::Fresh(gx) => {
                        let out = &mut gx.data_mut()[rows_k.clone()];
                        gemm_rows(t, wt, out, 0, nr, h, k, None, false);
                    }
                    Dest::OverG => {
                        if let Some(out) = g_rows.as_deref_mut() {
                            gemm_rows(t, wt, out, 0, nr, h, k, None, false);
                        }
                    }
                    Dest::Add(acc) => {
                        if let Some(s) = sums.as_mut() {
                            let s = &mut s.data_mut()[..nr * k];
                            gemm_rows(t, wt, s, 0, nr, h, k, None, false);
                            let acc = &mut acc.data_mut()[rows_k.clone()];
                            for (a, &v) in acc.iter_mut().zip(s.iter()) {
                                *a += v;
                            }
                        }
                    }
                }
            }
            let gw_p = &mut gw[b.w_rows.clone()];
            gemm_tn_acc(&b.x[rows_k], t, gw_p, nr, b.k, h);
        }
        each(r0, nr, t);
    }
    for buf in scratch.into_iter().chain(sums) {
        pool.put(buf.into_vec());
    }
    gb
}

/// `s[idx[i]] += t[i]` for the rows of the block `t`, in row order.
fn scatter_add_block(t: &[f64], idx: &[usize], s: &mut Tensor) {
    let h = s.cols();
    for (i, &dst) in idx.iter().enumerate() {
        for (o, &v) in s.row_mut(dst).iter_mut().zip(&t[i * h..(i + 1) * h]) {
            *o += v;
        }
    }
}

/// Layer norm's forward over a band of whole rows: `out` gets
/// `gamma * (x - mean) * inv + beta` for the same rows of `x` (`cols`
/// wide). At the widths with a constant-shaped block (8 and 32: the
/// model's hidden widths) rows go four at a time, the
/// rest one at a time; either way a row's bits are those of the one-row
/// path ([`layer_norm_lanes`] with one lane), so grouping, row blocks and
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
    for r in 0..g.rows() {
        let src = &g.row(r)[off..off + w];
        for (o, &v) in out.data_mut()[r * w..(r + 1) * w].iter_mut().zip(src) {
            *o = v;
        }
    }
}

/// `f(a[i], b[i])` for every element, into a pooled tensor of `a`'s shape
/// (a map of one tensor passes it as both).
fn zip_map(pool: &mut BufPool, a: &Tensor, b: &Tensor, f: impl Fn(f64, f64) -> f64) -> Tensor {
    debug_assert_eq!(a.shape(), b.shape());
    let mut out = pool.uninit(a.rows(), a.cols());
    for (o, (&x, &y)) in out.data_mut().iter_mut().zip(a.data().iter().zip(b.data())) {
        *o = f(x, y);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::ParamSet;

    #[test]
    fn gather_then_scatter_gradients() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(3, 1, vec![1., 2., 3.]));
        let idx = Arc::new(vec![0usize, 0, 2]);
        let gth = tape.gather_concat(&[(x, Some(idx))]);
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
            fn backward(&self, grad_out: Tensor, _inputs: &[&Tensor]) -> Vec<Option<Tensor>> {
                vec![Some(grad_out)]
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
            fn backward(&self, _grad_out: Tensor, _inputs: &[&Tensor]) -> Vec<Option<Tensor>> {
                vec![Some(Tensor::zeros(1, 1))]
            }
        }
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(3, 2, vec![1., -2., 3., 0.5, -1., 2.]));
        let h = tape.scale(x, 0.5);
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
        let h = tape.linear_elu(x, w, b);
        let sq = tape.mul(h, h);
        let s = tape.sum(sq);
        let grads = tape.backward(s);
        for interior in [h, sq, s] {
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
    /// `linear`, `sub` — recorded with the two as leaves or as constants.
    /// Returns the bits of the loss and of the parameter gradients, and the
    /// gradients of `x` / `t`.
    fn input_graph(constant: bool) -> (Vec<Vec<u64>>, [Option<Tensor>; 2]) {
        let mut tape = Tape::new();
        let xv = Tensor::from_fn(6, 3, |r, c| ((r * 3 + c) as f64 * 0.37).sin());
        let tv = Tensor::from_fn(6, 4, |r, c| ((r + 5 * c) as f64 * 0.23).cos());
        let (x, t) = if constant {
            (
                tape.shared_constant(Arc::new(xv)),
                tape.shared_constant(Arc::new(tv)),
            )
        } else {
            (tape.leaf_copy(&xv), tape.leaf_copy(&tv))
        };
        let w1 = tape.leaf(Tensor::from_fn(6, 4, |r, c| {
            ((r * 4 + c) as f64 * 0.41).cos()
        }));
        let b1 = tape.leaf(Tensor::from_fn(1, 4, |_, c| 0.1 * c as f64 - 0.2));
        let w2 = tape.leaf(Tensor::from_fn(3, 4, |r, c| ((r + c) as f64 * 0.19).sin()));
        let b2 = tape.leaf(Tensor::from_fn(1, 4, |_, c| 0.3 - 0.05 * c as f64));
        let idx = Arc::new(vec![5usize, 0, 3, 3, 1, 2]);
        let cat = tape.gather_concat(&[(x, Some(idx)), (x, None)]);
        let h = tape.linear_elu(cat, w1, b1);
        let m = tape.linear(x, w2, b2);
        let hm = tape.add(h, m);
        let d = tape.sub(hm, t);
        let loss = tape.weighted_sq_sum(d, Arc::new(vec![1.0; 6]));
        let mut grads = tape.backward(loss);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect();
        let mut out = vec![bits(tape.value(loss))];
        out.extend([w1, b1, w2, b2].map(|p| bits(grads.get(p).expect("parameter gradient"))));
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

        // `d sum / d y` is all ones: `dx = 1 w^T`, `dw = x^T 1`, `db` = rows.
        let mut want = xv.matmul(&wv);
        for r in 0..want.rows() {
            for c in 0..want.cols() {
                want.set(r, c, want.get(r, c) + bv.get(0, c));
            }
        }
        let ones = Tensor::full(5, 4, 1.0);
        assert!(fused.value(y).max_rel_diff(&want) < 1e-15);
        let dx = ones.matmul(&wv.transpose());
        assert!(gf.get(x).unwrap().max_rel_diff(&dx) < 1e-15);
        assert!(gf.get(w).unwrap().max_rel_diff(&xv.matmul_tn(&ones)) < 1e-15);
        assert_eq!(gf.get(b).unwrap().data(), &[5.0; 4]);
    }

    /// The backward of an edge MLP — `gather_linear` over `[x[src] |
    /// x[dst] | e]`, two `h → h` `linear_elu` layers, the residual `e`
    /// folded into the layer norm — holds at most two `[E, h]` adjoints at
    /// once: `e`'s, which the residual hands `g` to and `gather_linear`'s
    /// streamed part adds into, and the one passing down the chain, which
    /// each linear overwrites with its input adjoint. A fresh tape takes
    /// every buffer back after the backward and the recycle, so the
    /// `[E, h]` buffers its pool then parks are all it ever lent to
    /// adjoints at the same time (the forward's values still hold theirs).
    #[test]
    fn edge_mlp_backward_holds_two_row_sized_adjoints() {
        let (nodes, edges, h) = (23, 301, 8);
        let mut tape = Tape::new();
        let mut leaf = |rows: usize, cols: usize, salt: usize| {
            tape.leaf(Tensor::from_fn(rows, cols, |r, c| {
                (((r * cols + c) * 7 + salt) as f64 * 0.37).sin()
            }))
        };
        let (x, e) = (leaf(nodes, h, 1), leaf(edges, h, 2));
        let (w0, b0) = (leaf(3 * h, h, 3), leaf(1, h, 4));
        let (w1, b1) = (leaf(h, h, 5), leaf(1, h, 6));
        let (w2, b2) = (leaf(h, h, 7), leaf(1, h, 8));
        let (gamma, beta) = (leaf(1, h, 9), leaf(1, h, 10));
        let src = Arc::new((0..edges).map(|i| (i * 5 + 1) % nodes).collect());
        let dst = Arc::new((0..edges).map(|i| (i * 3 + 2) % nodes).collect());
        let y = tape.gather_linear(&[(x, Some(src)), (x, Some(dst)), (e, None)], w0, b0);
        let y = tape.linear_elu(y, w1, b1);
        let y = tape.linear_elu(y, w2, b2);
        let out = tape.layer_norm_add(y, e, gamma, beta, 1e-5);
        let loss = tape.weighted_sq_sum(out, Arc::new(vec![0.5; edges]));
        let row_sized = |tape: &Tape| {
            tape.pool
                .by_len
                .get(&(edges * h))
                .map_or(0, |b| b.free.len())
        };
        assert_eq!(row_sized(&tape), 0, "the forward parks no [E, h] buffer");
        let grads = tape.backward(loss);
        tape.recycle(grads);
        assert_eq!(row_sized(&tape), 2, "[E, h] adjoints live at once");
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
        let xi = split.gather_concat(&[(x2, Some(Arc::clone(&src)))]);
        let xj = split.gather_concat(&[(x2, Some(Arc::clone(&dst)))]);
        let cat2 = split.gather_concat(&[(xi, None), (xj, None), (e2, None)]);
        let sq2 = split.mul(cat2, cat2);
        let s2 = split.sum(sq2);
        let gs = split.backward(s2);

        assert_eq!(fused.value(cat).data(), split.value(cat2).data());
        assert_eq!(gf.get(x).unwrap().data(), gs.get(x2).unwrap().data());
        assert_eq!(gf.get(e).unwrap().data(), gs.get(e2).unwrap().data());
    }

    /// The fused degree-weighted aggregation gives the bits of scaling the
    /// rows (`mul` by the weights broadcast along each row, a constant)
    /// then `scatter_add_rows`, value and input adjoint, with repeated and
    /// absent destinations and an output row count that is not a multiple
    /// of four.
    #[test]
    fn scatter_add_rows_scaled_matches_scale_then_scatter() {
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
                let rows = tape.shared_constant(Arc::new(Tensor::from_fn(9, 3, |r, _| weights[r])));
                let scaled = tape.mul(a, rows);
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

    /// `x -> linear -> linear_elu -> linear_elu` (one weight), then every
    /// interior value but the last released (which does something on a
    /// forward-only recording).
    fn released_chain(forward_only: bool) -> (Tape, [VarId; 5]) {
        let mut tape = Tape::new();
        if forward_only {
            tape.forward_only();
        }
        let xv = Tensor::from_fn(5, 4, |r, c| (r + c) as f64 * 0.3 - 1.0);
        let x = tape.shared_constant(Arc::new(xv));
        let w = tape.leaf(Tensor::from_fn(4, 4, |r, c| {
            ((r * 4 + c) as f64 * 0.7).cos()
        }));
        let b = tape.leaf(Tensor::zeros(1, 4));
        let u = tape.linear(x, w, b);
        let h = tape.linear_elu(u, w, b);
        let y = tape.linear_elu(h, w, b);
        tape.release_except(&[y]);
        (tape, [x, w, b, u, y])
    }

    /// The release hands the buffers back for the next op of their length,
    /// keeps leaves, constants and the named values, and is a no-op on a
    /// training recording.
    #[test]
    fn release_returns_interior_values_on_forward_only_recordings() {
        let (mut trained, [x, w, b, u, y]) = released_chain(false);
        let (mut released, _) = released_chain(true);
        assert_eq!(trained.pooled_len(), 0);
        assert_eq!(released.pooled_len(), 2 * 5 * 4);
        for id in [x, w, y] {
            assert_eq!(released.value(id).data(), trained.value(id).data());
        }
        assert_eq!(trained.value(u).len(), 5 * 4);
        let again = released.linear_elu(y, w, b);
        assert_eq!(released.pooled_len(), 5 * 4, "released buffer not reused");
        let fresh = trained.linear_elu(y, w, b);
        assert_eq!(released.value(again).data(), trained.value(fresh).data());
        // The mark ends at the reset: the next recording may run backward.
        released.reset();
        let z = released.leaf(Tensor::scalar(2.0));
        let s = released.sum(z);
        assert!(released.backward(s).get(z).is_some());
    }

    #[test]
    #[should_panic(expected = "tape value 3 was released by Tape::release_except")]
    fn reading_a_released_value_panics() {
        let (tape, [.., u, _]) = released_chain(true);
        tape.value(u);
    }

    #[test]
    #[should_panic(expected = "backward on a forward-only recording")]
    fn backward_on_a_forward_only_recording_panics() {
        let (mut tape, [.., y]) = released_chain(true);
        let s = tape.sum(y);
        tape.backward(s);
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// One graph recorded twice, its parameters bound from a `ParamSet` or
    /// copied onto the tape as leaves: the loss and every gradient have
    /// the same bits, and the bucket is the leaf gradients in registration
    /// order. `w` and `b` are read by two linears and `b` again by
    /// `gather_linear` (later contributions add into the bucket slice the
    /// first wrote), `w2` by `gather_linear` alone, gamma and beta by the
    /// layer norm, and `unused` by nothing: its slice reads zero.
    #[test]
    fn bound_parameters_take_the_bits_of_leaf_gradients() {
        let wave = |k: usize| move |r: usize, c: usize| ((r * 5 + c + k) as f64 * 0.37).sin();
        let mut params = ParamSet::new();
        for (name, rows, cols) in [
            ("w", 3, 3),
            ("b", 1, 3),
            ("w2", 6, 3),
            ("unused", 2, 2),
            ("gamma", 1, 3),
            ("beta", 1, 3),
        ] {
            let k = params.len();
            params.register(name, Tensor::from_fn(rows, cols, wave(k)));
        }
        let x = Arc::new(Tensor::from_fn(5, 3, wave(9)));
        let src = Arc::new(vec![4usize, 0, 2, 2, 1, 3, 0]);
        let dst = Arc::new(vec![0usize, 1, 1, 4, 3, 2, 2]);
        let record = |tape: &mut Tape, p: &[VarId]| {
            let xv = tape.shared_constant(Arc::clone(&x));
            let h = tape.linear_elu(xv, p[0], p[1]);
            let h = tape.linear(h, p[0], p[1]);
            let parts = [(h, Some(Arc::clone(&src))), (xv, Some(Arc::clone(&dst)))];
            let e = tape.gather_linear(&parts, p[2], p[1]);
            let n = tape.layer_norm(e, p[4], p[5], 1e-5);
            let sq = tape.mul(n, n);
            tape.sum(sq)
        };
        let mut bound_tape = Tape::new();
        let bound = params.bind(&mut bound_tape);
        let l = record(&mut bound_tape, bound.vars());
        let mut leaf_tape = Tape::new();
        let leaves: Vec<VarId> = params
            .tensors()
            .iter()
            .map(|t| leaf_tape.leaf_copy(t))
            .collect();
        let l2 = record(&mut leaf_tape, &leaves);
        // Binding copied nothing onto the tape.
        assert_eq!(
            leaf_tape.held_len() - bound_tape.held_len(),
            params.num_scalars()
        );

        let mut grads = bound_tape.backward(l);
        let want = leaf_tape.backward(l2);
        assert_eq!(
            bound_tape.value(l).item().to_bits(),
            leaf_tape.value(l2).item().to_bits()
        );
        let mut flat = Vec::new();
        for (i, t) in params.tensors().iter().enumerate() {
            let (got, leaf) = (grads.get(bound.vars()[i]), want.get(leaves[i]));
            assert_eq!(
                got.map(|g| bits(g.data())),
                leaf.map(|g| bits(g.data())),
                "{i}"
            );
            assert_eq!(grads.param(bound.vars()[i]), leaf.map(Tensor::data), "{i}");
            match leaf {
                Some(g) => flat.extend_from_slice(g.data()),
                None => flat.extend(std::iter::repeat_n(0.0, t.len())),
            }
        }
        assert!(grads.get(bound.vars()[3]).is_none(), "unused parameter");
        assert_eq!(bits(&grads.take_bucket()), bits(&flat));
    }

    /// Writing a parameter while a tape reads it leaves the tape's value
    /// alone (copy on write); once the tape lets go, it is written in
    /// place.
    #[test]
    fn bound_parameters_are_copied_only_on_a_write_under_a_tape() {
        let mut params = ParamSet::new();
        let w = params.register("w", Tensor::from_vec(1, 2, vec![1.0, 2.0]));
        let mut tape = Tape::new();
        let bound = params.bind(&mut tape);
        let shared = params.get(w).data().as_ptr();
        params.get_mut(w).data_mut()[0] = 5.0;
        assert_ne!(
            params.get(w).data().as_ptr(),
            shared,
            "written under the tape"
        );
        assert_eq!(tape.value(bound.var(w)).data(), &[1.0, 2.0]);

        for release in [Tape::reset, Tape::release_params] {
            params.bind(&mut tape);
            release(&mut tape);
            let owned = params.get(w).data().as_ptr();
            params.get_mut(w).data_mut()[1] += 1.0;
            assert_eq!(params.get(w).data().as_ptr(), owned, "copied after release");
        }
        assert_eq!(params.get(w).data(), &[5.0, 4.0]);
    }

    /// A bucket given back to the tape is the one the next backward of the
    /// same binding hands out: same address, same capacity.
    #[test]
    fn a_recycled_bucket_is_drawn_again() {
        let mut params = ParamSet::new();
        params.register("w", Tensor::from_fn(4, 3, |r, c| (r + c) as f64 * 0.1));
        params.register("b", Tensor::zeros(1, 3));
        let mut tape = Tape::new();
        let mut seen = Vec::new();
        for _ in 0..4 {
            tape.reset();
            let bound = params.bind(&mut tape);
            let x = tape.leaf(Tensor::from_fn(6, 4, |r, c| ((r * 4 + c) as f64).cos()));
            let y = tape.linear_elu(x, bound.vars()[0], bound.vars()[1]);
            let s = tape.sum(y);
            let mut grads = tape.backward(s);
            let bucket = grads.take_bucket();
            assert_eq!(bucket.len(), params.num_scalars());
            seen.push((bucket.as_ptr(), bucket.capacity()));
            tape.recycle(grads);
            tape.recycle_bucket(bucket);
        }
        assert!(seen.windows(2).all(|p| p[0] == p[1]), "{seen:?}");
    }

    /// Backward's bookkeeping stays on the tape between passes, as the
    /// bucket does: the per-node adjoint slots and the copy of the bucket
    /// layout that `recycle` takes back are the ones the next backward
    /// hands out, same address and capacity, over warm passes of a graph
    /// with leaves, bound parameters and interior nodes.
    #[test]
    fn backward_bookkeeping_is_kept_between_passes() {
        let mut params = ParamSet::new();
        params.register("w", Tensor::from_fn(4, 3, |r, c| (r + c) as f64 * 0.1));
        params.register("b", Tensor::zeros(1, 3));
        let mut tape = Tape::new();
        let mut seen = Vec::new();
        for _ in 0..5 {
            tape.reset();
            let bound = params.bind(&mut tape);
            let x = tape.leaf(Tensor::from_fn(6, 4, |r, c| ((r * 4 + c) as f64).cos()));
            let y = tape.linear_elu(x, bound.vars()[0], bound.vars()[1]);
            let s = tape.sum(y);
            let mut grads = tape.backward(s);
            assert!(grads.get(x).is_some(), "the leaf's gradient is held");
            let (held, slots) = (&grads.held, &grads.slots);
            seen.push([
                (held.as_ptr() as usize, held.capacity()),
                (slots.as_ptr() as usize, slots.capacity()),
            ]);
            let bucket = grads.take_bucket();
            tape.recycle(grads);
            tape.recycle_bucket(bucket);
        }
        assert!(seen.windows(2).all(|p| p[0] == p[1]), "{seen:?}");
    }

    #[test]
    fn reset_tape_replays_bit_identically() {
        let run = |tape: &mut Tape| -> (Vec<f64>, Vec<f64>) {
            let x = tape.leaf(Tensor::from_fn(9, 4, |r, c| {
                ((r * 4 + c) as f64 * 0.3).sin()
            }));
            let w = tape.leaf(Tensor::from_fn(4, 4, |r, c| ((r + c) as f64 * 0.21).cos()));
            let b = tape.leaf(Tensor::zeros(1, 4));
            let h = tape.linear_elu(x, w, b);
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
