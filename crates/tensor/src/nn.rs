//! Neural-network building blocks: parameter store, linear layers, and the
//! residual MLP used throughout the paper's GNN (ELU activations + layer
//! normalization, per Sec. III of the paper).

use std::sync::Arc;

use rand::Rng;

use crate::init::xavier_uniform;
use crate::tape::{Tape, VarId};
use crate::tensor::Tensor;

/// Index of a parameter inside a [`ParamSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamId(pub usize);

/// Owns all trainable tensors of a model.
///
/// Modules hold [`ParamId`]s; before each forward pass the set is bound to a
/// fresh tape with [`ParamSet::bind`], which registers every parameter on
/// it and returns the `VarId` mapping.
///
/// The tensors are shared with every tape they are bound to, which reads
/// them where the set keeps them. Writing a parameter ([`ParamSet::get_mut`],
/// [`ParamSet::tensors_mut`], [`ParamSet::register`]) is copy-on-write: in
/// place once no tape holds them ([`Tape::reset`], [`Tape::release_params`]),
/// onto a fresh copy otherwise, so a recording keeps the values it read.
#[derive(Debug, Default)]
pub struct ParamSet {
    tensors: Arc<Vec<Tensor>>,
    names: Vec<String>,
}

impl ParamSet {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a parameter tensor under a diagnostic name.
    pub fn register(&mut self, name: impl Into<String>, t: Tensor) -> ParamId {
        Arc::make_mut(&mut self.tensors).push(t);
        self.names.push(name.into());
        ParamId(self.tensors.len() - 1)
    }

    pub fn len(&self) -> usize {
        self.tensors.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tensors.is_empty()
    }

    /// Total number of scalar parameters (the "trainable parameters" count
    /// of the paper's Table I).
    pub fn num_scalars(&self) -> usize {
        self.tensors.iter().map(|t| t.len()).sum()
    }

    pub fn get(&self, id: ParamId) -> &Tensor {
        &self.tensors[id.0]
    }

    pub fn get_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut Arc::make_mut(&mut self.tensors)[id.0]
    }

    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    pub fn tensors(&self) -> &[Tensor] {
        &self.tensors
    }

    pub fn tensors_mut(&mut self) -> &mut [Tensor] {
        Arc::make_mut(&mut self.tensors).as_mut_slice()
    }

    /// Register every parameter on `tape`, in registration order; returns
    /// the binding. Nothing is copied: the tape reads each parameter where
    /// this set keeps it, as [`Tape::shared_constant`] reads an input, but
    /// a parameter takes a gradient. [`Tape::backward`] writes the
    /// gradients into the tape's bucket, one slice per parameter in binding
    /// order, so on a tape bound once since its reset the bucket is laid
    /// out as [`ParamSet::flatten`] lays out the parameters
    /// ([`Gradients::take_bucket`](crate::Gradients::take_bucket)).
    ///
    /// The tape holds the parameters until its next [`Tape::reset`] or
    /// [`Tape::release_params`]; an update before then copies them first
    /// (see [`ParamSet`]).
    pub fn bind(&self, tape: &mut Tape) -> BoundParams {
        let first = tape.len();
        for i in 0..self.tensors.len() {
            tape.param(&self.tensors, i);
        }
        BoundParams {
            first,
            len: self.tensors.len(),
        }
    }

    /// Flatten all parameters into a single vector (for checksums/tests).
    pub fn flatten(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.num_scalars());
        for t in self.tensors.iter() {
            out.extend_from_slice(t.data());
        }
        out
    }
}

/// Per-pass mapping from [`ParamId`] to tape [`VarId`]: [`ParamSet::bind`]
/// records the parameters consecutively, so the binding is the range of
/// their variables and parameter `i` is the `i`-th.
pub struct BoundParams {
    first: usize,
    len: usize,
}

impl BoundParams {
    /// # Panics
    /// If `id` is not a parameter of the bound set.
    pub fn var(&self, id: ParamId) -> VarId {
        assert!(id.0 < self.len, "parameter {} is not bound", id.0);
        VarId(self.first + id.0)
    }

    /// Every bound parameter's variable, in binding order, as a fresh list.
    pub fn vars(&self) -> Vec<VarId> {
        (self.first..self.first + self.len).map(VarId).collect()
    }
}

/// Fully connected layer `y = x W + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    pub w: ParamId,
    pub b: ParamId,
    pub in_dim: usize,
    pub out_dim: usize,
}

impl Linear {
    pub fn new(
        params: &mut ParamSet,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let w = params.register(format!("{name}.w"), xavier_uniform(in_dim, out_dim, rng));
        let b = params.register(format!("{name}.b"), Tensor::zeros(1, out_dim));
        Linear {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    pub fn forward(&self, tape: &mut Tape, bound: &BoundParams, x: VarId) -> VarId {
        tape.linear(x, bound.var(self.w), bound.var(self.b))
    }

    pub fn num_scalars(&self) -> usize {
        self.in_dim * self.out_dim + self.out_dim
    }
}

/// Multi-layer perceptron: `in -> h -> ... -> h -> out` with an ELU
/// (alpha = 1) after every linear except the last, optional layer
/// normalization on the output, and an optional residual connection
/// (the caller passes the residual to [`Mlp::forward_blocks`] or
/// [`Mlp::forward_gathered`], matching the paper's "MLPs leverage
/// residual connections with layer normalization and ELU activation
/// functions").
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    layer_norm: Option<(ParamId, ParamId)>,
    pub in_dim: usize,
    pub out_dim: usize,
}

impl Mlp {
    /// `n_hidden` is the number of `h -> h` interior linears, so the MLP has
    /// `n_hidden + 2` linear layers in total.
    pub fn new(
        params: &mut ParamSet,
        name: &str,
        in_dim: usize,
        hidden: usize,
        out_dim: usize,
        n_hidden: usize,
        layer_norm: bool,
        rng: &mut impl Rng,
    ) -> Self {
        let mut layers = Vec::with_capacity(n_hidden + 2);
        layers.push(Linear::new(
            params,
            &format!("{name}.lin0"),
            in_dim,
            hidden,
            rng,
        ));
        for i in 0..n_hidden {
            layers.push(Linear::new(
                params,
                &format!("{name}.lin{}", i + 1),
                hidden,
                hidden,
                rng,
            ));
        }
        layers.push(Linear::new(
            params,
            &format!("{name}.lin{}", n_hidden + 1),
            hidden,
            out_dim,
            rng,
        ));
        let ln = layer_norm.then(|| {
            let gamma = params.register(format!("{name}.ln.gamma"), Tensor::full(1, out_dim, 1.0));
            let beta = params.register(format!("{name}.ln.beta"), Tensor::zeros(1, out_dim));
            (gamma, beta)
        });
        Mlp {
            layers,
            layer_norm: ln,
            in_dim,
            out_dim,
        }
    }

    pub fn forward(&self, tape: &mut Tape, bound: &BoundParams, x: VarId) -> VarId {
        self.forward_from(tape, bound, 0, x, None)
    }

    /// [`Mlp::forward`] over the column blocks `x` of its input, the first
    /// layer reading them in place ([`Tape::linear_elu_blocks`]): the bits
    /// of `forward(gather_concat(x))`, without the concatenation (one block
    /// is plain `forward`).
    ///
    /// With `res`, the residual block `forward(..) + res`, the add folded
    /// into the layer norm ([`Tape::layer_norm_add`]): the bits of
    /// `forward` then [`Tape::add`], without storing the layer norm's
    /// output. With a layer norm every op it records is row-separable, so
    /// it may run under a row mask; without one it ends in a plain `add`.
    pub fn forward_blocks(
        &self,
        tape: &mut Tape,
        bound: &BoundParams,
        x: &[VarId],
        res: Option<VarId>,
    ) -> VarId {
        let (w, b) = (bound.var(self.layers[0].w), bound.var(self.layers[0].b));
        let h = tape.linear_elu_blocks(x, w, b);
        self.forward_from(tape, bound, 1, h, res)
    }

    /// [`Mlp::forward`] over the [`Tape::gather_concat`] of `parts`, with
    /// the first layer as one [`Tape::gather_linear`] (same parameters, no
    /// concatenated input): equal to `forward(gather_concat(parts))` to
    /// rounding. With `res`, the residual block of [`Mlp::forward_blocks`].
    pub fn forward_gathered(
        &self,
        tape: &mut Tape,
        bound: &BoundParams,
        parts: &[(VarId, Option<Arc<Vec<usize>>>)],
        res: Option<VarId>,
    ) -> VarId {
        let (w, b) = (bound.var(self.layers[0].w), bound.var(self.layers[0].b));
        let h = tape.gather_linear(parts, w, b);
        self.forward_from(tape, bound, 1, h, res)
    }

    /// Layers `start..` and the layer norm applied to `h`, plus `res`.
    fn forward_from(
        &self,
        tape: &mut Tape,
        bound: &BoundParams,
        start: usize,
        mut h: VarId,
        res: Option<VarId>,
    ) -> VarId {
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate().skip(start) {
            h = if i == last {
                layer.forward(tape, bound, h)
            } else {
                // Hidden layers run as the fused linear+ELU kernel.
                tape.linear_elu(h, bound.var(layer.w), bound.var(layer.b))
            };
        }
        match (self.layer_norm, res) {
            (Some((gamma, beta)), Some(res)) => {
                tape.layer_norm_add(h, res, bound.var(gamma), bound.var(beta), 1e-5)
            }
            (Some((gamma, beta)), None) => {
                tape.layer_norm(h, bound.var(gamma), bound.var(beta), 1e-5)
            }
            (None, Some(res)) => tape.add(h, res),
            (None, None) => h,
        }
    }

    pub fn num_scalars(&self) -> usize {
        let lin: usize = self.layers.iter().map(Linear::num_scalars).sum();
        lin + if self.layer_norm.is_some() {
            2 * self.out_dim
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn linear_param_count() {
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(0);
        let lin = Linear::new(&mut params, "l", 3, 8, &mut rng);
        assert_eq!(lin.num_scalars(), 3 * 8 + 8);
        assert_eq!(params.num_scalars(), 32);
    }

    #[test]
    fn mlp_param_count_matches_registration() {
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(0);
        let mlp = Mlp::new(&mut params, "m", 7, 8, 8, 2, true, &mut rng);
        // 8*(7+1) + 2*(8*9) + 8*9 + 2*8 = 64 + 144 + 72 + 16
        assert_eq!(
            mlp.num_scalars(),
            8 * 7 + 8 + 2 * (8 * 8 + 8) + (8 * 8 + 8) + 16
        );
        assert_eq!(params.num_scalars(), mlp.num_scalars());
    }

    #[test]
    fn mlp_forward_shapes() {
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(1);
        let mlp = Mlp::new(&mut params, "m", 4, 16, 2, 1, true, &mut rng);
        let mut tape = Tape::new();
        let bound = params.bind(&mut tape);
        let x = tape.leaf(Tensor::from_fn(5, 4, |r, c| (r + c) as f64 * 0.1));
        let y = mlp.forward(&mut tape, &bound, x);
        assert_eq!(tape.value(y).shape(), (5, 2));
    }

    /// `forward_blocks(&[x], Some(res))` is `forward(x)` then
    /// `add(.., res)`, bit for bit in the value and in every gradient, with
    /// the layer norm (where the add is folded into it) and without one.
    #[test]
    fn residual_block_is_forward_then_add() {
        for layer_norm in [true, false] {
            let mut params = ParamSet::new();
            let mut rng = StdRng::seed_from_u64(5);
            let mlp = Mlp::new(&mut params, "m", 6, 8, 4, 1, layer_norm, &mut rng);
            let run = |fused: bool| {
                let mut tape = Tape::new();
                let bound = params.bind(&mut tape);
                let x = tape.leaf(Tensor::from_fn(9, 6, |r, c| {
                    ((r * 6 + c) as f64 * 0.3).sin()
                }));
                let res = tape.leaf(Tensor::from_fn(9, 4, |r, c| {
                    ((r + 4 * c) as f64 * 0.7).cos()
                }));
                let y = if fused {
                    mlp.forward_blocks(&mut tape, &bound, &[x], Some(res))
                } else {
                    let h = mlp.forward(&mut tape, &bound, x);
                    tape.add(h, res)
                };
                let sq = tape.mul(y, y);
                let s = tape.sum(sq);
                let grads = tape.backward(s);
                let mut out = vec![tape.value(y).data().to_vec()];
                for &v in bound.vars().iter().chain([&x, &res]) {
                    out.push(grads.get(v).expect("leaf gradient").data().to_vec());
                }
                out
            };
            assert!(run(true) == run(false), "layer norm {layer_norm}");
        }
    }
}
