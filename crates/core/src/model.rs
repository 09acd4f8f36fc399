//! The encode-process-decode GNN (paper Sec. III): node/edge encoders,
//! `M` consistent neural message passing layers, and a node decoder.

use std::sync::Arc;

use cgnn_graph::{LocalGraph, EDGE_FEATS, NODE_FEATS};
use cgnn_tensor::nn::{BoundParams, Mlp, ParamSet};
use cgnn_tensor::{AdamState, Tape, VarId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::exchange::HaloContext;
use crate::mp_layer::{ConsistentMpLayer, GraphIndices};

/// Architecture hyperparameters (paper Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GnnConfig {
    /// Hidden channel dimensionality `N_H`.
    pub hidden: usize,
    /// Number of neural message passing layers `M`.
    pub n_mp_layers: usize,
    /// Interior (`h -> h`) layers per MLP ("MLP hidden layers" in Table I).
    pub mlp_hidden: usize,
}

impl GnnConfig {
    /// The paper's "small" configuration: `N_H = 8`, `M = 4`, 2 MLP hidden
    /// layers (3,979 parameters in the paper; 4,003 here — the paper does
    /// not fully specify MLP internals, see EXPERIMENTS.md).
    pub fn small() -> Self {
        GnnConfig {
            hidden: 8,
            n_mp_layers: 4,
            mlp_hidden: 2,
        }
    }

    /// The paper's "large" configuration: `N_H = 32`, `M = 4`, 5 MLP hidden
    /// layers (91,459 parameters in the paper; 91,555 here).
    pub fn large() -> Self {
        GnnConfig {
            hidden: 32,
            n_mp_layers: 4,
            mlp_hidden: 5,
        }
    }
}

/// Encode-process-decode GNN with consistent message passing.
pub struct ConsistentGnn {
    /// The architecture hyper-parameters this model was built from.
    pub config: GnnConfig,
    node_encoder: Mlp,
    edge_encoder: Mlp,
    layers: Vec<ConsistentMpLayer>,
    node_decoder: Mlp,
}

impl ConsistentGnn {
    /// Build the model, registering all parameters into `params`.
    ///
    /// Initialization is a pure function of `(config, rng)`; seeding the RNG
    /// identically on every rank yields identical replicas, which is how the
    /// DDP-style setup of the paper shares `theta` across ranks.
    pub fn new(params: &mut ParamSet, config: GnnConfig, rng: &mut impl Rng) -> Self {
        let h = config.hidden;
        let node_encoder = Mlp::new(
            params,
            "enc.node",
            NODE_FEATS,
            h,
            h,
            config.mlp_hidden,
            true,
            rng,
        );
        let edge_encoder = Mlp::new(
            params,
            "enc.edge",
            EDGE_FEATS,
            h,
            h,
            config.mlp_hidden,
            true,
            rng,
        );
        let layers = (0..config.n_mp_layers)
            .map(|i| ConsistentMpLayer::new(params, &format!("mp{i}"), h, config.mlp_hidden, rng))
            .collect();
        // Decoder has no layer norm (outputs are physical quantities).
        let node_decoder = Mlp::new(
            params,
            "dec.node",
            h,
            h,
            NODE_FEATS,
            config.mlp_hidden,
            false,
            rng,
        );
        ConsistentGnn {
            config,
            node_encoder,
            edge_encoder,
            layers,
            node_decoder,
        }
    }

    /// Convenience: build model + fresh parameter set from a seed.
    pub fn seeded(config: GnnConfig, seed: u64) -> (ParamSet, Self) {
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let model = Self::new(&mut params, config, &mut rng);
        (params, model)
    }

    /// Check that a loaded training checkpoint fits the architecture of
    /// `config` before anything is restored from it: parameter names and
    /// shapes are probed against a freshly seeded replica, and the Adam
    /// moments against those parameters. A mismatch is an `InvalidData`
    /// error naming it.
    pub fn check_checkpoint(
        config: GnnConfig,
        params: &ParamSet,
        opt: &AdamState,
    ) -> std::io::Result<()> {
        let (mut probe, _) = Self::seeded(config, 0);
        cgnn_tensor::restore_into(&mut probe, params)?;
        opt.validate_for(&probe)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Full forward pass: encode, M rounds of consistent message passing,
    /// decode. `x` is `[n_local, NODE_FEATS]`, `e` is
    /// `[n_edges, EDGE_FEATS]`; the result is `[n_local, NODE_FEATS]`.
    ///
    /// On a forward-only recording ([`Tape::forward_only`]) every interior
    /// value goes back to the tape's pool at each layer boundary — after
    /// the encoders and after each message-passing layer, whose split-phase
    /// window has closed by then — except the `(x, e)` later layers read,
    /// so the pass holds one layer's values at a time. A training
    /// recording keeps them all for its backward pass.
    pub fn forward(
        &self,
        tape: &mut Tape,
        bound: &BoundParams,
        x: VarId,
        e: VarId,
        graph: &Arc<LocalGraph>,
        idx: &GraphIndices,
        ctx: &HaloContext,
    ) -> VarId {
        let mut xh = self.node_encoder.forward(tape, bound, x);
        let mut eh = self.edge_encoder.forward(tape, bound, e);
        for layer in &self.layers {
            tape.release_except(&[xh, eh]);
            (xh, eh) = layer.forward(tape, bound, xh, eh, graph, idx, ctx);
        }
        tape.release_except(&[xh]);
        self.node_decoder.forward(tape, bound, xh)
    }

    /// Scalar parameter count (paper Table I's "Trainable parameters").
    pub fn num_scalars(&self) -> usize {
        self.node_encoder.num_scalars()
            + self.edge_encoder.num_scalars()
            + self
                .layers
                .iter()
                .map(ConsistentMpLayer::num_scalars)
                .sum::<usize>()
            + self.node_decoder.num_scalars()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgnn_comm::World;
    use cgnn_graph::{build_global_graph, edge_features, node_noise_features};
    use cgnn_mesh::{BoxMesh, GidNoise};
    use cgnn_tensor::Tensor;

    #[test]
    fn table1_parameter_counts() {
        // Paper Table I reports 3,979 (small) and 91,459 (large); our MLP
        // interpretation lands within 0.7% (4,003 / 91,555). The exact MLP
        // layout (bias/LN placement) is not fully specified in the paper.
        let (params, model) = ConsistentGnn::seeded(GnnConfig::small(), 0);
        assert_eq!(model.num_scalars(), 4_003);
        assert_eq!(params.num_scalars(), model.num_scalars());
        let (params, model) = ConsistentGnn::seeded(GnnConfig::large(), 0);
        assert_eq!(model.num_scalars(), 91_555);
        assert_eq!(params.num_scalars(), model.num_scalars());
    }

    #[test]
    fn seeded_models_are_identical() {
        let (p1, _) = ConsistentGnn::seeded(GnnConfig::small(), 7);
        let (p2, _) = ConsistentGnn::seeded(GnnConfig::small(), 7);
        assert_eq!(p1.flatten(), p2.flatten());
        let (p3, _) = ConsistentGnn::seeded(GnnConfig::small(), 8);
        assert_ne!(p1.flatten(), p3.flatten());
    }

    #[test]
    fn forward_produces_expected_shapes() {
        let mesh = BoxMesh::unit_cube(2, 1);
        let g = Arc::new(build_global_graph(&mesh));
        let (params, model) = ConsistentGnn::seeded(GnnConfig::small(), 3);
        let noise = GidNoise::new(1);
        let xbuf = node_noise_features(&g, &noise, 3);
        let ebuf = edge_features(&g, &xbuf, 3);
        let out = World::run(1, |comm| {
            let ctx = HaloContext::single(comm.clone());
            let idx = GraphIndices::from_graph(&g);
            let mut tape = Tape::new();
            let bound = params.bind(&mut tape);
            let x = tape.leaf(Tensor::from_vec(g.n_local(), 3, xbuf.clone()));
            let e = tape.leaf(Tensor::from_vec(g.n_edges(), 7, ebuf.clone()));
            let y = model.forward(&mut tape, &bound, x, e, &g, &idx, &ctx);
            tape.value(y).shape()
        });
        assert_eq!(out[0], (g.n_local(), 3));
    }
}
