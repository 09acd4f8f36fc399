//! The consistent neural message passing layer (paper Eq. 4).
//!
//! Stages, per rank `r`:
//!
//! 1. edge update `e_ij <- MLP(x_i, x_j, e_ij)` (+ residual),
//! 2. local edge aggregation `a_i = sum_{j in N(i)} e_ij / d_ij`,
//! 3. **differentiable halo swap** of the aggregates (Eq. 4c),
//! 4. synchronization `a*_i = sum over coincident copies` (Eq. 4d),
//! 5. node update `x_i <- MLP(a*_i, x_i)` (+ residual).
//!
//! Steps 3-4 are one fused [`HaloSyncOp`] recorded on the tape; its backward
//! is the same exchange applied to the adjoints (the operator is globally
//! symmetric), which is what makes Eq. 3 — gradient consistency — hold.

use std::sync::Arc;

use cgnn_graph::LocalGraph;
use cgnn_tensor::nn::{BoundParams, Mlp, ParamSet};
use cgnn_tensor::tape::CustomOp;
use cgnn_tensor::{Tape, Tensor, VarId};
use rand::Rng;

use crate::exchange::HaloContext;

/// Shared, per-pass-immutable index buffers of one rank's local graph.
#[derive(Clone)]
pub struct GraphIndices {
    /// Source node of each directed edge.
    pub src: Arc<Vec<usize>>,
    /// Destination node of each directed edge.
    pub dst: Arc<Vec<usize>>,
    /// Per-edge `1/d_ij` consistency weights (paper Eq. 4).
    pub edge_inv_degree: Arc<Vec<f64>>,
    /// Per-node `1/d_i` consistency weights (paper Eq. 6).
    pub node_inv_degree: Arc<Vec<f64>>,
    /// Number of locally owned nodes.
    pub n_local: usize,
}

impl GraphIndices {
    /// Share the index buffers of `g`. The buffers live `Arc`-shared on
    /// [`LocalGraph`] itself, so this is a handful of reference-count bumps
    /// — every message-passing layer (and every training step) reuses the
    /// same allocations.
    pub fn from_graph(g: &LocalGraph) -> Self {
        GraphIndices {
            src: Arc::clone(&g.edge_src),
            dst: Arc::clone(&g.edge_dst),
            edge_inv_degree: Arc::clone(&g.edge_inv_degree),
            node_inv_degree: Arc::clone(&g.node_inv_degree),
            n_local: g.n_local(),
        }
    }
}

/// Differentiable halo swap + synchronization as a tape op.
///
/// Forward: `a* = H a` where `H = I + sum of neighbour swaps`.
/// Backward: `da = H^T da* = H da*` — the same exchange on the adjoints,
/// mirroring `torch.distributed.nn`'s differentiable collectives.
pub struct HaloSyncOp {
    graph: Arc<LocalGraph>,
    ctx: HaloContext,
}

impl CustomOp for HaloSyncOp {
    fn name(&self) -> &'static str {
        "halo_sync"
    }

    /// The exchange runs in place on the adjoint, which moves on as the
    /// input's.
    fn backward(&self, mut grad_out: Tensor, _input: &Tensor) -> Option<Tensor> {
        self.ctx.exchange(&mut grad_out, &self.graph);
        Some(grad_out)
    }
}

/// Record the differentiable halo sync of `a` (Eq. 4c-d) and, after it,
/// whatever `consume` records from the synchronized `a*`; returns
/// `consume`'s result.
///
/// One recording for every plan: `a*` starts as a pooled copy of `a`
/// recorded under a [`HaloSyncOp`], and the exchange then completes it in
/// place. A split-phase mode ([`HaloContext::begin`], i.e. `Ovl-SR`)
/// runs `consume` inside the post→wait window under a row mask — interior
/// rows, which the exchange cannot touch, are computed while halos travel,
/// boundary rows are backfilled once they arrived — so `consume` may then
/// record row-separable ops only. Any other mode exchanges first and runs
/// `consume` on all rows. The recorded ops, their final values, and
/// therefore the entire backward pass are bit-identical between the two —
/// only the execution order differs.
///
/// Identity (nothing recorded, `consume` reads `a`) on inconsistent modes
/// and single-rank worlds.
fn halo_sync_then(
    tape: &mut Tape,
    a: VarId,
    graph: &Arc<LocalGraph>,
    ctx: &HaloContext,
    consume: impl FnOnce(&mut Tape, VarId) -> VarId,
) -> VarId {
    if !ctx.is_consistent() || ctx.comm.size() == 1 {
        return consume(tape, a);
    }
    let value = tape.value_copy(a);
    let a_star = tape.custom(
        a,
        value,
        Box::new(HaloSyncOp {
            graph: Arc::clone(graph),
            ctx: ctx.clone(),
        }),
    );
    let Some(pending) = ctx.begin(tape.value(a_star), graph) else {
        // Nothing left in flight: exchange in place now, consume all rows.
        ctx.exchange(tape.value_mut(a_star), graph);
        return consume(tape, a_star);
    };
    // --- Overlap window: interior rows while halos are in flight.
    tape.begin_row_mask(Arc::clone(&graph.interior_rows));
    let out = consume(tape, a_star);
    // --- Close the window: wait + accumulate halos (Eq. 4d) into the sync
    // node's boundary rows, then backfill those rows through the chain.
    pending.finish(tape.value_mut(a_star), graph);
    tape.end_row_mask(&graph.boundary_rows);
    out
}

/// Record the halo sync on the tape (performs the forward exchange).
pub fn halo_sync(tape: &mut Tape, a: VarId, graph: &Arc<LocalGraph>, ctx: &HaloContext) -> VarId {
    halo_sync_then(tape, a, graph, ctx, |_, a_star| a_star)
}

/// One consistent neural message passing layer.
#[derive(Debug, Clone)]
pub struct ConsistentMpLayer {
    /// The edge-update MLP (paper Eq. 4, first line).
    pub edge_mlp: Mlp,
    /// The node-update MLP (paper Eq. 4, second line).
    pub node_mlp: Mlp,
}

impl ConsistentMpLayer {
    /// Build a layer with hidden width `hidden` and `mlp_hidden` interior
    /// MLP layers. Edge MLP input is `(x_i, x_j, e_ij)` (3 x hidden); node
    /// MLP input is `(a*_i, x_i)` (2 x hidden).
    pub fn new(
        params: &mut ParamSet,
        name: &str,
        hidden: usize,
        mlp_hidden: usize,
        rng: &mut impl Rng,
    ) -> Self {
        ConsistentMpLayer {
            edge_mlp: Mlp::new(
                params,
                &format!("{name}.edge"),
                3 * hidden,
                hidden,
                hidden,
                mlp_hidden,
                true,
                rng,
            ),
            node_mlp: Mlp::new(
                params,
                &format!("{name}.node"),
                2 * hidden,
                hidden,
                hidden,
                mlp_hidden,
                true,
                rng,
            ),
        }
    }

    /// Forward pass; returns `(x_new, e_new)`.
    ///
    /// When the exchange mode supports split-phase posting
    /// ([`HaloContext::begin`], i.e. `Ovl-SR`), stages
    /// (3)–(5) are restructured for **true compute/communication overlap**:
    /// the node MLP of the *interior* rows (which the exchange cannot
    /// touch) executes between posting the sends/irecvs and waiting on
    /// the receives, and only the *boundary* rows wait for the halos. Every kernel
    /// involved is row-local, so the reassembled output is bit-identical
    /// to the blocking Send-Recv schedule.
    pub fn forward(
        &self,
        tape: &mut Tape,
        bound: &BoundParams,
        x: VarId,
        e: VarId,
        graph: &Arc<LocalGraph>,
        idx: &GraphIndices,
        ctx: &HaloContext,
    ) -> (VarId, VarId) {
        // (1) Edge update with residual (Eq. 4a). The input layer's
        // `[x_i | x_j | e] * W` is never concatenated: `x` is multiplied by
        // its two blocks of `W` once per node and the products gathered
        // per edge (`Tape::gather_linear`); the residual `+ e` is folded
        // into the layer norm (`Tape::layer_norm_add`).
        let parts = [
            (x, Some(idx.src.clone())),
            (x, Some(idx.dst.clone())),
            (e, None),
        ];
        let e_new = self.edge_mlp.forward_gathered(tape, bound, &parts, Some(e));

        // (2) Degree-weighted local aggregation at the receiver (Eq. 4b),
        // one op: no scaled `[E, h]` copy of the edges is stored.
        let a = tape.scatter_add_rows_scaled(
            e_new,
            idx.edge_inv_degree.clone(),
            idx.dst.clone(),
            idx.n_local,
        );

        // (3)+(4)+(5): halo swap, synchronization, node update with
        // residual — the node MLP is what runs in the overlap window when
        // there is one. Its input layer reads `[a* | x]` as two column
        // blocks (`Tape::linear_elu_blocks`), never concatenated; it and
        // the residual add, folded into the layer norm, are row-separable.
        let x_new = halo_sync_then(tape, a, graph, ctx, |tape, a_star| {
            let blocks = [a_star, x];
            self.node_mlp.forward_blocks(tape, bound, &blocks, Some(x))
        });
        (x_new, e_new)
    }

    /// Total trainable scalars in this layer's two MLPs.
    pub fn num_scalars(&self) -> usize {
        self.edge_mlp.num_scalars() + self.node_mlp.num_scalars()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exchange::HaloExchangeMode;
    use cgnn_comm::World;
    use cgnn_graph::{build_distributed_graph, build_global_graph};
    use cgnn_mesh::BoxMesh;
    use cgnn_partition::{Partition, Strategy};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A single consistent MP layer evaluated on R=2 must reproduce the R=1
    /// result node-for-node (paper Eq. 2 at layer granularity).
    #[test]
    fn layer_output_is_partition_invariant() {
        let mesh = BoxMesh::new((2, 2, 2), 2, (1.0, 1.0, 1.0), false);
        let global = Arc::new(build_global_graph(&mesh));
        let part = Partition::new(&mesh, 2, Strategy::Slab);
        let graphs: Vec<Arc<LocalGraph>> = build_distributed_graph(&mesh, &part)
            .into_iter()
            .map(Arc::new)
            .collect();
        let hidden = 4;

        // Identical parameters everywhere.
        let build = || {
            let mut params = ParamSet::new();
            let mut rng = StdRng::seed_from_u64(99);
            let layer = ConsistentMpLayer::new(&mut params, "mp", hidden, 1, &mut rng);
            (params, layer)
        };

        // Node/edge features as deterministic functions of gid.
        let feats = |g: &LocalGraph| {
            let x = Tensor::from_fn(g.n_local(), hidden, |r, c| {
                ((g.gids[r] as f64 + 1.3 * c as f64) * 0.21).sin()
            });
            let e = Tensor::from_fn(g.n_edges(), hidden, |r, c| {
                let key = g.gids[g.edge_src[r]] as f64 * 1000.0 + g.gids[g.edge_dst[r]] as f64;
                ((key + c as f64) * 0.017).cos()
            });
            (x, e)
        };

        // R = 1 reference.
        let reference = World::run(1, |comm| {
            let (params, layer) = build();
            let mut tape = Tape::new();
            let bound = params.bind(&mut tape);
            let (xv, ev) = feats(&global);
            let x = tape.leaf(xv);
            let e = tape.leaf(ev);
            let idx = GraphIndices::from_graph(&global);
            let ctx = HaloContext::single(comm.clone());
            let (xn, _) = layer.forward(&mut tape, &bound, x, e, &global, &idx, &ctx);
            tape.value(xn).clone()
        })
        .pop()
        .expect("one result");

        // R = 2 distributed with halo exchange.
        let graphs2 = graphs.clone();
        let dist = World::run(2, move |comm| {
            let g = Arc::clone(&graphs2[comm.rank()]);
            let (params, layer) = build();
            let mut tape = Tape::new();
            let bound = params.bind(&mut tape);
            let (xv, ev) = feats(&g);
            let x = tape.leaf(xv);
            let e = tape.leaf(ev);
            let idx = GraphIndices::from_graph(&g);
            let ctx = HaloContext::new(comm.clone(), &g, HaloExchangeMode::NeighborAllToAll);
            let (xn, _) = layer.forward(&mut tape, &bound, x, e, &g, &idx, &ctx);
            (g.gids.clone(), tape.value(xn).clone())
        });

        for (gids, xn) in &dist {
            for (r, &gid) in gids.iter().enumerate() {
                let gr = global.local_of_gid(gid).expect("gid in global graph");
                for c in 0..hidden {
                    let a = xn.get(r, c);
                    let b = reference.get(gr, c);
                    assert!(
                        (a - b).abs() < 1e-10,
                        "gid {gid} col {c}: distributed {a} vs global {b}"
                    );
                }
            }
        }
    }

    /// Ablation of the 1/d_ij edge-degree weights (paper Eq. 4b): with halo
    /// exchanges ON but the degree scaling dropped, duplicated boundary
    /// edges are double-counted and consistency breaks — showing that the
    /// weights and the exchange are *both* required.
    #[test]
    fn dropping_degree_weights_breaks_consistency() {
        let mesh = BoxMesh::new((2, 2, 2), 2, (1.0, 1.0, 1.0), false);
        let global = Arc::new(build_global_graph(&mesh));
        let part = Partition::new(&mesh, 2, Strategy::Slab);
        let graphs: Vec<Arc<LocalGraph>> = build_distributed_graph(&mesh, &part)
            .into_iter()
            .map(Arc::new)
            .collect();
        let hidden = 4;
        let build = || {
            let mut params = ParamSet::new();
            let mut rng = StdRng::seed_from_u64(99);
            let layer = ConsistentMpLayer::new(&mut params, "mp", hidden, 1, &mut rng);
            (params, layer)
        };
        let feats = |g: &LocalGraph| {
            Tensor::from_fn(g.n_local(), hidden, |r, c| {
                ((g.gids[r] as f64 + 1.3 * c as f64) * 0.21).sin()
            })
        };

        let reference = World::run(1, |comm| {
            let (params, layer) = build();
            let idx = GraphIndices::from_graph(&global);
            let ctx = HaloContext::single(comm.clone());
            let mut tape = Tape::new();
            let bound = params.bind(&mut tape);
            let x = tape.leaf(feats(&global));
            let e = tape.leaf(Tensor::zeros(global.n_edges(), hidden));
            let (xn, _) = layer.forward(&mut tape, &bound, x, e, &global, &idx, &ctx);
            tape.value(xn).clone()
        })
        .into_iter()
        .next()
        .expect("one result");

        let graphs2 = graphs.clone();
        let dist = World::run(2, move |comm| {
            let g = Arc::clone(&graphs2[comm.rank()]);
            let (params, layer) = build();
            let mut idx = GraphIndices::from_graph(&g);
            // The ablation: pretend every edge is owned once.
            idx.edge_inv_degree = Arc::new(vec![1.0; g.n_edges()]);
            let ctx = HaloContext::new(comm.clone(), &g, HaloExchangeMode::NeighborAllToAll);
            let mut tape = Tape::new();
            let bound = params.bind(&mut tape);
            let x = tape.leaf(feats(&g));
            let e = tape.leaf(Tensor::zeros(g.n_edges(), hidden));
            let (xn, _) = layer.forward(&mut tape, &bound, x, e, &g, &idx, &ctx);
            (g.gids.clone(), tape.value(xn).clone())
        });

        let mut max_dev = 0.0f64;
        for (gids, xn) in &dist {
            for (r, &gid) in gids.iter().enumerate() {
                let gr = global.local_of_gid(gid).expect("gid in global");
                for c in 0..hidden {
                    max_dev = max_dev.max((xn.get(r, c) - reference.get(gr, c)).abs());
                }
            }
        }
        assert!(
            max_dev > 1e-3,
            "halo exchange alone (without 1/d_ij) should not be consistent; dev {max_dev}"
        );
    }

    /// Without halo exchange (mode None), boundary nodes must deviate from
    /// the R=1 reference — the inconsistency the paper's Fig. 6 shows.
    #[test]
    fn standard_layer_deviates_at_boundaries() {
        let mesh = BoxMesh::new((2, 2, 2), 2, (1.0, 1.0, 1.0), false);
        let global = Arc::new(build_global_graph(&mesh));
        let part = Partition::new(&mesh, 2, Strategy::Slab);
        let graphs: Vec<Arc<LocalGraph>> = build_distributed_graph(&mesh, &part)
            .into_iter()
            .map(Arc::new)
            .collect();
        let hidden = 4;
        let build = || {
            let mut params = ParamSet::new();
            let mut rng = StdRng::seed_from_u64(99);
            let layer = ConsistentMpLayer::new(&mut params, "mp", hidden, 1, &mut rng);
            (params, layer)
        };
        let feats = |g: &LocalGraph| {
            Tensor::from_fn(g.n_local(), hidden, |r, c| {
                ((g.gids[r] as f64 + 1.3 * c as f64) * 0.21).sin()
            })
        };

        let reference = World::run(1, |comm| {
            let (params, layer) = build();
            let idx = GraphIndices::from_graph(&global);
            let ctx = HaloContext::single(comm.clone());
            let mut tape = Tape::new();
            let bound = params.bind(&mut tape);
            let x = tape.leaf(feats(&global));
            let e = tape.leaf(Tensor::zeros(global.n_edges(), hidden));
            let (xn, _) = layer.forward(&mut tape, &bound, x, e, &global, &idx, &ctx);
            tape.value(xn).clone()
        })
        .into_iter()
        .next()
        .expect("one result");

        let graphs2 = graphs.clone();
        let dist = World::run(2, move |comm| {
            let g = Arc::clone(&graphs2[comm.rank()]);
            let (params, layer) = build();
            let mut tape = Tape::new();
            let bound = params.bind(&mut tape);
            let x = tape.leaf(feats(&g));
            let e = tape.leaf(Tensor::zeros(g.n_edges(), hidden));
            let idx = GraphIndices::from_graph(&g);
            let ctx = HaloContext::new(comm.clone(), &g, HaloExchangeMode::None);
            let (xn, _) = layer.forward(&mut tape, &bound, x, e, &g, &idx, &ctx);
            (g.gids.clone(), tape.value(xn).clone())
        });

        let mut max_boundary_dev = 0.0f64;
        let mut max_interior_dev = 0.0f64;
        for (gids, xn) in &dist {
            for (r, &gid) in gids.iter().enumerate() {
                let gr = global.local_of_gid(gid).expect("gid in global");
                let shared = graphs
                    .iter()
                    .filter(|g| g.local_of_gid(gid).is_some())
                    .count()
                    > 1;
                for c in 0..hidden {
                    let dev = (xn.get(r, c) - reference.get(gr, c)).abs();
                    if shared {
                        max_boundary_dev = max_boundary_dev.max(dev);
                    } else {
                        max_interior_dev = max_interior_dev.max(dev);
                    }
                }
            }
        }
        assert!(
            max_boundary_dev > 1e-3,
            "boundary deviation {max_boundary_dev} suspiciously small"
        );
        // One layer of message passing only corrupts nodes within one hop of
        // the cut; most interior nodes remain exact.
        assert!(max_interior_dev < max_boundary_dev);
    }

    /// `halo_sync_then` runs `consume` inside the exchange window exactly
    /// when the strategy is split-phase: under Ovl-SR the tape's row mask
    /// is active while `consume` records (the tape refuses `sum`, which is
    /// not row-separable, only under a mask), under Send-Recv the exchange
    /// is over by then and nothing is masked. Either way the mask is
    /// closed again on return.
    #[test]
    fn consume_records_under_the_row_mask_only_inside_a_window() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let mesh = BoxMesh::new((2, 2, 2), 1, (1.0, 1.0, 1.0), false);
        let part = Partition::new(&mesh, 2, Strategy::Slab);
        let graphs: Vec<Arc<LocalGraph>> = build_distributed_graph(&mesh, &part)
            .into_iter()
            .map(Arc::new)
            .collect();
        for (mode, windowed) in [
            (HaloExchangeMode::SendRecv, false),
            (HaloExchangeMode::Overlapped, true),
        ] {
            let graphs = graphs.clone();
            World::run(2, move |comm| {
                let g = &graphs[comm.rank()];
                let ctx = HaloContext::new(comm.clone(), g, mode);
                let mut tape = Tape::new();
                let a = tape.leaf(Tensor::from_fn(g.n_local(), 3, |r, c| (r + c) as f64));
                let mut masked = None;
                let a_star = halo_sync_then(&mut tape, a, g, &ctx, |tape, a_star| {
                    let refused = catch_unwind(AssertUnwindSafe(|| tape.sum(a_star))).is_err();
                    masked = Some(refused);
                    a_star
                });
                assert_eq!(masked, Some(windowed), "{mode}: mask while consuming");
                tape.sum(a_star);
            });
        }
    }

    /// What the overlap window's row mask costs at one `train_r2_wire`
    /// rank: one layer's node-MLP forward (small model) on rank 0 of the
    /// `(2,6,6)` slab partition, recorded whole and under the window's mask
    /// (the interior rows, then the boundary backfill), alternately, 4 000
    /// times each. Prints the medians for docs/PERFORMANCE.md; the two
    /// recordings have the same bits.
    #[test]
    #[ignore = "probe: cargo test --release -p cgnn-core masked_node_mlp_cost -- --ignored --nocapture"]
    fn masked_node_mlp_cost() {
        use crate::model::GnnConfig;
        let l = 2.0 * std::f64::consts::PI;
        let mesh = BoxMesh::new((2, 6, 6), 2, (l, l, l), false);
        let part = Partition::new(&mesh, 2, Strategy::Slab);
        let graph = build_distributed_graph(&mesh, &part).swap_remove(0);
        let config = GnnConfig::small();
        let mut params = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(5);
        let layer = ConsistentMpLayer::new(
            &mut params,
            "mp",
            config.hidden,
            config.mlp_hidden,
            &mut rng,
        );
        let (n, h) = (graph.n_local(), config.hidden);
        let input = |k: f64| Arc::new(Tensor::from_fn(n, h, |r, c| ((r * h + c) as f64 * k).sin()));
        let (a, x) = (input(0.37), input(0.61));
        let mut tape = Tape::new();
        let mut record = |masked: bool| {
            tape.reset();
            let bound = params.bind(&mut tape);
            let (av, xv) = (
                tape.shared_constant(Arc::clone(&a)),
                tape.shared_constant(Arc::clone(&x)),
            );
            let t0 = std::time::Instant::now();
            if masked {
                tape.begin_row_mask(Arc::clone(&graph.interior_rows));
            }
            let y = layer
                .node_mlp
                .forward_blocks(&mut tape, &bound, &[av, xv], Some(xv));
            if masked {
                tape.end_row_mask(&graph.boundary_rows);
            }
            let us = t0.elapsed().as_secs_f64() * 1e6;
            let bits: Vec<u64> = tape.value(y).data().iter().map(|v| v.to_bits()).collect();
            (us, bits)
        };
        let mut times = [Vec::new(), Vec::new()];
        let want = record(false).1;
        for _ in 0..4000 {
            for masked in [false, true] {
                let (us, bits) = record(masked);
                assert!(bits == want, "masked {masked}");
                times[masked as usize].push(us);
            }
        }
        let [whole, masked] = times.map(|mut t| {
            t.sort_by(f64::total_cmp);
            t[t.len() / 2]
        });
        println!(
            "{n} rows ({} interior, {} boundary), h = {h}: node-MLP forward {whole:.1} us \
             whole, {masked:.1} us masked ({:.2}x)",
            graph.interior_rows.len(),
            graph.boundary_rows.len(),
            masked / whole
        );
    }
}
