//! Distributed training loop: forward, consistent loss, backward,
//! DDP gradient reduction, deterministic optimizer step.

use std::sync::Arc;

use cgnn_graph::{edge_features, node_velocity_features, LocalGraph, EDGE_FEATS, NODE_FEATS};
use cgnn_mesh::TaylorGreen;
use cgnn_tensor::{Adam, BoundParams, Tape, Tensor, VarId};

use crate::ddp::reduce_flat_gradients;
use crate::exchange::HaloContext;
use crate::loss::consistent_mse;
use crate::model::{ConsistentGnn, GnnConfig};
use crate::mp_layer::GraphIndices;
use crate::schedule::{EpochReport, EpochSchedule};

/// Immutable per-rank training data: features, targets, and index buffers.
#[derive(Clone)]
pub struct RankData {
    /// The reduced distributed graph this sample lives on.
    pub graph: Arc<LocalGraph>,
    /// Shared per-pass index buffers derived from `graph`.
    pub idx: GraphIndices,
    /// `[n_local, 3]` input node features, shared with every tape that
    /// reads them ([`Tape::shared_constant`]) instead of copied per pass.
    pub x: Arc<Tensor>,
    /// `[n_edges, 7]` input edge features, shared as `x` is.
    pub e: Arc<Tensor>,
    /// `[n_local, 3]` regression target (`[0, 3]` on
    /// [`RankData::for_inference`] data), shared with the loss as `x` is.
    pub target: Arc<Tensor>,
}

impl RankData {
    /// Build from raw feature buffers.
    pub fn new(graph: Arc<LocalGraph>, x: Vec<f64>, target: Vec<f64>) -> Self {
        let target = Tensor::from_vec(graph.n_local(), NODE_FEATS, target);
        Self::with_target(graph, x, target)
    }

    /// Input for [`Trainer::predict`]: features only, with a `[0, 3]`
    /// target where a training sample holds its target. No loss accepts
    /// it: training or evaluating on this data panics with "target must
    /// cover local nodes".
    pub fn for_inference(graph: Arc<LocalGraph>, x: Vec<f64>) -> Self {
        Self::with_target(graph, x, Tensor::zeros(0, NODE_FEATS))
    }

    fn with_target(graph: Arc<LocalGraph>, x: Vec<f64>, target: Tensor) -> Self {
        let e_buf = edge_features(&graph, &x, NODE_FEATS);
        RankData {
            idx: GraphIndices::from_graph(&graph),
            x: Arc::new(Tensor::from_vec(graph.n_local(), NODE_FEATS, x)),
            e: Arc::new(Tensor::from_vec(graph.n_edges(), EDGE_FEATS, e_buf)),
            target: Arc::new(target),
            graph,
        }
    }

    /// The paper's demonstration task: node-level autoencoding of the
    /// Taylor-Green velocity field (`Yhat = X`, paper Sec. III-A).
    pub fn tgv_autoencode(graph: Arc<LocalGraph>, field: &TaylorGreen, t: f64) -> Self {
        let x = node_velocity_features(&graph, field, t);
        Self::new(graph, x.clone(), x)
    }
}

/// One rank's training state. Every rank constructs a `Trainer` with the
/// same `seed`, giving identical replicas; consistency (Eq. 3) plus the
/// deterministic reductions keep them in lockstep forever after.
pub struct Trainer {
    /// The encode-process-decode GNN architecture.
    pub model: ConsistentGnn,
    /// The trainable parameters (replica-identical across ranks).
    pub params: cgnn_tensor::ParamSet,
    /// The Adam optimizer, whose step count doubles as the trainer's
    /// position in an epoch schedule.
    pub opt: Adam,
    /// The halo-exchange context wiring this rank's consistency.
    pub ctx: HaloContext,
    /// Reusable autodiff workspace: reset (not dropped) between forward
    /// passes so steady-state steps draw recycled buffers instead of
    /// allocating — fresh multi-megabyte `Vec`s cost real page faults
    /// every pass. Replays are bit-identical to fresh tapes. `RefCell`
    /// because evaluation entry points take `&self`; each rank owns its
    /// trainer, so the borrow is never contended.
    tape: std::cell::RefCell<Tape>,
    /// The last step's gradient bucket, as `(address, capacity)`.
    #[cfg(test)]
    last_bucket: (usize, usize),
}

impl Trainer {
    /// Seed a fresh trainer: identical `(config, seed)` on every rank
    /// yields bit-identical initial replicas.
    pub fn new(config: GnnConfig, seed: u64, lr: f64, ctx: HaloContext) -> Self {
        let (params, model) = ConsistentGnn::seeded(config, seed);
        Trainer {
            model,
            params,
            opt: Adam::new(lr),
            ctx,
            tape: std::cell::RefCell::new(Tape::new()),
            #[cfg(test)]
            last_bucket: (0, 0),
        }
    }

    /// Reinstall a training checkpoint (parameters + Adam state, as
    /// produced by `cgnn-tensor::serialize::write_checkpoint`): names and
    /// shapes are verified against this trainer's architecture, and the
    /// next step resumes **bit-identically** to the uninterrupted run.
    /// Non-collective; every rank restores the same (replica-identical)
    /// checkpoint.
    pub fn restore(
        &mut self,
        params: &cgnn_tensor::ParamSet,
        opt: &cgnn_tensor::AdamState,
    ) -> std::io::Result<()> {
        opt.validate_for(params)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        cgnn_tensor::restore_into(&mut self.params, params)?;
        self.opt.set_state(opt.clone());
        Ok(())
    }

    /// Number of `f64`s parked in this trainer's tape workspace
    /// ([`Tape::pooled_len`]): flat from step to step, whatever mix of
    /// training, evaluation and inference runs on it.
    pub fn pooled_len(&self) -> usize {
        self.tape.borrow().pooled_len()
    }

    /// Number of optimizer steps this trainer has taken (checkpoint
    /// restores reinstall the saved count) — the position
    /// [`Trainer::train_epoch`] resumes from.
    pub fn steps_taken(&self) -> u64 {
        self.opt.steps()
    }

    /// Record one sample's forward pass on `tape`, returning the
    /// prediction variable. The features are read where `data` holds them.
    fn forward_graph(&self, tape: &mut Tape, bound: &BoundParams, data: &RankData) -> VarId {
        let x = tape.shared_constant(Arc::clone(&data.x));
        let e = tape.shared_constant(Arc::clone(&data.e));
        self.model
            .forward(tape, bound, x, e, &data.graph, &data.idx, &self.ctx)
    }

    /// Record one sample's forward pass and consistent loss on `tape`,
    /// returning the loss variable. Shared by evaluation, single-sample
    /// steps, and mini-batch accumulation.
    fn loss_graph(&self, tape: &mut Tape, bound: &BoundParams, data: &RankData) -> VarId {
        let y = self.forward_graph(tape, bound, data);
        consistent_mse(
            tape,
            y,
            &data.target,
            &data.graph,
            &data.idx.node_inv_degree,
            &self.ctx.comm,
        )
    }

    /// Number of `f64`s this trainer's tape holds ([`Tape::held_len`]):
    /// its recorded values plus its parked buffers. After a first
    /// [`Trainer::predict`] on a fresh trainer, that pass's working set.
    pub fn held_len(&self) -> usize {
        self.tape.borrow().held_len()
    }

    /// Forward pass + consistent loss, no parameter update. Collective.
    /// Forward-only: the model holds one layer's values at a time.
    pub fn eval_loss(&self, data: &RankData) -> f64 {
        let mut tape = self.tape.borrow_mut();
        tape.reset();
        tape.forward_only();
        let bound = self.params.bind(&mut tape);
        let l = self.loss_graph(&mut tape, &bound, data);
        tape.value(l).item()
    }

    /// Inference: forward pass returning the prediction matrix.
    /// Forward-only: the model holds one layer's values at a time.
    pub fn predict(&self, data: &RankData) -> Tensor {
        let mut tape = self.tape.borrow_mut();
        tape.reset();
        tape.forward_only();
        let bound = self.params.bind(&mut tape);
        let y = self.forward_graph(&mut tape, &bound, data);
        tape.value(y).clone()
    }

    /// [`Trainer::predict`] on every sample of `batch`, in order (what
    /// `sysbench`'s `core.predict_batch8_ms_per_sample` probe times).
    pub fn predict_batch(&self, batch: &[&RankData]) -> Vec<Tensor> {
        batch.iter().map(|d| self.predict(d)).collect()
    }

    /// One training iteration (forward, backward, DDP reduce, Adam step).
    /// Returns the loss *before* the update. Collective.
    pub fn step(&mut self, data: &RankData) -> f64 {
        self.step_batch(&[data])
    }

    /// One optimizer step over a mini-batch: forward + backward per sample,
    /// gradients accumulated locally and averaged, then **one** fused DDP
    /// all-reduce and one Adam update. Returns the mean pre-update loss of
    /// the batch. Collective; every rank must present the same batch (same
    /// sample order, same size), which is what [`EpochSchedule`]
    /// guarantees. A single-sample batch is bit-identical to
    /// [`Trainer::step`].
    ///
    /// The first sample's gradient bucket is the step's flat gradient: the
    /// later samples' are added into it, it is all-reduced in place, Adam
    /// reads it, and it goes back to the tape, so a steady-state step
    /// copies no gradient and allocates no flat buffer.
    ///
    /// # Panics
    /// If `batch` is empty.
    pub fn step_batch(&mut self, batch: &[&RankData]) -> f64 {
        assert!(!batch.is_empty(), "empty mini-batch");
        let mut loss_sum = 0.0;
        let mut flat_sum: Vec<f64> = Vec::new();
        // Reuse one tape (and its buffer pool) across the whole batch — and,
        // because the trainer owns it, across every step of the run.
        let tape_cell = std::mem::take(&mut self.tape);
        let mut tape = tape_cell.into_inner();
        for data in batch {
            tape.reset();
            let bound = self.params.bind(&mut tape);
            let l = self.loss_graph(&mut tape, &bound, data);
            loss_sum += tape.value(l).item();
            let mut grads = tape.backward(l);
            // The tape's one binding since its reset: the bucket is laid
            // out as `flatten_local_gradients` would copy it.
            let bucket = grads.take_bucket();
            tape.recycle(grads);
            if flat_sum.is_empty() {
                flat_sum = bucket;
            } else {
                for (a, g) in flat_sum.iter_mut().zip(&bucket) {
                    *a += g;
                }
                tape.recycle_bucket(bucket);
            }
        }
        // Adam updates the parameters in place once the tape lets go.
        tape.release_params();
        self.tape = std::cell::RefCell::new(tape);
        if batch.len() > 1 {
            let inv = 1.0 / batch.len() as f64;
            for v in &mut flat_sum {
                *v *= inv;
            }
        }
        let reduced = reduce_flat_gradients(&self.params, flat_sum, &self.ctx.comm);
        self.opt.step(&mut self.params, &reduced);
        #[cfg(test)]
        {
            self.last_bucket = (reduced.as_ptr() as usize, reduced.capacity());
        }
        self.tape.get_mut().recycle_bucket(reduced);
        loss_sum / batch.len() as f64
    }

    /// Run `iterations` training steps, returning the loss history.
    pub fn train(&mut self, data: &RankData, iterations: usize) -> Vec<f64> {
        (0..iterations).map(|_| self.step(data)).collect()
    }

    /// Train the remaining mini-batches of `epoch` over the dataset
    /// `samples` according to `schedule`, returning the epoch's
    /// [`EpochReport`]. See [`Trainer::train_epoch_with`].
    pub fn train_epoch(
        &mut self,
        samples: &[RankData],
        schedule: &EpochSchedule,
        epoch: u64,
    ) -> EpochReport {
        self.train_epoch_with(samples, schedule, epoch, |_, _| {})
    }

    /// [`Trainer::train_epoch`] with a per-step hook: `on_step(trainer,
    /// global_step)` fires after every optimizer update (the session layer
    /// hangs periodic checkpointing off it).
    ///
    /// The epoch is *resume-aware*: the batches to run are derived from the
    /// optimizer's step count, so a trainer restored from a mid-epoch
    /// checkpoint continues with exactly the batches the uninterrupted run
    /// would have taken — [`EpochSchedule`] recomputes the same shuffled
    /// order from `(seed, epoch)` alone.
    ///
    /// # Panics
    /// If `samples` does not match the schedule's `n_samples`, or the
    /// optimizer's step count lies outside this epoch (the caller walked
    /// the epochs out of order).
    pub fn train_epoch_with(
        &mut self,
        samples: &[RankData],
        schedule: &EpochSchedule,
        epoch: u64,
        mut on_step: impl FnMut(&Trainer, u64),
    ) -> EpochReport {
        assert_eq!(
            samples.len(),
            schedule.n_samples,
            "dataset size does not match the schedule"
        );
        let spe = schedule.steps_per_epoch();
        let first_step = self.steps_taken();
        assert!(
            epoch * spe <= first_step && first_step < (epoch + 1) * spe,
            "optimizer at step {first_step} is outside epoch {epoch} \
             ({spe} steps per epoch)"
        );
        // One shuffle per epoch; each step slices the shared order.
        let order = schedule.order(epoch);
        let mut batch_losses = Vec::new();
        for s in (first_step - epoch * spe)..spe {
            let (lo, hi) = schedule.batch_bounds(s);
            let batch: Vec<&RankData> = order[lo..hi].iter().map(|&i| &samples[i]).collect();
            batch_losses.push(self.step_batch(&batch));
            let t = self.steps_taken();
            on_step(self, t);
        }
        EpochReport {
            epoch,
            first_step,
            batch_losses,
        }
    }

    /// Mean consistent loss of the current parameters over every sample of
    /// a dataset, in canonical (unshuffled) order. No updates. Collective.
    ///
    /// # Panics
    /// If `samples` is empty.
    pub fn eval_mean_loss(&self, samples: &[RankData]) -> f64 {
        assert!(!samples.is_empty(), "empty dataset");
        samples.iter().map(|d| self.eval_loss(d)).sum::<f64>() / samples.len() as f64
    }

    /// Autoregressive rollout: repeatedly feed the model's prediction back
    /// as its input, regenerating the edge features from the predicted node
    /// state each step — the accelerated-simulation use-case the paper's
    /// introduction motivates. Returns the state after each of the `steps`
    /// applications. Because the model is consistent, a distributed rollout
    /// stays continuous across partition boundaries at every step.
    pub fn rollout(&self, data: &RankData, steps: usize) -> Vec<Tensor> {
        let mut states = Vec::with_capacity(steps);
        let mut current = Tensor::clone(&data.x);
        for _ in 0..steps {
            let step_data = RankData::for_inference(Arc::clone(&data.graph), current.into_vec());
            current = self.predict(&step_data);
            states.push(current.clone());
        }
        states
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

    #[test]
    fn training_reduces_loss_single_rank() {
        let mesh = BoxMesh::tgv_cube(2, 2);
        let g = Arc::new(build_global_graph(&mesh));
        let field = TaylorGreen::new(0.01);
        let history = World::run(1, |comm| {
            let ctx = HaloContext::single(comm.clone());
            let mut trainer = Trainer::new(GnnConfig::small(), 42, 1e-3, ctx);
            let data = RankData::tgv_autoencode(Arc::clone(&g), &field, 0.0);
            trainer.train(&data, 30)
        })
        .pop()
        .expect("one history");
        assert!(
            history[29] < history[0] * 0.9,
            "loss did not drop: {history:?}"
        );
    }

    /// Distributed rollouts remain partition-consistent: after k
    /// autoregressive steps, coincident nodes still agree across ranks and
    /// with the R=1 rollout.
    #[test]
    fn rollout_is_partition_consistent() {
        let mesh = BoxMesh::tgv_cube(2, 2);
        let field = TaylorGreen::new(0.01);
        let global = Arc::new(cgnn_graph::build_global_graph(&mesh));
        let g1 = Arc::clone(&global);
        let reference = World::run(1, move |comm| {
            let ctx = HaloContext::single(comm.clone());
            let trainer = Trainer::new(GnnConfig::small(), 5, 1e-3, ctx);
            let data = RankData::tgv_autoencode(Arc::clone(&g1), &field, 0.0);
            trainer.rollout(&data, 3)
        })
        .pop()
        .expect("states");

        let part = Partition::new(&mesh, 2, Strategy::Slab);
        let graphs = Arc::new(build_distributed_graph(&mesh, &part));
        let out = World::run(2, move |comm| {
            let g = Arc::new(graphs[comm.rank()].clone());
            let ctx = HaloContext::new(comm.clone(), &g, HaloExchangeMode::NeighborAllToAll);
            let trainer = Trainer::new(GnnConfig::small(), 5, 1e-3, ctx);
            let data = RankData::tgv_autoencode(Arc::clone(&g), &field, 0.0);
            (g.gids.clone(), trainer.rollout(&data, 3))
        });
        for (gids, states) in &out {
            for (step, state) in states.iter().enumerate() {
                for (row, &gid) in gids.iter().enumerate() {
                    let gr = global.local_of_gid(gid).expect("gid");
                    for c in 0..3 {
                        let a = state.get(row, c);
                        let b = reference[step].get(gr, c);
                        assert!(
                            (a - b).abs() < 1e-9,
                            "rollout step {step} gid {gid} col {c}: {a} vs {b}"
                        );
                    }
                }
            }
        }
    }

    /// Inference data predicts what full data does, and refuses to train.
    #[test]
    fn inference_data_predicts_but_cannot_train() {
        let mesh = BoxMesh::tgv_cube(2, 2);
        let g = Arc::new(build_global_graph(&mesh));
        let field = TaylorGreen::new(0.01);
        let x = node_velocity_features(&g, &field, 0.0);
        let predictions = World::run(1, |comm| {
            let ctx = HaloContext::single(comm.clone());
            let trainer = Trainer::new(GnnConfig::small(), 4, 1e-3, ctx);
            let full = RankData::new(Arc::clone(&g), x.clone(), x.clone());
            let bare = RankData::for_inference(Arc::clone(&g), x.clone());
            assert_eq!(bare.target.shape(), (0, NODE_FEATS));
            (trainer.predict(&full), trainer.predict(&bare))
        });
        let (full, bare) = &predictions[0];
        assert_eq!(full.data(), bare.data());

        let step = std::panic::catch_unwind(|| {
            World::run(1, |comm| {
                let ctx = HaloContext::single(comm.clone());
                let mut trainer = Trainer::new(GnnConfig::small(), 4, 1e-3, ctx);
                trainer.step(&RankData::for_inference(Arc::clone(&g), x.clone()))
            })
        });
        let err = step.expect_err("training on inference data must panic");
        let msg = err
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| err.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(msg.contains("target must cover local nodes"), "{msg}");
    }

    /// `predict` and `eval_loss` give values back at the model's layer
    /// boundaries, and return the bits of the same forward recorded on a
    /// training tape: at R = 1, and at R = 2 under N-A2A and under Ovl-SR,
    /// whose layers close their split-phase window before the release.
    #[test]
    fn forward_only_passes_equal_the_training_recording() {
        let mesh = BoxMesh::tgv_cube(2, 2);
        let field = TaylorGreen::new(0.01);
        for (world, mode) in [
            (1, HaloExchangeMode::NeighborAllToAll),
            (2, HaloExchangeMode::NeighborAllToAll),
            (2, HaloExchangeMode::Overlapped),
        ] {
            let graphs = if world == 1 {
                vec![build_global_graph(&mesh)]
            } else {
                build_distributed_graph(&mesh, &Partition::new(&mesh, world, Strategy::Slab))
            };
            World::run(world, |comm| {
                let g = Arc::new(graphs[comm.rank()].clone());
                let ctx = HaloContext::new(comm.clone(), &g, mode);
                let trainer = Trainer::new(GnnConfig::small(), 11, 1e-3, ctx);
                let data = RankData::tgv_autoencode(g, &field, 0.0);
                // A fresh training tape per recording: its working set is
                // the whole forward's.
                let training =
                    |record: fn(&Trainer, &mut Tape, &BoundParams, &RankData) -> VarId| {
                        let mut tape = Tape::new();
                        let bound = trainer.params.bind(&mut tape);
                        let v = record(&trainer, &mut tape, &bound, &data);
                        (tape.value(v).clone(), tape.held_len())
                    };
                let (y, held) = training(Trainer::forward_graph);
                let what = format!("R={world} {mode} rank {}", comm.rank());
                assert_eq!(trainer.predict(&data).data(), y.data(), "{what}: predict");
                assert!(trainer.held_len() < held, "{what}: nothing released");
                let l = training(Trainer::loss_graph).0.item();
                let eval = trainer.eval_loss(&data);
                assert_eq!(
                    eval.to_bits(),
                    l.to_bits(),
                    "{what}: eval_loss {eval} vs {l}"
                );
            });
        }
    }

    /// In the steady state a step reuses the one gradient bucket the last
    /// step gave back: after warm-up, consecutive steps reduce and update
    /// from the same buffer (same address and capacity), and the parked
    /// workspace does not change, with a prediction between steps.
    #[test]
    fn steps_reuse_one_gradient_bucket() {
        let mesh = BoxMesh::tgv_cube(2, 2);
        let field = TaylorGreen::new(0.01);
        let graphs = build_distributed_graph(&mesh, &Partition::new(&mesh, 2, Strategy::Slab));
        for world in [1, 2] {
            World::run(world, |comm| {
                let g = if world == 1 {
                    Arc::new(build_global_graph(&mesh))
                } else {
                    Arc::new(graphs[comm.rank()].clone())
                };
                let ctx = HaloContext::new(comm.clone(), &g, HaloExchangeMode::NeighborAllToAll);
                let mut trainer = Trainer::new(GnnConfig::small(), 9, 1e-3, ctx);
                let data = RankData::tgv_autoencode(g, &field, 0.0);
                trainer.step(&data);
                trainer.predict(&data);
                trainer.step(&data);
                let (bucket, pooled) = (trainer.last_bucket, trainer.pooled_len());
                assert!(bucket.1 >= trainer.params.num_scalars());
                for step in 3..8 {
                    trainer.predict(&data);
                    trainer.step(&data);
                    let what = format!("R={world} rank {} step {step}", comm.rank());
                    assert_eq!(trainer.last_bucket, bucket, "{what}: bucket");
                    assert_eq!(trainer.pooled_len(), pooled, "{what}: pooled");
                }
            });
        }
    }

    #[test]
    fn distributed_training_stays_in_lockstep() {
        let mesh = BoxMesh::tgv_cube(2, 2);
        let part = Partition::new(&mesh, 2, Strategy::Slab);
        let graphs = Arc::new(build_distributed_graph(&mesh, &part));
        let field = TaylorGreen::new(0.01);
        let out = World::run(2, |comm| {
            let g = Arc::new(graphs[comm.rank()].clone());
            let ctx = HaloContext::new(comm.clone(), &g, HaloExchangeMode::NeighborAllToAll);
            let mut trainer = Trainer::new(GnnConfig::small(), 42, 1e-3, ctx);
            let data = RankData::tgv_autoencode(g, &field, 0.0);
            let history = trainer.train(&data, 10);
            (history, trainer.params.flatten())
        });
        // Same loss trajectory and *bit-identical* parameters on both ranks.
        assert_eq!(out[0].0, out[1].0);
        assert_eq!(out[0].1, out[1].1);
    }

    /// The training working set per node at R = 1: `Trainer::held_len`
    /// after two steps (every forward value plus the parked backward
    /// scratch) on the order-2 boxes of 4³ and 16³ elements (729 and
    /// 35 937 nodes), for both models. A measurement, printed for
    /// docs/PERFORMANCE.md ("Held once"); the large 16³ run holds ~2.7 GB.
    #[test]
    #[ignore = "probe: cargo test --release -p cgnn-core held_f64_per_node -- --ignored --nocapture"]
    fn held_f64_per_node() {
        let l = 2.0 * std::f64::consts::PI;
        for (name, config) in [("small", GnnConfig::small()), ("large", GnnConfig::large())] {
            for e in [4, 16] {
                let mesh = BoxMesh::new((e, e, e), 2, (l, l, l), false);
                let g = Arc::new(build_global_graph(&mesh));
                let nodes = g.n_local();
                let held = World::run(1, |comm| {
                    let ctx = HaloContext::single(comm.clone());
                    let mut trainer = Trainer::new(config, 7, 1e-3, ctx);
                    let data =
                        RankData::tgv_autoencode(Arc::clone(&g), &TaylorGreen::new(0.01), 0.0);
                    trainer.step(&data);
                    trainer.step(&data);
                    trainer.held_len()
                })[0];
                let per_node = held as f64 / nodes as f64;
                let kb = 8.0 * per_node / 1000.0;
                println!("{name} {nodes} nodes: held_len {held}, {per_node:.1} f64 ({kb:.2} KB) per node");
                assert!(held > 0);
            }
        }
    }
}
