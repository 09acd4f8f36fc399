//! Per-rank driving handle passed to [`Session::run`](crate::Session::run)
//! closures.

use std::sync::Arc;

use cgnn_comm::{Comm, StatsSnapshot};
use cgnn_core::{EpochReport, EpochSchedule, RankData, Trainer};
use cgnn_graph::LocalGraph;
use cgnn_mesh::TaylorGreen;
use cgnn_tensor::Tensor;

use crate::checkpoint::CheckpointPolicy;

/// One rank's materialized slice of the session dataset: every sample as
/// ready-to-train [`RankData`], plus the deterministic batching schedule
/// (identical on all ranks).
pub(crate) struct RankDataset {
    pub(crate) samples: Vec<RankData>,
    pub(crate) schedule: EpochSchedule,
}

/// One rank's view of a running session: its communicator, its reduced
/// distributed graph, and a trainer wired to the session's halo exchange.
/// Everything the hand-written SPMD closures used to assemble per rank.
pub struct RankHandle {
    comm: Comm,
    graph: Arc<LocalGraph>,
    trainer: Trainer,
    dataset: Option<Arc<RankDataset>>,
    ckpt_policy: Option<CheckpointPolicy>,
}

impl RankHandle {
    pub(crate) fn new(
        comm: Comm,
        graph: Arc<LocalGraph>,
        trainer: Trainer,
        dataset: Option<Arc<RankDataset>>,
        ckpt_policy: Option<CheckpointPolicy>,
    ) -> Self {
        RankHandle {
            comm,
            graph,
            trainer,
            dataset,
            ckpt_policy,
        }
    }

    /// This rank's materialized dataset, or a panic pointing at the
    /// builder method that configures one.
    #[expect(
        clippy::expect_used,
        reason = "the public callers' `# Panics` sections state it"
    )]
    fn dataset(&self) -> &Arc<RankDataset> {
        self.dataset.as_ref().expect(
            "this session has no dataset: configure one with \
             Session::builder().dataset(..)",
        )
    }

    /// This rank's index.
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.comm.size()
    }

    /// The underlying communicator (for custom collectives).
    pub fn comm(&self) -> &Comm {
        &self.comm
    }

    /// This rank's reduced distributed graph.
    pub fn graph(&self) -> &Arc<LocalGraph> {
        &self.graph
    }

    /// Borrow the trainer (model, parameters, optimizer, halo context).
    pub fn trainer(&self) -> &Trainer {
        &self.trainer
    }

    /// Mutably borrow the trainer for custom training schedules.
    pub fn trainer_mut(&mut self) -> &mut Trainer {
        &mut self.trainer
    }

    /// Display label of this session's halo exchange, matching
    /// [`Session::exchange_label`](crate::Session::exchange_label).
    pub fn exchange_label(&self) -> &'static str {
        self.trainer.ctx.label()
    }

    /// Build rank-local training data from raw node-feature and target
    /// buffers (both `n_local * NODE_FEATS`, row-major).
    pub fn data(&self, x: Vec<f64>, target: Vec<f64>) -> RankData {
        RankData::new(Arc::clone(&self.graph), x, target)
    }

    /// The paper's demonstration task: autoencode the Taylor-Green velocity
    /// field at time `t`.
    pub fn autoencode_data(&self, field: &TaylorGreen, t: f64) -> RankData {
        RankData::tgv_autoencode(Arc::clone(&self.graph), field, t)
    }

    /// One training iteration (forward, backward, DDP reduce, Adam step).
    /// Collective. Returns the pre-update loss.
    pub fn step(&mut self, data: &RankData) -> f64 {
        self.trainer.step(data)
    }

    /// Run `iterations` training steps, returning the loss history.
    /// Collective.
    pub fn train(&mut self, data: &RankData, iterations: usize) -> Vec<f64> {
        self.trainer.train(data, iterations)
    }

    /// Train over the session dataset until `epochs` epochs are complete,
    /// returning one [`EpochReport`] per epoch actually run. Collective.
    ///
    /// The loop is *resume-aware*: the starting position is derived from
    /// the trainer's optimizer step count, so a session restored from a
    /// mid-run checkpoint (periodic or manual) continues with exactly the
    /// remaining batches — the shuffled order is recomputed from `(seed,
    /// epoch)` alone — and the combined trajectory is bit-identical to the
    /// uninterrupted run. A trainer already at or past `epochs` returns an
    /// empty report list.
    ///
    /// If the session configured a [`CheckpointPolicy`], rank 0 writes a
    /// checkpoint every `every_steps` optimizer steps and prunes old files
    /// beyond the retention count.
    ///
    /// # Panics
    /// If the session has no dataset, or a periodic checkpoint write
    /// fails.
    #[expect(
        clippy::expect_used,
        reason = "a failed periodic checkpoint write stops training, as `# Panics` says"
    )]
    pub fn train_epochs(&mut self, epochs: u64) -> Vec<EpochReport> {
        let ds = Arc::clone(self.dataset());
        let spe = ds.schedule.steps_per_epoch();
        let policy = if self.rank() == 0 {
            self.ckpt_policy.clone()
        } else {
            None
        };
        let mut reports = Vec::new();
        while self.trainer.steps_taken() < epochs * spe {
            let (epoch, _) = ds.schedule.position(self.trainer.steps_taken());
            let report =
                self.trainer
                    .train_epoch_with(&ds.samples, &ds.schedule, epoch, |trainer, step| {
                        if let Some(p) = &policy {
                            if p.is_due(step) {
                                p.save_step(trainer, step).expect("periodic checkpoint");
                            }
                        }
                    });
            reports.push(report);
        }
        reports
    }

    /// Mean consistent loss of the current parameters over every dataset
    /// sample, in canonical (unshuffled) order. Identical on every rank.
    /// Collective.
    ///
    /// # Panics
    /// If the session has no dataset.
    pub fn eval_dataset(&self) -> f64 {
        let ds = Arc::clone(self.dataset());
        self.trainer.eval_mean_loss(&ds.samples)
    }

    /// Number of samples in the session dataset (`None` when the session
    /// has no dataset).
    pub fn dataset_len(&self) -> Option<usize> {
        self.dataset.as_ref().map(|ds| ds.samples.len())
    }

    /// The deterministic batching schedule of the session dataset (`None`
    /// when the session has no dataset). Identical on every rank.
    pub fn dataset_schedule(&self) -> Option<EpochSchedule> {
        self.dataset.as_ref().map(|ds| ds.schedule)
    }

    /// Borrow one materialized dataset sample for custom evaluation or
    /// rollout schedules.
    ///
    /// # Panics
    /// If the session has no dataset or `i` is out of range.
    pub fn dataset_sample(&self, i: usize) -> &RankData {
        &self.dataset().samples[i]
    }

    /// Consistent loss of the current parameters, no update. Collective.
    pub fn eval_loss(&self, data: &RankData) -> f64 {
        self.trainer.eval_loss(data)
    }

    /// Inference: forward pass returning the prediction matrix. Collective
    /// when the exchange is consistent.
    pub fn predict(&self, data: &RankData) -> Tensor {
        self.trainer.predict(data)
    }

    /// Autoregressive rollout of `steps` model applications.
    pub fn rollout(&self, data: &RankData, steps: usize) -> Vec<Tensor> {
        self.trainer.rollout(data, steps)
    }

    /// Sum-all-reduce a scalar across ranks. Collective.
    pub fn all_reduce_scalar(&self, v: f64) -> f64 {
        self.comm.all_reduce_scalar(v)
    }

    /// Checkpoint this rank's model parameters **and** optimizer state to
    /// `path` (restored with [`Session::restore`](crate::Session::restore),
    /// after which training resumes bit-identically). Replicas are
    /// bit-identical across ranks, so one rank saving — conventionally
    /// rank 0 — is a complete checkpoint of the distributed run.
    /// Non-collective.
    pub fn save_params(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        cgnn_tensor::save_checkpoint(&self.trainer.params, &self.trainer.opt.state(), path)
    }

    /// Snapshot this rank's communication traffic counters.
    pub fn traffic(&self) -> StatsSnapshot {
        self.comm.stats_snapshot()
    }

    /// Reset this rank's communication traffic counters.
    pub fn traffic_reset(&self) {
        self.comm.stats_reset()
    }
}
