//! The assembled [`Session`]: owns the wired pipeline and drives SPMD
//! execution through per-rank [`RankHandle`]s over the configured
//! communication backend.

use std::path::Path;
use std::sync::Arc;

use cgnn_comm::{Backend, FaultPlan};
use cgnn_core::{ConsistentGnn, EpochReport, GnnConfig, HaloContext, HaloExchangeMode, Trainer};
use cgnn_graph::{build_distributed_graph, build_global_graph, LocalGraph};
use cgnn_mesh::{BoxMesh, TaylorGreen};
use cgnn_partition::{Partition, Strategy};
use cgnn_tensor::{AdamState, ParamSet};

use crate::builder::{SessionBuilder, SessionError};
use crate::checkpoint::CheckpointPolicy;
use crate::dataset::Dataset;
use crate::handle::{RankDataset, RankHandle};

/// A fully wired pipeline instance: mesh, partition, per-rank graphs, and
/// the recipe (exchange strategy, model config, seed, learning rate) for
/// constructing each rank's trainer. Cheap to clone-per-run: the expensive
/// graph construction happened once in [`SessionBuilder::build`].
///
/// [`Session::run`] launches one rank per sub-graph on the configured
/// [`Backend`] (the thread world by default; the serial single-stepping
/// world for deterministic debugging), hands each a [`RankHandle`], and
/// returns the per-rank results in rank order. Repeated `run` calls reuse
/// the same graphs but build fresh trainers, so every run starts from the
/// same seeded state — or, for a session produced by [`Session::restore`],
/// from a saved checkpoint — which is what makes builder sessions
/// reproduce hand-wired loss trajectories bit for bit.
///
/// A clone is a cheap structural copy: it shares the mesh and the
/// decomposition (partition and per-rank graphs) and keeps the recipe
/// (exchange, backend, config, seed, lr, dataset, checkpoints).
#[derive(Clone)]
pub struct Session {
    mesh: Arc<BoxMesh>,
    decomposition: Arc<Decomposition>,
    /// The decomposition rule the partition came from, kept so the
    /// session can re-partition for a different world size
    /// ([`Session::resized`], the elastic recovery path).
    strategy: Strategy,
    exchange: HaloExchangeMode,
    backend: Backend,
    config: GnnConfig,
    seed: u64,
    lr: f64,
    /// Checkpoint each run's trainers start from instead of seeded init
    /// (set by [`Session::restore`]; validated eagerly at restore time).
    checkpoint: Option<Arc<(ParamSet, AdamState)>>,
    /// The snapshot-stream training set epoch methods run over, if
    /// configured.
    dataset: Option<Arc<Dataset>>,
    /// Opt-in every-k-step checkpoint schedule applied during epoch
    /// training.
    ckpt_policy: Option<CheckpointPolicy>,
    /// Fault-injection script armed into every rank's engine on each run
    /// (chaos testing; empty by default, and a rank with no armed fault
    /// carries no fault state).
    fault_plan: FaultPlan,
    /// Which recovery attempt this session is: selects the armed faults
    /// of the plan (0 = initial world; bumped by the elastic loop).
    pub(crate) attempt: u32,
}

/// The mesh's split into ranks: the element partition (`None` for
/// un-partitioned R = 1) and every rank's graph, in rank order.
pub(crate) struct Decomposition {
    partition: Option<Partition>,
    graphs: Vec<Arc<LocalGraph>>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("ranks", &self.ranks())
            .field("elements", &self.mesh.num_elements())
            .field("exchange", &self.exchange.label())
            .field("backend", &self.backend.label())
            .field("hidden", &self.config.hidden)
            .field("seed", &self.seed)
            .field("lr", &self.lr)
            .field("restored", &self.checkpoint.is_some())
            .field("strategy", &self.strategy.label())
            .field("attempt", &self.attempt)
            .finish()
    }
}

impl Session {
    /// Entry point: a default-configured [`SessionBuilder`].
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    pub(crate) fn assembled(
        mesh: Arc<BoxMesh>,
        decomposition: Arc<Decomposition>,
        strategy: Strategy,
        exchange: HaloExchangeMode,
        backend: Backend,
        config: GnnConfig,
        seed: u64,
        lr: f64,
        dataset: Option<Arc<Dataset>>,
        ckpt_policy: Option<CheckpointPolicy>,
        fault_plan: FaultPlan,
    ) -> Self {
        Session {
            mesh,
            decomposition,
            strategy,
            exchange,
            backend,
            config,
            seed,
            lr,
            checkpoint: None,
            dataset,
            ckpt_policy,
            fault_plan,
            attempt: 0,
        }
    }

    /// Number of SPMD ranks this session drives.
    pub fn ranks(&self) -> usize {
        self.decomposition.graphs.len()
    }

    /// The mesh everything was derived from.
    pub fn mesh(&self) -> &Arc<BoxMesh> {
        &self.mesh
    }

    /// The element decomposition (`None` for un-partitioned R = 1).
    pub fn partition(&self) -> Option<&Partition> {
        self.decomposition.partition.as_ref()
    }

    /// Rank `rank`'s reduced distributed graph.
    pub fn graph(&self, rank: usize) -> &Arc<LocalGraph> {
        &self.decomposition.graphs[rank]
    }

    /// All per-rank graphs, in rank order.
    pub fn graphs(&self) -> &[Arc<LocalGraph>] {
        &self.decomposition.graphs
    }

    /// The model configuration each rank trains.
    pub fn config(&self) -> GnnConfig {
        self.config
    }

    /// Display label of the configured halo exchange.
    pub fn exchange_label(&self) -> &'static str {
        self.exchange.label()
    }

    /// The communication transport this session launches ranks on.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The configured snapshot-stream training set, if any.
    pub fn dataset(&self) -> Option<&Arc<Dataset>> {
        self.dataset.as_ref()
    }

    /// The configured periodic-checkpoint schedule, if any.
    pub fn checkpoint_policy(&self) -> Option<&CheckpointPolicy> {
        self.ckpt_policy.as_ref()
    }

    /// The decomposition strategy this session re-partitions with.
    pub fn partition_strategy(&self) -> Strategy {
        self.strategy
    }

    /// The fault-injection plan every run arms (empty unless set).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault_plan
    }

    /// Which recovery attempt this session is (0 = initial world; bumped
    /// by [`Session::train_epochs_elastic`] after each recovery). Selects
    /// the armed faults of an attached [`FaultPlan`].
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// A sibling session differing only in its exchange strategy. The
    /// expensive state (mesh, partition, per-rank graphs) is shared, not
    /// rebuilt — this is how mode-comparison sweeps (Fig. 6, traffic
    /// tables) price several strategies against one wiring.
    pub fn with_exchange(&self, mode: HaloExchangeMode) -> Session {
        Session {
            exchange: mode,
            ..self.clone()
        }
    }

    /// A sibling session differing only in its communication backend —
    /// training trajectories are bit-identical across backends, so this
    /// swaps scheduling (e.g. onto the deterministic serial world) without
    /// touching arithmetic or wiring.
    pub fn with_backend(&self, backend: Backend) -> Session {
        Session {
            backend,
            ..self.clone()
        }
    }

    /// A sibling session whose runs resume from the training checkpoint at
    /// `path` (written by [`RankHandle::save_params`]) instead of seeded
    /// initialization. The checkpoint's architecture is validated against
    /// this session's model configuration *now*, so mismatches surface as
    /// an error here rather than a panic inside the SPMD region. A resumed
    /// run continues **bit-identically** to the uninterrupted one.
    pub fn restore(&self, path: impl AsRef<Path>) -> std::io::Result<Session> {
        let (params, opt) = cgnn_tensor::load_checkpoint(path)?;
        self.restored(params, opt)
    }

    /// [`Session::restore`] from a checkpoint already parsed into memory
    /// (a [`LatestReport`](crate::LatestReport)'s), validated the same way.
    pub(crate) fn restored(&self, params: ParamSet, opt: AdamState) -> std::io::Result<Session> {
        ConsistentGnn::check_checkpoint(self.config, &params, &opt)?;
        Ok(Session {
            checkpoint: Some(Arc::new((params, opt))),
            ..self.clone()
        })
    }

    /// A sibling session decomposed for a different world size: the mesh
    /// is re-partitioned with the session's stored [`Strategy`] and every
    /// rank's reduced graph is rebuilt;
    /// everything else (model recipe, seed, dataset, checkpoint policy,
    /// fault plan, restored state) carries over. This is the
    /// re-partitioning step of elastic recovery: after a rank dies, the
    /// survivors' new world is exactly `self.resized(survivors)`.
    ///
    /// Model parameters are partition-independent (replicas are
    /// bit-identical), so a restored checkpoint remains valid across a
    /// resize — only the data decomposition changes.
    pub fn resized(&self, ranks: usize) -> Result<Session, SessionError> {
        Ok(Session {
            decomposition: decompose(&self.mesh, ranks, self.strategy)?,
            ..self.clone()
        })
    }

    /// Run `f` on every rank of the configured backend, returning the
    /// per-rank results in rank order. Each rank's [`RankHandle`] arrives
    /// with its graph, halo context, and trainer already wired — freshly
    /// seeded, or restored from the checkpoint for sessions produced by
    /// [`Session::restore`].
    #[expect(
        clippy::expect_used,
        clippy::missing_panics_doc,
        reason = "`Session::restore` validated the checkpoint against this config, so restoring it cannot fail"
    )]
    pub fn run<T, F>(&self, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&mut RankHandle) -> T + Sync,
    {
        let spmd = |comm: &cgnn_comm::Comm| {
            let graph = Arc::clone(self.graph(comm.rank()));
            let ctx = HaloContext::new(comm.clone(), &graph, self.exchange);
            let mut trainer = Trainer::new(self.config, self.seed, self.lr, ctx);
            if let Some(ckpt) = &self.checkpoint {
                trainer
                    .restore(&ckpt.0, &ckpt.1)
                    .expect("checkpoint validated in Session::restore");
            }
            let dataset = self.dataset.as_ref().map(|ds| {
                Arc::new(RankDataset {
                    samples: ds.rank_samples(&graph),
                    schedule: ds.schedule(self.seed),
                })
            });
            let mut handle = RankHandle::new(
                comm.clone(),
                graph,
                trainer,
                dataset,
                self.ckpt_policy.clone(),
            );
            f(&mut handle)
        };
        self.backend
            .launch_with(self.ranks(), spmd, &self.fault_plan, self.attempt)
    }

    /// Convenience: train every rank on the Taylor-Green autoencoding task
    /// (the paper's demonstration protocol) and return the per-rank loss
    /// histories. With a consistent exchange all histories are identical.
    pub fn train_autoencode(
        &self,
        field: &TaylorGreen,
        t: f64,
        iterations: usize,
    ) -> Vec<Vec<f64>> {
        self.run(|h| {
            let data = h.autoencode_data(field, t);
            h.train(&data, iterations)
        })
    }

    /// Convenience: evaluate the consistent loss of the freshly seeded
    /// (untrained) model on the autoencoding task — the quantity swept in
    /// the paper's Fig. 6 (left). Identical on every rank; rank 0's value
    /// is returned.
    pub fn initial_loss(&self, field: &TaylorGreen, t: f64) -> f64 {
        self.run(|h| {
            let data = h.autoencode_data(field, t);
            h.eval_loss(&data)
        })[0]
    }

    /// Convenience: run [`RankHandle::train_epochs`] on every rank over
    /// the configured dataset and return the per-rank epoch reports (in
    /// rank order; with a consistent exchange all ranks report identical
    /// losses). Applies the periodic-checkpoint policy if one was
    /// configured.
    ///
    /// # Panics
    /// If the session has no dataset (`SessionBuilder::dataset`).
    pub fn train_epochs(&self, epochs: u64) -> Vec<Vec<EpochReport>> {
        self.run(|h| h.train_epochs(epochs))
    }

    /// Convenience: mean consistent loss of the current (seeded or
    /// restored) parameters over the whole dataset, evaluated distributed
    /// and identical on every rank; rank 0's value is returned.
    ///
    /// # Panics
    /// If the session has no dataset (`SessionBuilder::dataset`).
    pub fn eval_dataset(&self) -> f64 {
        self.run(|h| h.eval_dataset())[0]
    }

    /// Convenience: distributed inference on dataset sample `i` — every
    /// rank runs [`RankHandle::predict`] on its shard of the sample and
    /// the per-rank prediction matrices are returned in rank order.
    ///
    /// # Panics
    /// If the session has no dataset (`SessionBuilder::dataset`) or `i`
    /// is out of range.
    pub fn predict(&self, i: usize) -> Vec<cgnn_tensor::Tensor> {
        self.run(|h| h.predict(h.dataset_sample(i)))
    }
}

/// The one decomposition path of [`SessionBuilder::build`] and
/// [`Session::resized`]: check the rank count, then build the global
/// graph for R = 1, or partition `mesh` with `strategy` and build every
/// rank's reduced distributed graph.
pub(crate) fn decompose(
    mesh: &BoxMesh,
    ranks: usize,
    strategy: Strategy,
) -> Result<Arc<Decomposition>, SessionError> {
    if ranks == 0 {
        return Err(SessionError::ZeroRanks);
    }
    if mesh.num_elements() < ranks {
        return Err(SessionError::TooManyRanks {
            ranks,
            elements: mesh.num_elements(),
        });
    }
    let (partition, graphs) = if ranks == 1 {
        (None, vec![Arc::new(build_global_graph(mesh))])
    } else {
        let part = Partition::new(mesh, ranks, strategy);
        let graphs = build_distributed_graph(mesh, &part)
            .into_iter()
            .map(Arc::new)
            .collect();
        (Some(part), graphs)
    };
    Ok(Arc::new(Decomposition { partition, graphs }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SessionError;

    fn mesh() -> BoxMesh {
        BoxMesh::tgv_cube(2, 2)
    }

    #[test]
    fn builder_validates_inputs() {
        assert_eq!(
            Session::builder().build().unwrap_err(),
            SessionError::MissingMesh
        );
        assert_eq!(
            Session::builder()
                .mesh(mesh())
                .ranks(0)
                .build()
                .unwrap_err(),
            SessionError::ZeroRanks
        );
        assert_eq!(
            Session::builder()
                .mesh(mesh())
                .ranks(99)
                .build()
                .unwrap_err(),
            SessionError::TooManyRanks {
                ranks: 99,
                elements: 8
            }
        );
    }

    /// `resized` reports the builder's typed rank-count errors and
    /// decomposes exactly like a fresh build at the new rank count.
    #[test]
    fn resized_validates_and_matches_a_fresh_build() {
        let built = |ranks| {
            Session::builder()
                .mesh(mesh())
                .partition(Strategy::Rcb)
                .ranks(ranks)
                .build()
                .unwrap()
        };
        let s = built(2);
        assert_eq!(s.resized(0).unwrap_err(), SessionError::ZeroRanks);
        assert_eq!(
            s.resized(9).unwrap_err(),
            SessionError::TooManyRanks {
                ranks: 9,
                elements: 8
            }
        );
        for ranks in [1, 3, 8] {
            let (resized, fresh) = (s.resized(ranks).unwrap(), built(ranks));
            assert_eq!(resized.ranks(), ranks);
            for (a, b) in resized.graphs().iter().zip(fresh.graphs()) {
                assert_eq!(a.gids, b.gids, "R={ranks}: gids");
                assert_eq!(a.halo.neighbors, b.halo.neighbors, "R={ranks}: neighbours");
                assert_eq!(a.halo.send_ids, b.halo.send_ids, "R={ranks}: halo plan");
            }
        }
    }

    /// A sibling is a structural copy: it shares the partition (and with
    /// it every rank's graph) instead of copying it.
    #[test]
    fn siblings_share_the_decomposition() {
        let s = Session::builder()
            .mesh(mesh())
            .partition(Strategy::Slab)
            .ranks(2)
            .build()
            .unwrap();
        let part = s.partition().unwrap();
        for sibling in [
            s.with_exchange(HaloExchangeMode::SendRecv),
            s.with_backend(Backend::Serial),
            s.clone(),
        ] {
            assert!(std::ptr::eq(sibling.partition().unwrap(), part));
            assert!(Arc::ptr_eq(sibling.graph(1), s.graph(1)));
        }
    }

    #[test]
    fn single_rank_session_covers_global_graph() {
        let s = Session::builder().mesh(mesh()).build().unwrap();
        assert_eq!(s.ranks(), 1);
        assert!(s.partition().is_none());
        assert_eq!(s.graph(0).n_local(), s.mesh().num_global_nodes());
    }

    #[test]
    fn distributed_session_trains_in_lockstep() {
        let s = Session::builder()
            .mesh(mesh())
            .ranks(2)
            .partition(Strategy::Slab)
            .exchange(HaloExchangeMode::NeighborAllToAll)
            .seed(7)
            .build()
            .unwrap();
        assert_eq!(s.exchange_label(), "N-A2A");
        let field = TaylorGreen::new(0.01);
        let histories = s.train_autoencode(&field, 0.0, 5);
        assert_eq!(histories.len(), 2);
        assert_eq!(histories[0], histories[1], "replicas diverged");
        assert!(histories[0][4] < histories[0][0], "loss did not drop");
    }

    #[test]
    fn session_predict_matches_handle_predict() {
        let field = TaylorGreen::new(0.01);
        let times = [0.0, 0.1, 0.2];
        let s = Session::builder()
            .mesh(mesh())
            .seed(5)
            .dataset(Dataset::tgv_autoencode(&mesh(), &field, &times))
            .build()
            .unwrap();
        // Session-level convenience, one sample at a time...
        let singles: Vec<_> = (0..times.len()).map(|i| s.predict(i)[0].clone()).collect();
        // ...must be bit-identical to the per-rank handle's predictions.
        let handled = s.run(|h| {
            (0..times.len())
                .map(|i| h.predict(h.dataset_sample(i)))
                .collect::<Vec<_>>()
        });
        for (i, single) in singles.iter().enumerate() {
            assert_eq!(
                single.data(),
                handled[0][i].data(),
                "sample {i} diverged between session and handle predict"
            );
        }
    }

    #[test]
    fn repeated_runs_restart_from_the_same_seed() {
        let s = Session::builder().mesh(mesh()).seed(3).build().unwrap();
        let field = TaylorGreen::new(0.01);
        let a = s.train_autoencode(&field, 0.0, 4);
        let b = s.train_autoencode(&field, 0.0, 4);
        assert_eq!(a, b, "runs must be independent and reproducible");
    }

    #[test]
    fn with_backend_swaps_transport_without_changing_results() {
        let s = Session::builder()
            .mesh(mesh())
            .ranks(2)
            .partition(Strategy::Slab)
            .seed(11)
            .backend(cgnn_comm::Backend::Threads)
            .build()
            .unwrap();
        assert_eq!(s.backend(), cgnn_comm::Backend::Threads);
        let serial = s.with_backend(cgnn_comm::Backend::Serial);
        assert_eq!(serial.backend(), cgnn_comm::Backend::Serial);
        let field = TaylorGreen::new(0.01);
        let a = s.train_autoencode(&field, 0.0, 4);
        let b = serial.train_autoencode(&field, 0.0, 4);
        assert_eq!(a, b, "transports must be arithmetically identical");
        let labels = serial.run(|h| h.comm().backend_label());
        assert_eq!(labels, vec!["serial"; 2]);
    }

    #[test]
    fn restore_rejects_mismatched_architecture() {
        let dir = std::env::temp_dir().join(format!("cgnn_restore_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("small.ckpt");
        let small = Session::builder().mesh(mesh()).seed(1).build().unwrap();
        small.run(|h| {
            if h.rank() == 0 {
                h.save_params(&path).expect("save");
            }
        });
        // Same mesh, larger model: must be refused eagerly.
        let large = Session::builder()
            .mesh(mesh())
            .model(GnnConfig::large())
            .build()
            .unwrap();
        assert!(large.restore(&path).is_err());
        assert!(small.restore(&path).is_ok());

        // Matching params but malformed optimizer moments (assembled via
        // the public checkpoint API) must also be refused eagerly, not
        // panic inside the SPMD region on the first step.
        let (params, _) = cgnn_core::ConsistentGnn::seeded(small.config(), 1);
        let bad_opt = cgnn_tensor::AdamState {
            t: 3,
            m: vec![cgnn_tensor::Tensor::zeros(1, 1)],
            v: vec![cgnn_tensor::Tensor::zeros(1, 1)],
        };
        let bad_path = dir.join("bad_moments.ckpt");
        cgnn_tensor::save_checkpoint(&params, &bad_opt, &bad_path).expect("save");
        assert!(small.restore(&bad_path).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restoring_from_a_report_survives_the_file_being_pruned() {
        let dir = std::env::temp_dir().join(format!("cgnn_report_{}", std::process::id()));
        let path = CheckpointPolicy::every(1, &dir).path_for_step(1);
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let s = Session::builder().mesh(mesh()).seed(1).build().unwrap();
        let field = TaylorGreen::new(0.01);
        s.run(|h| {
            h.step(&h.autoencode_data(&field, 0.0));
            if h.rank() == 0 {
                h.save_params(&path).expect("save");
            }
        });
        let from_file = s.restore(&path).expect("restore from the file");
        let report = CheckpointPolicy::latest_report(&dir).expect("scan");
        assert_eq!(report.valid.as_deref(), Some(path.as_path()));
        // A trainer's retention prune deletes the file after the scan.
        std::fs::remove_file(&path).expect("prune");
        let (params, opt) = report.checkpoint.expect("the scan's parsed checkpoint");
        let from_report = s.restored(params, opt).expect("restore from the report");
        let loss = |s: &Session| s.run(|h| h.step(&h.autoencode_data(&field, 0.0)));
        assert_eq!(loss(&from_report), loss(&from_file));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn handles_expose_traffic_stats() {
        let s = Session::builder()
            .mesh(mesh())
            .ranks(2)
            .exchange(HaloExchangeMode::Coalesced)
            .build()
            .unwrap();
        let field = TaylorGreen::new(0.01);
        let stats = s.run(|h| {
            let data = h.autoencode_data(&field, 0.0);
            h.traffic_reset();
            h.step(&data);
            h.traffic()
        });
        // 4 MP layers, forward + backward, one fused collective each.
        assert_eq!(stats[0].all_gathers, 8);
        assert!(stats[0].all_gather_bytes > 0);
    }
}
