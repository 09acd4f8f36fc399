//! The typed builder assembling a [`Session`].

use std::sync::Arc;

use cgnn_comm::{Backend, FaultPlan};
use cgnn_core::{GnnConfig, HaloExchangeMode};
use cgnn_mesh::BoxMesh;
use cgnn_partition::Strategy;

use crate::checkpoint::CheckpointPolicy;
use crate::dataset::Dataset;
use crate::session::{decompose, Session};

/// What can go wrong assembling a session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// No mesh was supplied.
    MissingMesh,
    /// `ranks` was zero.
    ZeroRanks,
    /// More ranks than mesh elements: some rank would own nothing.
    TooManyRanks {
        /// The requested rank count.
        ranks: usize,
        /// Elements the mesh actually has.
        elements: usize,
    },
    /// The dataset's snapshots cover a different node count than the mesh.
    DatasetMeshMismatch {
        /// Nodes each dataset snapshot covers.
        dataset_nodes: usize,
        /// Unique global nodes of the session mesh.
        mesh_nodes: usize,
    },
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::MissingMesh => write!(f, "Session::builder() needs .mesh(...)"),
            SessionError::ZeroRanks => write!(f, "a session needs at least one rank"),
            SessionError::TooManyRanks { ranks, elements } => write!(
                f,
                "cannot give {ranks} ranks at least one of {elements} elements"
            ),
            SessionError::DatasetMeshMismatch {
                dataset_nodes,
                mesh_nodes,
            } => write!(
                f,
                "dataset snapshots cover {dataset_nodes} nodes but the mesh has {mesh_nodes}"
            ),
        }
    }
}

impl std::error::Error for SessionError {}

/// Typed builder for [`Session`]: supply the mesh, choose the partition
/// strategy, rank count, exchange strategy, model configuration, seed, and
/// learning rate; `build()` does the mesh → partition → graph wiring once.
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    mesh: Option<BoxMesh>,
    strategy: Strategy,
    ranks: usize,
    exchange: HaloExchangeMode,
    /// `None` = resolve from the environment at `build()` time, so an
    /// explicit [`SessionBuilder::backend`] choice never even reads (or
    /// panics on) `CGNN_BACKEND`.
    backend: Option<Backend>,
    config: GnnConfig,
    seed: u64,
    lr: f64,
    dataset: Option<Dataset>,
    checkpoint: Option<CheckpointPolicy>,
    fault_plan: FaultPlan,
}

impl Default for SessionBuilder {
    fn default() -> Self {
        SessionBuilder {
            mesh: None,
            strategy: Strategy::Block,
            ranks: 1,
            exchange: HaloExchangeMode::NeighborAllToAll,
            backend: None,
            config: GnnConfig::small(),
            seed: 0,
            lr: 1e-3,
            dataset: None,
            checkpoint: None,
            fault_plan: FaultPlan::new(),
        }
    }
}

impl SessionBuilder {
    /// The spectral-element mesh driving everything downstream. Required.
    pub fn mesh(mut self, mesh: BoxMesh) -> Self {
        self.mesh = Some(mesh);
        self
    }

    /// Element-to-rank decomposition strategy (default [`Strategy::Block`]).
    /// The session keeps it and replays it whenever it must re-decompose
    /// the mesh — in particular when elastic recovery rebuilds the world
    /// at a smaller rank count after a failure.
    pub fn partition(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Arm a deterministic fault-injection plan: every run of the built
    /// session arms each rank's comm engine with the kill `plan` scripts
    /// for it on the session's current recovery attempt (see
    /// [`Backend::launch_with`]). This is the chaos-testing entry point;
    /// a rank with no armed fault carries no fault state.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Number of SPMD thread-ranks (default 1 = un-partitioned).
    pub fn ranks(mut self, ranks: usize) -> Self {
        self.ranks = ranks;
        self
    }

    /// Halo exchange mode (default [`HaloExchangeMode::NeighborAllToAll`],
    /// the paper's efficient variant).
    pub fn exchange(mut self, mode: HaloExchangeMode) -> Self {
        self.exchange = mode;
        self
    }

    /// Communication transport carrying the session's SPMD execution
    /// (default: whatever `CGNN_BACKEND` selects via
    /// [`Backend::from_env`], i.e. the thread world unless overridden).
    /// All backends produce bit-identical training trajectories; they
    /// differ only in scheduling — [`Backend::Serial`] single-steps the
    /// ranks deterministically for debugging and CI reference runs.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = Some(backend);
        self
    }

    /// GNN architecture (default [`GnnConfig::small`], paper Table I).
    pub fn model(mut self, config: GnnConfig) -> Self {
        self.config = config;
        self
    }

    /// Parameter initialization seed — identical on every rank, which is
    /// how the DDP replicas share their initial state (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Adam learning rate (default `1e-3`).
    pub fn learning_rate(mut self, lr: f64) -> Self {
        self.lr = lr;
        self
    }

    /// The snapshot-stream training set this session's epoch methods
    /// (`RankHandle::train_epochs`, `Session::train_epochs`,
    /// `RankHandle::eval_dataset`) run over. The dataset carries its own
    /// batching policy ([`Dataset::batch_size`], [`Dataset::sequential`],
    /// [`Dataset::shuffle_seed`]); its snapshots must cover exactly the
    /// mesh's global nodes (validated at `build()`).
    pub fn dataset(mut self, dataset: Dataset) -> Self {
        self.dataset = Some(dataset);
        self
    }

    /// Opt into periodic checkpointing: during `train_epochs`, rank 0
    /// writes a full training checkpoint every
    /// [`CheckpointPolicy::every_steps`] optimizer steps and prunes old
    /// files beyond the retention count. Any retained file restores
    /// bit-exactly through `Session::restore`.
    pub fn checkpoint(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint = Some(policy);
        self
    }

    /// Assemble the session: validate, partition the mesh, and build every
    /// rank's reduced distributed graph (or the global R = 1 graph).
    pub fn build(self) -> Result<Session, SessionError> {
        let mesh = self.mesh.ok_or(SessionError::MissingMesh)?;
        let decomposition = decompose(&mesh, self.ranks, self.strategy)?;
        if let Some(ds) = &self.dataset {
            if ds.n_nodes() != mesh.num_global_nodes() {
                return Err(SessionError::DatasetMeshMismatch {
                    dataset_nodes: ds.n_nodes(),
                    mesh_nodes: mesh.num_global_nodes(),
                });
            }
        }
        Ok(Session::assembled(
            Arc::new(mesh),
            decomposition,
            self.strategy,
            self.exchange,
            self.backend.unwrap_or_else(Backend::from_env),
            self.config,
            self.seed,
            self.lr,
            self.dataset.map(Arc::new),
            self.checkpoint,
            self.fault_plan,
        ))
    }
}
