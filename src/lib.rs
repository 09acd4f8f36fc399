//! `cgnn` — umbrella crate re-exporting the full workspace.
//!
//! Most programs only need [`prelude`]:
//!
//! ```
//! use cgnn::prelude::*;
//!
//! let session = Session::builder()
//!     .mesh(BoxMesh::tgv_cube(2, 2))
//!     .ranks(2)
//!     .partition(Strategy::Block)
//!     .exchange(HaloExchangeMode::NeighborAllToAll)
//!     .seed(42)
//!     .build()
//!     .expect("valid session");
//! let field = TaylorGreen::new(0.01);
//! let histories = session.train_autoencode(&field, 0.0, 2);
//! assert_eq!(histories[0], histories[1]);
//! ```

/// Doctest anchor for the training guide: every Rust block in
/// `docs/TRAINING.md` compiles and runs under `cargo test --doc`, so the
/// guide cannot drift from the API it documents. Hidden from rustdoc
/// output; the guide itself is the rendered artifact.
#[doc = include_str!("../docs/TRAINING.md")]
#[doc(hidden)]
pub mod _training_guide {}

pub use cgnn_comm as comm;
pub use cgnn_core as core;
pub use cgnn_graph as graph;
pub use cgnn_mesh as mesh;
pub use cgnn_partition as partition;
pub use cgnn_perf as perf;
pub use cgnn_sem as sem;
pub use cgnn_serve as serve;
pub use cgnn_session as session;
pub use cgnn_tensor as tensor;

/// The types almost every program touches: the session front-end, datasets
/// and epoch training, the mesh and field generators, partitioning, the
/// halo exchange modes, the trainer, and the traffic counters.
pub mod prelude {
    pub use cgnn_comm::{
        Backend, Comm, FaultPlan, RankFailure, RecvRequest, SendRequest, StatsSnapshot, World,
    };
    pub use cgnn_core::{
        halo_exchange_apply, ConsistentGnn, EpochReport, EpochSchedule, ExchangeTraffic, GnnConfig,
        HaloContext, HaloExchangeMode, RankData, Trainer,
    };
    pub use cgnn_graph::{build_distributed_graph, build_global_graph, LocalGraph};
    pub use cgnn_mesh::{BoxMesh, TaylorGreen};
    pub use cgnn_partition::{Partition, Strategy};
    pub use cgnn_sem::SnapshotStream;
    pub use cgnn_session::{
        CheckpointPolicy, Dataset, ElasticError, ElasticReport, FaultTolerance, LatestReport,
        RankHandle, RecoveryEvent, Session, SessionBuilder, SessionError, WorldFailure,
    };
    pub use cgnn_tensor::{Tape, Tensor};
}
