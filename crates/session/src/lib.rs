//! # cgnn-session
//!
//! The composable front-end for the whole pipeline of the paper (SEM mesh →
//! partition → local graphs → halo-consistent NMP → DDP training): a typed
//! [`SessionBuilder`] owns the wiring that every example and benchmark used
//! to repeat by hand, and a [`Session`] drives SPMD execution through
//! per-rank [`RankHandle`]s.
//!
//! ```
//! use cgnn_core::HaloExchangeMode;
//! use cgnn_mesh::{BoxMesh, TaylorGreen};
//! use cgnn_partition::Strategy;
//! use cgnn_session::Session;
//!
//! let session = Session::builder()
//!     .mesh(BoxMesh::tgv_cube(2, 2))
//!     .partition(Strategy::Block)
//!     .ranks(2)
//!     .exchange(HaloExchangeMode::NeighborAllToAll)
//!     .seed(42)
//!     .build()
//!     .unwrap();
//! let field = TaylorGreen::new(0.01);
//! let histories = session.run(|h| {
//!     let data = h.autoencode_data(&field, 0.0);
//!     h.train(&data, 3)
//! });
//! assert_eq!(histories[0], histories[1], "replicas stay in lockstep");
//! ```
//!
//! The builder takes two closed choices as enums: the element partition
//! ([`Strategy`](cgnn_partition::Strategy): slab, pencil, block, RCB) and
//! the halo exchange ([`HaloExchangeMode`](cgnn_core::HaloExchangeMode):
//! the four variants of paper Sec. III plus the coalesced and overlapped
//! extensions).
//!
//! The communication transport is a third closed choice:
//! [`SessionBuilder::backend`] selects the
//! [`Backend`](cgnn_comm::Backend) world carrying the SPMD execution
//! (threads by default, the deterministic serial world for debugging;
//! `CGNN_BACKEND` switches the default) — every world is the same
//! matching engine, so training trajectories are bit-identical across
//! backends. Sessions also checkpoint:
//! [`RankHandle::save_params`] writes parameters + optimizer state, and
//! [`Session::restore`] resumes a run **bit-identically**.
//!
//! Realistic surrogate training runs over a snapshot stream rather than a
//! single time pair: [`SessionBuilder::dataset`] attaches a [`Dataset`]
//! (solver-generated, hand-built, or analytic) whose mini-batch epochs
//! are driven by [`RankHandle::train_epochs`] under a deterministic
//! seeded shuffle, with opt-in every-k-step checkpointing via
//! [`SessionBuilder::checkpoint`] and [`CheckpointPolicy`]. See
//! `docs/TRAINING.md` at the repository root for the end-to-end guide.
//!
//! Training is also **elastic**: when a rank dies mid-run (detected
//! through the comm layer's liveness probe, or injected by a
//! [`FaultPlan`](cgnn_comm::FaultPlan) via [`SessionBuilder::fault_plan`]),
//! [`Session::train_epochs_elastic`] re-partitions the mesh over the
//! survivors with the session's stored
//! [`Strategy`](cgnn_partition::Strategy), restores
//! parameters + optimizer state from the newest valid checkpoint
//! ([`CheckpointPolicy::latest`], which skips corrupt files), and resumes
//! the deterministic `(seed, epoch)` schedule — producing the same
//! post-recovery loss trajectory as a fresh run restored from that
//! checkpoint at the smaller world size. See `docs/FAULT_TOLERANCE.md`
//! and the [`recovery`] module docs.

#![warn(missing_docs)]

pub mod builder;
pub mod checkpoint;
pub mod dataset;
pub mod handle;
pub mod recovery;
pub mod session;

pub use builder::{SessionBuilder, SessionError};
pub use checkpoint::{CheckpointPolicy, CorruptCheckpoint, LatestReport};
pub use dataset::Dataset;
pub use handle::RankHandle;
pub use recovery::{ElasticError, ElasticReport, FaultTolerance, RecoveryEvent, WorldFailure};
pub use session::Session;
