//! # cgnn-core
//!
//! The paper's primary contribution: **consistent neural message passing**
//! for distributed mesh-based GNNs.
//!
//! * [`exchange`] — the [`HaloContext`] running one [`HaloExchangeMode`]:
//!   the four variants the paper compares (None / A2A / Neighbor-A2A /
//!   Send-Recv) plus the coalesced all-gather and overlapped non-blocking
//!   extensions,
//! * [`mp_layer`] — the consistent NMP layer (paper Eq. 4) with a
//!   differentiable halo swap recorded on the autodiff tape,
//! * [`model`] — encode-process-decode GNN with the Table I configurations,
//! * [`loss`] — the consistent MSE (paper Eq. 6),
//! * [`ddp`] — fused deterministic gradient all-reduce,
//! * [`trainer`] — the distributed training loop keeping replicas in
//!   bit-identical lockstep.
//!
//! Consistency contract (paper Eqs. 2-3): any function of the GNN output,
//! and any parameter gradient, is invariant to the number and location of
//! partition boundaries. Integration tests under `tests/` verify both
//! against the un-partitioned R = 1 graph.

#![warn(missing_docs)]

pub mod config;
pub mod ddp;
pub mod exchange;
pub mod loss;
pub mod model;
pub mod mp_layer;
pub mod schedule;
pub mod trainer;

pub use exchange::{halo_exchange_apply, ExchangeTraffic, HaloContext, HaloExchangeMode};
pub use loss::{all_reduce_scalar, consistent_mse, local_mse};
pub use model::{ConsistentGnn, GnnConfig};
pub use mp_layer::{halo_sync, ConsistentMpLayer, GraphIndices, HaloSyncOp};
pub use schedule::{shuffled_indices, EpochReport, EpochSchedule};
pub use trainer::{RankData, Trainer};
