//! # cgnn-comm
//!
//! The "MPI" of the consistent-GNN reproduction: one matching engine
//! under a thin, cloneable [`Comm`] handle, so that collectives are
//! **deterministic and identical on every rank** over every transport.
//!
//! This substitutes for the PyTorch Distributed / RCCL stack of the paper.
//! The arithmetic-consistency results (paper Eqs. 2-3, Fig. 6) only require
//! *correct* collectives; the Frontier-scale *costs* of these collectives
//! are modeled separately in `cgnn-perf`, fed by the traffic counters
//! recorded here ([`stats`]).
//!
//! Supported operations mirror what the paper uses:
//! * `all_reduce` (consistent loss Eq. 6 and DDP gradient reduction),
//! * `all_to_all` with optionally-empty buffers (the A2A and Neighbor-A2A
//!   halo exchange implementations),
//! * point-to-point `send`/`recv` (the custom Send-Recv halo exchange);
//!   a send returns without waiting on the receiving rank's program,
//! * non-blocking `irecv` returning a wait-able [`RecvRequest`] handle
//!   (the overlapped halo exchange posts every send and receive before
//!   it waits).
//!
//! Underneath, one matching engine serves every world: a per-rank
//! mailbox with FIFO-per-peer arrival queues, a single blocking wait, and
//! the `Bye`/`Dead` liveness lifecycle. A world is that engine plus a
//! *carrier* (how a frame reaches a peer's mailbox) and a *park policy*
//! (what a blocked rank does). The set of worlds is closed; [`Backend`]
//! (or the `CGNN_BACKEND` environment variable) picks one of four, tabled
//! in the [`backend`] module docs: [`Backend::Threads`] (default) and
//! [`Backend::Serial`] run every rank in this process, while
//! [`Backend::Proc`] (Unix sockets) and [`Backend::Socket`] (TCP, able to
//! span machines) run one OS process per rank, meshed through the same
//! rank-0 address table and exchanging checksummed wire frames.
//!
//! [`LoopbackBackend`] is the engine at world size one with no carrier
//! and is not launched at all: a single rank on the calling thread, for
//! code that owns a persistent trainer outside any SPMD region (the
//! `cgnn-serve` replica pool).
//!
//! The cross-process launches re-exec the current binary; test binaries
//! pin the argv their child ranks run with via [`reexec_scope`].
//!
//! For chaos testing, [`Backend::launch_with`] arms every rank's engine
//! from a deterministic, seeded [`FaultPlan`] (kill a rank at an exact
//! comm op, the one failure a transport can have), and the engine's
//! liveness probe ([`Comm::mark_dead`] / [`Comm::dead_ranks`]) lets peers
//! detect a death within a heartbeat instead of hanging — see the
//! [`fault`] module docs.
//!
//! Because reductions are folded rank-ordered in the [`Comm`] layer from
//! every rank's contribution, *all* worlds produce bit-identical
//! arithmetic; they differ only in scheduling.

#![warn(missing_docs)]

pub mod backend;
pub mod comm;
pub mod fault;
pub mod knob;
pub mod stats;

pub use backend::loopback::LoopbackBackend;
pub use backend::proc::{reexec_scope, ReexecScope};
pub use backend::Backend;
pub use comm::{Comm, RecvRequest, World};
pub use fault::{Fault, FaultPlan, RankFailure};
pub use stats::StatsSnapshot;
