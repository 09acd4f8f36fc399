//! # cgnn-serve
//!
//! Surrogate-as-a-service: the trained consistent-GNN surrogate behind a
//! small, dependency-free HTTP/1.1 inference server.
//!
//! Three planes, one per module:
//!
//! * **data plane** ([`pool`]) — a bounded request queue drained by warm
//!   model replicas. A request waits only for a busy replica: an idle one
//!   claims the oldest queued request at once and serves it with one
//!   [`cgnn_core::Trainer::predict`] on the served graph, so every
//!   response is **bit-identical** to in-process inference;
//! * **control plane** ([`control`]) — owns the published parameter set,
//!   watches a checkpoint directory, validates new checkpoints against
//!   the served architecture, and hot-swaps them in *between* passes so
//!   in-flight requests are never torn across a reload;
//! * **telemetry** ([`stats`]) — counters and fixed-bucket histograms
//!   (latency and its queue / forward parts) kept as one snapshot and
//!   rendered as JSON at `/metrics`, the pattern of [`cgnn_comm::stats`].
//!
//! The HTTP layer ([`http`]) is a hand-rolled subset over [`std::net`]
//! (this workspace has no network registry, so no hyper/tokio): a fixed
//! pool of workers, each accepting on its own clone of the listener and
//! serving keep-alive, pipelined connections, each read and written by its
//! own thread so a request is admitted when it arrives. No serving thread
//! wakes on a timer: each waits on the connection, queue or signal it
//! serves. `/predict` frames are raw little-endian `f64` matrices —
//! binary in, binary out — so served predictions can be compared
//! bit-for-bit against in-process inference.
//!
//! See `docs/SERVING.md` for the architecture diagram, the endpoint
//! reference, and operational recipes; [`server::ServeConfig`] documents
//! the `CGNN_SERVE_*` knobs.

#![warn(missing_docs)]

pub mod client;
pub mod control;
pub mod http;
pub mod pool;
pub mod server;
pub mod stats;

pub use client::{ClientResponse, HttpClient};
pub use control::{ControlPlane, ReloadOutcome};
pub use pool::{PredictJob, PredictReply, ReplicaPool};
pub use server::{ServeConfig, Server};
pub use stats::{ServeSnapshot, ServeStats};
