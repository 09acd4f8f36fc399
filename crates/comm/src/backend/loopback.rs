//! Single-rank loopback transport: the shared `engine` at world
//! size one. With no peers every collective is the identity, nothing
//! ever waits, and there is no carrier — everything executes on the
//! calling thread.
//!
//! This is the transport behind *persistent* single-rank trainers — code
//! that owns a [`Trainer`](../../cgnn_core) outside any
//! [`Backend::launch`](crate::Backend::launch) SPMD region. The inference
//! serving plane (`cgnn-serve`) keeps one loopback-backed trainer warm per
//! replica, and `sysbench`'s kernel probes time a trainer on the
//! measuring thread through the same transport.
//!
//! Arithmetic over a loopback world is bit-identical to a launched
//! single-rank world of any other backend: the [`Comm`] layer
//! folds all reductions rank-ordered from the identity, and at world size
//! one the only contribution is the rank's own.

use std::sync::Arc;

use crate::backend::engine::{Engine, Heartbeat, Mailbox};
use crate::comm::Comm;
use crate::fault::FaultPlan;

/// A world of exactly one rank on the calling thread. Collectives return
/// their input; point-to-point operations have no possible peer and abort.
///
/// ```
/// use cgnn_comm::LoopbackBackend;
///
/// let comm = LoopbackBackend::comm();
/// assert_eq!(comm.size(), 1);
/// assert_eq!(comm.all_reduce_scalar(2.5), 2.5);
/// assert_eq!(comm.backend_label(), "loopback");
/// ```
pub struct LoopbackBackend;

impl LoopbackBackend {
    /// A fresh single-rank communicator handle over this transport — the
    /// entry point for persistent trainers that live outside an SPMD
    /// launch.
    pub fn comm() -> Comm {
        let mailbox = Mailbox::new(0, 1, Arc::new(Heartbeat));
        Comm::new(Engine::new("loopback", mailbox, None, &FaultPlan::new(), 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collectives_are_identities() {
        let comm = LoopbackBackend::comm();
        assert_eq!(comm.rank(), 0);
        assert_eq!(comm.size(), 1);
        let mut buf = [1.0, 2.0, 3.0];
        comm.all_reduce_sum(&mut buf);
        assert_eq!(buf, [1.0, 2.0, 3.0]);
        assert_eq!(comm.all_reduce_scalar(-4.25), -4.25);
        let snap = comm.stats_snapshot();
        assert_eq!(snap.all_reduces, 2);
    }

    #[test]
    #[should_panic(expected = "no peers")]
    fn point_to_point_aborts() {
        let comm = LoopbackBackend::comm();
        comm.send(0, 0, vec![1.0]);
    }
}
