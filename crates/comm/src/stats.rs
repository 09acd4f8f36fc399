//! Per-rank communication traffic accounting.
//!
//! Every collective and point-to-point call records message counts and byte
//! volumes. The weak-scaling performance model (`cgnn-perf`) consumes these
//! numbers to charge Frontier-like network costs to the measured traffic,
//! and the paper's A2A vs N-A2A comparison (Figs. 7-8) is fundamentally a
//! statement about these volumes.
//!
//! Accounting is symmetric: sends are matched by recv-side counters
//! (`recvs`/`recv_bytes`, covering blocking receives and completed
//! `irecv`s), so the traffic tests can assert that every byte injected into
//! the transport was also drained out of it.

use std::sync::atomic::{AtomicU64, Ordering};

/// Lock-free per-rank counters, owned by the rank's engine so every clone
/// of its [`Comm`](crate::Comm) handle shares them; contention is nil
/// because each rank only writes its own counters.
#[derive(Default, Debug)]
pub(crate) struct RankStats {
    /// Number of barrier-style synchronizations.
    pub barriers: AtomicU64,
    /// Number of all-reduce calls.
    pub all_reduces: AtomicU64,
    /// Bytes contributed to all-reduce calls (payload, one direction).
    pub all_reduce_bytes: AtomicU64,
    /// Number of all-to-all calls.
    pub all_to_alls: AtomicU64,
    /// Non-empty messages sent inside all-to-all calls.
    pub a2a_messages: AtomicU64,
    /// Bytes sent inside all-to-all calls (non-empty buffers only).
    pub a2a_bytes: AtomicU64,
    /// Point-to-point sends (blocking `send` and non-blocking `isend`).
    pub sends: AtomicU64,
    /// Bytes sent point-to-point.
    pub send_bytes: AtomicU64,
    /// Point-to-point receives completed on this rank (blocking `recv` and
    /// completed `irecv` requests).
    pub recvs: AtomicU64,
    /// Bytes received point-to-point.
    pub recv_bytes: AtomicU64,
    /// Number of all-gather calls (the coalesced halo exchange collective).
    pub all_gathers: AtomicU64,
    /// Bytes pushed by all-gather calls: the contribution is replicated to
    /// every other rank, so each call charges `len * 8 * (R - 1)`.
    pub all_gather_bytes: AtomicU64,
}

/// Plain-old-data snapshot of one rank's traffic counters
/// ([`Comm::stats_snapshot`](crate::Comm::stats_snapshot)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Barriers entered.
    pub barriers: u64,
    /// All-reduce collectives issued.
    pub all_reduces: u64,
    /// Payload bytes contributed to all-reduces.
    pub all_reduce_bytes: u64,
    /// All-to-all collectives issued.
    pub all_to_alls: u64,
    /// Non-empty pairwise messages inside those all-to-alls.
    pub a2a_messages: u64,
    /// Payload bytes of those all-to-all messages.
    pub a2a_bytes: u64,
    /// Point-to-point sends posted (blocking and non-blocking).
    pub sends: u64,
    /// Payload bytes of those sends.
    pub send_bytes: u64,
    /// Point-to-point receives completed (blocking and non-blocking).
    pub recvs: u64,
    /// Payload bytes of those receives.
    pub recv_bytes: u64,
    /// All-gather collectives issued.
    pub all_gathers: u64,
    /// Bytes this rank *pushed* in all-gathers: its own contribution
    /// replicated to every other rank, `len * 8 * (R - 1)` per call (with
    /// unequal contributions this differs from the bytes it receives).
    pub all_gather_bytes: u64,
}

impl RankStats {
    /// Copy the live counters into a plain [`StatsSnapshot`].
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            barriers: self.barriers.load(Ordering::Relaxed),
            all_reduces: self.all_reduces.load(Ordering::Relaxed),
            all_reduce_bytes: self.all_reduce_bytes.load(Ordering::Relaxed),
            all_to_alls: self.all_to_alls.load(Ordering::Relaxed),
            a2a_messages: self.a2a_messages.load(Ordering::Relaxed),
            a2a_bytes: self.a2a_bytes.load(Ordering::Relaxed),
            sends: self.sends.load(Ordering::Relaxed),
            send_bytes: self.send_bytes.load(Ordering::Relaxed),
            recvs: self.recvs.load(Ordering::Relaxed),
            recv_bytes: self.recv_bytes.load(Ordering::Relaxed),
            all_gathers: self.all_gathers.load(Ordering::Relaxed),
            all_gather_bytes: self.all_gather_bytes.load(Ordering::Relaxed),
        }
    }

    /// Zero every counter (scoping measurements to a code region).
    pub fn reset(&self) {
        self.barriers.store(0, Ordering::Relaxed);
        self.all_reduces.store(0, Ordering::Relaxed);
        self.all_reduce_bytes.store(0, Ordering::Relaxed);
        self.all_to_alls.store(0, Ordering::Relaxed);
        self.a2a_messages.store(0, Ordering::Relaxed);
        self.a2a_bytes.store(0, Ordering::Relaxed);
        self.sends.store(0, Ordering::Relaxed);
        self.send_bytes.store(0, Ordering::Relaxed);
        self.recvs.store(0, Ordering::Relaxed);
        self.recv_bytes.store(0, Ordering::Relaxed);
        self.all_gathers.store(0, Ordering::Relaxed);
        self.all_gather_bytes.store(0, Ordering::Relaxed);
    }
}

impl StatsSnapshot {
    /// Total bytes this rank pushed onto the (virtual) network.
    pub fn total_bytes(&self) -> u64 {
        self.all_reduce_bytes + self.a2a_bytes + self.send_bytes + self.all_gather_bytes
    }
}
