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
//!
//! The counters are kept once, as the [`StatsSnapshot`] itself: each rank's
//! engine holds one behind a mutex that only the rank's own thread locks,
//! so every clone of its [`Comm`](crate::Comm) handle shares it and a
//! snapshot is a copy.

/// One rank's traffic counters
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

impl StatsSnapshot {
    /// Total bytes this rank pushed onto the (virtual) network.
    pub fn total_bytes(&self) -> u64 {
        self.all_reduce_bytes + self.a2a_bytes + self.send_bytes + self.all_gather_bytes
    }
}
