//! Serving telemetry on the [`cgnn_comm::stats`] pattern: lock-free atomic
//! counters updated on the request path, folded into a plain-old-data
//! [`ServeSnapshot`] on demand (the `/metrics` endpoint).
//!
//! Everything here is allocation-free on the hot path: times land in
//! **fixed-width histograms** (power-of-two microsecond buckets), so
//! recording a request is a handful of relaxed atomic increments. Percentiles are
//! computed from the histogram only when a snapshot is taken, and are
//! upper bounds (the top edge of the bucket holding the requested rank).
//!
//! A served request's time is recorded whole and in its two parts:
//! `latency_us` (enqueue → reply taken up by the connection's writer),
//! `queue_us` (enqueue → claimed by a replica) and `forward_us` (claimed →
//! reply sent, i.e. input set-up plus the forward pass). What `latency_us`
//! has beyond their sum is the reply waiting its turn in the connection's
//! response order.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of power-of-two time buckets: bucket `i` counts requests whose
/// time in microseconds lies in `[2^i, 2^(i+1))`; the top bucket absorbs
/// everything slower (`2^31` µs is over half an hour).
pub const LAT_BUCKETS: usize = 32;

/// A live power-of-two microsecond histogram.
type TimeHist = [AtomicU64; LAT_BUCKETS];

fn record_us(hist: &TimeHist, us: u64) {
    let bucket = (63 - us.max(1).leading_zeros() as usize).min(LAT_BUCKETS - 1);
    hist[bucket].fetch_add(1, Ordering::Relaxed);
}

fn load_hist(hist: &TimeHist) -> [u64; LAT_BUCKETS] {
    std::array::from_fn(|i| hist[i].load(Ordering::Relaxed))
}

fn new_hist() -> TimeHist {
    std::array::from_fn(|_| AtomicU64::new(0))
}

/// Lock-free serving counters shared by the HTTP workers, the replica
/// pool, and the control plane. One instance per server.
#[derive(Debug)]
pub struct ServeStats {
    /// `/predict` requests answered `200` with a prediction.
    pub predict_ok: AtomicU64,
    /// `/predict` requests rejected `503` (queue full or draining).
    pub predict_rejected: AtomicU64,
    /// `/predict` requests failed `500` (replica pool gone mid-flight).
    pub predict_failed: AtomicU64,
    /// Requests answered `400` (malformed body or frame).
    pub bad_request: AtomicU64,
    /// Requests answered `404`/`405`.
    pub not_found: AtomicU64,
    /// `/health` hits.
    pub health: AtomicU64,
    /// `/info` hits.
    pub info: AtomicU64,
    /// `/metrics` hits.
    pub metrics: AtomicU64,
    /// `/admin/reload` hits.
    pub admin_reload: AtomicU64,
    /// Checkpoint reloads that actually swapped parameters in (admin- or
    /// watcher-triggered).
    pub reloads_applied: AtomicU64,
    /// Checkpoint reload attempts that failed (unreadable or mismatched
    /// checkpoint); the previous parameters keep serving.
    pub reload_errors: AtomicU64,
    /// `/admin/drain` hits.
    pub admin_drain: AtomicU64,
    /// Requests currently enqueued for the replica pool (gauge).
    pub queue_depth: AtomicU64,
    /// Forward passes executed by the replica pool, one per request.
    pub batches: AtomicU64,
    lat_hist: TimeHist,
    queue_hist: TimeHist,
    forward_hist: TimeHist,
}

impl Default for ServeStats {
    fn default() -> Self {
        ServeStats {
            predict_ok: AtomicU64::new(0),
            predict_rejected: AtomicU64::new(0),
            predict_failed: AtomicU64::new(0),
            bad_request: AtomicU64::new(0),
            not_found: AtomicU64::new(0),
            health: AtomicU64::new(0),
            info: AtomicU64::new(0),
            metrics: AtomicU64::new(0),
            admin_reload: AtomicU64::new(0),
            reloads_applied: AtomicU64::new(0),
            reload_errors: AtomicU64::new(0),
            admin_drain: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            lat_hist: new_hist(),
            queue_hist: new_hist(),
            forward_hist: new_hist(),
        }
    }
}

impl ServeStats {
    /// Record one executed forward pass.
    pub fn record_batch(&self) {
        self.batches.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one served `/predict` latency (enqueue to reply) in µs.
    pub fn record_latency_us(&self, us: u64) {
        record_us(&self.lat_hist, us);
    }

    /// Record how long one request sat queued (enqueue to claimed) in µs.
    pub fn record_queue_us(&self, us: u64) {
        record_us(&self.queue_hist, us);
    }

    /// Record one request's share of a replica's time (claimed to reply
    /// sent) in µs.
    pub fn record_forward_us(&self, us: u64) {
        record_us(&self.forward_hist, us);
    }

    /// Fold the live counters into a plain-old-data snapshot.
    pub fn snapshot(&self) -> ServeSnapshot {
        ServeSnapshot {
            predict_ok: self.predict_ok.load(Ordering::Relaxed),
            predict_rejected: self.predict_rejected.load(Ordering::Relaxed),
            predict_failed: self.predict_failed.load(Ordering::Relaxed),
            bad_request: self.bad_request.load(Ordering::Relaxed),
            not_found: self.not_found.load(Ordering::Relaxed),
            health: self.health.load(Ordering::Relaxed),
            info: self.info.load(Ordering::Relaxed),
            metrics: self.metrics.load(Ordering::Relaxed),
            admin_reload: self.admin_reload.load(Ordering::Relaxed),
            reloads_applied: self.reloads_applied.load(Ordering::Relaxed),
            reload_errors: self.reload_errors.load(Ordering::Relaxed),
            admin_drain: self.admin_drain.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            lat_hist: load_hist(&self.lat_hist),
            queue_hist: load_hist(&self.queue_hist),
            forward_hist: load_hist(&self.forward_hist),
        }
    }
}

/// Plain-old-data fold of [`ServeStats`] at one instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeSnapshot {
    /// `/predict` requests answered `200`.
    pub predict_ok: u64,
    /// `/predict` requests rejected `503`.
    pub predict_rejected: u64,
    /// `/predict` requests failed `500`.
    pub predict_failed: u64,
    /// Requests answered `400`.
    pub bad_request: u64,
    /// Requests answered `404`/`405`.
    pub not_found: u64,
    /// `/health` hits.
    pub health: u64,
    /// `/info` hits.
    pub info: u64,
    /// `/metrics` hits.
    pub metrics: u64,
    /// `/admin/reload` hits.
    pub admin_reload: u64,
    /// Reloads that swapped parameters in.
    pub reloads_applied: u64,
    /// Reload attempts that failed.
    pub reload_errors: u64,
    /// `/admin/drain` hits.
    pub admin_drain: u64,
    /// Requests enqueued at snapshot time.
    pub queue_depth: u64,
    /// Forward passes executed, one per request.
    pub batches: u64,
    /// `lat_hist[i]` = requests with latency in `[2^i, 2^(i+1))` µs.
    pub lat_hist: [u64; LAT_BUCKETS],
    /// `queue_hist[i]` = requests queued for `[2^i, 2^(i+1))` µs.
    pub queue_hist: [u64; LAT_BUCKETS],
    /// `forward_hist[i]` = requests a replica held for `[2^i, 2^(i+1))` µs.
    pub forward_hist: [u64; LAT_BUCKETS],
}

/// Upper bound in µs at quantile `q` in `[0, 1]` of a power-of-two
/// histogram: the top edge of the bucket holding the requested rank (0
/// when nothing was recorded).
fn quantile_us(hist: &[u64; LAT_BUCKETS], q: f64) -> u64 {
    let total: u64 = hist.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
    let mut seen = 0;
    for (i, &c) in hist.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return (1u64 << (i + 1)) - 1;
        }
    }
    (1u64 << LAT_BUCKETS) - 1
}

/// `{ "p50": .., "p90": .., "p99": .., "hist_le": [[bound, count], ..] }`
/// over the non-empty buckets of a power-of-two histogram.
fn time_hist_json(hist: &[u64; LAT_BUCKETS]) -> String {
    let pairs: Vec<String> = hist
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(i, &c)| format!("[{}, {}]", (1u64 << (i + 1)) - 1, c))
        .collect();
    format!(
        "{{ \"p50\": {}, \"p90\": {}, \"p99\": {}, \"hist_le\": [{}] }}",
        quantile_us(hist, 0.50),
        quantile_us(hist, 0.90),
        quantile_us(hist, 0.99),
        pairs.join(", "),
    )
}

impl ServeSnapshot {
    /// Latency upper bound in µs at quantile `q` in `[0, 1]`: the top edge
    /// of the histogram bucket holding the requested rank (0 when no
    /// latency was recorded).
    pub fn latency_quantile_us(&self, q: f64) -> u64 {
        quantile_us(&self.lat_hist, q)
    }

    /// Render the snapshot as a self-describing JSON object (the
    /// `/metrics` response body). Histograms are emitted sparsely as
    /// `[bound, count]` pairs over non-empty buckets.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\n",
                "  \"requests\": {{\n",
                "    \"predict_ok\": {},\n",
                "    \"predict_rejected\": {},\n",
                "    \"predict_failed\": {},\n",
                "    \"bad_request\": {},\n",
                "    \"not_found\": {},\n",
                "    \"health\": {},\n",
                "    \"info\": {},\n",
                "    \"metrics\": {},\n",
                "    \"admin_reload\": {},\n",
                "    \"admin_drain\": {}\n",
                "  }},\n",
                "  \"reloads\": {{ \"applied\": {}, \"errors\": {} }},\n",
                "  \"queue_depth\": {},\n",
                "  \"batches\": {},\n",
                "  \"latency_us\": {},\n",
                "  \"queue_us\": {},\n",
                "  \"forward_us\": {}\n",
                "}}\n",
            ),
            self.predict_ok,
            self.predict_rejected,
            self.predict_failed,
            self.bad_request,
            self.not_found,
            self.health,
            self.info,
            self.metrics,
            self.admin_reload,
            self.admin_drain,
            self.reloads_applied,
            self.reload_errors,
            self.queue_depth,
            self.batches,
            time_hist_json(&self.lat_hist),
            time_hist_json(&self.queue_hist),
            time_hist_json(&self.forward_hist),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histograms_bucket_and_quantile() {
        let s = ServeStats::default();
        for _ in 0..90 {
            s.record_latency_us(10); // bucket [8, 16)
        }
        for _ in 0..10 {
            s.record_latency_us(1000); // bucket [512, 1024)
        }
        s.record_queue_us(3); // bucket [2, 4)
        s.record_forward_us(5000); // bucket [4096, 8192)
        s.record_batch();
        s.record_batch();
        let snap = s.snapshot();
        assert_eq!(snap.batches, 2);
        assert_eq!(snap.latency_quantile_us(0.50), 15);
        assert_eq!(snap.latency_quantile_us(0.90), 15);
        assert_eq!(snap.latency_quantile_us(0.99), 1023);
        let json = snap.to_json();
        assert!(json.contains("\"latency_us\": { \"p50\": 15"));
        assert!(json.contains(
            "\"queue_us\": { \"p50\": 3, \"p90\": 3, \"p99\": 3, \"hist_le\": [[3, 1]] }"
        ));
        assert!(json.contains("\"forward_us\": { \"p50\": 8191"));
        assert_eq!(snap.queue_hist.iter().sum::<u64>(), 1);
        assert_eq!(snap.forward_hist[12], 1);
        assert!(json.contains("\"predict_ok\": 0"));
        assert!(json.contains("\"batches\": 2,"));
    }

    #[test]
    fn empty_snapshot_is_well_formed() {
        let snap = ServeStats::default().snapshot();
        assert_eq!(snap.batches, 0);
        assert_eq!(snap.latency_quantile_us(0.99), 0);
        assert!(snap.to_json().contains("\"queue_depth\": 0"));
    }
}
