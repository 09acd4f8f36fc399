//! Serving telemetry on the [`cgnn_comm::stats`] pattern: the counters
//! are kept once, as a plain-old-data [`ServeSnapshot`] behind one mutex
//! ([`ServeStats`]), updated on the request path through one closure and
//! copied out on demand (the `/metrics` endpoint).
//!
//! Everything here is allocation-free on the hot path: times land in
//! **fixed-width histograms** (power-of-two microsecond buckets), so
//! recording a request is a handful of increments under a lock held for
//! nothing else. Percentiles are computed from the histogram only when a
//! snapshot is read, and are upper bounds (the top edge of the bucket
//! holding the requested rank).
//!
//! A served request's time is recorded whole and in its two parts:
//! `latency_us` (enqueue → reply taken up by the connection's writer),
//! `queue_us` (enqueue → claimed by a replica) and `forward_us` (claimed →
//! reply sent, i.e. input set-up plus the forward pass). What `latency_us`
//! has beyond their sum is the reply waiting its turn in the connection's
//! response order.

use std::sync::{Mutex, PoisonError};

/// Number of power-of-two time buckets: bucket `i` counts requests whose
/// time in microseconds lies in `[2^i, 2^(i+1))`; the top bucket absorbs
/// everything slower (`2^31` µs is over half an hour).
pub const LAT_BUCKETS: usize = 32;

/// Count one time of `us` microseconds in a power-of-two histogram.
pub(crate) fn record_us(hist: &mut [u64; LAT_BUCKETS], us: u64) {
    let bucket = (63 - us.max(1).leading_zeros() as usize).min(LAT_BUCKETS - 1);
    hist[bucket] += 1;
}

/// The serving counters shared by the HTTP workers, the replica pool, and
/// the control plane. One instance per server.
#[derive(Debug, Default)]
pub struct ServeStats(Mutex<ServeSnapshot>);

impl ServeStats {
    /// Apply `f` to the live counters.
    pub fn update(&self, f: impl FnOnce(&mut ServeSnapshot)) {
        f(&mut self.0.lock().unwrap_or_else(PoisonError::into_inner));
    }

    /// Copy the live counters out.
    pub fn snapshot(&self) -> ServeSnapshot {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

/// The serving counters at one instant ([`ServeStats::snapshot`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeSnapshot {
    /// `/predict` requests answered `200` with a prediction.
    pub predict_ok: u64,
    /// `/predict` requests rejected `503` (queue full or draining).
    pub predict_rejected: u64,
    /// `/predict` requests failed `500` (replica pool gone mid-flight).
    pub predict_failed: u64,
    /// Requests answered `400` (malformed body or frame).
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
    /// Checkpoint reloads that actually swapped parameters in (admin- or
    /// watcher-triggered).
    pub reloads_applied: u64,
    /// Checkpoint reload attempts that failed (unreadable or mismatched
    /// checkpoint); the previous parameters keep serving.
    pub reload_errors: u64,
    /// `/admin/drain` hits.
    pub admin_drain: u64,
    /// Requests currently enqueued for the replica pool (gauge).
    pub queue_depth: u64,
    /// Forward passes executed by the replica pool, one per request.
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
        s.update(|s| {
            for _ in 0..90 {
                record_us(&mut s.lat_hist, 10); // bucket [8, 16)
            }
            for _ in 0..10 {
                record_us(&mut s.lat_hist, 1000); // bucket [512, 1024)
            }
            record_us(&mut s.queue_hist, 3); // bucket [2, 4)
            record_us(&mut s.forward_hist, 5000); // bucket [4096, 8192)
            s.batches += 2;
        });
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
