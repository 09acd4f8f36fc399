//! The metric tables (mirrored by `BENCHMARK.json`), the one-line result a
//! run prints, and how `sets` reads it back.

use std::collections::BTreeMap;
use std::fmt::Write;

/// One metric of a table.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether a lower value is the better one.
    pub lower_is_better: bool,
    /// Share of the parent's median by which it may get worse (end-to-end
    /// metrics only).
    pub bound: f64,
}

const fn metric(
    name: &'static str,
    unit: &'static str,
    lower_is_better: bool,
    bound: f64,
) -> Metric {
    Metric {
        name,
        unit,
        lower_is_better,
        bound,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    metric(name, unit, true, 0.0)
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    metric(name, unit, false, 0.0)
}

/// End-to-end metrics, the same five on every workload. The timing bounds
/// are three times the widest quartile spread ten runs showed on the
/// reference box (8.6 %, `train_r2_halo` CPU time), which is the most the
/// benchmark contract admits.
pub const END_TO_END: [Metric; 5] = [
    metric("throughput_per_s", "1/s", false, 0.25),
    metric("latency_ms", "ms", true, 0.25),
    metric("cpu_ms_per_op", "ms", true, 0.25),
    metric("peak_rss_mb", "MB", true, 0.05),
    metric("setup_s", "s", true, 0.25),
];

/// Per-layer metrics of the traced run. A workload reports 0 for a layer
/// that is not on its path.
pub const PER_LAYER: [Metric; 48] = [
    lower("tensor.matmul_us", "us"),
    lower("tensor.gather_concat_us", "us"),
    lower("tensor.scatter_add_us", "us"),
    lower("tensor.layer_norm_us", "us"),
    lower("tensor.tape_reset_us", "us"),
    lower("tensor.param_bind_us", "us"),
    lower("tensor.backward_ms", "ms"),
    lower("tensor.adam_us", "us"),
    lower("core.forward_ms", "ms"),
    lower("core.loss_us", "us"),
    lower("core.step_ms", "ms"),
    lower("core.exchange_us", "us"),
    lower("core.exchange_share", "share"),
    lower("core.ddp_flatten_us", "us"),
    lower("core.ddp_reduce_us", "us"),
    lower("core.halo_rows_share", "share"),
    lower("core.predict_ms", "ms"),
    lower("core.predict_batch8_ms_per_sample", "ms"),
    lower("comm.barrier_us", "us"),
    lower("comm.allreduce_us", "us"),
    lower("comm.a2a_us", "us"),
    lower("comm.p2p_rtt_us", "us"),
    lower("comm.launch_ms", "ms"),
    lower("comm.msgs_per_step", "count"),
    lower("comm.bytes_per_step", "count"),
    lower("comm.allreduces_per_step", "count"),
    lower("mesh.build_ms", "ms"),
    lower("partition.build_ms", "ms"),
    lower("graph.build_ms", "ms"),
    lower("session.build_ms", "ms"),
    lower("session.rank_data_ms", "ms"),
    lower("serve.start_ms", "ms"),
    lower("serve.idle_rtt_ms", "ms"),
    lower("serve.http_parse_us", "us"),
    lower("serve.http_write_us", "us"),
    lower("serve.codec_us", "us"),
    lower("serve.mean_batch_open", "count"),
    lower("serve.latency_p95_ms", "ms"),
    lower("serve.latency_hi_ms", "ms"),
    lower("serve.lateness_p95_ms", "ms"),
    higher("serve.mean_batch_sat", "count"),
    lower("serve.rejected_share", "share"),
    lower("serve.rss_after_load_mb", "MB"),
    higher("bench.pinned", "count"),
    lower("bench.block_spread", "share"),
    lower("bench.host_ref_ms", "ms"),
    lower("bench.trace_overhead_share", "share"),
    lower("bench.unattributed_share", "share"),
];

/// What one run found.
#[derive(Debug, Default)]
pub struct Report {
    /// Every correctness check passed.
    pub correct: bool,
    /// Ops (training steps or requests) in timed windows.
    pub attempted: u64,
    /// Ops that errored, were refused, or failed their check.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the latter holding every metric of `table` by name.
    ///
    /// # Panics
    /// If a metric of `table` was not measured or is not finite, or one
    /// was measured that `table` does not list: the tables are the
    /// contract.
    pub fn to_json(&self, table: &[Metric]) -> String {
        for name in self.metrics.keys() {
            assert!(
                table.iter().any(|m| m.name == *name),
                "metric `{name}` is not in the table"
            );
        }
        let mut metrics = String::new();
        for m in table {
            let value = *self
                .metrics
                .get(m.name)
                .unwrap_or_else(|| panic!("metric `{}` was not measured", m.name));
            assert!(value.is_finite(), "metric `{}` is {value}", m.name);
            let sep = if metrics.is_empty() { "" } else { ", " };
            write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
            .expect("writing to a String");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct && self.failed == 0,
            self.attempted,
            self.failed
        )
    }
}

/// Whether a result line reports a correct run.
pub fn line_is_correct(line: &str) -> bool {
    line.starts_with("{\"correct\": true, ") && line.contains("\"failed\": 0, ")
}

/// The value of metric `name` in a result line, as [`Report::to_json`]
/// writes it.
pub fn line_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_read_back() {
        let mut report = Report {
            correct: true,
            attempted: 12,
            ..Report::default()
        };
        for (i, m) in END_TO_END.iter().enumerate() {
            report.metrics.insert(m.name, 1.5e-7 * (i + 1) as f64);
        }
        let line = report.to_json(&END_TO_END);
        assert!(line_is_correct(&line), "{line}");
        assert_eq!(line_value(&line, "latency_ms"), Some(3e-7));
        assert_eq!(line_value(&line, "setup_s"), Some(7.5e-7));
        assert_eq!(line_value(&line, "nope"), None);
        report.failed = 1;
        assert!(!line_is_correct(&report.to_json(&END_TO_END)));
    }

    /// `BENCHMARK.json` lists exactly the metrics of the tables, in their
    /// order, with the same units, directions and bounds, and the
    /// workloads the bench knows.
    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text: String = std::fs::read_to_string(path)
            .expect("BENCHMARK.json")
            .split_whitespace()
            .collect();
        let list = |table: &[Metric], with_bound: bool| {
            let entries: Vec<String> = table
                .iter()
                .map(|m| {
                    let better = if m.lower_is_better { "lower" } else { "higher" };
                    let bound = if with_bound {
                        format!(",\"bound\":{:?}", m.bound)
                    } else {
                        String::new()
                    };
                    format!(
                        "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{better}\"{bound}}}",
                        m.name, m.unit
                    )
                })
                .collect();
            format!("[{}]", entries.join(","))
        };
        let e2e = format!("\"end_to_end\":{}", list(&END_TO_END, true));
        let layers = format!("\"per_layer\":{}", list(&PER_LAYER, false));
        assert!(text.contains(&e2e), "end_to_end differs from {e2e}");
        assert!(text.contains(&layers), "per_layer differs from {layers}");
        let mut at = 0;
        for w in crate::workload::WORKLOADS {
            let entry = format!("{{\"name\":\"{w}\",\"why\":");
            at += text[at..]
                .find(&entry)
                .unwrap_or_else(|| panic!("workload {w} missing or out of order"));
        }
        assert_eq!(text.matches("\"why\":").count(), 4, "no other workloads");
    }
}
