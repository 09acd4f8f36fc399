//! `--quick` drives the binary through every workload on the same code
//! paths as a full run, untraced and traced, and every run must come back
//! correct with all of its table's metrics.

use std::process::Command;

use sysbench::report::{line_is_correct, line_value, Metric, END_TO_END, PER_LAYER};
use sysbench::workload::WORKLOADS;

fn quick(extra: &[&str], table: &[Metric]) {
    let out = Command::new(env!("CARGO_BIN_EXE_sysbench"))
        .arg("--quick")
        .args(extra)
        .output()
        .expect("run the sysbench binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "--quick {extra:?} failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), WORKLOADS.len(), "one line per workload");
    for (line, workload) in lines.iter().zip(WORKLOADS) {
        let result = line
            .strip_prefix(&format!("{workload}: "))
            .unwrap_or_else(|| panic!("`{line}` is not {workload}'s"));
        assert!(line_is_correct(result), "{line}");
        for m in table {
            let value = line_value(result, m.name);
            assert!(value.is_some_and(f64::is_finite), "{workload}: {}", m.name);
        }
    }
}

/// One test, so that the two runs do not time-share the CPU they pin to.
#[test]
fn quick_runs_every_workload_correctly_untraced_and_traced() {
    quick(&[], &END_TO_END);
    quick(&["--trace", "1"], &PER_LAYER);
}
