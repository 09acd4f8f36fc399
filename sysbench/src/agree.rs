//! `sets`: run every workload several times, each in a fresh process, and
//! keep the values. `agree`: compare two such sets of the same code
//! against the bounds the benchmark fixes.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use crate::report::{line_is_correct, line_value, END_TO_END};
use crate::stats::{median, quartile_spread};
use crate::workload::WORKLOADS;

/// Run one workload in a fresh process of this binary and return the
/// result line it printed last.
pub fn run_child(workload: &str, seed: u64, flags: &[String]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(flags)
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} (seed {seed}) exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("no result line")?;
    if !line_is_correct(line) {
        return Err(format!("{workload} (seed {seed}) was not correct: {line}"));
    }
    Ok(line.to_string())
}

/// Run every workload `runs` times with seeds `seed, seed + 1, ...` and
/// write the end-to-end values to `out`, one line per workload and metric:
/// `<workload> <metric> <value> <value> ...`. `flags` go to every run
/// (`--seconds`, `--quick`).
pub fn sets(runs: u64, seed: u64, flags: &[String], out: &Path) -> Result<(), String> {
    let mut text = String::new();
    for workload in WORKLOADS {
        let mut values = vec![String::new(); END_TO_END.len()];
        for run in 0..runs {
            let line = run_child(workload, seed + run, flags)?;
            for (slot, m) in values.iter_mut().zip(END_TO_END) {
                let v = line_value(&line, m.name)
                    .ok_or_else(|| format!("{workload}: no {} in {line}", m.name))?;
                slot.push_str(&format!(" {v:?}"));
            }
            eprintln!("{workload} run {}/{runs} done", run + 1);
        }
        for (slot, m) in values.iter().zip(END_TO_END) {
            text.push_str(&format!("{workload} {}{slot}\n", m.name));
        }
    }
    std::fs::write(out, text).map_err(|e| format!("write {}: {e}", out.display()))
}

/// The values of a set file by `(workload, metric)`.
fn read(path: &Path) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut set = BTreeMap::new();
    for line in text.lines() {
        let bad = || format!("{}: malformed line `{line}`", path.display());
        let mut fields = line.split_whitespace();
        let (workload, metric) = fields.next().zip(fields.next()).ok_or_else(bad)?;
        let values: Vec<f64> = fields
            .map(|v| v.parse().map_err(|_| bad()))
            .collect::<Result<_, _>>()?;
        if values.len() < 2 {
            return Err(bad());
        }
        set.insert((workload.to_string(), metric.to_string()), values);
    }
    Ok(set)
}

/// How much worse `b` is than `a` as a share of `a`, given which
/// direction is better; negative when `b` is better.
pub fn worsening(a: f64, b: f64, lower_is_better: bool) -> f64 {
    if lower_is_better {
        (b - a) / a
    } else {
        (a - b) / a
    }
}

/// Print, per workload × end-to-end metric, both medians, each set's
/// quartile spread, the gap between the medians in the worse direction
/// and the bound. Two sets of the same code agree when no gap, either way
/// round, exceeds its bound; a pair whose spread exceeds the bound cannot
/// tell and is unresolved. Returns whether every pair agreed.
pub fn agree(a: &Path, b: &Path) -> Result<bool, String> {
    let (set_a, set_b) = (read(a)?, read(b)?);
    println!(
        "{:<20} {:<17} {:>11} {:>11} {:>8} {:>8} {:>8} {:>6}",
        "workload", "metric", "median a", "median b", "spread a", "spread b", "gap", "bound"
    );
    let mut all_agree = true;
    for workload in WORKLOADS {
        for m in END_TO_END {
            let key = (workload.to_string(), m.name.to_string());
            let values = |set: &BTreeMap<_, Vec<f64>>, path: &Path| {
                set.get(&key)
                    .cloned()
                    .ok_or_else(|| format!("{}: no {workload} {}", path.display(), m.name))
            };
            let (mut va, mut vb) = (values(&set_a, a)?, values(&set_b, b)?);
            let (spread_a, spread_b) = (quartile_spread(&mut va), quartile_spread(&mut vb));
            let (ma, mb) = (median(&mut va), median(&mut vb));
            let gap =
                worsening(ma, mb, m.lower_is_better).max(worsening(mb, ma, m.lower_is_better));
            let verdict = if gap > m.bound {
                "  PAST BOUND"
            } else if spread_a.max(spread_b) > m.bound {
                "  UNRESOLVED"
            } else {
                ""
            };
            all_agree &= verdict.is_empty();
            println!(
                "{workload:<20} {:<17} {ma:>11.4} {mb:>11.4} {:>7.2}% {:>7.2}% {:>7.2}% {:>5.0}%{verdict}",
                m.name,
                spread_a * 100.0,
                spread_b * 100.0,
                gap * 100.0,
                m.bound * 100.0,
            );
        }
    }
    Ok(all_agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_better_direction() {
        assert!((worsening(100.0, 110.0, true) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, false) + 0.10).abs() < 1e-12);
        assert!((worsening(50.0, 45.0, false) - 0.10).abs() < 1e-12);
    }

    #[test]
    fn agreement_is_judged_both_ways_round() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/agree-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let write = |name: &str, throughput: &str| {
            let mut text = String::new();
            for w in WORKLOADS {
                for m in END_TO_END {
                    let values = if m.name == "throughput_per_s" && w == WORKLOADS[2] {
                        throughput
                    } else {
                        "10 10.1 9.9 10"
                    };
                    text.push_str(&format!("{w} {} {values}\n", m.name));
                }
            }
            let path = dir.join(name);
            std::fs::write(&path, text).expect("write set");
            path
        };
        let base = write("a", "10 10.1 9.9 10");
        let faster = write("b", "14 14.1 13.9 14");
        let noisy = write("c", "8 12 10 10.1");
        assert!(agree(&base, &base).expect("readable"));
        assert!(
            !agree(&base, &faster).expect("readable"),
            "b is 40 % better"
        );
        assert!(!agree(&faster, &base).expect("readable"), "b is 29 % worse");
        assert!(
            !agree(&base, &noisy).expect("readable"),
            "spread past bound"
        );
        std::fs::remove_dir_all(&dir).expect("clean up");
    }
}
