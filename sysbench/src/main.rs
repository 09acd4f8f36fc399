//! `sysbench`: one command per use.
//!
//! ```text
//! sysbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! sysbench --quick [--trace 1]           # every workload, a few seconds each
//! sysbench sets --runs <n> --out <file> [--seed <n>] [--seconds <s>] [--quick]
//! sysbench agree <a> <b>
//! ```
//!
//! The first form is what the driver runs; its last stdout line is the
//! result object. `__rank ...` is the re-entry of a `Backend::Proc` rank
//! child and not for people.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use sysbench::report::{END_TO_END, PER_LAYER};
use sysbench::run::Budget;
use sysbench::workload::{shape, Shape, WORKLOADS};
use sysbench::{agree, host, layers, run, trace, train};

const USAGE: &str = "usage:
  sysbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
  sysbench --quick [--seed <n>] [--trace <0|1>]
  sysbench sets --runs <n> --out <file> [--seed <n>] [--seconds <s>] [--quick]
  sysbench agree <a> <b>
workloads: train_r1_compute train_r2_halo train_r2_wire serve_open_then_sat";

/// Flags of the run forms, all optional here; each form checks its own.
#[derive(Default)]
struct Flags {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    runs: Option<u64>,
    out: Option<PathBuf>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            flags.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => flags.workload = Some(value.clone()),
            "--seed" => flags.seed = Some(value.parse().map_err(|_| bad("a whole number"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("between 0 and 600"));
                }
                flags.seconds = Some(s);
            }
            "--trace" => match value.as_str() {
                "0" => flags.trace = false,
                "1" => flags.trace = true,
                _ => return Err(bad("0 or 1")),
            },
            "--runs" => flags.runs = Some(value.parse().map_err(|_| bad("a whole number"))?),
            "--out" => flags.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(flags)
}

/// Where the run writes: `out/` beside this package's manifest.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Rendezvous directory for `Backend::Proc` sockets, inside `out/`:
/// relative to the working directory when it can be, because a socket
/// path holds at most 108 bytes and a checkout may sit deep.
fn proc_dir() -> PathBuf {
    let dir = out_dir().join("proc");
    std::env::current_dir()
        .ok()
        .and_then(|cwd| dir.strip_prefix(cwd).map(Path::to_path_buf).ok())
        .unwrap_or(dir)
}

fn budget(flags: &Flags) -> Budget {
    if flags.quick {
        Budget {
            window_s: 1.5,
            setup_s: 0.4,
        }
    } else {
        Budget {
            window_s: flags.seconds.unwrap_or(18.0),
            setup_s: 3.0,
        }
    }
}

/// One workload in this process: quiet the host, run, print the result.
fn run_one(shape: &Shape, flags: &Flags) -> Result<(), String> {
    let io = |e: std::io::Error| format!("{}: {e}", out_dir().display());
    std::fs::create_dir_all(proc_dir()).map_err(io)?;
    // One kernel worker: at R = 1 two were both slower and noisier than
    // one on the 2-vCPU box. Set before the first kernel call resolves it.
    std::env::set_var("CGNN_NUM_THREADS", "1");
    std::env::set_var("CGNN_PROC_DIR", proc_dir());
    // At most one runnable program thread at a time, on every workload.
    let pinned = host::pin_to_one_cpu();
    if !pinned {
        eprintln!("sysbench: could not pin to one CPU; running unpinned (bench.pinned = 0)");
    }
    let seed = flags.seed.unwrap_or(1);
    let result = if flags.trace {
        let (report, spans) = layers::traced(shape, seed, budget(flags), pinned);
        let path = out_dir().join(format!("trace-{}.json", shape.name));
        std::fs::write(&path, format!("{}\n", trace::to_json(shape.name, &spans))).map_err(io)?;
        report.to_json(&PER_LAYER)
    } else {
        run::end_to_end(shape, seed, budget(flags)).to_json(&END_TO_END)
    };
    println!("{result}");
    Ok(())
}

fn run_form(flags: &Flags) -> Result<(), String> {
    if let Some(name) = &flags.workload {
        let shape = shape(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
        return run_one(&shape, flags);
    }
    if !flags.quick {
        return Err("--workload is required (or --quick to run all four briefly)".into());
    }
    // Each in its own process, as the driver runs them: pinning and peak
    // RSS belong to one workload.
    let mut pass = vec!["--quick".to_string()];
    if flags.trace {
        pass.extend(["--trace".to_string(), "1".to_string()]);
    }
    for workload in WORKLOADS {
        let result = agree::run_child(workload, flags.seed.unwrap_or(1), &pass)?;
        println!("{workload}: {result}");
    }
    Ok(())
}

fn sets_form(flags: &Flags) -> Result<(), String> {
    let runs = flags.runs.ok_or("sets needs --runs")?;
    let out = flags.out.as_ref().ok_or("sets needs --out")?;
    let mut pass = Vec::new();
    if let Some(s) = flags.seconds {
        pass.extend(["--seconds".to_string(), s.to_string()]);
    }
    if flags.quick {
        pass.push("--quick".to_string());
    }
    agree::sets(runs, flags.seed.unwrap_or(1), &pass, out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("__rank") => train::rank_entry(&args[1..]),
        Some("agree") => match &args[1..] {
            [a, b] => agree::agree(Path::new(a), Path::new(b)).and_then(|within| {
                within.then_some(()).ok_or_else(|| {
                    "the sets differ by more than a bound, or are too spread to tell".to_string()
                })
            }),
            _ => Err("agree takes two set files".to_string()),
        },
        Some("sets") => parse_flags(&args[1..]).and_then(|f| sets_form(&f)),
        Some(_) => parse_flags(&args).and_then(|f| run_form(&f)),
        None => Err("no arguments".to_string()),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sysbench: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
