//! detlint CLI.
//!
//! ```text
//! cargo run -p cgnn-analyze -- --workspace [--deny] [--root <path>]
//! ```
//!
//! Prints one rich diagnostic per finding plus a summary line. With
//! `--deny`, any finding makes the process exit 1 (the CI gate).

use std::path::PathBuf;
use std::process::ExitCode;

use cgnn_analyze::{Config, Engine};

fn usage() -> &'static str {
    "detlint — determinism & hot-path lints for the cgnn workspace\n\
     \n\
     USAGE: cgnn-analyze --workspace [--deny] [--root <path>]\n\
     \n\
     OPTIONS:\n\
       --workspace           scan every crate in the workspace (required)\n\
       --deny                exit nonzero when any diagnostic is produced\n\
       --root <path>         workspace root (default: the checkout containing\n\
                             this crate, via CARGO_MANIFEST_DIR)\n\
     \n\
     Rules and suppression syntax: docs/ANALYSIS.md"
}

fn main() -> ExitCode {
    let mut workspace = false;
    let mut deny = false;
    let mut root: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--deny" => deny = true,
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("error: --root requires a path\n\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "-h" | "--help" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown argument `{other}`\n\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }
    if !workspace {
        eprintln!(
            "error: pass --workspace to scan the workspace\n\n{}",
            usage()
        );
        return ExitCode::from(2);
    }

    let root = root.unwrap_or_else(|| {
        // This crate lives at <root>/crates/analyze.
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
    });

    let engine = Engine::new(Config::default());
    let report = match engine.analyze_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    print!("{}", report.render());

    if deny && !report.diagnostics.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
