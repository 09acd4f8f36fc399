//! Launcher tests for the cross-process backends: what only a world of
//! real OS processes can show (typed failures crossing the process
//! boundary, the size-1 shortcut). The transport contract itself —
//! collectives, matching, liveness — is `tests/conformance.rs`, run over
//! all four transports.
//!
//! Each test pins its own name as the re-exec argv (via `reexec_scope`),
//! so the child rank processes re-run *exactly this test*, reach the same
//! launch, and join the world instead of spawning one. The operator-run
//! test instead starts every rank itself, as `docs/DISTRIBUTED.md`'s
//! "Running across machines" does.

#![expect(
    clippy::expect_used,
    reason = "a failed setup step fails the test, and its message names the step"
)]

use std::net::TcpListener;
use std::panic::AssertUnwindSafe;
use std::process::{Command, Stdio};

use cgnn_comm::knob::{
    CGNN_BACKEND, CGNN_PROC_DIR, CGNN_PROC_SEQ, CGNN_RANK, CGNN_SOCKET_ADDR, CGNN_WORLD,
};
use cgnn_comm::{reexec_scope, Backend, Comm, FaultPlan, RankFailure};

const WORLD: usize = 3;

fn worker_args(test_name: &str) -> [String; 4] {
    [
        test_name.to_string(),
        "--exact".to_string(),
        "--test-threads=1".to_string(),
        "--quiet".to_string(),
    ]
}

#[test]
fn proc_backend_dispatch_and_single_rank() {
    let _scope = reexec_scope(worker_args("proc_backend_dispatch_and_single_rank"));
    // Size-1 worlds need no children, no mesh, and no rendezvous.
    let out = Backend::Proc.launch(1, |comm| {
        assert_eq!(comm.backend_label(), "proc");
        comm.all_reduce_scalar(4.25)
    });
    assert_eq!(out, vec![4.25]);
    assert!(!Backend::Proc.is_in_process());
    assert!(!Backend::Socket.is_in_process());
    assert!(Backend::Threads.is_in_process());
}

#[test]
fn proc_child_kill_surfaces_typed_failure() {
    let _scope = reexec_scope(worker_args("proc_child_kill_surfaces_typed_failure"));
    // Kill rank 1 (a child process) at its 3rd comm op: the failure must
    // cross the process boundary as the same typed payload the in-process
    // backends produce, and nothing may hang.
    let plan = FaultPlan::new().kill(0, 1, 3);
    let payload = std::panic::catch_unwind(AssertUnwindSafe(|| {
        Backend::Proc.launch_with(
            WORLD,
            |comm| {
                for _ in 0..10 {
                    comm.barrier();
                }
            },
            &plan,
            0,
        );
    }))
    .expect_err("a killed child rank must tear the launch down");
    match RankFailure::from_payload(payload.as_ref()) {
        Some(RankFailure::Killed { rank: 1, op: 3 }) => {}
        other => {
            panic!("expected Killed{{rank:1,op:3}} across the process boundary, got {other:?}")
        }
    }
}

/// Rank-dependent traffic through a collective, a gather and a
/// point-to-point ring: what each operator-run rank reports.
fn ring(comm: &Comm) -> Vec<f64> {
    let (rank, size) = (comm.rank(), comm.size());
    let r = rank as f64;
    let sum = comm.all_reduce_scalar(r + 1.0);
    let squares = comm.all_gather(vec![r * r]).concat();
    comm.send((rank + 1) % size, 5, vec![r, sum]);
    let from_prev = comm.recv((rank + size - 1) % size, 5);
    [vec![sum], squares, from_prev].concat()
}

const OPERATOR_LINE: &str = "operator-run rank result";

/// Entry of one operator-run rank process: `CGNN_RANK` and `CGNN_WORLD`
/// set, `CGNN_PROC_SEQ` not, so the launch joins instead of spawning.
#[test]
#[ignore = "entry point of an operator-run rank process"]
fn operator_run_rank() {
    if CGNN_RANK.lookup().is_none() {
        return; // invoked via `--ignored` by hand, not as a rank
    }
    let out = Backend::from_env().launch(WORLD, ring);
    println!("{OPERATOR_LINE} {out:?}");
}

/// Start every rank of a `backend` world by hand, with `env` naming where
/// rank 0 listens; each rank's result must equal `Backend::Threads`'.
fn operator_run_matches_threads(backend: Backend, env: (&str, String)) {
    let expected = Backend::Threads.launch(WORLD, ring);
    let exe = std::env::current_exe().expect("the test binary's path");
    let ranks: Vec<_> = (0..WORLD)
        .map(|r| {
            Command::new(&exe)
                .args(["operator_run_rank", "--exact", "--ignored", "--nocapture"])
                .args(["--test-threads=1", "--quiet"])
                .env(CGNN_BACKEND.name, backend.label())
                .env(CGNN_RANK.name, r.to_string())
                .env(CGNN_WORLD.name, WORLD.to_string())
                .env(env.0, &env.1)
                .env_remove(CGNN_PROC_SEQ.name)
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("start a rank process")
        })
        .collect();
    for (r, rank) in ranks.into_iter().enumerate() {
        let out = rank.wait_with_output().expect("a rank process exits");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{backend} rank {r} failed: {stdout}{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let line = format!("{OPERATOR_LINE} {:?}", vec![&expected[r]]);
        assert!(stdout.contains(&line), "{backend} rank {r}: {stdout}");
    }
}

#[test]
fn operator_run_ranks_match_threads() {
    // A port freed just before the ranks start: rank 0 binds it itself.
    let port = TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .port();
    operator_run_matches_threads(
        Backend::Socket,
        (CGNN_SOCKET_ADDR.name, format!("127.0.0.1:{port}")),
    );
    let dir = std::env::temp_dir().join(format!("cgnn-operator-run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    operator_run_matches_threads(
        Backend::Proc,
        (CGNN_PROC_DIR.name, dir.display().to_string()),
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
