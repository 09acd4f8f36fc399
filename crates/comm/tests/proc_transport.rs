//! Launcher tests for the cross-process backends: what only a world of
//! real OS processes can show (typed failures crossing the process
//! boundary, the size-1 shortcut). The transport contract itself —
//! collectives, matching, liveness — is `tests/conformance.rs`, run over
//! all four transports.
//!
//! Each test pins its own name as the re-exec argv (via `reexec_scope`),
//! so the child rank processes re-run *exactly this test*, reach the same
//! launch, and join the world instead of spawning one.

use std::panic::AssertUnwindSafe;

use std::time::Duration;

use cgnn_comm::{reexec_scope, Backend, FaultPlan, RankFailure};

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

#[test]
fn proc_dropped_send_surfaces_typed_stall() {
    let _scope = reexec_scope(worker_args("proc_dropped_send_surfaces_typed_stall"));
    // Rank 0's send is swallowed and rank 0 stays alive in a barrier, so
    // nothing but the plan's stall deadline can end rank 1's receive.
    // Rank 1 (a child process) must give up there and the spawner must
    // see its typed `Stalled` — not the echo (`PeerDead`) it causes on
    // rank 0, and not a hang.
    let plan = FaultPlan::new()
        .drop_send(0, 0, 0)
        .stall_after(Duration::from_millis(100));
    let payload = std::panic::catch_unwind(AssertUnwindSafe(|| {
        Backend::Proc.launch_with(
            2,
            |comm| {
                if comm.rank() == 0 {
                    comm.send(1, 7, vec![1.0]);
                } else {
                    comm.recv(0, 7);
                }
                comm.barrier();
            },
            &plan,
            0,
        );
    }))
    .expect_err("a stalled child rank must tear the launch down");
    match RankFailure::from_payload(payload.as_ref()) {
        Some(RankFailure::Stalled { rank: 1, src: 0 }) => {}
        other => {
            panic!("expected Stalled{{rank:1,src:0}} across the process boundary, got {other:?}")
        }
    }
}
