//! A server that fails to start leaves no thread behind. Its own test
//! binary: the check lists this process's threads, so no other test may
//! start or stop one beside it.

#![expect(
    clippy::expect_used,
    reason = "a failed setup step fails the test, and its message names the step"
)]

use std::collections::BTreeMap;
use std::net::TcpListener;

use cgnn_serve::{ServeConfig, Server};

/// This process's live threads, by thread id, with their names
/// (`/proc/self/task/<tid>/comm`; the kernel keeps the first 15 bytes of
/// a name, so the watcher `cgnn-serve-watch` reads `cgnn-serve-watc`).
fn threads() -> BTreeMap<String, String> {
    std::fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .filter_map(|task| {
            let task = task.ok()?;
            let name = std::fs::read_to_string(task.path().join("comm")).ok()?;
            Some((
                task.file_name().to_string_lossy().into_owned(),
                name.trim_end().to_string(),
            ))
        })
        .collect()
}

#[test]
fn a_taken_address_fails_start_and_leaves_no_watcher() {
    let taken = TcpListener::bind("127.0.0.1:0").expect("bind a port to take");
    let addr = taken.local_addr().expect("taken address");
    // A directory that does not exist serves seeded weights, and arms
    // the checkpoint watcher all the same.
    let ckpt_dir =
        std::env::temp_dir().join(format!("cgnn_serve_start_failure_{}", std::process::id()));
    let config = ServeConfig {
        addr: addr.to_string(),
        elems: 2,
        ckpt_dir: Some(ckpt_dir),
        ..ServeConfig::default()
    };
    let before = threads();
    let err = match Server::start(config) {
        Ok(_) => panic!("a second server on {addr} must not start"),
        Err(err) => err,
    };
    assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse, "{err}");
    // Thread ids, not names: a thread names itself once it runs, and one
    // just spawned may not have yet.
    let left: Vec<String> = threads()
        .into_iter()
        .filter(|(tid, _)| !before.contains_key(tid))
        .map(|(_, name)| name)
        .collect();
    assert!(
        left.is_empty(),
        "threads left by a failed start (the watcher reads `cgnn-serve-watc`): {left:?}"
    );
    drop(taken);
}
