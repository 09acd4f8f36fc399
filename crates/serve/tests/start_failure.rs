//! A server that fails to start leaves no thread behind, and one that
//! shuts down with idle parties stops every thread it started. Its own
//! test binary: the checks list this process's threads, so no other test
//! may start or stop one beside them, and the two here take turns.

#![expect(
    clippy::expect_used,
    reason = "a failed setup step fails the test, and its message names the step"
)]

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Mutex, PoisonError};
use std::time::Duration;

use cgnn_serve::{ServeConfig, Server};

#[path = "../../../tests/common/mod.rs"]
mod common;

/// Held for the whole of each test, so that one never lists threads while
/// the other is starting or stopping a server.
static TURN: Mutex<()> = Mutex::new(());

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
    let _turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
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

/// Shutdown wakes a worker parked on an idle keep-alive connection and the
/// workers parked in `accept`, stops the checkpoint watcher, and returns.
/// Named to sort first: the harness then starts this test's thread before
/// the other's, so it is never new to the other's thread listing.
#[test]
fn a_shutdown_with_idle_parties_stops_every_thread() {
    let _turn = TURN.lock().unwrap_or_else(PoisonError::into_inner);
    let ckpt_dir =
        std::env::temp_dir().join(format!("cgnn_serve_idle_shutdown_{}", std::process::id()));
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        elems: 2,
        ckpt_dir: Some(ckpt_dir),
        // Longer than the hang guard: only the stop signal ends the watcher.
        poll_ms: 60_000,
        http_workers: 3,
        ..ServeConfig::default()
    })
    .expect("server start");

    // One keep-alive client, answered once and then idle: its worker is
    // parked reading it, the other two in `accept`.
    let mut idle = TcpStream::connect(server.addr()).expect("connect");
    idle.write_all(b"GET /health HTTP/1.1\r\nHost: cgnn-serve\r\n\r\n")
        .expect("send");
    let stats = server.stats();
    common::wait_until(common::generous(), "the health check to be served", || {
        stats.snapshot().health == 1
    });

    let (done_tx, done_rx) = mpsc::channel();
    let stopper = std::thread::spawn(move || {
        server.shutdown();
        let _ = done_tx.send(());
    });
    // A hang guard, not a timing claim.
    done_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("shutdown hung with an idle client and workers parked in accept");
    stopper.join().expect("shutdown panicked");

    // The idle client gets its answer, then end of stream.
    idle.set_read_timeout(Some(common::generous()))
        .expect("read timeout");
    let mut answered = Vec::new();
    idle.read_to_end(&mut answered)
        .expect("the idle client reads to end of stream");
    assert!(
        answered.starts_with(b"HTTP/1.1 200 OK"),
        "{}",
        String::from_utf8_lossy(&answered)
    );

    // Every server thread names itself `cgnn-serve-*` as it starts, and
    // all of them started long before the shutdown.
    common::wait_until(
        common::generous(),
        "the server's threads to be gone",
        || {
            let left: Vec<String> = threads()
                .into_values()
                .filter(|name| name.starts_with("cgnn-serve"))
                .collect();
            left.is_empty()
        },
    );
}
