//! Shared integration-test helpers: bounded deadline polling instead of
//! fixed sleeps, and the resident-set reading of the soak tests.
//!
//! Fixed `thread::sleep(...)` waits are either too short (flaky under CI
//! load) or too long (slow everywhere). These helpers poll a probe with a
//! short pause until a condition holds, failing loudly with a
//! description when the deadline elapses — the wait is as short as the
//! condition allows and as long as the machine needs.
//!
//! Lives once at the workspace root (`tests/common/`) and is shared by
//! the chaos suite and per-crate integration tests through
//! `#[path = ...] mod common;`.

#![allow(
    dead_code,
    reason = "each test binary uses a different subset, so no one `#[expect]` holds in every binary"
)]

use std::time::{Duration, Instant};

/// How often probes are re-run while waiting.
const POLL: Duration = Duration::from_millis(5);

/// Poll `probe` until it returns `Some(v)`, panicking with `what` if
/// `deadline` elapses first. The probe runs at least once even for a
/// zero deadline.
///
/// # Panics
/// When `deadline` elapses without the probe producing a value.
pub fn wait_for<T>(deadline: Duration, what: &str, mut probe: impl FnMut() -> Option<T>) -> T {
    let give_up = Instant::now() + deadline;
    loop {
        if let Some(v) = probe() {
            return v;
        }
        assert!(
            Instant::now() < give_up,
            "timed out after {deadline:?} waiting for {what}"
        );
        std::thread::sleep(POLL);
    }
}

/// Poll `probe` until it returns `true`, panicking with `what` if
/// `deadline` elapses first.
///
/// # Panics
/// When `deadline` elapses without the condition becoming true.
pub fn wait_until(deadline: Duration, what: &str, mut probe: impl FnMut() -> bool) {
    wait_for(deadline, what, || probe().then_some(()));
}

/// A deadline generous enough for CI yet irrelevant when things work:
/// conditions in these tests normally hold within milliseconds.
pub fn generous() -> Duration {
    Duration::from_secs(10)
}

/// Resident set of the whole process in kB (`VmRSS`; `None` off Linux).
pub fn rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// A watchdog that aborts the whole test process if it is still armed
/// when `deadline` elapses. Chaos tests intentionally kill ranks
/// mid-collective; if liveness detection ever regressed, the surviving
/// ranks would block forever and the test would *hang* rather than fail.
/// The guard turns that hang into a loud, fast abort. Dropping the guard
/// disarms it.
pub struct HangGuard {
    armed: std::sync::Arc<std::sync::atomic::AtomicBool>,
}

impl Drop for HangGuard {
    fn drop(&mut self) {
        self.armed
            .store(false, std::sync::atomic::Ordering::Release);
    }
}

/// Arm a [`HangGuard`] for `deadline`; `what` names the run being
/// supervised in the abort message.
pub fn hang_guard(deadline: Duration, what: &'static str) -> HangGuard {
    let armed = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
    let flag = std::sync::Arc::clone(&armed);
    std::thread::spawn(move || {
        let give_up = Instant::now() + deadline;
        while Instant::now() < give_up {
            if !flag.load(std::sync::atomic::Ordering::Acquire) {
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        if flag.load(std::sync::atomic::Ordering::Acquire) {
            eprintln!("HangGuard: still waiting on {what} after {deadline:?}; aborting");
            std::process::abort();
        }
    });
    HangGuard { armed }
}
