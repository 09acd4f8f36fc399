//! Checkpoint corruption coverage at the integration level: checkpoints
//! written by a real training session, then damaged the way crashing
//! writers and failing disks damage them — truncation and bit flips.
//! `CheckpointPolicy::latest()`/`latest_report()` must *reject* the
//! damaged file with a typed [`CorruptCheckpoint`] and fall back to the
//! previous valid one; never panic, never return a corpse.

#![expect(
    clippy::expect_used,
    reason = "a failed setup step fails the test, and its message names the step"
)]

use std::path::PathBuf;

use cgnn::prelude::*;

fn mesh() -> BoxMesh {
    BoxMesh::new((4, 4, 2), 1, (1.0, 1.0, 1.0), false)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cgnn_corrupt_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

/// Train a short single-rank run that leaves a real checkpoint history
/// (steps 2, 4, 6, 8) in `dir`, and return the step-sorted file list.
fn seed_checkpoints(dir: &std::path::Path) -> Vec<PathBuf> {
    Session::builder()
        .mesh(mesh())
        .ranks(1)
        .dataset(Dataset::tgv_autoencode(
            &mesh(),
            &TaylorGreen::new(0.01),
            &[0.0, 0.1, 0.2, 0.3],
        ))
        .seed(3)
        .backend(Backend::Serial)
        .checkpoint(CheckpointPolicy::every(2, dir).retain(0))
        .build()
        .expect("session")
        .train_epochs(2);
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read dir")
        .filter_map(|e| {
            let path = e.ok()?.path();
            CheckpointPolicy::step_of(&path).map(|_| path)
        })
        .collect();
    files.sort();
    assert!(files.len() >= 3, "expected a checkpoint history in {dir:?}");
    files
}

/// Truncating the newest checkpoint anywhere — empty file, one byte,
/// half, or a single missing trailing byte — gets it rejected with a
/// typed error and `latest()` falls back to the previous valid file.
#[test]
fn truncated_newest_is_rejected_at_every_length() {
    let dir = tmp_dir("trunc");
    let files = seed_checkpoints(&dir);
    let newest = files.last().unwrap().clone();
    let second = files[files.len() - 2].clone();
    let intact = std::fs::read(&newest).expect("read newest");

    for keep in [0, 1, intact.len() / 2, intact.len() - 1] {
        std::fs::write(&newest, &intact[..keep]).expect("truncate");
        let report = CheckpointPolicy::latest_report(&dir).expect("scan must not fail");
        assert_eq!(
            report.valid.as_ref(),
            Some(&second),
            "truncation to {keep} bytes must fall back to the previous checkpoint"
        );
        let corpse = report
            .rejected
            .iter()
            .find(|c| c.path == newest)
            .unwrap_or_else(|| panic!("truncation to {keep} bytes not reported"));
        // The typed error formats into something an operator can act on.
        assert!(corpse.to_string().contains("corrupt checkpoint"));
        assert_eq!(
            CheckpointPolicy::latest(&dir).expect("latest must not fail"),
            Some(second.clone())
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A single flipped bit anywhere in the payload fails the trailing
/// checksum: the file is rejected, not restored.
#[test]
fn bit_flipped_newest_is_rejected() {
    let dir = tmp_dir("flip");
    let files = seed_checkpoints(&dir);
    let newest = files.last().unwrap().clone();
    let second = files[files.len() - 2].clone();
    let intact = std::fs::read(&newest).expect("read newest");

    for at in [16, intact.len() / 2, intact.len() - 4] {
        let mut bytes = intact.clone();
        bytes[at] ^= 0x40;
        std::fs::write(&newest, &bytes).expect("flip");
        let report = CheckpointPolicy::latest_report(&dir).expect("scan must not fail");
        assert_eq!(
            report.valid.as_ref(),
            Some(&second),
            "bit flip at byte {at} must fall back to the previous checkpoint"
        );
        assert!(report.rejected.iter().any(|c| c.path == newest));
    }

    // Restoring from the corpse directly is a typed I/O error, not a
    // panic — the same contract the recovery loop relies on.
    let restore = Session::builder()
        .mesh(mesh())
        .ranks(1)
        .seed(3)
        .backend(Backend::Serial)
        .build()
        .expect("session")
        .restore(&newest);
    assert!(
        restore.is_err(),
        "restore from a bit-flipped file must error"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// When *every* checkpoint is damaged, `latest()` reports "no valid
/// checkpoint" (`Ok(None)`) and the report lists each corpse — the
/// caller decides whether that is fatal (the serving plane) or a
/// restart-from-seed (elastic recovery).
#[test]
fn all_corrupt_reports_every_corpse_without_panicking() {
    let dir = tmp_dir("all");
    let files = seed_checkpoints(&dir);
    for path in &files {
        let bytes = std::fs::read(path).expect("read");
        std::fs::write(path, &bytes[..bytes.len() / 3]).expect("truncate");
    }
    let report = CheckpointPolicy::latest_report(&dir).expect("scan must not fail");
    assert_eq!(report.valid, None);
    assert_eq!(
        report.rejected.len(),
        files.len(),
        "every damaged file must be reported"
    );
    assert_eq!(CheckpointPolicy::latest(&dir).expect("latest"), None);
    std::fs::remove_dir_all(&dir).ok();
}
