//! Periodic checkpoint schedules: opt-in every-k-step checkpointing with
//! retention, riding on the epoch training loop.
//!
//! A [`CheckpointPolicy`] makes rank 0 write a full training checkpoint
//! (parameters + Adam state, the same container
//! [`RankHandle::save_params`](crate::RankHandle::save_params) produces)
//! every `every_steps` optimizer steps, pruning old files beyond the
//! retention count. Because resume is bit-exact, any retained file is a
//! valid crash-recovery point: `Session::restore(latest)` followed by the
//! same `train_epochs` call reproduces the uninterrupted run bit for bit.

use std::io;
use std::path::{Path, PathBuf};

use cgnn_core::Trainer;
use cgnn_tensor::{AdamState, ParamSet};

/// Width of the zero-padded step number in checkpoint file names; lexical
/// order == numeric order up to 10^10 steps.
const STEP_DIGITS: usize = 10;

/// A checkpoint file rejected during a [`CheckpointPolicy::latest_report`]
/// scan: which file, and the typed parse/validation error explaining why
/// (truncation, checksum mismatch, malformed framing, unreadable file).
#[derive(Debug)]
pub struct CorruptCheckpoint {
    /// The rejected `step-<n>.ckpt` file.
    pub path: PathBuf,
    /// Why it was rejected.
    pub reason: io::Error,
}

impl std::fmt::Display for CorruptCheckpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "corrupt checkpoint {}: {}",
            self.path.display(),
            self.reason
        )
    }
}

/// Outcome of a newest-first checkpoint-directory scan
/// ([`CheckpointPolicy::latest_report`]): the newest checkpoint that
/// parses, plus every newer file that had to be skipped as corrupt.
#[derive(Debug, Default)]
pub struct LatestReport {
    /// The newest valid checkpoint, if any file parsed.
    pub valid: Option<PathBuf>,
    /// The parameters and Adam state parsed from `valid` (present exactly
    /// when it is). Restore from these rather than re-reading the file: a
    /// trainer pruning old checkpoints may delete it after the scan.
    pub checkpoint: Option<(ParamSet, AdamState)>,
    /// Checkpoint files rejected before (or instead of) finding a valid
    /// one, newest first.
    pub rejected: Vec<CorruptCheckpoint>,
}

/// An every-k-step checkpoint schedule with retention, configured through
/// `Session::builder().checkpoint(..)`.
///
/// ```
/// use cgnn_session::CheckpointPolicy;
///
/// let dir = std::env::temp_dir().join("cgnn-policy-doc");
/// let policy = CheckpointPolicy::every(50, &dir).retain(3);
/// assert!(policy.is_due(100));
/// assert!(!policy.is_due(101));
/// assert!(policy.path_for_step(100).ends_with("step-0000000100.ckpt"));
/// ```
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Checkpoint after every `every_steps` optimizer steps.
    pub every_steps: u64,
    /// Directory the `step-<n>.ckpt` files are written to (created on
    /// first save).
    pub dir: PathBuf,
    /// How many most-recent checkpoints to keep; `0` keeps all.
    pub retain: usize,
}

impl CheckpointPolicy {
    /// Checkpoint every `every_steps` optimizer steps into `dir`, keeping
    /// the 3 most recent files (tune with [`CheckpointPolicy::retain`]).
    ///
    /// # Panics
    /// If `every_steps` is zero.
    pub fn every(every_steps: u64, dir: impl Into<PathBuf>) -> Self {
        assert!(every_steps > 0, "checkpoint interval must be at least 1");
        CheckpointPolicy {
            every_steps,
            dir: dir.into(),
            retain: 3,
        }
    }

    /// Keep only the `retain` most recent checkpoints (`0` = keep all).
    pub fn retain(mut self, retain: usize) -> Self {
        self.retain = retain;
        self
    }

    /// Whether a checkpoint is due after optimizer step `step`.
    pub fn is_due(&self, step: u64) -> bool {
        step > 0 && step.is_multiple_of(self.every_steps)
    }

    /// The file a checkpoint taken at optimizer step `step` is written to:
    /// `dir/step-<zero-padded step>.ckpt`.
    pub fn path_for_step(&self, step: u64) -> PathBuf {
        let width = STEP_DIGITS;
        self.dir.join(format!("step-{step:0width$}.ckpt"))
    }

    /// Parse the optimizer step out of a checkpoint file name produced by
    /// [`CheckpointPolicy::path_for_step`]; `None` for foreign files.
    pub fn step_of(path: &Path) -> Option<u64> {
        let name = path.file_name()?.to_str()?;
        let digits = name.strip_prefix("step-")?.strip_suffix(".ckpt")?;
        digits.parse().ok()
    }

    /// The most recent **valid** checkpoint in `dir` (highest step number
    /// that parses), if any — the crash-recovery entry point: feed it to
    /// `Session::restore`. Returns `Ok(None)` when the directory does not
    /// exist or holds no valid checkpoint files.
    ///
    /// Candidates are validated newest-first by fully parsing them
    /// (container framing, bounds, and the trailing checksum), so a
    /// truncated or bit-flipped file — e.g. one the writer died in the
    /// middle of — is *skipped* in favor of the previous intact
    /// checkpoint instead of being handed to `restore` to choke on.
    /// Callers that must distinguish "no checkpoints" from "only corrupt
    /// checkpoints" use [`CheckpointPolicy::latest_report`].
    pub fn latest(dir: impl AsRef<Path>) -> io::Result<Option<PathBuf>> {
        Ok(Self::latest_report(dir)?.valid)
    }

    /// Like [`CheckpointPolicy::latest`], but also report every checkpoint
    /// file that was rejected as corrupt during the newest-first scan.
    /// The outer `Err` is reserved for directory-scan failures; corrupt
    /// files are data, not errors, so a caller can decide whether
    /// "nothing valid but corpses present" is fatal (the serve control
    /// plane treats it as a startup error) or survivable (the elastic
    /// recovery loop falls back to seeded state).
    pub fn latest_report(dir: impl AsRef<Path>) -> io::Result<LatestReport> {
        let dir = dir.as_ref();
        if !dir.exists() {
            return Ok(LatestReport::default());
        }
        let mut steps: Vec<(u64, PathBuf)> = std::fs::read_dir(dir)?
            .filter_map(|e| {
                let path = e.ok()?.path();
                Self::step_of(&path).map(|s| (s, path))
            })
            .collect();
        steps.sort_unstable_by_key(|(s, _)| std::cmp::Reverse(*s));
        let mut rejected = Vec::new();
        for (_, path) in steps {
            match cgnn_tensor::load_checkpoint(&path) {
                Ok(checkpoint) => {
                    return Ok(LatestReport {
                        valid: Some(path),
                        checkpoint: Some(checkpoint),
                        rejected,
                    })
                }
                Err(reason) => rejected.push(CorruptCheckpoint { path, reason }),
            }
        }
        Ok(LatestReport {
            valid: None,
            checkpoint: None,
            rejected,
        })
    }

    /// Write the checkpoint for `step` and prune beyond the retention
    /// count. Called by the epoch loop on rank 0 only (replicas are
    /// bit-identical, one writer suffices).
    pub(crate) fn save_step(&self, trainer: &Trainer, step: u64) -> io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        cgnn_tensor::save_checkpoint(
            &trainer.params,
            &trainer.opt.state(),
            self.path_for_step(step),
        )?;
        self.prune()
    }

    /// Delete the oldest checkpoints beyond `retain` (no-op for `0`).
    fn prune(&self) -> io::Result<()> {
        if self.retain == 0 {
            return Ok(());
        }
        let mut steps: Vec<(u64, PathBuf)> = std::fs::read_dir(&self.dir)?
            .filter_map(|e| {
                let path = e.ok()?.path();
                Self::step_of(&path).map(|s| (s, path))
            })
            .collect();
        steps.sort_unstable_by_key(|(s, _)| *s);
        let excess = steps.len().saturating_sub(self.retain);
        for (_, path) in steps.into_iter().take(excess) {
            std::fs::remove_file(path)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_paths_round_trip_and_sort() {
        let p = CheckpointPolicy::every(10, "/tmp/x");
        let a = p.path_for_step(5);
        let b = p.path_for_step(40);
        assert_eq!(CheckpointPolicy::step_of(&a), Some(5));
        assert_eq!(CheckpointPolicy::step_of(&b), Some(40));
        assert!(a.to_str() < b.to_str(), "zero padding keeps lexical order");
        assert_eq!(
            CheckpointPolicy::step_of(Path::new("/tmp/other.ckpt")),
            None
        );
    }

    #[test]
    fn due_only_on_interval_multiples() {
        let p = CheckpointPolicy::every(4, "/tmp/x");
        assert!(!p.is_due(0), "step 0 is the seed state, not a checkpoint");
        assert!(p.is_due(4));
        assert!(p.is_due(8));
        assert!(!p.is_due(6));
    }

    /// Write a real (parse-valid) checkpoint at `path`.
    fn valid_ckpt(path: &Path) {
        let (params, _) = cgnn_core::ConsistentGnn::seeded(cgnn_core::GnnConfig::small(), 0);
        let opt = cgnn_tensor::AdamState {
            t: 0,
            m: vec![],
            v: vec![],
        };
        cgnn_tensor::save_checkpoint(&params, &opt, path).expect("save checkpoint");
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cgnn_policy_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir
    }

    #[test]
    fn latest_finds_highest_step() {
        let dir = tmp_dir("latest");
        let p = CheckpointPolicy::every(1, &dir);
        for s in [3u64, 12, 7] {
            valid_ckpt(&p.path_for_step(s));
        }
        std::fs::write(dir.join("unrelated.txt"), b"x").expect("write");
        let latest = CheckpointPolicy::latest(&dir).expect("scan");
        assert_eq!(latest, Some(p.path_for_step(12)));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(CheckpointPolicy::latest(&dir).expect("scan"), None);
    }

    #[test]
    fn latest_skips_corrupt_newest_and_falls_back() {
        let dir = tmp_dir("fallback");
        let p = CheckpointPolicy::every(1, &dir);
        valid_ckpt(&p.path_for_step(3));
        // Step 12 is newest but truncated — a writer that died mid-save.
        valid_ckpt(&p.path_for_step(12));
        let full = std::fs::read(p.path_for_step(12)).expect("read");
        std::fs::write(p.path_for_step(12), &full[..full.len() / 2]).expect("truncate");
        let report = CheckpointPolicy::latest_report(&dir).expect("scan");
        assert_eq!(report.valid, Some(p.path_for_step(3)), "must fall back");
        assert_eq!(report.rejected.len(), 1);
        assert_eq!(report.rejected[0].path, p.path_for_step(12));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn all_corrupt_is_no_valid_checkpoint_not_a_panic() {
        let dir = tmp_dir("corrupt");
        let p = CheckpointPolicy::every(1, &dir);
        // A bit-flipped file and a garbage file: both typed rejections.
        valid_ckpt(&p.path_for_step(5));
        let mut bytes = std::fs::read(p.path_for_step(5)).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(p.path_for_step(5), &bytes).expect("flip");
        std::fs::write(p.path_for_step(9), b"not a checkpoint").expect("write");
        let report = CheckpointPolicy::latest_report(&dir).expect("scan");
        assert_eq!(report.valid, None);
        assert_eq!(report.rejected.len(), 2, "both corpses reported");
        assert_eq!(
            CheckpointPolicy::latest(&dir).expect("scan"),
            None,
            "latest() treats an all-corrupt directory as empty"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
