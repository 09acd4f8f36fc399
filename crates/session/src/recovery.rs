//! Elastic rank-failure recovery: shrink the world, re-partition,
//! restore, resume.
//!
//! The recovery contract, pinned by the chaos suite
//! (`tests/chaos_recovery.rs`):
//!
//! 1. A rank death — injected by a [`FaultPlan`](cgnn_comm::FaultPlan) or
//!    a genuine panic classified by the comm layer's liveness probe —
//!    tears the SPMD world down with a typed
//!    [`RankFailure`] payload instead of hanging.
//! 2. [`Session::try_run`] catches that payload and reports *which* ranks
//!    died; genuine (non-failure) panics propagate unchanged.
//! 3. [`Session::train_epochs_elastic`] then agrees on the new world (the
//!    survivors, i.e. the old world minus the dead set), re-partitions
//!    the mesh with the session's stored
//!    [`Strategy`](cgnn_partition::Strategy), restores
//!    parameters + Adam state from the newest **valid** checkpoint
//!    ([`CheckpointPolicy::latest`], which skips corrupt files), and
//!    resumes the deterministic `(seed, epoch)` schedule from the
//!    restored optimizer step.
//!
//! Because the epoch schedule is a pure function of `(seed, epoch)` and
//! resume derives its position from the optimizer step count, the
//! post-recovery loss trajectory is **bit-identical** to a fresh run
//! restored from the same checkpoint at the surviving world size — the
//! invariant that makes recovery testable rather than merely plausible.

use std::io;
use std::path::PathBuf;

use cgnn_comm::RankFailure;
use cgnn_core::EpochReport;

use crate::builder::SessionError;
use crate::checkpoint::CheckpointPolicy;
use crate::handle::RankHandle;
use crate::session::Session;

/// An SPMD run torn down by rank failure(s), as surfaced by
/// [`Session::try_run`]: the set of ranks identified as dead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorldFailure {
    /// Ranks (in the failed world's numbering) known to have died,
    /// ascending and deduplicated.
    pub dead: Vec<usize>,
}

impl std::fmt::Display for WorldFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SPMD world lost rank(s) {:?}", self.dead)
    }
}

impl std::error::Error for WorldFailure {}

/// Recovery budget for [`Session::train_epochs_elastic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultTolerance {
    /// How many recoveries (world rebuilds) are attempted before giving
    /// up with [`ElasticError::RetriesExhausted`].
    pub max_recoveries: u32,
    /// Smallest world size worth continuing at; fewer survivors is
    /// [`ElasticError::WorldExhausted`].
    pub min_ranks: usize,
}

impl Default for FaultTolerance {
    /// `max_recoveries` from the `CGNN_FAULT_MAX_RETRIES` knob (default
    /// 4), `min_ranks` 1.
    fn default() -> Self {
        FaultTolerance {
            max_recoveries: cgnn_core::config::CGNN_FAULT_MAX_RETRIES.usize_or(4) as u32,
            min_ranks: 1,
        }
    }
}

impl FaultTolerance {
    /// The environment-configured default budget.
    pub fn from_env() -> Self {
        Self::default()
    }

    /// Override the recovery budget.
    pub fn max_recoveries(mut self, max: u32) -> Self {
        self.max_recoveries = max;
        self
    }

    /// Override the smallest world size worth continuing at (clamped to
    /// at least 1).
    pub fn min_ranks(mut self, min: usize) -> Self {
        self.min_ranks = min.max(1);
        self
    }
}

/// Why elastic training gave up.
#[derive(Debug)]
pub enum ElasticError {
    /// The session has no [`CheckpointPolicy`]; there is nothing to
    /// restore from, so recovery would silently lose training progress.
    NoCheckpointPolicy,
    /// Too few survivors to continue.
    WorldExhausted {
        /// Ranks left after the failure.
        survivors: usize,
        /// The configured floor.
        min_ranks: usize,
    },
    /// The recovery budget ran out and the world failed again.
    RetriesExhausted {
        /// Recoveries performed before giving up.
        recoveries: u32,
        /// The failure that exhausted the budget.
        failure: WorldFailure,
    },
    /// Scanning the checkpoint directory failed (I/O, not corruption —
    /// corrupt files are skipped, not fatal).
    Scan(io::Error),
    /// Restoring from the chosen checkpoint failed.
    Restore(io::Error),
    /// Re-partitioning for the survivors failed (e.g. fewer elements
    /// than ranks can never happen shrinking, but the variant keeps the
    /// rebuild fallible end to end).
    Rebuild(SessionError),
}

impl std::fmt::Display for ElasticError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ElasticError::NoCheckpointPolicy => write!(
                f,
                "elastic training needs a checkpoint policy \
                 (Session::builder().checkpoint(..)) to recover from"
            ),
            ElasticError::WorldExhausted {
                survivors,
                min_ranks,
            } => write!(
                f,
                "only {survivors} rank(s) survive, below the floor of {min_ranks}"
            ),
            ElasticError::RetriesExhausted {
                recoveries,
                failure,
            } => write!(f, "gave up after {recoveries} recoveries: {failure}"),
            ElasticError::Scan(e) => write!(f, "checkpoint directory scan failed: {e}"),
            ElasticError::Restore(e) => write!(f, "checkpoint restore failed: {e}"),
            ElasticError::Rebuild(e) => write!(f, "world rebuild failed: {e}"),
        }
    }
}

impl std::error::Error for ElasticError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ElasticError::Scan(e) | ElasticError::Restore(e) => Some(e),
            ElasticError::Rebuild(e) => Some(e),
            _ => None,
        }
    }
}

/// One recovery performed by [`Session::train_epochs_elastic`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryEvent {
    /// Ranks that died (in the failed world's numbering).
    pub dead: Vec<usize>,
    /// World size before the failure.
    pub world_before: usize,
    /// World size the run continued at.
    pub world_after: usize,
    /// The checkpoint the rebuilt world restored from; `None` means no
    /// valid checkpoint existed yet and training restarted from seeded
    /// state (at the smaller world size).
    pub restored_from: Option<PathBuf>,
}

/// What an elastic run produced: the surviving world's epoch reports and
/// the recovery history that led there.
#[derive(Debug)]
pub struct ElasticReport {
    /// Per-rank epoch reports of the **final** (successful) attempt, in
    /// rank order of the surviving world. Epochs completed before the
    /// last restored checkpoint are not re-reported; the reports cover
    /// the work the final world actually performed.
    pub reports: Vec<Vec<EpochReport>>,
    /// Every recovery performed, in order.
    pub recoveries: Vec<RecoveryEvent>,
    /// World size of the final attempt.
    pub final_ranks: usize,
}

impl Session {
    /// [`Session::run`], but rank failures become a typed `Err` instead
    /// of a panic: an unwind whose payload is a
    /// [`RankFailure`] (an injected kill or a
    /// liveness-probe abort) is caught and converted into the
    /// dead-rank set; any other panic is a genuine bug and propagates
    /// unchanged.
    ///
    /// # Errors
    /// [`WorldFailure`] naming the dead ranks.
    pub fn try_run<T, F>(&self, f: F) -> Result<Vec<T>, WorldFailure>
    where
        T: Send,
        F: Fn(&mut RankHandle) -> T + Sync,
    {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.run(f))) {
            Ok(out) => Ok(out),
            Err(payload) => match RankFailure::from_payload(payload.as_ref()) {
                Some(failure) => {
                    let mut dead = failure.dead_ranks();
                    dead.sort_unstable();
                    dead.dedup();
                    Err(WorldFailure { dead })
                }
                None => std::panic::resume_unwind(payload),
            },
        }
    }

    /// Train to `epochs` epochs, recovering from rank failures: on each
    /// [`WorldFailure`], drop the dead ranks, re-partition the mesh over
    /// the survivors with the stored partition strategy, restore
    /// parameters + optimizer state from the newest valid checkpoint,
    /// and resume the `(seed, epoch)` schedule — bit-identically to a
    /// fresh run restored from that checkpoint at the surviving world
    /// size. Scripted fault plans are re-armed with an incremented
    /// attempt index on every rebuilt world, so multi-failure scenarios
    /// replay deterministically.
    ///
    /// # Errors
    /// See [`ElasticError`]. A session without a checkpoint policy is
    /// refused up front.
    ///
    /// # Panics
    /// Genuine (non-[`RankFailure`]) panics from
    /// the SPMD region propagate unchanged — elasticity must never
    /// swallow a real bug.
    pub fn train_epochs_elastic(
        &self,
        epochs: u64,
        tolerance: &FaultTolerance,
    ) -> Result<ElasticReport, ElasticError> {
        let policy = self
            .checkpoint_policy()
            .cloned()
            .ok_or(ElasticError::NoCheckpointPolicy)?;
        let mut current = self.clone();
        let mut recoveries: Vec<RecoveryEvent> = Vec::new();
        loop {
            match current.try_run(|h| h.train_epochs(epochs)) {
                Ok(reports) => {
                    return Ok(ElasticReport {
                        reports,
                        recoveries,
                        final_ranks: current.ranks(),
                    })
                }
                Err(failure) => {
                    if recoveries.len() as u32 >= tolerance.max_recoveries {
                        return Err(ElasticError::RetriesExhausted {
                            recoveries: recoveries.len() as u32,
                            failure,
                        });
                    }
                    let world_before = current.ranks();
                    let dead_in_world = failure
                        .dead
                        .iter()
                        .filter(|&&r| r < world_before)
                        .count()
                        .max(1);
                    let survivors = world_before - dead_in_world;
                    if survivors < tolerance.min_ranks.max(1) {
                        return Err(ElasticError::WorldExhausted {
                            survivors,
                            min_ranks: tolerance.min_ranks,
                        });
                    }
                    // Newest *valid* checkpoint: files a dying writer
                    // truncated or corrupted are skipped, falling back
                    // to the previous intact one; none at all means the
                    // survivors restart from seeded state.
                    let report =
                        CheckpointPolicy::latest_report(&policy.dir).map_err(ElasticError::Scan)?;
                    let resized = current.resized(survivors).map_err(ElasticError::Rebuild)?;
                    // Restore what the scan parsed: the file itself may be
                    // pruned by now.
                    let mut next = match report.checkpoint {
                        Some((params, opt)) => resized
                            .restored(params, opt)
                            .map_err(ElasticError::Restore)?,
                        None => resized,
                    };
                    next.attempt = current.attempt + 1;
                    recoveries.push(RecoveryEvent {
                        dead: failure.dead,
                        world_before,
                        world_after: survivors,
                        restored_from: report.valid,
                    });
                    current = next;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerance_builders_and_floor() {
        let t = FaultTolerance::from_env().max_recoveries(2).min_ranks(0);
        assert_eq!(t.max_recoveries, 2);
        assert_eq!(t.min_ranks, 1, "floor is clamped to at least one rank");
    }

    #[test]
    fn elastic_errors_display() {
        let failure = WorldFailure { dead: vec![1] };
        assert!(failure.to_string().contains("[1]"));
        let e = ElasticError::RetriesExhausted {
            recoveries: 3,
            failure,
        };
        assert!(e.to_string().contains("3 recoveries"));
        assert!(ElasticError::NoCheckpointPolicy
            .to_string()
            .contains("checkpoint policy"));
        let w = ElasticError::WorldExhausted {
            survivors: 0,
            min_ranks: 2,
        };
        assert!(w.to_string().contains("below the floor"));
    }
}
