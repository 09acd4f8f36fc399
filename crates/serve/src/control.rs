//! The serving control plane: owns the published parameter set, watches a
//! checkpoint directory, and hot-swaps new parameters into the replica
//! pool **between** forward passes.
//!
//! Publication is one slot holding an `Arc<Published>`: the control plane
//! validates a candidate checkpoint against the served architecture
//! ([`ConsistentGnn::check_checkpoint`], as
//! [`cgnn_session::Session::restore`] does) and swaps the slot's `Arc`.
//! A replica that claims a request and finds the slot changed installs the
//! new parameters before that request's pass, so every individual request
//! is served by exactly one parameter set — in-flight requests are never
//! torn across a reload, and a request sent after a reload has answered is
//! served by what it published.

use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use cgnn_core::{ConsistentGnn, GnnConfig};
use cgnn_session::CheckpointPolicy;
use cgnn_tensor::ParamSet;

use crate::stats::ServeStats;

/// One published parameter set and where it came from.
pub(crate) struct Published {
    pub(crate) params: ParamSet,
    /// Step of the checkpoint the parameters were loaded from; `None` for
    /// the seeded weights, so that even a `step-0` checkpoint is loaded.
    pub(crate) step: Option<u64>,
}

impl Published {
    /// Training step served (0 for seeded weights).
    pub(crate) fn model_step(&self) -> u64 {
        self.step.unwrap_or(0)
    }
}

/// Outcome of one reload scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReloadOutcome {
    /// True when a new checkpoint was published.
    pub reloaded: bool,
    /// Training step of the parameters now being served.
    pub step: u64,
}

/// The control plane proper: the published slot, the serving flags, and
/// the architecture recipe + watched directory reloads check against.
pub struct ControlPlane {
    published: Mutex<Arc<Published>>,
    /// True once draining started: `/predict` refuses new work (`503`)
    /// while queued requests finish.
    pub(crate) draining: AtomicBool,
    /// True once shutdown started: HTTP workers stop accepting.
    pub(crate) shutdown: AtomicBool,
    config: GnnConfig,
    dir: Option<PathBuf>,
}

impl ControlPlane {
    /// Seed the initial parameter set for `config` and, when `dir` is
    /// set, immediately load the newest checkpoint found there.
    ///
    /// A present-but-unloadable newest checkpoint is a startup **error**
    /// (serving seeded weights when the operator pointed at real ones
    /// would be silent corruption); an empty or missing directory serves
    /// seeded weights and waits for training to produce checkpoints.
    pub fn new(config: GnnConfig, seed: u64, dir: Option<PathBuf>) -> std::io::Result<Self> {
        let (params, _) = ConsistentGnn::seeded(config, seed);
        let plane = ControlPlane {
            published: Mutex::new(Arc::new(Published { params, step: None })),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            config,
            dir,
        };
        plane.reload()?;
        Ok(plane)
    }

    /// The parameter set being served now.
    pub(crate) fn published(&self) -> Arc<Published> {
        Arc::clone(
            &self
                .published
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        )
    }

    /// Scan the watched directory once and publish the newest checkpoint
    /// if it is not what is being served. No-op without a watched
    /// directory. Validation failures leave the served parameters
    /// untouched and return the error.
    ///
    /// The scan skips corrupt files (e.g. a checkpoint the trainer died
    /// in the middle of writing) in favor of the newest one that parses;
    /// but when corrupt files exist and **nothing** valid remains, that
    /// is an error — the operator pointed at real checkpoints, so
    /// silently serving seeded weights would be corruption.
    pub fn reload(&self) -> std::io::Result<ReloadOutcome> {
        let serving = |published: &Published| ReloadOutcome {
            reloaded: false,
            step: published.model_step(),
        };
        let Some(dir) = &self.dir else {
            return Ok(serving(&self.published()));
        };
        let report = CheckpointPolicy::latest_report(dir)?;
        // Publish what the scan parsed: the file itself may be pruned by
        // now.
        let (Some(path), Some((params, opt))) = (report.valid, report.checkpoint) else {
            if let Some(corpse) = report.rejected.first() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("no valid checkpoint in {}: {corpse}", dir.display()),
                ));
            }
            return Ok(serving(&self.published()));
        };
        let step = CheckpointPolicy::step_of(&path).ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unparsable checkpoint name: {}", path.display()),
            )
        })?;
        let current = self.published();
        if current.step == Some(step) {
            return Ok(serving(&current));
        }
        ConsistentGnn::check_checkpoint(self.config, &params, &opt)?;
        let mut slot = self
            .published
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        // A concurrent reload may have published this step meanwhile.
        if slot.step == Some(step) {
            return Ok(serving(&slot));
        }
        *slot = Arc::new(Published {
            params,
            step: Some(step),
        });
        Ok(ReloadOutcome {
            reloaded: true,
            step,
        })
    }

    /// Spawn the watcher thread: every `poll`, rescan the watched
    /// directory and publish newer checkpoints, until `stop` disconnects
    /// (its sender is dropped). Reload failures are counted in
    /// `stats.reload_errors` and the previous parameters keep serving.
    pub fn spawn_watcher(
        self: &Arc<Self>,
        poll: Duration,
        stats: Arc<ServeStats>,
        stop: Receiver<()>,
    ) -> std::io::Result<std::thread::JoinHandle<()>> {
        let plane = Arc::clone(self);
        std::thread::Builder::new()
            .name("cgnn-serve-watch".to_string())
            .spawn(move || {
                while let Err(RecvTimeoutError::Timeout) = stop.recv_timeout(poll) {
                    match plane.reload() {
                        Ok(out) if out.reloaded => {
                            stats.update(|s| s.reloads_applied += 1);
                        }
                        Ok(_) => {}
                        Err(_) => {
                            stats.update(|s| s.reload_errors += 1);
                        }
                    }
                }
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cgnn_serve_ctl_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir
    }

    #[test]
    fn empty_dir_serves_seeded_weights() {
        let dir = tmp_dir("empty");
        let plane = ControlPlane::new(GnnConfig::small(), 7, Some(dir.clone())).expect("startup");
        let seeded = plane.published();
        assert_eq!(seeded.step, None);
        let out = plane.reload().expect("reload");
        assert!(!out.reloaded);
        assert_eq!(out.step, 0);
        assert!(
            Arc::ptr_eq(&seeded, &plane.published()),
            "an empty scan must not republish"
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn reload_publishes_newer_checkpoints_once() {
        use cgnn_comm::LoopbackBackend;
        use cgnn_core::HaloContext;
        let dir = tmp_dir("reload");
        let policy = CheckpointPolicy::every(1, &dir);
        let ctx = HaloContext::single(LoopbackBackend::comm());
        let trainer = cgnn_core::Trainer::new(GnnConfig::small(), 9, 1e-3, ctx);
        cgnn_tensor::save_checkpoint(
            &trainer.params,
            &trainer.opt.state(),
            policy.path_for_step(3),
        )
        .expect("save");

        let plane = ControlPlane::new(GnnConfig::small(), 7, Some(dir.clone())).expect("startup");
        // Startup already consumed step 3.
        let at_start = plane.published();
        assert_eq!(at_start.step, Some(3));
        let again = plane.reload().expect("reload");
        assert!(!again.reloaded, "same checkpoint must not republish");
        assert!(Arc::ptr_eq(&at_start, &plane.published()));

        cgnn_tensor::save_checkpoint(
            &trainer.params,
            &trainer.opt.state(),
            policy.path_for_step(5),
        )
        .expect("save");
        let newer = plane.reload().expect("reload");
        assert!(newer.reloaded);
        assert_eq!(newer.step, 5);
        let at_5 = plane.published();
        assert_eq!(at_5.step, Some(5));
        assert!(!plane.reload().expect("reload").reloaded);
        assert!(Arc::ptr_eq(&at_5, &plane.published()));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn mismatched_architecture_is_refused() {
        use cgnn_comm::LoopbackBackend;
        use cgnn_core::HaloContext;
        let dir = tmp_dir("mismatch");
        let policy = CheckpointPolicy::every(1, &dir);
        let ctx = HaloContext::single(LoopbackBackend::comm());
        let trainer = cgnn_core::Trainer::new(GnnConfig::large(), 9, 1e-3, ctx);
        cgnn_tensor::save_checkpoint(
            &trainer.params,
            &trainer.opt.state(),
            policy.path_for_step(1),
        )
        .expect("save");
        // A small-architecture server pointed at a large checkpoint must
        // refuse to start rather than serve seeded weights silently.
        assert!(ControlPlane::new(GnnConfig::small(), 7, Some(dir.clone())).is_err());
        std::fs::remove_dir_all(dir).ok();
    }
}
