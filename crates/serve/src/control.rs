//! The serving control plane: owns the published parameter set, watches a
//! checkpoint directory, and hot-swaps new parameters into the replica
//! pool **between** forward passes.
//!
//! Publication is a generation-stamped `Arc<ParamSet>` slot: the control
//! plane validates a candidate checkpoint against the served architecture
//! ([`ConsistentGnn::check_checkpoint`], as
//! [`cgnn_session::Session::restore`] does), then
//! atomically bumps the generation. Replicas compare generations between
//! passes and install the new parameters before their next forward pass,
//! so every individual request is served by exactly one parameter set —
//! in-flight requests are never torn across a reload.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use cgnn_core::{ConsistentGnn, GnnConfig};
use cgnn_session::CheckpointPolicy;
use cgnn_tensor::ParamSet;

use crate::stats::ServeStats;

/// State shared between the control plane, the HTTP workers, and the
/// replica pool.
pub struct ControlShared {
    /// Bumped on every parameter publication; replicas install the
    /// published set when their local generation falls behind.
    pub generation: AtomicU64,
    /// Training step of the published parameters (0 for seeded weights).
    pub model_step: AtomicU64,
    /// True once draining started: `/predict` refuses new work (`503`)
    /// while queued requests finish.
    pub draining: AtomicBool,
    /// True once shutdown started: background threads exit their loops.
    pub shutdown: AtomicBool,
    params: Mutex<Arc<ParamSet>>,
}

impl ControlShared {
    fn new(initial: ParamSet) -> Self {
        ControlShared {
            generation: AtomicU64::new(1),
            model_step: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            params: Mutex::new(Arc::new(initial)),
        }
    }

    /// The currently published parameter set.
    pub fn current_params(&self) -> Arc<ParamSet> {
        Arc::clone(&self.params.lock().unwrap_or_else(PoisonError::into_inner))
    }

    fn publish(&self, params: ParamSet, step: u64) {
        *self.params.lock().unwrap_or_else(PoisonError::into_inner) = Arc::new(params);
        self.model_step.store(step, Ordering::Release);
        // Bump last: a replica that observes the new generation is
        // guaranteed to read the new slot and step.
        self.generation.fetch_add(1, Ordering::Release);
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

/// The control plane proper: architecture recipe + watched directory.
pub struct ControlPlane {
    shared: Arc<ControlShared>,
    config: GnnConfig,
    dir: Option<PathBuf>,
    /// Step of the newest checkpoint already loaded from `dir`, so the
    /// watcher is idempotent between training saves.
    loaded_step: Mutex<Option<u64>>,
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
            shared: Arc::new(ControlShared::new(params)),
            config,
            dir,
            loaded_step: Mutex::new(None),
        };
        plane.reload()?;
        Ok(plane)
    }

    /// Handle to the shared serving state.
    pub fn shared(&self) -> Arc<ControlShared> {
        Arc::clone(&self.shared)
    }

    /// Scan the watched directory once and publish the newest checkpoint
    /// if it is newer than what is being served. No-op without a watched
    /// directory. Validation failures leave the served parameters
    /// untouched and return the error.
    ///
    /// The scan skips corrupt files (e.g. a checkpoint the trainer died
    /// in the middle of writing) in favor of the newest one that parses;
    /// but when corrupt files exist and **nothing** valid remains, that
    /// is an error — the operator pointed at real checkpoints, so
    /// silently serving seeded weights would be corruption.
    pub fn reload(&self) -> std::io::Result<ReloadOutcome> {
        let serving = ReloadOutcome {
            reloaded: false,
            step: self.shared.model_step.load(Ordering::Acquire),
        };
        let Some(dir) = &self.dir else {
            return Ok(serving);
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
            return Ok(serving);
        };
        let step = CheckpointPolicy::step_of(&path).ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unparsable checkpoint name: {}", path.display()),
            )
        })?;
        let mut loaded = self
            .loaded_step
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if *loaded == Some(step) {
            return Ok(serving);
        }
        ConsistentGnn::check_checkpoint(self.config, &params, &opt)?;
        self.shared.publish(params, step);
        *loaded = Some(step);
        Ok(ReloadOutcome {
            reloaded: true,
            step,
        })
    }

    /// Spawn the polling watcher thread: every `poll`, rescan the watched
    /// directory and publish newer checkpoints, until shutdown. Reload
    /// failures are counted in `stats.reload_errors` and the previous
    /// parameters keep serving.
    pub fn spawn_watcher(
        self: &Arc<Self>,
        poll: Duration,
        stats: Arc<ServeStats>,
    ) -> std::io::Result<std::thread::JoinHandle<()>> {
        let plane = Arc::clone(self);
        std::thread::Builder::new()
            .name("cgnn-serve-watch".to_string())
            .spawn(move || {
                let tick = Duration::from_millis(25).min(poll);
                let mut slept = Duration::ZERO;
                while !plane.shared.shutdown.load(Ordering::Acquire) {
                    std::thread::sleep(tick);
                    slept += tick;
                    if slept < poll {
                        continue;
                    }
                    slept = Duration::ZERO;
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
        let out = plane.reload().expect("reload");
        assert!(!out.reloaded);
        assert_eq!(out.step, 0);
        assert_eq!(plane.shared().generation.load(Ordering::Acquire), 1);
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
        assert_eq!(plane.shared().model_step.load(Ordering::Acquire), 3);
        let again = plane.reload().expect("reload");
        assert!(!again.reloaded, "same checkpoint must not republish");

        cgnn_tensor::save_checkpoint(
            &trainer.params,
            &trainer.opt.state(),
            policy.path_for_step(5),
        )
        .expect("save");
        let newer = plane.reload().expect("reload");
        assert!(newer.reloaded);
        assert_eq!(newer.step, 5);
        assert_eq!(plane.shared().generation.load(Ordering::Acquire), 3);
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
