//! The serving data plane: a bounded request queue drained by a pool of
//! warm model replicas, on one rule — **a request waits only for a busy
//! replica**, never for a timer.
//!
//! Each replica owns a persistent [`Trainer`] on the single-rank
//! [`LoopbackBackend`] (steady-state tape workspace included, so serving
//! draws recycled buffers exactly like training does). An idle replica
//! claims the oldest queued request the moment there is one, runs it as
//! one [`Trainer::predict`] on the served graph and replies as the pass
//! ends. Requests therefore pile up only while every replica is busy, and
//! a claim is one request, so no replica hoards a queue another could be
//! serving. An idle replica is parked in the queue's `recv` and nowhere
//! else: it installs the published parameters when it starts and, after
//! that, when a request it claimed finds the control plane's slot changed.
//!
//! Backpressure is structural: the queue is a `sync_channel(queue_cap)`
//! and the HTTP layer uses `try_send`, so a saturated pool answers `503`
//! immediately instead of buffering unboundedly.

use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use cgnn_comm::LoopbackBackend;
use cgnn_core::{GnnConfig, HaloContext, RankData, Trainer};
use cgnn_graph::LocalGraph;

use crate::control::{ControlPlane, Published};
use crate::stats::{record_us, ServeStats};

/// One queued inference request.
#[derive(Debug)]
pub struct PredictJob {
    /// Row-major `[n_local, NODE_FEATS]` input node features.
    pub x: Vec<f64>,
    /// When the request entered the queue (start of its `queue_us`).
    pub enqueued: Instant,
    /// Where the replica sends the reply (dropped replies mean the client
    /// went away; they are ignored).
    pub resp: mpsc::Sender<PredictReply>,
}

/// One reply from a replica.
#[derive(Debug)]
pub struct PredictReply {
    /// Row-major `[n_local, NODE_FEATS]` prediction, or a client-side error.
    pub result: Result<Vec<f64>, String>,
    /// Training step of the parameter set that served this request.
    pub model_step: u64,
}

/// Handle to the running replica pool.
#[derive(Debug)]
pub struct ReplicaPool {
    tx: SyncSender<PredictJob>,
    // Keeps the queue alive even with zero replicas (so senders observe
    // `Full`, not `Disconnected`) and hands each replica its turn at
    // claiming.
    _rx: Arc<Mutex<Receiver<PredictJob>>>,
    replicas: Vec<std::thread::JoinHandle<()>>,
}

impl ReplicaPool {
    /// Spawn `replicas` warm replicas draining a bounded queue of
    /// `queue_cap` requests. Zero replicas is a valid (test)
    /// configuration: the queue accepts `queue_cap` requests and then
    /// rejects.
    ///
    /// # Panics
    /// If `queue_cap` is zero.
    pub fn spawn(
        graph: Arc<LocalGraph>,
        config: GnnConfig,
        control: Arc<ControlPlane>,
        stats: Arc<ServeStats>,
        replicas: usize,
        queue_cap: usize,
    ) -> std::io::Result<ReplicaPool> {
        assert!(queue_cap > 0, "the request queue needs at least one slot");
        let (tx, rx) = mpsc::sync_channel(queue_cap);
        let rx = Arc::new(Mutex::new(rx));
        let handles = (0..replicas)
            .map(|i| {
                let graph = Arc::clone(&graph);
                let control = Arc::clone(&control);
                let stats = Arc::clone(&stats);
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("cgnn-serve-rep{i}"))
                    .spawn(move || replica_loop(graph, config, control, stats, rx))
            })
            .collect::<std::io::Result<_>>()?;
        Ok(ReplicaPool {
            tx,
            _rx: rx,
            replicas: handles,
        })
    }

    /// Clone of the bounded submission side of the queue.
    pub fn sender(&self) -> SyncSender<PredictJob> {
        self.tx.clone()
    }

    /// Drop the submission side and join every replica. Queued requests
    /// are still served before the replicas exit (graceful drain).
    ///
    /// # Panics
    /// If a replica panicked.
    #[expect(
        clippy::expect_used,
        reason = "a panicked replica makes joining it panic, as `# Panics` says"
    )]
    pub fn shutdown(self) {
        drop(self.tx);
        drop(self._rx);
        for handle in self.replicas {
            handle.join().expect("a serve replica thread panicked");
        }
    }
}

fn replica_loop(
    graph: Arc<LocalGraph>,
    config: GnnConfig,
    control: Arc<ControlPlane>,
    stats: Arc<ServeStats>,
    rx: Arc<Mutex<Receiver<PredictJob>>>,
) {
    let ctx = HaloContext::single(LoopbackBackend::comm());
    let mut trainer = Trainer::new(config, 0, 1e-3, ctx);
    let mut installed = control.published();
    install(&mut trainer, &installed);
    loop {
        // The queue lock is held only while claiming, never over a pass.
        let claimed = rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
        // `Err` is only reported once the buffered queue is empty and
        // every sender is gone (std mpsc drains stragglers first), so this
        // is a clean graceful-drain exit: every accepted request was served.
        let Ok(job) = claimed else {
            return;
        };
        stats.update(|s| s.queue_depth -= 1);
        // Install what is published now, before the pass and never mid-pass,
        // so each request is served by exactly one parameter set and by the
        // newest one published before it was claimed.
        let published = control.published();
        if !Arc::ptr_eq(&published, &installed) {
            install(&mut trainer, &published);
            installed = published;
        }
        serve_pass(&trainer, &graph, &stats, job, installed.model_step());
    }
}

fn install(trainer: &mut Trainer, published: &Published) {
    #[expect(
        clippy::expect_used,
        reason = "the control plane checks every checkpoint against this architecture before it publishes one"
    )]
    cgnn_tensor::restore_into(&mut trainer.params, &published.params)
        .expect("published parameters no longer match the served architecture");
}

/// Run one request as one forward pass on the served graph and send it
/// its rows.
fn serve_pass(
    trainer: &Trainer,
    graph: &Arc<LocalGraph>,
    stats: &ServeStats,
    job: PredictJob,
    model_step: u64,
) {
    let claimed = Instant::now();
    let queued_us = (claimed - job.enqueued).as_micros() as u64;
    stats.update(|s| record_us(&mut s.queue_hist, queued_us));
    let expect_rows = graph.n_local() * cgnn_graph::NODE_FEATS;
    // Malformed frames were already rejected by the HTTP layer; a length
    // mismatch here means the caller bypassed it, so answer an error
    // rather than run the pass.
    let result = if job.x.len() != expect_rows {
        Err(format!(
            "expected {expect_rows} feature values, got {}",
            job.x.len()
        ))
    } else {
        stats.update(|s| s.batches += 1);
        let y = trainer.predict(&RankData::for_inference(Arc::clone(graph), job.x));
        // Recorded ahead of the send, so that whoever has the reply also
        // finds it counted.
        let forward_us = claimed.elapsed().as_micros() as u64;
        stats.update(|s| record_us(&mut s.forward_hist, forward_us));
        Ok(y.into_vec())
    };
    // A dropped receiver means the client disconnected mid-flight; nothing
    // to do.
    let _ = job.resp.send(PredictReply { result, model_step });
}
