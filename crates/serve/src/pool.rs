//! The serving data plane: a bounded request queue drained by a pool of
//! warm model replicas, on one rule — **a request waits only for a busy
//! replica**, never for a timer or for a wider batch.
//!
//! Each replica owns a persistent [`Trainer`] on the single-rank
//! [`LoopbackBackend`] (steady-state tape workspace included, so serving
//! draws recycled buffers exactly like training does). An idle replica
//! claims what is queued the moment anything is (at least one request, at
//! most [`stack_limit`]), runs the claim as **one** forward pass and
//! replies as the pass ends. Requests therefore pile up only while every
//! replica is busy, and a claim never takes more than one pass can use, so
//! no replica hoards a queue another could be serving.
//!
//! How many requests a pass stacks is a function of the served shape, not
//! a setting: stacking amortizes per-pass fixed cost, which pays on a mesh
//! small enough that the stacked intermediates stay in cache and costs
//! time once they do not ([`stack_limit`] has the numbers). A stacked
//! pass ([`Trainer::predict_batch`]) is bit-identical per request to
//! singleton passes, so the choice is only ever about time.
//!
//! Backpressure is structural: the queue is a `sync_channel(queue_cap)`
//! and the HTTP layer uses `try_send`, so a saturated pool answers `503`
//! immediately instead of buffering unboundedly.

use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cgnn_comm::LoopbackBackend;
use cgnn_core::{GnnConfig, HaloContext, RankData, Trainer};
use cgnn_graph::LocalGraph;

use crate::control::ControlShared;
use crate::stats::ServeStats;

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
    /// Row-major `[n_local, node_out]` prediction, or a client-side error.
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

/// How long an idle replica waits on the queue before re-checking the
/// published parameter generation.
const IDLE_TICK: Duration = Duration::from_millis(50);

/// Bytes of edge-MLP input one pass may hold: half the 2 MiB private L2
/// of the reference box's cores (and all of the L2 of the server cores
/// before them).
const STACK_BUDGET_BYTES: usize = 1 << 20;

/// Requests one forward pass stacks on a graph of `n_edges` edges at
/// hidden width `hidden`: as many as keep the stacked edge-MLP input —
/// `[n_edges, 3 * hidden]` `f64`s per sample, the widest tensor of a pass,
/// rebuilt by every message-passing layer — within 1 MiB (half an L2), at
/// least 1 and at most `max_batch`. A pure function of the shape;
/// predictions are the same bits at every value.
///
/// On the 1-element, 108-edge mesh (20 KiB per sample, small model) that
/// is the whole default `max_batch` of 32: per-pass overhead dominates a
/// 27-node pass. On the default 4³ mesh (3 888 edges, 729 KiB per
/// sample) it is 1: measured on the reference box a stacked
/// pass of 8 costs 4.7 ms per sample against 4.1 ms for singleton passes,
/// because its intermediates leave L2, and each stacked size ever run
/// keeps a union graph and buffer set (13 MB per stacked sample) resident.
pub fn stack_limit(n_edges: usize, hidden: usize, max_batch: usize) -> usize {
    let per_sample = n_edges * 3 * hidden * std::mem::size_of::<f64>();
    (STACK_BUDGET_BYTES / per_sample.max(1)).clamp(1, max_batch.max(1))
}

impl ReplicaPool {
    /// Spawn `replicas` warm replicas draining a bounded queue of
    /// `queue_cap` requests, each pass stacking at most
    /// [`stack_limit`]`(.., max_batch)` of them. Zero replicas is a valid
    /// (test) configuration: the queue accepts `queue_cap` requests and
    /// then rejects.
    pub fn spawn(
        graph: Arc<LocalGraph>,
        config: GnnConfig,
        shared: Arc<ControlShared>,
        stats: Arc<ServeStats>,
        replicas: usize,
        max_batch: usize,
        queue_cap: usize,
    ) -> ReplicaPool {
        assert!(queue_cap > 0, "the request queue needs at least one slot");
        assert!(max_batch > 0, "a pass serves at least one request");
        let (tx, rx) = mpsc::sync_channel(queue_cap);
        let rx = Arc::new(Mutex::new(rx));
        let handles = (0..replicas)
            .map(|i| {
                let graph = Arc::clone(&graph);
                let shared = Arc::clone(&shared);
                let stats = Arc::clone(&stats);
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("cgnn-serve-rep{i}"))
                    .spawn(move || replica_loop(graph, config, shared, stats, rx, max_batch))
                    .expect("failed to spawn a serve replica thread")
            })
            .collect();
        ReplicaPool {
            tx,
            _rx: rx,
            replicas: handles,
        }
    }

    /// Clone of the bounded submission side of the queue.
    pub fn sender(&self) -> SyncSender<PredictJob> {
        self.tx.clone()
    }

    /// Drop the submission side and join every replica. Queued requests
    /// are still served before the replicas exit (graceful drain).
    pub fn shutdown(self) {
        drop(self.tx);
        drop(self._rx);
        for handle in self.replicas {
            handle.join().expect("a serve replica thread panicked");
        }
    }
}

/// Claim one pass's worth of work: block for the first job (bounded by
/// [`IDLE_TICK`] so the parameter generation stays fresh), then take what
/// else is already queued, up to `limit` jobs in all — without waiting for
/// any of it. Returns `(jobs, disconnected)`.
fn claim(rx: &Mutex<Receiver<PredictJob>>, limit: usize) -> (Vec<PredictJob>, bool) {
    let rx = rx.lock().expect("serve queue mutex poisoned");
    let first = match rx.recv_timeout(IDLE_TICK) {
        Ok(job) => job,
        Err(RecvTimeoutError::Timeout) => return (Vec::new(), false),
        Err(RecvTimeoutError::Disconnected) => return (Vec::new(), true),
    };
    let mut jobs = vec![first];
    // An empty and a disconnected queue end the claim alike; the next
    // turn's blocking receive tells them apart.
    while jobs.len() < limit {
        match rx.try_recv() {
            Ok(job) => jobs.push(job),
            Err(_) => break,
        }
    }
    (jobs, false)
}

fn replica_loop(
    graph: Arc<LocalGraph>,
    config: GnnConfig,
    shared: Arc<ControlShared>,
    stats: Arc<ServeStats>,
    rx: Arc<Mutex<Receiver<PredictJob>>>,
    max_batch: usize,
) {
    let ctx = HaloContext::single(LoopbackBackend::comm());
    let mut trainer = Trainer::new(config, 0, 1e-3, ctx);
    let mut generation = 0u64; // behind the initial publication: installs on entry
    let mut model_step = 0u64;
    let limit = stack_limit(graph.n_edges(), config.hidden, max_batch);
    loop {
        // Install newly published parameters between passes — never
        // mid-pass, so each request is served by exactly one parameter
        // set.
        let published = shared.generation.load(Ordering::Acquire);
        if published != generation {
            let params = shared.current_params();
            cgnn_tensor::restore_into(&mut trainer.params, &params)
                .expect("published parameters no longer match the served architecture");
            generation = published;
            model_step = shared.model_step.load(Ordering::Acquire);
        }

        let (jobs, disconnected) = claim(&rx, limit);
        if !jobs.is_empty() {
            stats
                .queue_depth
                .fetch_sub(jobs.len() as u64, Ordering::Relaxed);
            stats.record_batch(jobs.len());
            serve_pass(&trainer, &graph, &stats, jobs, model_step);
        }
        // `Disconnected` is only reported once the buffered queue is
        // empty (std mpsc drains stragglers first), so this is a clean
        // graceful-drain exit: every accepted request was served.
        if disconnected {
            return;
        }
    }
}

/// Run one claim as one forward pass and send each request its rows.
fn serve_pass(
    trainer: &Trainer,
    graph: &Arc<LocalGraph>,
    stats: &ServeStats,
    jobs: Vec<PredictJob>,
    model_step: u64,
) {
    let claimed = Instant::now();
    let expect_rows = graph.n_local() * cgnn_graph::NODE_FEATS;
    // Malformed frames were already rejected by the HTTP layer; a length
    // mismatch here means the caller bypassed it, so answer per-request
    // errors rather than poisoning the whole pass.
    let mut data = Vec::with_capacity(jobs.len());
    let mut senders = Vec::with_capacity(jobs.len());
    for job in jobs {
        stats.record_queue_us((claimed - job.enqueued).as_micros() as u64);
        if job.x.len() != expect_rows {
            let _ = job.resp.send(PredictReply {
                result: Err(format!(
                    "expected {expect_rows} feature values, got {}",
                    job.x.len()
                )),
                model_step,
            });
            continue;
        }
        let x = job.x;
        data.push(RankData::new(Arc::clone(graph), x.clone(), x));
        senders.push(job.resp);
    }
    if data.is_empty() {
        return;
    }
    // A single sample runs on the base graph (`predict_batch` hands it to
    // `Trainer::predict`); only a wider claim builds a union graph.
    let refs: Vec<&RankData> = data.iter().collect();
    let outputs = trainer.predict_batch(&refs);
    for (sender, out) in senders.into_iter().zip(outputs) {
        // Recorded ahead of the send, so that whoever has the reply also
        // finds it counted.
        stats.record_forward_us(claimed.elapsed().as_micros() as u64);
        // A dropped receiver means the client disconnected mid-flight;
        // nothing to do.
        let _ = sender.send(PredictReply {
            result: Ok(out.into_vec()),
            model_step,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_limit_at_its_anchor_shapes() {
        let (small, large) = (GnnConfig::small().hidden, GnnConfig::large().hidden);
        // The default 4^3 order-2 mesh: 9^3 nodes, 3 888 directed edges.
        assert_eq!(stack_limit(3888, small, 32), 1);
        assert_eq!(stack_limit(3888, large, 32), 1);
        // The 1-element mesh: the whole default cap.
        assert_eq!(stack_limit(108, small, 32), 32);
        // The 2^3 mesh of the HTTP tests reaches their cap of 8, and a cap
        // of 1 turns stacking off even where passes would stack.
        assert_eq!(stack_limit(600, small, 8), 8);
        assert_eq!(stack_limit(600, small, 1), 1);
        // Never below one request, never above the cap.
        assert_eq!(stack_limit(10_000_000, large, 32), 1);
        assert_eq!(stack_limit(0, small, 4), 4);
    }
}
