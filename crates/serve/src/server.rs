//! The assembled inference server: HTTP workers in front of the replica
//! pool and control plane.
//!
//! ```text
//!             ┌──────────── control plane ────────────┐
//!             │ checkpoint watcher → validate → swap  │
//!             └───────────────┬───────────────────────┘
//!   workers (each accepts) ─ bounded queue ─ replicas (one pass per request)
//!             └── /health /info /metrics /admin/* ──→ telemetry
//! ```
//!
//! Every thread waits on the event it serves, never on a timer: a worker
//! blocks in `accept` on its own clone of the listener and then in reading
//! its connection, which has no read timeout, so a client may pause
//! anywhere in a request. [`Server::shutdown`] wakes them: it shuts the
//! read half of each live connection (the reader sees end of stream, the
//! writer still sends what is owed) and makes one no-op connection per
//! worker for those parked in `accept`.
//!
//! Connections are served with HTTP/1.1 **pipelining**, each by a reader
//! and a writer: the reader parses requests as their bytes arrive and
//! enqueues `/predict` work at once — admission never waits for an
//! earlier reply — and the writer sends responses strictly in request
//! order as replica replies settle. One streaming connection can
//! therefore keep a replica busy back to back — the bulk-query shape of a
//! solver process driving the surrogate.
//!
//! See `docs/SERVING.md` for the architecture and the endpoint reference.

use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cgnn_core::config as knobs;
use cgnn_core::GnnConfig;
use cgnn_graph::{build_global_graph, LocalGraph, NODE_FEATS};
use cgnn_mesh::BoxMesh;

use crate::control::ControlPlane;
use crate::http::{self, ReadOutcome, Request, Response};
use crate::pool::{PredictJob, PredictReply, ReplicaPool};
use crate::stats::{record_us, ServeStats};

/// Complete serving configuration. [`ServeConfig::from_env`] reads every
/// field from the registered `CGNN_SERVE_*` knobs; tests and benches
/// override fields directly.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Warm replica count.
    pub replicas: usize,
    /// Read by nothing: every forward pass serves one request. Kept only
    /// because the frozen `sysbench` still sets it; ROADMAP item 1a (the
    /// sysbench re-baseline) removes both sides.
    pub max_batch: usize,
    /// Bounded request-queue capacity.
    pub queue_cap: usize,
    /// Checkpoint poll period in milliseconds (at least 1).
    pub poll_ms: u64,
    /// Watched checkpoint directory (`None` serves seeded weights).
    pub ckpt_dir: Option<PathBuf>,
    /// Served architecture.
    pub model: GnnConfig,
    /// Preset name for `/info` (`small` / `large`).
    pub model_name: String,
    /// Elements per axis of the served mesh (GLL order fixed at 2).
    pub elems: usize,
    /// Seed for the fallback weights (and the restore probe).
    pub seed: u64,
    /// HTTP worker threads (concurrent connections served).
    pub http_workers: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".to_string(),
            replicas: 1,
            max_batch: 1,
            queue_cap: 256,
            poll_ms: 500,
            ckpt_dir: None,
            model: GnnConfig::small(),
            model_name: "small".to_string(),
            elems: 4,
            seed: 42,
            http_workers: 8,
        }
    }
}

impl ServeConfig {
    /// Read the configuration from the registered `CGNN_SERVE_*` knobs,
    /// with the documented defaults for unset variables.
    ///
    /// # Panics
    ///
    /// When a knob is set to a value it cannot take (see
    /// [`knobs::EnvKnob::usize_or`]), or `CGNN_SERVE_MODEL` names no
    /// preset: a mistyped value must not silently serve the default.
    pub fn from_env() -> Self {
        let defaults = ServeConfig::default();
        let model_name = knobs::CGNN_SERVE_MODEL.string_or(&defaults.model_name);
        let model = match model_name.as_str() {
            "small" => GnnConfig::small(),
            "large" => GnnConfig::large(),
            #[expect(
                clippy::panic,
                reason = "config error at startup: a mistyped preset fails loudly, naming the knob, rather than serving the small model under the mistyped name"
            )]
            other => panic!(
                "{} must be `small` or `large`, got `{other}`",
                knobs::CGNN_SERVE_MODEL.name
            ),
        };
        ServeConfig {
            addr: knobs::CGNN_SERVE_ADDR.string_or(&defaults.addr),
            replicas: knobs::CGNN_SERVE_REPLICAS.usize_or(defaults.replicas),
            queue_cap: knobs::CGNN_SERVE_QUEUE_CAP.usize_or(defaults.queue_cap),
            poll_ms: knobs::CGNN_SERVE_POLL_MS.usize_or(defaults.poll_ms as usize) as u64,
            ckpt_dir: knobs::CGNN_SERVE_CKPT_DIR.lookup().map(PathBuf::from),
            model,
            model_name,
            elems: knobs::CGNN_SERVE_ELEMS.usize_or(defaults.elems),
            ..defaults
        }
    }
}

/// The running server. Dropping the handle does **not** stop it serving,
/// though it ends the checkpoint watcher, whose stop signal it holds; call
/// [`Server::shutdown`] for a graceful stop or [`Server::join`] to serve
/// until the process dies.
pub struct Server {
    addr: SocketAddr,
    graph: Arc<LocalGraph>,
    control: Arc<ControlPlane>,
    stats: Arc<ServeStats>,
    /// Each HTTP worker and the slot holding a clone of the connection it
    /// is serving, through which shutdown wakes its reader.
    workers: Vec<(JoinHandle<()>, LiveConn)>,
    /// The checkpoint watcher and the sender whose drop stops it.
    watcher: Option<(mpsc::Sender<()>, JoinHandle<()>)>,
    pool: Option<ReplicaPool>,
    config: ServeConfig,
}

/// The connection a worker is serving, if any.
type LiveConn = Arc<Mutex<Option<TcpStream>>>;

/// Everything one HTTP worker needs to route requests.
struct Router {
    graph: Arc<LocalGraph>,
    control: Arc<ControlPlane>,
    stats: Arc<ServeStats>,
    pool_tx: mpsc::SyncSender<PredictJob>,
    config: ServeConfig,
}

impl Server {
    /// Build the served graph, load/validate initial parameters, and
    /// start every thread. Returns once the listener is bound (the
    /// actual address is [`Server::addr`]); a zero `elems`, `queue_cap` or
    /// `poll_ms` is an [`InvalidInput`](std::io::ErrorKind::InvalidInput)
    /// error naming the field. The address is bound before any thread
    /// starts, and a later error stops every thread started before it
    /// returns.
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        for (field, knob, zero) in [
            ("elems", knobs::CGNN_SERVE_ELEMS, config.elems == 0),
            (
                "queue_cap",
                knobs::CGNN_SERVE_QUEUE_CAP,
                config.queue_cap == 0,
            ),
            ("poll_ms", knobs::CGNN_SERVE_POLL_MS, config.poll_ms == 0),
        ] {
            if zero {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("{field} ({}) must be at least 1, got 0", knob.name),
                ));
            }
        }
        // Bind before any thread starts, so a taken address fails with
        // nothing to stop.
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let mesh = BoxMesh::new(
            (config.elems, config.elems, config.elems),
            2,
            (1.0, 1.0, 1.0),
            false,
        );
        let graph = Arc::new(build_global_graph(&mesh));
        let stats = Arc::new(ServeStats::default());
        let control = Arc::new(ControlPlane::new(
            config.model,
            config.seed,
            config.ckpt_dir.clone(),
        )?);
        let pool = ReplicaPool::spawn(
            Arc::clone(&graph),
            config.model,
            Arc::clone(&control),
            Arc::clone(&stats),
            config.replicas,
            config.queue_cap,
        )?;
        let pool_tx = pool.sender();
        let mut server = Server {
            addr,
            graph,
            control,
            stats,
            workers: Vec::new(),
            watcher: None,
            pool: Some(pool),
            config,
        };
        match server.spawn_threads(listener, pool_tx) {
            Ok(()) => Ok(server),
            Err(e) => {
                server.shutdown();
                Err(e)
            }
        }
    }

    /// Start the checkpoint watcher (when a directory is watched) and the
    /// HTTP workers, each accepting on its own clone of `listener`,
    /// recording each as it starts.
    fn spawn_threads(
        &mut self,
        listener: TcpListener,
        pool_tx: mpsc::SyncSender<PredictJob>,
    ) -> std::io::Result<()> {
        if self.config.ckpt_dir.is_some() {
            let poll = Duration::from_millis(self.config.poll_ms);
            let (stop_tx, stop_rx) = mpsc::channel();
            let watcher = self
                .control
                .spawn_watcher(poll, Arc::clone(&self.stats), stop_rx)?;
            self.watcher = Some((stop_tx, watcher));
        }
        for i in 0..self.config.http_workers.max(1) {
            let router = Router {
                graph: Arc::clone(&self.graph),
                control: Arc::clone(&self.control),
                stats: Arc::clone(&self.stats),
                pool_tx: pool_tx.clone(),
                config: self.config.clone(),
            };
            let listener = listener.try_clone()?;
            let live = LiveConn::default();
            let slot = Arc::clone(&live);
            let worker = std::thread::Builder::new()
                .name(format!("cgnn-serve-http{i}"))
                .spawn(move || worker_loop(&router, &listener, &slot))?;
            self.workers.push((worker, live));
        }
        Ok(())
    }

    /// The bound listen address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Local rows (= nodes) of the served graph: `/predict` frames carry
    /// `n_local() * NODE_FEATS` little-endian `f64` values.
    pub fn n_local(&self) -> usize {
        self.graph.n_local()
    }

    /// The configuration this server was started with.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Live serving telemetry.
    pub fn stats(&self) -> Arc<ServeStats> {
        Arc::clone(&self.stats)
    }

    /// Trigger one synchronous control-plane reload scan (what
    /// `POST /admin/reload` does).
    pub fn reload(&self) -> std::io::Result<crate::control::ReloadOutcome> {
        self.control.reload()
    }

    /// Block the calling thread until the HTTP workers exit (i.e.
    /// forever, for a server that is never shut down).
    ///
    /// # Panics
    /// If an HTTP worker thread panicked.
    #[expect(
        clippy::expect_used,
        reason = "a panicked server thread makes joining it panic, as `# Panics` says"
    )]
    pub fn join(mut self) {
        for (worker, _) in self.workers.drain(..) {
            worker.join().expect("an HTTP worker thread panicked");
        }
    }

    /// Graceful shutdown: stop accepting, refuse new `/predict` work,
    /// answer every request already read, serve everything already
    /// queued, then join every thread.
    ///
    /// # Panics
    /// If a server thread panicked.
    #[expect(
        clippy::expect_used,
        reason = "a panicked server thread makes joining it panic, as `# Panics` says"
    )]
    pub fn shutdown(mut self) {
        self.control.draining.store(true, Ordering::Release);
        self.control.shutdown.store(true, Ordering::Release);
        // A reader parked on its connection sees end of stream; the write
        // half stays open for the responses it owes. A worker that takes
        // a connection after this sees the flag once it has filled its
        // slot, so none is missed.
        for (_, live) in &self.workers {
            if let Some(conn) = &*live.lock().unwrap_or_else(PoisonError::into_inner) {
                let _ = conn.shutdown(Shutdown::Read);
            }
        }
        // One no-op connection per worker wakes those parked in `accept`.
        for _ in &self.workers {
            let _ = TcpStream::connect(self.addr);
        }
        // Drain and stop the replicas first: any writer blocked on a
        // reply either receives it (queued request) or observes the
        // reply channel disconnect (request dropped with the queue).
        if let Some(pool) = self.pool.take() {
            pool.shutdown();
        }
        for (worker, _) in self.workers.drain(..) {
            worker.join().expect("an HTTP worker thread panicked");
        }
        if let Some((stop, watcher)) = self.watcher.take() {
            drop(stop);
            watcher.join().expect("the checkpoint watcher panicked");
        }
    }
}

/// Serve connections one at a time until shutdown, each as it is accepted
/// on this worker's clone of the listener.
fn worker_loop(router: &Router, listener: &TcpListener, live: &Mutex<Option<TcpStream>>) {
    let shutdown = || router.control.shutdown.load(Ordering::Acquire);
    while !shutdown() {
        let Ok((stream, _)) = listener.accept() else {
            continue;
        };
        let Ok(peer) = stream.try_clone() else {
            continue;
        };
        *live.lock().unwrap_or_else(PoisonError::into_inner) = Some(peer);
        // Checked after the slot is filled: either shutdown finds this
        // connection there, or this sees its flag.
        if shutdown() {
            return;
        }
        // Per-connection setup failures just drop the connection.
        let _ = handle_connection(router, stream);
        *live.lock().unwrap_or_else(PoisonError::into_inner) = None;
    }
}

/// Cap on responses owed to one connection: the reader stops admitting at
/// this many unanswered requests (the channel to the writer is full) and
/// resumes as the writer retires them, which bounds the reply backlog a
/// single connection can hold open.
const MAX_PIPELINE: usize = 256;

/// One response owed to the connection, in request order.
enum Pending {
    /// Computed inline (every endpoint except an accepted `/predict`).
    Ready(Response),
    /// An accepted `/predict`: the reply is in flight from a replica.
    /// The `Instant` is the enqueue time, for the latency histogram.
    InFlight(mpsc::Receiver<PredictReply>, Instant),
}

/// A [`Pending`] response and whether the connection stays open after it.
type Owed = (Pending, bool);

/// Serve one connection with HTTP/1.1 pipelining, as two threads joined
/// by a channel of [`MAX_PIPELINE`] owed responses: this one reads and
/// admits, a scoped writer answers in request order. A request is
/// therefore queued for the replicas when it reaches the socket, whatever
/// replies the connection is still owed.
#[expect(
    clippy::expect_used,
    reason = "a panicking writer fails the connection's thread scope either way"
)]
fn handle_connection(router: &Router, stream: TcpStream) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    let writer = BufWriter::new(stream.try_clone()?);
    let mut reader = BufReader::new(stream);
    let (owed_tx, owed_rx) = mpsc::sync_channel::<Owed>(MAX_PIPELINE);
    std::thread::scope(|scope| {
        let write_side = std::thread::Builder::new()
            .name("cgnn-serve-write".to_string())
            .spawn_scoped(scope, move || write_responses(router, writer, owed_rx))?;
        admit_requests(router, &mut reader, owed_tx);
        write_side
            .join()
            .expect("a connection writer thread panicked")
    })
}

/// The read side of a connection: parse each request as its bytes arrive,
/// route it (which enqueues `/predict` work) and hand what it is owed to
/// the writer. Returns — dropping `owed`, which lets the writer finish —
/// when the peer closes or asks to, on a malformed request, on shutdown
/// (which ends the read half), or when the writer is gone.
fn admit_requests(
    router: &Router,
    reader: &mut BufReader<TcpStream>,
    owed: mpsc::SyncSender<Owed>,
) {
    loop {
        let (pending, keep) = match http::read_request(reader) {
            Ok(ReadOutcome::Request(req)) => (route(router, &req), !req.wants_close()),
            Ok(ReadOutcome::Closed) => return,
            Err(e) => {
                let resp = Response::json(400, format!("{{ \"error\": \"{e}\" }}\n"));
                (Pending::Ready(resp), false)
            }
        };
        // Blocks while MAX_PIPELINE responses are owed; fails once the
        // writer has stopped (the peer no longer reads).
        if owed.send((pending, keep)).is_err() || !keep {
            return;
        }
    }
}

/// The write side of a connection: answer in request order, waiting on
/// each in-flight reply in turn. Responses that are already settled when
/// their turn comes share one buffered write; the buffer is flushed before
/// every wait and when the reader is done.
fn write_responses(
    router: &Router,
    mut writer: BufWriter<TcpStream>,
    owed: mpsc::Receiver<Owed>,
) -> std::io::Result<()> {
    while let Some((pending, keep)) = recv_flushing(&owed, &mut writer)? {
        let resp = match pending {
            Pending::Ready(resp) => resp,
            Pending::InFlight(reply, enqueued) => match recv_flushing(&reply, &mut writer)? {
                Some(reply) => finish_predict(router, reply, enqueued),
                None => pool_gone(router),
            },
        };
        http::write_response(&mut writer, &resp, keep)?;
        if !keep {
            break;
        }
    }
    writer.flush()
}

/// The next value of `rx`, or `None` once its sender is gone; `writer` is
/// flushed first if the value is not there yet, so that the peer is never
/// kept waiting for bytes this side is holding while it waits itself.
fn recv_flushing<T>(
    rx: &mpsc::Receiver<T>,
    writer: &mut BufWriter<TcpStream>,
) -> std::io::Result<Option<T>> {
    match rx.try_recv() {
        Ok(value) => Ok(Some(value)),
        Err(mpsc::TryRecvError::Disconnected) => Ok(None),
        Err(mpsc::TryRecvError::Empty) => {
            writer.flush()?;
            Ok(rx.recv().ok())
        }
    }
}

fn finish_predict(router: &Router, reply: PredictReply, enqueued: Instant) -> Response {
    let stats = &router.stats;
    match reply.result {
        Ok(y) => {
            let us = enqueued.elapsed().as_micros() as u64;
            stats.update(|s| {
                s.predict_ok += 1;
                record_us(&mut s.lat_hist, us);
            });
            Response::octets(200, http::encode_f64(&y))
                .with_header("X-Model-Step", reply.model_step.to_string())
        }
        Err(msg) => {
            stats.update(|s| s.bad_request += 1);
            Response::json(400, format!("{{ \"error\": \"{msg}\" }}\n"))
        }
    }
}

/// The replica pool disappeared mid-flight (hard shutdown).
fn pool_gone(router: &Router) -> Response {
    router.stats.update(|s| s.predict_failed += 1);
    Response::json(500, "{ \"error\": \"replica pool gone\" }\n".to_string())
}

fn route(router: &Router, req: &Request) -> Pending {
    let stats = &router.stats;
    let resp = match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/health") => {
            stats.update(|s| s.health += 1);
            let draining = router.control.draining.load(Ordering::Acquire);
            Response::json(
                200,
                format!("{{ \"ok\": true, \"draining\": {draining} }}\n"),
            )
        }
        ("GET", "/info") => {
            stats.update(|s| s.info += 1);
            info_response(router)
        }
        ("GET", "/metrics") => {
            stats.update(|s| s.metrics += 1);
            Response::json(200, stats.snapshot().to_json())
        }
        ("POST", "/predict") => return predict(router, req),
        ("POST", "/admin/reload") => {
            stats.update(|s| s.admin_reload += 1);
            match router.control.reload() {
                Ok(out) => {
                    if out.reloaded {
                        stats.update(|s| s.reloads_applied += 1);
                    }
                    Response::json(
                        200,
                        format!(
                            "{{ \"reloaded\": {}, \"step\": {} }}\n",
                            out.reloaded, out.step
                        ),
                    )
                }
                Err(e) => {
                    stats.update(|s| s.reload_errors += 1);
                    Response::json(500, format!("{{ \"error\": \"{e}\" }}\n"))
                }
            }
        }
        ("POST", "/admin/drain") => {
            stats.update(|s| s.admin_drain += 1);
            router.control.draining.store(true, Ordering::Release);
            Response::json(200, "{ \"draining\": true }\n".to_string())
        }
        (_, "/health" | "/info" | "/metrics" | "/predict" | "/admin/reload" | "/admin/drain") => {
            stats.update(|s| s.not_found += 1);
            Response::json(405, "{ \"error\": \"method not allowed\" }\n".to_string())
        }
        _ => {
            stats.update(|s| s.not_found += 1);
            Response::json(404, "{ \"error\": \"no such endpoint\" }\n".to_string())
        }
    };
    Pending::Ready(resp)
}

fn info_response(router: &Router) -> Response {
    let g = &router.graph;
    let step = router.control.published().model_step();
    let body = format!(
        concat!(
            "{{\n",
            "  \"model\": \"{}\",\n",
            "  \"model_step\": {},\n",
            "  \"elems\": {},\n",
            "  \"n_nodes\": {},\n",
            "  \"n_edges\": {},\n",
            "  \"node_feats\": {},\n",
            "  \"node_out\": {},\n",
            "  \"replicas\": {}\n",
            "}}\n",
        ),
        router.config.model_name,
        step,
        router.config.elems,
        g.n_local(),
        g.n_edges(),
        NODE_FEATS,
        NODE_FEATS,
        router.config.replicas,
    );
    // Machine-readable copies in headers: clients size their raw `f64`
    // frames (served ≡ in-process, bit for bit) from these, not the body.
    Response::json(200, body)
        .with_header("X-N-Nodes", router.graph.n_local().to_string())
        .with_header("X-Node-Feats", NODE_FEATS.to_string())
        .with_header("X-Model-Step", step.to_string())
}

/// Validate and enqueue a `/predict` request. Acceptance is decided here
/// (backpressure, draining, frame validation); the forward pass settles
/// later, in request order, at the connection's writer.
fn predict(router: &Router, req: &Request) -> Pending {
    let stats = &router.stats;
    if router.control.draining.load(Ordering::Acquire) {
        stats.update(|s| s.predict_rejected += 1);
        return Pending::Ready(
            Response::json(503, "{ \"error\": \"draining\" }\n".to_string())
                .with_header("Retry-After", "1".to_string()),
        );
    }
    let expect = router.graph.n_local() * NODE_FEATS;
    let x = match http::decode_f64(&req.body) {
        Some(x) if x.len() == expect => x,
        _ => {
            stats.update(|s| s.bad_request += 1);
            return Pending::Ready(Response::json(
                400,
                format!(
                    "{{ \"error\": \"body must be {expect} little-endian f64 values ({} bytes)\" }}\n",
                    expect * 8
                ),
            ));
        }
    };
    let enqueued = Instant::now();
    let (resp_tx, resp_rx) = mpsc::channel();
    let job = PredictJob {
        x,
        enqueued,
        resp: resp_tx,
    };
    stats.update(|s| s.queue_depth += 1);
    match router.pool_tx.try_send(job) {
        Ok(()) => Pending::InFlight(resp_rx, enqueued),
        Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
            stats.update(|s| {
                s.queue_depth -= 1;
                s.predict_rejected += 1;
            });
            Pending::Ready(
                Response::json(503, "{ \"error\": \"queue full\" }\n".to_string())
                    .with_header("Retry-After", "1".to_string()),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "CGNN_SERVE_MODEL must be `small` or `large`, got `big`")]
    fn from_env_rejects_an_unknown_model_preset_by_name() {
        // No other test in this binary reads the knob, so setting it races
        // with nothing.
        std::env::set_var(knobs::CGNN_SERVE_MODEL.name, "big");
        ServeConfig::from_env();
    }
}
