//! The serve workload: an in-process `Server` and one load generator with
//! two connections, alternating open-loop segments (latency) and pipelined
//! saturation segments (throughput). Every response is compared bit for
//! bit with in-process `Trainer::predict`.

use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cgnn_comm::LoopbackBackend;
use cgnn_core::{HaloContext, RankData, Trainer};
use cgnn_graph::{build_global_graph, node_velocity_features};
use cgnn_serve::http::encode_f64;
use cgnn_serve::{HttpClient, ServeConfig, Server};

use crate::host;
use crate::workload::{arrival_schedule, field, sample_time, shape, SERVE};

/// Generator connections (one thread each).
pub const CONNECTIONS: usize = 2;
/// The served `max_batch`: 8, not the default 32. A stacked pass of 32
/// works on 38 MB tensors, 600 MB in all, and how fast that goes on the
/// shared box changes by half from one minute to the next in a way no
/// reference kernel followed (batch time over reference reading averaged
/// 27 in one run and 40 in the next, ten segments each); passes of 8 track
/// the reference to a few percent, and saturate at the same ~180 req/s.
pub const MAX_BATCH: usize = 8;
/// Requests each connection keeps in flight at saturation: three
/// micro-batches over both connections. A connection's worker admits what
/// is already in its socket and then waits for the oldest reply it owes,
/// so what a client sends in answer to one batch is admitted when the next
/// batch is answered. With three batches in flight the batch after that is
/// then queued whole before the replica looks for it; with two it is being
/// admitted while the replica collects, and one batch in fifty closed
/// short of `max_batch`.
const PIPELINE_DEPTH: usize = 3 * MAX_BATCH / CONNECTIONS;
/// Full micro-batches of a saturation segment: ~0.45 s on the reference
/// box. The host often changes speed within a second, and the readings
/// around a segment must speak for it.
const SAT_BATCHES: usize = 10;
/// Requests of one saturation segment: a primer per connection, then the
/// batches.
pub const SAT_REQUESTS: usize = CONNECTIONS + SAT_BATCHES * MAX_BATCH;
/// How long a primer is left alone: past the server's 2 ms batch wait, so
/// that its micro-batch has closed with nothing else inside.
const PRIMER_HEAD_START: Duration = Duration::from_millis(3);
/// Arrival rate of the open-loop segments that give `latency_ms`: about a
/// quarter of what one kernel worker saturates at, so queues stay short
/// and latency is the batch wait plus one forward pass.
pub const OPEN_RATE: f64 = 50.0;
/// The higher rate `serve.latency_hi_ms` is taken at.
pub const HI_RATE: f64 = 80.0;
/// Length of one open-loop segment: 25 requests at [`OPEN_RATE`].
pub const OPEN_SEGMENT_S: f64 = 0.5;
/// Distinct request bodies cycled through.
const DISTINCT_INPUTS: usize = 8;

/// The served configuration: `ServeConfig::default()` on an ephemeral
/// port with two HTTP workers, weights seeded by `seed`.
pub fn config(seed: u64) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        http_workers: CONNECTIONS,
        max_batch: MAX_BATCH,
        seed,
        ..ServeConfig::default()
    }
}

/// Request bodies and the exact response bytes each must produce.
pub struct Fixture {
    /// Encoded `/predict` request frames.
    pub bodies: Vec<Vec<u8>>,
    /// Encoded `Trainer::predict` outputs, per body.
    pub expected: Vec<Vec<u8>>,
}

impl Fixture {
    /// Inputs for `seed`: Taylor–Green samples at seed-derived times on
    /// the served mesh, and what an in-process twin of a serving replica
    /// (`Trainer::predict` on the same seeded weights) makes of them.
    pub fn new(seed: u64) -> Fixture {
        let shape = shape(SERVE).expect("serve shape");
        let graph = Arc::new(build_global_graph(&shape.mesh()));
        let ctx = HaloContext::single(LoopbackBackend::comm());
        let trainer = Trainer::new(shape.config, seed, 1e-3, ctx);
        let field = field();
        let samples: Vec<RankData> = (0..DISTINCT_INPUTS)
            .map(|k| {
                let t = sample_time(seed) + 0.01 * k as f64;
                let x = node_velocity_features(&graph, &field, t);
                RankData::new(Arc::clone(&graph), x.clone(), x)
            })
            .collect();
        let bodies = samples.iter().map(|d| encode_f64(d.x.data())).collect();
        let expected = samples
            .iter()
            .map(|d| encode_f64(trainer.predict(d).data()))
            .collect();
        Fixture { bodies, expected }
    }

    /// Issue request `i` and report whether it was served correctly: a
    /// transport error, a refusal (503) or a wrong byte is a failed op.
    fn request(&self, client: &mut HttpClient, i: usize) -> bool {
        let k = i % self.bodies.len();
        client
            .request("POST", "/predict", &self.bodies[k])
            .is_ok_and(|r| r.status == 200 && r.body == self.expected[k])
    }
}

fn connect(addr: SocketAddr) -> HttpClient {
    HttpClient::connect_retry(addr, Duration::from_secs(10)).expect("connect to the bench server")
}

/// The generator's connections, kept open across segments.
pub fn connections(addr: SocketAddr) -> Vec<HttpClient> {
    (0..CONNECTIONS).map(|_| connect(addr)).collect()
}

/// One request of an open-loop segment, in seconds from segment start.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    /// When the schedule wanted it sent.
    pub due: f64,
    /// When the generator sent it.
    pub sent: f64,
    /// When its response was fully read.
    pub done: f64,
    /// Served with status 200 and the right bytes.
    pub ok: bool,
}

/// Open loop: request `i` is due at `due[i]` whatever happened to earlier
/// ones. A free connection takes the next arrival and holds the schedule
/// (the lock) until that arrival is due, so an arrival waits only when
/// every connection is busy. Latency is counted from the due time, so a
/// stall's cost to later requests shows; `sent - due` is how late the
/// generator ran. Returns when every response has been read.
pub fn open_segment(clients: &mut [HttpClient], fx: &Fixture, due: &[f64]) -> Vec<Stamp> {
    let next = &Mutex::new(0usize);
    let start = Instant::now();
    let mut stamps: Vec<Stamp> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                scope.spawn(move || {
                    let mut mine = Vec::with_capacity(due.len());
                    loop {
                        let i = {
                            let mut next = next.lock().expect("no generator thread panics");
                            let i = *next;
                            if i >= due.len() {
                                return mine;
                            }
                            let wait = due[i] - start.elapsed().as_secs_f64();
                            if wait > 0.0 {
                                std::thread::sleep(Duration::from_secs_f64(wait));
                            }
                            *next += 1;
                            i
                        };
                        let sent = start.elapsed().as_secs_f64();
                        let ok = fx.request(client, i);
                        mine.push(Stamp {
                            due: due[i],
                            sent,
                            done: start.elapsed().as_secs_f64(),
                            ok,
                        });
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    stamps.sort_by(|a, b| a.due.partial_cmp(&b.due).expect("due times are finite"));
    stamps
}

/// What one saturation segment found.
pub struct SatOut {
    /// Seconds from the end of each full micro-batch to the end of the
    /// next.
    pub batch_s: Vec<f64>,
    /// Requests that errored, were refused or answered wrongly.
    pub failed: u64,
}

/// Saturation: every connection sends a primer and then keeps
/// [`PIPELINE_DEPTH`] requests in flight until its share of
/// [`SAT_REQUESTS`] is sent. Responses come back a micro-batch at a time,
/// and the time from one batch's last response to the next's is the sample
/// (spans of a fixed number of completions that cut through batches
/// measure where the batch boundaries fell).
///
/// Every micro-batch after the primers is full. A replica keeps a stacked
/// graph and a set of buffers for every batch size it has ever run, so a
/// new size costs a build and memory in proportion (seconds and ~400 MB
/// for a batch of 31 under the default cap); left to chance, the batch
/// that forms while the pipelines fill has a different size on most
/// segments. So each connection sends one request, lets its
/// micro-batch close ([`PRIMER_HEAD_START`]; batches of one and two are
/// what the open-loop segments run anyway), and writes its
/// whole pipeline into the socket while the replica is busy: the worker
/// finds it there, all of it, when the primer is answered.
pub fn sat_segment(clients: &mut [HttpClient], fx: &Fixture) -> SatOut {
    let start = Instant::now();
    let per_conn: Vec<(Vec<f64>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    let quota = SAT_REQUESTS / CONNECTIONS;
                    let mut done = Vec::with_capacity(quota);
                    let (mut sent, mut failed) = (0usize, 0u64);
                    let send = |client: &mut HttpClient, sent: &mut usize| {
                        let k = (c + *sent * CONNECTIONS) % fx.bodies.len();
                        *sent += 1;
                        client
                            .send_request("POST", "/predict", &fx.bodies[k])
                            .is_ok()
                    };
                    failed += u64::from(!send(client, &mut sent));
                    std::thread::sleep(PRIMER_HEAD_START);
                    for _ in 0..PIPELINE_DEPTH {
                        failed += u64::from(!send(client, &mut sent));
                    }
                    while done.len() < sent {
                        let k = (c + done.len() * CONNECTIONS) % fx.bodies.len();
                        let ok = client
                            .read_response()
                            .is_ok_and(|r| r.status == 200 && r.body == fx.expected[k]);
                        failed += u64::from(!ok);
                        done.push(start.elapsed().as_secs_f64());
                        if sent < quota {
                            failed += u64::from(!send(client, &mut sent));
                        }
                    }
                    (done, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let failed = per_conn.iter().map(|(_, f)| f).sum();
    let mut done: Vec<f64> = per_conn.into_iter().flat_map(|(d, _)| d).collect();
    done.sort_by(|a, b| a.partial_cmp(b).expect("instants are finite"));
    // The last response of full batch `j` (from 1), after the primers.
    let batch_end = |j: usize| done[CONNECTIONS + MAX_BATCH * j - 1];
    SatOut {
        batch_s: (1..SAT_BATCHES)
            .map(|j| batch_end(j + 1) - batch_end(j))
            .collect(),
        failed,
    }
}

/// `Server::start` → first correct 200, timed; then a graceful shutdown.
/// Returns `(start_s, first_200_s)`, both from before `Server::start`.
pub fn bring_up(seed: u64, fx: &Fixture) -> (f64, f64) {
    let t = Instant::now();
    let server = Server::start(config(seed)).expect("start the bench server");
    let start_s = t.elapsed().as_secs_f64();
    let ok = fx.request(&mut connect(server.addr()), 0);
    let first_200_s = t.elapsed().as_secs_f64();
    server.shutdown();
    assert!(ok, "a fresh server answered its first request wrongly");
    (start_s, first_200_s)
}

/// What a load found. Times are on the corrected clock
/// ([`host::clock_scales`] of the reference readings around the segments).
#[derive(Default)]
pub struct LoadOut {
    /// Per open-loop rate, the latency from due time (ms) of every request.
    pub latency_ms: Vec<Vec<f64>>,
    /// How late the generator sent each request of the first rate (ms).
    pub lateness_ms: Vec<f64>,
    /// CPU milliseconds per request of each segment at the first rate.
    pub open_cpu_ms: Vec<f64>,
    /// Seconds each full micro-batch of the saturation segments took.
    pub sat_batch_s: Vec<f64>,
    /// Requests sent, all segments.
    pub attempted: u64,
    /// Requests that errored, were refused or answered wrongly.
    pub failed: u64,
    /// Requests and micro-batches of the first-rate segments.
    pub open_batches: (u64, u64),
    /// Requests and micro-batches of the saturation segments.
    pub sat_batches: (u64, u64),
    /// Requests the server refused with 503.
    pub rejected: u64,
    /// Peak resident set (KiB) after the first round: a fixed number of
    /// requests at a fixed pipeline depth, with the batch buffers in it.
    /// Every later micro-batch adds to it (the tape's pool keeps each
    /// stacked input), and a batch of a new size adds a whole buffer set.
    pub first_round_rss_kb: f64,
    /// Every first-rate request on the raw clock: seconds from load start
    /// of its segment's start, and its stamp.
    pub stamps: Vec<(f64, Stamp)>,
    /// The reference readings, one around every segment.
    pub reference_s: Vec<f64>,
}

/// Drive `server` through `rounds` rounds. A round is one open-loop
/// segment of [`OPEN_SEGMENT_S`] per rate of `rates` and one saturation
/// segment, each between two readings of the host's speed taken while
/// nothing is in flight. Every segment sends a fixed number of requests,
/// so a load is the same work on a fast host and a slow one.
pub fn load(server: &Server, fx: &Fixture, seed: u64, rounds: usize, rates: &[f64]) -> LoadOut {
    let mut clients = connections(server.addr());
    let stats = server.stats();
    let mut reference = host::Reference::new();
    let mut out = LoadOut {
        latency_ms: vec![Vec::new(); rates.len()],
        ..LoadOut::default()
    };
    let rejected0 = stats.snapshot().predict_rejected;
    let t0 = Instant::now();
    out.reference_s.push(reference.run());
    // Raw-clock results in segment order: the stamps and process CPU
    // seconds of an open-loop segment at rate `k`, or the seconds of a
    // saturation segment's batches.
    enum Segment {
        Open(usize, Vec<Stamp>, f64),
        Sat(Vec<f64>),
    }
    let mut segments = Vec::new();
    for round in 0..rounds {
        for (k, &rate) in rates.iter().enumerate() {
            let schedule_seed = seed.wrapping_mul(4096).wrapping_add(segments.len() as u64);
            let due = arrival_schedule(schedule_seed, rate, OPEN_SEGMENT_S);
            let (s0, cpu0, started) = (stats.snapshot(), host::process_cpu_s(), t0.elapsed());
            let stamps = open_segment(&mut clients, fx, &due);
            let (s1, cpu_s) = (stats.snapshot(), host::process_cpu_s() - cpu0);
            out.reference_s.push(reference.run());
            out.attempted += stamps.len() as u64;
            out.failed += stamps.iter().filter(|s| !s.ok).count() as u64;
            if k == 0 {
                out.open_batches.0 += s1.predict_ok - s0.predict_ok;
                out.open_batches.1 += s1.batches - s0.batches;
                out.stamps
                    .extend(stamps.iter().map(|s| (started.as_secs_f64(), *s)));
            }
            segments.push(Segment::Open(k, stamps, cpu_s));
        }
        let s0 = stats.snapshot();
        let sat = sat_segment(&mut clients, fx);
        let s1 = stats.snapshot();
        out.reference_s.push(reference.run());
        out.attempted += SAT_REQUESTS as u64;
        out.failed += sat.failed;
        out.sat_batches.0 += s1.predict_ok - s0.predict_ok;
        out.sat_batches.1 += s1.batches - s0.batches;
        segments.push(Segment::Sat(sat.batch_s));
        if round == 0 {
            out.first_round_rss_kb = host::peak_rss_kb();
        }
    }
    out.rejected = stats.snapshot().predict_rejected - rejected0;

    for (segment, scale) in segments.iter().zip(host::clock_scales(&out.reference_s)) {
        match segment {
            Segment::Open(k, stamps, cpu_s) => {
                out.latency_ms[*k].extend(stamps.iter().map(|s| (s.done - s.due) * scale * 1e3));
                if *k == 0 {
                    out.lateness_ms
                        .extend(stamps.iter().map(|s| (s.sent - s.due) * scale * 1e3));
                    out.open_cpu_ms
                        .push(cpu_s * scale * 1e3 / stamps.len() as f64);
                }
            }
            Segment::Sat(batch_s) => out.sat_batch_s.extend(batch_s.iter().map(|s| s * scale)),
        }
    }
    out
}

/// Median wall time (ms) of `n` sequential requests on an otherwise idle
/// server: queueing, the batch wait, one forward pass and HTTP both ways.
/// Also the warm-up of every load.
pub fn idle_rtt_ms(addr: SocketAddr, fx: &Fixture, n: usize) -> f64 {
    let mut client = connect(addr);
    crate::stats::median_us(3, n, || {
        assert!(fx.request(&mut client, 0), "idle request failed");
    }) * 1e-3
}
