//! `servebench`: closed-loop load benchmark of the `cgnn-serve` inference
//! plane, tracking the micro-batching payoff in-tree.
//!
//! For each micro-batch cap in `{1, 8, 32}` the bench starts a fresh
//! in-process server (one replica, ephemeral port) and drives it with
//! `CGNN_SERVE_BENCH_CLIENTS` concurrent keep-alive connections issuing
//! `CGNN_SERVE_BENCH_REQS` binary `/predict` requests each, in two
//! phases: a **closed-loop** phase (one in-flight request per connection)
//! for per-request latency percentiles, then a **pipelined saturation**
//! phase (every connection sends all its requests before draining the
//! responses) for throughput — the standard latency-run/throughput-run
//! split, so neither number distorts the other. Results are written to
//! `BENCH_serve.json` at the repo root. Regenerate with:
//!
//! ```sh
//! cargo run --release -p cgnn-serve --bin servebench
//! ```
//!
//! Batching wins by amortizing per-pass fixed costs — dominated by the
//! per-op dispatch and synchronization of the parallel kernel path
//! (`cgnn-tensor`'s worker pool, the default on any multi-core host) —
//! over the batch, and by giving that pool enough rows to fill it: a
//! singleton pass over the 27-node serving mesh splits into only 2 row
//! chunks, so at most 2 workers ever have work, while a 32-stacked pass
//! (864 rows, 54 chunks) keeps the whole pool busy. To keep the tracked
//! numbers reproducible the bench pins `CGNN_NUM_THREADS=6` when unset —
//! a small production pool the singleton path demonstrably cannot fill;
//! worker count never affects results, only speed (`docs/PERFORMANCE.md`
//! documents the worker-count-invariant chunking contract). It uses a
//! single spectral element (`CGNN_SERVE_ELEMS`, default 1 here — the
//! many-small-queries regime the serving plane is built for) and a few
//! pipelined connections (default 2), each streaming enough requests
//! (default 400) that the largest cap fills at saturation. Predictions
//! are bit-identical at every cap
//! ([`cgnn_core::Trainer::predict_batch`]); the sweep is a pure
//! throughput comparison under one fixed server configuration. The cap is
//! the upper clamp of [`cgnn_serve::pool::stack_limit`], which on this
//! 108-edge mesh reaches 32; on a larger `CGNN_SERVE_ELEMS` passes stop
//! stacking where they would leave cache (9 on the 2³ mesh, 1 from 4³ up)
//! and the higher caps measure the same server.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use cgnn_core::config as knobs;
use cgnn_serve::{HttpClient, ServeConfig, Server};
use serde_json::json;

struct CaseResult {
    max_batch: usize,
    total_requests: usize,
    wall_s: f64,
    rps: f64,
    p50_us: u64,
    p90_us: u64,
    p99_us: u64,
    batches: u64,
    mean_batch: f64,
    observed_max_batch: usize,
}

fn client_run(addr: SocketAddr, body: Vec<u8>, reqs: usize) -> Vec<u64> {
    let mut client = HttpClient::connect_retry(addr, Duration::from_secs(10))
        .expect("connect to servebench server");
    let mut lats = Vec::with_capacity(reqs);
    for _ in 0..reqs {
        let t0 = Instant::now();
        let resp = client
            .request("POST", "/predict", &body)
            .expect("predict request failed");
        assert_eq!(resp.status, 200, "predict was not served");
        lats.push(t0.elapsed().as_micros() as u64);
    }
    lats
}

/// Saturation phase: pipeline all `reqs` requests down the connection,
/// then drain the responses. The client round-trip leaves every request's
/// critical path, so the server runs flat out and the measured wall time
/// is its actual service capacity.
fn client_pipeline(addr: SocketAddr, body: Vec<u8>, reqs: usize) {
    let mut client = HttpClient::connect_retry(addr, Duration::from_secs(10))
        .expect("connect to servebench server");
    for _ in 0..reqs {
        client
            .send_request("POST", "/predict", &body)
            .expect("pipelined send failed");
    }
    for _ in 0..reqs {
        let resp = client.read_response().expect("pipelined read failed");
        assert_eq!(resp.status, 200, "predict was not served");
    }
}

fn run_case(max_batch: usize, clients: usize, reqs: usize, elems: usize) -> CaseResult {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        replicas: 1,
        max_batch,
        queue_cap: 1024,
        http_workers: clients + 2,
        elems,
        ..ServeConfig::default()
    };
    let server = Server::start(config).expect("start servebench server");
    let addr = server.addr();
    let n_vals = server.n_local() * cgnn_graph::NODE_FEATS;
    // Synthetic but deterministic node features; content is irrelevant to
    // throughput, and every client sends a distinct frame.
    let bodies: Vec<Vec<u8>> = (0..clients)
        .map(|c| {
            let x: Vec<f64> = (0..n_vals)
                .map(|i| ((i + 7 * c) as f64 * 0.01).sin())
                .collect();
            cgnn_serve::http::encode_f64(&x)
        })
        .collect();
    // Warm the replica (first pass pays tape/pool growth) before timing.
    client_run(addr, bodies[0].clone(), 2);

    // Latency phase: closed-loop, one in-flight request per connection,
    // per-request round-trip times.
    let mut lats: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = bodies
            .iter()
            .map(|body| scope.spawn(move || client_run(addr, body.clone(), reqs)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });

    // Throughput phase: pipelined saturation, wall time only. Batch
    // shape is reported for this phase alone (stats delta), so the
    // closed-loop phase — which caps in-flight work at the client count —
    // does not dilute the saturation batch sizes.
    let pre_batches = server.stats().snapshot().batches;
    let wall0 = Instant::now();
    std::thread::scope(|scope| {
        for body in &bodies {
            scope.spawn(move || client_pipeline(addr, body.clone(), reqs));
        }
    });
    let wall_s = wall0.elapsed().as_secs_f64();
    lats.sort_unstable();
    let pct = |q: f64| lats[((q * (lats.len() - 1) as f64).round() as usize).min(lats.len() - 1)];
    let snap = server.stats().snapshot();
    server.shutdown();
    let total_requests = clients * reqs;
    let batches = (snap.batches - pre_batches).max(1);
    CaseResult {
        max_batch,
        total_requests,
        wall_s,
        rps: total_requests as f64 / wall_s,
        p50_us: pct(0.50),
        p90_us: pct(0.90),
        p99_us: pct(0.99),
        batches,
        mean_batch: total_requests as f64 / batches as f64,
        observed_max_batch: snap.max_batch(),
    }
}

fn main() {
    // Pin the kernel worker count before the first tensor op resolves it:
    // the committed numbers must not depend on the host's core count, and
    // the parallel kernel path (the multi-core default) is exactly where
    // micro-batching pays — per-op dispatch is the amortized fixed cost,
    // and a singleton pass (2 row chunks) cannot fill a 6-worker pool.
    if knobs::CGNN_NUM_THREADS.lookup().is_none() && knobs::RAYON_NUM_THREADS.lookup().is_none() {
        std::env::set_var(knobs::CGNN_NUM_THREADS.name, "6");
    }
    let kernel_workers = knobs::CGNN_NUM_THREADS.string_or("6");
    // Server-side pipelining means a few streaming connections saturate
    // the replica (each keeps many requests in flight), so the client
    // count models upstream processes, not concurrency pressure.
    let clients = knobs::CGNN_SERVE_BENCH_CLIENTS.usize_or(2);
    let reqs = knobs::CGNN_SERVE_BENCH_REQS.usize_or(400);
    let elems = knobs::CGNN_SERVE_ELEMS.usize_or(1);
    let caps = [1usize, 8, 32];
    // Best-of-reps, same rationale as the hotpath bench: the tracked
    // machine is a shared VM, and client threads plus kernel workers
    // amplify scheduler noise; the best rep is the least-perturbed one.
    // The caps are *interleaved* across reps (1, 8, 32, 1, 8, 32, ...)
    // rather than repeated back-to-back, so a sustained noise episode
    // degrades every cap instead of silently skewing their ratio, and
    // the per-cap best lands in each cap's quietest window.
    const REPS: usize = 9;
    let mut best: Vec<Option<CaseResult>> = caps.iter().map(|_| None).collect();
    for _rep in 0..REPS {
        for (i, &cap) in caps.iter().enumerate() {
            let case = run_case(cap, clients, reqs, elems);
            if best[i].as_ref().is_none_or(|b| case.rps > b.rps) {
                best[i] = Some(case);
            }
        }
    }
    let cases: Vec<CaseResult> = best
        .into_iter()
        .map(|b| b.expect("at least one rep"))
        .collect();
    for case in &cases {
        println!(
            "max_batch={:<3} rps={:>8.1} p50={:>6}us p90={:>6}us p99={:>6}us \
             mean_batch={:.2} (observed max {})",
            case.max_batch,
            case.rps,
            case.p50_us,
            case.p90_us,
            case.p99_us,
            case.mean_batch,
            case.observed_max_batch,
        );
    }
    let rps_1 = cases[0].rps;
    let rps_32 = cases[cases.len() - 1].rps;
    let speedup = rps_32 / rps_1;
    println!("micro-batching speedup (max_batch 32 vs 1): {speedup:.2}x");

    let n_nodes = {
        let mesh = cgnn_mesh::BoxMesh::new((elems, elems, elems), 2, (1.0, 1.0, 1.0), false);
        cgnn_graph::build_global_graph(&mesh).n_local()
    };
    let json = json!({
        "bench": "servebench",
        "description": "closed-loop load test of the cgnn-serve inference plane: \
                        throughput and client-side latency vs the micro-batch cap",
        "mesh": { "elems": elems, "poly": 2, "n_nodes": n_nodes },
        "model": "small",
        "protocol": {
            "clients": clients,
            "requests_per_client": reqs,
            "replicas": 1,
            "reps": REPS,
            "metric": "best-of-reps pipelined-saturation requests/sec, caps \
                       interleaved across reps (shared-VM noise filter); latency \
                       percentiles from a closed-loop phase with one in-flight \
                       request per connection; batch shape from the saturation \
                       phase alone",
            "kernel_workers": kernel_workers,
            "transport": "HTTP/1.1 keep-alive, binary little-endian f64 frames",
            "note": "one fixed server config across caps; batching amortizes \
                     per-op kernel dispatch over the stacked pass and fills the \
                     worker pool (a singleton pass has only 2 row chunks); \
                     predictions are bit-identical at every cap",
        },
        "results": cases.iter().map(|c| json!({
            "max_batch": c.max_batch,
            "total_requests": c.total_requests,
            "wall_s": c.wall_s,
            "rps": c.rps,
            "latency_p50_us": c.p50_us,
            "latency_p90_us": c.p90_us,
            "latency_p99_us": c.p99_us,
            "forward_passes": c.batches,
            "mean_batch": c.mean_batch,
            "observed_max_batch": c.observed_max_batch,
        })).collect::<Vec<_>>(),
        "speedup_batch32_vs_1": speedup,
    });
    let path = "BENCH_serve.json";
    std::fs::write(
        path,
        serde_json::to_string_pretty(&json).expect("serialize"),
    )
    .expect("write BENCH_serve.json");
    println!("wrote {path}");
}
