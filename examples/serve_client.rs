//! Load-test client for the `cgnn-serve` inference plane.
//!
//! Two modes:
//!
//! * `CGNN_SERVE_ADDR` **set** — drive an already-running server (e.g. the
//!   `cgnn-serve` binary) at that address, retrying the first connection
//!   so it can be launched concurrently;
//! * unset — start an in-process server on an ephemeral port and drive
//!   that, so the example is self-contained.
//!
//! Either way: discover the raw `f64` frame size from `/info` response
//! headers (binary frames keep served ≡ in-process checkable bit for
//! bit, and the headers spare the client a JSON parser), fire
//! `CLIENTS` concurrent keep-alive connections issuing `REQS` binary
//! `/predict` requests each, then print throughput, latency percentiles,
//! and the server's own `/metrics`.
//!
//! ```sh
//! cargo run --release --example serve_client
//! # or, against a separately launched server:
//! CGNN_SERVE_ADDR=127.0.0.1:7878 cargo run --release -p cgnn-serve &
//! CGNN_SERVE_ADDR=127.0.0.1:7878 cargo run --release --example serve_client
//! ```

#![expect(
    clippy::expect_used,
    reason = "an example stops with a message instead of threading errors through its walkthrough"
)]

use std::net::ToSocketAddrs;
use std::time::{Duration, Instant};

use cgnn::core::config as knobs;
use cgnn::serve::http::encode_f64;
use cgnn::serve::{HttpClient, ServeConfig, Server};

/// Concurrent keep-alive connections.
const CLIENTS: usize = 4;
/// Requests issued per connection.
const REQS: usize = 20;

fn main() {
    // External server when CGNN_SERVE_ADDR is set, self-contained
    // otherwise.
    let (addr, local_server) = match knobs::CGNN_SERVE_ADDR.lookup() {
        Some(spec) => {
            #[expect(
                clippy::panic,
                reason = "example: an unresolvable address ends the demo, naming it"
            )]
            let addr = spec
                .to_socket_addrs()
                .ok()
                .and_then(|mut a| a.next())
                .unwrap_or_else(|| panic!("unresolvable CGNN_SERVE_ADDR: {spec}"));
            println!("driving external server at {addr}");
            (addr, None)
        }
        None => {
            let config = ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                elems: knobs::CGNN_SERVE_ELEMS.usize_or(2),
                ..ServeConfig::default()
            };
            let server = Server::start(config).expect("start in-process server");
            let addr = server.addr();
            println!("started in-process server at {addr}");
            (addr, Some(server))
        }
    };

    // Frame size from /info headers.
    let mut probe = HttpClient::connect_retry(addr, Duration::from_secs(15))
        .expect("server never became reachable");
    let info = probe.request("GET", "/info", &[]).expect("GET /info");
    assert_eq!(info.status, 200, "/info failed");
    let n_nodes: usize = info
        .header("x-n-nodes")
        .and_then(|v| v.parse().ok())
        .expect("/info carries X-N-Nodes");
    let node_feats: usize = info
        .header("x-node-feats")
        .and_then(|v| v.parse().ok())
        .expect("/info carries X-Node-Feats");
    println!(
        "serving {} nodes x {} features per frame ({} bytes), model step {}",
        n_nodes,
        node_feats,
        n_nodes * node_feats * 8,
        info.header("x-model-step").unwrap_or("?"),
    );

    // Closed-loop load: every client its own connection and frame.
    let t0 = Instant::now();
    let mut lats: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let x: Vec<f64> = (0..n_nodes * node_feats)
                        .map(|i| ((i + 13 * c) as f64 * 0.01).sin())
                        .collect();
                    let body = encode_f64(&x);
                    let mut client =
                        HttpClient::connect_retry(addr, Duration::from_secs(15)).expect("connect");
                    let mut lats = Vec::with_capacity(REQS);
                    for _ in 0..REQS {
                        let s = Instant::now();
                        let resp = client
                            .request("POST", "/predict", &body)
                            .expect("POST /predict");
                        assert_eq!(resp.status, 200, "predict rejected under load test");
                        assert_eq!(resp.body.len(), x.len() * 8, "short prediction frame");
                        lats.push(s.elapsed().as_micros() as u64);
                    }
                    lats
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    lats.sort_unstable();
    let pct = |q: f64| lats[((q * (lats.len() - 1) as f64).round() as usize).min(lats.len() - 1)];
    println!(
        "{} requests over {} connections in {:.2}s -> {:.1} req/s (p50 {}us, p99 {}us)",
        CLIENTS * REQS,
        CLIENTS,
        wall,
        (CLIENTS * REQS) as f64 / wall,
        pct(0.50),
        pct(0.99),
    );

    // Exercise the admin plane and show the server's own telemetry.
    let reload = probe
        .request("POST", "/admin/reload", &[])
        .expect("POST /admin/reload");
    println!(
        "reload: {}",
        String::from_utf8_lossy(&reload.body).trim_end()
    );
    let metrics = probe.request("GET", "/metrics", &[]).expect("GET /metrics");
    println!("metrics:\n{}", String::from_utf8_lossy(&metrics.body));

    if let Some(server) = local_server {
        server.shutdown();
    }
}
