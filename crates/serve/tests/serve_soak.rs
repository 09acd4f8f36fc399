//! Soak test of the serving plane's memory: a replica's resident state
//! depends on the served shape alone, never on how deep the queue behind
//! it has been, because every pass is one request on the served graph.

use std::time::Duration;

use cgnn_serve::http::encode_f64;
use cgnn_serve::{HttpClient, ServeConfig, Server};

#[path = "../../../tests/common/mod.rs"]
mod common;
use common::rss_kb;

/// 400 requests on the default mesh, in bursts whose pipeline depth
/// cycles through 1..=64 (1, 6, 11, …: the first 55 requests stay at depth
/// 21 and below, the rest reach 61) over two alternating connections: the
/// resident set after the last is within 4 MB of where it was after the
/// first 55.
#[test]
#[ignore = "release soak: cargo test --release -p cgnn-serve --test serve_soak -- --ignored"]
fn replica_memory_is_flat_across_pipeline_depths() {
    const REQUESTS: usize = 400;
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    })
    .expect("server start");
    let n_vals = server.n_local() * cgnn_graph::NODE_FEATS;
    let body = encode_f64(
        &(0..n_vals)
            .map(|i| (i as f64 * 0.01).sin())
            .collect::<Vec<_>>(),
    );
    let mut clients: Vec<HttpClient> = (0..2)
        .map(|_| HttpClient::connect_retry(server.addr(), Duration::from_secs(5)).expect("connect"))
        .collect();

    let (mut served, mut early) = (0, None);
    for burst in 0.. {
        let depth = (1 + 5 * burst % 64).min(REQUESTS - served);
        let client = &mut clients[burst % 2];
        for _ in 0..depth {
            client
                .send_request("POST", "/predict", &body)
                .expect("pipelined send");
        }
        for _ in 0..depth {
            let resp = client.read_response().expect("pipelined read");
            assert_eq!(resp.status, 200, "predict was not served");
        }
        served += depth;
        if early.is_none() && served >= 55 {
            early = rss_kb();
        }
        if served == REQUESTS {
            break;
        }
    }
    let snap = server.stats().snapshot();
    assert_eq!(snap.predict_ok, REQUESTS as u64);
    if let (Some(early), Some(late)) = (early, rss_kb()) {
        println!("VmRSS {early} kB after request 55, {late} kB after request {REQUESTS}");
        assert!(
            late <= early + 4 * 1024,
            "VmRSS grew from {early} kB after request 55 to {late} kB after request {REQUESTS}"
        );
    }
    server.shutdown();
}
