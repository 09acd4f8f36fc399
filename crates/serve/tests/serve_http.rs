//! End-to-end tests of the serving plane over real TCP: bit-identity of
//! served predictions at one request per pass, hot checkpoint reload under
//! concurrent load, a synchronous reload read back on the same connection,
//! queue-overflow backpressure, admission on arrival, clients whose bytes
//! pause mid-request, and startup refusing an invalid configuration.

#![expect(
    clippy::expect_used,
    reason = "a failed setup step fails the test, and its message names the step"
)]

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

// Workspace-shared bounded-polling helpers (no fixed sleeps in tests).
#[path = "../../../tests/common/mod.rs"]
mod common;

use cgnn_comm::LoopbackBackend;
use cgnn_core::{GnnConfig, HaloContext, RankData, Trainer};
use cgnn_graph::build_global_graph;
use cgnn_mesh::{BoxMesh, TaylorGreen};
use cgnn_serve::http::{decode_f64, encode_f64, read_line};
use cgnn_serve::{HttpClient, ServeConfig, Server};
use cgnn_session::CheckpointPolicy;

const ELEMS: usize = 2;

fn test_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        elems: ELEMS,
        ..ServeConfig::default()
    }
}

/// A reference trainer with the same graph/architecture/seed a server of
/// `elems` elements per axis uses, for computing expected predictions
/// in-process.
fn reference_trainer_on(seed: u64, elems: usize) -> (Trainer, Arc<cgnn_graph::LocalGraph>) {
    let mesh = BoxMesh::new((elems, elems, elems), 2, (1.0, 1.0, 1.0), false);
    let graph = Arc::new(build_global_graph(&mesh));
    let ctx = HaloContext::single(LoopbackBackend::comm());
    (Trainer::new(GnnConfig::small(), seed, 1e-3, ctx), graph)
}

fn sample_inputs(graph: &Arc<cgnn_graph::LocalGraph>, count: usize) -> Vec<RankData> {
    let field = TaylorGreen::new(0.01);
    (0..count)
        .map(|i| RankData::tgv_autoencode(Arc::clone(graph), &field, i as f64 * 0.1))
        .collect()
}

/// What `trainer` predicts in-process for each sample.
fn expected_outputs(trainer: &Trainer, samples: &[RankData]) -> Vec<Vec<f64>> {
    samples
        .iter()
        .map(|sample| trainer.predict(sample).into_vec())
        .collect()
}

/// Write one `/predict` per sample down `client` without reading.
fn send_all<'a>(client: &mut HttpClient, samples: impl IntoIterator<Item = &'a RankData>) {
    for sample in samples {
        client
            .send_request("POST", "/predict", &encode_f64(sample.x.data()))
            .expect("pipelined send");
    }
}

/// Read one response per expected output, in order, and require each to
/// be a 200 from seeded weights (step 0) carrying exactly those bits.
fn read_and_check<'a>(client: &mut HttpClient, expected: impl IntoIterator<Item = &'a Vec<f64>>) {
    for expected in expected {
        let resp = client.read_response().expect("pipelined read");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("x-model-step"), Some("0"), "seeded weights");
        let served = decode_f64(&resp.body).expect("f64 frame");
        assert_eq!(served.len(), expected.len());
        for (a, b) in served.iter().zip(expected) {
            assert_eq!(a.to_bits(), b.to_bits(), "served prediction diverged");
        }
    }
}

#[test]
fn served_predictions_are_bit_identical_to_in_process_inference() {
    // (elems, requests sent first, requests pipelined behind them): on the
    // 2^3 mesh one request holds the replica busy while six queue behind
    // it; on the default 4^3 mesh a burst queues at once. Either way every
    // pass serves one request.
    for (elems, head, tail) in [(ELEMS, 1, 6), (ServeConfig::default().elems, 0, 24)] {
        let config = ServeConfig {
            elems,
            ..test_config()
        };
        let seed = config.seed;
        let server = Server::start(config).expect("server start");
        let addr = server.addr();
        let (trainer, graph) = reference_trainer_on(seed, elems);
        let samples = sample_inputs(&graph, 8);
        let expected = expected_outputs(&trainer, &samples);
        let served = head + tail;

        let mut client = HttpClient::connect_retry(addr, Duration::from_secs(5)).expect("connect");
        send_all(&mut client, samples.iter().cycle().take(head));
        common::wait_until(common::generous(), "the replica to claim the head", || {
            server.stats().snapshot().batches == head as u64
        });
        send_all(&mut client, samples.iter().cycle().skip(head).take(tail));
        read_and_check(&mut client, expected.iter().cycle().take(served));

        let snap = server.stats().snapshot();
        assert_eq!(snap.predict_ok, served as u64, "elems {elems}");
        assert_eq!(
            snap.batches, snap.predict_ok,
            "elems {elems}: a pass served more than one request"
        );
        // Every served request was timed in both parts.
        assert_eq!(snap.queue_hist.iter().sum::<u64>(), served as u64);
        assert_eq!(snap.forward_hist.iter().sum::<u64>(), served as u64);

        // Telemetry sanity over the wire.
        let mut client = HttpClient::connect(addr).expect("connect");
        let metrics = client.request("GET", "/metrics", &[]).expect("metrics");
        assert_eq!(metrics.status, 200);
        let text = String::from_utf8(metrics.body).expect("utf8 metrics");
        for part in [
            format!("\"predict_ok\": {served}"),
            format!("\"batches\": {served}"),
            "\"latency_us\"".to_string(),
            "\"queue_us\"".to_string(),
            "\"forward_us\"".to_string(),
        ] {
            assert!(text.contains(&part), "metrics lack {part}: {text}");
        }

        let info = client.request("GET", "/info", &[]).expect("info");
        assert_eq!(
            info.header("x-n-nodes"),
            Some(graph.n_local().to_string().as_ref())
        );
        server.shutdown();
    }
}

#[test]
fn invalid_config_is_an_error_naming_the_field() {
    let zero_elems = ServeConfig {
        elems: 0,
        ..test_config()
    };
    let zero_queue = ServeConfig {
        queue_cap: 0,
        ..test_config()
    };
    let zero_poll = ServeConfig {
        poll_ms: 0,
        ..test_config()
    };
    for (config, field) in [
        (zero_elems, "elems"),
        (zero_queue, "queue_cap"),
        (zero_poll, "poll_ms"),
    ] {
        let Err(err) = Server::start(config) else {
            panic!("a zero {field} must not start");
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
        assert!(err.to_string().contains(field), "{err}");
    }
}

#[test]
fn hot_reload_swaps_parameters_without_dropping_requests() {
    let dir = std::env::temp_dir().join(format!("cgnn_serve_reload_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let policy = CheckpointPolicy::every(1, &dir);

    // Train a reference model and save two distinct checkpoints.
    let (mut trainer, graph) = reference_trainer_on(7, ELEMS);
    let samples = sample_inputs(&graph, 1);
    for _ in 0..3 {
        trainer.step(&samples[0]);
    }
    cgnn_tensor::save_checkpoint(
        &trainer.params,
        &trainer.opt.state(),
        policy.path_for_step(1),
    )
    .expect("save step 1");
    let expected_v1 = trainer.predict(&samples[0]);
    for _ in 0..3 {
        trainer.step(&samples[0]);
    }
    let expected_v2 = trainer.predict(&samples[0]);
    assert_ne!(
        expected_v1.data(),
        expected_v2.data(),
        "training must change the prediction for the reload to be observable"
    );

    let config = ServeConfig {
        ckpt_dir: Some(dir.clone()),
        // Poll slowly: the test exercises the synchronous /admin/reload.
        poll_ms: 60_000,
        ..test_config()
    };
    let server = Server::start(config).expect("server start");
    let addr = server.addr();
    let body = encode_f64(samples[0].x.data());

    // Startup already loaded step 1.
    let mut client = HttpClient::connect_retry(addr, Duration::from_secs(5)).expect("connect");
    let resp = client.request("POST", "/predict", &body).expect("predict");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("x-model-step"), Some("1"));
    let served = decode_f64(&resp.body).expect("frame");
    assert_eq!(served, expected_v1.data(), "step-1 weights must serve");

    // Hammer /predict from background threads while the checkpoint
    // changes under the server.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let hammered = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let in_flight: Vec<_> = (0..3)
        .map(|_| {
            let stop = Arc::clone(&stop);
            let hammered = Arc::clone(&hammered);
            let body = body.clone();
            let e1 = expected_v1.data().to_vec();
            let e2 = expected_v2.data().to_vec();
            std::thread::spawn(move || {
                let mut client =
                    HttpClient::connect_retry(addr, Duration::from_secs(5)).expect("connect");
                let mut served = 0usize;
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    let resp = client.request("POST", "/predict", &body).expect("predict");
                    assert_eq!(resp.status, 200, "no request may drop during reload");
                    let y = decode_f64(&resp.body).expect("frame");
                    // Every response is exactly one parameter set, never
                    // a torn mixture, and the step header names which.
                    match resp.header("x-model-step") {
                        Some("1") => assert_eq!(y, e1, "step-1 response torn"),
                        Some("2") => assert_eq!(y, e2, "step-2 response torn"),
                        other => panic!("unexpected model step {other:?}"),
                    }
                    served += 1;
                    hammered.fetch_add(1, std::sync::atomic::Ordering::Release);
                }
                served
            })
        })
        .collect();

    // The new checkpoint lands only once load is provably in flight (the
    // background threads have served step-1 responses), not after a fixed
    // sleep that may or may not cover their startup.
    common::wait_until(common::generous(), "load threads to start serving", || {
        hammered.load(std::sync::atomic::Ordering::Acquire) >= 3
    });
    cgnn_tensor::save_checkpoint(
        &trainer.params,
        &trainer.opt.state(),
        policy.path_for_step(2),
    )
    .expect("save step 2");
    let reload = client
        .request("POST", "/admin/reload", &[])
        .expect("reload");
    assert_eq!(reload.status, 200);
    let reload_body = String::from_utf8(reload.body).expect("utf8");
    assert!(
        reload_body.contains("\"reloaded\": true") && reload_body.contains("\"step\": 2"),
        "reload response: {reload_body}"
    );

    // New requests converge to the new parameters.
    let y = common::wait_for(
        common::generous(),
        "replicas to install the reloaded parameters",
        || {
            let resp = client.request("POST", "/predict", &body).expect("predict");
            assert_eq!(resp.status, 200);
            (resp.header("x-model-step") == Some("2"))
                .then(|| decode_f64(&resp.body).expect("frame"))
        },
    );
    assert_eq!(y, expected_v2.data(), "step-2 weights must serve");
    stop.store(true, std::sync::atomic::Ordering::Release);
    let background_served: usize = in_flight
        .into_iter()
        .map(|h| h.join().expect("load thread"))
        .sum();
    assert!(background_served > 0, "load threads never got through");

    server.shutdown();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn a_synchronous_reload_is_read_your_writes() {
    let dir = std::env::temp_dir().join(format!("cgnn_serve_ryw_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let policy = CheckpointPolicy::every(1, &dir);
    let (mut trainer, graph) = reference_trainer_on(7, ELEMS);
    let samples = sample_inputs(&graph, 1);
    let body = encode_f64(samples[0].x.data());

    let server = Server::start(ServeConfig {
        ckpt_dir: Some(dir.clone()),
        // Only the synchronous /admin/reload publishes.
        poll_ms: 60_000,
        ..test_config()
    })
    .expect("server start");
    let mut client =
        HttpClient::connect_retry(server.addr(), Duration::from_secs(5)).expect("connect");
    for step in 1..=20 {
        trainer.step(&samples[0]);
        cgnn_tensor::save_checkpoint(
            &trainer.params,
            &trainer.opt.state(),
            policy.path_for_step(step),
        )
        .expect("save");
        let expected = trainer.predict(&samples[0]).into_vec();

        let reload = client
            .request("POST", "/admin/reload", &[])
            .expect("reload");
        assert_eq!(reload.status, 200);
        let reload_body = String::from_utf8(reload.body).expect("utf8");
        assert!(
            reload_body.contains("\"reloaded\": true")
                && reload_body.contains(&format!("\"step\": {step}")),
            "reload response: {reload_body}"
        );
        // The reload has answered, so the next request is served by what
        // it published.
        let resp = client.request("POST", "/predict", &body).expect("predict");
        assert_eq!(resp.status, 200);
        assert_eq!(
            resp.header("x-model-step"),
            Some(step.to_string().as_str()),
            "a /predict after the reload to step {step} was served stale"
        );
        let served = decode_f64(&resp.body).expect("f64 frame");
        assert_eq!(served, expected, "step-{step} weights must serve");
    }
    server.shutdown();
    std::fs::remove_dir_all(dir).ok();
}

/// Write `parts` to a fresh connection to `addr` with `pause` between
/// them, then read one response: its status, its `X-Model-Step` header
/// and its body.
fn slow_request(
    addr: std::net::SocketAddr,
    parts: &[&[u8]],
    pause: Duration,
) -> (String, Option<String>, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    for (i, part) in parts.iter().enumerate() {
        if i > 0 {
            std::thread::sleep(pause);
        }
        // A server that gave up on the request has answered and closed:
        // read what it said.
        if stream.write_all(part).is_err() {
            break;
        }
    }
    let mut reader = BufReader::new(stream);
    let status = read_line(&mut reader)
        .expect("status line")
        .expect("a response");
    let (mut len, mut step) = (0, None);
    while let Some(line) = read_line(&mut reader).expect("header line") {
        if line.is_empty() {
            break;
        }
        let (name, value) = line.split_once(':').expect("a header");
        match name.to_ascii_lowercase().as_str() {
            "content-length" => len = value.trim().parse().expect("a length"),
            "x-model-step" => step = Some(value.trim().to_string()),
            _ => {}
        }
    }
    let mut body = vec![0; len];
    reader.read_exact(&mut body).expect("body");
    (status, step, body)
}

#[test]
fn slow_clients_are_served() {
    let server = Server::start(test_config()).expect("server start");
    let (trainer, graph) = reference_trainer_on(server.config().seed, ELEMS);
    let sample = &sample_inputs(&graph, 1)[0];
    let expected = trainer.predict(sample).into_vec();
    let pause = Duration::from_millis(400);

    // Header lines 400 ms apart.
    let (status, _, _) = slow_request(
        server.addr(),
        &[
            b"GET /health HTTP/1.1\r\n",
            b"Host: cgnn-serve\r\n",
            b"\r\n",
        ],
        pause,
    );
    assert!(status.starts_with("HTTP/1.1 200"), "slow headers: {status}");

    // A body 400 ms behind its headers.
    let body = encode_f64(sample.x.data());
    let head = format!(
        "POST /predict HTTP/1.1\r\nHost: cgnn-serve\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    let (status, step, served) = slow_request(server.addr(), &[head.as_bytes(), &body], pause);
    assert!(status.starts_with("HTTP/1.1 200"), "slow body: {status}");
    assert_eq!(step.as_deref(), Some("0"), "seeded weights");
    let served = decode_f64(&served).expect("f64 frame");
    assert_eq!(served.len(), expected.len());
    for (a, b) in served.iter().zip(&expected) {
        assert_eq!(a.to_bits(), b.to_bits(), "served prediction diverged");
    }
    server.shutdown();
}

#[test]
fn saturated_queue_rejects_with_503_instead_of_hanging() {
    let config = ServeConfig {
        // No replicas: nothing drains the queue, so saturation is
        // deterministic — one slot fills and stays full.
        replicas: 0,
        queue_cap: 1,
        http_workers: 4,
        ..test_config()
    };
    let server = Server::start(config).expect("server start");
    let addr = server.addr();
    let n_vals = server.n_local() * cgnn_graph::NODE_FEATS;
    let body = encode_f64(&vec![0.25; n_vals]);

    // First request occupies the single queue slot and hangs (no replica
    // will ever serve it).
    let hung = {
        let body = body.clone();
        std::thread::spawn(move || {
            let mut client =
                HttpClient::connect_retry(addr, Duration::from_secs(5)).expect("connect");
            client.request("POST", "/predict", &body)
        })
    };
    common::wait_until(common::generous(), "first request to enqueue", || {
        server.stats().snapshot().queue_depth > 0
    });

    // Second request must be rejected immediately, not block.
    let mut client = HttpClient::connect_retry(addr, Duration::from_secs(5)).expect("connect");
    let t0 = Instant::now();
    let resp = client.request("POST", "/predict", &body).expect("request");
    assert_eq!(resp.status, 503, "saturated queue must reject");
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "rejection must be immediate, took {:?}",
        t0.elapsed()
    );
    assert!(resp.header("retry-after").is_some());
    assert!(server.stats().snapshot().predict_rejected >= 1);

    // Drain mode rejects even with queue room.
    let drain = client.request("POST", "/admin/drain", &[]).expect("drain");
    assert_eq!(drain.status, 200);
    let resp = client.request("POST", "/predict", &body).expect("request");
    assert_eq!(resp.status, 503, "draining server must refuse new work");

    // Shutdown resolves the hung request (500: its job died with the
    // queue) instead of deadlocking.
    server.shutdown();
    // The connection may also just close under shutdown (Err), which is
    // an acceptable resolution too.
    if let Ok(resp) = hung.join().expect("hung client thread") {
        assert_eq!(resp.status, 500);
    }
}

#[test]
fn admission_does_not_wait_for_settlement() {
    let config = ServeConfig {
        // No replicas: the first request's reply never settles.
        replicas: 0,
        queue_cap: 4,
        ..test_config()
    };
    let server = Server::start(config).expect("server start");
    let n_vals = server.n_local() * cgnn_graph::NODE_FEATS;
    let body = encode_f64(&vec![0.25; n_vals]);

    // One client writes six requests a few milliseconds apart — each
    // reaches the socket while the ones before it are still owed — and
    // reads nothing.
    let mut client =
        HttpClient::connect_retry(server.addr(), Duration::from_secs(5)).expect("connect");
    for _ in 0..6 {
        client
            .send_request("POST", "/predict", &body)
            .expect("pipelined send");
        std::thread::sleep(Duration::from_millis(3));
    }
    // Every one of them met the queue on arrival: four fill it, two are
    // refused. (A connection that admitted only after settling what it
    // owed would stop at one queued and none refused.)
    common::wait_until(
        common::generous(),
        "all six requests to be admitted",
        || {
            let snap = server.stats().snapshot();
            snap.queue_depth == 4 && snap.predict_rejected == 2
        },
    );
    server.shutdown();
}
