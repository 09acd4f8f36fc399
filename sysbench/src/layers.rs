//! The traced run: the workload's window with spans on, then probes of
//! the layers on its path through their public functions, at the sizes the
//! workload calls them with. A layer that is not on the workload's path (a
//! training workload serves nothing, a single rank exchanges nothing, the
//! serve workload trains nothing) reports 0.
//!
//! Times are on the corrected clock like the end-to-end ones, so that a
//! stage's share of `latency_ms` can be read off; the trace file keeps raw
//! nanoseconds.

use std::collections::BTreeMap;
use std::io::Cursor;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cgnn_comm::LoopbackBackend;
use cgnn_core::{GraphIndices, HaloContext, RankData, Trainer};
use cgnn_graph::{build_distributed_graph, build_global_graph, LocalGraph};
use cgnn_partition::{Partition, Strategy};
use cgnn_serve::http::{self, ReadOutcome, Response};
use cgnn_serve::Server;
use cgnn_tensor::{Tape, Tensor};

use crate::host::{self, Reference};
use crate::report::{Report, PER_LAYER};
use crate::run::Budget;
use crate::staged::STAGES;
use crate::stats::{median, median_us, quantile_sorted, quartile_spread};
use crate::trace::{self_us_by_name, Span, Tracer};
use crate::train::{WindowOut, WindowPlan};
use crate::workload::{field, sample_time, Shape, SERVE};
use crate::{serve, train};

type Metrics = BTreeMap<&'static str, f64>;
type Timings = Vec<(&'static str, f64)>;

/// Run `shape`'s workload traced and probe the layers on its path.
/// Returns the report and the window's spans (for the trace file).
pub fn traced(shape: &Shape, seed: u64, budget: Budget, pinned: bool) -> (Report, Vec<Span>) {
    let mut m = Metrics::new();
    let mut reference = Reference::new();
    let (mut report, spans) = if shape.name == SERVE {
        serve_layers(shape, seed, budget, &mut reference, &mut m)
    } else {
        train_layers(shape, seed, budget, &mut reference, &mut m)
    };
    m.insert("bench.pinned", f64::from(u8::from(pinned)));
    for metric in PER_LAYER {
        // Not on this workload's path.
        m.entry(metric.name).or_insert(0.0);
    }
    report.metrics = m;
    (report, spans)
}

/// Run `probes` between two reference readings and record the times they
/// found on the corrected clock.
fn corrected(reference: &mut Reference, m: &mut Metrics, probes: impl FnOnce() -> Timings) {
    let before = reference.run();
    let found = probes();
    let scale = host::clock_scales(&[before, reference.run()])[0];
    m.extend(found.into_iter().map(|(name, t)| (name, t * scale)));
}

fn spread_or_zero(v: &mut [f64]) -> f64 {
    if v.len() < 2 {
        0.0
    } else {
        quartile_spread(v)
    }
}

fn train_layers(
    shape: &Shape,
    seed: u64,
    budget: Budget,
    reference: &mut Reference,
    m: &mut Metrics,
) -> (Report, Vec<Span>) {
    let plan = WindowPlan {
        // A staged block and a plain one at the least.
        blocks: shape.blocks(budget.window_s).max(2),
        traced: true,
        reference: train::reference_losses(shape, seed),
    };
    let mut w = train::window(shape, seed, &plan);
    let report = Report {
        correct: w.correct,
        attempted: w.ops,
        failed: w.failed,
        ..Report::default()
    };
    m.insert("bench.block_spread", spread_or_zero(&mut w.block_step_s));
    m.insert("bench.host_ref_ms", median(&mut w.reference_s) * 1e3);
    let spans = std::mem::take(&mut w.spans);
    stage_metrics(shape, w, &spans, m);

    if shape.ranks > 1 {
        corrected(reference, m, || train::world_probes(shape, seed));
        corrected(reference, m, || {
            let mut launches: Vec<f64> = (0..5).map(|_| train::empty_launch(shape, seed)).collect();
            vec![("comm.launch_ms", median(&mut launches))]
        });
        // Forward and backward each exchange once per message-passing layer.
        let exchanges_per_step = 2.0 * shape.config.n_mp_layers as f64;
        m.insert(
            "core.exchange_share",
            exchanges_per_step * m["core.exchange_us"] * 1e-3 / m["core.step_ms"],
        );
    }
    let session = train::session(shape, seed);
    let graph = Arc::clone(session.graph(0));
    corrected(reference, m, || setup_probes(shape, seed, &graph));
    m.insert(
        "core.halo_rows_share",
        graph.halo.halo_count() as f64 / graph.n_local() as f64,
    );
    corrected(reference, m, || kernel_probes(shape, &graph));
    (report, spans)
}

/// Stage self times of the staged step, the plain step beside it, and
/// what the two say about the harness.
fn stage_metrics(shape: &Shape, mut w: WindowOut, spans: &[Span], m: &mut Metrics) {
    let by_name = self_us_by_name(spans);
    // The j-th span of a stage belongs to the j-th staged step.
    let stage_us = |name: &str| {
        let mut us: Vec<f64> = by_name[name]
            .iter()
            .zip(&w.staged_scale)
            .map(|(t, scale)| t * scale)
            .collect();
        median(&mut us)
    };
    let step_ms = median(&mut w.step_s) * 1e3;
    let staged_ms = median(&mut w.staged_step_s) * 1e3;
    let attributed_ms: f64 = STAGES.iter().map(|s| stage_us(s)).sum::<f64>() * 1e-3;
    m.insert("tensor.tape_reset_us", stage_us("tape_reset"));
    m.insert("tensor.param_bind_us", stage_us("bind"));
    m.insert("core.forward_ms", stage_us("forward") * 1e-3);
    m.insert("core.loss_us", stage_us("loss"));
    m.insert("tensor.backward_ms", stage_us("backward") * 1e-3);
    m.insert("core.ddp_flatten_us", stage_us("ddp_flatten"));
    m.insert("core.ddp_reduce_us", stage_us("ddp_reduce"));
    m.insert("tensor.adam_us", stage_us("adam"));
    m.insert("core.step_ms", step_ms);
    m.insert("bench.trace_overhead_share", staged_ms / step_ms - 1.0);
    m.insert("bench.unattributed_share", 1.0 - attributed_ms / step_ms);
    if shape.ranks > 1 {
        // A single rank's "all-reduces" are loopback identities; it puts
        // nothing on a transport.
        m.insert("comm.msgs_per_step", w.comm_per_step[0]);
        m.insert("comm.bytes_per_step", w.comm_per_step[1]);
        m.insert("comm.allreduces_per_step", w.comm_per_step[2]);
    }
}

/// The set-up layers one by one, in milliseconds: what `setup_s` is made of.
fn setup_probes(shape: &Shape, seed: u64, graph: &Arc<LocalGraph>) -> Timings {
    let mesh = shape.mesh();
    let part = Partition::new(&mesh, shape.ranks, Strategy::Slab);
    let ms = |warm, reps, f: &mut dyn FnMut()| median_us(warm, reps, f) * 1e-3;
    vec![
        (
            "mesh.build_ms",
            ms(1, 9, &mut || drop(std::hint::black_box(shape.mesh()))),
        ),
        (
            "partition.build_ms",
            ms(1, 9, &mut || {
                std::hint::black_box(Partition::new(&mesh, shape.ranks, Strategy::Slab));
            }),
        ),
        (
            "graph.build_ms",
            ms(1, 5, &mut || {
                if shape.ranks > 1 {
                    std::hint::black_box(build_distributed_graph(&mesh, &part));
                } else {
                    std::hint::black_box(build_global_graph(&mesh));
                }
            }),
        ),
        (
            "session.build_ms",
            ms(1, 5, &mut || {
                drop(std::hint::black_box(train::session(shape, seed)))
            }),
        ),
        (
            "session.rank_data_ms",
            ms(1, 9, &mut || {
                let graph = Arc::clone(graph);
                std::hint::black_box(RankData::tgv_autoencode(graph, &field(), sample_time(seed)));
            }),
        ),
    ]
}

/// Median of the durations `f` reports, in microseconds: for kernels whose
/// inputs must be rebuilt, untimed, before every call.
fn median_reported_us(reps: usize, mut f: impl FnMut() -> Duration) -> f64 {
    let mut us: Vec<f64> = (0..reps).map(|_| f().as_secs_f64() * 1e6).collect();
    median(&mut us)
}

/// Single tensor kernels at the sizes a step or a forward pass on `graph`
/// calls them with, in microseconds.
fn kernel_probes(shape: &Shape, graph: &LocalGraph) -> Timings {
    let idx = GraphIndices::from_graph(graph);
    let (n, e, h) = (graph.n_local(), graph.n_edges(), shape.config.hidden);
    let fill =
        |rows, cols| Tensor::from_fn(rows, cols, |r, c| ((r * 31 + c * 7) % 97) as f64 * 0.01);
    let (nodes, edges) = (fill(n, h), fill(e, h));

    // The edge-MLP input layer: [n_edges, 3h] x [3h, h].
    let (a, b) = (fill(e, 3 * h), fill(3 * h, h));
    let mut out = Tensor::zeros(e, h);
    let matmul_us = median_us(2, 15, || a.matmul_into(&b, &mut out));

    let mut tape = Tape::new();
    let mut on_tape = |op: &dyn Fn(&mut Tape, cgnn_tensor::VarId, cgnn_tensor::VarId)| {
        median_reported_us(15, || {
            tape.reset();
            let x = tape.leaf_copy(&nodes);
            let ev = tape.leaf_copy(&edges);
            let t = Instant::now();
            op(&mut tape, x, ev);
            t.elapsed()
        })
    };
    let gather_concat_us = on_tape(&|tape, x, ev| {
        tape.gather_concat(&[
            (x, Some(idx.src.clone())),
            (x, Some(idx.dst.clone())),
            (ev, None),
        ]);
    });
    let scatter_add_us = on_tape(&|tape, _, ev| {
        tape.scatter_add_rows(ev, idx.dst.clone(), n);
    });
    let (gamma, beta) = (Tensor::full(1, h, 1.0), Tensor::zeros(1, h));
    let layer_norm_us = on_tape(&|tape, _, ev| {
        let (g, b) = (tape.leaf_copy(&gamma), tape.leaf_copy(&beta));
        tape.layer_norm(ev, g, b, 1e-5);
    });
    vec![
        ("tensor.matmul_us", matmul_us),
        ("tensor.gather_concat_us", gather_concat_us),
        ("tensor.scatter_add_us", scatter_add_us),
        ("tensor.layer_norm_us", layer_norm_us),
    ]
}

fn serve_layers(
    shape: &Shape,
    seed: u64,
    budget: Budget,
    reference: &mut Reference,
    m: &mut Metrics,
) -> (Report, Vec<Span>) {
    let fx = serve::Fixture::new(seed);
    let server = Server::start(serve::config(seed)).expect("start the bench server");
    corrected(reference, m, || {
        vec![(
            "serve.idle_rtt_ms",
            serve::idle_rtt_ms(server.addr(), &fx, 40),
        )]
    });
    let rounds = shape.blocks(budget.window_s);
    let rates = [serve::OPEN_RATE, serve::HI_RATE];
    let mut load = serve::load(&server, &fx, seed, rounds, &rates);
    m.insert("serve.rss_after_load_mb", host::peak_rss_kb() / 1024.0);
    server.shutdown();

    let report = Report {
        correct: load.failed == 0,
        attempted: load.attempted,
        failed: load.failed,
        ..Report::default()
    };
    let sorted = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        v.clone()
    };
    let mean_batch = |(requests, batches): (u64, u64)| requests as f64 / batches.max(1) as f64;
    m.insert("serve.mean_batch_open", mean_batch(load.open_batches));
    m.insert("serve.mean_batch_sat", mean_batch(load.sat_batches));
    m.insert(
        "serve.latency_p95_ms",
        quantile_sorted(&sorted(&mut load.latency_ms[0]), 0.95),
    );
    m.insert(
        "serve.lateness_p95_ms",
        quantile_sorted(&sorted(&mut load.lateness_ms), 0.95),
    );
    m.insert("serve.latency_hi_ms", median(&mut load.latency_ms[1]));
    m.insert(
        "serve.rejected_share",
        load.rejected as f64 / load.attempted as f64,
    );
    m.insert("bench.block_spread", spread_or_zero(&mut load.sat_batch_s));
    m.insert("bench.host_ref_ms", median(&mut load.reference_s) * 1e3);

    // One span tree per open-loop request at the nominal rate.
    let mut tracer = Tracer::new();
    for (op, (segment_start_s, s)) in load.stamps.iter().enumerate() {
        let ns = |t: f64| ((segment_start_s + t) * 1e9) as u64;
        let op = op as u64;
        let root = tracer.push("request", ns(s.due), ns(s.done), None, op);
        tracer.push("generator_late", ns(s.due), ns(s.sent), Some(root), op);
        tracer.push("server_rtt", ns(s.sent), ns(s.done), Some(root), op);
    }

    corrected(reference, m, || serve_static_probes(seed, &fx));
    let graph = build_global_graph(&shape.mesh());
    corrected(reference, m, || kernel_probes(shape, &graph));
    corrected(reference, m, || predict_probes(shape, seed, graph));
    (report, tracer.spans().to_vec())
}

/// In-process inference on the served mesh, in milliseconds: what one
/// request costs below the serving plane, alone and in a stacked batch.
fn predict_probes(shape: &Shape, seed: u64, graph: LocalGraph) -> Timings {
    let graph = Arc::new(graph);
    let ctx = HaloContext::single(LoopbackBackend::comm());
    let trainer = Trainer::new(shape.config, seed, 1e-3, ctx);
    let field = field();
    let samples: Vec<RankData> = (0..8)
        .map(|k| {
            RankData::tgv_autoencode(
                Arc::clone(&graph),
                &field,
                sample_time(seed) + 0.01 * k as f64,
            )
        })
        .collect();
    let batch: Vec<&RankData> = samples.iter().collect();
    vec![
        (
            "core.predict_ms",
            median_us(1, 7, || {
                drop(std::hint::black_box(trainer.predict(&samples[0])))
            }) * 1e-3,
        ),
        (
            "core.predict_batch8_ms_per_sample",
            median_us(1, 3, || {
                drop(std::hint::black_box(trainer.predict_batch(&batch)))
            }) * 1e-3
                / batch.len() as f64,
        ),
    ]
}

/// The serving plane's fixed costs: start, and the HTTP and frame codecs
/// on a `/predict`-sized message.
fn serve_static_probes(seed: u64, fx: &serve::Fixture) -> Timings {
    let mut starts: Vec<f64> = (0..3).map(|_| serve::bring_up(seed, fx).0 * 1e3).collect();

    let body = &fx.bodies[0];
    let mut wire = format!(
        "POST /predict HTTP/1.1\r\nHost: cgnn-serve\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    wire.extend_from_slice(body);
    let http_parse_us = median_us(3, 101, || {
        let parsed = http::read_request(&mut Cursor::new(&wire)).expect("well-formed request");
        assert!(matches!(parsed, ReadOutcome::Request(_)));
    });
    let response = Response::octets(200, fx.expected[0].clone());
    let mut sink = Vec::with_capacity(wire.len() + 256);
    let http_write_us = median_us(3, 101, || {
        sink.clear();
        http::write_response(&mut sink, &response, true).expect("write to memory");
    });
    let codec_us = median_us(3, 101, || {
        let values = http::decode_f64(body).expect("whole f64 frame");
        std::hint::black_box(http::encode_f64(&values));
    });
    vec![
        ("serve.start_ms", median(&mut starts)),
        ("serve.http_parse_us", http_parse_us),
        ("serve.http_write_us", http_write_us),
        ("serve.codec_us", codec_us),
    ]
}
