//! The untraced run of one workload: set-up time over repeated cold
//! bring-ups, then the timed window, reported as the five end-to-end
//! metrics.

use std::time::Instant;

use cgnn_serve::Server;

use crate::host::{self, Reference};
use crate::report::Report;
use crate::stats::median;
use crate::workload::{Shape, SERVE};
use crate::{serve, train};

/// Wall time one block of bring-ups is sized to.
const SETUP_BLOCK_S: f64 = 0.1;

/// How long the phases of a run last on the reference box.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// The timed window (`--seconds`), which [`Shape::blocks`] turns into a
    /// fixed amount of work.
    pub window_s: f64,
    /// Least duration of the repeated-bring-up phase.
    pub setup_s: f64,
}

/// Seconds of one cold bring-up on the corrected clock, `once` returning
/// the seconds one took: the median over back-to-back blocks of bring-ups
/// lasting at least `min_s` (and at least three blocks), each block
/// between two reference readings. The first bring-up is discarded, it
/// alone pays first-touch page faults and lazy statics; the second sizes
/// the blocks.
pub fn repeated_setup_s(min_s: f64, mut once: impl FnMut() -> f64) -> f64 {
    let mut reference = Reference::new();
    once();
    let per_block = (SETUP_BLOCK_S / once()).ceil().max(1.0) as usize;
    let start = Instant::now();
    let mut readings = vec![reference.run()];
    let mut blocks = Vec::new();
    while blocks.len() < 3 || start.elapsed().as_secs_f64() < min_s {
        blocks.push((0..per_block).map(|_| once()).sum::<f64>());
        readings.push(reference.run());
    }
    let mut kept: Vec<f64> = blocks
        .iter()
        .zip(host::clock_scales(&readings))
        .map(|(block_s, scale)| block_s * scale / per_block as f64)
        .collect();
    median(&mut kept)
}

/// Run `shape`'s workload untraced.
pub fn end_to_end(shape: &Shape, seed: u64, budget: Budget) -> Report {
    if shape.name == SERVE {
        serve_end_to_end(shape, seed, budget)
    } else {
        train_end_to_end(shape, seed, budget)
    }
}

fn train_end_to_end(shape: &Shape, seed: u64, budget: Budget) -> Report {
    let setup_s = repeated_setup_s(budget.setup_s, || train::bring_up(shape, seed));
    let plan = train::WindowPlan {
        blocks: shape.blocks(budget.window_s),
        traced: false,
        reference: train::reference_losses(shape, seed),
    };
    let mut w = train::window(shape, seed, &plan);
    let mut report = Report {
        correct: w.correct,
        attempted: w.ops,
        failed: w.failed,
        ..Report::default()
    };
    let m = &mut report.metrics;
    m.insert("throughput_per_s", 1.0 / median(&mut w.block_step_s));
    m.insert("latency_ms", median(&mut w.step_s) * 1e3);
    m.insert("cpu_ms_per_op", median(&mut w.cpu_step_s) * 1e3);
    m.insert("peak_rss_mb", w.rss_kb / 1024.0);
    m.insert("setup_s", setup_s);
    report
}

fn serve_end_to_end(shape: &Shape, seed: u64, budget: Budget) -> Report {
    let fx = serve::Fixture::new(seed);
    let setup_s = repeated_setup_s(budget.setup_s, || serve::bring_up(seed, &fx).1);
    let server = Server::start(serve::config(seed)).expect("start the bench server");
    serve::idle_rtt_ms(server.addr(), &fx, 16);
    let rounds = shape.blocks(budget.window_s);
    let mut load = serve::load(&server, &fx, seed, rounds, &[serve::OPEN_RATE]);
    server.shutdown();

    let mut report = Report {
        correct: load.failed == 0,
        attempted: load.attempted,
        failed: load.failed,
        ..Report::default()
    };
    let m = &mut report.metrics;
    m.insert(
        "throughput_per_s",
        serve::MAX_BATCH as f64 / median(&mut load.sat_batch_s),
    );
    m.insert("latency_ms", median(&mut load.latency_ms[0]));
    // CPU per request at the nominal rate: at saturation it is just
    // cores / throughput, while here idle polling and batch waits show.
    m.insert("cpu_ms_per_op", median(&mut load.open_cpu_ms));
    m.insert("peak_rss_mb", load.first_round_rss_kb / 1024.0);
    m.insert("setup_s", setup_s);
    report
}
