//! The three training workloads: cold bring-ups, the consistency check,
//! and the timed window of fixed-size blocks.
//!
//! Everything that runs inside a world goes through [`launch`], which
//! gives each launch its own `reexec_scope`: on `Backend::Proc` the rank
//! children re-run this binary with exactly the arguments of the launch
//! they belong to ([`rank_entry`]) and join it directly, instead of
//! replaying every earlier launch of the run.

use std::sync::Arc;
use std::time::Instant;

use cgnn_comm::reexec_scope;
use cgnn_core::halo_exchange_apply;
use cgnn_partition::Strategy;
use cgnn_session::{RankHandle, Session};
use cgnn_tensor::Tensor;

use crate::host;
use crate::staged::StagedStep;
use crate::stats::median_us;
use crate::trace::{Span, Tracer};
use crate::workload::{field, sample_time, shape, Shape};

/// Steps compared against the R = 1 run (and run untimed as warm-up).
pub const CHECK_STEPS: usize = 5;
/// Relative loss agreement the paper's consistency claim is held to.
const CONSISTENCY_TOL: f64 = 1e-9;

/// The workload's session: mesh → partition → per-rank graphs.
pub fn session(shape: &Shape, seed: u64) -> Session {
    Session::builder()
        .mesh(shape.mesh())
        // Slabs along the first axis: two elements there make each of
        // two ranks one element thick.
        .partition(Strategy::Slab)
        .ranks(shape.ranks)
        .exchange(shape.mode)
        .backend(shape.backend)
        .model(shape.config)
        .seed(seed)
        .build()
        .expect("every workload shape has at least one element per rank")
}

/// What a `Backend::Proc` rank child of launch `kind` is re-exec'd with:
/// the way back here through [`rank_entry`].
fn rank_args(kind: &str, shape: &Shape, seed: u64, extra: [String; 2]) -> [String; 6] {
    let [a, b] = extra;
    [
        "__rank".to_string(),
        kind.to_string(),
        shape.name.to_string(),
        seed.to_string(),
        a,
        b,
    ]
}

/// Build `shape`'s session and run `f` on its ranks, returning rank 0's
/// result.
fn launch<T: Send>(
    shape: &Shape,
    seed: u64,
    kind: &str,
    extra: [String; 2],
    f: impl Fn(&mut RankHandle) -> T + Sync,
) -> T {
    let session = session(shape, seed);
    let _scope = reexec_scope(rank_args(kind, shape, seed, extra));
    session
        .run(f)
        .into_iter()
        .next()
        .expect("a launch returns rank 0's result")
}

/// Entry of a re-exec'd rank process: `args` are the ones [`launch`]
/// scoped (after `__rank`). Rebuilds the same session, joins the launch,
/// and exits inside it.
pub fn rank_entry(args: &[String]) -> ! {
    let parsed = (|| {
        let [kind, workload, seed, a, b] = args else {
            return None;
        };
        Some((
            kind.as_str(),
            shape(workload)?,
            seed.parse::<u64>().ok()?,
            a,
            b,
        ))
    })();
    let Some((kind, shape, seed, a, b)) = parsed else {
        eprintln!("sysbench: malformed rank arguments {args:?}");
        std::process::exit(2);
    };
    match kind {
        "window" => {
            let plan = WindowPlan {
                blocks: a.parse().expect("window blocks"),
                traced: b == "1",
                reference: Vec::new(),
            };
            window(&shape, seed, &plan);
        }
        "bring_up" => {
            bring_up(&shape, seed);
        }
        "probes" => {
            world_probes(&shape, seed);
        }
        "empty" => {
            empty_launch(&shape, seed);
        }
        _ => {}
    }
    // A joined launch exits the process; returning means this was not one.
    eprintln!("sysbench: rank process fell through launch `{kind}`");
    std::process::exit(2);
}

/// The first [`CHECK_STEPS`] losses of the un-partitioned run of `shape`:
/// what a consistent distributed run must reproduce. Empty for a workload
/// that is not partitioned.
pub fn reference_losses(shape: &Shape, seed: u64) -> Vec<f64> {
    if shape.ranks == 1 {
        return Vec::new();
    }
    let single = Shape {
        ranks: 1,
        backend: cgnn_comm::Backend::Threads,
        ..*shape
    };
    launch(&single, seed, "reference", Default::default(), |h| {
        let data = h.autoencode_data(&field(), sample_time(seed));
        h.train(&data, CHECK_STEPS)
    })
}

/// What one timed window is asked to do.
pub struct WindowPlan {
    /// Timed blocks of [`Shape::block_steps`] steps each.
    pub blocks: usize,
    /// Alternate staged (traced) and plain blocks instead of plain only.
    pub traced: bool,
    /// R = 1 losses the warm-up must match; empty skips the comparison
    /// (single-rank workloads, and rank children, which are not rank 0).
    pub reference: Vec<f64>,
}

/// Rank 0's account of a window. Times are on the corrected clock
/// ([`host::clock_scales`] of the reference readings around the blocks).
#[derive(Default)]
pub struct WindowOut {
    /// Steps in timed blocks.
    pub ops: u64,
    /// Steps whose loss was not finite.
    pub failed: u64,
    /// Warm-up matched the reference and all ranks saw bit-equal losses.
    pub correct: bool,
    /// Seconds per step of each plain block.
    pub block_step_s: Vec<f64>,
    /// Seconds of each plain `RankHandle::step`.
    pub step_s: Vec<f64>,
    /// Seconds of each staged step (traced windows only).
    pub staged_step_s: Vec<f64>,
    /// CPU seconds per step of each block, over every process of the world.
    pub cpu_step_s: Vec<f64>,
    /// Summed peak resident set (KiB) of every process of the world after
    /// the window (a fixed number of ops, so it repeats).
    pub rss_kb: f64,
    /// Spans of the staged steps, on the raw clock.
    pub spans: Vec<Span>,
    /// Clock correction of each staged step, in op order.
    pub staged_scale: Vec<f64>,
    /// Messages, payload bytes and all-reduces per step, from
    /// `Comm::stats_snapshot` deltas over the blocks.
    pub comm_per_step: [f64; 3],
    /// The reference readings, one before each block and one after the last.
    pub reference_s: Vec<f64>,
}

/// Run one window of `shape` and return rank 0's account.
pub fn window(shape: &Shape, seed: u64, plan: &WindowPlan) -> WindowOut {
    let extra = [plan.blocks.to_string(), u8::from(plan.traced).to_string()];
    launch(shape, seed, "window", extra, |h| {
        rank_window(h, seed, plan, shape.block_steps)
    })
}

fn rank_window(h: &mut RankHandle, seed: u64, plan: &WindowPlan, spb: usize) -> WindowOut {
    let comm = h.comm().clone();
    let data = h.autoencode_data(&field(), sample_time(seed));
    let mut out = WindowOut::default();

    // Warm-up doubling as the consistency check: these are the first steps
    // of a freshly seeded trainer, so they must equal the R = 1 run's.
    let warm = h.train(&data, CHECK_STEPS);
    out.correct = warm.iter().all(|l| l.is_finite())
        && (plan.reference.is_empty()
            || warm.len() == plan.reference.len()
                && warm
                    .iter()
                    .zip(&plan.reference)
                    .all(|(a, b)| (a - b).abs() <= CONSISTENCY_TOL * b.abs()));
    let mut loss_bits = warm
        .iter()
        .fold(0u64, |h, l| h.rotate_left(1) ^ l.to_bits());

    // Rank 0 reads the host's speed between blocks while its peers wait
    // at a barrier, off the CPU they share with it.
    let mut reference = (comm.rank() == 0).then(host::Reference::new);
    let mut read_reference = |out: &mut WindowOut| {
        comm.barrier();
        if let Some(r) = reference.as_mut() {
            out.reference_s.push(r.run());
        }
        comm.barrier();
    };
    let mut staged = StagedStep::default();
    let mut tracer = Tracer::new();
    let mut traffic = [0u64; 3];
    // Raw per-block records: (staged, wall seconds of each step, CPU seconds).
    let mut blocks: Vec<(bool, Vec<f64>, f64)> = Vec::with_capacity(plan.blocks);
    for block in 0..plan.blocks {
        read_reference(&mut out);
        let staged_block = plan.traced && block % 2 == 0;
        let before = comm.stats_snapshot();
        let cpu0 = host::process_cpu_s();
        let steps = (0..spb)
            .map(|_| {
                let t = Instant::now();
                let loss = if staged_block {
                    staged.step(h.trainer_mut(), &data, &mut tracer)
                } else {
                    h.step(&data)
                };
                out.failed += u64::from(!loss.is_finite());
                loss_bits = loss_bits.rotate_left(1) ^ loss.to_bits();
                t.elapsed().as_secs_f64()
            })
            .collect();
        blocks.push((staged_block, steps, host::process_cpu_s() - cpu0));
        let after = comm.stats_snapshot();
        traffic[0] += (after.a2a_messages + after.sends) - (before.a2a_messages + before.sends);
        traffic[1] += after.total_bytes() - before.total_bytes();
        traffic[2] += after.all_reduces - before.all_reduces;
    }
    read_reference(&mut out);
    out.ops = (plan.blocks * spb) as u64;
    out.comm_per_step = traffic.map(|t| t as f64 / out.ops as f64);
    out.spans = tracer.spans().to_vec();

    // One gather closes the window: every rank's loss trajectory (as two
    // exactly representable halves), peak RSS, process, and CPU per block.
    let mut mine = vec![
        (loss_bits >> 32) as f64,
        (loss_bits & 0xffff_ffff) as f64,
        host::peak_rss_kb(),
        f64::from(std::process::id()),
    ];
    mine.extend(blocks.iter().map(|b| b.2));
    let parts = comm.all_gather(mine);
    out.correct &= parts.iter().all(|p| p[..2] == parts[0][..2]);
    // Thread ranks share one process: count each process once.
    let mut processes: Vec<&Vec<f64>> = Vec::new();
    for p in &parts {
        if !processes.iter().any(|q| q[3] == p[3]) {
            processes.push(p);
        }
    }
    out.rss_kb = processes.iter().map(|p| p[2]).sum();
    if comm.rank() != 0 {
        return out;
    }
    let scales = host::clock_scales(&out.reference_s);
    for (i, ((staged_block, steps, _), scale)) in blocks.iter().zip(scales).enumerate() {
        let cpu_s: f64 = processes.iter().map(|p| p[4 + i]).sum();
        out.cpu_step_s.push(cpu_s * scale / spb as f64);
        if *staged_block {
            out.staged_step_s.extend(steps.iter().map(|s| s * scale));
            out.staged_scale.extend(std::iter::repeat_n(scale, spb));
        } else {
            out.block_step_s
                .push(steps.iter().sum::<f64>() * scale / spb as f64);
            out.step_s.extend(steps.iter().map(|s| s * scale));
        }
    }
    out
}

/// One cold bring-up, timed: mesh → partition → graphs → `Session::build`
/// → world launch with trainers constructed and the first sample
/// materialised on every rank → teardown.
pub fn bring_up(shape: &Shape, seed: u64) -> f64 {
    let t = Instant::now();
    launch(shape, seed, "bring_up", Default::default(), |h| {
        let data = h.autoencode_data(&field(), sample_time(seed));
        std::hint::black_box(data.x.len());
        h.comm().barrier();
    });
    t.elapsed().as_secs_f64()
}

/// The comm and exchange layers probed inside the workload's world, on
/// its transport; rank 0's timings. For workloads with peers.
pub fn world_probes(shape: &Shape, seed: u64) -> Vec<(&'static str, f64)> {
    launch(shape, seed, "probes", Default::default(), rank_world_probes)
}

fn rank_world_probes(h: &mut RankHandle) -> Vec<(&'static str, f64)> {
    let comm = h.comm().clone();
    let graph = Arc::clone(h.graph());
    let trainer = h.trainer();
    let hidden = trainer.model.config.hidden;
    let peer = 1 - comm.rank().min(1);
    let halo_vals = graph.halo.halo_count() * hidden;
    let aggregates = Tensor::from_fn(graph.n_local(), hidden, |r, c| (r + c) as f64 * 1e-3);
    let mut grads = vec![1.0; trainer.params.num_scalars()];

    let exchange_us = median_us(5, 100, || {
        std::hint::black_box(halo_exchange_apply(&aggregates, &graph, &trainer.ctx));
    });
    let barrier_us = median_us(5, 200, || comm.barrier());
    let allreduce_us = median_us(3, 50, || comm.all_reduce_sum(&mut grads));
    let a2a_us = median_us(5, 100, || {
        let mut send = vec![Vec::new(); comm.size()];
        send[peer] = vec![0.5; halo_vals];
        std::hint::black_box(comm.all_to_all(send));
    });
    // Ping-pong between ranks 0 and 1 with a halo-sized payload.
    let p2p_rtt_us = median_us(5, 100, || match comm.rank() {
        0 => {
            comm.send(1, 7, vec![0.5; halo_vals]);
            std::hint::black_box(comm.recv(1, 7));
        }
        1 => comm.send(0, 7, comm.recv(0, 7)),
        _ => {}
    });
    vec![
        ("core.exchange_us", exchange_us),
        ("comm.barrier_us", barrier_us),
        ("comm.allreduce_us", allreduce_us),
        ("comm.a2a_us", a2a_us),
        ("comm.p2p_rtt_us", p2p_rtt_us),
    ]
}

/// Milliseconds to launch the workload's world around a lone barrier and
/// tear it down again (threads spawned, or processes re-exec'd and the
/// socket mesh dialled).
pub fn empty_launch(shape: &Shape, seed: u64) -> f64 {
    let t = Instant::now();
    let _scope = reexec_scope(rank_args("empty", shape, seed, Default::default()));
    shape.backend.launch(shape.ranks, |comm| comm.barrier());
    t.elapsed().as_secs_f64() * 1e3
}
