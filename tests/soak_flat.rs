//! Soak test of the tape workspace: the pool is closed (it takes back only
//! what it handed out), so the memory a trainer parks between steps — and
//! with it the process's resident set and the step time — is flat however
//! long it runs and whatever mix of training, evaluation and inference
//! shares the tape.

use std::sync::Arc;
use std::time::Instant;

mod common;
use common::rss_kb;

use cgnn::comm::World;
use cgnn::core::{GnnConfig, HaloContext, HaloExchangeMode, RankData, Trainer};
use cgnn::graph::{build_distributed_graph, build_global_graph, LocalGraph};
use cgnn::mesh::{BoxMesh, TaylorGreen};
use cgnn::partition::{Partition, Strategy};

/// `(world size, exchange mode)`: one rank, two thread ranks on the
/// collective N-A2A plan, two on the split-phase Ovl-SR plan (row-masked
/// recording, in-place completion).
const CONFIGS: [(usize, HaloExchangeMode); 3] = [
    (1, HaloExchangeMode::NeighborAllToAll),
    (2, HaloExchangeMode::NeighborAllToAll),
    (2, HaloExchangeMode::Overlapped),
];

/// What one rank observed right after one training step.
#[derive(Clone, Copy)]
struct Sample {
    /// `Trainer::pooled_len`.
    parked: usize,
    step_secs: f64,
    /// Resident set of the whole process (`None` off Linux).
    rss_kb: Option<u64>,
}

/// Train `steps` steps per rank; after every step, sample, then run an
/// evaluation and a prediction on the same tape. Returns one trace per
/// rank.
fn soak(world: usize, mode: HaloExchangeMode, config: GnnConfig, steps: usize) -> Vec<Vec<Sample>> {
    let mesh = BoxMesh::tgv_cube(2, 2);
    let field = TaylorGreen::new(0.01);
    let graphs: Vec<LocalGraph> = if world == 1 {
        vec![build_global_graph(&mesh)]
    } else {
        build_distributed_graph(&mesh, &Partition::new(&mesh, world, Strategy::Slab))
    };
    let graphs: Arc<Vec<Arc<LocalGraph>>> = Arc::new(graphs.into_iter().map(Arc::new).collect());
    World::run(world, move |comm| {
        let g = Arc::clone(&graphs[comm.rank()]);
        let ctx = HaloContext::new(comm.clone(), &g, mode);
        let mut trainer = Trainer::new(config, 7, 1e-3, ctx);
        let a = RankData::tgv_autoencode(Arc::clone(&g), &field, 0.0);
        let b = RankData::tgv_autoencode(g, &field, 0.1);
        (0..steps)
            .map(|_| {
                let t = Instant::now();
                trainer.step(&a);
                let sample = Sample {
                    parked: trainer.pooled_len(),
                    step_secs: t.elapsed().as_secs_f64(),
                    rss_kb: rss_kb(),
                };
                trainer.eval_loss(&b);
                trainer.predict(&a);
                sample
            })
            .collect()
    })
}

#[test]
fn parked_workspace_is_exactly_flat_from_step_3_to_step_60() {
    for (world, mode) in CONFIGS {
        for (rank, trace) in soak(world, mode, GnnConfig::small(), 60).iter().enumerate() {
            assert!(trace[2].parked > 0, "R={world} {mode}: nothing pooled");
            assert_eq!(
                trace[59].parked, trace[2].parked,
                "R={world} {mode} rank {rank}: parked f64s after step 60 vs after step 3"
            );
        }
    }
}

/// The backward's working set, pinned: what the pool parks after step 3
/// at R = 1 is the high-water mark of one step's scratch and adjoints
/// beyond the forward values the tape still holds. An interior adjoint
/// goes back to the pool once its node has been propagated and is taken
/// again by the next request of its length, so only the adjoints live at
/// the same time count; kept to the end of the step they parked 131 910
/// (small) and 823 206 (large) `f64`s. The linear adjoints stream their
/// `elu'`-scaled adjoint one row block at a time instead of storing it
/// whole, which took the pin from 19 398 / 151 270 to 17 686 / 147 590.
/// Passing adjoints on in place took it to these values: the layer
/// norm's residual takes the adjoint itself instead of a copy, an `h → h`
/// linear writes its input adjoint over its output adjoint, the streamed
/// part of `gather_linear`, the node MLP's `x` block and the aggregation's
/// gathered rows add into the adjoint that already exists, and the node
/// MLP's input layer reads `[a* | x]` as column blocks, so no `[N, 2h]`
/// adjoint of a concatenation exists; that parked 15 429 / 132 901.
/// These values are lower because the parameter gradients left the pool:
/// they sit in the tape's gradient bucket (4 003 / 91 555 `f64`s, parked
/// beside the pool), weight gradients accumulating there directly, so the
/// pool's high-water mark fell by 3 704 / 90 368. The layer-norm adjoint
/// computes `x̂` again for `dx` instead of parking four rows of it in a
/// pooled `[4, h]` scratch, which took the pin from 11 725 / 42 533 down
/// by exactly those 32 / 128 `f64`s.
#[test]
fn backward_working_set_is_pinned() {
    for (name, config, pinned) in [
        ("small", GnnConfig::small(), 11_693),
        ("large", GnnConfig::large(), 42_405),
    ] {
        let trace = &soak(1, HaloExchangeMode::NeighborAllToAll, config, 3)[0];
        assert_eq!(trace[2].parked, pinned, "{name}: parked f64s after step 3");
    }
}

/// Every `f64` a fresh trainer's tape holds after one `predict` at R = 1
/// on the soak's mesh.
fn inference_working_set(config: GnnConfig) -> usize {
    let mesh = BoxMesh::tgv_cube(2, 2);
    let g = Arc::new(build_global_graph(&mesh));
    let field = TaylorGreen::new(0.01);
    let held = World::run(1, move |comm| {
        let ctx = HaloContext::single(comm.clone());
        let trainer = Trainer::new(config, 7, 1e-3, ctx);
        trainer.predict(&RankData::tgv_autoencode(Arc::clone(&g), &field, 0.0));
        trainer.held_len()
    });
    held[0]
}

/// The inference working set, pinned beside the backward's: a forward-only
/// pass gives every interior value back to the pool at each layer boundary
/// but the `(x, e)` the next layer reads, so it holds one layer's values
/// and the decoder's. Holding the whole forward until the
/// next reset, the same pass held 104 355 (small) and 704 931 (large)
/// `f64`s; with the layer-boundary release 30 115 / 229 795. These values
/// are lower again because the input features are shared with the
/// `RankData` instead of copied onto the tape, and the node MLP's input
/// layer reads `[a* | x]` as column blocks instead of storing their
/// `[N, 2h]` concatenation: 27 235 / 224 163. They are lower again, by
/// exactly the parameters (4 003 / 91 555 `f64`s), because binding the
/// parameters no longer copies them onto the tape.
#[test]
fn inference_working_set_is_pinned() {
    for (name, config, pinned) in [
        ("small", GnnConfig::small(), 23_232),
        ("large", GnnConfig::large(), 132_608),
    ] {
        let held = inference_working_set(config);
        assert_eq!(held, pinned, "{name}: f64s held after a fresh predict");
    }
}

fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// The long form: over 2 000 steps the parked length stays exact, the
/// resident set stays within a few allocator pages' worth of where it was
/// at step 100, and the median step time of the last block is that of the
/// first.
#[test]
#[ignore = "release soak: cargo test --release --test soak_flat -- --ignored"]
fn two_thousand_steps_keep_rss_and_step_time_flat() {
    const STEPS: usize = 2000;
    const BLOCK: usize = 200;
    for (world, mode) in CONFIGS {
        for (rank, trace) in soak(world, mode, GnnConfig::small(), STEPS)
            .iter()
            .enumerate()
        {
            let what = format!("R={world} {mode} rank {rank}");
            assert_eq!(trace[STEPS - 1].parked, trace[2].parked, "{what}: parked");
            if let (Some(early), Some(late)) = (trace[99].rss_kb, trace[STEPS - 1].rss_kb) {
                assert!(
                    late <= early + 8 * 1024,
                    "{what}: VmRSS grew from {early} kB at step 100 to {late} kB"
                );
            }
            let block = |from: usize| median(trace[from..from + BLOCK].iter().map(|s| s.step_secs));
            let (first, last) = (block(100), block(STEPS - BLOCK));
            println!(
                "{what}: parked {}, VmRSS {:?} -> {:?} kB, step {first:.6} -> {last:.6} s",
                trace[2].parked,
                trace[99].rss_kb,
                trace[STEPS - 1].rss_kb
            );
            assert!(
                last <= 1.5 * first,
                "{what}: block-median step time {first:.6} s -> {last:.6} s"
            );
        }
    }
}
