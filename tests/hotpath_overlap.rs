//! Hot-path invariants: only the overlapped mode opens an exchange window,
//! and its split-phase finish equals the blocking exchange; the trainer's
//! reused tape workspace replays bit-identically to a fresh one across
//! checkpoint boundaries. That Ovl-SR trains the same bits as every other
//! consistent mode, on both backends, is `tests/consistency.rs`.

use std::sync::Arc;

use cgnn::core::halo_sync;
use cgnn::prelude::*;

/// The split-phase entry point belongs to the overlapped mode alone: every
/// other mode's `begin` posts nothing and returns `None`, and Ovl-SR's
/// `begin` + `finish` leaves the tensor **bit-equal** to its blocking
/// `exchange` (same payloads, same neighbour accumulation order).
#[test]
fn only_overlapped_begins_and_its_finish_equals_exchange() {
    let mesh = BoxMesh::new((4, 4, 2), 1, (1.0, 1.0, 1.0), false);
    let part = Partition::new(&mesh, 4, Strategy::Pencil);
    let graphs = Arc::new(build_distributed_graph(&mesh, &part));
    for mode in HaloExchangeMode::all() {
        let graphs = Arc::clone(&graphs);
        let per_rank = World::run(4, move |comm| {
            let g = &graphs[comm.rank()];
            let ctx = HaloContext::new(comm.clone(), g, mode);
            let a = Tensor::from_fn(g.n_local(), 3, |r, c| (g.gids[r] as f64 + c as f64).sin());
            comm.stats_reset();
            let pending = ctx.begin(&a, g);
            let posted = comm.stats_snapshot();
            let mut blocking = a.clone();
            ctx.exchange(&mut blocking, g);
            let split = pending.map(|pending| {
                let mut out = a.clone();
                pending.finish(&mut out, g);
                out.data().to_vec()
            });
            (posted, split, blocking.data().to_vec(), a.data().to_vec())
        });
        for (rank, (posted, split, blocking, a)) in per_rank.into_iter().enumerate() {
            if mode != HaloExchangeMode::Overlapped {
                assert_eq!(split, None, "{mode} rank {rank}: begin must be None");
                assert_eq!(posted, StatsSnapshot::default(), "{mode} rank {rank}");
                continue;
            }
            assert!(posted.sends > 0, "rank {rank}: Ovl-SR begin posted no send");
            assert_ne!(blocking, a, "rank {rank}: exchange left every row alone");
            assert_eq!(
                split,
                Some(blocking),
                "rank {rank}: begin + finish != exchange"
            );
        }
    }
}

/// The overlapped path splits work by the graph's interior/boundary rows;
/// those must partition the local rows and drive a non-identity halo sync.
#[test]
fn interior_boundary_rows_partition_local_rows() {
    let mesh = BoxMesh::new((4, 4, 2), 1, (1.0, 1.0, 1.0), false);
    let part = Partition::new(&mesh, 4, Strategy::Pencil);
    for g in build_distributed_graph(&mesh, &part) {
        g.validate();
        assert!(
            !g.boundary_rows.is_empty(),
            "every rank of this partition shares nodes"
        );
        assert!(
            g.interior_rows.len() + g.boundary_rows.len() == g.n_local(),
            "interior + boundary must cover local rows"
        );
    }
}

/// A trainer's reused (reset) tape replays bit-identically to a fresh
/// tape: stepping a live trainer matches stepping a freshly restored
/// twin, parameter for parameter, bit for bit.
#[test]
fn reused_tape_steps_match_fresh_trainer_bit_for_bit() {
    let mesh = BoxMesh::tgv_cube(2, 2);
    let field = TaylorGreen::new(0.01);
    let graph = Arc::new(cgnn::graph::build_global_graph(&mesh));
    let out = cgnn::comm::World::run(1, move |comm| {
        let data_of =
            |g: &Arc<LocalGraph>| cgnn::core::RankData::tgv_autoencode(Arc::clone(g), &field, 0.0);
        let mut live = Trainer::new(
            GnnConfig::small(),
            11,
            1e-3,
            HaloContext::single(comm.clone()),
        );
        let data = data_of(&graph);
        live.step(&data); // first step: pool filled
                          // Twin trainer restored to the post-step-1 state, with a *fresh*
                          // (empty-pool) tape.
        let mut twin = Trainer::new(
            GnnConfig::small(),
            11,
            1e-3,
            HaloContext::single(comm.clone()),
        );
        cgnn::tensor::restore_into(&mut twin.params, &live.params).expect("same architecture");
        twin.opt.set_state(live.opt.state().clone());
        // Second step: live uses its recycled workspace, twin a fresh one.
        let l1 = live.step(&data);
        let l2 = twin.step(&data);
        assert_eq!(l1, l2, "losses must match bit for bit");
        assert_eq!(live.params.flatten(), twin.params.flatten());
        // And a third round for good measure (twin's pool now warm too).
        assert_eq!(live.step(&data), twin.step(&data));
        assert_eq!(live.params.flatten(), twin.params.flatten());
    });
    drop(out);
}

/// `halo_sync` is still an identity for single-rank worlds (the overlap
/// restructuring must not have disturbed the R = 1 fast path).
#[test]
fn halo_sync_identity_at_r1() {
    cgnn::comm::World::run(1, |comm| {
        let mesh = BoxMesh::tgv_cube(2, 2);
        let g = Arc::new(cgnn::graph::build_global_graph(&mesh));
        let ctx = HaloContext::single(comm.clone());
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::from_fn(g.n_local(), 3, |r, c| (r + c) as f64));
        let out = halo_sync(&mut tape, a, &g, &ctx);
        assert_eq!(out, a, "R=1 sync must not even record a node");
    });
}
