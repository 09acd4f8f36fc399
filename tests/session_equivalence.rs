//! Equivalence of the `Session` builder front-end with the hand-wired SPMD
//! path it replaced: for every halo exchange strategy, a builder-constructed
//! session must reproduce the hand-wired loss trajectory **bit for bit**
//! (same mesh -> partition -> graph -> context -> trainer wiring, same
//! deterministic collectives), and the new coalesced strategy must be
//! arithmetically identical to N-A2A.

use std::sync::Arc;

use cgnn::prelude::*;

const SEED: u64 = 31;
const ITERS: usize = 12;
const LR: f64 = 1e-3;

fn mesh() -> BoxMesh {
    BoxMesh::new((4, 4, 4), 1, (1.0, 1.0, 1.0), false)
}

/// The pre-session wiring, verbatim: partition by hand, build graphs by
/// hand, construct `HaloContext` and `Trainer` inside the SPMD closure.
fn hand_wired(ranks: usize, mode: HaloExchangeMode) -> Vec<Vec<f64>> {
    let mesh = mesh();
    let field = TaylorGreen::new(0.01);
    if ranks == 1 {
        let global = Arc::new(build_global_graph(&mesh));
        return World::run(1, move |comm| {
            let ctx = HaloContext::single(comm.clone());
            let mut trainer = Trainer::new(GnnConfig::small(), SEED, LR, ctx);
            let data = RankData::tgv_autoencode(Arc::clone(&global), &field, 0.0);
            trainer.train(&data, ITERS)
        });
    }
    let part = Partition::new(&mesh, ranks, Strategy::Block);
    let graphs: Arc<Vec<Arc<LocalGraph>>> = Arc::new(
        build_distributed_graph(&mesh, &part)
            .into_iter()
            .map(Arc::new)
            .collect(),
    );
    World::run(ranks, move |comm| {
        let g = Arc::clone(&graphs[comm.rank()]);
        let ctx = HaloContext::new(comm.clone(), &g, mode);
        let mut trainer = Trainer::new(GnnConfig::small(), SEED, LR, ctx);
        let data = RankData::tgv_autoencode(g, &field, 0.0);
        trainer.train(&data, ITERS)
    })
}

fn session(ranks: usize, mode: HaloExchangeMode) -> Vec<Vec<f64>> {
    Session::builder()
        .mesh(mesh())
        .partition(Strategy::Block)
        .ranks(ranks)
        .exchange(mode)
        .model(GnnConfig::small())
        .seed(SEED)
        .learning_rate(LR)
        .build()
        .expect("session")
        .train_autoencode(&TaylorGreen::new(0.01), 0.0, ITERS)
}

/// Cross-backend equivalence: for every halo-exchange strategy, training
/// trajectories are **bit-identical** under the thread world and the
/// deterministic serial backend. The reduction arithmetic lives in the
/// `Comm` layer above the transport, so no backend can perturb it — this
/// suite is the executable form of that claim.
#[test]
fn backends_are_bit_identical_for_all_modes() {
    // Bit-identity either holds from the first reduction or not at all, so
    // a short trajectory suffices (the serial backend runs fully
    // single-stepped, so this also bounds suite wall-clock).
    for mode in HaloExchangeMode::all() {
        let per_backend: Vec<Vec<Vec<f64>>> = Backend::all()
            .into_iter()
            .map(|backend| {
                Session::builder()
                    .mesh(mesh())
                    .partition(Strategy::Block)
                    .ranks(8)
                    .exchange(mode)
                    .backend(backend)
                    .model(GnnConfig::small())
                    .seed(SEED)
                    .learning_rate(LR)
                    .build()
                    .expect("session")
                    .train_autoencode(&TaylorGreen::new(0.01), 0.0, 5)
            })
            .collect();
        assert_eq!(
            per_backend[0], per_backend[1],
            "mode {mode}: thread and serial trajectories differ"
        );
    }
}

/// Builder sessions reproduce the hand-wired trajectories bit-identically
/// for every built-in strategy (the four paper modes + the coalesced and
/// overlapped extensions), at R = 8.
#[test]
fn session_matches_hand_wired_path_for_all_modes() {
    for mode in HaloExchangeMode::all() {
        let reference = hand_wired(8, mode);
        let through_builder = session(8, mode);
        assert_eq!(
            reference, through_builder,
            "mode {mode}: builder and hand-wired trajectories differ"
        );
    }
}

/// Same equivalence for the un-partitioned R = 1 path (`HaloContext::single`).
#[test]
fn session_matches_hand_wired_path_single_rank() {
    let reference = hand_wired(1, HaloExchangeMode::None);
    let through_builder = session(1, HaloExchangeMode::None);
    assert_eq!(reference, through_builder);
}

/// The coalesced all-gather strategy ships the same payloads in the same
/// accumulation order as N-A2A, so entire training trajectories must be
/// **bit-identical** — only the traffic pattern differs.
#[test]
fn coalesced_is_arithmetically_identical_to_neighbor_a2a() {
    for ranks in [2usize, 4, 8] {
        let na2a = session(ranks, HaloExchangeMode::NeighborAllToAll);
        let coal = session(ranks, HaloExchangeMode::Coalesced);
        assert_eq!(
            na2a, coal,
            "R={ranks}: coalesced and N-A2A trajectories must be bit-identical"
        );
    }
}

/// The overlapped exchange reorders the communication schedule onto the
/// non-blocking API without touching payloads or accumulation order, so
/// entire training trajectories must be **bit-identical** to Send-Recv.
#[test]
fn overlapped_is_arithmetically_identical_to_send_recv() {
    for ranks in [2usize, 4, 8] {
        let sr = session(ranks, HaloExchangeMode::SendRecv);
        let ovl = session(ranks, HaloExchangeMode::Overlapped);
        assert_eq!(
            sr, ovl,
            "R={ranks}: overlapped and Send-Recv trajectories must be bit-identical"
        );
    }
}

/// The collective and the point-to-point plans ship the same payloads and
/// accumulate them in the same neighbour order: A2A, N-A2A and Send-Recv
/// train the same bits. With the two tests above that closes the chain —
/// every consistent mode is bit-identical to every other at each R.
#[test]
fn collective_and_point_to_point_plans_are_arithmetically_identical() {
    for ranks in [2usize, 4, 8] {
        let na2a = session(ranks, HaloExchangeMode::NeighborAllToAll);
        for mode in [HaloExchangeMode::AllToAll, HaloExchangeMode::SendRecv] {
            assert_eq!(
                na2a,
                session(ranks, mode),
                "R={ranks}: {mode} and N-A2A trajectories must be bit-identical"
            );
        }
    }
}

/// The configured mode is kept at R = 1 (no silent substitution of
/// `none`): session and handle both report it, while the arithmetic still
/// matches the hand-wired single-rank path because the halo sync is an
/// identity on one rank.
#[test]
fn configured_mode_is_kept_at_single_rank() {
    let s = Session::builder()
        .mesh(mesh())
        .ranks(1)
        .exchange(HaloExchangeMode::Overlapped)
        .seed(SEED)
        .learning_rate(LR)
        .build()
        .expect("session");
    assert_eq!(s.exchange_label(), "Ovl-SR");
    let labels = s.run(|h| (h.exchange_label(), h.trainer().ctx.label()));
    assert_eq!(
        labels,
        vec![("Ovl-SR", "Ovl-SR")],
        "mode must be kept at R = 1"
    );
    let histories = s.train_autoencode(&TaylorGreen::new(0.01), 0.0, ITERS);
    assert_eq!(
        vec![histories[0].clone()],
        hand_wired(1, HaloExchangeMode::None),
        "R = 1 arithmetic is exchange-independent"
    );
}

/// Session, handle and context report one and the same mode for every
/// built-in mode, at R = 1 and R = 8: the handle reads its label from the
/// trainer's context, which keeps the mode it was built with.
#[test]
fn every_mode_is_reported_by_session_handle_and_context() {
    for ranks in [1usize, 8] {
        for mode in HaloExchangeMode::all() {
            let s = Session::builder()
                .mesh(mesh())
                .partition(Strategy::Block)
                .ranks(ranks)
                .exchange(mode)
                .build()
                .expect("session");
            assert_eq!(s.exchange_label(), mode.label(), "R={ranks}: session");
            let seen = s.run(|h| (h.exchange_label(), h.trainer().ctx.mode()));
            assert_eq!(
                seen,
                vec![(mode.label(), mode); ranks],
                "R={ranks}: handle and context must report {mode}"
            );
        }
    }
}

/// `resized` replays the stored partition strategy and exchange mode: a
/// 4-rank RCB / Coal-AG session resized to 3 ranks keeps both, owns its
/// elements as `Partition::new` assigns them, and trains **bit-identically**
/// to a fresh 3-rank build.
#[test]
fn resized_session_trains_like_a_fresh_build() {
    let build = |ranks| {
        Session::builder()
            .mesh(mesh())
            .partition(Strategy::Rcb)
            .ranks(ranks)
            .exchange(HaloExchangeMode::Coalesced)
            .seed(SEED)
            .learning_rate(LR)
            .build()
            .expect("session")
    };
    let resized = build(4).resized(3).expect("resize");
    assert_eq!(resized.partition_strategy(), Strategy::Rcb);
    assert_eq!(resized.exchange_label(), "Coal-AG");
    assert_eq!(
        resized.partition().expect("R = 3 is partitioned").owners(),
        Partition::new(&mesh(), 3, Strategy::Rcb).owners()
    );
    let field = TaylorGreen::new(0.01);
    assert_eq!(
        resized.train_autoencode(&field, 0.0, ITERS),
        build(3).train_autoencode(&field, 0.0, ITERS),
        "resized and fresh 3-rank trajectories differ"
    );
}

/// `with_exchange` shares the wiring but must behave exactly like a
/// freshly built session with that mode.
#[test]
fn with_exchange_matches_fresh_build() {
    let base = Session::builder()
        .mesh(mesh())
        .partition(Strategy::Block)
        .ranks(8)
        .seed(SEED)
        .learning_rate(LR)
        .build()
        .expect("session");
    for mode in [HaloExchangeMode::None, HaloExchangeMode::Coalesced] {
        assert_eq!(
            base.with_exchange(mode)
                .train_autoencode(&TaylorGreen::new(0.01), 0.0, ITERS),
            session(8, mode),
            "with_exchange({mode}) diverged from a fresh build"
        );
    }
}

/// Traffic accounting through the session: predicted per-exchange volumes
/// match the measured counters for every consistent strategy.
#[test]
fn session_traffic_accounting_is_exact() {
    let field = TaylorGreen::new(0.01);
    for mode in HaloExchangeMode::all() {
        let s = Session::builder()
            .mesh(mesh())
            .partition(Strategy::Block)
            .ranks(8)
            .exchange(mode)
            .seed(SEED)
            .build()
            .expect("session");
        let checks = s.run(|h| {
            let data = h.autoencode_data(&field, 0.0);
            h.traffic_reset();
            h.step(&data);
            let measured = h.traffic();
            let predicted = h
                .trainer()
                .ctx
                .traffic_per_exchange(h.graph(), h.trainer().model.config.hidden);
            (measured, predicted)
        });
        let mut total_sends = 0;
        let mut total_recvs = 0;
        let mut total_send_bytes = 0;
        let mut total_recv_bytes = 0;
        for (measured, predicted) in checks {
            // 4 MP layers, forward + backward = 8 exchanges per step.
            let halo_bytes = measured.a2a_bytes + measured.send_bytes + measured.all_gather_bytes;
            assert_eq!(
                halo_bytes,
                8 * predicted.bytes,
                "mode {mode}: measured halo bytes vs 8x predicted"
            );
            total_sends += measured.sends;
            total_recvs += measured.recvs;
            total_send_bytes += measured.send_bytes;
            total_recv_bytes += measured.recv_bytes;
        }
        // Point-to-point accounting is symmetric across the world: every
        // send injected during the step was drained by a matching receive.
        assert_eq!(total_sends, total_recvs, "mode {mode}: sends != recvs");
        assert_eq!(
            total_send_bytes, total_recv_bytes,
            "mode {mode}: send bytes != recv bytes"
        );
    }
}
