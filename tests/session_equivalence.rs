//! What the `Session` front-end keeps and replays: the configured exchange
//! mode (reported by session, handle and context at every R), `resized` and
//! `with_exchange` training like fresh builds, and exact traffic
//! accounting. That sessions train like the hand-wired pipeline, and every
//! mode and backend like every other, is `tests/consistency.rs`.

#![expect(
    clippy::expect_used,
    reason = "a failed setup step fails the test, and its message names the step"
)]

use cgnn::prelude::*;

const SEED: u64 = 31;
const ITERS: usize = 12;
const LR: f64 = 1e-3;

fn mesh() -> BoxMesh {
    BoxMesh::new((4, 4, 4), 1, (1.0, 1.0, 1.0), false)
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

/// The configured mode is kept at R = 1 (no silent substitution of
/// `none`): session and handle both report it, while the arithmetic still
/// matches a `none` session because the halo sync is an identity on one
/// rank.
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
    assert_eq!(
        s.train_autoencode(&TaylorGreen::new(0.01), 0.0, ITERS),
        session(1, HaloExchangeMode::None),
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
