//! Chaos suite: kill ranks mid-epoch with a scripted [`FaultPlan`] and pin
//! the recovery contract of `Session::train_epochs_elastic`.
//!
//! The defining invariant is **bit-identical recovery**: a run that loses
//! a rank, shrinks the world, and restores from its newest checkpoint
//! must produce exactly the loss trajectory of a *fresh* run restored
//! from that same checkpoint at the surviving world size. Recovery is
//! thereby testable as an equality, not a tolerance.
//!
//! Fault op indices are calibrated from a fault-free probe run (comm-op
//! counts are deterministic per backend), so the suite keeps working when
//! the model or exchange changes the per-step op profile. The seed for
//! derived plans comes from the `CGNN_FAULT_SEED` knob so CI can replay
//! any scenario.

#![expect(
    clippy::expect_used,
    reason = "a failed setup step fails the test, and its message names the step"
)]

mod common;

use std::path::PathBuf;
use std::time::Duration;

use cgnn::core::config::CGNN_RANK;
use cgnn::prelude::*;

const SEED: u64 = 17;
const LR: f64 = 1e-3;
const EPOCHS: u64 = 3;

fn mesh() -> BoxMesh {
    BoxMesh::new((4, 4, 2), 1, (1.0, 1.0, 1.0), false)
}

fn dataset() -> Dataset {
    Dataset::tgv_autoencode(&mesh(), &TaylorGreen::new(0.01), &[0.0, 0.1, 0.2, 0.3])
}

fn builder(backend: Backend, ranks: usize) -> SessionBuilder {
    Session::builder()
        .mesh(mesh())
        .partition(Strategy::Rcb)
        .ranks(ranks)
        .exchange(HaloExchangeMode::NeighborAllToAll)
        .dataset(dataset())
        .seed(SEED)
        .learning_rate(LR)
        .backend(backend)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cgnn_chaos_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

/// Comm ops as fault injection counts them: barriers, collectives (every
/// all-reduce is one), and point-to-point operations.
fn ops_of(s: &StatsSnapshot) -> u64 {
    s.barriers + s.all_reduces + s.all_gathers + s.all_to_alls + s.sends + s.recvs
}

/// Probe the deterministic comm-op profile of a fault-free `EPOCHS`-epoch
/// run at `ranks`: per rank, `(setup_ops, total_ops)` — exchange-plan
/// construction vs. the whole run. Kill indices are placed inside
/// `setup..total`.
fn probe_ops(backend: Backend, ranks: usize) -> Vec<(u64, u64)> {
    builder(backend, ranks)
        .build()
        .expect("probe session")
        .run(|h| {
            let setup = ops_of(&h.traffic());
            h.train_epochs(EPOCHS);
            (setup, ops_of(&h.traffic()))
        })
}

/// Kill one rank mid-epoch; the elastic loop must shrink 3 → 2, restore
/// from the newest checkpoint, and finish with a trajectory bit-identical
/// to a fresh 2-rank run restored from that same checkpoint.
fn kill_mid_epoch_recovers(backend: Backend, tag: &str) {
    let _guard = common::hang_guard(Duration::from_secs(300), "chaos recovery run");
    let dir = tmp_dir(tag);
    let victim = 1usize;
    let (setup, total) = probe_ops(backend, 3)[victim];
    // ~60% through the run's comm ops: mid-epoch, well past the first
    // periodic checkpoints but well short of completion.
    let at_op = setup + (total - setup) * 6 / 10;

    let session = builder(backend, 3)
        .checkpoint(CheckpointPolicy::every(2, &dir).retain(0))
        .fault_plan(FaultPlan::new().kill(0, victim, at_op))
        .build()
        .expect("session");
    let elastic = session
        .train_epochs_elastic(EPOCHS, &FaultTolerance::default().max_recoveries(2))
        .expect("elastic run must recover");

    assert_eq!(elastic.recoveries.len(), 1, "exactly one recovery");
    assert_eq!(elastic.final_ranks, 2);
    let event = &elastic.recoveries[0];
    assert_eq!(event.dead, vec![victim]);
    assert_eq!((event.world_before, event.world_after), (3, 2));
    let restored_from = event
        .restored_from
        .clone()
        .expect("checkpoints were written before the kill");

    // The pinned invariant: fresh restore at the surviving world size.
    let fresh = builder(backend, 2)
        .build()
        .expect("fresh session")
        .restore(&restored_from)
        .expect("restore")
        .train_epochs(EPOCHS);
    assert_eq!(
        elastic.reports, fresh,
        "post-recovery trajectory must be bit-identical to a fresh restore \
         at the surviving world size"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn kill_mid_epoch_recovers_threads() {
    kill_mid_epoch_recovers(Backend::Threads, "threads");
}

/// Checkpoint directory shared between the parent test process and its
/// re-exec'd child ranks: a fixed path per backend (no pid — children
/// must see the checkpoints the parent's rank 0 wrote), wiped only by the
/// parent (children join mid-run with the checkpoint history intact).
fn shared_dir(backend: Backend) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cgnn_chaos_{}", backend.label()));
    if CGNN_RANK.lookup().is_none() {
        let _ = std::fs::remove_dir_all(&dir);
    }
    std::fs::create_dir_all(&dir).expect("shared ckpt dir");
    dir
}

/// The cross-process chaos case, on a process `backend`: the victim is a
/// real OS *process* (a re-exec'd child rank) that dies mid-epoch. Its
/// death must cross the process boundary as the same typed
/// [`RankFailure`] the in-process backends produce, the liveness probe
/// must unblock every surviving rank (no hangs — the guard would catch
/// one), and the elastic loop must shrink 3 → 2 and recover. The
/// recovered trajectory must be bit-identical both to a fresh
/// cross-process restore at the surviving world size *and* to the
/// identical scripted scenario on the serial reference backend.
fn kill_mid_epoch_recovers_across_processes(backend: Backend) {
    let label = backend.label();
    let _guard = common::hang_guard(Duration::from_secs(300), "cross-process chaos recovery");
    // Child rank processes re-run exactly the calling test and join the
    // spawned worlds at the matching launch; they exit at their join
    // point, so everything below the last cross-process launch runs in
    // the parent only.
    let _scope = cgnn::comm::reexec_scope([
        format!("kill_mid_epoch_recovers_{label}"),
        "--exact".to_string(),
        "--test-threads=1".to_string(),
        "--quiet".to_string(),
    ]);
    let dir = shared_dir(backend);
    let victim = 2usize;
    // Comm-op profiles are backend-independent (the schedule is
    // bit-identical by the equivalence suite), so calibrate on the
    // in-process serial backend instead of paying a spawned probe run.
    let (setup, total) = probe_ops(Backend::Serial, 3)[victim];
    let at_op = setup + (total - setup) * 6 / 10;
    let plan = FaultPlan::new().kill(0, victim, at_op);

    let elastic = builder(backend, 3)
        .checkpoint(CheckpointPolicy::every(2, &dir).retain(0))
        .fault_plan(plan.clone())
        .build()
        .expect("session")
        .train_epochs_elastic(EPOCHS, &FaultTolerance::default().max_recoveries(2))
        .expect("elastic run must recover from a killed child process");

    assert_eq!(elastic.recoveries.len(), 1, "exactly one recovery");
    assert_eq!(elastic.final_ranks, 2);
    let event = &elastic.recoveries[0];
    assert_eq!(event.dead, vec![victim], "the killed child is identified");
    assert_eq!((event.world_before, event.world_after), (3, 2));
    let restored_from = event
        .restored_from
        .clone()
        .expect("checkpoints were written before the kill");

    // Pin the checkpoint recovery restored from under a fixed name: the
    // shared directory keeps accumulating newer checkpoints (the recovered
    // world writes its own), so a child replaying the elastic loop for the
    // *next* launch would scan a different "latest" than the parent's
    // recovery saw. The pinned copy is written by the parent before that
    // launch and left alone by children (it already exists), so every
    // process restores the same bytes.
    let pinned = dir.join("recovery.ckpt");
    if CGNN_RANK.lookup().is_none() {
        std::fs::copy(&restored_from, &pinned).expect("pin recovery checkpoint");
    }

    // Pinned invariant, cross-process edition: bit-identical to a fresh
    // restore on the same backend at the surviving world size.
    let fresh = builder(backend, 2)
        .build()
        .expect("fresh session")
        .restore(&pinned)
        .expect("restore")
        .train_epochs(EPOCHS);
    assert_eq!(
        elastic.reports, fresh,
        "post-recovery trajectory must be bit-identical to a fresh \
         cross-process restore at the surviving world size"
    );

    // Cross-backend: the same scripted scenario on the serial reference
    // recovers with bit-identical loss trajectories (a process world
    // returns rank 0 only; replicas are identical, so rank 0 vs rank 0 is
    // the claim).
    let serial_dir = tmp_dir(&format!("{label}_vs_serial"));
    let serial = builder(Backend::Serial, 3)
        .checkpoint(CheckpointPolicy::every(2, &serial_dir).retain(0))
        .fault_plan(plan)
        .build()
        .expect("serial session")
        .train_epochs_elastic(EPOCHS, &FaultTolerance::default().max_recoveries(2))
        .expect("serial scenario must recover");
    assert_eq!(serial.recoveries[0].dead, vec![victim]);
    assert_eq!(
        elastic.reports[0], serial.reports[0],
        "{label} and serial recoveries must produce bit-identical trajectories"
    );
    std::fs::remove_dir_all(&serial_dir).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn kill_mid_epoch_recovers_proc() {
    kill_mid_epoch_recovers_across_processes(Backend::Proc);
}

#[test]
fn kill_mid_epoch_recovers_socket() {
    kill_mid_epoch_recovers_across_processes(Backend::Socket);
}

#[test]
fn kill_mid_epoch_recovers_serial() {
    kill_mid_epoch_recovers(Backend::Serial, "serial");
}

/// Two failures in sequence: attempt 0 loses a rank (3 → 2), the rebuilt
/// world loses another (2 → 1), and the final single-rank world still
/// finishes — bit-identically to a fresh single-rank restore.
#[test]
fn double_failure_shrinks_twice_and_recovers() {
    let _guard = common::hang_guard(Duration::from_secs(300), "double-failure recovery");
    let backend = Backend::Threads;
    let dir = tmp_dir("double");
    let (s3, t3) = probe_ops(backend, 3)[2];
    let (s2, t2) = probe_ops(backend, 2)[0];
    let plan = FaultPlan::new()
        // Attempt 0: kill rank 2 halfway through the 3-rank run.
        .kill(0, 2, s3 + (t3 - s3) / 2)
        // Attempt 1: kill rank 0 of the rebuilt 2-rank world shortly
        // after it starts training again (half a step's worth of ops —
        // the restored run always has at least one full step left).
        .kill(1, 0, s2 + (t2 - s2) / 24);

    let session = builder(backend, 3)
        .checkpoint(CheckpointPolicy::every(2, &dir).retain(0))
        .fault_plan(plan)
        .build()
        .expect("session");
    let elastic = session
        .train_epochs_elastic(EPOCHS, &FaultTolerance::default().max_recoveries(2))
        .expect("elastic run must survive both failures");

    assert_eq!(elastic.recoveries.len(), 2, "two recoveries");
    assert_eq!(elastic.final_ranks, 1);
    let worlds: Vec<(usize, usize)> = elastic
        .recoveries
        .iter()
        .map(|r| (r.world_before, r.world_after))
        .collect();
    assert_eq!(worlds, vec![(3, 2), (2, 1)]);
    assert_eq!(elastic.recoveries[0].dead, vec![2]);
    assert_eq!(elastic.recoveries[1].dead, vec![0]);
    let last_restore = elastic.recoveries[1]
        .restored_from
        .clone()
        .expect("a valid checkpoint survived both failures");

    let fresh = builder(backend, 1)
        .build()
        .expect("fresh session")
        .restore(&last_restore)
        .expect("restore")
        .train_epochs(EPOCHS);
    assert_eq!(
        elastic.reports, fresh,
        "single-rank recovery trajectory must match a fresh restore"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The CI scenario: a kill derived from the `CGNN_FAULT_SEED` knob (so a
/// red run replays locally with one environment variable), executed
/// twice — seeded chaos must be *chaos that replays*: both elastic runs
/// recover identically, down to the loss trajectories.
#[test]
fn seeded_plan_replays_identically() {
    let _guard = common::hang_guard(Duration::from_secs(300), "seeded chaos replay");
    let backend = Backend::Serial;
    let seed = cgnn::core::config::CGNN_FAULT_SEED.usize_or(0) as u64;
    let profile = probe_ops(backend, 3);
    // An op window that is mid-run for *whichever* victim the seed picks.
    let lo = profile.iter().map(|&(s, _)| s).max().unwrap();
    let hi = profile.iter().map(|&(_, t)| t).min().unwrap();
    let plan = FaultPlan::seeded(seed, 3, lo..lo + (hi - lo) * 4 / 5);
    let victim = plan.faults()[0].rank;

    let run = |tag: &str| {
        let dir = tmp_dir(tag);
        let elastic = builder(backend, 3)
            .checkpoint(CheckpointPolicy::every(2, &dir).retain(0))
            .fault_plan(plan.clone())
            .build()
            .expect("session")
            .train_epochs_elastic(EPOCHS, &FaultTolerance::from_env())
            .expect("seeded elastic run must recover");
        std::fs::remove_dir_all(&dir).ok();
        elastic
    };
    // One directory for both runs (`tmp_dir` empties it first): a
    // recovery event names the checkpoint it restored from by path.
    let first = run("seeded");
    let second = run("seeded");

    assert_eq!(first.recoveries.len(), 1);
    assert_eq!(first.recoveries[0].dead, vec![victim]);
    assert_eq!(first.final_ranks, 2);
    assert_eq!(first.recoveries, second.recoveries, "recovery must replay");
    assert_eq!(
        first.reports, second.reports,
        "seeded chaos trajectories must be bit-identical across runs"
    );
}

/// Failure during checkpointing: the newest checkpoint file is truncated
/// (the writer died mid-write), so recovery must *skip* it and restore
/// from the previous intact checkpoint instead of crashing on the corpse.
#[test]
fn failure_during_checkpoint_falls_back_to_previous_valid() {
    let _guard = common::hang_guard(Duration::from_secs(300), "truncated-checkpoint recovery");
    let backend = Backend::Serial;
    let dir = tmp_dir("ckpt_corpse");

    // Produce a full checkpoint history, then truncate the newest file to
    // simulate a writer killed mid-checkpoint.
    builder(backend, 3)
        .checkpoint(CheckpointPolicy::every(2, &dir).retain(0))
        .build()
        .expect("seeding session")
        .train_epochs(EPOCHS);
    let report = CheckpointPolicy::latest_report(&dir).expect("scan");
    let newest = report.valid.expect("seeding run wrote checkpoints");
    let bytes = std::fs::read(&newest).expect("read newest");
    std::fs::write(&newest, &bytes[..bytes.len() / 2]).expect("truncate newest");

    // The elastic run itself never checkpoints (interval beyond the run),
    // so the pre-seeded history is exactly what recovery sees.
    let (setup, total) = probe_ops(backend, 3)[0];
    let session = builder(backend, 3)
        .checkpoint(CheckpointPolicy::every(1_000_000, &dir).retain(0))
        .fault_plan(FaultPlan::new().kill(0, 0, setup + (total - setup) / 2))
        .build()
        .expect("session");
    let elastic = session
        .train_epochs_elastic(EPOCHS, &FaultTolerance::default().max_recoveries(1))
        .expect("recovery must fall back past the truncated checkpoint");

    assert_eq!(elastic.recoveries.len(), 1);
    let restored_from = elastic.recoveries[0]
        .restored_from
        .clone()
        .expect("an intact checkpoint remains");
    assert_ne!(
        restored_from, newest,
        "recovery must not restore from the truncated file"
    );
    let scan = CheckpointPolicy::latest_report(&dir).expect("rescan");
    assert_eq!(scan.valid.as_ref(), Some(&restored_from));
    assert!(
        scan.rejected.iter().any(|c| c.path == newest),
        "the truncated file must be reported corrupt, got {:?}",
        scan.rejected
    );
    std::fs::remove_dir_all(&dir).ok();
}
