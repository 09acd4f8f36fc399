//! The consistency property's generated draws on the process transports.
//!
//! Three draws of `tests/consistency.rs`'s generator (box mesh, order,
//! periodicity, partition strategy, R ∈ 2..=8, model seed) each run under
//! `Ovl-SR` and `N-A2A` on `Backend::Proc` and `Backend::Socket`, and every
//! rank's prediction at the seeded initialisation, 3-step loss history and
//! final parameters must be bit-equal to the same draw on
//! `Backend::Threads`. So generated meshes and partitions, not one fixed
//! case, travel through the stream carrier.
//!
//! The re-exec plumbing is `tests/backend_equivalence.rs`'s: one parent
//! `#[test]`, and an `#[ignore]`d worker entry that the child ranks run
//! instead (`reexec_scope` pins the child argv; the cell under test
//! travels in `CGNN_TEST_CELL`). A cell is one launch, so a child joins
//! it directly without replaying any other.

#![expect(
    clippy::expect_used,
    reason = "a failed setup step fails the test, and its message names the step"
)]

use std::sync::Mutex;

use proptest::prelude::*;

use cgnn::comm::reexec_scope;
use cgnn::partition::Strategy;
use cgnn::prelude::*;

const LR: f64 = 1e-3;
const STEPS: usize = 3;
const FIELD: TaylorGreen = TaylorGreen { nu: 0.01 };
const DRAWS: u32 = 3;
/// The exchanges each draw runs under: the point-to-point one over the
/// carrier's sends, and the collective one over its rounds.
const MODES: [HaloExchangeMode; 2] = [
    HaloExchangeMode::Overlapped,
    HaloExchangeMode::NeighborAllToAll,
];
const PROCESS_BACKENDS: [Backend; 2] = [Backend::Proc, Backend::Socket];
const STRATEGIES: [Strategy; 4] = [
    Strategy::Slab,
    Strategy::Pencil,
    Strategy::Block,
    Strategy::Rcb,
];

const WORKER: &str = "process_draws_worker_entry";
const CELL_ENV: &str = "CGNN_TEST_CELL";

/// One generated case: mesh, strategy, world size, model seed.
#[derive(Debug)]
struct Case {
    mesh: BoxMesh,
    strategy: Strategy,
    ranks: usize,
    seed: u64,
}

static DRAWN: Mutex<Vec<Case>> = Mutex::new(Vec::new());

proptest! {
    #![proptest_config(ProptestConfig::with_cases(DRAWS))]

    /// Not a `#[test]`: [`draws`] runs it to collect the cases. The
    /// arguments and the assumptions are `tests/consistency.rs`'s.
    fn draw_cases(
        ex in 1usize..5, ey in 1usize..4, ez in 1usize..4,
        p in 1usize..3,
        periodic in proptest::bool::ANY,
        strat in 0usize..4,
        ranks in 2usize..9,
        seed in 0u64..1_000,
    ) {
        prop_assume!(!periodic || [ex, ey, ez].iter().all(|&e| e >= 2 && p * e >= 3));
        prop_assume!(ranks <= ex * ey * ez);
        let mesh = BoxMesh::new((ex, ey, ez), p, (1.0, 1.0, 1.0), periodic);
        let case = Case { mesh, strategy: STRATEGIES[strat], ranks, seed };
        DRAWN.lock().expect("drawn cases").push(case);
    }
}

/// The generated cases, the same in the parent and in every child rank.
fn draws() -> Vec<Case> {
    draw_cases();
    std::mem::take(&mut *DRAWN.lock().expect("drawn cases"))
}

/// The argv child rank processes re-run: exactly the ignored worker entry.
fn worker_args() -> [&'static str; 5] {
    [
        WORKER,
        "--exact",
        "--ignored",
        "--test-threads=1",
        "--quiet",
    ]
}

/// One cell: `case` on `backend` under `mode`. Returns, from rank 0, every
/// rank's prediction at the seeded initialisation, loss history and final
/// parameters, as bits.
fn run_cell(case: &Case, mode: HaloExchangeMode, backend: Backend) -> Vec<Vec<u64>> {
    let session = Session::builder()
        .mesh(case.mesh.clone())
        .partition(case.strategy)
        .ranks(case.ranks)
        .exchange(mode)
        .backend(backend)
        .model(GnnConfig::small())
        .seed(case.seed)
        .learning_rate(LR)
        .build()
        .expect("R <= elements");
    let gathered = session.run(|h| {
        let data = h.autoencode_data(&FIELD, 0.0);
        let mut own = h.predict(&data).data().to_vec();
        own.extend(h.train(&data, STEPS));
        own.extend(h.trainer().params.flatten());
        h.comm().all_gather(own)
    });
    let rank0 = gathered.into_iter().next().expect("rank 0 result");
    rank0
        .iter()
        .map(|part| part.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// Re-exec entry point: child rank processes run *this* (ignored) test
/// and join the cell `CGNN_TEST_CELL` names (`draw/mode/backend`, as
/// indices into [`draws`], [`MODES`] and [`PROCESS_BACKENDS`]).
#[test]
#[ignore = "re-exec entry point for cross-process child ranks"]
fn process_draws_worker_entry() {
    #[expect(
        clippy::disallowed_methods,
        reason = "test-harness handshake between this test and its re-exec'd children, not a program knob"
    )]
    let Ok(cell) = std::env::var(CELL_ENV) else {
        return; // invoked via `--ignored` by hand, not as a child rank
    };
    let index: Vec<usize> = cell
        .split('/')
        .map(|i| i.parse().expect("cell index"))
        .collect();
    let _scope = reexec_scope(worker_args());
    run_cell(
        &draws()[index[0]],
        MODES[index[1]],
        PROCESS_BACKENDS[index[2]],
    );
}

#[test]
fn process_transports_bit_equal_threads_on_generated_draws() {
    let cases = draws();
    assert_eq!(cases.len(), DRAWS as usize);
    for (d, case) in cases.iter().enumerate() {
        for (m, mode) in MODES.into_iter().enumerate() {
            let reference = run_cell(case, mode, Backend::Threads);
            assert_eq!(reference.len(), case.ranks);
            for (b, backend) in PROCESS_BACKENDS.into_iter().enumerate() {
                // Children inherit the cell. (This test binary runs
                // exactly one non-ignored test, so process-global env
                // mutation races with nothing.)
                std::env::set_var(CELL_ENV, format!("{d}/{m}/{b}"));
                let _scope = reexec_scope(worker_args());
                let got = run_cell(case, mode, backend);
                assert_eq!(got.len(), case.ranks, "{mode} on {backend}");
                for (rank, (got, want)) in got.iter().zip(&reference).enumerate() {
                    assert!(
                        got == want,
                        "draw {d} {case:?}: {mode} on {backend}, rank {rank} differs from threads"
                    );
                }
            }
        }
    }
}
