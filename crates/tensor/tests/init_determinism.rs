//! Cross-run reproducibility of seeded initialization (satellite of the
//! workspace-restoration PR): the Eq. 2 consistency tests compare runs
//! that must start from bit-identical parameters on every rank, so the
//! `rand` 0.8-API shim's `StdRng` stream is pinned here with golden
//! values. If the generator or the initializers change the stream, these
//! tests fail rather than letting reproducibility silently drift.

use cgnn_tensor::init::xavier_uniform;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

#[test]
fn stdrng_stream_is_pinned() {
    let mut rng = StdRng::seed_from_u64(42);
    let got: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
    assert_eq!(got, GOLDEN_STDRNG_SEED42, "StdRng stream drifted");
}

#[test]
fn seeded_init_identical_across_instantiations() {
    // Two independently seeded RNGs — the in-process analogue of two
    // separate runs (the stream-pinning test above covers actual cross-run
    // drift).
    let a = xavier_uniform(4, 3, &mut StdRng::seed_from_u64(7));
    let b = xavier_uniform(4, 3, &mut StdRng::seed_from_u64(7));
    assert_eq!(a, b);
}

#[test]
fn xavier_values_are_pinned() {
    let t = xavier_uniform(2, 2, &mut StdRng::seed_from_u64(42));
    for (got, want) in t.data().iter().zip(GOLDEN_XAVIER_2X2_SEED42) {
        assert!(
            (got - want).abs() < 1e-15,
            "xavier stream drifted: got {got}, want {want}"
        );
    }
}

/// First four raw outputs of `StdRng::seed_from_u64(42)`.
const GOLDEN_STDRNG_SEED42: [u64; 4] = [
    15021278609987233951,
    5881210131331364753,
    18149643915985481100,
    12933668939759105464,
];

/// `xavier_uniform(2, 2, seed 42)` in row-major order.
const GOLDEN_XAVIER_2X2_SEED42: [f64; 4] = [
    0.7698872290825458,
    -0.4437960039770854,
    1.1852938015433567,
    0.492679584539643,
];
