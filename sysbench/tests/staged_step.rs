//! The staged step is `Trainer::step`: bit-identical losses *and*
//! parameters, so the trace decomposes the real step and not a lookalike.

use cgnn_comm::Backend;
use sysbench::staged::{StagedStep, STAGES};
use sysbench::trace::{self_us_by_name, Tracer};
use sysbench::train::session;
use sysbench::workload::{field, sample_time, shape, Shape};

const STEPS: usize = 3;
const SEED: u64 = 11;

/// `(losses, flattened parameters)` of rank 0 after [`STEPS`] steps.
fn trajectory(shape: &Shape, staged: bool) -> (Vec<u64>, Vec<u64>) {
    let out = session(shape, SEED).run(|h| {
        let data = h.autoencode_data(&field(), sample_time(SEED));
        let mut stepper = StagedStep::default();
        let mut tracer = Tracer::new();
        let losses: Vec<u64> = (0..STEPS)
            .map(|_| {
                if staged {
                    stepper.step(h.trainer_mut(), &data, &mut tracer)
                } else {
                    h.step(&data)
                }
                .to_bits()
            })
            .collect();
        if staged {
            let by_name = self_us_by_name(tracer.spans());
            for stage in STAGES {
                assert_eq!(by_name[stage].len(), STEPS, "one `{stage}` span per step");
            }
            assert_eq!(by_name["step"].len(), STEPS);
        }
        let params = h.trainer().params.flatten();
        (
            losses,
            params.iter().map(|p| p.to_bits()).collect::<Vec<u64>>(),
        )
    });
    assert!(
        out.iter().all(|o| *o == out[0]),
        "replicas stay in lockstep"
    );
    out.into_iter().next().expect("rank 0")
}

fn assert_staged_is_the_step(shape: &Shape) {
    let (plain_losses, plain_params) = trajectory(shape, false);
    let (staged_losses, staged_params) = trajectory(shape, true);
    assert_eq!(plain_losses, staged_losses, "{}: losses", shape.name);
    assert_eq!(plain_params, staged_params, "{}: parameters", shape.name);
    assert_ne!(plain_losses[0], plain_losses[STEPS - 1], "training moved");
}

#[test]
fn staged_step_is_bit_identical_at_r1() {
    // The compute workload's mesh with the small model: same code path,
    // a fraction of the time.
    let small = Shape {
        config: cgnn_core::GnnConfig::small(),
        ..shape("train_r1_compute").expect("listed")
    };
    assert_staged_is_the_step(&small);
}

#[test]
fn staged_step_is_bit_identical_at_r2_threads() {
    assert_staged_is_the_step(&shape("train_r2_halo").expect("listed"));
}

#[test]
fn staged_step_is_bit_identical_on_the_overlapped_exchange() {
    // The wire workload's exchange (isend/irecv, row-masked tape) on
    // threads: the staged forward must drive the split-phase path too.
    let on_threads = Shape {
        backend: Backend::Threads,
        ..shape("train_r2_wire").expect("listed")
    };
    assert_staged_is_the_step(&on_threads);
}
