//! `Trainer::step` taken apart: the same public pieces in the same order,
//! one span per stage, so that the trace decomposes the real step
//! (`tests/staged_step.rs` pins losses and parameters bit-identical).

use cgnn_core::ddp::{flatten_local_gradients, reduce_flat_gradients};
use cgnn_core::{consistent_mse, RankData, Trainer};
use cgnn_tensor::Tape;

use crate::trace::Tracer;

/// Stage names, in execution order.
pub const STAGES: [&str; 8] = [
    "tape_reset",
    "bind",
    "forward",
    "loss",
    "backward",
    "ddp_flatten",
    "ddp_reduce",
    "adam",
];

/// The staged step's own autodiff workspace (the trainer's is private; a
/// reused tape replays bit-identically to it).
#[derive(Default)]
pub struct StagedStep {
    tape: Tape,
}

impl StagedStep {
    /// One training iteration on `trainer`, staged. Collective exactly
    /// where `Trainer::step` is. Returns the pre-update loss.
    pub fn step(&mut self, trainer: &mut Trainer, data: &RankData, tr: &mut Tracer) -> f64 {
        let tape = &mut self.tape;
        tr.next_op();
        let root = tr.begin("step");

        let s = tr.begin("tape_reset");
        tape.reset();
        tr.end(s);

        let s = tr.begin("bind");
        let bound = trainer.params.bind(tape);
        tr.end(s);

        let s = tr.begin("forward");
        let x = tape.leaf_copy(&data.x);
        let e = tape.leaf_copy(&data.e);
        let y = trainer
            .model
            .forward(tape, &bound, x, e, &data.graph, &data.idx, &trainer.ctx);
        tr.end(s);

        let s = tr.begin("loss");
        let l = consistent_mse(
            tape,
            y,
            &data.target,
            &data.graph,
            &data.idx.node_inv_degree,
            &trainer.ctx.comm,
        );
        let loss = tape.value(l).item();
        tr.end(s);

        let s = tr.begin("backward");
        let grads = tape.backward(l);
        tr.end(s);

        let s = tr.begin("ddp_flatten");
        let flat = flatten_local_gradients(&trainer.params, &bound, &grads);
        tape.recycle(grads);
        tr.end(s);

        let s = tr.begin("ddp_reduce");
        let reduced = reduce_flat_gradients(&trainer.params, flat, &trainer.ctx.comm);
        tr.end(s);

        let s = tr.begin("adam");
        trainer.opt.step(&mut trainer.params, &reduced);
        tr.end(s);

        tr.end(root);
        loss
    }
}
