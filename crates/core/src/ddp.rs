//! Distributed-data-parallel gradient reduction.
//!
//! Each rank's tape produces the partial gradient of the consistent loss
//! (the `1/(N_eff F_y) * dS_r/dtheta` term — see [`crate::loss`]); summing
//! the partials across ranks yields the exact R=1 gradient (paper Eq. 3).
//! The tape writes the parameter gradients straight into one flat bucket
//! ([`cgnn_tensor::Gradients::take_bucket`]), like PyTorch DDP's gradient
//! buckets with gradients as bucket views; that buffer is all-reduced in
//! place and is what the optimizer reads ([`cgnn_tensor::Adam::step`]),
//! before it goes back to the tape for the next step.

use cgnn_comm::Comm;
use cgnn_tensor::nn::{BoundParams, ParamId, ParamSet};
use cgnn_tensor::Gradients;

/// Copy one tape's parameter gradients into a new flat buffer in
/// registration order (zeros for parameters the loss did not touch): for a
/// tape `params` was bound to once since its reset, a copy of the bucket
/// that [`Trainer::step_batch`](crate::Trainer::step_batch) takes without
/// one ([`Gradients::take_bucket`]).
pub fn flatten_local_gradients(
    params: &ParamSet,
    bound: &BoundParams,
    grads: &Gradients,
) -> Vec<f64> {
    let mut flat = Vec::with_capacity(params.num_scalars());
    for (i, t) in params.tensors().iter().enumerate() {
        match grads.param(bound.var(ParamId(i))) {
            Some(g) => {
                debug_assert_eq!(g.len(), t.len(), "gradient shape mismatch");
                flat.extend_from_slice(g);
            }
            None => flat.extend(std::iter::repeat_n(0.0, t.len())),
        }
    }
    flat
}

/// Sum-all-reduce a flat gradient buffer (a bucket, or the copy
/// [`flatten_local_gradients`] makes) in place and return it, no copy. The
/// reduction is deterministic (rank-ordered), so replicas stay
/// bit-identical.
///
/// # Panics
/// If `flat.len()` is not `params.num_scalars()`.
pub fn reduce_flat_gradients(params: &ParamSet, mut flat: Vec<f64>, comm: &Comm) -> Vec<f64> {
    assert_eq!(
        flat.len(),
        params.num_scalars(),
        "reduce_flat_gradients: {} gradients for {} parameter scalars",
        flat.len(),
        params.num_scalars()
    );
    comm.all_reduce_sum(&mut flat);
    flat
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgnn_comm::World;
    use cgnn_tensor::{ParamSet, Tape, Tensor};

    #[test]
    fn reduce_sums_partials_across_ranks() {
        let out = World::run(3, |comm| {
            let mut params = ParamSet::new();
            params.register("w", Tensor::from_vec(1, 2, vec![1.0, 2.0]));
            let mut tape = Tape::new();
            let bound = params.bind(&mut tape);
            let w = bound.var(ParamId(0));
            // loss_r = (rank+1) * sum(w); d/dw = rank+1 per entry.
            let s = tape.sum(w);
            let l = tape.scale(s, (comm.rank() + 1) as f64);
            let grads = tape.backward(l);
            let flat = flatten_local_gradients(&params, &bound, &grads);
            reduce_flat_gradients(&params, flat, comm)
        });
        // 1 + 2 + 3 = 6 per entry, identical on all ranks.
        for v in out {
            assert_eq!(v, vec![6.0, 6.0]);
        }
    }

    #[test]
    fn unused_parameters_reduce_to_zero() {
        let out = World::run(2, |comm| {
            let mut params = ParamSet::new();
            params.register("used", Tensor::scalar(2.0));
            params.register("unused", Tensor::from_vec(1, 3, vec![1.0; 3]));
            let mut tape = Tape::new();
            let bound = params.bind(&mut tape);
            let s = tape.sum(bound.var(ParamId(0)));
            let grads = tape.backward(s);
            let flat = flatten_local_gradients(&params, &bound, &grads);
            let reduced = reduce_flat_gradients(&params, flat, comm);
            (reduced[0], reduced[1..].to_vec())
        });
        for (used, unused) in out {
            assert_eq!(used, 2.0);
            assert_eq!(unused, vec![0.0; 3]);
        }
    }
}
