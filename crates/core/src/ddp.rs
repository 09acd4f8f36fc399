//! Distributed-data-parallel gradient reduction.
//!
//! Each rank's tape produces the partial gradient of the consistent loss
//! (the `1/(N_eff F_y) * dS_r/dtheta` term — see [`crate::loss`]); summing
//! the partials across ranks yields the exact R=1 gradient (paper Eq. 3).
//! Gradients are flattened into a single fused buffer before the all-reduce,
//! like PyTorch DDP's gradient buckets.

use cgnn_comm::Comm;
use cgnn_tensor::nn::{BoundParams, ParamId, ParamSet};
use cgnn_tensor::{Gradients, Tensor};

/// Sum-all-reduce the parameter gradients across ranks.
///
/// Returns one tensor per parameter, in registration order; parameters that
/// did not participate in the loss get zero gradients. The reduction is
/// deterministic (rank-ordered), so replicas stay bit-identical.
pub fn reduce_gradients(
    params: &ParamSet,
    bound: &BoundParams,
    grads: &Gradients,
    comm: &Comm,
) -> Vec<Tensor> {
    reduce_flat_gradients(params, flatten_local_gradients(params, bound, grads), comm)
}

/// Flatten one tape's parameter gradients into a single fused buffer in
/// registration order (zeros for parameters the loss did not touch). The
/// local half of [`reduce_gradients`], split out so mini-batch training
/// ([`Trainer::step_batch`](crate::Trainer::step_batch)) can accumulate
/// several backward passes before issuing **one** all-reduce per optimizer
/// step.
pub fn flatten_local_gradients(
    params: &ParamSet,
    bound: &BoundParams,
    grads: &Gradients,
) -> Vec<f64> {
    let mut flat = Vec::with_capacity(params.num_scalars());
    for (i, t) in params.tensors().iter().enumerate() {
        match grads.get(bound.var(ParamId(i))) {
            Some(g) => {
                debug_assert_eq!(g.shape(), t.shape(), "gradient shape mismatch");
                flat.extend_from_slice(g.data());
            }
            None => flat.extend(std::iter::repeat_n(0.0, t.len())),
        }
    }
    flat
}

/// Sum-all-reduce an already-flattened gradient buffer (as produced by
/// [`flatten_local_gradients`]) and unflatten it back into one tensor per
/// parameter. The communicating half of [`reduce_gradients`].
pub fn reduce_flat_gradients(params: &ParamSet, mut flat: Vec<f64>, comm: &Comm) -> Vec<Tensor> {
    comm.all_reduce_sum(&mut flat);
    let mut out = Vec::with_capacity(params.len());
    let mut off = 0;
    for t in params.tensors() {
        let n = t.len();
        out.push(Tensor::from_vec(
            t.rows(),
            t.cols(),
            flat[off..off + n].to_vec(),
        ));
        off += n;
    }
    out
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
            let reduced = reduce_gradients(&params, &bound, &grads, comm);
            reduced[0].data().to_vec()
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
            let reduced = reduce_gradients(&params, &bound, &grads, comm);
            (reduced[0].item(), reduced[1].data().to_vec())
        });
        for (used, unused) in out {
            assert_eq!(used, 2.0);
            assert_eq!(unused, vec![0.0; 3]);
        }
    }
}
