//! The consistent mean-squared-error loss (paper Eq. 6).
//!
//! `L = AllReduce(S_r) / (N_eff * F_y)` with
//! `S_r = sum_i (1/d_i) * sum_j (Y_ij - Yhat_ij)^2` and
//! `N_eff = AllReduce(sum_i 1/d_i)`. The `1/d_i` weights stop coincident
//! nodes from being double-counted, and the all-reduced sums make every
//! rank see the *identical* un-partitioned loss value.
//!
//! `N_eff` is a constant of the partition, so it is summed once, when the
//! graphs are built ([`LocalGraph::n_eff`], in the order a sum-all-reduce
//! adds the per-rank sums), and the loss performs one forward all-reduce,
//! for `S`.
//!
//! The sum-all-reduce is recorded on the tape with an **identity backward**:
//! since `L = (1/(N_eff F_y)) * sum_r S_r`, rank `r`'s tape produces the
//! partial gradient `dL_r = (1/(N_eff F_y)) dS_r/dtheta`, and the DDP step
//! ([`crate::ddp`]) *sums* partials across ranks — together they equal the
//! R=1 gradient exactly (paper Eq. 3). The paper counts "two all-reduces
//! in the forward and one in the backward pass"; with `N_eff` cached, a
//! step here performs one of each.

use cgnn_comm::Comm;
use cgnn_graph::LocalGraph;
use cgnn_tensor::tape::CustomOp;
use cgnn_tensor::{Tape, Tensor, VarId};
use std::sync::Arc;

/// Tape op: forward = all-reduce(sum) of a scalar; backward = identity
/// (see module docs for why the partials are summed by DDP instead).
struct AllReduceSumOp;

impl CustomOp for AllReduceSumOp {
    fn name(&self) -> &'static str {
        "all_reduce_sum"
    }

    fn backward(&self, grad_out: Tensor, _input: &Tensor) -> Option<Tensor> {
        Some(grad_out)
    }
}

/// Record a scalar sum-all-reduce on the tape.
pub fn all_reduce_scalar(tape: &mut Tape, v: VarId, comm: &Comm) -> VarId {
    let global = comm.all_reduce_scalar(tape.value(v).item());
    let mut value = tape.value_copy(v);
    value.data_mut()[0] = global;
    tape.custom(v, value, Box::new(AllReduceSumOp))
}

/// Consistent MSE between prediction `pred` (`[n_local, F_y]` on the tape)
/// and `target`, which the tape reads where the caller keeps it
/// ([`Tape::shared_constant`]). Collective: every rank must call it at the
/// same point; it performs one all-reduce. `N_eff` is read from `graph`.
/// Returns the scalar loss variable; its value is identical on all ranks
/// and equal to the R=1 MSE of the un-partitioned graph.
///
/// # Panics
/// If `target` is not `[n_local, F_y]` or `pred` differs from it in shape.
pub fn consistent_mse(
    tape: &mut Tape,
    pred: VarId,
    target: &Arc<Tensor>,
    graph: &LocalGraph,
    inv_degree: &Arc<Vec<f64>>,
    comm: &Comm,
) -> VarId {
    let fy = target.cols();
    assert_eq!(
        target.rows(),
        graph.n_local(),
        "target must cover local nodes"
    );
    assert_eq!(
        tape.value(pred).shape(),
        target.shape(),
        "pred/target shape mismatch"
    );

    // S_r (Eq. 6b): degree-weighted sum of squared errors.
    let t = tape.shared_constant(Arc::clone(target));
    let diff = tape.sub(pred, t);
    let s_r = tape.weighted_sq_sum(diff, inv_degree.clone());

    // First forward all-reduce: S = sum_r S_r (Eq. 6a).
    let s = all_reduce_scalar(tape, s_r, comm);

    // N_eff (Eq. 6c), a constant of the partition: summed at graph build.
    tape.scale(s, 1.0 / (graph.n_eff * fy as f64))
}

/// Plain (inconsistent) per-rank MSE — what naive distributed data parallel
/// training would compute (paper Eq. 5 evaluated locally). Used to
/// demonstrate the violation of Eq. 2.
pub fn local_mse(tape: &mut Tape, pred: VarId, target: &Arc<Tensor>) -> VarId {
    let (n, fy) = target.shape();
    let t = tape.shared_constant(Arc::clone(target));
    let diff = tape.sub(pred, t);
    let w = Arc::new(vec![1.0; n]);
    let s = tape.weighted_sq_sum(diff, w);
    tape.scale(s, 1.0 / (n as f64 * fy as f64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgnn_comm::World;
    use cgnn_graph::{build_distributed_graph, build_global_graph};
    use cgnn_mesh::{BoxMesh, GidNoise};
    use cgnn_partition::{Partition, Strategy};

    /// The consistent loss on R=4 must equal the R=1 MSE bit-for-bit up to
    /// summation-order rounding (paper Eq. 2 with S = MSE).
    #[test]
    fn consistent_mse_matches_unpartitioned() {
        let mesh = BoxMesh::new((4, 4, 4), 2, (1.0, 1.0, 1.0), false);
        let global = build_global_graph(&mesh);
        let part = Partition::new(&mesh, 4, Strategy::Block);
        let graphs = Arc::new(build_distributed_graph(&mesh, &part));
        let noise = GidNoise::new(11);
        let fy = 3;

        // Reference R=1 MSE.
        let pred = |gid: u64, c: usize| noise.sample(gid, c as u32);
        let targ = |gid: u64, c: usize| noise.sample(gid, (c + 16) as u32);
        let mut sum = 0.0;
        for &gid in &global.gids {
            for c in 0..fy {
                let d = pred(gid, c) - targ(gid, c);
                sum += d * d;
            }
        }
        let reference = sum / (global.n_local() as f64 * fy as f64);

        let losses = World::run(4, |comm| {
            let g = &graphs[comm.rank()];
            let inv = Arc::new(g.node_inv_degree.clone());
            let mut tape = Tape::new();
            let p = tape.leaf(Tensor::from_fn(g.n_local(), fy, |r, c| pred(g.gids[r], c)));
            let t = Arc::new(Tensor::from_fn(g.n_local(), fy, |r, c| targ(g.gids[r], c)));
            let l = consistent_mse(&mut tape, p, &t, g, &inv, comm);
            tape.value(l).item()
        });
        for l in &losses {
            assert!(
                (l - reference).abs() / reference < 1e-12,
                "consistent loss {l} vs reference {reference}"
            );
        }
    }

    /// Naive local MSEs averaged across ranks do NOT reproduce the R=1 loss
    /// (the inconsistency that motivates Eq. 6).
    #[test]
    fn naive_local_mse_is_inconsistent() {
        let mesh = BoxMesh::new((4, 4, 4), 2, (1.0, 1.0, 1.0), false);
        let global = build_global_graph(&mesh);
        let part = Partition::new(&mesh, 4, Strategy::Block);
        let graphs = Arc::new(build_distributed_graph(&mesh, &part));
        let noise = GidNoise::new(11);
        let fy = 3;
        let pred = |gid: u64, c: usize| noise.sample(gid, c as u32);
        let targ = |gid: u64, c: usize| noise.sample(gid, (c + 16) as u32);

        let mut sum = 0.0;
        for &gid in &global.gids {
            for c in 0..fy {
                let d = pred(gid, c) - targ(gid, c);
                sum += d * d;
            }
        }
        let reference = sum / (global.n_local() as f64 * fy as f64);

        let locals = World::run(4, |comm| {
            let g = &graphs[comm.rank()];
            let mut tape = Tape::new();
            let p = tape.leaf(Tensor::from_fn(g.n_local(), fy, |r, c| pred(g.gids[r], c)));
            let t = Arc::new(Tensor::from_fn(g.n_local(), fy, |r, c| targ(g.gids[r], c)));
            let l = local_mse(&mut tape, p, &t);
            tape.value(l).item()
        });
        let avg: f64 = locals.iter().sum::<f64>() / locals.len() as f64;
        assert!(
            (avg - reference).abs() / reference > 1e-6,
            "naive average {avg} should deviate from {reference}"
        );
    }

    /// The loss reads the target where the caller keeps it: the tape holds
    /// `n_local * 3` fewer `f64`s than the same recording with the target
    /// copied onto it.
    #[test]
    fn the_target_is_shared_not_copied() {
        let mesh = BoxMesh::new((3, 3, 3), 1, (1.0, 1.0, 1.0), false);
        let g = build_global_graph(&mesh);
        let n = g.n_local();
        let inv = Arc::new(g.node_inv_degree.clone());
        let target = Arc::new(Tensor::full(n, 3, 0.5));
        let held = World::run(1, |comm| {
            let mut tape = Tape::new();
            let p = tape.leaf(Tensor::zeros(n, 3));
            consistent_mse(&mut tape, p, &target, &g, &inv, comm);
            let shared = tape.held_len();
            // `consistent_mse` with the target copied onto the tape.
            let mut tape = Tape::new();
            let p = tape.leaf(Tensor::zeros(n, 3));
            let t = tape.leaf_copy(&target);
            let diff = tape.sub(p, t);
            let s_r = tape.weighted_sq_sum(diff, Arc::clone(&inv));
            let s = all_reduce_scalar(&mut tape, s_r, comm);
            tape.scale(s, 1.0);
            (shared, tape.held_len())
        });
        let (shared, copied) = held[0];
        assert_eq!(copied - shared, n * 3);
    }

    /// The loss all-reduces `S` only: `N_eff` is read from the graph, where
    /// it has the bits an all-reduce of the per-rank sums gives.
    #[test]
    fn the_loss_makes_one_all_reduce() {
        let mesh = BoxMesh::new((3, 2, 2), 2, (1.0, 1.0, 1.0), false);
        let part = Partition::new(&mesh, 3, Strategy::Rcb);
        let graphs = Arc::new(build_distributed_graph(&mesh, &part));
        let out = World::run(3, |comm| {
            let g = &graphs[comm.rank()];
            let reduced = comm.all_reduce_scalar(g.node_inv_degree.iter().sum());
            let inv = Arc::clone(&g.node_inv_degree);
            let mut tape = Tape::new();
            let p = tape.leaf(Tensor::full(g.n_local(), 3, 0.25));
            let t = Arc::new(Tensor::zeros(g.n_local(), 3));
            let before = comm.stats_snapshot().all_reduces;
            consistent_mse(&mut tape, p, &t, g, &inv, comm);
            let made = comm.stats_snapshot().all_reduces - before;
            (reduced.to_bits(), g.n_eff.to_bits(), made)
        });
        for (reduced, cached, made) in out {
            assert_eq!(cached, reduced);
            assert_eq!(made, 1);
        }
    }

    #[test]
    fn loss_gradient_flows_through_allreduce() {
        let out = World::run(2, |comm| {
            let mut tape = Tape::new();
            let x = tape.leaf(Tensor::scalar((comm.rank() + 1) as f64));
            let sq = tape.mul(x, x);
            let total = all_reduce_scalar(&mut tape, sq, comm);
            let grads = tape.backward(total);
            (tape.value(total).item(), grads.get(x).expect("grad").item())
        });
        // total = 1 + 4 = 5 on both ranks; d total/dx_r = 2 x_r locally.
        assert_eq!(out[0].0, 5.0);
        assert_eq!(out[1].0, 5.0);
        assert_eq!(out[0].1, 2.0);
        assert_eq!(out[1].1, 4.0);
    }
}
