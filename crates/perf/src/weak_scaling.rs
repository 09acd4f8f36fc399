//! The weak-scaling simulator regenerating the paper's Figs. 7-8.
//!
//! For each `(model, loading, halo mode, rank count)` configuration it
//! derives per-rank graph profiles analytically (closed form, validated
//! against the real graph builder), prices one training iteration with the
//! machine model, and reports total throughput [nodes/s], weak-scaling
//! efficiency, and throughput relative to the inconsistent (no-exchange)
//! baseline.

use cgnn_core::{GnnConfig, HaloExchangeMode};
use cgnn_graph::{analytic_block_profiles, RankProfile};
use cgnn_mesh::BoxMesh;
use cgnn_partition::Layout;

use crate::collective_model::{
    all_gather_time, all_reduce_time, dense_all_to_all_time, neighbor_all_to_all_time,
    overlapped_neighbor_time,
};
use crate::gnn_cost::{compute_time, iteration_work, param_count};
use crate::machine::MachineModel;

/// A per-rank loading (paper: nominally 256k or 512k nodes per sub-graph,
/// p = 5 hexahedral elements).
#[derive(Debug, Clone)]
pub struct Loading {
    pub name: String,
    /// Elements per rank per axis (cubic block).
    pub block: usize,
    /// Polynomial order.
    pub p: usize,
}

impl Loading {
    /// ~512k local nodes: 16^3 elements at p=5 -> (5*16+1)^3 = 531k.
    pub fn nominal_512k() -> Self {
        Loading {
            name: "512k".into(),
            block: 16,
            p: 5,
        }
    }

    /// ~256k local nodes: 12^3 elements at p=5 -> 61^3 = 227k (the paper's
    /// "256k" class; blocks need not be perfect cubes there).
    pub fn nominal_256k() -> Self {
        Loading {
            name: "256k".into(),
            block: 12,
            p: 5,
        }
    }
}

/// One point of a weak-scaling series.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    pub ranks: usize,
    /// Sum of per-rank local nodes (the paper's "total graph nodes").
    pub total_nodes: f64,
    /// Modeled time of one training iteration \[s\] (max over ranks).
    pub iter_time: f64,
    /// Total throughput [nodes/s].
    pub throughput: f64,
    /// Time breakdown \[s\]: compute, halo, all-reduce (loss + gradients).
    pub t_compute: f64,
    pub t_halo: f64,
    pub t_allreduce: f64,
}

/// A full weak-scaling curve for one configuration.
#[derive(Debug, Clone)]
pub struct ScalingSeries {
    pub model: String,
    pub loading: String,
    pub mode: String,
    pub points: Vec<ScalingPoint>,
}

impl ScalingSeries {
    /// Weak-scaling efficiency [%] relative to the first point.
    pub fn efficiency(&self) -> Vec<f64> {
        let base = self
            .points
            .first()
            .map(|p| p.throughput / p.ranks as f64)
            .unwrap_or(1.0);
        self.points
            .iter()
            .map(|p| 100.0 * (p.throughput / p.ranks as f64) / base)
            .collect()
    }
}

/// Near-cubic 3D factorization of `r` (most balanced process grid).
pub fn cubic_layout(r: usize) -> Layout {
    let mut best = Layout::new(1, 1, r);
    let mut best_score = usize::MAX;
    for rx in 1..=r {
        if !r.is_multiple_of(rx) {
            continue;
        }
        let rest = r / rx;
        for ry in 1..=rest {
            if !rest.is_multiple_of(ry) {
                continue;
            }
            let rz = rest / ry;
            let score = rx.max(ry).max(rz) - rx.min(ry).min(rz);
            if score < best_score {
                best_score = score;
                best = Layout::new(rx, ry, rz);
            }
        }
    }
    best
}

/// Model one training iteration for every rank; returns the slowest rank's
/// breakdown (bulk-synchronous step time).
fn iteration_time(
    machine: &MachineModel,
    config: &GnnConfig,
    mode: HaloExchangeMode,
    ranks: usize,
    profiles: &[RankProfile],
) -> (f64, f64, f64, f64) {
    // Halo exchanges per iteration: forward + backward per MP layer.
    let exchanges = 2.0 * config.n_mp_layers as f64;
    let bytes_per_shared = (config.hidden * 8) as f64;
    let max_shared = profiles
        .iter()
        .flat_map(|p| p.shared_per_neighbor.iter().map(|&(_, s)| s))
        .max()
        .unwrap_or(0);
    let grad_bytes = (param_count(config) * 8) as f64;
    // The paper's accounting: three scalar all-reduces (two in the
    // consistent loss forward, one in its backward) plus the fused gradient
    // all-reduce. This program performs fewer: `N_eff` is summed at graph
    // build and the loss backward rides the gradient all-reduce, so a step
    // performs the loss's one forward scalar all-reduce and the gradient one.
    let t_ar =
        3.0 * all_reduce_time(machine, ranks, 8.0) + all_reduce_time(machine, ranks, grad_bytes);

    let mut worst = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for (rank, prof) in profiles.iter().enumerate() {
        let work = iteration_work(
            config,
            prof.stats.local_nodes as f64,
            prof.stats.directed_edges as f64,
        );
        let t_c = compute_time(machine, &work);
        let t_h = match mode {
            HaloExchangeMode::None => 0.0,
            HaloExchangeMode::AllToAll => {
                exchanges
                    * dense_all_to_all_time(machine, ranks, max_shared as f64 * bytes_per_shared)
            }
            HaloExchangeMode::Coalesced => {
                // The fused buffer holds every neighbour's exact payload.
                let fused_bytes = prof.stats.halo_nodes as f64 * bytes_per_shared;
                exchanges * all_gather_time(machine, ranks, fused_bytes)
            }
            HaloExchangeMode::Overlapped => {
                // Non-blocking schedule: the machine model's overlap
                // fraction of the transfer hides behind the previous
                // layer's node MLP; only posting + the exposed remainder
                // is charged.
                exchanges
                    * overlapped_neighbor_time(
                        machine,
                        rank,
                        ranks,
                        prof,
                        bytes_per_shared,
                        machine.overlap_fraction,
                    )
            }
            // Exact halos peer to peer: the neighbour-exact cost.
            HaloExchangeMode::NeighborAllToAll | HaloExchangeMode::SendRecv => {
                exchanges * neighbor_all_to_all_time(machine, rank, ranks, prof, bytes_per_shared)
            }
        };
        let total = t_c + t_h + t_ar;
        if total > worst.0 {
            worst = (total, t_c, t_h, t_ar);
        }
    }
    worst
}

/// Run the weak-scaling sweep for one `(model, loading, mode)` tuple over
/// `rank_counts` (paper Fig. 7: 8 to 2048 in powers of two).
pub fn weak_scaling_series(
    machine: &MachineModel,
    model_name: &str,
    config: &GnnConfig,
    loading: &Loading,
    mode: HaloExchangeMode,
    rank_counts: &[usize],
) -> ScalingSeries {
    let points = rank_counts
        .iter()
        .map(|&r| {
            let layout = cubic_layout(r);
            let dims = (
                layout.rx * loading.block,
                layout.ry * loading.block,
                layout.rz * loading.block,
            );
            let mesh = BoxMesh::new(dims, loading.p, (1.0, 1.0, 1.0), true);
            let profiles = analytic_block_profiles(&mesh, &layout);
            let total_nodes: f64 = profiles.iter().map(|p| p.stats.local_nodes as f64).sum();
            let (t, t_c, t_h, t_ar) = iteration_time(machine, config, mode, r, &profiles);
            ScalingPoint {
                ranks: r,
                total_nodes,
                iter_time: t,
                throughput: total_nodes / t,
                t_compute: t_c,
                t_halo: t_h,
                t_allreduce: t_ar,
            }
        })
        .collect();
    ScalingSeries {
        model: model_name.to_string(),
        loading: loading.name.clone(),
        mode: mode.label().to_string(),
        points,
    }
}

/// The full paper sweep: {small, large} x {256k, 512k} x {None, A2A, N-A2A,
/// Coal-AG, Ovl-SR} over ranks 8..=2048 — the paper's three exchange
/// settings plus the coalesced fused-buffer and overlapped non-blocking
/// extensions as fourth and fifth priced curves.
pub fn paper_sweep(machine: &MachineModel) -> Vec<ScalingSeries> {
    let ranks: Vec<usize> = (3..=11).map(|k| 1usize << k).collect(); // 8..2048
    let mut out = Vec::new();
    for (name, config) in [("small", GnnConfig::small()), ("large", GnnConfig::large())] {
        for loading in [Loading::nominal_256k(), Loading::nominal_512k()] {
            for mode in [
                HaloExchangeMode::None,
                HaloExchangeMode::AllToAll,
                HaloExchangeMode::NeighborAllToAll,
                HaloExchangeMode::Coalesced,
                HaloExchangeMode::Overlapped,
            ] {
                out.push(weak_scaling_series(
                    machine, name, &config, &loading, mode, &ranks,
                ));
            }
        }
    }
    out
}

/// Throughput of `series` relative to the matching no-exchange baseline
/// (paper Fig. 8).
///
/// # Panics
/// If the two series were taken at different rank counts.
pub fn relative_throughput(series: &ScalingSeries, baseline: &ScalingSeries) -> Vec<f64> {
    assert_eq!(series.points.len(), baseline.points.len());
    series
        .points
        .iter()
        .zip(&baseline.points)
        .map(|(s, b)| {
            assert_eq!(s.ranks, b.ranks);
            s.throughput / b.throughput
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cubic_layout_prefers_cubes() {
        assert_eq!(cubic_layout(8), Layout::new(2, 2, 2));
        assert_eq!(cubic_layout(64), Layout::new(4, 4, 4));
        let l = cubic_layout(2048); // 2^11 -> 8 x 16 x 16
        let mut dims = [l.rx, l.ry, l.rz];
        dims.sort_unstable();
        assert_eq!(dims, [8, 16, 16]);
    }

    #[test]
    fn total_graph_grows_linearly_with_ranks() {
        // Paper: 4.15e6 nodes at R=8 to 1.105e9 at R=2048 for 512k loading.
        let m = MachineModel::frontier();
        let s = weak_scaling_series(
            &m,
            "large",
            &GnnConfig::large(),
            &Loading::nominal_512k(),
            HaloExchangeMode::None,
            &[8, 2048],
        );
        let n8 = s.points[0].total_nodes;
        let n2048 = s.points[1].total_nodes;
        assert!((n8 - 4.15e6).abs() / 4.15e6 < 0.05, "n8 = {n8:e}");
        assert!(
            (n2048 - 1.105e9).abs() / 1.105e9 < 0.05,
            "n2048 = {n2048:e}"
        );
    }

    #[test]
    fn inconsistent_baseline_scales_above_90_percent() {
        // Paper: no-exchange model keeps >90% weak-scaling efficiency to
        // 2048 ranks at the larger loading.
        let m = MachineModel::frontier();
        let ranks: Vec<usize> = (3..=11).map(|k| 1usize << k).collect();
        for config in [GnnConfig::small(), GnnConfig::large()] {
            let s = weak_scaling_series(
                &m,
                "m",
                &config,
                &Loading::nominal_512k(),
                HaloExchangeMode::None,
                &ranks,
            );
            let eff = s.efficiency();
            assert!(
                eff.last().unwrap() > &90.0,
                "hidden={} eff={eff:?}",
                config.hidden
            );
        }
    }

    #[test]
    fn dense_a2a_becomes_impractical_at_scale() {
        // Paper Fig. 8: A2A relative throughput collapses with rank count.
        let m = MachineModel::frontier();
        let ranks: Vec<usize> = (3..=11).map(|k| 1usize << k).collect();
        let config = GnnConfig::large();
        let loading = Loading::nominal_512k();
        let base = weak_scaling_series(
            &m,
            "large",
            &config,
            &loading,
            HaloExchangeMode::None,
            &ranks,
        );
        let a2a = weak_scaling_series(
            &m,
            "large",
            &config,
            &loading,
            HaloExchangeMode::AllToAll,
            &ranks,
        );
        let rel = relative_throughput(&a2a, &base);
        assert!(rel[0] > 0.5, "A2A at 8 ranks should be tolerable: {rel:?}");
        assert!(
            rel.last().unwrap() < &0.3,
            "A2A at 2048 ranks should collapse: {rel:?}"
        );
    }

    #[test]
    fn neighbor_a2a_adds_marginal_cost() {
        // Paper Fig. 8: N-A2A stays above ~0.9 relative throughput for the
        // large model / large loading through 1024 ranks, dipping at 2048.
        let m = MachineModel::frontier();
        let ranks: Vec<usize> = (3..=11).map(|k| 1usize << k).collect();
        let config = GnnConfig::large();
        let loading = Loading::nominal_512k();
        let base = weak_scaling_series(
            &m,
            "large",
            &config,
            &loading,
            HaloExchangeMode::None,
            &ranks,
        );
        let na2a = weak_scaling_series(
            &m,
            "large",
            &config,
            &loading,
            HaloExchangeMode::NeighborAllToAll,
            &ranks,
        );
        let rel = relative_throughput(&na2a, &base);
        for (i, &r) in ranks.iter().enumerate() {
            if r <= 1024 {
                assert!(
                    rel[i] > 0.85,
                    "N-A2A relative throughput at {r}: {}",
                    rel[i]
                );
            }
        }
        assert!(rel.iter().all(|&x| x <= 1.0 + 1e-9));
    }

    /// The coalesced fused-buffer exchange trades per-message overhead for
    /// replicated bandwidth: it must collapse with rank count (like dense
    /// A2A, unlike N-A2A) while staying cheaper than dense A2A, whose
    /// padded buffers carry dummy traffic on top of the replication.
    #[test]
    fn coalesced_sits_between_na2a_and_dense_a2a_at_scale() {
        let m = MachineModel::frontier();
        let ranks: Vec<usize> = (3..=11).map(|k| 1usize << k).collect();
        let config = GnnConfig::large();
        let loading = Loading::nominal_512k();
        let series = |mode| weak_scaling_series(&m, "large", &config, &loading, mode, &ranks);
        let base = series(HaloExchangeMode::None);
        let rel = |mode| relative_throughput(&series(mode), &base);
        let coal = rel(HaloExchangeMode::Coalesced);
        let na2a = rel(HaloExchangeMode::NeighborAllToAll);
        let dense = rel(HaloExchangeMode::AllToAll);
        let last = ranks.len() - 1;
        assert!(
            coal[last] < na2a[last],
            "coalesced must collapse at 2048 ranks: coal {} vs na2a {}",
            coal[last],
            na2a[last]
        );
        assert!(
            coal[last] > dense[last],
            "coalesced ships exact halos, so it beats padded dense A2A: {} vs {}",
            coal[last],
            dense[last]
        );
    }

    /// The overlapped schedule can only hide cost, never add it: its
    /// relative throughput must dominate blocking N-A2A at every rank
    /// count (and strictly so at scale, where halo time is material), and
    /// more overlap must help monotonically.
    #[test]
    fn overlapped_dominates_blocking_neighbor_exchange() {
        let m = MachineModel::frontier();
        let ranks: Vec<usize> = (3..=11).map(|k| 1usize << k).collect();
        let config = GnnConfig::large();
        let loading = Loading::nominal_512k();
        let series = |m: &MachineModel, mode| {
            weak_scaling_series(m, "large", &config, &loading, mode, &ranks)
        };
        let base = series(&m, HaloExchangeMode::None);
        let na2a = relative_throughput(&series(&m, HaloExchangeMode::NeighborAllToAll), &base);
        let ovl = relative_throughput(&series(&m, HaloExchangeMode::Overlapped), &base);
        for (i, &r) in ranks.iter().enumerate() {
            assert!(
                ovl[i] >= na2a[i] - 1e-12,
                "overlap must not cost extra at {r} ranks: {} vs {}",
                ovl[i],
                na2a[i]
            );
            assert!(ovl[i] <= 1.0 + 1e-9, "cannot beat the no-exchange baseline");
        }
        let last = ranks.len() - 1;
        assert!(
            ovl[last] > na2a[last],
            "hidden transfer must show at 2048 ranks: {} vs {}",
            ovl[last],
            na2a[last]
        );
        // Sweeping the overlap fraction: more hiding, more throughput.
        let mut prev = na2a[last];
        for f in [0.3, 0.6, 0.9] {
            let mut machine = MachineModel::frontier();
            machine.overlap_fraction = f;
            let base = series(&machine, HaloExchangeMode::None);
            let rel = relative_throughput(&series(&machine, HaloExchangeMode::Overlapped), &base);
            assert!(
                rel[last] >= prev - 1e-12,
                "overlap fraction {f} regressed: {} vs {prev}",
                rel[last]
            );
            prev = rel[last];
        }
    }

    #[test]
    fn smaller_loading_scales_worse() {
        // Paper: the 256k loading loses efficiency faster than 512k.
        let m = MachineModel::frontier();
        let ranks: Vec<usize> = (3..=11).map(|k| 1usize << k).collect();
        let config = GnnConfig::small();
        let eff_of = |loading: Loading| {
            weak_scaling_series(
                &m,
                "s",
                &config,
                &loading,
                HaloExchangeMode::NeighborAllToAll,
                &ranks,
            )
            .efficiency()
            .last()
            .copied()
            .unwrap()
        };
        let e512 = eff_of(Loading::nominal_512k());
        let e256 = eff_of(Loading::nominal_256k());
        assert!(
            e256 < e512,
            "256k eff {e256} should be below 512k eff {e512}"
        );
    }
}
