//! Regenerate paper Fig. 7: weak-scaling total throughput [nodes/s] and
//! efficiency [%] from 8 to 2048 ranks, for {small, large} x {256k, 512k}
//! x {None, A2A, N-A2A}, using the Frontier machine model plus a real
//! host calibration of this repository's GNN kernels.

use cgnn_bench::{write_json, Json};
use cgnn_core::GnnConfig;
use cgnn_perf::{measure_single_rank, paper_sweep, MachineModel};

fn main() {
    let machine = MachineModel::frontier();
    println!(
        "Fig. 7: weak-scaling throughput and efficiency ({})",
        machine.name
    );

    // Host calibration: real measured iteration of this implementation.
    let cal = measure_single_rank(GnnConfig::small(), 6, 2, 3);
    println!(
        "host calibration: {} nodes, {} edges -> {:.3} s/iter ({:.3e} nodes/s single-rank, this host)\n",
        cal.nodes, cal.edges, cal.seconds_per_iter, cal.nodes_per_sec
    );

    let series = paper_sweep(&machine);
    for s in &series {
        println!(
            "--- model={} loading={} mode={} ---",
            s.model, s.loading, s.mode
        );
        println!(
            "{:>6} {:>14} {:>14} {:>10} | {:>9} {:>9} {:>9}",
            "ranks", "total nodes", "nodes/s", "eff [%]", "compute", "halo", "allreduce"
        );
        let eff = s.efficiency();
        for (i, p) in s.points.iter().enumerate() {
            println!(
                "{:>6} {:>14.3e} {:>14.3e} {:>10.1} | {:>8.1}ms {:>8.1}ms {:>8.1}ms",
                p.ranks,
                p.total_nodes,
                p.throughput,
                eff[i],
                p.t_compute * 1e3,
                p.t_halo * 1e3,
                p.t_allreduce * 1e3
            );
        }
        println!();
    }
    println!(
        "Paper claim checks:\n\
         - total graph grows 4.15e6 (R=8) -> 1.1e9 (R=2048) nodes at 512k loading\n\
         - no-exchange baseline >90% efficient at 2048 ranks (512k loading)\n\
         - dense A2A scaling collapses; N-A2A stays efficient\n\
         - smaller loading (256k) and smaller model degrade beyond ~512 ranks"
    );
    let json = series
        .iter()
        .map(|s| {
            let points = s.points.iter().map(|p| {
                Json::Obj(vec![
                    ("ranks", p.ranks.into()),
                    ("total_nodes", p.total_nodes.into()),
                    ("iter_time", p.iter_time.into()),
                    ("throughput", p.throughput.into()),
                    ("t_compute", p.t_compute.into()),
                    ("t_halo", p.t_halo.into()),
                    ("t_allreduce", p.t_allreduce.into()),
                ])
            });
            Json::Obj(vec![
                ("model", Json::Str(s.model.clone())),
                ("loading", Json::Str(s.loading.clone())),
                ("mode", Json::Str(s.mode.clone())),
                ("points", points.collect()),
            ])
        })
        .collect();
    write_json("fig7", &json);
}
