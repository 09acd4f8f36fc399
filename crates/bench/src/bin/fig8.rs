//! Regenerate paper Fig. 8: training throughput of the consistent model
//! (A2A and N-A2A halo exchanges) relative to the inconsistent no-exchange
//! baseline, isolating the cost of the 8 all-to-all calls per iteration.

#![expect(
    clippy::expect_used,
    reason = "a figure binary stops with a message when its setup or its output fails"
)]

use cgnn_bench::{write_json, Json};
use cgnn_perf::{paper_sweep, relative_throughput, MachineModel};

fn main() {
    let machine = MachineModel::frontier();
    println!("Fig. 8: relative total throughput vs the no-exchange baseline\n");
    let series = paper_sweep(&machine);
    let mut out = Vec::new();
    for loading in ["512k", "256k"] {
        println!("=== {loading} nodes per sub-graph ===");
        print!("{:>6}", "ranks");
        let mut curves = Vec::new();
        for model in ["large", "small"] {
            for mode in ["A2A", "N-A2A", "Coal-AG", "Ovl-SR"] {
                let s = series
                    .iter()
                    .find(|s| s.loading == loading && s.model == model && s.mode == mode)
                    .expect("series exists");
                let base = series
                    .iter()
                    .find(|b| b.loading == loading && b.model == model && b.mode == "none")
                    .expect("baseline exists");
                print!(" {:>14}", format!("{model}-{mode}"));
                curves.push((model, mode, relative_throughput(s, base), s.points.clone()));
            }
        }
        println!();
        let n_points = curves[0].3.len();
        for i in 0..n_points {
            print!("{:>6}", curves[0].3[i].ranks);
            for (_, _, rel, _) in &curves {
                print!(" {:>14.3}", rel[i]);
            }
            println!();
        }
        for (model, mode, rel, points) in &curves {
            out.push(Json::Obj(vec![
                ("loading", Json::Str(loading.into())),
                ("model", Json::Str(model.to_string())),
                ("mode", Json::Str(mode.to_string())),
                ("ranks", points.iter().map(|p| p.ranks).collect()),
                ("relative_throughput", rel.iter().copied().collect()),
            ]));
        }
        println!();
    }
    println!(
        "Paper claim checks:\n\
         - A2A cost becomes impractical as ranks grow (collapses below 0.3)\n\
         - N-A2A stays above 0.95 to 64 ranks and above 0.9 to 1024 ranks\n\
           (large model, 512k loading), with a dip at 2048\n\
         - smaller sub-graphs drop below 0.9 beyond ~128 ranks\n\
         - beyond the paper: Coal-AG (one fused all-gather per exchange)\n\
           tracks N-A2A at small rank counts but collapses like a ring —\n\
           its replicated buffers price the latency/bandwidth trade\n\
         - beyond the paper: Ovl-SR (every send and non-blocking irecv posted\n\
           before waiting) dominates blocking N-A2A — the machine model's overlap\n\
           fraction of its transfer time hides behind the node MLP"
    );
    write_json("fig8", &Json::Arr(out));
}
