//! Halo-exchange traffic accounting: run one forward+backward pass of the
//! consistent GNN at R = 8 under each halo exchange strategy — the paper's
//! four plus the coalesced all-gather and overlapped non-blocking
//! extensions — and print the per-rank message/byte counters the
//! communicator records, side by side with the traffic each mode's
//! `HaloContext::traffic_per_exchange` *predicts*. Send and recv counters are
//! reported separately: accounting is symmetric, so everything injected is
//! also drained.
//!
//! ```sh
//! cargo run --release --example halo_traffic
//! CGNN_BACKEND=serial cargo run --release --example halo_traffic   # same numbers
//! ```

#![expect(
    clippy::expect_used,
    reason = "an example stops with a message instead of threading errors through its walkthrough"
)]

use cgnn::prelude::*;

fn main() {
    let field = TaylorGreen::new(0.01);
    // One wiring (partition + graphs), six exchange strategies against it.
    let base = Session::builder()
        .mesh(BoxMesh::new((8, 8, 8), 2, (1.0, 1.0, 1.0), false))
        .partition(Strategy::Slab)
        .ranks(8)
        .model(GnnConfig::small())
        .seed(1)
        .learning_rate(1e-4)
        .build()
        .expect("session");

    println!(
        "mesh: 8^3 elements p=2 on 8 ranks ({} backend); per-rank halo nodes: {}\n",
        base.backend(),
        base.graph(0).n_halo()
    );
    println!(
        "{:<10} {:>8} {:>12} {:>8} {:>8} {:>10} {:>14} {:>12} {:>14}",
        "mode",
        "a2a ops",
        "a2a msgs",
        "sends",
        "recvs",
        "gathers",
        "bytes",
        "allreduces",
        "predicted B"
    );

    for mode in HaloExchangeMode::all() {
        let session = base.with_exchange(mode);
        let out = session.run(|h| {
            let data = h.autoencode_data(&field, 0.0);
            h.traffic_reset();
            h.step(&data); // one full forward + backward + update
            let predicted = h
                .trainer()
                .ctx
                .traffic_per_exchange(h.graph(), h.trainer().model.config.hidden);
            (h.traffic(), predicted)
        });
        // Rank 0's counters (all interior-symmetric ranks look alike). The
        // trainer issues 8 exchanges (4 NMP layers, forward + backward).
        let (s, predicted) = out[0];
        assert_eq!(s.sends, s.recvs, "p2p accounting must be symmetric");
        println!(
            "{:<10} {:>8} {:>12} {:>8} {:>8} {:>10} {:>14} {:>12} {:>14}",
            mode,
            s.all_to_alls,
            s.a2a_messages,
            s.sends,
            s.recvs,
            s.all_gathers,
            s.a2a_bytes + s.send_bytes + s.all_gather_bytes,
            s.all_reduces,
            8 * predicted.bytes,
        );
    }

    println!(
        "\nreading the table:\n\
         - every consistent mode issues 8 exchanges (4 NMP layers, forward+backward)\n\
         - A2A sends 7 buffers per exchange (everyone), N-A2A only to real neighbours\n\
         - Send-Recv shows up under `sends`; Coal-AG ships one fused all-gather\n\
           per exchange whose buffer is replicated to all ranks\n\
         - Ovl-SR ships the same bytes as Send-Recv but posts every send and\n\
           non-blocking irecv before it waits — the schedule cgnn-perf prices\n\
           with a compute-overlap discount\n\
         - sends == recvs on every rank: traffic accounting is symmetric\n\
         - `predicted B` is 8x the per-exchange traffic the halo context\n\
           predicts (traffic_per_exchange) — it matches the measured bytes\n\
         - the all-reduce count covers the consistent loss (2) + gradient bucket (1)"
    );
}
