//! Halo exchange (paper Sec. III).
//!
//! Every consistent mode is the same three steps — **pack** the shared
//! rows per neighbour, **transfer** the buffers, **accumulate** what came
//! back into the owner rows (Eq. 4c-d) — and the modes differ only in the
//! transfer. The exchange is **in place**: every pack reads the tensor
//! before any accumulate writes it, so the caller's tensor goes in as `a`
//! and comes out as `a*` with no copy made here (the one copy lives in the
//! [`halo_exchange_apply`] convenience, for callers that keep `a`). This
//! module is that one core (`pack`, `accumulate_halos`, the split-phase
//! [`PendingExchange`]) plus one transfer plan per [`HaloExchangeMode`],
//! which [`HaloContext::new`] prepares and each [`HaloContext`] method
//! dispatches with one `match`:
//!
//! * `A2A` — `all_to_all` with equal-sized buffers to *every* rank, dummy
//!   traffic included (the paper's naive baseline),
//! * `N-A2A` — the same `all_to_all` with empty buffers for non-neighbour
//!   ranks, which collective libraries turn into neighbour send/receives
//!   (the paper's efficient variant),
//! * `Send-Recv` — explicit point-to-point messages: every send and
//!   receive posted, then completed at once,
//! * `Ovl-SR` — **new, beyond the paper**: the very same point-to-point
//!   plan, split in two. [`HaloContext::begin`] makes every `send` (a
//!   send returns without waiting on the neighbour's program), posts
//!   every `irecv` and returns; the NMP layer runs the interior-node MLP
//!   in the window before [`PendingExchange::finish`] waits on the
//!   receives. Send-Recv is this
//!   plan with nothing in the window, so the two are bit-identical by
//!   construction; `cgnn-perf` prices the hidden fraction of the transfer
//!   time through the machine model's overlap fraction,
//! * `Coal-AG` — **new, beyond the paper**: every neighbour payload packed
//!   into one contiguous buffer shipped with a single `all_gather`
//!   collective per exchange. One collective entry instead of one message
//!   per neighbour; the price is that the fused buffer is replicated to all
//!   ranks, so it only pays off at modest rank counts (priced by
//!   `cgnn-perf`). Cross-*layer* batching is impossible without changing
//!   the arithmetic — layer `m + 1` consumes layer `m`'s exchanged output —
//!   so coalescing fuses across *neighbours* within each of the `M`
//!   per-layer exchanges, which preserves Eq. 4 bit-for-bit.
//!
//! `none` skips the exchange entirely: the *inconsistent* baseline
//! ("standard NMP") used to isolate communication costs.
//!
//! All consistent modes accumulate the same payloads in the same
//! neighbour order, hence identical arithmetic (verified by the
//! equivalence suites); they differ only in traffic, which [`cgnn_comm`]
//! records, [`HaloContext::traffic_per_exchange`] predicts, and
//! `cgnn-perf` prices.

use std::ops::Range;
use std::sync::Arc;

use cgnn_comm::{Comm, RecvRequest};
use cgnn_graph::LocalGraph;
use cgnn_tensor::Tensor;

/// Tag for point-to-point halo traffic.
const HALO_TAG: u32 = 0x4841;

/// Predicted per-rank traffic of **one** halo exchange call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExchangeTraffic {
    /// Non-empty messages this rank injects (collective or point-to-point).
    pub messages: u64,
    /// Payload bytes this rank injects.
    pub bytes: u64,
}

/// Which halo exchange runs: the paper's four variants plus the coalesced
/// and overlapped extensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaloExchangeMode {
    /// No exchange: inconsistent "standard" message passing.
    None,
    /// Dense all-to-all with uniform (padded) buffers.
    AllToAll,
    /// All-to-all with empty buffers for non-neighbours.
    NeighborAllToAll,
    /// Explicit point-to-point sends/receives between neighbours.
    SendRecv,
    /// Fused-buffer exchange: all neighbour payloads coalesced into one
    /// buffer, shipped with a single all-gather collective.
    Coalesced,
    /// Send-Recv split in two: every send and non-blocking receive
    /// posted before any wait, exposing a compute-overlap window.
    Overlapped,
}

impl HaloExchangeMode {
    /// Short label used in experiment output (matches the paper's legends).
    pub fn label(self) -> &'static str {
        match self {
            HaloExchangeMode::None => "none",
            HaloExchangeMode::AllToAll => "A2A",
            HaloExchangeMode::NeighborAllToAll => "N-A2A",
            HaloExchangeMode::SendRecv => "Send-Recv",
            HaloExchangeMode::Coalesced => "Coal-AG",
            HaloExchangeMode::Overlapped => "Ovl-SR",
        }
    }

    /// Whether this mode actually synchronizes halos (i.e. is consistent).
    pub fn is_consistent(self) -> bool {
        !matches!(self, HaloExchangeMode::None)
    }

    /// Every mode, in presentation order: the paper's four (including the
    /// inconsistent `None` baseline) plus the coalesced and overlapped
    /// extensions. Filter with [`HaloExchangeMode::is_consistent`] if only
    /// the synchronizing modes are wanted.
    pub fn all() -> [HaloExchangeMode; 6] {
        [
            HaloExchangeMode::None,
            HaloExchangeMode::AllToAll,
            HaloExchangeMode::NeighborAllToAll,
            HaloExchangeMode::SendRecv,
            HaloExchangeMode::Coalesced,
            HaloExchangeMode::Overlapped,
        ]
    }
}

impl std::fmt::Display for HaloExchangeMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // `pad` (not `write_str`) so `{:<10}`-style table formatting works.
        f.pad(self.label())
    }
}

/// A mode's transfer plan, with whatever [`HaloContext::new`] computed
/// for it collectively. Shared data sits behind an `Arc` so cloning a
/// context (once per recorded halo sync) stays a refcount bump.
#[derive(Clone)]
enum Plan {
    None,
    /// `max_shared`: the most nodes any rank shares with any single
    /// neighbour, over the whole world — the padding unit.
    AllToAll {
        max_shared: usize,
    },
    NeighborAllToAll,
    SendRecv,
    /// `offsets[ni]`: node offset of **our** block inside neighbour `ni`'s
    /// fused buffer (multiply by `cols` at exchange time).
    Coalesced {
        offsets: Arc<[usize]>,
    },
    Overlapped,
}

/// Per-rank context for halo exchanges: the communicator and the plan of
/// one [`HaloExchangeMode`] — one synchronization of shared node rows
/// across partition boundaries (paper Eqs. 4c-4d).
///
/// Construction through [`HaloContext::new`] is a collective operation for
/// modes with a communication plan, so every rank must build it at the
/// same point.
#[derive(Clone)]
pub struct HaloContext {
    /// The communicator the exchange's collectives run over.
    pub comm: Comm,
    plan: Plan,
}

impl HaloContext {
    /// Collective constructor; call on every rank with its own `graph`.
    /// [`HaloExchangeMode::AllToAll`] all-reduces its padding unit and
    /// [`HaloExchangeMode::Coalesced`] gathers its peer offsets here.
    pub fn new(comm: Comm, graph: &LocalGraph, mode: HaloExchangeMode) -> Self {
        let plan = match mode {
            HaloExchangeMode::None => Plan::None,
            HaloExchangeMode::AllToAll => {
                let local_max = graph.halo.send_ids.iter().map(Vec::len).max().unwrap_or(0);
                let mut buf = [local_max as f64];
                comm.all_reduce_max(&mut buf);
                Plan::AllToAll {
                    max_shared: buf[0] as usize,
                }
            }
            HaloExchangeMode::NeighborAllToAll => Plan::NeighborAllToAll,
            HaloExchangeMode::SendRecv => Plan::SendRecv,
            HaloExchangeMode::Coalesced => Plan::Coalesced {
                offsets: peer_offsets(&comm, graph),
            },
            HaloExchangeMode::Overlapped => Plan::Overlapped,
        };
        HaloContext { comm, plan }
    }

    /// Non-collective constructor for single-rank (R = 1) use.
    ///
    /// # Panics
    /// If `comm` spans more than one rank.
    pub fn single(comm: Comm) -> Self {
        assert_eq!(comm.size(), 1, "single() is only for R = 1 worlds");
        HaloContext {
            comm,
            plan: Plan::None,
        }
    }

    /// The mode this context exchanges with.
    pub fn mode(&self) -> HaloExchangeMode {
        match self.plan {
            Plan::None => HaloExchangeMode::None,
            Plan::AllToAll { .. } => HaloExchangeMode::AllToAll,
            Plan::NeighborAllToAll => HaloExchangeMode::NeighborAllToAll,
            Plan::SendRecv => HaloExchangeMode::SendRecv,
            Plan::Coalesced { .. } => HaloExchangeMode::Coalesced,
            Plan::Overlapped => HaloExchangeMode::Overlapped,
        }
    }

    /// Short mode label (matches the paper's legends).
    pub fn label(&self) -> &'static str {
        self.mode().label()
    }

    /// Whether exchanges through this context synchronize halos.
    pub fn is_consistent(&self) -> bool {
        self.mode().is_consistent()
    }

    /// One halo swap + synchronization of a `[n_local, cols]` tensor, in
    /// place: afterwards every coincident copy of a shared node holds the
    /// **sum** of all pre-exchange copies, and interior rows are untouched.
    /// Collective for every consistent mode.
    pub fn exchange(&self, a: &mut Tensor, graph: &LocalGraph) {
        match &self.plan {
            Plan::None => {}
            Plan::AllToAll { max_shared } => {
                all_to_all(a, graph, &self.comm, max_shared * a.cols())
            }
            Plan::NeighborAllToAll => all_to_all(a, graph, &self.comm, 0),
            Plan::SendRecv | Plan::Overlapped => {
                PendingExchange::post(a, graph, &self.comm).finish(a, graph)
            }
            Plan::Coalesced { offsets } => all_gather(a, graph, &self.comm, offsets),
        }
    }

    /// Split-phase exchange: post every send and receive of the exchange
    /// of `a` and return the in-flight handle **without waiting**. The
    /// caller runs independent compute that leaves the shared rows of `a`
    /// alone, then [`PendingExchange::finish`]es into `a`, which leaves it
    /// exactly as [`HaloContext::exchange`] would have.
    ///
    /// `Some` only for [`HaloExchangeMode::Overlapped`]; every other mode
    /// returns `None` (posting nothing), and the caller falls back to the
    /// blocking [`HaloContext::exchange`].
    pub fn begin(&self, a: &Tensor, graph: &LocalGraph) -> Option<PendingExchange> {
        match self.plan {
            // <- the overlap window is open until `finish` is called.
            Plan::Overlapped => Some(PendingExchange::post(a, graph, &self.comm)),
            _ => None,
        }
    }

    /// Predicted per-rank traffic of one exchange of a `cols`-wide tensor
    /// — the accounting the weak-scaling model prices.
    pub fn traffic_per_exchange(&self, graph: &LocalGraph, cols: usize) -> ExchangeTraffic {
        let bytes_of = |nodes: usize| (nodes * cols * std::mem::size_of::<f64>()) as u64;
        let peers = self.comm.size().saturating_sub(1) as u64;
        let halo_count = graph.halo.halo_count();
        match self.plan {
            // Zero-length buffers are never injected, even to "everyone".
            Plan::None | Plan::AllToAll { max_shared: 0 } => ExchangeTraffic::default(),
            Plan::AllToAll { max_shared } => ExchangeTraffic {
                messages: peers,
                bytes: peers * bytes_of(max_shared),
            },
            // The fused buffer is replicated to every other rank.
            Plan::Coalesced { .. } => ExchangeTraffic {
                messages: if halo_count > 0 { peers } else { 0 },
                bytes: peers * bytes_of(halo_count),
            },
            Plan::NeighborAllToAll | Plan::SendRecv | Plan::Overlapped => ExchangeTraffic {
                messages: graph.halo.neighbors.len() as u64,
                bytes: bytes_of(halo_count),
            },
        }
    }
}

/// Execute one halo swap + synchronization (paper Eqs. 4c-4d) on a raw
/// node-row tensor: returns `a*` where
/// `a*[i] = a[i] + sum over neighbour copies of a[i']` for shared nodes,
/// and `a*[i] = a[i]` for interior nodes.
///
/// The operation is its own adjoint (the global operator `I + sum of swaps`
/// is symmetric), which is exactly why the backward pass of the
/// differentiable halo exchange is another halo exchange — see
/// [`crate::mp_layer::HaloSyncOp`].
pub fn halo_exchange_apply(a: &Tensor, graph: &LocalGraph, ctx: &HaloContext) -> Tensor {
    debug_assert_eq!(
        a.rows(),
        graph.n_local(),
        "halo exchange expects local rows only"
    );
    let mut out = a.clone();
    ctx.exchange(&mut out, graph);
    out
}

/// Pack: the rows shared with neighbours `nis` (in neighbour order) in
/// one fresh send buffer, zero-padded to at least `min_len` values. Every
/// buffer an exchange ships comes from here.
fn pack(a: &Tensor, graph: &LocalGraph, nis: Range<usize>, min_len: usize) -> Vec<f64> {
    let ids = &graph.halo.send_ids[nis];
    let len = (ids.iter().map(Vec::len).sum::<usize>() * a.cols()).max(min_len);
    // A fresh buffer per message: the comm API takes each message by
    // value and the receiver keeps it.
    let mut buf = Vec::with_capacity(len);
    for &lid in ids.iter().flatten() {
        buf.extend_from_slice(a.row(lid));
    }
    buf.resize(len, 0.0);
    buf
}

/// Accumulate (Eq. 4d): add each neighbour's buffered aggregates into the
/// owner rows, in neighbour order. `recv_of(ni, s)` yields the payload
/// received from neighbour index `ni` (rank `s`), laid out as
/// `shared_count x cols` in ascending-gid order.
fn accumulate_halos<'a>(
    out: &mut Tensor,
    graph: &LocalGraph,
    recv_of: impl Fn(usize, usize) -> &'a [f64],
) {
    let cols = out.cols();
    for (ni, &s) in graph.halo.neighbors.iter().enumerate() {
        let ids = &graph.halo.send_ids[ni];
        let buf = recv_of(ni, s);
        assert!(
            buf.len() >= ids.len() * cols,
            "halo payload from rank {s} too short: {} < {}",
            buf.len(),
            ids.len() * cols
        );
        for (k, &lid) in ids.iter().enumerate() {
            let src = &buf[k * cols..(k + 1) * cols];
            for (o, &v) in out.row_mut(lid).iter_mut().zip(src.iter()) {
                *o += v;
            }
        }
    }
}

/// The collective plan: one `all_to_all` carrying each neighbour's
/// payload, every buffer to another rank padded to `pad` values (0: none,
/// so non-neighbours get the empty buffer the collective skips).
fn all_to_all(a: &mut Tensor, graph: &LocalGraph, comm: &Comm, pad: usize) {
    let send = (0..comm.size())
        .map(|dst| match graph.halo.neighbors.binary_search(&dst) {
            Ok(ni) => pack(a, graph, ni..ni + 1, pad),
            Err(_) if dst == comm.rank() => pack(a, graph, 0..0, 0),
            Err(_) => pack(a, graph, 0..0, pad),
        })
        .collect();
    let recv = comm.all_to_all(send);
    accumulate_halos(a, graph, |_, s| recv[s].as_slice());
}

/// The fused-buffer plan: every neighbour's payload in one buffer, in
/// neighbour order (matching `HaloPlan::halo_offset`), shipped with one
/// `all_gather`; each receiver slices its block out of every neighbour's
/// buffer at the gathered `offsets`.
fn all_gather(a: &mut Tensor, graph: &LocalGraph, comm: &Comm, offsets: &[usize]) {
    let cols = a.cols();
    let fused = pack(a, graph, 0..graph.halo.neighbors.len(), 0);
    let gathered = comm.all_gather(fused);
    accumulate_halos(a, graph, |ni, s| {
        let start = offsets[ni] * cols;
        &gathered[s][start..start + graph.halo.send_ids[ni].len() * cols]
    });
}

/// The coalesced plan's collective setup: every rank publishes, for each
/// of its neighbours, the node offset of that neighbour's block within its
/// own fused buffer; each rank keeps the entries addressed to itself.
#[expect(
    clippy::expect_used,
    reason = "halo plans are symmetric: every neighbour's table lists this rank"
)]
fn peer_offsets(comm: &Comm, graph: &LocalGraph) -> Arc<[usize]> {
    // Flat (neighbour, node-offset) pairs describing *our* fused layout.
    let table = graph
        .halo
        .neighbors
        .iter()
        .enumerate()
        .flat_map(|(ni, &s)| [s as f64, graph.halo.halo_offset(ni) as f64])
        .collect();
    let tables = comm.all_gather(table);
    graph
        .halo
        .neighbors
        .iter()
        .map(|&s| {
            tables[s]
                .chunks_exact(2)
                .find(|pair| pair[0] as usize == comm.rank())
                .map(|pair| pair[1] as usize)
                .expect("neighbour table misses this rank: halo plan asymmetric")
        })
        .collect()
}

/// An in-flight point-to-point halo exchange: every send made and every
/// receive posted, none completed.
///
/// Between construction ([`HaloContext::begin`]) and
/// [`PendingExchange::finish`] lies the **overlap window** — the stretch
/// where the NMP layer runs the interior-node MLP while halos travel.
/// `finish` completes receives
/// in posted neighbour order (not arrival order), so the accumulation
/// order — and therefore every bit of the result — is the same however
/// long the window was.
pub struct PendingExchange {
    recvs: Vec<RecvRequest>,
}

impl PendingExchange {
    /// Point-to-point transfer, first half: send to every neighbour (a
    /// send never waits on the neighbour's program), then post every
    /// receive before waiting on any.
    fn post(a: &Tensor, graph: &LocalGraph, comm: &Comm) -> PendingExchange {
        let neighbors = &graph.halo.neighbors;
        for (ni, &s) in neighbors.iter().enumerate() {
            comm.send(s, HALO_TAG, pack(a, graph, ni..ni + 1, 0));
        }
        let recvs = neighbors.iter().map(|&s| comm.irecv(s, HALO_TAG)).collect();
        PendingExchange { recvs }
    }

    /// Wait for all receives (in posted neighbour order) and accumulate
    /// them into the shared rows of `out` (Eq. 4d). Interior rows of `out`
    /// are untouched.
    pub fn finish(self, out: &mut Tensor, graph: &LocalGraph) {
        let recvs: Vec<Vec<f64>> = self.recvs.into_iter().map(RecvRequest::wait).collect();
        accumulate_halos(out, graph, |ni, _| recvs[ni].as_slice());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    use cgnn_comm::{StatsSnapshot, World};
    use cgnn_graph::build_distributed_graph;
    use cgnn_mesh::BoxMesh;
    use cgnn_partition::{Partition, Strategy};
    use proptest::prelude::*;

    const STRATEGIES: [Strategy; 4] = [
        Strategy::Slab,
        Strategy::Pencil,
        Strategy::Block,
        Strategy::Rcb,
    ];

    /// One rank's side of [`exchange_every_mode`].
    struct RankRun {
        graph: LocalGraph,
        /// The rank-distinct input every mode exchanged.
        a: Tensor,
        /// Per mode, in [`HaloExchangeMode::all`] order: the output, the
        /// predicted traffic, and the communicator's counters.
        outs: Vec<(HaloExchangeMode, Tensor, ExchangeTraffic, StatsSnapshot)>,
    }

    /// Decompose a generated box onto `world` thread ranks and exchange one
    /// `cols`-wide tensor of full-mantissa values (so a different summation
    /// order shows in the last bits) under every mode.
    fn exchange_every_mode(
        dims: (usize, usize, usize),
        order: usize,
        periodic: bool,
        strategy: Strategy,
        world: usize,
        cols: usize,
    ) -> Vec<RankRun> {
        let mesh = BoxMesh::new(dims, order, (1.0, 1.0, 1.0), periodic);
        let part = Partition::new(&mesh, world, strategy);
        let graphs = Arc::new(build_distributed_graph(&mesh, &part));
        World::run(world, |comm| {
            let g = &graphs[comm.rank()];
            let a = Tensor::from_fn(g.n_local(), cols, |r, c| {
                (g.gids[r] as f64 * 0.37 + comm.rank() as f64 * 1.3 + c as f64).sin()
            });
            let outs = HaloExchangeMode::all()
                .into_iter()
                .map(|mode| {
                    let ctx = HaloContext::new(comm.clone(), g, mode);
                    comm.stats_reset();
                    let out = halo_exchange_apply(&a, g, &ctx);
                    let predicted = ctx.traffic_per_exchange(g, cols);
                    (mode, out, predicted, comm.stats_snapshot())
                })
                .collect();
            RankRun {
                graph: g.clone(),
                a,
                outs,
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// After an exchange, every coincident copy of a node holds the sum
        /// of all pre-exchange copies, and every consistent mode produces
        /// the same bits as N-A2A — on generated boxes, orders, strategies,
        /// world sizes and periodicity.
        #[test]
        fn every_consistent_mode_synchronizes_coincident_nodes(
            ex in 2usize..5, ey in 2usize..5, ez in 2usize..5,
            order in 1usize..3,
            strat in 0usize..4,
            world in 2usize..9,
            periodic in proptest::bool::ANY,
        ) {
            prop_assume!(!periodic || order * ex.min(ey).min(ez) >= 3);
            prop_assume!(ex * ey * ez >= world);
            let runs = exchange_every_mode((ex, ey, ez), order, periodic, STRATEGIES[strat], world, 2);

            // Per gid: copy count, rank-ordered sum, and sum of magnitudes.
            let mut copies: BTreeMap<u64, (usize, [f64; 2], [f64; 2])> = BTreeMap::new();
            for run in &runs {
                for (r, &gid) in run.graph.gids.iter().enumerate() {
                    let e = copies.entry(gid).or_insert((0, [0.0; 2], [0.0; 2]));
                    e.0 += 1;
                    for c in 0..2 {
                        e.1[c] += run.a.get(r, c);
                        e.2[c] += run.a.get(r, c).abs();
                    }
                }
            }
            for run in &runs {
                let (_, reference, _, _) = run
                    .outs
                    .iter()
                    .find(|(mode, ..)| *mode == HaloExchangeMode::NeighborAllToAll)
                    .expect("every mode ran");
                for (mode, out, _, _) in &run.outs {
                    if !mode.is_consistent() {
                        continue;
                    }
                    // Bit-equality: every consistent mode accumulates the
                    // same payloads in the same neighbour order as N-A2A.
                    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    prop_assert!(bits(out) == bits(reference), "mode {} differs from N-A2A in bits", mode);
                    for (r, &gid) in run.graph.gids.iter().enumerate() {
                        let (n, sum, abs_sum) = copies[&gid];
                        for c in 0..2 {
                            let got = out.get(r, c);
                            if n == 1 {
                                // Interior rows are untouched: bit-equal to `a`.
                                prop_assert!(got.to_bits() == run.a.get(r, c).to_bits(), "interior gid {} changed", gid);
                            } else {
                                // Rounding bound, not bit-equality: the
                                // exchange adds the n copies in neighbour
                                // order, the reference in rank order; two
                                // orders of an n-term sum differ by at most
                                // (n - 1) * eps * sum |copies|.
                                let bound = (n - 1) as f64 * f64::EPSILON * abs_sum[c];
                                prop_assert!(
                                    (got - sum[c]).abs() <= bound,
                                    "mode {} gid {} col {}: {} vs {} (bound {:e})", mode, gid, c, got, sum[c], bound
                                );
                            }
                        }
                    }
                }
            }
        }

        /// Each mode's predicted traffic equals, exactly, what the
        /// communicator measured for one exchange, Coal-AG's is one
        /// all-gather and no other message, and point-to-point
        /// accounting is symmetric (every send drained by a receive).
        #[test]
        fn predicted_traffic_matches_measured(
            ex in 2usize..5, ey in 2usize..5, ez in 2usize..5,
            order in 1usize..3,
            strat in 0usize..4,
            world in 2usize..9,
            periodic in proptest::bool::ANY,
        ) {
            prop_assume!(!periodic || order * ex.min(ey).min(ez) >= 3);
            prop_assume!(ex * ey * ez >= world);
            let runs = exchange_every_mode((ex, ey, ez), order, periodic, STRATEGIES[strat], world, 5);
            let peers = world as u64 - 1;
            for run in &runs {
                for (mode, _, predicted, s) in &run.outs {
                    let measured = ExchangeTraffic {
                        messages: s.a2a_messages + s.sends + s.all_gathers * peers,
                        bytes: s.a2a_bytes + s.send_bytes + s.all_gather_bytes,
                    };
                    prop_assert_eq!(*predicted, measured, "mode {} traffic mismatch", mode);
                    if *mode == HaloExchangeMode::Coalesced {
                        prop_assert_eq!((s.all_gathers, s.a2a_messages, s.sends), (1, 0, 0));
                    }
                    prop_assert_eq!(s.sends, s.recvs, "mode {}: sends != recvs", mode);
                    prop_assert_eq!(s.send_bytes, s.recv_bytes, "mode {}: send bytes != recv bytes", mode);
                }
            }
        }
    }

    #[test]
    fn none_mode_is_identity() {
        let mesh = BoxMesh::new((2, 2, 2), 1, (1.0, 1.0, 1.0), false);
        let part = Partition::new(&mesh, 2, Strategy::Slab);
        let graphs = Arc::new(build_distributed_graph(&mesh, &part));
        World::run(2, |comm| {
            let g = &graphs[comm.rank()];
            let ctx = HaloContext::new(comm.clone(), g, HaloExchangeMode::None);
            let a = Tensor::from_fn(g.n_local(), 3, |r, c| (r * 3 + c) as f64);
            let out = halo_exchange_apply(&a, g, &ctx);
            assert_eq!(out, a);
        });
    }

    #[test]
    fn mode_display_matches_label() {
        for mode in HaloExchangeMode::all() {
            assert_eq!(mode.to_string(), mode.label());
        }
        assert_eq!(HaloExchangeMode::Coalesced.to_string(), "Coal-AG");
    }

    #[test]
    fn a2a_sends_dummy_traffic_but_na2a_does_not() {
        let mesh = BoxMesh::new((4, 2, 2), 1, (1.0, 1.0, 1.0), false);
        let part = Partition::new(&mesh, 4, Strategy::Slab);
        let graphs = Arc::new(build_distributed_graph(&mesh, &part));
        World::run(4, |comm| {
            let g = &graphs[comm.rank()];
            for mode in [
                HaloExchangeMode::AllToAll,
                HaloExchangeMode::NeighborAllToAll,
            ] {
                let ctx = HaloContext::new(comm.clone(), g, mode);
                comm.stats_reset();
                let a = Tensor::from_fn(g.n_local(), 4, |_, _| 1.0);
                let _ = halo_exchange_apply(&a, g, &ctx);
                let s = comm.stats_snapshot();
                if mode == HaloExchangeMode::AllToAll {
                    assert_eq!(
                        s.a2a_messages as usize,
                        comm.size() - 1,
                        "A2A talks to everyone"
                    );
                } else {
                    assert_eq!(
                        s.a2a_messages as usize,
                        g.halo.neighbors.len(),
                        "N-A2A talks to neighbours only"
                    );
                }
            }
        });
    }

    #[test]
    fn exchange_is_self_adjoint() {
        // <H a, b> == <a, H b> summed over all ranks with 1/d weights...
        // directly: the global operator matrix is symmetric, so applying H
        // twice equals applying H to H (trivially) — instead verify
        // <Ha, b>_global == <a, Hb>_global where the global inner product
        // double-counts shared nodes equally on both sides.
        let mesh = BoxMesh::new((4, 4, 2), 1, (1.0, 1.0, 1.0), false);
        let part = Partition::new(&mesh, 4, Strategy::Pencil);
        let graphs = Arc::new(build_distributed_graph(&mesh, &part));
        let inner = World::run(4, |comm| {
            let g = &graphs[comm.rank()];
            let ctx = HaloContext::new(comm.clone(), g, HaloExchangeMode::NeighborAllToAll);
            let a = Tensor::from_fn(g.n_local(), 1, |r, _| (g.gids[r] as f64 * 0.37).sin());
            let b = Tensor::from_fn(g.n_local(), 1, |r, _| {
                (g.gids[r] as f64 * 0.11).cos() + comm.rank() as f64 * 0.01
            });
            let ha = halo_exchange_apply(&a, g, &ctx);
            let hb = halo_exchange_apply(&b, g, &ctx);
            let dot = |x: &Tensor, y: &Tensor| -> f64 {
                (0..g.n_local()).map(|r| x.get(r, 0) * y.get(r, 0)).sum()
            };
            (dot(&ha, &b), dot(&a, &hb))
        });
        let lhs: f64 = inner.iter().map(|&(l, _)| l).sum();
        let rhs: f64 = inner.iter().map(|&(_, r)| r).sum();
        assert!((lhs - rhs).abs() < 1e-10, "{lhs} vs {rhs}");
    }
}
