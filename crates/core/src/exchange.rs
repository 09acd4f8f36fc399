//! Halo exchange strategies (paper Sec. III).
//!
//! Every consistent strategy is the same three steps — **pack** the
//! shared rows per neighbour, **transfer** the buffers, **accumulate**
//! what came back into the owner rows (Eq. 4c-d) — and the strategies
//! differ only in the transfer. The exchange is **in place**: every pack
//! reads the tensor before any accumulate writes it, so the caller's
//! tensor goes in as `a` and comes out as `a*` with no copy made here
//! (the one copy lives in the [`halo_exchange_apply`] convenience, for
//! callers that keep `a`). This module is that one core (`pack`,
//! `accumulate_halos`, the split-phase [`PendingExchange`]) plus five
//! transfer plans, each an implementation of the object-safe
//! [`HaloExchange`] trait a few lines long, so a new schedule is a new
//! `impl`, not a new match arm:
//!
//! * [`DenseAllToAll`] — `all_to_all` with equal-sized buffers to *every*
//!   rank, dummy traffic included (the paper's naive baseline),
//! * [`NeighborAllToAll`] — the same `all_to_all` with empty buffers for
//!   non-neighbour ranks, which collective libraries turn into neighbour
//!   send/receives (the paper's efficient variant),
//! * [`SendRecvExchange`] — explicit point-to-point messages: every send
//!   and receive posted, then completed at once,
//! * [`OverlappedNeighborExchange`] — **new, beyond the paper**: the very
//!   same point-to-point plan, split in two. [`HaloExchange::begin`] posts
//!   every `isend`/`irecv` and returns; the NMP layer runs the
//!   interior-node MLP in the window before
//!   [`PendingExchange::finish`]. Send-Recv is this plan with nothing in
//!   the window, so the two are bit-identical by construction; `cgnn-perf`
//!   prices the hidden fraction of the transfer time through the machine
//!   model's overlap fraction,
//! * [`CoalescedAllGather`] — **new, beyond the paper**: every neighbour
//!   payload packed into one contiguous buffer shipped with a single
//!   `all_gather` collective per exchange. One collective entry instead of
//!   one message per neighbour; the price is that the fused buffer is
//!   replicated to all ranks, so it only pays off at modest rank counts
//!   (priced by `cgnn-perf`). Cross-*layer* batching is impossible without
//!   changing the arithmetic — layer `m + 1` consumes layer `m`'s exchanged
//!   output — so coalescing fuses across *neighbours* within each of the
//!   `M` per-layer exchanges, which preserves Eq. 4 bit-for-bit.
//!
//! [`NoExchange`] skips the exchange entirely: the *inconsistent*
//! baseline ("standard NMP") used to isolate communication costs.
//!
//! All consistent strategies accumulate the same payloads in the same
//! neighbour order, hence identical arithmetic (verified by the
//! equivalence suites); they differ only in traffic, which [`cgnn_comm`]
//! records, [`HaloExchange::traffic_per_exchange`] predicts, and
//! `cgnn-perf` prices.
//!
//! [`HaloExchangeMode`] survives as a thin, `#[non_exhaustive]` constructor
//! enum for the built-in strategies; custom strategies go straight through
//! [`HaloContext::with_strategy`].

use std::ops::Range;
use std::sync::Arc;

use cgnn_comm::{Comm, RecvRequest, SendRequest};
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

/// An object-safe halo exchange strategy: one synchronization of shared
/// node rows across partition boundaries (paper Eqs. 4c-4d).
///
/// Contract for consistent strategies: [`HaloExchange::exchange`] works
/// **in place** — when it returns, every coincident copy of a shared node
/// holds the **sum** of all pre-exchange copies, and interior rows are
/// untouched. Implementations must finish reading `a` (packing) before
/// they write it (accumulating). The operator is globally symmetric
/// (`H = H^T`), which is why the backward pass of the differentiable swap
/// is the same exchange applied to the adjoints.
///
/// Implementations that need a communication plan (buffer sizes, peer
/// offsets) compute it in their constructor, which is then a *collective*
/// — every rank must build the strategy at the same point.
pub trait HaloExchange: Send + Sync {
    /// Short label used in experiment output (matches the paper's legends).
    fn label(&self) -> &'static str;

    /// Whether this strategy actually synchronizes halos (i.e. whether the
    /// resulting message passing is consistent).
    fn is_consistent(&self) -> bool;

    /// Execute one halo swap + synchronization on a `[n_local, cols]`
    /// tensor, turning `a` into `a*`: shared rows summed across ranks.
    fn exchange(&self, a: &mut Tensor, graph: &LocalGraph, comm: &Comm);

    /// Split-phase variant for strategies that can expose a compute/comm
    /// overlap window: post every send and receive of the exchange of `a`
    /// and return the in-flight handle **without waiting**. The caller runs
    /// independent compute that leaves the shared rows of `a` alone, then
    /// [`PendingExchange::finish`]es into `a`, which must leave it exactly
    /// as [`HaloExchange::exchange`] would have.
    ///
    /// The default (`None`) marks a strategy whose schedule cannot be
    /// split; callers fall back to the blocking [`HaloExchange::exchange`].
    fn begin(&self, a: &Tensor, graph: &LocalGraph, comm: &Comm) -> Option<PendingExchange> {
        let _ = (a, graph, comm);
        None
    }

    /// Predicted per-rank traffic of one exchange of a `cols`-wide tensor —
    /// the accounting the weak-scaling model prices. The default is the
    /// neighbour-exact volume (what a perfect implementation would ship).
    fn traffic_per_exchange(
        &self,
        graph: &LocalGraph,
        world: usize,
        cols: usize,
    ) -> ExchangeTraffic {
        let _ = world;
        ExchangeTraffic {
            messages: graph.halo.neighbors.len() as u64,
            bytes: (graph.halo.halo_count() * cols * std::mem::size_of::<f64>()) as u64,
        }
    }
}

/// Which built-in halo exchange strategy to run. Kept as a thin constructor
/// over the [`HaloExchange`] implementations for ergonomics and backwards
/// compatibility; `#[non_exhaustive]` because new strategies are expected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
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
    /// Send-Recv rebuilt on non-blocking `isend`/`irecv`: all sends and
    /// receives posted before any wait, exposing a compute-overlap window.
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

    /// Every built-in mode, in presentation order: the paper's four
    /// (including the inconsistent `None` baseline) plus the coalesced and
    /// overlapped extensions. Filter with
    /// [`HaloExchangeMode::is_consistent`] if only the synchronizing modes
    /// are wanted.
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

    /// Build the strategy this mode names. Collective for modes that need a
    /// communication plan ([`HaloExchangeMode::AllToAll`] all-reduces the
    /// padding unit, [`HaloExchangeMode::Coalesced`] gathers peer offsets),
    /// so every rank must call it at the same point.
    pub fn build(self, comm: &Comm, graph: &LocalGraph) -> Arc<dyn HaloExchange> {
        match self {
            HaloExchangeMode::None => Arc::new(NoExchange),
            HaloExchangeMode::AllToAll => Arc::new(DenseAllToAll::prepare(comm, graph)),
            HaloExchangeMode::NeighborAllToAll => Arc::new(NeighborAllToAll),
            HaloExchangeMode::SendRecv => Arc::new(SendRecvExchange),
            HaloExchangeMode::Coalesced => Arc::new(CoalescedAllGather::prepare(comm, graph)),
            HaloExchangeMode::Overlapped => Arc::new(OverlappedNeighborExchange),
        }
    }
}

impl std::fmt::Display for HaloExchangeMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // `pad` (not `write_str`) so `{:<10}`-style table formatting works.
        f.pad(self.label())
    }
}

/// Per-rank context for halo exchanges: the communicator and the strategy.
///
/// Construction through [`HaloContext::new`] is a collective operation for
/// strategies with a communication plan, so every rank must build it at the
/// same point.
#[derive(Clone)]
pub struct HaloContext {
    /// The communicator the strategy's collectives run over.
    pub comm: Comm,
    strategy: Arc<dyn HaloExchange>,
}

impl HaloContext {
    /// Collective constructor; call on every rank with its own `graph`.
    pub fn new(comm: Comm, graph: &LocalGraph, mode: HaloExchangeMode) -> Self {
        let strategy = mode.build(&comm, graph);
        HaloContext { comm, strategy }
    }

    /// Wrap a custom (or pre-built) strategy. Non-collective by itself; the
    /// strategy's own constructor carries any collective setup.
    pub fn with_strategy(comm: Comm, strategy: Arc<dyn HaloExchange>) -> Self {
        HaloContext { comm, strategy }
    }

    /// Non-collective constructor for single-rank (R = 1) use.
    pub fn single(comm: Comm) -> Self {
        assert_eq!(comm.size(), 1, "single() is only for R = 1 worlds");
        HaloContext {
            comm,
            strategy: Arc::new(NoExchange),
        }
    }

    /// The strategy driving this context's exchanges.
    pub fn strategy(&self) -> &Arc<dyn HaloExchange> {
        &self.strategy
    }

    /// Short strategy label (matches the paper's legends).
    pub fn label(&self) -> &'static str {
        self.strategy.label()
    }

    /// Whether exchanges through this context synchronize halos.
    pub fn is_consistent(&self) -> bool {
        self.strategy.is_consistent()
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
    ctx.strategy.exchange(&mut out, graph, &ctx.comm);
    out
}

/// Pack: the rows shared with neighbours `nis` (in neighbour order) in
/// one fresh send buffer, zero-padded to at least `min_len` values. Every
/// buffer an exchange ships comes from here.
fn pack(a: &Tensor, graph: &LocalGraph, nis: Range<usize>, min_len: usize) -> Vec<f64> {
    let ids = &graph.halo.send_ids[nis];
    let len = (ids.iter().map(Vec::len).sum::<usize>() * a.cols()).max(min_len);
    // detlint: allow(hotpath-reachability, "owned-Vec wire contract: the comm API takes each message by value and the receiver keeps it, so a fresh send buffer per message is the protocol")
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

/// An in-flight point-to-point halo exchange: every isend/irecv posted,
/// none completed.
///
/// Between construction ([`HaloExchange::begin`]) and
/// [`PendingExchange::finish`] lies the **overlap window** — the stretch
/// where the NMP layer runs the interior-node MLP while halos travel.
/// `finish` completes receives
/// in posted neighbour order (not arrival order), so the accumulation
/// order — and therefore every bit of the result — is the same however
/// long the window was.
pub struct PendingExchange {
    sends: Vec<SendRequest>,
    recvs: Vec<RecvRequest>,
}

impl PendingExchange {
    /// Point-to-point transfer, first half: post every neighbour send
    /// without blocking, then every receive before waiting on any.
    fn post(a: &Tensor, graph: &LocalGraph, comm: &Comm) -> PendingExchange {
        let neighbors = graph.halo.neighbors.iter();
        let sends = neighbors
            .clone()
            .enumerate()
            .map(|(ni, &s)| comm.isend(s, HALO_TAG, pack(a, graph, ni..ni + 1, 0)))
            .collect();
        let recvs = neighbors.map(|&s| comm.irecv(s, HALO_TAG)).collect();
        PendingExchange { sends, recvs }
    }

    /// Wait for all receives (in posted neighbour order), accumulate them
    /// into the shared rows of `out` (Eq. 4d), and drain the send handles.
    /// Interior rows of `out` are untouched.
    pub fn finish(self, out: &mut Tensor, graph: &LocalGraph) {
        let recvs: Vec<Vec<f64>> = self.recvs.into_iter().map(RecvRequest::wait).collect();
        for send in self.sends {
            send.wait();
        }
        accumulate_halos(out, graph, |ni, _| recvs[ni].as_slice());
    }
}

/// The inconsistent baseline: no synchronization at all ("standard NMP").
#[derive(Debug, Clone, Copy, Default)]
pub struct NoExchange;

impl HaloExchange for NoExchange {
    fn label(&self) -> &'static str {
        HaloExchangeMode::None.label()
    }

    fn is_consistent(&self) -> bool {
        false
    }

    fn exchange(&self, _a: &mut Tensor, _graph: &LocalGraph, _comm: &Comm) {}

    fn traffic_per_exchange(
        &self,
        _g: &LocalGraph,
        _world: usize,
        _cols: usize,
    ) -> ExchangeTraffic {
        ExchangeTraffic::default()
    }
}

/// Dense all-to-all with uniform padded buffers to every rank — the paper's
/// naive baseline ("equal-sized buffers regardless of whether communication
/// is needed").
#[derive(Debug, Clone, Copy)]
pub struct DenseAllToAll {
    /// Maximum number of shared nodes with any single neighbour, over all
    /// rank pairs in the world — the padding unit.
    pub max_shared: usize,
}

impl DenseAllToAll {
    /// Collective constructor: all-reduces the padding unit.
    pub fn prepare(comm: &Comm, graph: &LocalGraph) -> Self {
        let local_max = graph.halo.send_ids.iter().map(Vec::len).max().unwrap_or(0) as f64;
        let mut buf = [local_max];
        comm.all_reduce_max(&mut buf);
        DenseAllToAll {
            max_shared: buf[0] as usize,
        }
    }
}

impl HaloExchange for DenseAllToAll {
    fn label(&self) -> &'static str {
        HaloExchangeMode::AllToAll.label()
    }

    fn is_consistent(&self) -> bool {
        true
    }

    fn exchange(&self, a: &mut Tensor, graph: &LocalGraph, comm: &Comm) {
        all_to_all(a, graph, comm, self.max_shared * a.cols())
    }

    fn traffic_per_exchange(&self, _g: &LocalGraph, world: usize, cols: usize) -> ExchangeTraffic {
        if self.max_shared == 0 {
            // Zero-length buffers are never injected, even to "everyone".
            return ExchangeTraffic::default();
        }
        let peers = world.saturating_sub(1) as u64;
        ExchangeTraffic {
            messages: peers,
            bytes: peers * (self.max_shared * cols * std::mem::size_of::<f64>()) as u64,
        }
    }
}

/// All-to-all with empty buffers for non-neighbours — the paper's efficient
/// variant (the `torch.empty(0)` trick).
#[derive(Debug, Clone, Copy, Default)]
pub struct NeighborAllToAll;

impl HaloExchange for NeighborAllToAll {
    fn label(&self) -> &'static str {
        HaloExchangeMode::NeighborAllToAll.label()
    }

    fn is_consistent(&self) -> bool {
        true
    }

    fn exchange(&self, a: &mut Tensor, graph: &LocalGraph, comm: &Comm) {
        all_to_all(a, graph, comm, 0)
    }
}

/// Explicit point-to-point sends and receives between neighbours: the
/// [`PendingExchange`] plan posted and finished in one call. It does not
/// split ([`HaloExchange::begin`] stays `None`), so the NMP layer opens
/// no overlap window for it.
#[derive(Debug, Clone, Copy, Default)]
pub struct SendRecvExchange;

impl HaloExchange for SendRecvExchange {
    fn label(&self) -> &'static str {
        HaloExchangeMode::SendRecv.label()
    }

    fn is_consistent(&self) -> bool {
        true
    }

    fn exchange(&self, a: &mut Tensor, graph: &LocalGraph, comm: &Comm) {
        PendingExchange::post(a, graph, comm).finish(a, graph)
    }
}

/// The Send-Recv plan with its two halves exposed — the prototype for
/// hiding halo latency behind compute.
///
/// The split-phase [`HaloExchange::begin`] / [`PendingExchange::finish`]
/// form hands the window between posting and waiting to the NMP layer,
/// which fills it with the **interior-node MLP** (see `mp_layer`): real
/// compute executes while halos are in flight. The perf model prices the
/// hidden fraction (`cgnn-perf::overlapped_neighbor_time`, driven by the
/// machine model's overlap fraction), and the `hotpath` bench measures it.
///
/// Same payloads, same accumulation order: bit-identical to
/// [`SendRecvExchange`] — only the schedule differs.
#[derive(Debug, Clone, Copy, Default)]
pub struct OverlappedNeighborExchange;

impl HaloExchange for OverlappedNeighborExchange {
    fn label(&self) -> &'static str {
        HaloExchangeMode::Overlapped.label()
    }

    fn is_consistent(&self) -> bool {
        true
    }

    fn exchange(&self, a: &mut Tensor, graph: &LocalGraph, comm: &Comm) {
        PendingExchange::post(a, graph, comm).finish(a, graph)
    }

    fn begin(&self, a: &Tensor, graph: &LocalGraph, comm: &Comm) -> Option<PendingExchange> {
        // <- the overlap window is open until `finish` is called.
        Some(PendingExchange::post(a, graph, comm))
    }
}

/// Fused-buffer halo exchange: all neighbour payloads packed into **one**
/// contiguous buffer per exchange, shipped with a single `all_gather`
/// collective. Each receiver slices the block addressed to it out of every
/// neighbour's fused buffer using a peer-offset plan gathered once at
/// construction time.
///
/// Compared to [`NeighborAllToAll`] this trades bandwidth for latency: one
/// collective entry and one allocation instead of one message per
/// neighbour, but the fused buffer is replicated to all ranks — a fifth
/// point on the cost/traffic trade-off curve for `cgnn-perf` to price. The
/// arithmetic is bit-identical to N-A2A (same payloads, same neighbour
/// accumulation order).
#[derive(Debug, Clone)]
pub struct CoalescedAllGather {
    /// `offsets[ni]`: node offset of **our** block inside neighbour `ni`'s
    /// fused buffer (multiply by `cols` at exchange time).
    offsets: Vec<usize>,
}

impl CoalescedAllGather {
    /// Collective constructor: every rank publishes, for each of its
    /// neighbours, the node offset of that neighbour's block within its own
    /// fused buffer; each rank keeps the entries addressed to itself.
    pub fn prepare(comm: &Comm, graph: &LocalGraph) -> Self {
        // Flat (neighbour, node-offset) pairs describing *our* fused layout.
        let mut table = Vec::with_capacity(2 * graph.halo.neighbors.len());
        for (ni, &s) in graph.halo.neighbors.iter().enumerate() {
            table.push(s as f64);
            table.push(graph.halo.halo_offset(ni) as f64);
        }
        let tables = comm.all_gather(table);
        let offsets = graph
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
            .collect();
        CoalescedAllGather { offsets }
    }
}

impl HaloExchange for CoalescedAllGather {
    fn label(&self) -> &'static str {
        HaloExchangeMode::Coalesced.label()
    }

    fn is_consistent(&self) -> bool {
        true
    }

    fn exchange(&self, a: &mut Tensor, graph: &LocalGraph, comm: &Comm) {
        let cols = a.cols();
        // Every neighbour's payload in one buffer, in neighbour order
        // (matching `HaloPlan::halo_offset`).
        let fused = pack(a, graph, 0..graph.halo.neighbors.len(), 0);
        let gathered = comm.all_gather(fused);
        accumulate_halos(a, graph, |ni, s| {
            let start = self.offsets[ni] * cols;
            &gathered[s][start..start + graph.halo.send_ids[ni].len() * cols]
        });
    }

    fn traffic_per_exchange(&self, g: &LocalGraph, world: usize, cols: usize) -> ExchangeTraffic {
        // The fused buffer is replicated to every other rank.
        let peers = world.saturating_sub(1) as u64;
        ExchangeTraffic {
            messages: if g.halo.halo_count() > 0 { peers } else { 0 },
            bytes: peers * (g.halo.halo_count() * cols * std::mem::size_of::<f64>()) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgnn_comm::World;
    use cgnn_graph::build_distributed_graph;
    use cgnn_mesh::BoxMesh;
    use cgnn_partition::{Partition, Strategy};

    /// After an exchange, every coincident copy of a node must hold the sum
    /// of all pre-exchange copies — identically across ranks and modes.
    fn check_mode(mode: HaloExchangeMode) {
        let mesh = BoxMesh::new((4, 4, 4), 2, (1.0, 1.0, 1.0), false);
        let part = Partition::new(&mesh, 8, Strategy::Block);
        let graphs = Arc::new(build_distributed_graph(&mesh, &part));

        let results = World::run(8, |comm| {
            let g = &graphs[comm.rank()];
            let ctx = HaloContext::new(comm.clone(), g, mode);
            // a[i] = gid + rank * 1e-3 so copies differ per rank.
            let a = Tensor::from_fn(g.n_local(), 2, |r, c| {
                g.gids[r] as f64 + comm.rank() as f64 * 1e-3 + c as f64 * 10.0
            });
            let out = halo_exchange_apply(&a, g, &ctx);
            (g.gids.clone(), a, out)
        });

        // Reference: per gid, the sum over ranks holding it.
        let mut sums: std::collections::HashMap<u64, [f64; 2]> = Default::default();
        for (gids, a, _) in &results {
            for (r, &gid) in gids.iter().enumerate() {
                let e = sums.entry(gid).or_insert([0.0, 0.0]);
                e[0] += a.get(r, 0);
                e[1] += a.get(r, 1);
            }
        }
        for (gids, a, out) in &results {
            for (r, &gid) in gids.iter().enumerate() {
                let copies = graphs
                    .iter()
                    .filter(|g| g.local_of_gid(gid).is_some())
                    .count();
                for c in 0..2 {
                    let expect = if copies > 1 {
                        sums[&gid][c]
                    } else {
                        a.get(r, c)
                    };
                    assert!(
                        (out.get(r, c) - expect).abs() < 1e-12,
                        "mode {mode:?} gid {gid} col {c}: {} vs {}",
                        out.get(r, c),
                        expect
                    );
                }
            }
        }
    }

    #[test]
    fn every_consistent_mode_synchronizes_coincident_nodes() {
        for mode in HaloExchangeMode::all() {
            if mode.is_consistent() {
                check_mode(mode);
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
        let stats = World::run(4, |comm| {
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
            comm.stats_snapshot()
        });
        drop(stats);
    }

    /// The trait's predicted traffic matches what the communicator measures,
    /// for every strategy.
    #[test]
    fn predicted_traffic_matches_measured() {
        let mesh = BoxMesh::new((4, 4, 2), 1, (1.0, 1.0, 1.0), false);
        let part = Partition::new(&mesh, 4, Strategy::Pencil);
        let graphs = Arc::new(build_distributed_graph(&mesh, &part));
        let cols = 5;
        for mode in HaloExchangeMode::all() {
            let graphs = Arc::clone(&graphs);
            World::run(4, move |comm| {
                let g = &graphs[comm.rank()];
                let ctx = HaloContext::new(comm.clone(), g, mode);
                comm.stats_reset();
                let a = Tensor::from_fn(g.n_local(), cols, |r, c| (r + c) as f64);
                let _ = halo_exchange_apply(&a, g, &ctx);
                let s = comm.stats_snapshot();
                let predicted = ctx.strategy().traffic_per_exchange(g, comm.size(), cols);
                let measured = ExchangeTraffic {
                    messages: s.a2a_messages + s.sends + s.all_gathers * (comm.size() as u64 - 1),
                    bytes: s.a2a_bytes + s.send_bytes + s.all_gather_bytes,
                };
                assert_eq!(predicted, measured, "mode {mode} traffic mismatch");
                // Point-to-point accounting is symmetric: every send this
                // rank injected was drained by a matching receive.
                assert_eq!(s.sends, s.recvs, "mode {mode}: sends != recvs");
                assert_eq!(
                    s.send_bytes, s.recv_bytes,
                    "mode {mode}: send bytes != recv bytes"
                );
            });
        }
    }

    #[test]
    fn coalesced_uses_one_collective_per_exchange() {
        let mesh = BoxMesh::new((4, 4, 4), 1, (1.0, 1.0, 1.0), false);
        let part = Partition::new(&mesh, 8, Strategy::Block);
        let graphs = Arc::new(build_distributed_graph(&mesh, &part));
        World::run(8, |comm| {
            let g = &graphs[comm.rank()];
            let ctx = HaloContext::new(comm.clone(), g, HaloExchangeMode::Coalesced);
            comm.stats_reset();
            let a = Tensor::from_fn(g.n_local(), 3, |r, _| r as f64);
            let _ = halo_exchange_apply(&a, g, &ctx);
            let s = comm.stats_snapshot();
            assert_eq!(s.all_gathers, 1, "one fused collective");
            assert_eq!(s.a2a_messages, 0);
            assert_eq!(s.sends, 0);
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

    /// A custom strategy plugged in through `with_strategy` — the extension
    /// point the trait exists for. This one wraps N-A2A and counts calls.
    #[test]
    fn custom_strategy_via_with_strategy() {
        use std::sync::atomic::{AtomicU64, Ordering};

        struct Counting {
            inner: NeighborAllToAll,
            calls: AtomicU64,
        }
        impl HaloExchange for Counting {
            fn label(&self) -> &'static str {
                "counting"
            }
            fn is_consistent(&self) -> bool {
                true
            }
            fn exchange(&self, a: &mut Tensor, graph: &LocalGraph, comm: &Comm) {
                self.calls.fetch_add(1, Ordering::Relaxed);
                self.inner.exchange(a, graph, comm)
            }
        }

        let mesh = BoxMesh::new((2, 2, 2), 1, (1.0, 1.0, 1.0), false);
        let part = Partition::new(&mesh, 2, Strategy::Slab);
        let graphs = Arc::new(build_distributed_graph(&mesh, &part));
        let calls = World::run(2, |comm| {
            let g = &graphs[comm.rank()];
            let strategy = Arc::new(Counting {
                inner: NeighborAllToAll,
                calls: AtomicU64::new(0),
            });
            let ctx = HaloContext::with_strategy(comm.clone(), strategy.clone());
            assert_eq!(ctx.label(), "counting");
            let a = Tensor::from_fn(g.n_local(), 2, |r, c| (r * 2 + c) as f64);
            let reference = {
                let na2a = HaloContext::new(comm.clone(), g, HaloExchangeMode::NeighborAllToAll);
                halo_exchange_apply(&a, g, &na2a)
            };
            let out = halo_exchange_apply(&a, g, &ctx);
            assert_eq!(out, reference, "wrapper must not change arithmetic");
            strategy.calls.load(Ordering::Relaxed)
        });
        assert_eq!(calls, vec![1, 1]);
    }
}
