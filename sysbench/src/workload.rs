//! The four workloads and the inputs a seed makes for them.
//!
//! Each stresses different layers, so that a gain for one path that costs
//! another shows:
//!
//! * `train_r1_compute` — one rank, no exchange, the large model on 729
//!   nodes: `cgnn-tensor` GEMM/tape/Adam do nearly all the work and
//!   `cgnn-comm` none. A kernel gain shows here; a comm change must not.
//! * `train_r2_halo` — two thread ranks, each one element thick (a third
//!   of its rows are halo rows, the most p = 2 allows), small model,
//!   collective `N-A2A` exchange: steps are gather/scatter/tape-bound and
//!   `core::exchange` plus the in-memory matching engine take their
//!   largest achievable share.
//! * `train_r2_wire` — two *process* ranks over Unix sockets (CGNW frames,
//!   checksums), a small mesh, the isend/irecv `Ovl-SR` exchange: the
//!   strong-scaling limit where per-message wire overhead dominates, and a
//!   different path through `cgnn-comm`/`core::exchange` than
//!   `train_r2_halo` (p2p vs collective, sockets vs memory).
//! * `serve_open_then_sat` — the only workload where `cgnn-serve`
//!   queueing/batching/HTTP do the work, and the inference (stacked batch)
//!   use of the tensor forward path.

use cgnn_comm::Backend;
use cgnn_core::{GnnConfig, HaloExchangeMode};
use cgnn_mesh::{BoxMesh, TaylorGreen};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "train_r1_compute",
    "train_r2_halo",
    "train_r2_wire",
    "serve_open_then_sat",
];

/// The served workload's name.
pub const SERVE: &str = WORKLOADS[3];

/// Mesh, model and world of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Workload name.
    pub name: &'static str,
    /// Elements per axis (order 2, non-periodic).
    pub elems: (usize, usize, usize),
    /// Side length of the box.
    pub side: f64,
    /// Model size.
    pub config: GnnConfig,
    /// World size.
    pub ranks: usize,
    /// Transport.
    pub backend: Backend,
    /// Halo exchange of the training step.
    pub mode: HaloExchangeMode,
    /// Training steps per timed block: ~0.27 s on the reference box, many
    /// scheduler quanta long, short next to the seconds the host keeps one
    /// speed for.
    pub block_steps: usize,
    /// Blocks per second of `--seconds`, fixed on the reference box.
    /// Windows are sized in ops, not in time: the tape's buffer pool keeps
    /// every tensor that entered it from outside (halo sums, loss targets,
    /// stacked request batches), so resident memory and step time grow
    /// with the op index, and a window that ran longer on a faster host
    /// would measure different work.
    pub blocks_per_s: f64,
}

/// The shape of workload `name`. The serve workload's shape is the served
/// mesh and model (`ServeConfig::default()`), used by its layer probes.
pub fn shape(name: &str) -> Option<Shape> {
    let threads_nbr = (Backend::Threads, HaloExchangeMode::NeighborAllToAll);
    let (name, elems, config, ranks, (backend, mode), block_steps) = match name {
        "train_r1_compute" => (
            WORKLOADS[0],
            (4, 4, 4),
            GnnConfig::large(),
            1,
            threads_nbr,
            2,
        ),
        "train_r2_halo" => (
            WORKLOADS[1],
            (2, 10, 10),
            GnnConfig::small(),
            2,
            threads_nbr,
            6,
        ),
        "train_r2_wire" => (
            WORKLOADS[2],
            (2, 6, 6),
            GnnConfig::small(),
            2,
            (Backend::Proc, HaloExchangeMode::Overlapped),
            16,
        ),
        // A serve "block" is one round of its load: an open-loop segment
        // and a saturation segment, ~1 s together.
        "serve_open_then_sat" => (SERVE, (4, 4, 4), GnnConfig::small(), 1, threads_nbr, 0),
        _ => return None,
    };
    Some(Shape {
        name,
        elems,
        // Training samples the Taylor-Green box; `Server::start` meshes
        // the unit cube.
        side: if name == SERVE {
            1.0
        } else {
            2.0 * std::f64::consts::PI
        },
        config,
        ranks,
        backend,
        mode,
        block_steps,
        blocks_per_s: if name == SERVE { 1.0 } else { 3.7 },
    })
}

impl Shape {
    /// The workload's mesh: order 2, numbered without periodic wrap so
    /// that a slab rank has one shared face.
    pub fn mesh(&self) -> BoxMesh {
        BoxMesh::new(self.elems, 2, (self.side, self.side, self.side), false)
    }

    /// Blocks in a window of `seconds`.
    pub fn blocks(&self, seconds: f64) -> usize {
        ((seconds * self.blocks_per_s).ceil() as usize).max(1)
    }
}

/// SplitMix64: the bench's only random source, so a seed fixes every input.
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The Taylor–Green vortex every workload samples its inputs from.
pub fn field() -> TaylorGreen {
    TaylorGreen::new(0.01)
}

/// Taylor–Green sample time for `seed` (the field decays slowly, so every
/// seed gives a well-conditioned, distinct sample).
pub fn sample_time(seed: u64) -> f64 {
    0.05 + 1e-3 * (seed % 997) as f64
}

/// Due times (seconds from phase start) of a Poisson arrival process at
/// `rate` per second over `duration` seconds, conditioned on its expected
/// count: exactly `rate * duration` arrivals at sorted uniform instants, so
/// every seed attempts the same number of requests.
pub fn arrival_schedule(seed: u64, rate: f64, duration: f64) -> Vec<f64> {
    let mut rng = SplitMix(seed ^ 0xa076_1d64_78bd_642f);
    let n = (rate * duration).round().max(1.0) as usize;
    let mut due: Vec<f64> = (0..n).map(|_| rng.next_f64() * duration).collect();
    due.sort_by(|a, b| a.partial_cmp(b).expect("due times are finite"));
    due
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_workload_has_a_shape() {
        for w in WORKLOADS {
            assert_eq!(shape(w).expect("listed").name, w);
        }
        assert!(shape("nope").is_none());
        assert_eq!(
            shape("train_r1_compute").unwrap().mesh().num_global_nodes(),
            729
        );
    }

    #[test]
    fn arrival_schedules_are_seeded_and_poisson_sized() {
        let a = arrival_schedule(7, 50.0, 14.0);
        assert_eq!(
            a,
            arrival_schedule(7, 50.0, 14.0),
            "same seed, same schedule"
        );
        assert_ne!(a, arrival_schedule(8, 50.0, 14.0));
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "due times ascend");
        assert!(*a.last().unwrap() < 14.0);
        assert_eq!(a.len(), 700, "the expected count, whatever the seed");
        // Exponential gaps: about 1/e of them exceed the mean gap.
        let long = a.windows(2).filter(|w| w[1] - w[0] > 0.02).count();
        assert!((200..320).contains(&long), "{long} long gaps");
    }

    #[test]
    fn sample_times_differ_by_seed() {
        assert_ne!(sample_time(1), sample_time(2));
        assert!(sample_time(996) < 1.1);
    }
}
