//! # cgnn-partition
//!
//! Element-based domain decomposition — the stand-in for the NekRS mesh
//! partitioner the paper links its distributed graphs to. Structured slab /
//! pencil / block layouts cover the paper's "vertical rectangular chunks to
//! sub-cubes" regimes (Table II), and recursive coordinate bisection handles
//! arbitrary rank counts. The choice is the closed [`Strategy`] enum: a new
//! partitioner (a METIS-like multilevel scheme, say) is one more variant
//! and one more arm in [`Partition::new`].

pub mod layout;
pub mod partition;
pub mod rcb;

pub use layout::Layout;
pub use partition::{Partition, Strategy};
