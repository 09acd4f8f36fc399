//! # cgnn-mesh
//!
//! Spectral-element box meshes with Gauss-Legendre-Lobatto (GLL) lattices —
//! the NekRS-style discretization substrate the paper's graphs are built
//! from (paper Sec. II-A). Provides:
//!
//! * [`gll`]: GLL nodes/weights/differentiation matrices,
//! * [`box_mesh`]: structured hex meshes with global node numbering,
//!   coincident-node queries, and optional periodic wrap,
//! * [`fields`]: analytic Taylor-Green vortex velocity and deterministic
//!   per-gid noise fields for node attributes.

pub mod box_mesh;
pub mod fields;
pub mod gll;

pub use box_mesh::{BoxMesh, ElemCoords, StackVec};
pub use fields::{GidNoise, SineProduct, TaylorGreen};
pub use gll::GllRule;
