//! # cgnn-sem
//!
//! A miniature spectral-element method (SEM) solver standing in for NekRS:
//! tensor-product GLL operators on hexahedral elements ([`operators`]),
//! direct-stiffness gather-scatter over coincident nodes
//! ([`gather_scatter`]; its distributed twin is the GNN's halo exchange in
//! `cgnn_core::exchange`), an explicit RK4 diffusion stepper validated
//! against analytic decay rates ([`stepper`]), and snapshot generation
//! feeding the GNN training loop ([`datagen`]): a [`SnapshotStream`] of
//! consecutive pairs captured from one continuous trajectory. It depends on
//! the mesh alone.

pub mod datagen;
pub mod gather_scatter;
pub mod operators;
pub mod stepper;

pub use datagen::SnapshotStream;
pub use gather_scatter::GatherScatter;
pub use operators::ElementOps;
pub use stepper::DiffusionSolver;
