//! # cgnn-tensor
//!
//! Dense `f64` tensors and tape-based reverse-mode automatic differentiation
//! — the from-scratch replacement for the PyTorch autodiff stack used by the
//! paper *Scalable and Consistent Graph Neural Networks for Distributed
//! Mesh-based Data-driven Modeling* (SC24-W).
//!
//! The engine is deliberately small but complete for the paper's needs:
//!
//! * rank-2 tensors with fused-transpose matrix products,
//! * a [`Tape`] recording ops and replaying adjoints in reverse,
//! * gather / scatter-add / row-scale ops for neural message passing,
//! * ELU + LayerNorm + residual [`nn::Mlp`] blocks matching the paper's
//!   architecture description,
//! * a [`tape::CustomOp`] escape hatch through which `cgnn-core` implements
//!   **differentiable halo exchanges and all-reduces** (the Rust analogue of
//!   `torch.distributed.nn`),
//! * a deterministic initializer and Adam optimizer so all ranks hold
//!   identical parameters without broadcasts.

pub mod check;
pub mod init;
pub mod nn;
pub mod optim;
pub(crate) mod par;
pub mod serialize;
pub mod tape;
pub mod tensor;

pub use nn::{BoundParams, Linear, Mlp, ParamId, ParamSet};
pub use optim::{Adam, AdamState};
pub use serialize::{load_checkpoint, restore_into, save_checkpoint};
pub use tape::{CustomOp, Gradients, Tape, VarId};
pub use tensor::Tensor;
