//! Differentiable operations on [`crate::Tensor`].
//!
//! Each submodule adds inherent methods to `Tensor` together with the
//! corresponding backward implementations. Raw (non-differentiable)
//! `NdArray` kernels that the operations share — e.g. `im2col` — also live
//! here so the CMP simulator can reuse them without autodiff overhead.

pub mod activation;
pub mod conv;
pub mod elementwise;
pub mod matmul;
pub mod norm;
pub mod reduce;
pub mod shape_ops;
