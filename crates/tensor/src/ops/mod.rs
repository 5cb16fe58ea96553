//! Differentiable operations on [`crate::Tensor`].
//!
//! Each submodule adds inherent methods to `Tensor` together with the
//! corresponding backward implementations, and the raw `NdArray` kernels
//! (e.g. `im2col`) the operations share.

pub mod activation;
pub mod conv;
mod conv_direct;
pub mod elementwise;
pub mod matmul;
pub mod norm;
pub mod reduce;
pub mod shape_ops;
