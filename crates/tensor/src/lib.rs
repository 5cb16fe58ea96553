//! # neurfill-tensor
//!
//! A small, dependency-light, reverse-mode automatic-differentiation tensor
//! engine. It is the substrate that lets the NeurFill reproduction migrate
//! a full-chip CMP simulator onto a neural network (paper §III-A): forward
//! propagation evaluates the planarity objectives, and a single backward
//! pass yields their gradient with respect to thousands of fill variables —
//! replacing thousands of finite-difference simulator invocations.
//!
//! The crate provides:
//!
//! * [`NdArray`] — dense row-major `f32` arrays with broadcasting, matmul,
//!   axis reductions, concat/split.
//! * [`Tensor`] — graph nodes supporting `backward()`, with the operation
//!   set needed for a UNet and the paper's objective layers (Eq. 10):
//!   convolution, transposed convolution, max-pooling, upsampling,
//!   activations, `VAR`/`SUM`/`MEAN`/`ABS`/`SIGMOID`, concat.
//! * [`init`] — Kaiming/Xavier/normal initializers.
//! * [`gradcheck`] — finite-difference gradient verification used across
//!   the workspace's test suites.
//!
//! # Example
//!
//! ```
//! use neurfill_tensor::{NdArray, Tensor};
//!
//! // A toy "objective layer": variance of a 2x2 height map.
//! let h = Tensor::parameter(NdArray::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?);
//! let sigma = h.var();
//! sigma.backward()?;
//! let grad = h.grad().unwrap();
//! assert_eq!(grad.shape(), &[2, 2]);
//! # Ok::<(), neurfill_tensor::TensorError>(())
//! ```
//!
//! Tensors are single-threaded by design (graph nodes are shared through
//! `Rc`); exchange [`NdArray`] values across threads instead.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod array;
pub mod backend;
mod error;
pub mod gradcheck;
pub mod init;
pub mod kernels;
pub mod numerics;
pub mod ops;
pub mod quant;
pub mod shape;
pub mod telemetry;
mod tensor;

pub use array::NdArray;
pub use backend::{backend, set_backend, BackendKind};
pub use error::{Result, TensorError};
pub use numerics::{numerics_tier, set_numerics_tier, NumericsTier};
pub use ops::conv::{
    avg_pool2d_forward, conv2d_backward, conv2d_forward, conv_out_extent, conv_transpose2d_backward,
    conv_transpose2d_forward, im2col_into, max_pool2d_forward, ConvGrads,
};
pub use ops::shape_ops::upsample_nearest2d_forward;
pub use tensor::Tensor;
