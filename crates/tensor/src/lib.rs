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
mod error;
pub mod gradcheck;
pub mod init;
pub mod kernels;
pub mod ops;
pub mod shape;
pub mod telemetry;
mod tensor;

pub use array::NdArray;
pub use error::{Result, TensorError};
pub use ops::conv::{
    avg_pool2d_forward, conv2d_backward, conv2d_forward, conv_out_extent, conv_transpose2d_backward,
    conv_transpose2d_forward, im2col_into, max_pool2d_forward, ConvGrads,
};
pub use ops::norm::{batch_norm_eval_inplace, BatchNormEval};
pub use ops::shape_ops::upsample_nearest2d_forward;
pub use tensor::Tensor;

// Inert names the frozen benchmark still compiles against: its host
// stamp prints `numerics_tier()` and `backend()` with `{:?}`
// (`nfbench/src/host.rs:56-57`), and it names `NumericsTier::Fast`
// (`nfbench/src/probes.rs:122`) and `NumericsTier::Exact`
// (`nfbench/src/workloads/chip.rs:95`) through the
// `neurfill_cmpsim::NumericsTier` re-export. The surrogate has one
// numeric path — the bit-exact f32 kernels — so none of them selects
// anything; the next benchmark PR drops them with the cmpsim shims.
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub enum NumericsTier {
    Exact,
    Fast,
}

#[doc(hidden)]
#[must_use]
pub fn numerics_tier() -> NumericsTier {
    NumericsTier::Exact
}

#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub enum BackendKind {
    Cpu,
}

#[doc(hidden)]
#[must_use]
pub fn backend() -> BackendKind {
    BackendKind::Cpu
}
