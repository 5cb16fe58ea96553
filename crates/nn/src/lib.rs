//! # neurfill-nn
//!
//! Neural-network building blocks on top of [`neurfill_tensor`]: layers,
//! the UNet surrogate architecture (paper §IV-A, Fig. 4), the Adam optimizer, loss
//! functions, datasets and a training loop implementing the pre-training
//! objective of the NeurFill paper (Eq. 20).
//!
//! # Example
//!
//! ```
//! use neurfill_nn::{UNet, UNetConfig, Module};
//! use neurfill_tensor::{NdArray, Tensor};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let net = UNet::new(UNetConfig { in_channels: 4, ..UNetConfig::default() }, &mut rng);
//! let layout_params = Tensor::constant(NdArray::zeros(&[1, 4, 32, 32]));
//! let height_profile = net.forward(&layout_params)?;
//! assert_eq!(height_profile.shape(), vec![1, 1, 32, 32]);
//! # Ok::<(), neurfill_tensor::TensorError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod batch;
pub mod data;
pub mod layers;
pub mod loss;
pub mod metrics;
mod module;
pub mod optim;
pub mod schedule;
pub mod serialize;
pub mod trainer;
mod unet;

pub use batch::forward_batched;
pub use data::Dataset;
pub use module::{Buffer, Module};
pub use optim::{Adam, AdamState};
pub use schedule::LrSchedule;
pub use trainer::{evaluate, fit, run_epochs, EpochPass, EpochStats, TrainConfig};
pub use unet::{UNet, UNetConfig};
