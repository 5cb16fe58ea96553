//! Neural-network layers: convolutions and batch normalization — the
//! three layer kinds the UNet, the trainer and the serializer use.

mod conv;
mod norm;

pub use conv::{Conv2d, ConvTranspose2d};
pub use norm::BatchNorm2d;
