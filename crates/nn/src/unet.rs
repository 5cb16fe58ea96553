//! The UNet surrogate architecture (paper §IV-A/F, Fig. 4).
//!
//! A configurable encoder–decoder with skip connections: a down-sampling
//! path captures neighbourhood features of the layout-parameter matrix `L`,
//! and an up-sampling path reconstructs the post-CMP height profile at the
//! original window resolution.

use crate::layers::{BatchNorm2d, Conv2d, ConvTranspose2d};
use crate::module::{Buffer, Module};
use neurfill_tensor::{Result, Tensor, TensorError};
use rand::Rng;

/// Configuration of a [`UNet`].
#[derive(Debug, Clone, PartialEq)]
pub struct UNetConfig {
    /// Number of input channels (layout-parameter planes of `L`).
    pub in_channels: usize,
    /// Number of output channels (1 for the height profile).
    pub out_channels: usize,
    /// Channel width of the first encoder stage; stage `d` uses
    /// `base_channels · 2^d`.
    pub base_channels: usize,
    /// Number of down/up-sampling stages. Input spatial extents must be
    /// divisible by `2^depth`.
    pub depth: usize,
}

impl Default for UNetConfig {
    fn default() -> Self {
        Self { in_channels: 6, out_channels: 1, base_channels: 8, depth: 2 }
    }
}

impl UNetConfig {
    /// Number of `f32` values — parameters plus batch-norm buffers — a
    /// [`UNet`] of this configuration holds, or `None` when the count
    /// overflows `usize`. Lets a loader size-check an untrusted
    /// architecture header before [`UNet::new`] allocates for it.
    #[must_use]
    pub fn value_count(&self) -> Option<usize> {
        // Two 3×3 convolutions with bias, each followed by a batch norm
        // (γ, β, running mean, running variance).
        let double = |i: usize, o: usize| {
            o.checked_mul(i.checked_add(o)?)?.checked_mul(9)?.checked_add(o.checked_mul(10)?)
        };
        let b = self.base_channels;
        let mut total = double(self.in_channels, b)?;
        for d in 0..self.depth {
            let lo = b.checked_mul(1usize.checked_shl(u32::try_from(d).ok()?)?)?;
            let hi = lo.checked_mul(2)?;
            // Down block, 2×2 up-convolution with bias, up block.
            let up = hi.checked_mul(lo)?.checked_mul(4)?.checked_add(lo)?;
            total = total.checked_add(double(lo, hi)?)?.checked_add(up)?.checked_add(double(hi, lo)?)?;
        }
        // 1×1 head with bias.
        total.checked_add(b.checked_mul(self.out_channels)?)?.checked_add(self.out_channels)
    }
}

/// Two (conv 3×3 → batch-norm → ReLU) blocks.
#[derive(Debug)]
struct DoubleConv {
    conv1: Conv2d,
    bn1: BatchNorm2d,
    conv2: Conv2d,
    bn2: BatchNorm2d,
}

impl DoubleConv {
    fn new(in_c: usize, out_c: usize, rng: &mut impl Rng) -> Self {
        Self {
            conv1: Conv2d::new(in_c, out_c, 3, 1, 1, rng),
            bn1: BatchNorm2d::new(out_c),
            conv2: Conv2d::new(out_c, out_c, 3, 1, 1, rng),
            bn2: BatchNorm2d::new(out_c),
        }
    }
}

impl Module for DoubleConv {
    fn forward(&self, input: &Tensor) -> Result<Tensor> {
        let x = self.bn1.apply(&self.conv1.forward(input)?, true)?;
        self.bn2.apply(&self.conv2.forward(&x)?, true)
    }
    fn parameters(&self) -> Vec<Tensor> {
        let mut p = self.conv1.parameters();
        p.extend(self.bn1.parameters());
        p.extend(self.conv2.parameters());
        p.extend(self.bn2.parameters());
        p
    }
    fn buffers(&self) -> Vec<Buffer> {
        let mut b = self.bn1.buffers();
        b.extend(self.bn2.buffers());
        b
    }
    fn set_training(&self, training: bool) {
        self.bn1.set_training(training);
        self.bn2.set_training(training);
    }
}

/// The UNet surrogate replacing the full-chip CMP simulator.
///
/// # Examples
///
/// ```
/// use neurfill_nn::{UNet, UNetConfig, Module};
/// use neurfill_tensor::{NdArray, Tensor};
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let net = UNet::new(UNetConfig { in_channels: 4, out_channels: 1, base_channels: 4, depth: 2 }, &mut rng);
/// let l = Tensor::constant(NdArray::zeros(&[1, 4, 16, 16]));
/// let h = net.forward(&l)?; // post-CMP height profile
/// assert_eq!(h.shape(), vec![1, 1, 16, 16]);
/// # Ok::<(), neurfill_tensor::TensorError>(())
/// ```
#[derive(Debug)]
pub struct UNet {
    config: UNetConfig,
    stem: DoubleConv,
    downs: Vec<DoubleConv>,
    ups: Vec<ConvTranspose2d>,
    up_convs: Vec<DoubleConv>,
    head: Conv2d,
}

impl UNet {
    /// Builds a UNet with randomly initialized weights.
    ///
    /// # Panics
    ///
    /// Panics when `depth`, `base_channels`, `in_channels` or
    /// `out_channels` is zero.
    #[must_use]
    pub fn new(config: UNetConfig, rng: &mut impl Rng) -> Self {
        assert!(config.depth > 0, "UNet depth must be >= 1");
        assert!(config.base_channels > 0, "UNet base_channels must be >= 1");
        assert!(config.in_channels > 0 && config.out_channels > 0);
        let b = config.base_channels;
        let stem = DoubleConv::new(config.in_channels, b, rng);
        let mut downs = Vec::with_capacity(config.depth);
        for d in 0..config.depth {
            downs.push(DoubleConv::new(b << d, b << (d + 1), rng));
        }
        let mut ups = Vec::with_capacity(config.depth);
        let mut up_convs = Vec::with_capacity(config.depth);
        for d in (0..config.depth).rev() {
            ups.push(ConvTranspose2d::new(b << (d + 1), b << d, 2, 2, 0, rng));
            up_convs.push(DoubleConv::new(b << (d + 1), b << d, rng));
        }
        let head = Conv2d::new(b, config.out_channels, 1, 1, 0, rng);
        Self { config, stem, downs, ups, up_convs, head }
    }

    /// The configuration this network was built with.
    #[must_use]
    pub fn config(&self) -> &UNetConfig {
        &self.config
    }

    fn check_input(&self, shape: &[usize]) -> Result<()> {
        if shape.len() != 4 {
            return Err(TensorError::RankMismatch { expected: 4, actual: shape.len(), op: "unet" });
        }
        if shape[1] != self.config.in_channels {
            return Err(TensorError::ShapeMismatch {
                lhs: shape.to_vec(),
                rhs: vec![shape[0], self.config.in_channels, shape[2], shape[3]],
                op: "unet",
            });
        }
        let div = 1usize << self.config.depth;
        if !shape[2].is_multiple_of(div) || !shape[3].is_multiple_of(div) {
            return Err(TensorError::InvalidArgument(format!(
                "UNet depth {} requires spatial extents divisible by {div}, got {}x{}",
                self.config.depth, shape[2], shape[3]
            )));
        }
        Ok(())
    }
}

impl Module for UNet {
    fn forward(&self, input: &Tensor) -> Result<Tensor> {
        self.check_input(&input.shape())?;
        let mut skips = Vec::with_capacity(self.config.depth);
        let mut x = self.stem.forward(input)?;
        for down in &self.downs {
            skips.push(x.clone());
            x = down.forward(&x.max_pool2d(2, 2)?)?;
        }
        // One skip per up stage, consumed deepest-first.
        for ((up, up_conv), skip) in self.ups.iter().zip(&self.up_convs).zip(skips.into_iter().rev()) {
            let upsampled = up.forward(&x)?;
            let cat = Tensor::concat(&[skip, upsampled], 1)?;
            x = up_conv.forward(&cat)?;
        }
        self.head.forward(&x)
    }

    fn parameters(&self) -> Vec<Tensor> {
        let mut p = self.stem.parameters();
        for d in &self.downs {
            p.extend(d.parameters());
        }
        for u in &self.ups {
            p.extend(u.parameters());
        }
        for u in &self.up_convs {
            p.extend(u.parameters());
        }
        p.extend(self.head.parameters());
        p
    }

    fn buffers(&self) -> Vec<Buffer> {
        let mut b = self.stem.buffers();
        for d in &self.downs {
            b.extend(d.buffers());
        }
        for u in &self.up_convs {
            b.extend(u.buffers());
        }
        b
    }

    fn set_training(&self, training: bool) {
        self.stem.set_training(training);
        for d in &self.downs {
            d.set_training(training);
        }
        for u in &self.up_convs {
            u.set_training(training);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurfill_tensor::NdArray;
    use rand::SeedableRng;

    fn small() -> UNet {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        UNet::new(UNetConfig { in_channels: 3, out_channels: 1, base_channels: 4, depth: 2 }, &mut rng)
    }

    #[test]
    fn output_matches_input_resolution() {
        let net = small();
        let x = Tensor::constant(NdArray::zeros(&[2, 3, 16, 16]));
        let y = net.forward(&x).unwrap();
        assert_eq!(y.shape(), vec![2, 1, 16, 16]);
    }

    #[test]
    fn rejects_non_divisible_spatial() {
        let net = small();
        let x = Tensor::constant(NdArray::zeros(&[1, 3, 10, 10]));
        assert!(net.forward(&x).is_err());
    }

    #[test]
    fn rejects_wrong_channels() {
        let net = small();
        let x = Tensor::constant(NdArray::zeros(&[1, 2, 16, 16]));
        assert!(net.forward(&x).is_err());
    }

    #[test]
    fn all_parameters_receive_gradients() {
        let net = small();
        let x = Tensor::constant(NdArray::from_fn(&[1, 3, 8, 8], |i| (i % 7) as f32 * 0.1));
        net.forward(&x).unwrap().square().sum().backward().unwrap();
        let params = net.parameters();
        assert!(!params.is_empty());
        for (i, p) in params.iter().enumerate() {
            assert!(p.grad().is_some(), "parameter {i} has no gradient");
        }
    }

    #[test]
    fn gradient_flows_back_to_input() {
        let net = small();
        let x = Tensor::parameter(NdArray::from_fn(&[1, 3, 8, 8], |i| (i % 5) as f32 * 0.2));
        net.forward(&x).unwrap().sum().backward().unwrap();
        let g = x.grad().unwrap();
        assert_eq!(g.shape(), &[1, 3, 8, 8]);
        assert!(g.as_slice().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn eval_mode_is_deterministic_wrt_batch() {
        let net = small();
        // Move running stats away from init, then freeze.
        let x = Tensor::constant(NdArray::from_fn(&[2, 3, 8, 8], |i| (i % 11) as f32 * 0.05));
        for _ in 0..3 {
            net.forward(&x).unwrap();
        }
        net.set_training(false);
        let single = Tensor::constant(NdArray::from_fn(&[1, 3, 8, 8], |i| (i % 11) as f32 * 0.05));
        let y1 = net.forward(&single).unwrap().value();
        let y2 = net.forward(&single).unwrap().value();
        assert_eq!(y1, y2);
    }

    #[test]
    fn value_count_matches_the_built_network_and_never_overflows() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        for (in_channels, out_channels, base_channels, depth) in
            [(3, 1, 4, 2), (4, 1, 2, 1), (6, 2, 3, 3)]
        {
            let config = UNetConfig { in_channels, out_channels, base_channels, depth };
            let net = UNet::new(config.clone(), &mut rng);
            let buffers: usize = net.buffers().iter().map(|b| b.borrow().numel()).sum();
            assert_eq!(config.value_count(), Some(net.num_parameters() + buffers), "{config:?}");
        }
        for (base_channels, depth) in [(8, 70), (1, usize::MAX), (usize::MAX, 1), (1 << 40, 30)] {
            let config = UNetConfig { in_channels: 4, out_channels: 1, base_channels, depth };
            assert_eq!(config.value_count(), None, "{config:?}");
        }
    }

    #[test]
    fn parameter_count_is_stable() {
        let a = small();
        let b = small();
        assert_eq!(a.num_parameters(), b.num_parameters());
        assert_eq!(a.parameters().len(), b.parameters().len());
    }
}
