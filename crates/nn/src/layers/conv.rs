//! Convolution layers.

use crate::module::Module;
use neurfill_tensor::{init, NdArray, Result, Tensor};
use rand::Rng;

/// A 2-D convolution layer (NCHW).
///
/// # Examples
///
/// ```
/// use neurfill_nn::{layers::Conv2d, Module};
/// use neurfill_tensor::{NdArray, Tensor};
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let conv = Conv2d::new(3, 8, 3, 1, 1, &mut rng);
/// let x = Tensor::constant(NdArray::zeros(&[1, 3, 16, 16]));
/// let y = conv.forward(&x)?;
/// assert_eq!(y.shape(), vec![1, 8, 16, 16]);
/// # Ok::<(), neurfill_tensor::TensorError>(())
/// ```
#[derive(Debug)]
pub struct Conv2d {
    weight: Tensor,
    bias: Tensor,
    stride: usize,
    padding: usize,
}

impl Conv2d {
    /// Creates a convolution with Kaiming-uniform weights.
    #[must_use]
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let fan_in = in_channels * kernel * kernel;
        let weight = Tensor::parameter(init::kaiming_uniform(
            &[out_channels, in_channels, kernel, kernel],
            fan_in,
            rng,
        ));
        let bias = Tensor::parameter(NdArray::zeros(&[out_channels]));
        Self { weight, bias, stride, padding }
    }
}

impl Module for Conv2d {
    fn forward(&self, input: &Tensor) -> Result<Tensor> {
        input.conv2d(&self.weight, Some(&self.bias), self.stride, self.padding)
    }

    fn parameters(&self) -> Vec<Tensor> {
        vec![self.weight.clone(), self.bias.clone()]
    }
}

/// A transposed 2-D convolution layer (up-convolution in the UNet decoder).
#[derive(Debug)]
pub struct ConvTranspose2d {
    weight: Tensor,
    bias: Tensor,
    stride: usize,
    padding: usize,
}

impl ConvTranspose2d {
    /// Creates a transposed convolution with Kaiming-uniform weights.
    #[must_use]
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut impl Rng,
    ) -> Self {
        let fan_in = in_channels * kernel * kernel;
        let weight = Tensor::parameter(init::kaiming_uniform(
            &[in_channels, out_channels, kernel, kernel],
            fan_in,
            rng,
        ));
        let bias = Tensor::parameter(NdArray::zeros(&[out_channels]));
        Self { weight, bias, stride, padding }
    }
}

impl Module for ConvTranspose2d {
    fn forward(&self, input: &Tensor) -> Result<Tensor> {
        input.conv_transpose2d(&self.weight, Some(&self.bias), self.stride, self.padding)
    }

    fn parameters(&self) -> Vec<Tensor> {
        vec![self.weight.clone(), self.bias.clone()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn conv_preserves_spatial_with_same_padding() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let conv = Conv2d::new(2, 4, 3, 1, 1, &mut rng);
        let x = Tensor::constant(NdArray::zeros(&[2, 2, 8, 8]));
        let y = conv.forward(&x).unwrap();
        assert_eq!(y.shape(), vec![2, 4, 8, 8]);
        assert_eq!(conv.num_parameters(), 4 * 2 * 9 + 4);
    }

    #[test]
    fn transpose_doubles_spatial_with_stride2_k2() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let up = ConvTranspose2d::new(4, 2, 2, 2, 0, &mut rng);
        let x = Tensor::constant(NdArray::zeros(&[1, 4, 5, 5]));
        let y = up.forward(&x).unwrap();
        assert_eq!(y.shape(), vec![1, 2, 10, 10]);
    }

    #[test]
    fn gradients_reach_conv_parameters() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let conv = Conv2d::new(1, 2, 3, 1, 1, &mut rng);
        let x = Tensor::constant(NdArray::ones(&[1, 1, 4, 4]));
        conv.forward(&x).unwrap().square().sum().backward().unwrap();
        for p in conv.parameters() {
            assert!(p.grad().is_some());
        }
        conv.zero_grad();
        assert!(conv.parameters().iter().all(|p| p.grad().is_none()));
    }
}
