//! Differentiable activation functions.

use crate::array::NdArray;
use crate::tensor::{GradFn, Tensor};

struct PointwiseGrad {
    dydx: NdArray,
    name: &'static str,
}

impl GradFn for PointwiseGrad {
    fn backward(&self, grad: &NdArray, _needs: &[bool]) -> Vec<Option<NdArray>> {
        vec![grad.mul(&self.dydx).ok()]
    }
    fn name(&self) -> &'static str {
        self.name
    }
}

impl Tensor {
    /// Rectified linear unit `max(0, x)`.
    #[must_use]
    pub fn relu(&self) -> Tensor {
        let x = self.value();
        let out = x.map(|v| v.max(0.0));
        let dydx = x.map(|v| if v > 0.0 { 1.0 } else { 0.0 });
        Tensor::from_op(out, vec![self.clone()], Box::new(PointwiseGrad { dydx, name: "relu" }))
    }

    /// Leaky rectified linear unit with negative slope `alpha`.
    #[must_use]
    pub fn leaky_relu(&self, alpha: f32) -> Tensor {
        let x = self.value();
        let out = x.map(|v| if v > 0.0 { v } else { alpha * v });
        let dydx = x.map(|v| if v > 0.0 { 1.0 } else { alpha });
        Tensor::from_op(out, vec![self.clone()], Box::new(PointwiseGrad { dydx, name: "leaky_relu" }))
    }

    /// Logistic sigmoid `1 / (1 + e^{-x})`.
    ///
    /// This is the smoothing used for the outlier objective (paper Eq. 10c).
    #[must_use]
    pub fn sigmoid(&self) -> Tensor {
        let out = self.value().map(|v| 1.0 / (1.0 + (-v).exp()));
        let dydx = out.map(|s| s * (1.0 - s));
        Tensor::from_op(out, vec![self.clone()], Box::new(PointwiseGrad { dydx, name: "sigmoid" }))
    }

    /// Hyperbolic tangent.
    #[must_use]
    pub fn tanh(&self) -> Tensor {
        let out = self.value().map(f32::tanh);
        let dydx = out.map(|t| 1.0 - t * t);
        Tensor::from_op(out, vec![self.clone()], Box::new(PointwiseGrad { dydx, name: "tanh" }))
    }

    /// Softplus `ln(1 + e^x)` — a smooth stand-in for `max(0, x)`.
    #[must_use]
    pub fn softplus(&self) -> Tensor {
        let x = self.value();
        let out = x.map(|v| {
            // Numerically stable: ln(1+e^v) = max(v,0) + ln(1+e^{-|v|}).
            v.max(0.0) + (1.0 + (-v.abs()).exp()).ln()
        });
        let dydx = x.map(|v| 1.0 / (1.0 + (-v).exp()));
        Tensor::from_op(out, vec![self.clone()], Box::new(PointwiseGrad { dydx, name: "softplus" }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn param(v: &[f32]) -> Tensor {
        Tensor::parameter(NdArray::from_slice(v))
    }

    #[test]
    fn relu_forward_backward() {
        let x = param(&[-2.0, 0.0, 3.0]);
        let y = x.relu();
        assert_eq!(y.value().as_slice(), &[0.0, 0.0, 3.0]);
        y.sum().backward().unwrap();
        assert_eq!(x.grad().unwrap().as_slice(), &[0.0, 0.0, 1.0]);
    }

    #[test]
    fn leaky_relu_negative_slope() {
        let x = param(&[-2.0, 3.0]);
        let y = x.leaky_relu(0.1);
        assert_eq!(y.value().as_slice(), &[-0.2, 3.0]);
        y.sum().backward().unwrap();
        let g = x.grad().unwrap();
        assert!((g.as_slice()[0] - 0.1).abs() < 1e-6);
        assert_eq!(g.as_slice()[1], 1.0);
    }

    #[test]
    fn sigmoid_at_zero() {
        let x = param(&[0.0]);
        let y = x.sigmoid();
        assert!((y.item() - 0.5).abs() < 1e-6);
        y.sum().backward().unwrap();
        assert!((x.grad().unwrap().as_slice()[0] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn tanh_grad() {
        let x = param(&[0.5]);
        let y = x.tanh();
        y.sum().backward().unwrap();
        let t = 0.5f32.tanh();
        assert!((x.grad().unwrap().as_slice()[0] - (1.0 - t * t)).abs() < 1e-6);
    }

    #[test]
    fn softplus_is_stable_for_large_inputs() {
        let x = param(&[60.0, -60.0]);
        let y = x.softplus();
        let v = y.value();
        assert!((v.as_slice()[0] - 60.0).abs() < 1e-3);
        assert!(v.as_slice()[1].abs() < 1e-3);
        assert!(v.as_slice()[1] >= 0.0);
    }
}
