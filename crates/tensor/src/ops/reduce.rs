//! Differentiable reductions: sum, mean, population variance and the
//! per-axis mean. These implement the toolkit functions the paper uses
//! in its objective layers (`VAR`, `SUM`, `MEAN` in Eq. 10).

use crate::array::NdArray;
use crate::error::Result;
use crate::tensor::{GradFn, Tensor};

struct SumGrad {
    in_shape: Vec<usize>,
}

impl GradFn for SumGrad {
    fn backward(&self, grad: &NdArray, _needs: &[bool]) -> Vec<Option<NdArray>> {
        // Scalar grad broadcast back to the input shape.
        let g = grad.item();
        vec![Some(NdArray::full(&self.in_shape, g))]
    }
    fn name(&self) -> &'static str {
        "sum"
    }
}

struct MeanGrad {
    in_shape: Vec<usize>,
}

impl GradFn for MeanGrad {
    fn backward(&self, grad: &NdArray, _needs: &[bool]) -> Vec<Option<NdArray>> {
        let n: usize = self.in_shape.iter().product();
        let g = grad.item() / n.max(1) as f32;
        vec![Some(NdArray::full(&self.in_shape, g))]
    }
    fn name(&self) -> &'static str {
        "mean"
    }
}

struct VarGrad {
    centered: NdArray, // x - mean(x)
}

impl GradFn for VarGrad {
    fn backward(&self, grad: &NdArray, _needs: &[bool]) -> Vec<Option<NdArray>> {
        // d var/dx_i = 2 (x_i - x̄) / n  (the mean's own dependence cancels).
        let n = self.centered.numel().max(1) as f32;
        let g = grad.item();
        vec![Some(self.centered.scale(2.0 * g / n))]
    }
    fn name(&self) -> &'static str {
        "var"
    }
}

struct MeanAxisGrad {
    in_shape: Vec<usize>,
    axis: usize,
    keepdim: bool,
    scale: f32,
}

impl GradFn for MeanAxisGrad {
    #[allow(clippy::expect_used)] // shapes were validated in the forward pass
    fn backward(&self, grad: &NdArray, _needs: &[bool]) -> Vec<Option<NdArray>> {
        // Re-insert the reduced axis (extent 1) and broadcast back.
        let mut keep_shape = self.in_shape.clone();
        keep_shape[self.axis] = 1;
        let g = if self.keepdim { grad.clone() } else { grad.reshape(&keep_shape).expect("shape") };
        let full = g.broadcast_to(&self.in_shape).expect("broadcast");
        vec![Some(full.scale(self.scale))]
    }
    fn name(&self) -> &'static str {
        "mean_axis"
    }
}

impl Tensor {
    /// Sum of all elements, producing a scalar tensor.
    #[must_use]
    pub fn sum(&self) -> Tensor {
        let out = NdArray::scalar(self.data().sum());
        Tensor::from_op(out, vec![self.clone()], Box::new(SumGrad { in_shape: self.shape() }))
    }

    /// Mean of all elements, producing a scalar tensor.
    #[must_use]
    pub fn mean(&self) -> Tensor {
        let out = NdArray::scalar(self.data().mean());
        Tensor::from_op(out, vec![self.clone()], Box::new(MeanGrad { in_shape: self.shape() }))
    }

    /// Population variance of all elements, producing a scalar tensor.
    ///
    /// This matches the paper's height-variance objective (Eq. 1 / 10a).
    #[must_use]
    pub fn var(&self) -> Tensor {
        let x = self.value();
        let m = x.mean();
        let centered = x.map(|v| v - m);
        let out = NdArray::scalar(x.var());
        Tensor::from_op(out, vec![self.clone()], Box::new(VarGrad { centered }))
    }

    /// Mean over one axis (the paper's `MEAN(H, 1)` in Eq. 10b).
    ///
    /// # Errors
    ///
    /// Returns an error for an out-of-range axis.
    pub fn mean_axis(&self, axis: usize, keepdim: bool) -> Result<Tensor> {
        let out = self.data().mean_axis(axis, keepdim)?;
        let n = self.shape()[axis].max(1) as f32;
        Ok(Tensor::from_op(
            out,
            vec![self.clone()],
            Box::new(MeanAxisGrad { in_shape: self.shape(), axis, keepdim, scale: 1.0 / n }),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_grad_uniform() {
        let x = Tensor::parameter(NdArray::from_slice(&[1.0, 2.0, 3.0, 4.0]));
        x.mean().backward().unwrap();
        assert_eq!(x.grad().unwrap().as_slice(), &[0.25; 4]);
    }

    #[test]
    fn var_forward_and_grad() {
        let x = Tensor::parameter(NdArray::from_slice(&[1.0, 3.0]));
        let v = x.var();
        assert!((v.item() - 1.0).abs() < 1e-6);
        v.backward().unwrap();
        // d var/dx = 2(x - x̄)/n = 2*(-1)/2, 2*(1)/2 = [-1, 1]
        assert_eq!(x.grad().unwrap().as_slice(), &[-1.0, 1.0]);
    }

    #[test]
    fn mean_axis_keepdim_shapes() {
        let x = Tensor::parameter(NdArray::from_vec(vec![2.0; 12], &[3, 4]).unwrap());
        let m = x.mean_axis(0, true).unwrap();
        assert_eq!(m.shape(), vec![1, 4]);
        m.sum().backward().unwrap();
        let g = x.grad().unwrap();
        assert!(g.as_slice().iter().all(|&v| (v - 1.0 / 3.0).abs() < 1e-6));
    }

    #[test]
    fn line_deviation_composition() {
        // σ* building block: SUM(ABS(H - MEAN(H, col)·1)) per Eq. 10b.
        let h = Tensor::parameter(NdArray::from_vec(vec![1.0, 2.0, 3.0, 5.0], &[2, 2]).unwrap());
        let col_mean = h.mean_axis(0, true).unwrap(); // [1, 2] = [2.0, 3.5]
        let dev = h.sub(&col_mean).unwrap().abs().sum();
        assert!((dev.item() - (1.0 + 1.5 + 1.0 + 1.5)).abs() < 1e-5);
        dev.backward().unwrap();
        assert_eq!(h.grad().unwrap().shape(), &[2, 2]);
    }
}
