//! Differentiable shape manipulation: reshape, concat (the UNet's skip
//! connections) and matrix transpose.

use crate::array::NdArray;
use crate::error::Result;
use crate::tensor::{GradFn, Tensor};

struct ReshapeGrad {
    in_shape: Vec<usize>,
}

impl GradFn for ReshapeGrad {
    fn backward(&self, grad: &NdArray, _needs: &[bool]) -> Vec<Option<NdArray>> {
        vec![grad.reshape(&self.in_shape).ok()]
    }
    fn name(&self) -> &'static str {
        "reshape"
    }
}

struct ConcatGrad {
    axis: usize,
    extents: Vec<usize>,
}

impl GradFn for ConcatGrad {
    fn backward(&self, grad: &NdArray, _needs: &[bool]) -> Vec<Option<NdArray>> {
        match grad.split(self.axis, &self.extents) {
            Ok(parts) => parts.into_iter().map(Some).collect(),
            Err(_) => vec![None; self.extents.len()],
        }
    }
    fn name(&self) -> &'static str {
        "concat"
    }
}

struct TransposeGrad;

impl GradFn for TransposeGrad {
    fn backward(&self, grad: &NdArray, _needs: &[bool]) -> Vec<Option<NdArray>> {
        vec![grad.transpose2d().ok()]
    }
    fn name(&self) -> &'static str {
        "transpose2d"
    }
}

impl Tensor {
    /// Views the tensor under a new shape.
    ///
    /// # Errors
    ///
    /// Returns an error when element counts differ.
    pub fn reshape(&self, new_shape: &[usize]) -> Result<Tensor> {
        let out = self.data().reshape(new_shape)?;
        Ok(Tensor::from_op(out, vec![self.clone()], Box::new(ReshapeGrad { in_shape: self.shape() })))
    }

    /// Concatenates tensors along `axis` (e.g. UNet skip connections along
    /// the channel axis).
    ///
    /// # Errors
    ///
    /// Returns an error when `parts` is empty or shapes are incompatible.
    pub fn concat(parts: &[Tensor], axis: usize) -> Result<Tensor> {
        let arrays: Vec<NdArray> = parts.iter().map(Tensor::value).collect();
        let refs: Vec<&NdArray> = arrays.iter().collect();
        let out = NdArray::concat(&refs, axis)?;
        let extents = arrays.iter().map(|a| a.shape()[axis]).collect();
        Ok(Tensor::from_op(out, parts.to_vec(), Box::new(ConcatGrad { axis, extents })))
    }

    /// Differentiable matrix transpose.
    ///
    /// # Errors
    ///
    /// Returns an error for non-matrices.
    pub fn transpose2d(&self) -> Result<Tensor> {
        let out = self.data().transpose2d()?;
        Ok(Tensor::from_op(out, vec![self.clone()], Box::new(TransposeGrad)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reshape_grad_reshapes_back() {
        let x = Tensor::parameter(NdArray::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap());
        let y = x.reshape(&[4]).unwrap();
        y.sum().backward().unwrap();
        assert_eq!(x.grad().unwrap().shape(), &[2, 2]);
    }

    #[test]
    fn concat_splits_grad() {
        let a = Tensor::parameter(NdArray::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap());
        let b = Tensor::parameter(NdArray::from_vec(vec![3.0], &[1, 1]).unwrap());
        let c = Tensor::concat(&[a.clone(), b.clone()], 1).unwrap();
        assert_eq!(c.shape(), vec![1, 3]);
        // Weight each output column differently to verify the split.
        let w = Tensor::constant(NdArray::from_vec(vec![1.0, 10.0, 100.0], &[1, 3]).unwrap());
        c.mul(&w).unwrap().sum().backward().unwrap();
        assert_eq!(a.grad().unwrap().as_slice(), &[1.0, 10.0]);
        assert_eq!(b.grad().unwrap().as_slice(), &[100.0]);
    }

    #[test]
    fn transpose_forward_and_grad() {
        let x =
            Tensor::parameter(NdArray::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap());
        let t = x.transpose2d().unwrap();
        assert_eq!(t.shape(), vec![3, 2]);
        // Weight output elements distinctly so the gradient transposes back.
        let w = Tensor::constant(NdArray::from_fn(&[3, 2], |i| (i + 1) as f32));
        t.mul(&w).unwrap().sum().backward().unwrap();
        let g = x.grad().unwrap();
        // w (3x2 row-major) transposed into x's layout (2x3).
        assert_eq!(g.as_slice(), &[1.0, 3.0, 5.0, 2.0, 4.0, 6.0]);
    }
}
