//! Differentiable matrix multiplication.

use crate::array::NdArray;
use crate::error::Result;
use crate::tensor::{GradFn, Tensor};

struct MatmulGrad {
    a: NdArray,
    b: NdArray,
}

impl GradFn for MatmulGrad {
    fn backward(&self, grad: &NdArray, _needs: &[bool]) -> Vec<Option<NdArray>> {
        // dA = G · Bᵀ ; dB = Aᵀ · G
        let ga = self.b.transpose2d().and_then(|bt| grad.matmul(&bt)).ok();
        let gb = self.a.transpose2d().and_then(|at| at.matmul(grad)).ok();
        vec![ga, gb]
    }
    fn name(&self) -> &'static str {
        "matmul"
    }
}

impl Tensor {
    /// Matrix product of two rank-2 tensors.
    ///
    /// # Errors
    ///
    /// Returns an error for non-matrices or incompatible inner extents.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        let out = self.data().matmul(&other.data())?;
        Ok(Tensor::from_op(
            out,
            vec![self.clone(), other.clone()],
            Box::new(MatmulGrad { a: self.value(), b: other.value() }),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_forward() {
        let a = Tensor::parameter(NdArray::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap());
        let b = Tensor::parameter(NdArray::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]).unwrap());
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.value().as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn matmul_grads() {
        let a = Tensor::parameter(NdArray::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap());
        let b = Tensor::parameter(NdArray::from_vec(vec![3.0, 4.0], &[2, 1]).unwrap());
        let y = a.matmul(&b).unwrap().sum();
        assert_eq!(y.item(), 11.0);
        y.backward().unwrap();
        // dy/da = bᵀ, dy/db = aᵀ
        assert_eq!(a.grad().unwrap().as_slice(), &[3.0, 4.0]);
        assert_eq!(b.grad().unwrap().as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::constant(NdArray::zeros(&[2, 3]));
        let b = Tensor::constant(NdArray::zeros(&[2, 3]));
        assert!(a.matmul(&b).is_err());
    }
}
