//! Elementwise differentiable operations (with NumPy-style broadcasting).

use crate::array::NdArray;
use crate::error::Result;
use crate::tensor::{grad_if, GradFn, Tensor};

/// Backward for `a + b`.
struct AddGrad {
    a_shape: Vec<usize>,
    b_shape: Vec<usize>,
}

impl GradFn for AddGrad {
    fn backward(&self, grad: &NdArray, needs: &[bool]) -> Vec<Option<NdArray>> {
        vec![
            grad_if(needs[0], || grad.reduce_to_shape(&self.a_shape)),
            grad_if(needs[1], || grad.reduce_to_shape(&self.b_shape)),
        ]
    }
    fn name(&self) -> &'static str {
        "add"
    }
}

/// Backward for `a - b`.
struct SubGrad {
    a_shape: Vec<usize>,
    b_shape: Vec<usize>,
}

impl GradFn for SubGrad {
    fn backward(&self, grad: &NdArray, needs: &[bool]) -> Vec<Option<NdArray>> {
        vec![
            grad_if(needs[0], || grad.reduce_to_shape(&self.a_shape)),
            grad_if(needs[1], || grad.scale(-1.0).reduce_to_shape(&self.b_shape)),
        ]
    }
    fn name(&self) -> &'static str {
        "sub"
    }
}

/// Backward for `a * b`.
struct MulGrad {
    a: NdArray,
    b: NdArray,
}

impl GradFn for MulGrad {
    fn backward(&self, grad: &NdArray, needs: &[bool]) -> Vec<Option<NdArray>> {
        vec![
            grad_if(needs[0], || grad.mul(&self.b)?.reduce_to_shape(self.a.shape())),
            grad_if(needs[1], || grad.mul(&self.a)?.reduce_to_shape(self.b.shape())),
        ]
    }
    fn name(&self) -> &'static str {
        "mul"
    }
}

/// Backward for `a / b`.
struct DivGrad {
    a: NdArray,
    b: NdArray,
}

impl GradFn for DivGrad {
    fn backward(&self, grad: &NdArray, needs: &[bool]) -> Vec<Option<NdArray>> {
        vec![
            grad_if(needs[0], || grad.div(&self.b)?.reduce_to_shape(self.a.shape())),
            // d(a/b)/db = -a / b².
            grad_if(needs[1], || {
                grad.mul(&self.a)?
                    .div(&self.b)?
                    .div(&self.b)?
                    .scale(-1.0)
                    .reduce_to_shape(self.b.shape())
            }),
        ]
    }
    fn name(&self) -> &'static str {
        "div"
    }
}

/// Backward for unary maps with a pointwise derivative captured as an array.
struct UnaryGrad {
    dydx: NdArray,
    name: &'static str,
}

impl GradFn for UnaryGrad {
    fn backward(&self, grad: &NdArray, _needs: &[bool]) -> Vec<Option<NdArray>> {
        vec![grad.mul(&self.dydx).ok()]
    }
    fn name(&self) -> &'static str {
        self.name
    }
}

/// Backward for `s · x + t`: the scalar is the whole derivative.
struct AffineGrad {
    scale: f32,
    name: &'static str,
}

impl GradFn for AffineGrad {
    fn backward(&self, grad: &NdArray, _needs: &[bool]) -> Vec<Option<NdArray>> {
        // `g · 1.0` is `g` for every `g`, −0.0 and NaN included.
        vec![Some(if self.scale == 1.0 { grad.clone() } else { grad.scale(self.scale) })]
    }
    fn name(&self) -> &'static str {
        self.name
    }
}

impl Tensor {
    /// Elementwise sum with broadcasting.
    ///
    /// # Errors
    ///
    /// Returns an error when the shapes do not broadcast together.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        let out = self.data().add(&other.data())?;
        Ok(Tensor::from_op(
            out,
            vec![self.clone(), other.clone()],
            Box::new(AddGrad { a_shape: self.shape(), b_shape: other.shape() }),
        ))
    }

    /// Elementwise difference with broadcasting.
    ///
    /// # Errors
    ///
    /// Returns an error when the shapes do not broadcast together.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        let out = self.data().sub(&other.data())?;
        Ok(Tensor::from_op(
            out,
            vec![self.clone(), other.clone()],
            Box::new(SubGrad { a_shape: self.shape(), b_shape: other.shape() }),
        ))
    }

    /// Elementwise (Hadamard) product with broadcasting.
    ///
    /// # Errors
    ///
    /// Returns an error when the shapes do not broadcast together.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        let out = self.data().mul(&other.data())?;
        Ok(Tensor::from_op(
            out,
            vec![self.clone(), other.clone()],
            Box::new(MulGrad { a: self.value(), b: other.value() }),
        ))
    }

    /// Elementwise quotient with broadcasting.
    ///
    /// # Errors
    ///
    /// Returns an error when the shapes do not broadcast together.
    pub fn div(&self, other: &Tensor) -> Result<Tensor> {
        let out = self.data().div(&other.data())?;
        Ok(Tensor::from_op(
            out,
            vec![self.clone(), other.clone()],
            Box::new(DivGrad { a: self.value(), b: other.value() }),
        ))
    }

    /// Negation.
    #[must_use]
    pub fn neg(&self) -> Tensor {
        let out = self.data().scale(-1.0);
        Tensor::from_op(out, vec![self.clone()], Box::new(AffineGrad { scale: -1.0, name: "neg" }))
    }

    /// Adds a scalar to every element.
    #[must_use]
    pub fn add_scalar(&self, s: f32) -> Tensor {
        let out = self.data().add_scalar(s);
        Tensor::from_op(out, vec![self.clone()], Box::new(AffineGrad { scale: 1.0, name: "add_scalar" }))
    }

    /// Multiplies every element by a scalar.
    #[must_use]
    pub fn scale(&self, s: f32) -> Tensor {
        let out = self.data().scale(s);
        Tensor::from_op(out, vec![self.clone()], Box::new(AffineGrad { scale: s, name: "scale" }))
    }

    /// Elementwise square.
    #[must_use]
    pub fn square(&self) -> Tensor {
        let x = self.value();
        let out = x.map(|v| v * v);
        let dydx = x.scale(2.0);
        Tensor::from_op(out, vec![self.clone()], Box::new(UnaryGrad { dydx, name: "square" }))
    }

    /// Elementwise absolute value.
    ///
    /// Uses the subgradient `sign(x)` (zero at `x == 0`).
    #[must_use]
    pub fn abs(&self) -> Tensor {
        let x = self.value();
        let out = x.map(f32::abs);
        let dydx = x.map(|v| {
            if v > 0.0 {
                1.0
            } else if v < 0.0 {
                -1.0
            } else {
                0.0
            }
        });
        Tensor::from_op(out, vec![self.clone()], Box::new(UnaryGrad { dydx, name: "abs" }))
    }

    /// Elementwise `max(x, threshold)` with subgradient 0 on the clamped
    /// side.
    #[must_use]
    pub fn clamp_min(&self, threshold: f32) -> Tensor {
        let x = self.value();
        let out = x.map(|v| v.max(threshold));
        let dydx = x.map(|v| if v > threshold { 1.0 } else { 0.0 });
        Tensor::from_op(out, vec![self.clone()], Box::new(UnaryGrad { dydx, name: "clamp_min" }))
    }

    /// Elementwise natural exponential.
    #[must_use]
    pub fn exp(&self) -> Tensor {
        let out = self.value().map(f32::exp);
        let dydx = out.clone();
        Tensor::from_op(out, vec![self.clone()], Box::new(UnaryGrad { dydx, name: "exp" }))
    }

    /// Elementwise natural logarithm.
    ///
    /// The derivative is `1/x`; callers are responsible for keeping inputs
    /// positive.
    #[must_use]
    pub fn ln(&self) -> Tensor {
        let x = self.value();
        let out = x.map(f32::ln);
        let dydx = x.map(|v| 1.0 / v);
        Tensor::from_op(out, vec![self.clone()], Box::new(UnaryGrad { dydx, name: "ln" }))
    }

    /// Elementwise square root.
    #[must_use]
    pub fn sqrt(&self) -> Tensor {
        let x = self.value();
        let out = x.map(f32::sqrt);
        let dydx = out.map(|v| if v == 0.0 { 0.0 } else { 0.5 / v });
        Tensor::from_op(out, vec![self.clone()], Box::new(UnaryGrad { dydx, name: "sqrt" }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn param(v: &[f32]) -> Tensor {
        Tensor::parameter(NdArray::from_slice(v))
    }

    #[test]
    fn add_grad_flows_to_both() {
        let a = param(&[1.0, 2.0]);
        let b = param(&[3.0, 4.0]);
        a.add(&b).unwrap().sum().backward().unwrap();
        assert_eq!(a.grad().unwrap().as_slice(), &[1.0, 1.0]);
        assert_eq!(b.grad().unwrap().as_slice(), &[1.0, 1.0]);
    }

    #[test]
    fn sub_grad_signs() {
        let a = param(&[1.0]);
        let b = param(&[2.0]);
        a.sub(&b).unwrap().sum().backward().unwrap();
        assert_eq!(a.grad().unwrap().as_slice(), &[1.0]);
        assert_eq!(b.grad().unwrap().as_slice(), &[-1.0]);
    }

    #[test]
    fn mul_grad_is_cross() {
        let a = param(&[2.0]);
        let b = param(&[5.0]);
        a.mul(&b).unwrap().sum().backward().unwrap();
        assert_eq!(a.grad().unwrap().as_slice(), &[5.0]);
        assert_eq!(b.grad().unwrap().as_slice(), &[2.0]);
    }

    #[test]
    fn div_grad() {
        let a = param(&[6.0]);
        let b = param(&[3.0]);
        a.div(&b).unwrap().sum().backward().unwrap();
        assert!((a.grad().unwrap().as_slice()[0] - 1.0 / 3.0).abs() < 1e-6);
        assert!((b.grad().unwrap().as_slice()[0] - (-6.0 / 9.0)).abs() < 1e-6);
    }

    #[test]
    fn broadcast_add_reduces_grad() {
        let a = Tensor::parameter(NdArray::from_vec(vec![0.0; 6], &[2, 3]).unwrap());
        let b = param(&[1.0, 2.0, 3.0]); // broadcast over rows
        a.add(&b).unwrap().sum().backward().unwrap();
        assert_eq!(b.grad().unwrap().shape(), &[3]);
        assert_eq!(b.grad().unwrap().as_slice(), &[2.0, 2.0, 2.0]);
    }

    #[test]
    fn square_and_abs_grads() {
        let x = param(&[-3.0, 0.0, 2.0]);
        x.square().sum().backward().unwrap();
        assert_eq!(x.grad().unwrap().as_slice(), &[-6.0, 0.0, 4.0]);

        let y = param(&[-3.0, 0.0, 2.0]);
        y.abs().sum().backward().unwrap();
        assert_eq!(y.grad().unwrap().as_slice(), &[-1.0, 0.0, 1.0]);
    }

    #[test]
    fn clamp_min_grad_masks() {
        let x = param(&[-1.0, 0.5, 2.0]);
        let y = x.clamp_min(0.0);
        assert_eq!(y.value().as_slice(), &[0.0, 0.5, 2.0]);
        y.sum().backward().unwrap();
        assert_eq!(x.grad().unwrap().as_slice(), &[0.0, 1.0, 1.0]);
    }

    #[test]
    fn exp_ln_sqrt_grads() {
        let x = param(&[1.0]);
        x.exp().sum().backward().unwrap();
        assert!((x.grad().unwrap().as_slice()[0] - 1.0f32.exp()).abs() < 1e-5);

        let y = param(&[2.0]);
        y.ln().sum().backward().unwrap();
        assert!((y.grad().unwrap().as_slice()[0] - 0.5).abs() < 1e-6);

        let z = param(&[4.0]);
        z.sqrt().sum().backward().unwrap();
        assert!((z.grad().unwrap().as_slice()[0] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn chained_expression_grad() {
        // f(x) = (2x + 1)² ⇒ f'(x) = 4(2x + 1); at x = 1 ⇒ 12.
        let x = param(&[1.0]);
        let y = x.scale(2.0).add_scalar(1.0).square().sum();
        assert_eq!(y.item(), 9.0);
        y.backward().unwrap();
        assert_eq!(x.grad().unwrap().as_slice(), &[12.0]);
    }
}
