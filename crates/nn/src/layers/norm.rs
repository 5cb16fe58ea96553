//! Batch normalization.

use crate::module::{Buffer, Module};
use neurfill_tensor::{NdArray, Result, Tensor, TensorError};
use std::cell::Cell;
use std::rc::Rc;

/// 2-D batch normalization over NCHW tensors.
///
/// In training mode, statistics are computed from the batch and running
/// estimates are updated; in evaluation mode the running estimates are used.
/// The normalization expression is built from differentiable primitives, so
/// gradients flow through the batch statistics exactly as in PyTorch.
#[derive(Debug)]
pub struct BatchNorm2d {
    gamma: Tensor,
    beta: Tensor,
    running_mean: Buffer,
    running_var: Buffer,
    momentum: f32,
    eps: f32,
    training: Cell<bool>,
    channels: usize,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer for `channels` feature maps.
    #[must_use]
    pub fn new(channels: usize) -> Self {
        Self {
            gamma: Tensor::parameter(NdArray::ones(&[channels])),
            beta: Tensor::parameter(NdArray::zeros(&[channels])),
            running_mean: Rc::new(std::cell::RefCell::new(NdArray::zeros(&[channels]))),
            running_var: Rc::new(std::cell::RefCell::new(NdArray::ones(&[channels]))),
            momentum: 0.1,
            eps: 1e-5,
            training: Cell::new(true),
            channels,
        }
    }

    /// Running mean estimate (evaluation-mode statistics).
    #[must_use]
    pub fn running_mean(&self) -> NdArray {
        self.running_mean.borrow().clone()
    }

    /// Running variance estimate (evaluation-mode statistics).
    #[must_use]
    pub fn running_var(&self) -> NdArray {
        self.running_var.borrow().clone()
    }
}

impl Module for BatchNorm2d {
    fn forward(&self, input: &Tensor) -> Result<Tensor> {
        let c = self.channels;
        let g = self.gamma.reshape(&[1, c, 1, 1])?;
        let b = self.beta.reshape(&[1, c, 1, 1])?;
        if self.training.get() {
            // Per-channel batch statistics via keepdim means.
            let m = input.mean_axis(0, true)?.mean_axis(2, true)?.mean_axis(3, true)?;
            let centered = input.sub(&m)?;
            let v = centered.square().mean_axis(0, true)?.mean_axis(2, true)?.mean_axis(3, true)?;
            // Update running stats with detached values.
            {
                let mv = m.value().reshape(&[c])?;
                let vv = v.value().reshape(&[c])?;
                let mut rm = self.running_mean.borrow_mut();
                let mut rv = self.running_var.borrow_mut();
                *rm = rm.scale(1.0 - self.momentum).add(&mv.scale(self.momentum))?;
                *rv = rv.scale(1.0 - self.momentum).add(&vv.scale(self.momentum))?;
            }
            let denom = v.add_scalar(self.eps).sqrt();
            centered.div(&denom)?.mul(&g)?.add(&b)
        } else {
            let rm = Tensor::constant(self.running_mean.borrow().reshape(&[1, c, 1, 1])?);
            let rv = Tensor::constant(self.running_var.borrow().reshape(&[1, c, 1, 1])?);
            let denom = rv.add_scalar(self.eps).sqrt();
            input.sub(&rm)?.div(&denom)?.mul(&g)?.add(&b)
        }
    }

    fn infer(&self, input: &NdArray) -> Result<NdArray> {
        // Fused evaluation-mode normalization: one pass instead of four
        // broadcast ops. Per element this computes ((x − m) / d) · g + b in
        // exactly the order the tensor expression does, so outputs stay
        // bit-identical to `forward`. Training mode falls back to `forward`
        // (batch statistics need the graph's semantics).
        if self.training.get() || input.rank() != 4 || input.shape()[1] != self.channels {
            return self.forward(&Tensor::constant(input.clone())).map(|t| t.value());
        }
        let rm = self.running_mean.borrow();
        let rv = self.running_var.borrow();
        let g = self.gamma.data();
        let b = self.beta.data();
        let (mean, var, gamma, beta) = (rm.as_slice(), rv.as_slice(), g.as_slice(), b.as_slice());
        let channels = self.channels;
        if [mean.len(), var.len(), gamma.len(), beta.len()] != [channels; 4] {
            return Err(TensorError::ShapeMismatch {
                lhs: vec![channels],
                rhs: vec![mean.len(), var.len(), gamma.len(), beta.len()],
                op: "batchnorm_infer",
            });
        }
        let per = input.shape()[2] * input.shape()[3];
        let mut out = input.clone();
        for sample in out.as_mut_slice().chunks_mut(channels * per) {
            for (c, block) in sample.chunks_mut(per).enumerate() {
                let m = mean[c];
                let d = (var[c] + self.eps).sqrt();
                let (gc, bc) = (gamma[c], beta[c]);
                for v in block {
                    *v = (*v - m) / d * gc + bc;
                }
            }
        }
        Ok(out)
    }

    fn parameters(&self) -> Vec<Tensor> {
        vec![self.gamma.clone(), self.beta.clone()]
    }

    fn buffers(&self) -> Vec<Buffer> {
        vec![Rc::clone(&self.running_mean), Rc::clone(&self.running_var)]
    }

    fn set_training(&self, training: bool) {
        self.training.set(training);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizes_batch_to_zero_mean_unit_var() {
        let bn = BatchNorm2d::new(2);
        let x = Tensor::constant(NdArray::from_fn(&[2, 2, 3, 3], |i| i as f32));
        let y = bn.forward(&x).unwrap().value();
        // Per-channel mean ≈ 0, var ≈ 1.
        let per_c = y.reshape(&[2, 2, 9]).unwrap();
        for c in 0..2 {
            let mut vals = Vec::new();
            for n in 0..2 {
                for s in 0..9 {
                    vals.push(per_c.at(&[n, c, s]));
                }
            }
            let arr = NdArray::from_slice(&vals);
            assert!(arr.mean().abs() < 1e-4);
            assert!((arr.var() - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn eval_mode_uses_running_stats() {
        let bn = BatchNorm2d::new(1);
        // Train on data with mean 10 to move the running stats.
        let x = Tensor::constant(NdArray::full(&[4, 1, 2, 2], 10.0));
        for _ in 0..200 {
            bn.forward(&x).unwrap();
        }
        bn.set_training(false);
        let y = bn.forward(&x).unwrap().value();
        // Normalized 10.0 against running mean ≈ 10 ⇒ ≈ 0.
        assert!(y.as_slice().iter().all(|v| v.abs() < 0.1), "{y:?}");
    }

    #[test]
    fn gradients_flow_through_batch_stats() {
        let bn = BatchNorm2d::new(1);
        let x = Tensor::parameter(NdArray::from_fn(&[1, 1, 2, 2], |i| i as f32));
        bn.forward(&x).unwrap().square().sum().backward().unwrap();
        assert!(x.grad().is_some());
        assert!(bn.parameters().iter().all(|p| p.grad().is_some()));
    }

    #[test]
    fn running_stats_converge_to_data_stats() {
        let bn = BatchNorm2d::new(1);
        let x = Tensor::constant(NdArray::from_fn(&[8, 1, 2, 2], |i| (i % 4) as f32));
        for _ in 0..200 {
            bn.forward(&x).unwrap();
        }
        let rm = bn.running_mean();
        assert!((rm.as_slice()[0] - 1.5).abs() < 0.05, "{rm:?}");
    }

    #[test]
    fn exposes_two_buffers() {
        let bn = BatchNorm2d::new(3);
        let bufs = bn.buffers();
        assert_eq!(bufs.len(), 2);
        assert_eq!(bufs[0].borrow().shape(), &[3]);
    }
}
