//! Batch normalization.

use crate::module::{Buffer, Module};
use neurfill_tensor::{batch_norm_eval_inplace, BatchNormEval, NdArray, Result, Tensor};
use std::cell::Cell;
use std::rc::Rc;

/// 2-D batch normalization over NCHW tensors.
///
/// In training mode, statistics are computed from the batch and running
/// estimates are updated; gradients flow through the batch statistics
/// exactly as in PyTorch. In evaluation mode the running estimates are
/// used. Either way [`Module::forward`] tapes one graph node, whose value
/// comes from the kernel ([`neurfill_tensor::batch_norm_eval_inplace`])
/// that [`Module::infer`] runs.
#[derive(Debug)]
pub struct BatchNorm2d {
    gamma: Tensor,
    beta: Tensor,
    running_mean: Buffer,
    running_var: Buffer,
    momentum: f32,
    eps: f32,
    training: Cell<bool>,
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

    /// The normalization, followed by ReLU when `relu` — what
    /// [`Module::forward`] (`relu: false`) and `DoubleConv` (`true`) tape,
    /// as one graph node in either mode.
    ///
    /// Training mode normalizes against the batch statistics
    /// ([`Tensor::batch_norm_train`]; gradients flow through them) and
    /// moves the running estimates towards them. Evaluation mode
    /// normalizes against the running estimates, with the kernel
    /// [`Module::infer`] runs.
    pub(crate) fn apply(&self, input: &Tensor, relu: bool) -> Result<Tensor> {
        if !self.training.get() {
            return input.batch_norm_eval(
                &self.gamma,
                &self.beta,
                &self.running_mean.borrow(),
                &self.running_var.borrow(),
                self.eps,
                relu,
            );
        }
        let (y, mean, var) = input.batch_norm_train(&self.gamma, &self.beta, self.eps, relu)?;
        self.update_running_stats(&mean, &var)?;
        Ok(y)
    }

    /// Moves the running estimates towards one batch's statistics (`[C]`
    /// each).
    fn update_running_stats(&self, mean: &NdArray, var: &NdArray) -> Result<()> {
        let mut rm = self.running_mean.borrow_mut();
        let mut rv = self.running_var.borrow_mut();
        *rm = rm.scale(1.0 - self.momentum).add(&mean.scale(self.momentum))?;
        *rv = rv.scale(1.0 - self.momentum).add(&var.scale(self.momentum))?;
        Ok(())
    }

    /// Forward-only [`BatchNorm2d::apply`] on an array the caller gives up:
    /// evaluation mode normalizes it in place.
    pub(crate) fn infer_owned(&self, mut input: NdArray, relu: bool) -> Result<NdArray> {
        if self.training.get() {
            // Batch statistics need the graph's semantics.
            return self.apply(&Tensor::constant(input), relu).map(|t| t.value());
        }
        let (rm, rv) = (self.running_mean.borrow(), self.running_var.borrow());
        let (g, b) = (self.gamma.data(), self.beta.data());
        let p = BatchNormEval {
            mean: rm.as_slice(),
            var: rv.as_slice(),
            gamma: g.as_slice(),
            beta: b.as_slice(),
            eps: self.eps,
        };
        batch_norm_eval_inplace(&mut input, &p, relu)?;
        Ok(input)
    }
}

impl Module for BatchNorm2d {
    fn forward(&self, input: &Tensor) -> Result<Tensor> {
        self.apply(input, false)
    }

    fn infer(&self, input: &NdArray) -> Result<NdArray> {
        self.infer_owned(input.clone(), false)
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

    fn bits(a: &NdArray) -> Vec<u32> {
        a.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// The evaluation-mode expression the fused node replaced: four
    /// broadcast nodes over the running statistics (five with the ReLU).
    fn composed_eval(bn: &BatchNorm2d, input: &Tensor) -> Result<Tensor> {
        let c = bn.gamma.numel();
        let g = bn.gamma.reshape(&[1, c, 1, 1])?;
        let b = bn.beta.reshape(&[1, c, 1, 1])?;
        let rm = Tensor::constant(bn.running_mean.borrow().reshape(&[1, c, 1, 1])?);
        let rv = Tensor::constant(bn.running_var.borrow().reshape(&[1, c, 1, 1])?);
        let denom = rv.add_scalar(bn.eps).sqrt();
        input.sub(&rm)?.div(&denom)?.mul(&g)?.add(&b)
    }

    /// The training-mode expression the fused node replaced: fifteen nodes
    /// over keepdim means (sixteen with the ReLU), running-statistics
    /// update included.
    fn composed_train(bn: &BatchNorm2d, input: &Tensor) -> Result<Tensor> {
        let c = bn.gamma.numel();
        let g = bn.gamma.reshape(&[1, c, 1, 1])?;
        let b = bn.beta.reshape(&[1, c, 1, 1])?;
        let m = input.mean_axis(0, true)?.mean_axis(2, true)?.mean_axis(3, true)?;
        let centered = input.sub(&m)?;
        let v = centered.square().mean_axis(0, true)?.mean_axis(2, true)?.mean_axis(3, true)?;
        bn.update_running_stats(&m.value().reshape(&[c])?, &v.value().reshape(&[c])?)?;
        let denom = v.add_scalar(bn.eps).sqrt();
        centered.div(&denom)?.mul(&g)?.add(&b)
    }

    /// A layer whose γ / β are off their initial values.
    fn perturbed(c: usize) -> BatchNorm2d {
        let bn = BatchNorm2d::new(c);
        bn.gamma.set_data(NdArray::from_fn(&[c], |i| 0.6 + 0.11 * i as f32 * (-1.0f32).powi(i as i32)));
        bn.beta.set_data(NdArray::from_fn(&[c], |i| 0.05 * (i as f32 - c as f32 / 2.0)));
        bn
    }

    /// Output, input gradient, dγ and dβ of `f` on `bn`, seeded with `seed`.
    fn run(
        bn: &BatchNorm2d,
        input: &NdArray,
        seed: &NdArray,
        f: &dyn Fn(&Tensor) -> Result<Tensor>,
    ) -> [NdArray; 4] {
        let x = Tensor::parameter(input.clone());
        bn.parameters().iter().for_each(Tensor::zero_grad);
        let y = f(&x).unwrap();
        y.backward_with(seed.clone()).unwrap();
        [y.value(), x.grad().unwrap(), bn.gamma.grad().unwrap(), bn.beta.grad().unwrap()]
    }

    #[test]
    fn fused_eval_node_matches_the_composed_graph() {
        for shape in [[1, 8, 32, 32], [2, 16, 16, 16], [1, 32, 8, 8]] {
            let bn = perturbed(shape[1]);
            // Statistics off their initial values.
            let data =
                NdArray::from_fn(&shape, |i| (i as f32 * 0.37).sin() * 1.5 + (i % 7) as f32 * 0.1);
            for _ in 0..3 {
                bn.forward(&Tensor::constant(data.clone())).unwrap();
            }
            bn.set_training(false);
            assert_ne!(bn.running_mean().as_slice()[0], 0.0);
            assert_ne!(bn.running_var().as_slice()[0], 1.0);

            let input = NdArray::from_fn(&shape, |i| (i as f32 * 0.91).cos() * 2.0);
            let seed = NdArray::from_fn(&shape, |i| (i as f32 * 0.53).sin() - 0.2);
            for relu in [true, false] {
                let got = run(&bn, &input, &seed, &|x| bn.apply(x, relu));
                let want = run(&bn, &input, &seed, &|x| {
                    composed_eval(&bn, x).map(|y| if relu { y.relu() } else { y })
                });
                for (got, want) in got.iter().zip(&want) {
                    assert_eq!(bits(got), bits(want), "{shape:?} relu={relu}");
                }
                assert_eq!(got[0].as_slice().contains(&0.0), relu, "the ReLU clamps some outputs");
                // The forward-only path is the same kernel.
                let inferred = bn.infer_owned(input.clone(), relu).unwrap();
                assert_eq!(bits(&inferred), bits(&want[0]), "{shape:?} relu={relu}");
            }
        }
    }

    #[test]
    fn fused_training_node_matches_the_composed_graph() {
        for shape in [[4, 8, 32, 32], [4, 16, 16, 16], [4, 32, 8, 8], [3, 8, 32, 32], [1, 16, 16, 16]] {
            let input =
                NdArray::from_fn(&shape, |i| (i as f32 * 0.91).cos() * 2.0 + (i % 5) as f32 * 0.3);
            let seed = NdArray::from_fn(&shape, |i| (i as f32 * 0.53).sin() - 0.2);
            for relu in [true, false] {
                let (fused, oracle) = (perturbed(shape[1]), perturbed(shape[1]));
                let got = run(&fused, &input, &seed, &|x| fused.apply(x, relu));
                let want = run(&oracle, &input, &seed, &|x| {
                    composed_train(&oracle, x).map(|y| if relu { y.relu() } else { y })
                });
                for (got, want) in got.iter().zip(&want) {
                    assert_eq!(bits(got), bits(want), "{shape:?} relu={relu}");
                }
                assert_eq!(got[0].as_slice().contains(&0.0), relu, "the ReLU clamps some outputs");
                assert_eq!(bits(&fused.running_mean()), bits(&oracle.running_mean()), "{shape:?}");
                assert_eq!(bits(&fused.running_var()), bits(&oracle.running_var()), "{shape:?}");
                assert_ne!(fused.running_mean().as_slice()[0], 0.0);
            }
        }
    }

    #[test]
    fn unit_extents_and_negative_zeros_match_the_composed_graph() {
        // `reduce_to_shape` sums over no axis of extent 1, so a −0.0
        // gradient survives it; a keepdim mean turns it into +0.0.
        for shape in [[1, 2, 1, 1], [1, 2, 1, 3], [2, 2, 1, 1], [1, 2, 3, 1]] {
            let input = NdArray::from_fn(&shape, |i| if i % 2 == 0 { -0.0 } else { 0.7 - i as f32 });
            let seed = NdArray::from_fn(&shape, |i| if i % 3 == 0 { -0.0 } else { 0.4 });
            for relu in [true, false] {
                let (fused, oracle) = (BatchNorm2d::new(2), BatchNorm2d::new(2));
                let got = run(&fused, &input, &seed, &|x| fused.apply(x, relu));
                let want = run(&oracle, &input, &seed, &|x| {
                    composed_train(&oracle, x).map(|y| if relu { y.relu() } else { y })
                });
                for (got, want) in got.iter().zip(&want) {
                    assert_eq!(bits(got), bits(want), "{shape:?} relu={relu}");
                }
            }
        }
    }

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
