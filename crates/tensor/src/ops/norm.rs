//! Evaluation-mode batch normalization (running statistics), optionally
//! followed by ReLU, as one kernel and one graph node.
//!
//! The arithmetic is written once, in [`batch_norm_eval_inplace`]: the
//! forward-only inference path calls it on an array it owns, and
//! [`Tensor::batch_norm_eval`] calls it for the value of a single taped
//! node. Training-mode normalization (batch statistics) stays a
//! composition of elementwise and reduction nodes in `neurfill-nn`.

use crate::array::NdArray;
use crate::error::{Result, TensorError};
use crate::tensor::{GradFn, Tensor};

/// Per-channel statistics and affine parameters of an evaluation-mode
/// batch norm over NCHW data: `y = (x − mean) / √(var + eps) · gamma + beta`.
#[derive(Debug, Clone, Copy)]
pub struct BatchNormEval<'a> {
    /// Running mean per channel.
    pub mean: &'a [f32],
    /// Running variance per channel.
    pub var: &'a [f32],
    /// Scale γ per channel.
    pub gamma: &'a [f32],
    /// Shift β per channel.
    pub beta: &'a [f32],
    /// Variance floor ε.
    pub eps: f32,
}

impl BatchNormEval<'_> {
    fn denom(&self, c: usize) -> f32 {
        (self.var[c] + self.eps).sqrt()
    }

    /// Elements per channel plane of `x`, after checking that `x` is NCHW
    /// with one channel per statistic.
    fn plane(&self, x: &NdArray) -> Result<usize> {
        if x.rank() != 4 {
            return Err(TensorError::RankMismatch {
                expected: 4,
                actual: x.rank(),
                op: "batch_norm_eval",
            });
        }
        let channels = x.shape()[1];
        let lens = [self.mean.len(), self.var.len(), self.gamma.len(), self.beta.len()];
        if lens != [channels; 4] {
            return Err(TensorError::ShapeMismatch {
                lhs: x.shape().to_vec(),
                rhs: lens.to_vec(),
                op: "batch_norm_eval",
            });
        }
        Ok(x.shape()[2] * x.shape()[3])
    }
}

/// Normalizes `x` in place, one pass: per element `((x − m) / d) · γ + β`
/// with `d = √(v + ε)`, in exactly that order, then `max(0)` when `relu`.
///
/// # Errors
///
/// Returns an error when `x` is not rank 4 or its channel count differs
/// from the parameter lengths.
pub fn batch_norm_eval_inplace(x: &mut NdArray, p: &BatchNormEval<'_>, relu: bool) -> Result<()> {
    let per = p.plane(x)?;
    let channels = p.mean.len();
    if per == 0 || channels == 0 {
        return Ok(());
    }
    for sample in x.as_mut_slice().chunks_mut(channels * per) {
        for (c, block) in sample.chunks_mut(per).enumerate() {
            let (m, d, g, b) = (p.mean[c], p.denom(c), p.gamma[c], p.beta[c]);
            if relu {
                for v in block {
                    *v = ((*v - m) / d * g + b).max(0.0);
                }
            } else {
                for v in block {
                    *v = (*v - m) / d * g + b;
                }
            }
        }
    }
    Ok(())
}

/// Backward of [`Tensor::batch_norm_eval`]. Parents: input, γ, β.
struct BatchNormEvalGrad {
    /// The node's input (shared storage with the parent's value): `dγ`
    /// needs the normalized input, recomputed from it.
    input: NdArray,
    /// The node's output (shared storage with its value): where it is
    /// positive the ReLU passed the gradient.
    output: NdArray,
    mean: Vec<f32>,
    denom: Vec<f32>,
    gamma: Vec<f32>,
    relu: bool,
}

impl GradFn for BatchNormEvalGrad {
    fn backward(&self, grad: &NdArray, needs: &[bool]) -> Vec<Option<NdArray>> {
        let channels = self.mean.len();
        let per = (self.output.shape()[2] * self.output.shape()[3]).max(1);
        let mut dx = if needs[0] { Vec::with_capacity(grad.numel()) } else { Vec::new() };
        let mut dgamma = vec![0.0f64; channels];
        let mut dbeta = vec![0.0f64; channels];
        let planes = grad
            .as_slice()
            .chunks(per)
            .zip(self.output.as_slice().chunks(per))
            .zip(self.input.as_slice().chunks(per));
        for (i, ((g, y), x)) in planes.enumerate() {
            let c = i % channels;
            let (m, d, gamma) = (self.mean[c], self.denom[c], self.gamma[c]);
            // Multiplying by the 1/0 mask (not selecting) keeps the bits of
            // the composed relu → mul → div backward: ((g · mask) · γ) / d.
            let masked =
                g.iter().zip(y).map(|(g, y)| g * if !self.relu || *y > 0.0 { 1.0 } else { 0.0 });
            if needs[0] {
                dx.extend(masked.clone().map(|gm| gm * gamma / d));
            }
            if needs[1] {
                dgamma[c] +=
                    masked.clone().zip(x).map(|(gm, x)| f64::from(gm * ((x - m) / d))).sum::<f64>();
            }
            if needs[2] {
                dbeta[c] += masked.map(f64::from).sum::<f64>();
            }
        }
        let per_channel =
            |need: bool, sums: Vec<f64>| need.then(|| NdArray::from_fn(&[channels], |c| sums[c] as f32));
        vec![
            if needs[0] { NdArray::from_vec(dx, grad.shape()).ok() } else { None },
            per_channel(needs[1], dgamma),
            per_channel(needs[2], dbeta),
        ]
    }
    fn name(&self) -> &'static str {
        "batch_norm_eval"
    }
}

impl Tensor {
    /// Evaluation-mode batch normalization of an NCHW tensor against fixed
    /// per-channel `mean` / `var`, scaled by `gamma` and shifted by `beta`
    /// (both of shape `[C]`), followed by ReLU when `relu` — one graph
    /// node whose value comes from [`batch_norm_eval_inplace`].
    ///
    /// Output and input gradient carry the bits of the composition
    /// `x.sub(mean).div(√(var + eps)).mul(gamma).add(beta)` (`.relu()`).
    ///
    /// # Errors
    ///
    /// Returns an error when `self` is not rank 4 or its channel count
    /// differs from any parameter's length.
    pub fn batch_norm_eval(
        &self,
        gamma: &Tensor,
        beta: &Tensor,
        mean: &NdArray,
        var: &NdArray,
        eps: f32,
        relu: bool,
    ) -> Result<Tensor> {
        let input = self.value();
        let mut output = input.clone();
        let (g, b) = (gamma.data(), beta.data());
        let p = BatchNormEval {
            mean: mean.as_slice(),
            var: var.as_slice(),
            gamma: g.as_slice(),
            beta: b.as_slice(),
            eps,
        };
        batch_norm_eval_inplace(&mut output, &p, relu)?;
        let grad_fn = BatchNormEvalGrad {
            input,
            output: output.clone(),
            mean: p.mean.to_vec(),
            denom: (0..p.mean.len()).map(|c| p.denom(c)).collect(),
            gamma: p.gamma.to_vec(),
            relu,
        };
        Ok(Tensor::from_op(output, vec![self.clone(), gamma.clone(), beta.clone()], Box::new(grad_fn)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradient;

    #[test]
    fn rejects_mismatched_shapes() {
        let p = BatchNormEval {
            mean: &[0.0; 2],
            var: &[1.0; 2],
            gamma: &[1.0; 2],
            beta: &[0.0; 2],
            eps: 1e-5,
        };
        assert!(batch_norm_eval_inplace(&mut NdArray::zeros(&[1, 3, 2, 2]), &p, true).is_err());
        assert!(batch_norm_eval_inplace(&mut NdArray::zeros(&[2, 4]), &p, false).is_err());
        assert!(batch_norm_eval_inplace(&mut NdArray::zeros(&[1, 2, 2, 2]), &p, true).is_ok());
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mean = NdArray::from_slice(&[0.2, -0.1]);
        let var = NdArray::from_slice(&[0.8, 1.5]);
        // Offsets keep every pre-activation away from the ReLU kink.
        let x = NdArray::from_fn(&[2, 2, 2, 3], |i| {
            let v = (i as f32 * 0.7).sin();
            v + 0.3 * v.signum()
        });
        let gamma = NdArray::from_slice(&[1.3, 0.7]);
        let beta = NdArray::from_slice(&[0.05, -0.02]);
        let constant = |a: &NdArray| Tensor::constant(a.clone());
        for relu in [false, true] {
            let loss = |x: &Tensor, g: &Tensor, b: &Tensor| {
                x.batch_norm_eval(g, b, &mean, &var, 1e-5, relu).unwrap().square().sum()
            };
            let dx = check_gradient(&x, 1e-2, |x| loss(x, &constant(&gamma), &constant(&beta)));
            let dg = check_gradient(&gamma, 1e-2, |g| loss(&constant(&x), g, &constant(&beta)));
            let db = check_gradient(&beta, 1e-2, |b| loss(&constant(&x), &constant(&gamma), b));
            for report in [dx, dg, db] {
                assert!(report.passes(1e-2), "relu={relu}: {report:?}");
            }
        }
    }
}
