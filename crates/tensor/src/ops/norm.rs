//! Batch normalization of NCHW data, optionally followed by ReLU, as one
//! kernel and one graph node — over running statistics (evaluation mode)
//! or over the batch's own (training mode).
//!
//! The arithmetic is written once. `batch_norm_eval_inplace` is the
//! normalization itself: both [`Tensor::batch_norm_eval`] and
//! [`Tensor::batch_norm_train`] call it for the value of a single taped
//! node; the training node first takes the batch statistics with `Sum3`.
//! One `GradFn` differentiates both: through the statistics when they
//! came from the batch, past them when they were fixed.
//!
//! Every per-channel reduction here is the three-stage sum `Σ₃` that
//! `mean_axis(0) → (2) → (3)` and `reduce_to_shape` perform, so outputs
//! and gradients carry the bits of the expression composed from
//! elementwise and reduction nodes (kept as a test oracle in
//! `neurfill-nn`).

use crate::array::NdArray;
use crate::error::{Result, TensorError};
use crate::tensor::{GradFn, Tensor};

/// Per-channel statistics and affine parameters of an evaluation-mode
/// batch norm over NCHW data: `y = (x − mean) / √(var + eps) · gamma + beta`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BatchNormEval<'a> {
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
pub(crate) fn batch_norm_eval_inplace(x: &mut NdArray, p: &BatchNormEval<'_>, relu: bool) -> Result<()> {
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

/// The per-channel reduction `Σ₃` over an `[N, ·, H, W]` batch: samples
/// are added, `n` ascending, into an `[H, W]` plane; the plane's rows, `h`
/// ascending, into a `[W]` row; the row's elements, `w` ascending, into
/// the result — `sum_axis(0)`, `(2)`, `(3)` in that order. The order is
/// the contract: it is what makes the fused node bit-equal to the graph
/// it replaced, and with it every trained weight.
struct Sum3 {
    n: usize,
    h: usize,
    w: usize,
    plane: Vec<f32>,
    row: Vec<f32>,
}

impl Sum3 {
    fn new(n: usize, h: usize, w: usize) -> Self {
        Self { n, h, w, plane: vec![0.0; h * w], row: vec![0.0; w] }
    }

    /// `Σ₃` of the values `add_sample(n, plane)` adds onto `plane` for
    /// each sample `n`.
    ///
    /// `MEAN` multiplies by `1/N`, `1/H`, `1/W` after the respective stage
    /// (`mean_axis`). Without it this is `reduce_to_shape`: the factors are
    /// 1.0 (`x · 1.0` is `x` bit for bit), and an axis of extent 1 is not
    /// summed over at all — such a stage starts from −0.0, the one value
    /// `z` with `z + x == x` bit for bit for every `x`.
    fn run<const MEAN: bool>(&mut self, mut add_sample: impl FnMut(usize, &mut [f32])) -> f32 {
        let start = |extent: usize| if MEAN || extent != 1 { 0.0 } else { -0.0 };
        let factor = |extent: usize| if MEAN { 1.0 / extent.max(1) as f32 } else { 1.0 };
        let (per_n, per_h, per_w) = (factor(self.n), factor(self.h), factor(self.w));
        self.plane.fill(start(self.n));
        for ni in 0..self.n {
            add_sample(ni, &mut self.plane);
        }
        self.row.fill(start(self.h));
        for line in self.plane.chunks(self.w.max(1)) {
            for (r, v) in self.row.iter_mut().zip(line) {
                *r += v * per_n;
            }
        }
        let mut total = start(self.w);
        for r in &self.row {
            total += r * per_h;
        }
        total * per_w
    }
}

/// Per-channel mean and (biased) variance of an NCHW batch, each a
/// three-stage mean: `m = mean₃(x)`, `v = mean₃((x − m)²)`.
fn batch_stats(x: &NdArray) -> (Vec<f32>, Vec<f32>) {
    let &[n, channels, h, w] = x.shape() else { return (Vec::new(), Vec::new()) };
    let per = h * w;
    let data = x.as_slice();
    let mut sum = Sum3::new(n, h, w);
    let mut mean = vec![0.0; channels];
    let mut var = vec![0.0; channels];
    for c in 0..channels {
        let sample = |ni: usize| &data[(ni * channels + c) * per..][..per];
        let m = sum.run::<true>(|ni, acc| {
            for (a, x) in acc.iter_mut().zip(sample(ni)) {
                *a += x;
            }
        });
        mean[c] = m;
        var[c] = sum.run::<true>(|ni, acc| {
            for (a, x) in acc.iter_mut().zip(sample(ni)) {
                *a += (x - m) * (x - m);
            }
        });
    }
    (mean, var)
}

/// Backward of [`Tensor::batch_norm_eval`] and [`Tensor::batch_norm_train`].
/// Parents: input, γ, β.
struct BatchNormGrad {
    /// The node's input (shared storage with the parent's value).
    input: NdArray,
    /// The node's output (shared storage with its value): where it is
    /// positive the ReLU passed the gradient.
    output: NdArray,
    mean: Vec<f32>,
    denom: Vec<f32>,
    gamma: Vec<f32>,
    relu: bool,
    /// Whether `mean` and `denom` came from the batch, so the input
    /// gradient also flows through them.
    batch: bool,
}

/// One channel of a [`BatchNormGrad::backward`]: where its planes lie in
/// the output gradient, the output and the input.
struct ChannelPlanes<'a> {
    node: &'a BatchNormGrad,
    grad: &'a [f32],
    channels: usize,
    c: usize,
    per: usize,
}

impl ChannelPlanes<'_> {
    fn range(&self, ni: usize) -> std::ops::Range<usize> {
        let start = (ni * self.channels + self.c) * self.per;
        start..start + self.per
    }

    /// `(g₂, x)` per element of sample `ni`: the output gradient past the
    /// ReLU, and the input. Multiplying by the 1/0 mask (not selecting)
    /// keeps the bits of the composed relu backward; without a ReLU there
    /// is no multiply.
    fn sample(&self, ni: usize) -> impl Iterator<Item = (f32, f32)> + '_ {
        let r = self.range(ni);
        let relu = self.node.relu;
        let planes = self.grad[r.clone()].iter().zip(&self.node.output.as_slice()[r.clone()]);
        planes
            .map(move |(g, y)| if relu { g * if *y > 0.0 { 1.0 } else { 0.0 } } else { *g })
            .zip(self.node.input.as_slice()[r].iter().copied())
    }

    /// `Σ₃ term(g₂, x)` over the channel.
    fn sum3(&self, sum: &mut Sum3, term: impl Fn(f32, f32) -> f32) -> f32 {
        sum.run::<false>(|ni, acc| {
            for (a, (g2, x)) in acc.iter_mut().zip(self.sample(ni)) {
                *a += term(g2, x);
            }
        })
    }
}

impl GradFn for BatchNormGrad {
    // `x · −1.0` is what `scale(-1.0)` computed; a negation would flip the
    // sign bit of a NaN, which the multiply leaves alone.
    #[allow(clippy::neg_multiply)]
    fn backward(&self, grad: &NdArray, needs: &[bool]) -> Vec<Option<NdArray>> {
        let &[n, channels, h, w] = grad.shape() else { return vec![None; 3] };
        let mut dx = if needs[0] { vec![0.0f32; grad.numel()] } else { Vec::new() };
        let mut dgamma = vec![0.0f32; channels];
        let mut dbeta = vec![0.0f32; channels];
        let mut sum = Sum3::new(n, h, w);
        // What a gradient of a three-stage mean spreads to each element:
        // `((· (1/W)) · (1/H)) · (1/N)`, the stages unwound.
        let spread =
            |g: f32| g * (1.0 / w.max(1) as f32) * (1.0 / h.max(1) as f32) * (1.0 / n.max(1) as f32);
        for c in 0..channels {
            let (m, d, gamma) = (self.mean[c], self.denom[c], self.gamma[c]);
            let ch = ChannelPlanes { node: self, grad: grad.as_slice(), channels, c, per: h * w };
            if needs[2] {
                dbeta[c] = ch.sum3(&mut sum, |g2, _| g2);
            }
            if needs[1] {
                dgamma[c] = ch.sum3(&mut sum, |g2, x| g2 * ((x - m) / d));
            }
            if !needs[0] {
                continue;
            }
            if !self.batch {
                for ni in 0..n {
                    for (dx, (g2, _)) in dx[ch.range(ni)].iter_mut().zip(ch.sample(ni)) {
                        *dx = g2 * gamma / d;
                    }
                }
                continue;
            }
            // Through the batch variance, d = √(v + ε), v = mean₃((x − m)²) …
            let dd = ch.sum3(&mut sum, |g2, x| g2 * gamma * (x - m) / d / d * -1.0);
            let dv = dd * if d == 0.0 { 0.0 } else { 0.5 / d };
            let k_v = spread(dv);
            for ni in 0..n {
                for (dx, (g2, x)) in dx[ch.range(ni)].iter_mut().zip(ch.sample(ni)) {
                    *dx = g2 * gamma / d + k_v * ((x - m) * 2.0);
                }
            }
            // … and through the batch mean, m = mean₃(x).
            let dm = sum.run::<false>(|ni, acc| {
                for (a, dc) in acc.iter_mut().zip(&dx[ch.range(ni)]) {
                    *a += dc * -1.0;
                }
            });
            let k_m = spread(dm);
            for ni in 0..n {
                for dx in &mut dx[ch.range(ni)] {
                    *dx += k_m;
                }
            }
        }
        let per_channel = |need: bool, v: Vec<f32>| need.then(|| NdArray::from_slice(&v));
        vec![
            if needs[0] { NdArray::from_vec(dx, grad.shape()).ok() } else { None },
            per_channel(needs[1], dgamma),
            per_channel(needs[2], dbeta),
        ]
    }
    fn name(&self) -> &'static str {
        "batch_norm"
    }
}

impl Tensor {
    /// The one graph node behind both modes: normalizes `self` against
    /// `mean` / `var` with `batch_norm_eval_inplace` and tapes
    /// `BatchNormGrad`.
    #[allow(clippy::too_many_arguments)]
    fn batch_norm_node(
        &self,
        gamma: &Tensor,
        beta: &Tensor,
        mean: &[f32],
        var: &[f32],
        eps: f32,
        relu: bool,
        batch: bool,
    ) -> Result<Tensor> {
        let input = self.value();
        let mut output = input.clone();
        let (g, b) = (gamma.data(), beta.data());
        let p = BatchNormEval { mean, var, gamma: g.as_slice(), beta: b.as_slice(), eps };
        batch_norm_eval_inplace(&mut output, &p, relu)?;
        let grad_fn = BatchNormGrad {
            input,
            output: output.clone(),
            mean: mean.to_vec(),
            denom: (0..mean.len()).map(|c| p.denom(c)).collect(),
            gamma: p.gamma.to_vec(),
            relu,
            batch,
        };
        Ok(Tensor::from_op(output, vec![self.clone(), gamma.clone(), beta.clone()], Box::new(grad_fn)))
    }

    /// Evaluation-mode batch normalization of an NCHW tensor against fixed
    /// per-channel `mean` / `var`, scaled by `gamma` and shifted by `beta`
    /// (both of shape `[C]`), followed by ReLU when `relu` — one graph
    /// node.
    ///
    /// Output and gradients carry the bits of the composition
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
        self.batch_norm_node(gamma, beta, mean.as_slice(), var.as_slice(), eps, relu, false)
    }

    /// Training-mode batch normalization of an NCHW tensor against its own
    /// per-channel batch statistics, followed by ReLU when `relu` — one
    /// graph node, returned with the batch mean and (biased) variance
    /// (each of shape `[C]`) for the caller's running estimates.
    ///
    /// Output and gradients — the input's flows through the statistics —
    /// carry the bits of the composition over `m = x.mean_axis(0) → (2) →
    /// (3)` and `v` likewise of `(x − m)²`:
    /// `x.sub(m).div(√(v + eps)).mul(gamma).add(beta)` (`.relu()`).
    ///
    /// # Errors
    ///
    /// Returns an error when `self` is not rank 4 or its channel count
    /// differs from either parameter's length.
    pub fn batch_norm_train(
        &self,
        gamma: &Tensor,
        beta: &Tensor,
        eps: f32,
        relu: bool,
    ) -> Result<(Tensor, NdArray, NdArray)> {
        let (mean, var) = batch_stats(&self.data());
        let out = self.batch_norm_node(gamma, beta, &mean, &var, eps, relu, true)?;
        Ok((out, NdArray::from_slice(&mean), NdArray::from_slice(&var)))
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
        // Per-element weights: a plain Σy² is blind to the batch statistics'
        // share of the training-mode input gradient.
        let weights =
            Tensor::constant(NdArray::from_fn(&[2, 2, 2, 3], |i| 0.5 + (i as f32 * 0.3).cos()));
        let gamma = NdArray::from_slice(&[1.3, 0.7]);
        let beta = NdArray::from_slice(&[0.05, -0.02]);
        let constant = |a: &NdArray| Tensor::constant(a.clone());
        for (relu, batch) in [(false, false), (true, false), (false, true), (true, true)] {
            let loss = |x: &Tensor, g: &Tensor, b: &Tensor| {
                let y = if batch {
                    x.batch_norm_train(g, b, 1e-5, relu).unwrap().0
                } else {
                    x.batch_norm_eval(g, b, &mean, &var, 1e-5, relu).unwrap()
                };
                y.mul(&weights).unwrap().square().sum()
            };
            let dx = check_gradient(&x, 1e-2, |x| loss(x, &constant(&gamma), &constant(&beta)));
            let dg = check_gradient(&gamma, 1e-2, |g| loss(&constant(&x), g, &constant(&beta)));
            let db = check_gradient(&beta, 1e-2, |b| loss(&constant(&x), &constant(&gamma), b));
            for report in [dx, dg, db] {
                assert!(report.passes(1e-2), "relu={relu} batch={batch}: {report:?}");
            }
        }
    }

    #[test]
    fn batch_statistics_are_the_per_channel_mean_and_variance() {
        let x = Tensor::constant(NdArray::from_fn(&[3, 2, 4, 5], |i| (i as f32 * 0.37).sin() * 2.0));
        let ones = Tensor::constant(NdArray::ones(&[2]));
        let zeros = Tensor::constant(NdArray::zeros(&[2]));
        let (y, mean, var) = x.batch_norm_train(&ones, &zeros, 0.0, false).unwrap();
        assert_eq!((mean.shape(), var.shape()), (&[2usize][..], &[2usize][..]));
        for c in 0..2 {
            let channel = |a: &NdArray| -> Vec<f32> {
                (0..3).flat_map(|n| a.as_slice()[(n * 2 + c) * 20..][..20].to_vec()).collect()
            };
            let xs = NdArray::from_slice(&channel(&x.value()));
            assert!((xs.mean() - mean.as_slice()[c]).abs() < 1e-6);
            assert!((xs.var() - var.as_slice()[c]).abs() < 1e-5);
            let ys = NdArray::from_slice(&channel(&y.value()));
            assert!(ys.mean().abs() < 1e-5 && (ys.var() - 1.0).abs() < 1e-4);
        }
    }
}
