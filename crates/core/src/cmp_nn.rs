//! The CMP neural network (paper §IV-A, Fig. 4): extraction layer +
//! pre-trained UNet + objective layers.
//!
//! Forward propagation evaluates the planarity score `S_plan` (Eq. 5b via
//! the toolkit expressions of Eq. 10); one backward propagation yields
//! `∇S_plan` with respect to every fill amount through the chain rule of
//! Eq. 11 — replacing the thousands of simulator invocations a numerical
//! gradient would need.

use crate::extraction::{extract_layer_arrays, extract_layer_tensor, ExtractionConfig, NUM_CHANNELS};
use crate::score::{Coefficients, NM_TO_ANGSTROM};
use neurfill_cmpsim::{ChipProfile, LayerProfile};
use neurfill_layout::Layout;
use neurfill_nn::{Module, UNet};
use neurfill_tensor::{NdArray, Result, Tensor, TensorError};

/// Affine normalization between UNet output units and simulator nm:
/// `H_nm = output · scale_nm + offset_nm`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeightNorm {
    /// Additive offset (nm) — typically the mean post-CMP height.
    pub offset_nm: f64,
    /// Multiplicative scale (nm) — typically the height standard deviation.
    pub scale_nm: f64,
}

impl Default for HeightNorm {
    fn default() -> Self {
        Self { offset_nm: 400.0, scale_nm: 20.0 }
    }
}

/// Hyper-parameters of the objective layers.
#[derive(Debug, Clone, PartialEq)]
pub struct CmpNnConfig {
    /// Sharpness `η` (per Å) of the sigmoid/softplus relaxation of the
    /// outlier metric (Eq. 10c).
    pub eta: f64,
}

impl Default for CmpNnConfig {
    fn default() -> Self {
        Self { eta: 0.5 }
    }
}

/// Result of one forward+backward pass of the CMP neural network.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanarityEval {
    /// The planarity score `S_plan` (unclamped slopes; see module docs).
    pub score: f64,
    /// `∇S_plan` w.r.t. the flat fill vector.
    pub gradient: Vec<f64>,
}

/// Extraction layer + pre-trained UNet + objective layers.
#[derive(Debug)]
pub struct CmpNeuralNetwork {
    unet: UNet,
    height_norm: HeightNorm,
    extraction: ExtractionConfig,
    config: CmpNnConfig,
}

impl CmpNeuralNetwork {
    /// Assembles the network around a (pre-trained) UNet, which it puts in
    /// evaluation mode and freezes.
    ///
    /// # Panics
    ///
    /// Panics when the UNet was not built for [`NUM_CHANNELS`] input
    /// channels and one output channel.
    #[must_use]
    pub fn new(
        unet: UNet,
        height_norm: HeightNorm,
        extraction: ExtractionConfig,
        config: CmpNnConfig,
    ) -> Self {
        assert_eq!(unet.config().in_channels, NUM_CHANNELS, "UNet must take the extraction channels");
        assert_eq!(unet.config().out_channels, 1, "UNet must emit one height plane");
        unet.set_training(false);
        // The weights are not variables of the filling problem: frozen,
        // `planarity` differentiates the fill amounts only and leaves no
        // gradient on any parameter. (To fine-tune, `copy_parameters` into
        // a fresh `UNet`.)
        for p in unet.parameters() {
            p.set_requires_grad(false);
            p.zero_grad();
        }
        Self { unet, height_norm, extraction, config }
    }

    /// The wrapped UNet.
    #[must_use]
    pub fn unet(&self) -> &UNet {
        &self.unet
    }

    /// The height normalization in use.
    #[must_use]
    pub fn height_norm(&self) -> HeightNorm {
        self.height_norm
    }

    /// The extraction configuration in use.
    #[must_use]
    pub fn extraction(&self) -> &ExtractionConfig {
        &self.extraction
    }

    /// Checks that a layout is compatible with the UNet geometry.
    ///
    /// # Errors
    ///
    /// Returns an error when the window grid is not divisible by the UNet's
    /// down-sampling factor.
    pub fn check_layout(&self, layout: &Layout) -> Result<()> {
        let div = 1usize << self.unet.config().depth;
        if !layout.rows().is_multiple_of(div) || !layout.cols().is_multiple_of(div) {
            return Err(TensorError::InvalidArgument(format!(
                "layout {}x{} not divisible by UNet factor {div}",
                layout.rows(),
                layout.cols()
            )));
        }
        Ok(())
    }

    /// Extracts the UNet input planes of one layer as a rank-3
    /// `[NUM_CHANNELS, rows, cols]` sample — the unit the batched
    /// inference paths stack.
    ///
    /// # Errors
    ///
    /// Returns an error on geometry mismatch.
    pub fn extract_window_sample(&self, layout: &Layout, layer: usize) -> Result<NdArray> {
        self.check_layout(layout)?;
        let (rows, cols) = (layout.rows(), layout.cols());
        extract_layer_arrays(layout, layer, &self.extraction).reshape(&[NUM_CHANNELS, rows, cols])
    }

    /// Runs one multi-sample UNet forward over pre-extracted window
    /// samples (see [`CmpNeuralNetwork::extract_window_sample`]) and
    /// returns the denormalized heights (nm, row-major) per sample.
    ///
    /// Each sample's result is bit-identical to a single-sample forward —
    /// the conv stack processes batch elements independently and the
    /// network runs in eval mode — so stacking a layout's layers into one
    /// forward never perturbs their outputs.
    ///
    /// # Errors
    ///
    /// Returns an error when `samples` is empty or shapes disagree.
    pub fn predict_heights_batch(&self, samples: &[NdArray]) -> Result<Vec<Vec<f64>>> {
        Ok(neurfill_nn::forward_batched(&self.unet, samples)?
            .iter()
            .map(|out| {
                out.as_slice()
                    .iter()
                    .map(|v| f64::from(*v) * self.height_norm.scale_nm + self.height_norm.offset_nm)
                    .collect()
            })
            .collect())
    }

    /// Predicts the post-CMP heights (nm, row-major) of one layer of an
    /// already-filled layout — the surrogate counterpart of
    /// `CmpSimulator::simulate_layer`.
    ///
    /// This is the plain single-window forward; batch-oriented callers use
    /// [`CmpNeuralNetwork::predict_heights_batch`], which produces
    /// bit-identical heights per window through the faster multi-sample
    /// inference path.
    ///
    /// # Errors
    ///
    /// Returns an error on geometry mismatch.
    pub fn predict_layer_heights(&self, layout: &Layout, layer: usize) -> Result<Vec<f64>> {
        let sample = self.extract_window_sample(layout, layer)?;
        let input = sample.reshape(&[1, NUM_CHANNELS, layout.rows(), layout.cols()])?;
        let out = self.unet.infer(&input)?;
        Ok(out
            .as_slice()
            .iter()
            .map(|v| f64::from(*v) * self.height_norm.scale_nm + self.height_norm.offset_nm)
            .collect())
    }

    /// Predicts a whole-chip profile (heights only; the dishing/erosion
    /// planes of the surrogate are zero — the filling objectives never read
    /// them). All layers go through one multi-sample UNet forward.
    ///
    /// # Errors
    ///
    /// Returns an error on geometry mismatch.
    pub fn predict_profile(&self, layout: &Layout) -> Result<ChipProfile> {
        let (rows, cols) = (layout.rows(), layout.cols());
        let samples: Vec<NdArray> = (0..layout.num_layers())
            .map(|l| self.extract_window_sample(layout, l))
            .collect::<Result<_>>()?;
        let layers = self
            .predict_heights_batch(&samples)?
            .into_iter()
            .map(|h| {
                let zeros = vec![0.0; rows * cols];
                LayerProfile::new(rows, cols, h, zeros.clone(), zeros)
            })
            .collect();
        Ok(ChipProfile::new(layers))
    }

    /// Forward+backward pass: evaluates `S_plan(x)` and `∇S_plan(x)` for a
    /// fill vector over the *base* layout (Eq. 10–11).
    ///
    /// The score uses the unclamped slopes `1 − t/β` so gradients keep
    /// pointing toward the scoring region even when a metric is beyond its
    /// β. The hard metrics of a filled layout's predicted profile are
    /// `PlanarityMetrics::from_profile` of [`CmpNeuralNetwork::predict_profile`].
    ///
    /// # Errors
    ///
    /// Returns an error on geometry mismatch or when `x` has the wrong
    /// length.
    pub fn planarity(&self, layout: &Layout, x: &[f64], coeffs: &Coefficients) -> Result<PlanarityEval> {
        self.planarity_impl(layout, x, coeffs, true)
    }

    /// Forward-only variant of [`CmpNeuralNetwork::planarity`]: evaluates
    /// `S_plan(x)` without building a graph. Bit-equal to
    /// [`PlanarityEval::score`] at the same `x`, so a line search that
    /// scores trials with this and steps along `planarity`'s gradient
    /// compares one surface with itself.
    ///
    /// # Errors
    ///
    /// Returns an error on geometry mismatch or when `x` has the wrong
    /// length.
    pub fn planarity_score(&self, layout: &Layout, x: &[f64], coeffs: &Coefficients) -> Result<f64> {
        Ok(self.planarity_impl(layout, x, coeffs, false)?.score)
    }

    // Inert alias the frozen benchmark still compiles against
    // (`nfbench/src/workloads/flow_abc.rs:75`); the next benchmark PR
    // drops it with the `neurfill_tensor` shims.
    #[doc(hidden)]
    pub fn planarity_score_f32(&self, layout: &Layout, x: &[f64], coeffs: &Coefficients) -> Result<f64> {
        self.planarity_score(layout, x, coeffs)
    }

    // The three `expect`s assert that at least one layer was folded into
    // the totals — `check_layout` above guarantees a non-empty layout.
    #[allow(clippy::expect_used)]
    fn planarity_impl(
        &self,
        layout: &Layout,
        x: &[f64],
        coeffs: &Coefficients,
        with_grad: bool,
    ) -> Result<PlanarityEval> {
        self.check_layout(layout)?;
        if x.len() != layout.num_windows() {
            return Err(TensorError::LengthMismatch { expected: layout.num_windows(), actual: x.len() });
        }
        let (rows, cols) = (layout.rows(), layout.cols());
        let per_layer = rows * cols;
        // The objective layers work on *offset-free* heights (Å relative to
        // the nominal post-CMP level): σ, σ* and the 3-sigma outlier
        // threshold are shift-invariant, and subtracting the ~kÅ offset
        // before the f32 graph avoids catastrophic cancellation that would
        // otherwise drown the gradients in rounding noise.
        let ang = (self.height_norm.scale_nm * NM_TO_ANGSTROM) as f32;
        let eta = self.config.eta as f32;

        // S_plan is linear in the per-layer terms (Eq. 5b with unclamped
        // slopes): S_plan = k_σ·Σσ_l + k_σ*·Σσ*_l + k_ol·Σol_l + const, and
        // layer l's terms depend on layer l's fill amounts only. So each
        // layer is differentiated on its own graph, which is dropped before
        // the next layer is built: one UNet graph is alive at a time, not
        // one per layer. The seed reaching σ_l, σ*_l and ol_l is `1·k`
        // either way, so every gradient bit is what the joint graph gave.
        let a = &coeffs.alphas;
        let k_sigma = -(a.sigma / coeffs.beta_sigma) as f32;
        let k_sstar = -(a.sigma_star / coeffs.beta_sigma_star) as f32;
        let k_ol = -(a.ol / coeffs.beta_ol) as f32;

        let mut gradient = Vec::with_capacity(if with_grad { x.len() } else { 0 });
        let mut sigma_total: Option<Tensor> = None;
        let mut sstar_total: Option<Tensor> = None;
        let mut ol_total: Option<Tensor> = None;

        for l in 0..layout.num_layers() {
            let slice = &x[l * per_layer..(l + 1) * per_layer];
            let data: Vec<f32> = slice.iter().map(|v| *v as f32).collect();
            let arr = NdArray::from_vec(data, &[1, 1, rows, cols])?;
            let x_l = if with_grad { Tensor::parameter(arr) } else { Tensor::constant(arr) };
            let planes = extract_layer_tensor(layout, l, &x_l, &self.extraction)?;
            // Only the gradient path needs the autograd graph; `infer` is
            // pinned bit-equal to `forward` (`nn::batch` tests, and the
            // score itself by `per_layer_backward_matches_joint_graph…`).
            let h_raw = if with_grad {
                self.unet.forward(&planes)?
            } else {
                Tensor::constant(self.unet.infer(&planes.value())?)
            };
            // Offset-free heights in Å, as an [N, M] map.
            let h = h_raw.reshape(&[rows, cols])?.scale(ang);

            // Eq. 10a: σ_l = VAR(H).
            let sigma_l = h.var();
            // Eq. 10b: σ*_l = SUM(ABS(H − column means)).
            let col_mean = h.mean_axis(0, true)?;
            let sstar_l = h.sub(&col_mean)?.abs().sum();
            // Eq. 10c with a smooth hinge: ol_l = Σ softplus(η·z)/η where
            // z = H − (mean + 3·std).
            let mean = h.mean();
            let std = sigma_l.clamp_min(1e-12).sqrt();
            let threshold = mean.add(&std.scale(3.0))?;
            let z = h.sub(&threshold)?;
            let ol_l = z.scale(eta).softplus().sum().scale(1.0 / eta);

            if with_grad {
                sigma_l
                    .scale(k_sigma)
                    .add(&sstar_l.scale(k_sstar))?
                    .add(&ol_l.scale(k_ol))?
                    .backward()?;
                match x_l.grad() {
                    Some(g) => gradient.extend(g.as_slice().iter().map(|v| f64::from(*v))),
                    None => gradient.extend(std::iter::repeat_n(0.0, per_layer)),
                }
            }

            // The totals are summed on detached values, in layer order.
            let (sigma_l, sstar_l, ol_l) = (sigma_l.detach(), sstar_l.detach(), ol_l.detach());
            sigma_total = Some(match sigma_total {
                Some(t) => t.add(&sigma_l)?,
                None => sigma_l,
            });
            sstar_total = Some(match sstar_total {
                Some(t) => t.add(&sstar_l)?,
                None => sstar_l,
            });
            ol_total = Some(match ol_total {
                Some(t) => t.add(&ol_l)?,
                None => ol_l,
            });
        }

        let sigma = sigma_total.expect("at least one layer");
        let sstar = sstar_total.expect("at least one layer");
        let ol = ol_total.expect("at least one layer");

        // Merging layer (Eq. 5b) with unclamped slopes:
        // S_plan = α_σ(1 − σ/β_σ) + α_σ*(1 − σ*/β_σ*) + α_ol(1 − ol/β_ol).
        let s_plan = sigma
            .scale(k_sigma)
            .add(&sstar.scale(k_sstar))?
            .add(&ol.scale(k_ol))?
            .add_scalar((a.sigma + a.sigma_star + a.ol) as f32);

        Ok(PlanarityEval { score: f64::from(s_plan.item()), gradient })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score::Alphas;
    use neurfill_layout::{DesignKind, DesignSpec};
    use neurfill_nn::UNetConfig;
    use rand::SeedableRng;

    fn network() -> CmpNeuralNetwork {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let unet = UNet::new(
            UNetConfig { in_channels: NUM_CHANNELS, out_channels: 1, base_channels: 4, depth: 2 },
            &mut rng,
        );
        CmpNeuralNetwork::new(
            unet,
            HeightNorm::default(),
            ExtractionConfig::default(),
            CmpNnConfig::default(),
        )
    }

    fn coeffs() -> Coefficients {
        Coefficients {
            alphas: Alphas::default(),
            beta_sigma: 100.0,
            beta_sigma_star: 1000.0,
            beta_ol: 10.0,
            beta_ov: 1e6,
            beta_fa: 1e6,
            beta_fs_mb: 30.0,
            beta_time_s: 60.0,
            beta_mem_gb: 8.0,
        }
    }

    fn layout() -> Layout {
        DesignSpec::new(DesignKind::CmpTest, 8, 8, 5).generate()
    }

    #[test]
    fn planarity_returns_full_gradient() {
        let net = network();
        let l = layout();
        let x = vec![0.0; l.num_windows()];
        let eval = net.planarity(&l, &x, &coeffs()).unwrap();
        assert_eq!(eval.gradient.len(), l.num_windows());
        assert!(eval.score.is_finite());
        assert!(eval.gradient.iter().any(|g| *g != 0.0));
        // The hard metrics come from the predicted profile, not the eval.
        let hard = crate::PlanarityMetrics::from_profile(&net.predict_profile(&l).unwrap());
        assert!(hard.sigma >= 0.0);
    }

    #[test]
    fn planarity_gradient_matches_directional_finite_difference() {
        // Per-coordinate finite differences are unreliable here: the f32
        // network's ReLU/max-pool kinks make pointwise slopes noisy. A
        // directional derivative along a dense direction averages over
        // kinks and must agree with ∇S_plan·d.
        let net = network();
        let l = layout();
        let c = coeffs();
        let n = l.num_windows();
        let x = vec![100.0; n];
        let eval = net.planarity(&l, &x, &c).unwrap();
        let dir: Vec<f64> = (0..n).map(|i| 0.5 + ((i * 7919) % 13) as f64 / 13.0).collect();
        let directional: f64 = eval.gradient.iter().zip(&dir).map(|(g, d)| g * d).sum();
        // ε must stay below the ReLU/max-pool kink spacing (µm² units).
        let eps = 0.25;
        let xp: Vec<f64> = x.iter().zip(&dir).map(|(v, d)| v + eps * d).collect();
        let xm: Vec<f64> = x.iter().zip(&dir).map(|(v, d)| v - eps * d).collect();
        let fp = net.planarity(&l, &xp, &c).unwrap().score;
        let fm = net.planarity(&l, &xm, &c).unwrap().score;
        let fd = (fp - fm) / (2.0 * eps);
        assert!(
            (fd - directional).abs() < 0.35 * (1e-5 + fd.abs()),
            "directional fd={fd:e} analytic={directional:e}"
        );
    }

    #[test]
    fn frozen_planarity_matches_unfrozen_graph_bit_for_bit() {
        let c = coeffs();
        for edge in [8, 32] {
            for l in neurfill_layout::benchmark_designs(edge, edge, 5) {
                let net = network();
                let x: Vec<f64> = l
                    .slack_vector()
                    .iter()
                    .enumerate()
                    .map(|(i, s)| s * ((i * 37 % 101) as f64 / 100.0))
                    .collect();
                let frozen = net.planarity(&l, &x, &c).unwrap();
                assert!(net.unet().parameters().iter().all(|p| p.grad().is_none()));

                // The backward this replaced: every weight a variable.
                for p in net.unet().parameters() {
                    p.set_requires_grad(true);
                }
                let unfrozen = net.planarity(&l, &x, &c).unwrap();
                assert!(net.unet().parameters().iter().all(|p| p.grad().is_some()));

                assert_eq!(frozen.score.to_bits(), unfrozen.score.to_bits(), "{} {edge}", l.name());
                let bits = |g: &[f64]| g.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&frozen.gradient), bits(&unfrozen.gradient), "{} {edge}", l.name());
                assert!(frozen.gradient.iter().any(|g| *g != 0.0));
            }
        }
    }

    /// What `planarity` replaced: one graph over all layers, summed into
    /// S_plan, differentiated by a single backward pass.
    fn planarity_joint_graph(
        net: &CmpNeuralNetwork,
        layout: &Layout,
        x: &[f64],
        coeffs: &Coefficients,
    ) -> (f64, Vec<f64>) {
        let (rows, cols) = (layout.rows(), layout.cols());
        let per_layer = rows * cols;
        let ang = (net.height_norm.scale_nm * NM_TO_ANGSTROM) as f32;
        let eta = net.config.eta as f32;
        let mut x_tensors = Vec::new();
        let mut totals: [Option<Tensor>; 3] = [None, None, None];
        for l in 0..layout.num_layers() {
            let data: Vec<f32> =
                x[l * per_layer..(l + 1) * per_layer].iter().map(|v| *v as f32).collect();
            let x_l = Tensor::parameter(NdArray::from_vec(data, &[1, 1, rows, cols]).unwrap());
            let planes = extract_layer_tensor(layout, l, &x_l, &net.extraction).unwrap();
            let h = net.unet.forward(&planes).unwrap().reshape(&[rows, cols]).unwrap().scale(ang);
            let sigma_l = h.var();
            let col_mean = h.mean_axis(0, true).unwrap();
            let sstar_l = h.sub(&col_mean).unwrap().abs().sum();
            let std = sigma_l.clamp_min(1e-12).sqrt();
            let threshold = h.mean().add(&std.scale(3.0)).unwrap();
            let ol_l = h.sub(&threshold).unwrap().scale(eta).softplus().sum().scale(1.0 / eta);
            for (total, term) in totals.iter_mut().zip([sigma_l, sstar_l, ol_l]) {
                *total = Some(match total.take() {
                    Some(t) => t.add(&term).unwrap(),
                    None => term,
                });
            }
            x_tensors.push(x_l);
        }
        let [sigma, sstar, ol] = totals.map(Option::unwrap);
        let a = &coeffs.alphas;
        let s_plan = sigma
            .scale(-(a.sigma / coeffs.beta_sigma) as f32)
            .add(&sstar.scale(-(a.sigma_star / coeffs.beta_sigma_star) as f32))
            .unwrap()
            .add(&ol.scale(-(a.ol / coeffs.beta_ol) as f32))
            .unwrap()
            .add_scalar((a.sigma + a.sigma_star + a.ol) as f32);
        s_plan.backward().unwrap();
        let gradient =
            x_tensors.iter().flat_map(|x_l| x_l.grad().unwrap().into_vec()).map(f64::from).collect();
        (f64::from(s_plan.item()), gradient)
    }

    #[test]
    fn per_layer_backward_matches_joint_graph_bit_for_bit() {
        let c = coeffs();
        for edge in [8, 32] {
            for l in neurfill_layout::benchmark_designs(edge, edge, 5) {
                let net = network();
                let x: Vec<f64> = l
                    .slack_vector()
                    .iter()
                    .enumerate()
                    .map(|(i, s)| s * ((i * 53 % 97) as f64 / 96.0))
                    .collect();
                let eval = net.planarity(&l, &x, &c).unwrap();
                let (score, gradient) = planarity_joint_graph(&net, &l, &x, &c);
                assert_eq!(eval.score.to_bits(), score.to_bits(), "{} {edge}", l.name());
                let bits = |g: &[f64]| g.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&eval.gradient), bits(&gradient), "{} {edge}", l.name());
                assert!(gradient.iter().any(|g| *g != 0.0));
                // The forward-only score is the same number.
                assert_eq!(net.planarity_score(&l, &x, &c).unwrap().to_bits(), score.to_bits());
            }
        }
    }

    #[test]
    fn predict_profile_has_layout_dims() {
        let net = network();
        let l = layout();
        let p = net.predict_profile(&l).unwrap();
        assert_eq!(p.num_layers(), 3);
        assert_eq!(p.layer(0).rows(), 8);
    }

    #[test]
    fn batched_heights_match_per_layer_prediction() {
        let net = network();
        let l = layout();
        let samples: Vec<NdArray> =
            (0..l.num_layers()).map(|layer| net.extract_window_sample(&l, layer).unwrap()).collect();
        let batched = net.predict_heights_batch(&samples).unwrap();
        assert_eq!(batched.len(), l.num_layers());
        for (layer, heights) in batched.iter().enumerate() {
            let single = net.predict_layer_heights(&l, layer).unwrap();
            assert_eq!(heights, &single, "layer {layer} must be bit-identical");
        }
        assert!(net.predict_heights_batch(&[]).is_err());
    }

    #[test]
    fn rejects_incompatible_layout() {
        let net = network();
        let l = DesignSpec::new(DesignKind::CmpTest, 6, 6, 5).generate(); // 6 % 4 != 0
        assert!(net.check_layout(&l).is_err());
        assert!(net.predict_profile(&l).is_err());
    }

    #[test]
    fn rejects_wrong_x_length() {
        let net = network();
        let l = layout();
        assert!(net.planarity(&l, &[0.0; 3], &coeffs()).is_err());
    }

    #[test]
    fn score_only_path_matches_full_eval() {
        let net = network();
        let l = layout();
        let x = vec![25.0; l.num_windows()];
        let full = net.planarity(&l, &x, &coeffs()).unwrap();
        let fast = net.planarity_score(&l, &x, &coeffs()).unwrap();
        assert_eq!(full.score, fast);
    }

    #[test]
    fn planarity_is_deterministic() {
        let net = network();
        let l = layout();
        let x = vec![50.0; l.num_windows()];
        let a = net.planarity(&l, &x, &coeffs()).unwrap();
        let b = net.planarity(&l, &x, &coeffs()).unwrap();
        assert_eq!(a.score, b.score);
        assert_eq!(a.gradient, b.gradient);
    }
}
