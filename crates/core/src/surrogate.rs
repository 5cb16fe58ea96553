//! Pre-training of the UNet surrogate (paper §IV-F, Fig. 8, Eq. 20) and
//! its accuracy evaluation (§V-A, Fig. 9).

use crate::cmp_nn::{CmpNeuralNetwork, CmpNnConfig, HeightNorm};
use crate::extraction::{extract_layer_arrays, ExtractionConfig, NUM_CHANNELS};
use neurfill_cmpsim::{ChipProfile, CmpSimulator};
use neurfill_layout::datagen::{DataGenConfig, TrainingLayoutGenerator};
use neurfill_layout::Layout;
use neurfill_nn::{fit, Dataset, Module, TrainConfig, UNet, UNetConfig};
use neurfill_tensor::{NdArray, Result, TensorError};
use rand::Rng;

/// Configuration of surrogate pre-training.
#[derive(Debug, Clone, PartialEq)]
pub struct SurrogateConfig {
    /// Architecture of the UNet (input channels are forced to the
    /// extraction channel count, output to 1).
    pub unet: UNetConfig,
    /// Supervised-training hyper-parameters.
    pub train: TrainConfig,
    /// Number of layouts produced by the two-step random procedure.
    pub num_layouts: usize,
    /// Fraction of samples held out for validation.
    pub validation_fraction: f64,
    /// Two-step random-procedure settings (dims must match `unet.depth`).
    pub datagen: DataGenConfig,
    /// Extraction normalization.
    pub extraction: ExtractionConfig,
    /// Objective-layer hyper-parameters for the assembled network.
    pub cmp_nn: CmpNnConfig,
}

impl Default for SurrogateConfig {
    fn default() -> Self {
        Self {
            unet: UNetConfig { in_channels: NUM_CHANNELS, out_channels: 1, base_channels: 8, depth: 2 },
            train: TrainConfig {
                epochs: 8,
                batch_size: 4,
                lr: 2e-3,
                lr_decay: 0.9,
                ..TrainConfig::default()
            },
            num_layouts: 60,
            validation_fraction: 0.1,
            datagen: DataGenConfig { rows: 32, cols: 32, ..DataGenConfig::default() },
            extraction: ExtractionConfig::default(),
            cmp_nn: CmpNnConfig::default(),
        }
    }
}

/// Training statistics of a surrogate.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Per-epoch (train, validation) MSE in normalized units.
    pub epochs: Vec<(f32, Option<f32>)>,
    /// Number of training samples (layout-layers).
    pub train_samples: usize,
    /// Derived height normalization.
    pub height_norm: HeightNorm,
}

/// A trained surrogate plus its training report.
#[derive(Debug)]
pub struct TrainedSurrogate {
    /// The assembled CMP neural network (extraction + UNet + objectives).
    pub network: CmpNeuralNetwork,
    /// Training statistics.
    pub report: TrainReport,
}

/// Layouts whose simulated profiles fix the height normalization: the
/// first `NORM_LAYOUTS` of a run (fewer when the run is shorter), in
/// [`train_surrogate`] and in every corpus labeler.
pub const NORM_LAYOUTS: usize = 8;

/// The training samples of one simulated layout: per layer, its
/// extraction planes `[NUM_CHANNELS, rows, cols]` and its simulated
/// heights in the network's units `[1, rows, cols]`
/// ([`HeightNorm::normalize`]). Every labeler — [`train_surrogate`] and
/// the sharded corpus writer — turns layouts into samples here.
///
/// # Errors
///
/// Returns a shape error when `profile` does not cover `layout`'s grid.
pub fn label_layout(
    layout: &Layout,
    profile: &ChipProfile,
    extraction: &ExtractionConfig,
    norm: HeightNorm,
) -> Result<Vec<(NdArray, NdArray)>> {
    (0..layout.num_layers())
        .map(|l| {
            let input = extract_layer_arrays(layout, l, extraction);
            let target = profile.layer(l).heights().iter().map(|&h| norm.normalize(h)).collect();
            Ok((input, NdArray::from_vec(target, &[1, layout.rows(), layout.cols()])?))
        })
        .collect()
}

/// Builds the supervised dataset from the generated layouts. `simulated`
/// holds the profiles of the leading layouts that were simulated already;
/// the rest are simulated here, so each layout is simulated once and few
/// profiles are alive at a time.
fn build_dataset(
    layouts: &[Layout],
    simulated: Vec<ChipProfile>,
    sim: &CmpSimulator,
    extraction: &ExtractionConfig,
    norm: HeightNorm,
) -> Result<Dataset> {
    let mut ds = Dataset::new();
    let mut simulated = simulated.into_iter();
    for layout in layouts {
        let profile = simulated.next().unwrap_or_else(|| sim.simulate(layout));
        ds.extend_pairs(label_layout(layout, &profile, extraction, norm)?)?;
    }
    Ok(ds)
}

/// Pre-trains a UNet surrogate of `sim` from `sources` with the two-step
/// random procedure and assembles the CMP neural network.
///
/// # Errors
///
/// Propagates tensor shape errors (e.g. datagen dims incompatible with the
/// UNet depth).
///
/// # Panics
///
/// Panics when `sources` is empty.
pub fn train_surrogate(
    sources: &[Layout],
    sim: &CmpSimulator,
    config: &SurrogateConfig,
    rng: &mut impl Rng,
) -> Result<TrainedSurrogate> {
    assert!(!sources.is_empty(), "need source layouts");
    let div = 1usize << config.unet.depth;
    if !config.datagen.rows.is_multiple_of(div) || !config.datagen.cols.is_multiple_of(div) {
        return Err(TensorError::InvalidArgument(format!(
            "datagen dims {}x{} not divisible by UNet factor {div}",
            config.datagen.rows, config.datagen.cols
        )));
    }
    // Step 1+2 of Fig. 8: assemble + random fill.
    let mut gen = TrainingLayoutGenerator::new(sources.to_vec(), config.datagen.clone());
    let layouts = gen.generate(config.num_layouts);
    let head: Vec<ChipProfile> = layouts.iter().take(NORM_LAYOUTS).map(|l| sim.simulate(l)).collect();
    let norm = HeightNorm::derive(&head);
    let mut train = build_dataset(&layouts, head, sim, &config.extraction, norm)?;
    let val_n = ((train.len() as f64) * config.validation_fraction).round() as usize;
    let val = train.split_off(val_n.min(train.len().saturating_sub(1)));

    let unet_cfg = UNetConfig { in_channels: NUM_CHANNELS, out_channels: 1, ..config.unet.clone() };
    let unet = UNet::new(unet_cfg, rng);
    let train_samples = train.len();
    let history = fit(&unet, &train, Some(&val), &config.train, rng, |_| true)?;
    let epochs = history.iter().map(|e| (e.train_loss, e.val_loss)).collect();
    unet.set_training(false);

    let network = CmpNeuralNetwork::new(unet, norm, config.extraction.clone(), config.cmp_nn.clone());
    Ok(TrainedSurrogate { network, report: TrainReport { epochs, train_samples, height_norm: norm } })
}

/// Per-window accuracy of a surrogate against the golden simulator over a
/// set of evaluation layouts (the data behind Fig. 9).
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyReport {
    /// Mean relative height error over all windows and layouts.
    pub mean_relative_error: f64,
    /// Largest per-window *average* relative error.
    pub max_window_error: f64,
    /// Per-window average relative error map (flat `L·N·M` of the eval
    /// geometry, averaged over layouts).
    pub per_window_error: Vec<f64>,
    /// Number of evaluation layouts.
    pub num_layouts: usize,
}

impl AccuracyReport {
    /// Fraction of windows whose average relative error is below `limit`.
    #[must_use]
    pub fn fraction_below(&self, limit: f64) -> f64 {
        if self.per_window_error.is_empty() {
            return 1.0;
        }
        self.per_window_error.iter().filter(|e| **e < limit).count() as f64
            / self.per_window_error.len() as f64
    }

    /// Histogram of per-window errors with `bins` equal-width bins up to
    /// `max`. Returns `(bin upper edge, count)`.
    #[must_use]
    pub fn histogram(&self, bins: usize, max: f64) -> Vec<(f64, usize)> {
        let mut counts = vec![0usize; bins.max(1)];
        let width = max / bins.max(1) as f64;
        for &e in &self.per_window_error {
            let b = ((e / width) as usize).min(bins.saturating_sub(1));
            counts[b] += 1;
        }
        counts.into_iter().enumerate().map(|(i, c)| ((i + 1) as f64 * width, c)).collect()
    }
}

/// Evaluates surrogate accuracy on `layouts` (typically generated by the
/// two-step procedure from held-out sources for the extension-ability
/// experiment).
///
/// # Errors
///
/// Propagates prediction errors (geometry mismatch).
///
/// # Panics
///
/// Panics when `layouts` is empty or geometries differ between layouts.
pub fn evaluate_surrogate(
    network: &CmpNeuralNetwork,
    sim: &CmpSimulator,
    layouts: &[Layout],
) -> Result<AccuracyReport> {
    assert!(!layouts.is_empty(), "need evaluation layouts");
    let n_windows = layouts[0].num_windows();
    let mut err_sum = vec![0.0f64; n_windows];
    let mut count = 0usize;
    for layout in layouts {
        assert_eq!(layout.num_windows(), n_windows, "evaluation geometries differ");
        let truth = sim.simulate(layout);
        // One multi-sample forward per layout instead of one per layer.
        let samples: Vec<_> = (0..layout.num_layers())
            .map(|l| network.extract_window_sample(layout, l))
            .collect::<Result<_>>()?;
        for (l, pred) in network.predict_heights_batch(&samples)?.iter().enumerate() {
            let t = truth.layer(l).heights();
            let base = l * layout.rows() * layout.cols();
            for (k, (p, h)) in pred.iter().zip(t).enumerate() {
                err_sum[base + k] += (p - h).abs() / h.abs().max(1e-9);
            }
        }
        count += 1;
    }
    let per_window_error: Vec<f64> = err_sum.iter().map(|e| e / count as f64).collect();
    let mean = per_window_error.iter().sum::<f64>() / per_window_error.len().max(1) as f64;
    let max = per_window_error.iter().cloned().fold(0.0, f64::max);
    Ok(AccuracyReport {
        mean_relative_error: mean,
        max_window_error: max,
        per_window_error,
        num_layouts: count,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurfill_cmpsim::ProcessParams;
    use neurfill_layout::{benchmark_designs, DesignKind, DesignSpec};
    use rand::SeedableRng;

    fn tiny_config() -> SurrogateConfig {
        SurrogateConfig {
            unet: UNetConfig { in_channels: NUM_CHANNELS, out_channels: 1, base_channels: 4, depth: 1 },
            train: TrainConfig {
                epochs: 2,
                batch_size: 4,
                lr: 2e-3,
                lr_decay: 1.0,
                ..TrainConfig::default()
            },
            num_layouts: 6,
            validation_fraction: 0.2,
            datagen: DataGenConfig { rows: 8, cols: 8, ..DataGenConfig::default() },
            ..SurrogateConfig::default()
        }
    }

    #[test]
    fn training_produces_finite_losses_and_working_network() {
        let sources = benchmark_designs(10, 10, 1);
        let sim = CmpSimulator::new(ProcessParams::fast()).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let trained = train_surrogate(&sources, &sim, &tiny_config(), &mut rng).unwrap();
        assert_eq!(trained.report.epochs.len(), 2);
        for (t, v) in &trained.report.epochs {
            assert!(t.is_finite());
            assert!(v.unwrap().is_finite());
        }
        // Loss should drop from epoch 0 to the last epoch.
        assert!(trained.report.epochs.last().unwrap().0 <= trained.report.epochs[0].0 * 1.5);
        // The assembled network predicts on compatible layouts.
        let probe = DesignSpec::new(DesignKind::CmpTest, 8, 8, 9).generate();
        let h = trained.network.predict_layer_heights(&probe, 0).unwrap();
        assert_eq!(h.len(), 64);
        assert!(h.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn accuracy_report_statistics() {
        let sources = benchmark_designs(10, 10, 1);
        let sim = CmpSimulator::new(ProcessParams::fast()).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let trained = train_surrogate(&sources, &sim, &tiny_config(), &mut rng).unwrap();
        let mut gen = TrainingLayoutGenerator::new(
            sources,
            DataGenConfig { rows: 8, cols: 8, seed: 99, ..DataGenConfig::default() },
        );
        let eval_layouts = gen.generate(3);
        let report = evaluate_surrogate(&trained.network, &sim, &eval_layouts).unwrap();
        assert_eq!(report.num_layouts, 3);
        assert!(report.mean_relative_error.is_finite());
        assert!(report.max_window_error >= report.mean_relative_error);
        assert!(report.fraction_below(f64::INFINITY) == 1.0);
        let hist = report.histogram(10, 0.1);
        assert_eq!(hist.len(), 10);
        let total: usize = hist.iter().map(|(_, c)| c).sum();
        assert_eq!(total, report.per_window_error.len());
    }

    #[test]
    fn rejects_incompatible_datagen_dims() {
        let sources = benchmark_designs(10, 10, 1);
        let sim = CmpSimulator::new(ProcessParams::fast()).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut cfg = tiny_config();
        cfg.datagen.rows = 9; // not divisible by 2^depth
        assert!(train_surrogate(&sources, &sim, &cfg, &mut rng).is_err());
    }
}
