//! A small supervised training loop used for UNet pre-training (paper
//! §IV-F, Eq. 20).

use crate::data::Dataset;
use crate::loss::mse_loss;
use crate::module::Module;
use crate::optim::Adam;
use crate::schedule::LrSchedule;
use neurfill_tensor::{Result, Tensor, TensorError};
use rand::Rng;

/// Training hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Multiplicative learning-rate decay applied after each epoch
    /// (composes with `schedule`; keep one of the two at identity).
    pub lr_decay: f32,
    /// Learning-rate schedule over epochs, applied as a multiplier of
    /// `lr` (e.g. warmup or step decay).
    pub schedule: LrSchedule,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self { epochs: 10, batch_size: 4, lr: 1e-3, lr_decay: 1.0, schedule: LrSchedule::Constant }
    }
}

impl TrainConfig {
    /// The effective learning rate at `epoch`: the schedule's rate times
    /// the accumulated `lr_decay`. This is the exact value the optimizer
    /// runs with during that epoch.
    #[must_use]
    pub fn lr_at(&self, epoch: usize) -> f32 {
        let decayed = self.schedule.lr_at(epoch, f64::from(self.lr))
            * f64::from(self.lr_decay).powi(i32::try_from(epoch).unwrap_or(i32::MAX));
        decayed as f32
    }
}

/// Per-epoch training statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochStats {
    /// Zero-based epoch index.
    pub epoch: usize,
    /// Mean training loss over the epoch.
    pub train_loss: f32,
    /// Mean validation loss (when a validation set was supplied).
    pub val_loss: Option<f32>,
    /// Learning rate the epoch ran with.
    pub lr: f32,
}

/// Restores evaluation mode when dropped, so no exit path — normal return,
/// early stop, `?` error propagation, or panic — can leave a model stuck
/// in training mode.
struct EvalOnDrop<'a>(&'a dyn Module);

impl Drop for EvalOnDrop<'_> {
    fn drop(&mut self) {
        self.0.set_training(false);
    }
}

/// Trains `model` on `train` with MSE loss and Adam.
///
/// Returns per-epoch statistics. `on_epoch` is invoked after each epoch
/// (use it for logging or early stopping via returning `false`). The
/// model is left in evaluation mode on every exit path, including errors.
///
/// # Errors
///
/// Propagates shape errors from the model's forward pass.
pub fn fit(
    model: &dyn Module,
    train: &Dataset,
    val: Option<&Dataset>,
    config: &TrainConfig,
    rng: &mut impl Rng,
    mut on_epoch: impl FnMut(&EpochStats) -> bool,
) -> Result<Vec<EpochStats>> {
    let mut opt = Adam::new(model.parameters(), config.lr);
    let mut history = Vec::with_capacity(config.epochs);
    let guard = EvalOnDrop(model);
    for epoch in 0..config.epochs {
        model.set_training(true);
        let lr = config.lr_at(epoch);
        opt.set_lr(lr);
        let mut total = 0.0;
        let mut batches = 0;
        for idx in train.shuffled_batches(config.batch_size, rng) {
            let (x, y) = train.batch(&idx);
            opt.zero_grad();
            let pred = model.forward(&Tensor::constant(x))?;
            let loss = mse_loss(&pred, &Tensor::constant(y))?;
            total += loss.item();
            batches += 1;
            loss.backward()?;
            opt.step();
        }
        let val_loss = match val {
            Some(v) if !v.is_empty() => Some(evaluate(model, v, config.batch_size)?),
            _ => None,
        };
        let stats = EpochStats { epoch, train_loss: total / batches.max(1) as f32, val_loss, lr };
        let go_on = on_epoch(&stats);
        history.push(stats);
        if !go_on {
            break;
        }
    }
    drop(guard);
    Ok(history)
}

/// Mean MSE of `model` over `data` in evaluation mode, through
/// [`Module::infer`] (evaluation-mode `forward`; a trainable model's nodes
/// are dropped with each batch's prediction, and no loss node is built),
/// squared errors summed in `f64`.
///
/// The model is left in evaluation mode (callers mid-training re-enable
/// training mode themselves, as [`fit`] does at each epoch start).
///
/// # Errors
///
/// Propagates shape errors from the model's forward pass, and returns one
/// when a prediction's shape differs from its target's.
pub fn evaluate(model: &dyn Module, data: &Dataset, batch_size: usize) -> Result<f32> {
    model.set_training(false);
    let mut total = 0.0f64;
    let mut batches = 0usize;
    let idx: Vec<usize> = (0..data.len()).collect();
    for chunk in idx.chunks(batch_size.max(1)) {
        let (x, y) = data.batch(chunk);
        let pred = model.infer(&x)?;
        if pred.shape() != y.shape() {
            return Err(TensorError::ShapeMismatch {
                lhs: pred.shape().to_vec(),
                rhs: y.shape().to_vec(),
                op: "evaluate",
            });
        }
        let squared_error: f64 = pred
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .map(|(p, t)| f64::from(p - t) * f64::from(p - t))
            .sum();
        total += squared_error / pred.numel().max(1) as f64;
        batches += 1;
    }
    Ok((total / batches.max(1) as f64) as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Conv2d;
    use neurfill_tensor::NdArray;
    use rand::SeedableRng;
    use std::cell::Cell;

    /// A 1×1 conv can represent y = 2x exactly; training should find it.
    #[test]
    fn fit_learns_linear_map() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let model = Conv2d::new(1, 1, 1, 1, 0, &mut rng);
        let mut ds = Dataset::new();
        for i in 0..16 {
            let x = NdArray::full(&[1, 2, 2], i as f32 * 0.1);
            let y = x.scale(2.0);
            ds.push(x, y).unwrap();
        }
        let cfg = TrainConfig { epochs: 200, batch_size: 4, lr: 0.05, ..TrainConfig::default() };
        let history = fit(&model, &ds, None, &cfg, &mut rng, |_| true).unwrap();
        let last = history.last().unwrap();
        assert!(last.train_loss < 1e-4, "loss = {}", last.train_loss);
    }

    #[test]
    fn early_stop_callback_halts_training() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let model = Conv2d::new(1, 1, 1, 1, 0, &mut rng);
        let mut ds = Dataset::new();
        ds.push(NdArray::ones(&[1, 2, 2]), NdArray::ones(&[1, 2, 2])).unwrap();
        let cfg = TrainConfig { epochs: 50, batch_size: 1, lr: 0.01, ..TrainConfig::default() };
        let history = fit(&model, &ds, None, &cfg, &mut rng, |s| s.epoch < 2).unwrap();
        assert_eq!(history.len(), 3);
    }

    #[test]
    fn validation_loss_is_reported() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let model = Conv2d::new(1, 1, 1, 1, 0, &mut rng);
        let mut ds = Dataset::new();
        for i in 0..8 {
            ds.push(NdArray::full(&[1, 2, 2], i as f32), NdArray::full(&[1, 2, 2], i as f32)).unwrap();
        }
        let val = ds.split_off(2);
        let cfg = TrainConfig { epochs: 1, batch_size: 2, lr: 0.01, ..TrainConfig::default() };
        let history = fit(&model, &ds, Some(&val), &cfg, &mut rng, |_| true).unwrap();
        assert!(history[0].val_loss.is_some());
    }

    /// The `evaluate` this one replaced: evaluation-mode `forward` and
    /// `mse_loss`, an f32 loss node per batch.
    fn taped_evaluate(model: &dyn Module, data: &Dataset, batch_size: usize) -> Result<f32> {
        model.set_training(false);
        let mut total = 0.0;
        let mut batches = 0;
        let idx: Vec<usize> = (0..data.len()).collect();
        for chunk in idx.chunks(batch_size.max(1)) {
            let (x, y) = data.batch(chunk);
            let pred = model.forward(&Tensor::constant(x))?;
            total += mse_loss(&pred, &Tensor::constant(y))?.item();
            batches += 1;
        }
        Ok(total / batches.max(1) as f32)
    }

    #[test]
    fn evaluate_matches_the_taped_mse_loss() {
        use crate::{UNet, UNetConfig};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let config = UNetConfig { in_channels: 2, out_channels: 1, base_channels: 2, depth: 1 };
        let model = UNet::new(config, &mut rng);
        let mut ds = Dataset::new();
        for _ in 0..10 {
            let x = NdArray::from_fn(&[2, 4, 4], |_| rng.gen_range(-1.0..1.0));
            let y = NdArray::from_fn(&[1, 4, 4], |i| 0.5 * (x.as_slice()[i] + x.as_slice()[16 + i]));
            ds.push(x, y).unwrap();
        }
        // Running statistics off their initial values; a ragged last batch.
        let cfg = TrainConfig { epochs: 2, batch_size: 4, ..TrainConfig::default() };
        fit(&model, &ds, None, &cfg, &mut rng, |_| true).unwrap();
        let loss = evaluate(&model, &ds, 4).unwrap();
        let taped = taped_evaluate(&model, &ds, 4).unwrap();
        assert!((loss - taped).abs() <= 1e-6 * taped.abs().max(1.0), "{loss} vs {taped}");
        // A target of another shape is an error, not a truncated zip.
        let mut wrong = Dataset::new();
        wrong.push(NdArray::zeros(&[2, 4, 4]), NdArray::zeros(&[2, 4, 4])).unwrap();
        assert!(evaluate(&model, &wrong, 4).is_err());
    }

    /// A model wrapper that records the last training-mode switch, so tests
    /// can observe what state [`fit`] leaves a model in.
    struct ModeProbe {
        inner: Conv2d,
        training: Cell<bool>,
    }

    impl Module for ModeProbe {
        fn forward(&self, input: &Tensor) -> Result<Tensor> {
            self.inner.forward(input)
        }
        fn parameters(&self) -> Vec<Tensor> {
            self.inner.parameters()
        }
        fn set_training(&self, training: bool) {
            self.training.set(training);
            self.inner.set_training(training);
        }
    }

    fn probe(rng: &mut impl Rng) -> ModeProbe {
        ModeProbe { inner: Conv2d::new(1, 1, 1, 1, 0, rng), training: Cell::new(true) }
    }

    #[test]
    fn fit_restores_eval_mode_after_early_stop() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let model = probe(&mut rng);
        let mut ds = Dataset::new();
        ds.push(NdArray::ones(&[1, 2, 2]), NdArray::ones(&[1, 2, 2])).unwrap();
        let cfg = TrainConfig { epochs: 10, batch_size: 1, lr: 0.01, ..TrainConfig::default() };
        let history = fit(&model, &ds, None, &cfg, &mut rng, |_| false).unwrap();
        assert_eq!(history.len(), 1);
        assert!(!model.training.get(), "early stop must leave the model in eval mode");
    }

    #[test]
    fn fit_restores_eval_mode_after_mid_epoch_error() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let model = probe(&mut rng); // expects 1 input channel
        let mut ds = Dataset::new();
        // 2-channel inputs make the forward pass fail inside the epoch.
        ds.push(NdArray::ones(&[2, 2, 2]), NdArray::ones(&[1, 2, 2])).unwrap();
        let cfg = TrainConfig { epochs: 3, batch_size: 1, lr: 0.01, ..TrainConfig::default() };
        assert!(fit(&model, &ds, None, &cfg, &mut rng, |_| true).is_err());
        assert!(!model.training.get(), "error propagation must leave the model in eval mode");
    }

    #[test]
    fn per_epoch_lr_follows_schedule() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let model = Conv2d::new(1, 1, 1, 1, 0, &mut rng);
        let mut ds = Dataset::new();
        ds.push(NdArray::ones(&[1, 2, 2]), NdArray::ones(&[1, 2, 2])).unwrap();
        let cfg = TrainConfig {
            epochs: 6,
            batch_size: 1,
            lr: 0.4,
            lr_decay: 1.0,
            schedule: LrSchedule::Warmup {
                epochs: 2,
                then: Box::new(LrSchedule::StepDecay { every: 2, factor: 0.5 }),
            },
        };
        let history = fit(&model, &ds, None, &cfg, &mut rng, |_| true).unwrap();
        let lrs: Vec<f32> = history.iter().map(|s| s.lr).collect();
        let expect: Vec<f32> = (0..6).map(|e| cfg.lr_at(e)).collect();
        assert_eq!(lrs, expect);
        // Warmup: 0.2, 0.4; then step decay re-indexed from the warmup end.
        assert!((lrs[0] - 0.2).abs() < 1e-7);
        assert!((lrs[1] - 0.4).abs() < 1e-7);
        assert!((lrs[3] - 0.4).abs() < 1e-7);
        assert!((lrs[4] - 0.2).abs() < 1e-7);
    }

    #[test]
    fn lr_decay_compounds_per_epoch() {
        let cfg = TrainConfig { lr: 1.0, lr_decay: 0.5, ..TrainConfig::default() };
        assert!((cfg.lr_at(0) - 1.0).abs() < 1e-7);
        assert!((cfg.lr_at(1) - 0.5).abs() < 1e-7);
        assert!((cfg.lr_at(3) - 0.125).abs() < 1e-7);
    }
}
