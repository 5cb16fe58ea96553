//! Checkpointed streaming pre-training over a sharded corpus.
//!
//! Unlike [`neurfill_nn::fit`], which needs the whole dataset in memory,
//! this loop holds *one shard at a time*: each epoch walks the shard set
//! in order, loads a shard, shuffles and trains on it, then drops it
//! before loading the next. After every shard the full training state —
//! weights, Adam moments, RNG and the epoch/shard cursor — is written to
//! the checkpoint file, and a resumed run continues bit-exactly where the
//! interrupted one stopped.

use crate::checkpoint::{save_checkpoint_file, TrainCheckpoint};
use crate::shard::ShardSet;
use neurfill_nn::loss::mse_loss;
use neurfill_nn::{Adam, Dataset, Module, TrainConfig};
use neurfill_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io;
use std::path::PathBuf;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Configuration of a streaming training run.
#[derive(Debug, Clone, Default)]
pub struct StreamTrainConfig {
    /// Hyper-parameters shared with the in-memory trainer (epochs, batch
    /// size, learning rate and schedule).
    pub train: TrainConfig,
    /// RNG seed for shuffling (ignored when resuming from a checkpoint —
    /// the checkpoint carries the exact RNG state).
    pub seed: u64,
    /// When set, the full training state is checkpointed here after every
    /// shard.
    pub checkpoint_path: Option<PathBuf>,
    /// Telemetry handle. The default (disabled) handle records nothing;
    /// an enabled one counts epochs/shards/batches (`data.train.*`) and
    /// tracks the latest train/validation loss as gauges. Weights are
    /// bit-identical either way.
    pub telemetry: neurfill_obs::Telemetry,
}

/// Per-epoch statistics of a streaming run.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamEpochStats {
    /// Zero-based epoch index.
    pub epoch: usize,
    /// Mean training loss over the batches this run processed in the
    /// epoch (a resumed epoch averages only the shards it actually ran).
    pub train_loss: f32,
    /// Validation MSE ([`neurfill_nn::evaluate`]), when a validation set
    /// was supplied.
    pub val_loss: Option<f32>,
    /// Learning rate the epoch ran with.
    pub lr: f32,
}

/// Restores evaluation mode when dropped, so no exit path can leave the
/// model stuck in training mode.
struct EvalOnDrop<'a>(&'a dyn Module);

impl Drop for EvalOnDrop<'_> {
    fn drop(&mut self) {
        self.0.set_training(false);
    }
}

/// Trains `model` over the shard set with MSE loss and Adam, one shard in
/// memory at a time.
///
/// Pass `resume` (from [`crate::checkpoint::load_checkpoint_file`], which
/// also restores the weights) to continue an interrupted run: the loop
/// picks up at the checkpoint's epoch/shard cursor with the exact RNG and
/// optimizer state, so the resumed trajectory is bit-identical to an
/// uninterrupted one. `on_epoch` is invoked after each epoch; returning
/// `false` stops training. The model is left in evaluation mode on every
/// exit path.
///
/// # Errors
///
/// Propagates shard I/O and corruption errors, checkpoint write errors,
/// and model shape errors (as `InvalidData`).
pub fn train_streaming(
    model: &dyn Module,
    data: &ShardSet,
    val: Option<&Dataset>,
    cfg: &StreamTrainConfig,
    resume: Option<TrainCheckpoint>,
    mut on_epoch: impl FnMut(&StreamEpochStats) -> bool,
) -> io::Result<Vec<StreamEpochStats>> {
    if data.is_empty() {
        return Err(bad("shard set holds no samples"));
    }
    let mut opt = Adam::new(model.parameters(), cfg.train.lr);
    let (mut rng, start_epoch, mut next_shard) = match resume {
        Some(ckpt) => {
            let rng = ckpt.rng();
            opt.load_state(ckpt.adam).map_err(bad)?;
            if ckpt.shard_cursor > data.num_shards() {
                return Err(bad(format!(
                    "checkpoint shard cursor {} exceeds shard count {}",
                    ckpt.shard_cursor,
                    data.num_shards()
                )));
            }
            (rng, ckpt.epoch, ckpt.shard_cursor)
        }
        None => (StdRng::seed_from_u64(cfg.seed), 0, 0),
    };

    // Pre-registered handles: no-ops when telemetry is disabled.
    let epochs_c = cfg.telemetry.counter("data.train.epochs");
    let shards_c = cfg.telemetry.counter("data.train.shards");
    let batches_c = cfg.telemetry.counter("data.train.batches");
    let loss_g = cfg.telemetry.gauge("data.train.loss");
    let val_loss_g = cfg.telemetry.gauge("data.train.val_loss");

    let guard = EvalOnDrop(model);
    let mut history = Vec::new();
    for epoch in start_epoch..cfg.train.epochs {
        let _epoch_timer = cfg.telemetry.time("data.train.epoch_ns");
        model.set_training(true);
        let lr = cfg.train.lr_at(epoch);
        opt.set_lr(lr);
        let mut total = 0.0f32;
        let mut batches = 0usize;
        for shard in next_shard..data.num_shards() {
            shards_c.inc();
            let ds = data.open_shard(shard)?.with_telemetry(&cfg.telemetry).read_to_dataset()?;
            for idx in ds.shuffled_batches(cfg.train.batch_size, &mut rng) {
                let (x, y) = ds.batch(&idx);
                opt.zero_grad();
                let pred = model.forward(&Tensor::constant(x)).map_err(|e| bad(e.to_string()))?;
                let loss = mse_loss(&pred, &Tensor::constant(y)).map_err(|e| bad(e.to_string()))?;
                total += loss.item();
                batches += 1;
                loss.backward().map_err(|e| bad(e.to_string()))?;
                opt.step();
            }
            if let Some(path) = &cfg.checkpoint_path {
                // Cursor of the *next* unit of work: the following shard,
                // or the next epoch once this was the last shard.
                let (e, s) =
                    if shard + 1 == data.num_shards() { (epoch + 1, 0) } else { (epoch, shard + 1) };
                let ckpt = TrainCheckpoint {
                    epoch: e,
                    shard_cursor: s,
                    rng_state: rng.state(),
                    adam: opt.export_state(),
                };
                save_checkpoint_file(&ckpt, model, path)?;
            }
        }
        next_shard = 0;
        let val_loss = match val {
            Some(v) if !v.is_empty() => {
                let loss = neurfill_nn::evaluate(model, v, cfg.train.batch_size)
                    .map_err(|e| bad(e.to_string()))?;
                // Validation flipped the model to eval; the next epoch (or
                // the guard) sets the mode it needs.
                Some(loss)
            }
            _ => None,
        };
        let stats = StreamEpochStats { epoch, train_loss: total / batches.max(1) as f32, val_loss, lr };
        epochs_c.inc();
        batches_c.add(batches as u64);
        loss_g.set(f64::from(stats.train_loss));
        if let Some(v) = stats.val_loss {
            val_loss_g.set(f64::from(v));
        }
        let go_on = on_epoch(&stats);
        history.push(stats);
        if !go_on {
            break;
        }
    }
    drop(guard);
    Ok(history)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::load_checkpoint_file;
    use crate::shard::{ShardSetWriter, ShardShapes};
    use neurfill_nn::{UNet, UNetConfig};
    use neurfill_tensor::NdArray;
    use rand::Rng;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nf_train_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Writes a small synthetic corpus: target = mean-pooled input pattern.
    fn write_corpus(dir: &PathBuf, samples: usize, per_shard: u64) {
        let shapes = ShardShapes { input: [2, 4, 4], target: [1, 4, 4] };
        let mut w = ShardSetWriter::new(dir, "train", shapes, per_shard).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..samples {
            let x = NdArray::from_fn(&[2, 4, 4], |_| rng.gen_range(-1.0..1.0));
            let s = x.as_slice();
            let y = NdArray::from_fn(&[1, 4, 4], |i| 0.5 * (s[i] + s[16 + i]));
            w.push(&x, &y).unwrap();
        }
        w.finish().unwrap();
    }

    fn unet(seed: u64) -> UNet {
        let mut rng = StdRng::seed_from_u64(seed);
        UNet::new(UNetConfig { in_channels: 2, out_channels: 1, base_channels: 2, depth: 1 }, &mut rng)
    }

    fn weights(model: &UNet) -> Vec<u32> {
        model
            .parameters()
            .iter()
            .flat_map(|p| p.value().as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>())
            .collect()
    }

    fn config(epochs: usize, ckpt: Option<PathBuf>) -> StreamTrainConfig {
        StreamTrainConfig {
            train: TrainConfig { epochs, batch_size: 4, lr: 1e-3, ..TrainConfig::default() },
            seed: 21,
            checkpoint_path: ckpt,
            ..StreamTrainConfig::default()
        }
    }

    #[test]
    fn streaming_training_reduces_loss_and_restores_eval_mode() {
        let dir = tmp("smoke");
        write_corpus(&dir, 24, 8);
        let set = ShardSet::open_dir(&dir).unwrap();
        let model = unet(1);
        let val = set.load_shard(2).unwrap();
        let history =
            train_streaming(&model, &set, Some(&val), &config(6, None), None, |_| true).unwrap();
        assert_eq!(history.len(), 6);
        assert!(history.iter().all(|s| s.train_loss.is_finite()));
        assert!(history.iter().all(|s| s.val_loss.unwrap().is_finite()));
        let first = history.first().unwrap().train_loss;
        let last = history.last().unwrap().train_loss;
        assert!(last < first, "loss should drop: {first} -> {last}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resumed_run_reproduces_uninterrupted_weights_bit_exactly() {
        let dir = tmp("resume");
        write_corpus(&dir, 20, 6);
        let set = ShardSet::open_dir(&dir).unwrap();

        // Reference: 5 epochs in one uninterrupted run.
        let straight = unet(2);
        train_streaming(&straight, &set, None, &config(5, None), None, |_| true).unwrap();

        // Interrupted: 3 epochs with checkpointing...
        let ckpt_path = dir.join("ckpt.txt");
        let interrupted = unet(2);
        train_streaming(
            &interrupted,
            &set,
            None,
            &config(5, Some(ckpt_path.clone())),
            None,
            |s| s.epoch < 2, // stop after epoch 2 completes (3 epochs run)
        )
        .unwrap();

        // ...then a *fresh* model resumes from the file for the rest.
        let resumed = unet(77); // different init — weights come from the checkpoint
        let ckpt = load_checkpoint_file(&resumed, &ckpt_path).unwrap();
        assert_eq!((ckpt.epoch, ckpt.shard_cursor), (3, 0));
        let history =
            train_streaming(&resumed, &set, None, &config(5, None), Some(ckpt), |_| true).unwrap();
        assert_eq!(history.len(), 2, "epochs 3 and 4 remain");

        assert_eq!(
            weights(&straight),
            weights(&resumed),
            "resume must be bit-identical to the uninterrupted run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_stale_checkpoint_cursor() {
        let dir = tmp("stale");
        write_corpus(&dir, 6, 6);
        let set = ShardSet::open_dir(&dir).unwrap();
        let model = unet(4);
        let ckpt = TrainCheckpoint {
            epoch: 0,
            shard_cursor: 5, // corpus has 1 shard
            rng_state: [1, 2, 3, 4],
            adam: Adam::new(model.parameters(), 1e-3).export_state(),
        };
        assert!(train_streaming(&model, &set, None, &config(2, None), Some(ckpt), |_| true).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
