//! The corpus path (`generate_labeled_shards` → shards → `train_streaming`)
//! and the in-memory path (`train_surrogate` → `fit`) train the same
//! surrogate: one labeler, one height normalization and one epoch loop.
//! Both tests compare bit patterns, never tolerances.

use neurfill::extraction::NUM_CHANNELS;
use neurfill::surrogate::{train_surrogate, SurrogateConfig};
use neurfill_cmpsim::{CmpSimulator, ProcessParams};
use neurfill_data::{
    generate_labeled_shards, load_checkpoint_file, train_streaming, LabelConfig, ShardSet,
    ShardSetWriter, ShardShapes, StreamTrainConfig,
};
use neurfill_layout::benchmark_designs;
use neurfill_layout::datagen::DataGenConfig;
use neurfill_nn::{fit, run_epochs, Adam, Dataset, EpochStats, Module, TrainConfig, UNet, UNetConfig};
use neurfill_tensor::NdArray;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nf_one_path_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bits(a: &NdArray) -> Vec<u32> {
    a.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Every weight and batch-norm buffer of `net`, by bit pattern.
fn state(net: &UNet) -> (Vec<Vec<u32>>, Vec<Vec<u32>>) {
    let weights = net.parameters().iter().map(|p| bits(&p.value())).collect();
    let buffers = net.buffers().iter().map(|b| bits(&b.borrow())).collect();
    (weights, buffers)
}

fn losses(history: &[EpochStats]) -> Vec<(u32, Option<u32>, u32)> {
    history
        .iter()
        .map(|s| (s.train_loss.to_bits(), s.val_loss.map(f32::to_bits), s.lr.to_bits()))
        .collect()
}

fn read_all(set: &ShardSet) -> Dataset {
    let mut ds = Dataset::new();
    for rec in set.stream() {
        let (x, y) = rec.unwrap();
        ds.push(x, y).unwrap();
    }
    ds
}

/// `train_surrogate` with no validation split trains on every sample it
/// labels, with one epoch's shuffle drawn from the RNG its UNet was
/// initialized from. Fitting the shard corpus from the same RNG state
/// must therefore land on `train_surrogate`'s bits exactly — which holds
/// only if the shards hold its samples, bit for bit and in its order,
/// under its height normalization. 5 layouts stay below the norm's 8; 13
/// cross both the norm's 8 and the labeler's 8-layout chunk.
#[test]
fn shards_hold_the_samples_train_surrogate_trains_on() {
    let sources = benchmark_designs(8, 8, 3);
    let sim = CmpSimulator::new(ProcessParams::fast()).unwrap();
    for num_layouts in [5, 13] {
        let config = SurrogateConfig {
            unet: UNetConfig { in_channels: NUM_CHANNELS, out_channels: 1, base_channels: 4, depth: 1 },
            train: TrainConfig { epochs: 2, batch_size: 4, lr: 2e-3, ..TrainConfig::default() },
            num_layouts,
            validation_fraction: 0.0,
            datagen: DataGenConfig { rows: 8, cols: 8, seed: 11, ..DataGenConfig::default() },
            ..SurrogateConfig::default()
        };
        let seed = 17;
        let trained =
            train_surrogate(&sources, &sim, &config, &mut StdRng::seed_from_u64(seed)).unwrap();
        let report = &trained.report;
        assert_eq!(report.train_samples, num_layouts * 3);

        for workers in [1, 4] {
            let dir = tmp(&format!("labels_{num_layouts}_{workers}"));
            let label = LabelConfig {
                num_layouts,
                samples_per_shard: 7,
                workers,
                datagen: config.datagen.clone(),
                extraction: config.extraction.clone(),
                process: ProcessParams::fast(),
                ..LabelConfig::default()
            };
            let labeled = generate_labeled_shards(sources.clone(), &label, &dir).unwrap();
            let norm_bits = |n: neurfill::HeightNorm| (n.offset_nm.to_bits(), n.scale_nm.to_bits());
            assert_eq!(
                norm_bits(labeled.norm),
                norm_bits(report.height_norm),
                "{num_layouts} {workers}"
            );

            let corpus = read_all(&ShardSet::open_dir(&dir).unwrap());
            assert_eq!(corpus.len(), report.train_samples);
            let mut rng = StdRng::seed_from_u64(seed);
            let unet = UNet::new(config.unet.clone(), &mut rng);
            let history = fit(&unet, &corpus, None, &config.train, &mut rng, |_| true).unwrap();
            let epochs: Vec<(u32, Option<u32>)> =
                history.iter().map(|s| (s.train_loss.to_bits(), None)).collect();
            let want: Vec<(u32, Option<u32>)> =
                report.epochs.iter().map(|(t, v)| (t.to_bits(), v.map(f32::to_bits))).collect();
            assert_eq!(epochs, want, "{num_layouts} layouts, {workers} workers");
            assert!(
                state(&unet) == state(trained.network.unet()),
                "{num_layouts} layouts, {workers} workers: weights differ"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// `train_streaming` over one shard holding `D` with seed `s` is `fit` on
/// `D` with `StdRng::seed_from_u64(s)`: weights, batch-norm buffers,
/// per-epoch statistics and Adam state. `fit` owns its optimizer, so its
/// Adam state is read from `run_epochs` driven as `fit` drives it — a
/// fresh `Adam` and the one in-memory part — whose weights are checked
/// against `fit`'s too.
#[test]
fn streaming_one_shard_is_fit_bit_for_bit() {
    let dir = tmp("stream");
    let mut rng = StdRng::seed_from_u64(5);
    let shapes = ShardShapes { input: [NUM_CHANNELS, 8, 8], target: [1, 8, 8] };
    let mut writer = ShardSetWriter::new(&dir, "train", shapes, 64).unwrap();
    for _ in 0..10 {
        let x = NdArray::from_fn(&[NUM_CHANNELS, 8, 8], |_| rng.gen_range(0.0f32..1.0));
        let y = NdArray::from_fn(&[1, 8, 8], |i| x.as_slice()[i] - 0.5 * x.as_slice()[64 + i]);
        writer.push(&x, &y).unwrap();
    }
    writer.finish().unwrap();
    let set = ShardSet::open_dir(&dir).unwrap();
    assert_eq!(set.num_shards(), 1);
    let data = read_all(&set);
    let val = data.clone().split_off(3);

    let unet_config =
        UNetConfig { in_channels: NUM_CHANNELS, out_channels: 1, base_channels: 4, depth: 2 };
    let unet = || UNet::new(unet_config.clone(), &mut StdRng::seed_from_u64(9));
    let train =
        TrainConfig { epochs: 3, batch_size: 4, lr: 2e-3, lr_decay: 0.9, ..TrainConfig::default() };
    let seed = 21;

    let streamed = unet();
    let ckpt_path = dir.join("ckpt.txt");
    let cfg = StreamTrainConfig {
        train: train.clone(),
        seed,
        checkpoint_path: Some(ckpt_path.clone()),
        ..StreamTrainConfig::default()
    };
    let streamed_history = train_streaming(&streamed, &set, Some(&val), &cfg, None, |_| true).unwrap();
    let ckpt = load_checkpoint_file(&unet(), &ckpt_path).unwrap();
    assert_eq!((ckpt.epoch, ckpt.shard_cursor), (3, 0));

    let fitted = unet();
    let fit_history =
        fit(&fitted, &data, Some(&val), &train, &mut StdRng::seed_from_u64(seed), |_| true).unwrap();
    assert_eq!(losses(&streamed_history), losses(&fit_history));
    assert!(state(&streamed) == state(&fitted), "weights or buffers differ");

    let driven = unet();
    let mut opt = Adam::new(driven.parameters(), train.lr);
    let mut rng = StdRng::seed_from_u64(seed);
    let driven_history = run_epochs(
        &driven,
        &mut opt,
        &train,
        0..train.epochs,
        Some(&val),
        |_, pass| pass.train_on(&data, &mut rng).map(|_| ()),
        |_| true,
    )
    .unwrap();
    assert_eq!(losses(&driven_history), losses(&fit_history));
    assert!(state(&driven) == state(&fitted), "run_epochs as fit drives it is fit");
    assert_eq!(ckpt.adam, opt.export_state(), "Adam state");
    let _ = std::fs::remove_dir_all(&dir);
}
