//! End-to-end pipeline test: corpus generation → streaming pre-training →
//! surrogate bundle, plus the corruption and determinism guarantees the
//! format promises.

use neurfill::extraction::NUM_CHANNELS;
use neurfill::{CmpNeuralNetwork, CmpNnConfig};
use neurfill_cmpsim::ProcessParams;
use neurfill_data::{
    generate_labeled_shards, train_streaming, LabelConfig, Manifest, ShardSet, StreamTrainConfig,
    MANIFEST_FILE,
};
use neurfill_layout::benchmark_designs;
use neurfill_layout::datagen::DataGenConfig;
use neurfill_nn::{TrainConfig, UNet, UNetConfig};
use rand::SeedableRng;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nf_pipeline_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn label_config(seed: u64) -> LabelConfig {
    LabelConfig {
        num_layouts: 6,
        samples_per_shard: 6,
        workers: 2,
        datagen: DataGenConfig { rows: 8, cols: 8, seed, ..DataGenConfig::default() },
        process: ProcessParams::fast(),
        ..LabelConfig::default()
    }
}

#[test]
fn corpus_to_bundle_end_to_end() {
    let dir = tmp("e2e");
    let report = generate_labeled_shards(benchmark_designs(10, 10, 1), &label_config(13), &dir).unwrap();
    assert_eq!(report.samples, 18, "6 layouts x 3 layers");

    let manifest = Manifest::load(dir.join(MANIFEST_FILE)).unwrap();
    let mut set = ShardSet::open_dir(&dir).unwrap();
    let val_set = set.split_off(1);
    let mut val = neurfill_nn::Dataset::with_capacity(val_set.len() as usize);
    for rec in val_set.stream() {
        let (x, y) = rec.unwrap();
        val.push(x, y).unwrap();
    }

    // Stream-train a small UNet over the corpus.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let unet = UNet::new(
        UNetConfig { in_channels: NUM_CHANNELS, out_channels: 1, base_channels: 4, depth: 1 },
        &mut rng,
    );
    let cfg = StreamTrainConfig {
        train: TrainConfig { epochs: 2, batch_size: 4, lr: 2e-3, ..TrainConfig::default() },
        seed: 1,
        ..StreamTrainConfig::default()
    };
    let history = train_streaming(&unet, &set, Some(&val), &cfg, None, |_| true).unwrap();
    assert_eq!(history.len(), 2);
    assert!(history.iter().all(|s| s.train_loss.is_finite() && s.val_loss.unwrap().is_finite()));

    // Assemble the bundle exactly as `pretrain` does and round-trip it.
    let network =
        CmpNeuralNetwork::new(unet, manifest.norm, manifest.extraction, CmpNnConfig::default());
    let bundle_path = dir.join("surrogate.bundle");
    neurfill::persist::save_to_file(&network, &bundle_path).unwrap();
    let back = neurfill::persist::load_from_file(&bundle_path).unwrap();
    assert_eq!(back.height_norm(), network.height_norm());

    // The reloaded surrogate predicts on corpus-compatible layouts.
    let probe =
        neurfill_layout::DesignSpec::new(neurfill_layout::DesignKind::CmpTest, 8, 8, 7).generate();
    let heights = back.predict_layer_heights(&probe, 0).unwrap();
    assert_eq!(heights.len(), 64);
    assert!(heights.iter().all(|h| h.is_finite()));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn training_refuses_corrupted_corpus() {
    let dir = tmp("corrupt");
    generate_labeled_shards(benchmark_designs(10, 10, 1), &label_config(29), &dir).unwrap();
    let set = ShardSet::open_dir(&dir).unwrap();

    // Flip one payload byte deep inside the first shard, after open_dir's
    // header validation has already passed.
    let shard_path = set.paths()[0].clone();
    let mut bytes = std::fs::read(&shard_path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&shard_path, &bytes).unwrap();

    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let unet = UNet::new(
        UNetConfig { in_channels: NUM_CHANNELS, out_channels: 1, base_channels: 4, depth: 1 },
        &mut rng,
    );
    let cfg = StreamTrainConfig {
        train: TrainConfig { epochs: 1, batch_size: 4, lr: 2e-3, ..TrainConfig::default() },
        ..StreamTrainConfig::default()
    };
    let err = train_streaming(&unet, &set, None, &cfg, None, |_| true).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("checksum"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pretrain_rejects_the_removed_numerics_flag() {
    // The fast GEMM tier is gone; a script still passing the flag must
    // fail loudly (exit 2 + usage) instead of training on the only path
    // as if it had been honoured.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_pretrain"))
        .args(["--data", "corpus", "--out", "s.bundle", "--numerics", "fast"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag \"--numerics\""), "{stderr}");
    assert!(stderr.contains("usage: pretrain"), "{stderr}");
    assert_eq!(stderr.matches("--numerics").count(), 1, "usage must not advertise the flag: {stderr}");
}
