//! `pretrain` — stream a sharded corpus (from `gendata`) through UNet
//! pre-training and emit a self-contained surrogate bundle that `runfill`
//! and the fill flows consume.
//!
//! ```text
//! pretrain --data corpus/ --out surrogate.bundle [--epochs E] [--batch-size B]
//!          [--lr LR] [--warmup N] [--step-every N] [--step-factor F]
//!          [--base-channels C] [--depth D] [--seed S] [--val-shards V]
//!          [--checkpoint ckpt.txt] [--resume] [--metrics-out metrics.jsonl]
//! ```
//!
//! `--metrics-out` enables telemetry and writes the run's metrics
//! snapshot (epoch timings, shard reads, loss gauges) as JSONL.
//!
//! With `--checkpoint`, the full training state is saved after every shard;
//! add `--resume` to continue bit-exactly from that file after an
//! interruption (the resumed run reproduces the uninterrupted trajectory).

use neurfill::extraction::NUM_CHANNELS;
use neurfill::{CmpNeuralNetwork, CmpNnConfig};
use neurfill_data::{
    load_checkpoint_file, train_streaming, Manifest, ShardSet, StreamTrainConfig, TrainCheckpoint,
    MANIFEST_FILE,
};
use neurfill_nn::{Dataset, LrSchedule, TrainConfig, UNet, UNetConfig};
use rand::SeedableRng;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    data: PathBuf,
    out: PathBuf,
    epochs: usize,
    batch_size: usize,
    lr: f32,
    warmup: usize,
    step_every: usize,
    step_factor: f64,
    base_channels: usize,
    depth: usize,
    seed: u64,
    val_shards: usize,
    checkpoint: Option<PathBuf>,
    resume: bool,
    metrics_out: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: pretrain --data <dir> --out <bundle> [--epochs E] [--batch-size B] [--lr LR]\n\
         \x20              [--warmup N] [--step-every N] [--step-factor F] [--base-channels C]\n\
         \x20              [--depth D] [--seed S] [--val-shards V] [--checkpoint <file>] [--resume]\n\
         \x20              [--metrics-out <file>]"
    );
    std::process::exit(2);
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("bad value {s:?} for {flag}");
        usage()
    })
}

fn parse_args() -> Args {
    let mut args = Args {
        data: PathBuf::new(),
        out: PathBuf::new(),
        epochs: 8,
        batch_size: 4,
        lr: 2e-3,
        warmup: 0,
        step_every: 0,
        step_factor: 0.5,
        base_channels: 8,
        depth: 2,
        seed: 0,
        val_shards: 0,
        checkpoint: None,
        resume: false,
        metrics_out: None,
    };
    let mut it = std::env::args().skip(1);
    let value = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next().unwrap_or_else(|| {
            eprintln!("missing value for {flag}");
            usage()
        })
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--data" => args.data = value(&mut it, "--data").into(),
            "--out" => args.out = value(&mut it, "--out").into(),
            "--epochs" => args.epochs = parse_num(&value(&mut it, "--epochs"), "--epochs"),
            "--batch-size" => {
                args.batch_size = parse_num(&value(&mut it, "--batch-size"), "--batch-size")
            }
            "--lr" => args.lr = parse_num(&value(&mut it, "--lr"), "--lr"),
            "--warmup" => args.warmup = parse_num(&value(&mut it, "--warmup"), "--warmup"),
            "--step-every" => {
                args.step_every = parse_num(&value(&mut it, "--step-every"), "--step-every")
            }
            "--step-factor" => {
                args.step_factor = parse_num(&value(&mut it, "--step-factor"), "--step-factor")
            }
            "--base-channels" => {
                args.base_channels = parse_num(&value(&mut it, "--base-channels"), "--base-channels")
            }
            "--depth" => args.depth = parse_num(&value(&mut it, "--depth"), "--depth"),
            "--seed" => args.seed = parse_num(&value(&mut it, "--seed"), "--seed"),
            "--val-shards" => {
                args.val_shards = parse_num(&value(&mut it, "--val-shards"), "--val-shards")
            }
            "--checkpoint" => args.checkpoint = Some(value(&mut it, "--checkpoint").into()),
            "--resume" => args.resume = true,
            "--metrics-out" => args.metrics_out = Some(value(&mut it, "--metrics-out").into()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
    }
    if args.data.as_os_str().is_empty() || args.out.as_os_str().is_empty() {
        usage();
    }
    args
}

/// The schedule implied by the warmup/step flags.
fn schedule(args: &Args) -> LrSchedule {
    let decay = if args.step_every > 0 {
        LrSchedule::StepDecay { every: args.step_every, factor: args.step_factor }
    } else {
        LrSchedule::Constant
    };
    if args.warmup > 0 {
        LrSchedule::Warmup { epochs: args.warmup, then: Box::new(decay) }
    } else {
        decay
    }
}

fn run() -> Result<(), String> {
    let args = parse_args();
    let manifest = Manifest::load(args.data.join(MANIFEST_FILE))
        .map_err(|e| format!("reading corpus manifest: {e}"))?;
    let div = 1usize << args.depth;
    if manifest.rows % div != 0 || manifest.cols % div != 0 {
        return Err(format!(
            "corpus geometry {}x{} not divisible by UNet factor {div} (depth {})",
            manifest.rows, manifest.cols, args.depth
        ));
    }

    let mut set = ShardSet::open_dir(&args.data).map_err(|e| e.to_string())?;
    if set.shapes().input != [NUM_CHANNELS, manifest.rows, manifest.cols] {
        return Err(format!(
            "shard input shape {:?} disagrees with manifest geometry {}x{}",
            set.shapes().input,
            manifest.rows,
            manifest.cols
        ));
    }
    if args.val_shards >= set.num_shards() {
        return Err(format!(
            "--val-shards {} would leave no training shards (corpus has {})",
            args.val_shards,
            set.num_shards()
        ));
    }
    let val = if args.val_shards > 0 {
        let held_out = set.split_off(args.val_shards);
        let mut ds = Dataset::with_capacity(usize::try_from(held_out.len()).unwrap_or(0));
        for rec in held_out.stream() {
            let (x, y) = rec.map_err(|e| e.to_string())?;
            ds.push(x, y).map_err(|e| e.to_string())?;
        }
        Some(ds)
    } else {
        None
    };
    println!(
        "corpus: {} samples, {} train shards, {} validation samples (seed {})",
        manifest.samples,
        set.num_shards(),
        val.as_ref().map_or(0, Dataset::len),
        manifest.seed
    );

    let mut rng = rand::rngs::StdRng::seed_from_u64(args.seed);
    let unet = UNet::new(
        UNetConfig {
            in_channels: NUM_CHANNELS,
            out_channels: 1,
            base_channels: args.base_channels,
            depth: args.depth,
        },
        &mut rng,
    );

    let resume: Option<TrainCheckpoint> = match (&args.checkpoint, args.resume) {
        (Some(path), true) if path.exists() => {
            let ckpt = load_checkpoint_file(&unet, path)
                .map_err(|e| format!("resuming from {}: {e}", path.display()))?;
            println!(
                "resuming from {} (epoch {}, shard {})",
                path.display(),
                ckpt.epoch,
                ckpt.shard_cursor
            );
            Some(ckpt)
        }
        (None, true) => return Err("--resume needs --checkpoint".into()),
        _ => None,
    };

    let telemetry = if args.metrics_out.is_some() {
        neurfill::telemetry::Telemetry::new()
    } else {
        neurfill::telemetry::Telemetry::disabled()
    };
    let cfg = StreamTrainConfig {
        train: TrainConfig {
            epochs: args.epochs,
            batch_size: args.batch_size,
            lr: args.lr,
            schedule: schedule(&args),
            ..TrainConfig::default()
        },
        seed: args.seed,
        checkpoint_path: args.checkpoint.clone(),
        telemetry: telemetry.clone(),
    };
    train_streaming(&unet, &set, val.as_ref(), &cfg, resume, |s| {
        match s.val_loss {
            Some(v) => println!(
                "epoch {:>3}: train {:.6} val {:.6} (lr {:.2e})",
                s.epoch, s.train_loss, v, s.lr
            ),
            None => println!("epoch {:>3}: train {:.6} (lr {:.2e})", s.epoch, s.train_loss, s.lr),
        }
        true
    })
    .map_err(|e| e.to_string())?;

    let network =
        CmpNeuralNetwork::new(unet, manifest.norm, manifest.extraction, CmpNnConfig::default());
    neurfill::persist::save_to_file(&network, &args.out).map_err(|e| e.to_string())?;
    println!("wrote {}", args.out.display());
    if let Some(path) = &args.metrics_out {
        telemetry
            .snapshot()
            .write_jsonl_file(path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pretrain: {e}");
            ExitCode::FAILURE
        }
    }
}
