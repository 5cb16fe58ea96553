//! Pre-trains the UNet surrogate (paper §IV-F), saves and reloads it as a
//! bundle, then reports the Fig. 9 accuracy statistics.
//!
//! Run with: `cargo run --release --example train_surrogate [-- <layouts>]`

use neurfill::surrogate::{evaluate_surrogate, train_surrogate, SurrogateConfig};
use neurfill_cmpsim::{CmpSimulator, ProcessParams};
use neurfill_layout::benchmark_designs;
use neurfill_layout::datagen::{DataGenConfig, TrainingLayoutGenerator};
use neurfill_nn::{TrainConfig, UNetConfig};
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let num_layouts: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(20);
    let epochs: usize = std::env::args().nth(2).and_then(|a| a.parse().ok()).unwrap_or(4);
    let base: usize = std::env::args().nth(3).and_then(|a| a.parse().ok()).unwrap_or(6);
    let grid = 16;
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let sources = benchmark_designs(grid, grid, 7);
    let sim = CmpSimulator::new(ProcessParams::default())?;

    let config = SurrogateConfig {
        unet: UNetConfig {
            in_channels: neurfill::extraction::NUM_CHANNELS,
            out_channels: 1,
            base_channels: base,
            depth: 2,
        },
        train: TrainConfig { epochs, batch_size: 4, lr: 2e-3, lr_decay: 0.9, ..TrainConfig::default() },
        num_layouts,
        datagen: DataGenConfig { rows: grid, cols: grid, seed: 7, ..DataGenConfig::default() },
        ..SurrogateConfig::default()
    };

    println!("training on {num_layouts} generated layouts ({grid}x{grid} windows)...");
    let trained = train_surrogate(&sources, &sim, &config, &mut rng)?;
    for (i, (train, val)) in trained.report.epochs.iter().enumerate() {
        println!("  epoch {i}: train MSE {train:.4}, val MSE {:.4}", val.unwrap_or(f32::NAN));
    }

    // Persist the network — weights with the height normalization and
    // extraction settings they are only meaningful with — and reload it.
    let path = std::env::temp_dir().join("neurfill_surrogate.bundle");
    neurfill::persist::save_to_file(&trained.network, &path)?;
    println!("bundle saved to {}", path.display());
    let reloaded = neurfill::persist::load_from_file(&path)?;

    // Accuracy of the reloaded network on held-out generated layouts.
    let mut gen = TrainingLayoutGenerator::new(
        sources,
        DataGenConfig { rows: grid, cols: grid, seed: 999, ..DataGenConfig::default() },
    );
    let eval_layouts = gen.generate(4);
    let report = evaluate_surrogate(&reloaded, &sim, &eval_layouts)?;
    println!(
        "reloaded surrogate: mean relative error {:.3}%, max window {:.3}%, <1.3%: {:.1}%",
        report.mean_relative_error * 100.0,
        report.max_window_error * 100.0,
        report.fraction_below(0.013) * 100.0
    );
    Ok(())
}
