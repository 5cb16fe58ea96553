//! The complete two-phase dummy-fill flow of the paper's Fig. 1:
//!
//! 1. **Filling synthesis** (NeurFill): decide the fill *amount* per
//!    window by MSP-SQP over the CMP neural network.
//! 2. **Filling insertion**: realize those amounts as actual dummy
//!    rectangles under spacing rules.
//! 3. **Verification**: re-extract window statistics from the realized
//!    geometry and simulate the result with the golden CMP simulator.
//!
//! Run with: `cargo run --release --example full_flow`

use neurfill::surrogate::{train_surrogate, SurrogateConfig};
use neurfill::{Coefficients, NeurFill, NeurFillConfig, PlanarityMetrics};
use neurfill_cmpsim::{CmpSimulator, ProcessParams};
use neurfill_layout::datagen::DataGenConfig;
use neurfill_layout::insertion::{realize_fill_into, InsertionRules};
use neurfill_layout::{apply_fill, benchmark_designs, DesignKind, DesignSpec, DummySpec, LayerGeometry};
use neurfill_nn::{TrainConfig, UNetConfig};
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let grid = 16;
    let mut rng = rand::rngs::StdRng::seed_from_u64(13);
    let sources = benchmark_designs(grid, grid, 13);
    let sim = CmpSimulator::new(ProcessParams::default())?;
    let layout = DesignSpec::new(DesignKind::CmpTest, grid, grid, 13).generate();
    let unfilled = sim.simulate(&layout);
    let before = PlanarityMetrics::from_profile(&unfilled);
    let coeffs = Coefficients::calibrate(&layout, &unfilled, 60.0);

    // ---- Phase 0: surrogate pre-training --------------------------------
    println!("[0] training the CMP neural network surrogate...");
    let config = SurrogateConfig {
        unet: UNetConfig {
            in_channels: neurfill::extraction::NUM_CHANNELS,
            out_channels: 1,
            base_channels: 8,
            depth: 2,
        },
        train: TrainConfig {
            epochs: 15,
            batch_size: 4,
            lr: 2e-3,
            lr_decay: 0.92,
            ..TrainConfig::default()
        },
        num_layouts: 60,
        datagen: DataGenConfig { rows: grid, cols: grid, seed: 13, ..DataGenConfig::default() },
        ..SurrogateConfig::default()
    };
    let trained = train_surrogate(&sources, &sim, &config, &mut rng)?;

    // ---- Phase 1: filling synthesis --------------------------------------
    println!("[1] filling synthesis (NeurFill PKB)...");
    let nf = NeurFill::new(trained.network, NeurFillConfig::default());
    let outcome = nf.run(&layout, &coeffs)?;
    println!(
        "    synthesized {:.0} um^2 across {} windows in {:.2?}",
        outcome.plan.total(),
        layout.num_windows(),
        outcome.runtime
    );

    // ---- Phase 2: filling insertion ---------------------------------------
    println!("[2] filling insertion (dummy placement under spacing rules)...");
    let rules = InsertionRules::default();
    // Insertion keeps no rectangles: each goes to the sink. This one
    // collects them per layer; a sink that writes (GDS, a socket) streams
    // a chip's fill out without ever holding it, and `realize_fill` is the
    // sink that drops them when the per-window report is all that is read.
    let mut layers = vec![LayerGeometry::new(); layout.num_layers()];
    let report = realize_fill_into(&layout, &outcome.plan, &rules, |l, shape| layers[l].push(shape));
    println!(
        "    placed {} dummies, {:.0}/{:.0} um^2 realized ({:.1}%)",
        report.dummy_count(),
        report.total_placed(),
        report.total_requested(),
        report.realization_ratio() * 100.0
    );
    for (l, geom) in layers.iter().enumerate() {
        println!(
            "    layer {l}: {} wires + {} dummies",
            geom.len() - geom.dummy_count(),
            geom.dummy_count()
        );
    }

    // ---- Phase 3: verification -------------------------------------------
    println!("[3] verification with the golden simulator...");
    // Score the *realized* amounts (what actually got placed), not the
    // requested plan.
    let mut realized_plan = neurfill_layout::FillPlan::zeros(&layout);
    for (slot, w) in realized_plan.as_mut_slice().iter_mut().zip(&report.windows) {
        *slot = w.placed;
    }
    let filled = apply_fill(&layout, &realized_plan, &DummySpec::new(rules.edge_um));
    let after = PlanarityMetrics::from_profile(&sim.simulate(&filled));
    println!(
        "    sigma: {:.0} -> {:.0} A^2  |  Delta H: {:.0} -> {:.0} A",
        before.sigma, after.sigma, before.delta_h, after.delta_h
    );
    let loss = (report.total_requested() - report.total_placed()).max(0.0);
    println!(
        "    insertion shortfall {:.0} um^2 ({:.1}% of request) — the synthesis/insertion gap",
        loss,
        100.0 * loss / report.total_requested().max(1.0)
    );
    Ok(())
}
