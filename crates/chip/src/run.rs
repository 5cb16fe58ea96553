//! The end-to-end full-chip flow: simulate → model-fill → verify.

use crate::checkpoint::{chip_run_meta, TileCheckpoint};
use crate::fill::{model_fill, ChipFillConfig, ChipFillPlan};
use crate::report::ChipReport;
use crate::sim::{ChipSimConfig, ChipSimulator};
use crate::source::{ChipSource, FilledChipSource};
use neurfill_cmpsim::ChipProfile;
use neurfill_runtime::FaultPlan;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Configuration of a full-chip run.
#[derive(Debug, Clone)]
pub struct ChipRunConfig {
    /// Simulation settings (tile size, workers, params).
    pub sim: ChipSimConfig,
    /// Model-based fill rule settings.
    pub fill: ChipFillConfig,
    /// Tile checkpoint directory: when set, each completed fill tile is
    /// finalized there and a rerun resumes from the completed set with
    /// a byte-identical plan.
    pub checkpoint: Option<PathBuf>,
    /// Fault plan driving the `checkpoint_write` site (chaos testing).
    pub fault: Arc<FaultPlan>,
}

impl ChipRunConfig {
    /// Fast-parameter run config with the given tile edge and workers.
    #[must_use]
    pub fn fast(tile: usize, workers: usize) -> Self {
        Self {
            sim: ChipSimConfig::fast(tile, workers),
            fill: ChipFillConfig::default(),
            checkpoint: None,
            fault: Arc::new(FaultPlan::disabled()),
        }
    }
}

/// Everything a full-chip run produces.
#[derive(Debug, Clone)]
pub struct ChipRunResult {
    /// The run summary (render with [`ChipReport::to_text`]).
    pub report: ChipReport,
    /// The synthesized chip-level fill plan.
    pub plan: ChipFillPlan,
    /// Height profile before filling.
    pub unfilled: ChipProfile,
    /// Height profile after filling.
    pub filled: ChipProfile,
}

/// Runs the golden flow end to end on any chip source: simulate the
/// unfilled chip, derive the model-based fill plan from its height map,
/// and re-simulate with the plan applied tile-at-a-time. Every stage
/// materialises the chip with the same tiling, and each is
/// byte-identical to its monolithic counterpart.
///
/// # Errors
///
/// Returns a message when parameters are invalid, a tile fails
/// validation (naming its layer), or a checkpoint store fails.
pub fn run_full_chip(source: &dyn ChipSource, cfg: &ChipRunConfig) -> Result<ChipRunResult, String> {
    let sim = ChipSimulator::new(cfg.sim.clone())?;
    let tiling = sim.tiling_for(source);
    let checkpoint = match &cfg.checkpoint {
        Some(dir) => Some(TileCheckpoint::open(
            dir,
            &chip_run_meta(source, &tiling, "golden"),
            Arc::clone(&cfg.fault),
        )?),
        None => None,
    };

    let t0 = Instant::now();
    let (unfilled, stats0) = sim.simulate(source)?;
    let simulate_time = t0.elapsed();

    let t1 = Instant::now();
    let (plan, tiles_resumed) = model_fill(
        source,
        &unfilled,
        &tiling,
        &cfg.sim.params,
        &cfg.fill,
        cfg.sim.workers,
        checkpoint.as_ref(),
    )?;
    let fill_time = t1.elapsed();

    let t2 = Instant::now();
    let filled_source = FilledChipSource::new(source, &plan, cfg.fill.dummy)?;
    let (filled, stats1) = sim.simulate(&filled_source)?;
    let verify_time = t2.elapsed();

    let report = ChipReport {
        name: source.name(),
        rows: source.rows(),
        cols: source.cols(),
        layers: source.num_layers(),
        tile: cfg.sim.tile,
        tiles: tiling.num_tiles(),
        tiles_resumed,
        halo: tiling.halo(),
        workers: cfg.sim.workers,
        halo_bytes: 0,
        peak_tiles_in_flight: stats0.peak_tiles_in_flight.max(stats1.peak_tiles_in_flight),
        unfilled_height_range: unfilled.max_height_range(),
        filled_height_range: filled.max_height_range(),
        fill_total_um2: plan.total(),
        simulate_time,
        fill_time,
        verify_time,
    };
    Ok(ChipRunResult { report, plan, unfilled, filled })
}
