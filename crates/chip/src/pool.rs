//! Streaming tile synthesis over the runtime worker pool.
//!
//! Each halo-padded tile becomes one
//! [`JobSpec`](neurfill_runtime::JobSpec) on an existing
//! [`RuntimePool`]; at most `max_in_flight` tiles are submitted at a
//! time, and a finished tile's fill plan is merged (core region only,
//! halo and padding discarded) before the next tile is materialized —
//! so peak resident windows stay O(tiles-in-flight × windows-per-tile)
//! no matter how large the chip is. The pool keeps no copy of a merged
//! tile: `wait_first` takes each finished tile's report, plan included,
//! out of the pool's job table.
//!
//! The NN synthesis is a global optimization, so unlike the golden
//! simulation and fill rule this path is *not* bit-identical to a
//! monolithic whole-chip job; its invariant (tested) is worker-count and in-flight-cap
//! independence: the same tiling yields byte-identical merged plans.

use crate::checkpoint::TileCheckpoint;
use crate::fill::ChipFillPlan;
use crate::source::ChipSource;
use neurfill_layout::{Grid, Layout, Tile, Tiling, WindowPattern};
use neurfill_obs::Telemetry;
use neurfill_runtime::{JobId, JobSpec, JobStatus, RuntimePool};

/// Options for streaming tiles through the pool.
#[derive(Debug, Clone)]
pub struct TileJobOptions {
    /// Maximum tiles submitted but not yet merged (`0` is treated as 1).
    pub max_in_flight: usize,
    /// Tile layouts are padded bottom/right with zero-slack windows to
    /// a multiple of this in both dimensions, so any tile size meets
    /// the surrogate's divisibility constraint (`1 << depth`).
    pub pad_multiple: usize,
    /// Telemetry sink for `chip.*` metrics (disabled by default).
    pub telemetry: Telemetry,
}

impl Default for TileJobOptions {
    fn default() -> Self {
        Self { max_in_flight: 4, pad_multiple: 4, telemetry: Telemetry::disabled() }
    }
}

/// Result of a streamed tile-synthesis pass.
#[derive(Debug, Clone)]
pub struct TileSynthesis {
    /// Merged chip-level fill plan (zeros where a tile failed).
    pub plan: ChipFillPlan,
    /// Tiles in the pass (resumed + submitted).
    pub tiles: usize,
    /// Tiles restored from the checkpoint instead of synthesized.
    pub resumed: usize,
    /// `(job name, error)` for every tile that failed.
    pub failed: Vec<(String, String)>,
    /// Maximum jobs simultaneously in flight.
    pub peak_in_flight: usize,
}

/// Pads a tile layout bottom/right to `multiple`-divisible dimensions
/// with inert windows ([`WindowPattern::default`]: zero density, zero
/// slack — synthesis can assign them nothing).
fn pad_layout(sub: &Layout, multiple: usize) -> Layout {
    let m = multiple.max(1);
    let prows = sub.rows().div_ceil(m) * m;
    let pcols = sub.cols().div_ceil(m) * m;
    if (prows, pcols) == (sub.rows(), sub.cols()) {
        return sub.clone();
    }
    let layers = (0..sub.num_layers())
        .map(|l| {
            let g = sub.layer(l);
            Grid::from_fn(prows, pcols, |r, c| {
                if r < sub.rows() && c < sub.cols() {
                    *g.get(r, c)
                } else {
                    WindowPattern::default()
                }
            })
        })
        .collect();
    Layout::new(
        format!("{}~pad{prows}x{pcols}", sub.name()),
        sub.window_um(),
        layers,
        sub.file_size_mb(),
    )
}

/// Materializes the halo-padded job layout for one tile: the tile's
/// ext region, padded to `pad_multiple`-divisible dimensions. This is
/// exactly the layout [`synthesize_tiles`] submits, so a caller that runs
/// a tile job elsewhere (e.g. through the service) submits the same
/// bytes and merges its plan with [`merge_tile_plan`].
#[must_use]
pub fn tile_job_layout(source: &dyn ChipSource, tile: &Tile, pad_multiple: usize) -> Layout {
    pad_layout(&source.tile_layout(tile.ext), pad_multiple)
}

/// Extracts one tile's core amounts (layer-major, the checkpoint and
/// [`ChipFillPlan::merge_core`] order) from a synthesized plan over the
/// padded ext layout of [`tile_job_layout`], discarding halo and
/// padding.
///
/// # Panics
///
/// Panics when `amounts` is shorter than the padded ext geometry
/// implies.
#[must_use]
fn extract_core_amounts(tile: &Tile, amounts: &[f64], pad_multiple: usize, layers: usize) -> Vec<f64> {
    // The padded layout keeps the unpadded ext at the same offsets
    // (padding is bottom/right only), so the core sits at
    // `core_in_ext()` in the padded grid too.
    let m = pad_multiple.max(1);
    let prows = tile.ext.rows.div_ceil(m) * m;
    let pcols = tile.ext.cols.div_ceil(m) * m;
    let (dr, dc) = tile.core_in_ext();
    let mut core = Vec::with_capacity(layers * tile.core.len());
    for l in 0..layers {
        for r in 0..tile.core.rows {
            let src = l * prows * pcols + (dr + r) * pcols + dc;
            core.extend_from_slice(&amounts[src..src + tile.core.cols]);
        }
    }
    core
}

/// Merges one tile's synthesized amounts (over the padded ext layout
/// from [`tile_job_layout`]) into the chip-level plan: the core region
/// is copied, halo and padding are discarded.
///
/// # Panics
///
/// Panics when `amounts` is shorter than the padded ext geometry
/// implies or the tile lies outside `plan`.
pub fn merge_tile_plan(plan: &mut ChipFillPlan, tile: &Tile, amounts: &[f64], pad_multiple: usize) {
    let core = extract_core_amounts(tile, amounts, pad_multiple, plan.layers());
    plan.merge_core(tile, &core);
}

/// Streams every tile of `tiling` through `pool` and merges the
/// per-tile plans into one chip-level plan, halos and padding
/// discarded. Failed tiles are recorded (their chip region stays
/// zero-filled) rather than aborting the pass.
///
/// # Errors
///
/// Returns a message when the pool rejects a submission (shutting
/// down) or a job vanishes from its table.
///
/// # Panics
///
/// Panics when `tiling` does not match the source's dimensions.
pub fn synthesize_tiles(
    pool: &RuntimePool,
    source: &dyn ChipSource,
    tiling: &Tiling,
    opts: &TileJobOptions,
) -> Result<TileSynthesis, String> {
    synthesize_tiles_checkpointed(pool, source, tiling, opts, None)
}

/// [`synthesize_tiles`] with tile-granular checkpoint/resume: tiles
/// already finalized in `checkpoint` are merged from their stored core
/// amounts (bit-exact) instead of submitted, and each completed tile is
/// finalized before its merge — an interrupted run resumes from its
/// last completed tile with a byte-identical final plan.
///
/// # Errors
///
/// Returns a message when the pool rejects a submission, a job
/// vanishes, or a checkpoint finalize fails (I/O or injected fault);
/// completed tiles remain durable for the next attempt.
///
/// # Panics
///
/// Panics when `tiling` does not match the source's dimensions.
pub fn synthesize_tiles_checkpointed(
    pool: &RuntimePool,
    source: &dyn ChipSource,
    tiling: &Tiling,
    opts: &TileJobOptions,
    checkpoint: Option<&TileCheckpoint>,
) -> Result<TileSynthesis, String> {
    assert_eq!((tiling.rows(), tiling.cols()), (source.rows(), source.cols()), "tiling/source mismatch");
    let t = &opts.telemetry;
    let gauge = t.gauge("chip.pool_tiles_in_flight");
    let cap = opts.max_in_flight.max(1);
    let layers = source.num_layers();
    let mut out = TileSynthesis {
        plan: ChipFillPlan::zeros(layers, source.rows(), source.cols()),
        tiles: tiling.num_tiles(),
        resumed: 0,
        failed: Vec::new(),
        peak_in_flight: 0,
    };
    let mut pending: Vec<(JobId, Tile, String)> = Vec::new();

    // Waits for whichever in-flight tile finishes first and merges it: a
    // completed tile is finalized in the checkpoint before its core is
    // merged, a failed one is recorded with its region left zero.
    let drain_one =
        |pending: &mut Vec<(JobId, Tile, String)>, out: &mut TileSynthesis| -> Result<(), String> {
            let ids: Vec<JobId> = pending.iter().map(|(id, _, _)| *id).collect();
            let (done_id, status) = pool
                .wait_first(&ids)
                .ok_or_else(|| "in-flight tile jobs vanished from the pool".to_string())?;
            let pos = pending
                .iter()
                .position(|(id, _, _)| *id == done_id)
                .ok_or_else(|| format!("pool returned unknown job {done_id}"))?;
            let (_, tile, name) = pending.swap_remove(pos);
            gauge.set(pending.len() as f64);
            match status {
                JobStatus::Done(report) => {
                    let core =
                        extract_core_amounts(&tile, report.plan.as_slice(), opts.pad_multiple, layers);
                    if let Some(cp) = checkpoint {
                        cp.store(&tile, layers, &core)?;
                    }
                    out.plan.merge_core(&tile, &core);
                    t.counter("chip.pool_tiles_done").inc();
                    Ok(())
                }
                JobStatus::Failed(e) => {
                    out.failed.push((name, e));
                    t.counter("chip.pool_tiles_failed").inc();
                    Ok(())
                }
                other => Err(format!("job {done_id} ({name}) returned non-terminal status {other:?}")),
            }
        };

    for tile in tiling.tiles() {
        if let Some(amounts) = checkpoint.and_then(|cp| cp.amounts(&tile, layers)) {
            out.plan.merge_core(&tile, amounts);
            out.resumed += 1;
            t.counter("chip.pool_tiles_resumed").inc();
            continue;
        }
        while pending.len() >= cap {
            drain_one(&mut pending, &mut out)?;
        }
        let padded = tile_job_layout(source, &tile, opts.pad_multiple);
        let name = format!("{}~{}", source.name(), tile.ext.label());
        let id = pool.submit(JobSpec::new(name.clone(), padded))?;
        t.counter("chip.pool_tiles_submitted").inc();
        pending.push((id, tile, name));
        out.peak_in_flight = out.peak_in_flight.max(pending.len());
        gauge.set(pending.len() as f64);
    }
    while !pending.is_empty() {
        drain_one(&mut pending, &mut out)?;
    }
    t.gauge("chip.pool_peak_tiles_in_flight").set(out.peak_in_flight as f64);
    Ok(out)
}
