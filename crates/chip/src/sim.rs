//! The sharded full-chip golden simulator.
//!
//! [`ChipSimulator`] decomposes the chip into tiles with a halo of pad
//! kernel radius, builds one
//! [`TileShard`](neurfill_cmpsim::TileShard) per tile from a
//! tile-at-a-time [`ChipSource`], and drives
//! [`simulate_layer_sharded`](neurfill_cmpsim::simulate_layer_sharded)
//! with a pool-backed parallel shard mapper. Only per-tile window lists
//! and chip-sized `f64` exchange boards are ever resident; the merged
//! [`ChipProfile`] is byte-identical to the monolithic
//! [`CmpSimulator`](neurfill_cmpsim::CmpSimulator) at any tile size and
//! worker count.

use crate::source::ChipSource;
use neurfill_cmpsim::{
    simulate_layer_sharded, ChipProfile, ContactCounters, ContactSolve, ContactSolveStats, LayerInput,
    NumericsTier, PadKernel, ProcessParams, TileShard,
};
use neurfill_obs::Telemetry;
use neurfill_runtime::parallel_map_ordered;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Configuration of a sharded chip simulation.
#[derive(Debug, Clone)]
pub struct ChipSimConfig {
    /// Process parameters (shared with the monolithic simulator).
    pub params: ProcessParams,
    /// Tile edge in windows (tiles are `tile × tile` cores; edge tiles
    /// may be smaller). `0` means one tile for the whole chip.
    pub tile: usize,
    /// Shard-mapper worker threads (`0` = runtime default).
    pub workers: usize,
    /// Telemetry sink for `chip.*` metrics (disabled by default).
    pub telemetry: Telemetry,
    // Inert: the frozen benchmark's struct literal names both fields
    // (`nfbench/src/workloads/chip.rs:94-95`). The sharded simulator has
    // one numeric path and reads neither; the next benchmark PR drops
    // them (see the matching note in `neurfill_cmpsim`).
    #[doc(hidden)]
    pub contact_solve: ContactSolve,
    #[doc(hidden)]
    pub numerics: NumericsTier,
}

impl ChipSimConfig {
    /// Fast-parameter config ([`ProcessParams::fast`]) with the given tile
    /// edge and worker count.
    #[must_use]
    pub fn fast(tile: usize, workers: usize) -> Self {
        Self {
            params: ProcessParams::fast(),
            tile,
            workers,
            telemetry: Telemetry::disabled(),
            contact_solve: ContactSolve::Exact,
            numerics: NumericsTier::Exact,
        }
    }
}

/// Aggregate statistics of one sharded chip simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChipSimStats {
    /// Tiles per layer.
    pub tiles: usize,
    /// Layers simulated.
    pub layers: usize,
    /// Halo bytes gathered across all layers, tiles and steps.
    pub halo_bytes: u64,
    /// The global contact solves' stats across all layers and steps.
    pub contact: ContactSolveStats,
    /// Maximum shards simultaneously inside the mapper.
    pub peak_tiles_in_flight: usize,
}

/// Sharded tile-grid orchestrator for the golden CMP model.
#[derive(Debug)]
pub struct ChipSimulator {
    cfg: ChipSimConfig,
    kernel: PadKernel,
}

impl ChipSimulator {
    /// Builds a simulator, validating the process parameters.
    ///
    /// # Errors
    ///
    /// Returns a message when the parameters are invalid.
    pub fn new(cfg: ChipSimConfig) -> Result<Self, String> {
        cfg.params.validate()?;
        let kernel = PadKernel::exponential(cfg.params.character_length, cfg.params.kernel_radius);
        Ok(Self { cfg, kernel })
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &ChipSimConfig {
        &self.cfg
    }

    /// The tile decomposition this simulator uses for `source` (halo =
    /// kernel radius; `tile == 0` covers the chip with a single tile).
    #[must_use]
    pub fn tiling_for(&self, source: &dyn ChipSource) -> neurfill_layout::Tiling {
        let (rows, cols) = (source.rows(), source.cols());
        let tile = if self.cfg.tile == 0 { rows.max(cols) } else { self.cfg.tile };
        neurfill_layout::Tiling::square(rows, cols, tile, self.cfg.params.kernel_radius)
    }

    /// Simulates every layer of the chip shard-by-shard and merges the
    /// per-tile results (halos discarded) into one chip profile.
    ///
    /// # Errors
    ///
    /// Returns a message when a tile's window data fails validation.
    pub fn simulate(&self, source: &dyn ChipSource) -> Result<(ChipProfile, ChipSimStats), String> {
        let tiling = self.tiling_for(source);
        let (rows, cols) = (source.rows(), source.cols());
        let t = &self.cfg.telemetry;
        let in_flight = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let gauge = t.gauge("chip.tiles_in_flight");
        let map =
            |shards: Vec<TileShard>, f: &(dyn Fn(TileShard) -> TileShard + Sync)| -> Vec<TileShard> {
                parallel_map_ordered(shards, self.cfg.workers, |s| {
                    let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    gauge.set(now as f64);
                    let out = f(s);
                    gauge.set((in_flight.fetch_sub(1, Ordering::SeqCst) - 1) as f64);
                    out
                })
            };
        let mut layers = Vec::with_capacity(source.num_layers());
        let mut stats = ChipSimStats {
            tiles: tiling.num_tiles(),
            layers: source.num_layers(),
            ..ChipSimStats::default()
        };
        let contact = ContactCounters::new(t, "chip");
        for l in 0..source.num_layers() {
            let _span = t.span("chip.layer");
            let shards =
                parallel_map_ordered(tiling.tiles().collect::<Vec<_>>(), self.cfg.workers, |tile| {
                    let sub = source.tile_layout(tile.ext);
                    let input = LayerInput::from_layout(&sub, l);
                    TileShard::new(tile, &input, &self.kernel, &self.cfg.params)
                })
                .into_iter()
                .collect::<Result<Vec<_>, String>>()
                .map_err(|e| format!("layer {l}: {e}"))?;
            let (profile, shard_stats, _) =
                simulate_layer_sharded(shards, rows, cols, &self.cfg.params, &self.kernel, &map);
            stats.halo_bytes += shard_stats.halo_cells_exchanged * 8;
            stats.contact += shard_stats.contact;
            t.counter("chip.layers").inc();
            t.counter("chip.tiles").add(shard_stats.tiles as u64);
            t.counter("chip.halo_bytes").add(shard_stats.halo_cells_exchanged * 8);
            contact.add(&shard_stats.contact);
            layers.push(profile);
        }
        stats.peak_tiles_in_flight = peak.load(Ordering::SeqCst);
        t.gauge("chip.peak_tiles_in_flight").set(stats.peak_tiles_in_flight as f64);
        Ok((ChipProfile::new(layers), stats))
    }
}
