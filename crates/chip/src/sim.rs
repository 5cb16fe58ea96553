//! The full-chip golden simulator.
//!
//! [`ChipSimulator`] assembles each layer's chip-sized
//! [`LayerInput`] from the core tiles of a tile-at-a-time
//! [`ChipSource`], materialising the tiles on a few worker threads, and
//! runs the one polish loop,
//! [`CmpSimulator`](neurfill_cmpsim::CmpSimulator), on it. Only the
//! tiles in flight and the chip-sized `f64` maps of one layer are ever
//! resident; the [`ChipProfile`] is byte-identical to the monolithic
//! simulator's on the materialised chip at any tile size and worker
//! count, because a position-deterministic source assembles the same
//! input whatever the tiling.

use crate::source::{region_layout, ChipSource};
use neurfill_cmpsim::{
    ChipProfile, CmpSimulator, ContactCounters, ContactSolve, ContactSolveStats, LayerInput,
    NumericsTier, ProcessParams,
};
use neurfill_layout::{Tile, Tiling};
use neurfill_obs::Telemetry;
use neurfill_runtime::parallel_map_ordered;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Configuration of a chip simulation.
#[derive(Debug, Clone)]
pub struct ChipSimConfig {
    /// Process parameters (shared with the monolithic simulator).
    pub params: ProcessParams,
    /// Tile edge in windows (tiles are `tile × tile` cores; edge tiles
    /// may be smaller). `0` means one tile for the whole chip.
    pub tile: usize,
    /// Tile-materialisation worker threads (`0` = runtime default).
    pub workers: usize,
    /// Telemetry sink for `chip.*` metrics (disabled by default).
    pub telemetry: Telemetry,
    // Inert: the frozen benchmark's struct literal names both fields
    // (`nfbench/src/workloads/chip.rs:94-95`). The simulator has one
    // numeric path and reads neither; the next benchmark PR drops them
    // (see the matching note in `neurfill_cmpsim`).
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

/// Aggregate statistics of one chip simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChipSimStats {
    /// Tiles per layer.
    pub tiles: usize,
    /// Layers simulated.
    pub layers: usize,
    // Always 0: no halo is exchanged. The frozen benchmark sums it into
    // its `chip.halo_bytes` row (`nfbench/src/workloads/chip.rs:243`);
    // the next benchmark PR drops both.
    #[doc(hidden)]
    pub halo_bytes: u64,
    /// The contact solves' stats across all layers and steps.
    pub contact: ContactSolveStats,
    /// Maximum tiles simultaneously being materialised.
    pub peak_tiles_in_flight: usize,
}

/// Tile-assembling orchestrator for the golden CMP model.
#[derive(Debug)]
pub struct ChipSimulator {
    cfg: ChipSimConfig,
    sim: CmpSimulator,
}

impl ChipSimulator {
    /// Builds a simulator, validating the process parameters.
    ///
    /// # Errors
    ///
    /// Returns a message when the parameters are invalid.
    pub fn new(cfg: ChipSimConfig) -> Result<Self, String> {
        let sim = CmpSimulator::new(cfg.params.clone())?;
        Ok(Self { cfg, sim })
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &ChipSimConfig {
        &self.cfg
    }

    /// The tile decomposition this simulator uses for `source` (halo =
    /// kernel radius; `tile == 0` covers the chip with a single tile).
    #[must_use]
    pub fn tiling_for(&self, source: &dyn ChipSource) -> Tiling {
        let (rows, cols) = (source.rows(), source.cols());
        let tile = if self.cfg.tile == 0 { rows.max(cols) } else { self.cfg.tile };
        Tiling::square(rows, cols, tile, self.cfg.params.kernel_radius)
    }

    /// Simulates every layer of the chip: assembles the layer from the
    /// source's core tiles, then runs the polish loop on the whole chip.
    ///
    /// # Errors
    ///
    /// Returns a message naming the layer when a tile's layout does not
    /// have its core's dimensions or the assembled input fails
    /// [`LayerInput::validate`].
    pub fn simulate(&self, source: &dyn ChipSource) -> Result<(ChipProfile, ChipSimStats), String> {
        let tiling = self.tiling_for(source);
        let t = &self.cfg.telemetry;
        let mut stats = ChipSimStats {
            tiles: tiling.num_tiles(),
            layers: source.num_layers(),
            ..ChipSimStats::default()
        };
        let peak = AtomicUsize::new(0);
        let contact = ContactCounters::new(t, "chip");
        let mut layers = Vec::with_capacity(source.num_layers());
        for l in 0..source.num_layers() {
            let _span = t.span("chip.layer");
            let input = self.assemble_layer(source, &tiling, l, &peak);
            let (profile, solves) = input
                .and_then(|input| self.sim.simulate_layer_stats(&input))
                .map_err(|e| format!("layer {l}: {e}"))?;
            stats.contact += solves;
            t.counter("chip.layers").inc();
            t.counter("chip.tiles").add(tiling.num_tiles() as u64);
            contact.add(&solves);
            layers.push(profile);
        }
        stats.peak_tiles_in_flight = peak.load(Ordering::SeqCst);
        t.gauge("chip.peak_tiles_in_flight").set(stats.peak_tiles_in_flight as f64);
        Ok((ChipProfile::new(layers), stats))
    }

    /// Materialises layer `l` tile at a time on the configured workers
    /// and writes each core into one chip-sized input.
    fn assemble_layer(
        &self,
        source: &dyn ChipSource,
        tiling: &Tiling,
        l: usize,
        peak: &AtomicUsize,
    ) -> Result<LayerInput, String> {
        let (rows, cols) = (source.rows(), source.cols());
        let n = rows * cols;
        let chip = Mutex::new(LayerInput {
            rows,
            cols,
            density: vec![0.0; n],
            perimeter: vec![0.0; n],
            avg_width: vec![0.0; n],
        });
        let in_flight = AtomicUsize::new(0);
        let gauge = self.cfg.telemetry.gauge("chip.tiles_in_flight");
        let tiles: Vec<Tile> = tiling.tiles().collect();
        let written = parallel_map_ordered(tiles, self.cfg.workers, |tile| {
            let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            gauge.set(now as f64);
            let core = tile.core;
            let result = region_layout(source, core).map(|sub| {
                // Element stores only: a poisoned guard still holds valid maps.
                let mut chip = chip.lock().unwrap_or_else(PoisonError::into_inner);
                for (i, w) in sub.layer(l).iter().enumerate() {
                    let k = (core.row0 + i / core.cols) * cols + core.col0 + i % core.cols;
                    chip.density[k] = w.density;
                    chip.perimeter[k] = w.perimeter;
                    chip.avg_width[k] = w.avg_width;
                }
            });
            gauge.set((in_flight.fetch_sub(1, Ordering::SeqCst) - 1) as f64);
            result
        });
        written.into_iter().collect::<Result<(), String>>()?;
        Ok(chip.into_inner().unwrap_or_else(PoisonError::into_inner))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A radius past the cap is refused with the monolithic simulator's
    /// message, before any kernel is allocated.
    #[test]
    fn an_oversized_kernel_radius_is_refused() {
        let params = ProcessParams { kernel_radius: 100_000, ..ProcessParams::fast() };
        let err = ChipSimulator::new(ChipSimConfig { params, ..ChipSimConfig::fast(8, 1) }).err();
        assert_eq!(err.as_deref(), Some("kernel_radius must be at most 64"));
    }
}
