//! The chip-level run report.

use std::time::Duration;

/// Summary of one full-chip run (simulate → fill → verify), rendered in
/// the same `key value` line style as the per-job
/// [`JobReport`](neurfill_runtime::JobReport).
#[derive(Debug, Clone, PartialEq)]
pub struct ChipReport {
    /// Design name.
    pub name: String,
    /// Chip window rows.
    pub rows: usize,
    /// Chip window columns.
    pub cols: usize,
    /// Metal layers.
    pub layers: usize,
    /// Requested tile edge (windows); `0` means a single whole-chip tile.
    pub tile: usize,
    /// Tiles per layer after decomposition.
    pub tiles: usize,
    /// Fill tiles restored from a checkpoint instead of recomputed.
    pub tiles_resumed: usize,
    /// Halo width in windows (the pad kernel radius).
    pub halo: usize,
    /// Tile-materialisation workers.
    pub workers: usize,
    // Always 0: no halo is exchanged. The frozen benchmark reads it
    // (`nfbench/src/workloads/chip.rs:349,356`); the next benchmark PR
    // drops both.
    #[doc(hidden)]
    pub halo_bytes: u64,
    /// Peak tiles simultaneously being materialised.
    pub peak_tiles_in_flight: usize,
    /// Worst per-layer height range before filling (nm).
    pub unfilled_height_range: f64,
    /// Worst per-layer height range after filling (nm).
    pub filled_height_range: f64,
    /// Total fill area inserted (µm²).
    pub fill_total_um2: f64,
    /// Wall-clock of the unfilled simulation pass.
    pub simulate_time: Duration,
    /// Wall-clock of fill-plan construction.
    pub fill_time: Duration,
    /// Wall-clock of the post-fill verification pass.
    pub verify_time: Duration,
}

impl ChipReport {
    /// Renders the report as the text block `runfill --full-chip`
    /// prints.
    #[must_use]
    pub fn to_text(&self) -> String {
        format!(
            "chip {}\nwindows {}x{}x{}\ntile {}\ntiles {}\ntiles_resumed {}\nhalo {}\nworkers {}\n\
             peak_tiles_in_flight {}\n\
             unfilled_range_nm {:.6}\nfilled_range_nm {:.6}\nfill_total_um2 {:.3}\n\
             simulate_s {:.3}\nfill_s {:.3}\nverify_s {:.3}\n",
            self.name,
            self.layers,
            self.rows,
            self.cols,
            self.tile,
            self.tiles,
            self.tiles_resumed,
            self.halo,
            self.workers,
            self.peak_tiles_in_flight,
            self.unfilled_height_range,
            self.filled_height_range,
            self.fill_total_um2,
            self.simulate_time.as_secs_f64(),
            self.fill_time.as_secs_f64(),
            self.verify_time.as_secs_f64(),
        )
    }
}
