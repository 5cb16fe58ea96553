//! # neurfill-chip
//!
//! Full-chip simulation and fill synthesis: decomposes a paper-scale
//! chip (5×5–10×10 cm, §V) into tiles, materialises its windows one
//! tile at a time, and merges per-tile results into one chip-level
//! report.
//!
//! Two execution paths share the tile geometry:
//!
//! * **Golden simulation** ([`ChipSimulator`]) — each layer's chip-sized
//!   input is assembled from the core tiles and polished by the one
//!   [`CmpSimulator`](neurfill_cmpsim::CmpSimulator) loop, so it is
//!   *byte-identical* to the monolithic simulator at any tile size and
//!   worker count. The deterministic model-based fill rule ([`fill`])
//!   smooths each layer once over the chip and reads slack tile at a
//!   time, so the whole chip flow (simulate → fill → simulate) is
//!   bit-reproducible at any tiling, with a tile-granular checkpoint.
//! * **Pool tile synthesis** ([`pool`]) — DAMO-style scale-out of the
//!   window-level NN synthesis: each tile, padded by a halo of the pad
//!   kernel radius, becomes a [`JobSpec`](neurfill_runtime::JobSpec) on
//!   the existing [`RuntimePool`](neurfill_runtime::RuntimePool), with a
//!   bounded number of tiles in flight so peak resident windows stay
//!   O(tiles-in-flight × windows-per-tile) instead of the whole chip.
//!
//! Chip geometry is abstracted by [`ChipSource`], which materializes
//! windows one tile at a time — the full chip's window list never
//! exists in memory at once.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod checkpoint;
pub mod fill;
pub mod pool;
pub mod report;
pub mod run;
pub mod sim;
pub mod source;

pub use checkpoint::{chip_run_meta, TileCheckpoint};
pub use fill::{model_fill, ChipFillConfig, ChipFillPlan};
pub use pool::{
    merge_tile_plan, synthesize_tiles, synthesize_tiles_checkpointed, tile_job_layout, TileJobOptions,
    TileSynthesis,
};
pub use report::ChipReport;
pub use run::{run_full_chip, ChipRunConfig, ChipRunResult};
pub use sim::{ChipSimConfig, ChipSimStats, ChipSimulator};
pub use source::{ChipSource, FilledChipSource};
