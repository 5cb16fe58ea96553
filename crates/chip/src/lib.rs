//! # neurfill-chip
//!
//! Sharded full-chip simulation and fill synthesis: decomposes a
//! paper-scale chip (5×5–10×10 cm, §V) into tiles with a halo of pad
//! kernel radius, streams the tiles through the runtime worker pool,
//! and merges the per-tile results into one chip-level report with the
//! halo regions discarded.
//!
//! Two execution paths share the tile/halo geometry:
//!
//! * **Sharded golden simulation** ([`ChipSimulator`]) — the CMP polish
//!   loop over [`TileShard`](neurfill_cmpsim::TileShard)s with per-step
//!   halo exchange and a global contact solve, *byte-identical* to the
//!   monolithic simulator at any tile size and worker count. The
//!   deterministic model-based fill rule ([`fill`]) rides the same
//!   decomposition, so the whole chip flow (simulate → fill → simulate)
//!   is bit-reproducible in sharded form.
//! * **Pool tile synthesis** ([`pool`]) — DAMO-style scale-out of the
//!   window-level NN synthesis: each halo-padded tile becomes a
//!   [`JobSpec`](neurfill_runtime::JobSpec) on the existing
//!   [`RuntimePool`](neurfill_runtime::RuntimePool), with a bounded
//!   number of tiles in flight so peak resident windows stay
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
pub use fill::{model_fill_monolithic, model_fill_sharded, ChipFillConfig, ChipFillPlan};
pub use pool::{
    merge_tile_plan, synthesize_tiles, synthesize_tiles_checkpointed, tile_job_layout, TileJobOptions,
    TileSynthesis,
};
pub use report::ChipReport;
pub use run::{run_full_chip, ChipRunConfig, ChipRunResult};
pub use sim::{ChipSimConfig, ChipSimStats, ChipSimulator};
pub use source::{ChipSource, FilledChipSource};
