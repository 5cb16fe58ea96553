//! Sharded training-data pipeline for NeurFill surrogate pre-training
//! (paper §IV-F, Fig. 8).
//!
//! The paper trains its UNet surrogate on layouts generated by a two-step
//! random procedure and labeled by the golden CMP simulator. This crate
//! turns that one-shot, in-memory flow into a reusable corpus pipeline:
//!
//! * [`shard`] — a sealed append log holding `(extraction planes,
//!   normalized height map)` samples; readers stream one record at a time
//!   with bounded memory and reject unsealed, truncated or corrupted
//!   files instead of silently training on them.
//! * [`label`] — parallel labeling: sequential seeded layout generation,
//!   simulator fan-out across the runtime worker pool, and ordered shard
//!   writes in bounded chunks. Output bytes depend only on the seed,
//!   never on the worker count or chunk boundaries.
//! * [`chiplabel`] — full-chip labeling, tile-at-a-time: one golden
//!   chip simulation (`neurfill-chip`), then bounded streaming
//!   extraction over the tile grid.
//! * [`checkpoint`] — one text bundle holding weights, Adam moments, RNG
//!   state and the epoch/shard cursor, so training resumes bit-exactly.
//! * [`train`] — the one epoch loop (`neurfill_nn::run_epochs`) over a
//!   shard set, one shard in memory at a time, with a checkpoint after
//!   every shard.
//!
//! A shard is written through `neurfill_runtime::applog`, the
//! crash-tolerant record log the serve journal and the chip tile
//! checkpoint share: records are appended in place and a final seal
//! record marks the shard complete, so no staging file is involved.
//! Checkpoints and the manifest are whole artifacts, each staged and
//! renamed into place by `neurfill_layout::io::write_durable`.
//!
//! The `gendata` and `pretrain` binaries wrap the two halves as CLIs; a
//! `pretrain` run ends in the same self-contained surrogate bundle
//! (`neurfill::persist`) the runtime and fill flows consume.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod checkpoint;
pub mod chiplabel;
pub mod label;
pub mod shard;
pub mod train;

pub use checkpoint::{
    load_checkpoint, load_checkpoint_file, save_checkpoint, save_checkpoint_file, TrainCheckpoint,
};
pub use chiplabel::{label_full_chip, ChipLabelConfig, ChipLabelReport};
pub use label::{generate_labeled_shards, LabelConfig, LabelReport, Manifest, MANIFEST_FILE};
pub use shard::{ShardReader, ShardSet, ShardSetWriter, ShardShapes, SHARD_EXTENSION};
pub use train::{train_streaming, StreamTrainConfig};
