//! Full-chip labeling into shards, tile-at-a-time.
//!
//! A paper-scale chip (§V: design C is 1000×1000 windows) cannot be
//! labeled by the per-layout path of [`crate::label`] — its window list
//! and height map would be materialized whole. This module runs the
//! sharded chip simulator once (chip-sized `f64` boards only), then
//! walks the tile grid with the bounded
//! [`ExtractionStream`], materializing one tile's windows at a time and
//! writing one `(planes, normalized heights)` sample per tile per
//! layer. Output bytes depend only on the source and configuration,
//! never on the worker count (the sharded simulation is bit-identical
//! to the monolithic one, and tiles are written in row-major order).

use crate::label::{Manifest, MANIFEST_FILE};
use crate::shard::{ShardSetWriter, ShardShapes};
use neurfill::extraction::{ExtractionConfig, ExtractionStream, NUM_CHANNELS};
use neurfill::HeightNorm;
use neurfill_chip::{ChipSimConfig, ChipSimulator, ChipSource};
use neurfill_cmpsim::{ChipProfile, ProcessParams};
use neurfill_layout::Tiling;
use neurfill_tensor::NdArray;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Configuration of one full-chip labeling run.
#[derive(Debug, Clone)]
pub struct ChipLabelConfig {
    /// Sample tile edge in windows; the chip's dimensions must be
    /// divisible by it (shards need uniform sample shapes).
    pub tile: usize,
    /// Simulation worker threads (`0` = the pool default).
    pub workers: usize,
    /// Samples per shard file before rotating to the next.
    pub samples_per_shard: u64,
    /// Extraction normalization for the input planes.
    pub extraction: ExtractionConfig,
    /// Golden-simulator process parameters.
    pub process: ProcessParams,
    /// Height normalization; `None` derives it from the chip's own
    /// height statistics (mean/std over all layers).
    pub norm: Option<HeightNorm>,
    /// Seed recorded in the manifest (the chip generator's seed).
    pub seed: u64,
    /// Telemetry handle (disabled records nothing; bytes identical).
    pub telemetry: neurfill_obs::Telemetry,
}

impl Default for ChipLabelConfig {
    fn default() -> Self {
        Self {
            tile: 32,
            workers: 0,
            samples_per_shard: 64,
            extraction: ExtractionConfig::default(),
            process: ProcessParams::default(),
            norm: None,
            seed: 0,
            telemetry: neurfill_obs::Telemetry::disabled(),
        }
    }
}

/// Summary of a completed full-chip labeling run.
#[derive(Debug, Clone)]
pub struct ChipLabelReport {
    /// Samples written (tiles × layers).
    pub samples: u64,
    /// Tiles per layer.
    pub tiles: usize,
    /// `(path, sample count)` per shard, in order.
    pub shards: Vec<(PathBuf, u64)>,
    /// Height normalization stored in the manifest.
    pub norm: HeightNorm,
    /// Worker threads the sharded simulation ran with.
    pub workers: usize,
    /// Wall-clock of the sharded chip simulation.
    pub sim_elapsed: Duration,
    /// Halo bytes the simulation exchanged.
    pub halo_bytes: u64,
}

/// Mean/std height normalization over every layer of one chip profile.
fn derive_norm(profile: &ChipProfile) -> HeightNorm {
    let (mut sum, mut count) = (0.0f64, 0usize);
    for l in profile.iter() {
        sum += l.heights().iter().sum::<f64>();
        count += l.heights().len();
    }
    let n = count.max(1) as f64;
    let mean = sum / n;
    let var =
        profile.iter().flat_map(|l| l.heights().iter()).map(|h| (h - mean) * (h - mean)).sum::<f64>()
            / n;
    HeightNorm { offset_nm: mean, scale_nm: var.sqrt().max(1e-3) }
}

/// Labels a full chip into training shards: one sharded golden
/// simulation, then one `(extraction planes, normalized heights)`
/// sample per tile per layer, extracted tile-at-a-time so the chip's
/// window list is never materialized at once. Writes shards (prefix
/// `chip`) and a `manifest.txt` under `out_dir`.
///
/// # Errors
///
/// Returns `InvalidData` when the chip's dimensions are not divisible
/// by `cfg.tile` or the process parameters are invalid, and propagates
/// file-system errors.
pub fn label_full_chip(
    source: &dyn ChipSource,
    cfg: &ChipLabelConfig,
    out_dir: impl AsRef<Path>,
) -> io::Result<ChipLabelReport> {
    let _span = cfg.telemetry.span("data.chiplabel_ns");
    let (rows, cols) = (source.rows(), source.cols());
    if cfg.tile == 0 || rows % cfg.tile != 0 || cols % cfg.tile != 0 {
        return Err(bad(format!(
            "chip is {rows}x{cols}; --tile-size {} must divide both dimensions",
            cfg.tile
        )));
    }

    let sim = ChipSimulator::new(ChipSimConfig {
        params: cfg.process.clone(),
        telemetry: cfg.telemetry.clone(),
        ..ChipSimConfig::fast(cfg.tile, cfg.workers)
    })
    .map_err(bad)?;
    let started = std::time::Instant::now();
    let (profile, stats) = sim.simulate(source).map_err(bad)?;
    let sim_elapsed = started.elapsed();

    let norm = cfg.norm.unwrap_or_else(|| derive_norm(&profile));
    let tiling = Tiling::square(rows, cols, cfg.tile, 0);
    let shapes =
        ShardShapes { input: [NUM_CHANNELS, cfg.tile, cfg.tile], target: [1, cfg.tile, cfg.tile] };
    let mut writer = ShardSetWriter::new(&out_dir, "chip", shapes, cfg.samples_per_shard)?
        .with_telemetry(&cfg.telemetry);

    for l in 0..source.num_layers() {
        let heights = profile.layer(l).heights();
        let stream = ExtractionStream::new(
            tiling.tiles().map(|t| t.core),
            |rect| source.tile_layout(rect),
            l,
            &cfg.extraction,
        );
        for (rect, input) in stream {
            let mut target = Vec::with_capacity(rect.len());
            for r in rect.row0..rect.row_end() {
                for c in rect.col0..rect.col_end() {
                    let h = heights[r * cols + c];
                    target.push(((h - norm.offset_nm) / norm.scale_nm) as f32);
                }
            }
            let target =
                NdArray::from_vec(target, &[1, cfg.tile, cfg.tile]).map_err(|e| bad(e.to_string()))?;
            writer.push(&input, &target)?;
        }
    }
    let samples = writer.total();
    let shards = writer.finish()?;

    let manifest = Manifest {
        samples,
        layouts: tiling.num_tiles(),
        rows: cfg.tile,
        cols: cfg.tile,
        layers: source.num_layers(),
        seed: cfg.seed,
        norm,
        extraction: cfg.extraction.clone(),
    };
    manifest.save(out_dir.as_ref().join(MANIFEST_FILE))?;
    cfg.telemetry.add("data.chiplabel.samples", samples);

    Ok(ChipLabelReport {
        samples,
        tiles: tiling.num_tiles(),
        shards,
        norm,
        workers: cfg.workers,
        sim_elapsed,
        halo_bytes: stats.halo_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurfill_layout::{DesignKind, FullChipSpec};
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nf_chiplabel_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fast_config(workers: usize) -> ChipLabelConfig {
        ChipLabelConfig {
            tile: 6,
            workers,
            samples_per_shard: 5,
            process: ProcessParams::fast(),
            seed: 9,
            ..ChipLabelConfig::default()
        }
    }

    #[test]
    fn chip_labeling_writes_tiled_corpus_with_manifest() {
        let design = FullChipSpec::new(DesignKind::Fpga, 12, 12, 9).build();
        let dir = tmp("basic");
        let report = label_full_chip(&design, &fast_config(1), &dir).unwrap();
        // 2x2 tiles × 3 layers = 12 samples in shards of 5.
        assert_eq!(report.tiles, 4);
        assert_eq!(report.samples, 12);
        assert_eq!(report.shards.len(), 3);

        let set = crate::ShardSet::open_dir(&dir).unwrap();
        assert_eq!(set.len(), 12);
        assert_eq!(set.shapes().input, [NUM_CHANNELS, 6, 6]);
        assert_eq!(set.shapes().target, [1, 6, 6]);
        for rec in set.stream() {
            let (x, y) = rec.unwrap();
            assert!(x.as_slice().iter().all(|v| v.is_finite()));
            assert!(y.as_slice().iter().all(|v| v.is_finite()));
        }

        let manifest = Manifest::load(dir.join(MANIFEST_FILE)).unwrap();
        assert_eq!(manifest.samples, 12);
        assert_eq!((manifest.rows, manifest.cols, manifest.layers), (6, 6, 3));
        assert_eq!(manifest.seed, 9);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chip_shard_bytes_are_identical_across_worker_counts() {
        let design = FullChipSpec::new(DesignKind::RiscV, 12, 12, 4).build();
        let d1 = tmp("w1");
        let d4 = tmp("w4");
        label_full_chip(&design, &fast_config(1), &d1).unwrap();
        label_full_chip(&design, &fast_config(4), &d4).unwrap();
        let names = |d: &PathBuf| -> Vec<String> {
            let mut v: Vec<String> = std::fs::read_dir(d)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            v.sort();
            v
        };
        let n1 = names(&d1);
        assert_eq!(n1, names(&d4));
        for name in &n1 {
            let a = std::fs::read(d1.join(name)).unwrap();
            let b = std::fs::read(d4.join(name)).unwrap();
            assert_eq!(a, b, "{name} differs between 1 and 4 workers");
        }
        let _ = std::fs::remove_dir_all(&d1);
        let _ = std::fs::remove_dir_all(&d4);
    }

    #[test]
    fn rejects_tile_that_does_not_divide_the_chip() {
        let design = FullChipSpec::new(DesignKind::CmpTest, 10, 10, 0).build();
        let cfg = ChipLabelConfig { tile: 3, process: ProcessParams::fast(), ..Default::default() };
        let err = label_full_chip(&design, &cfg, tmp("bad")).unwrap_err();
        assert!(err.to_string().contains("must divide"), "{err}");
    }
}
