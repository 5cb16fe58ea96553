//! Parallel golden-simulator labeling (paper §IV-F, Fig. 8 step 3).
//!
//! Layout generation is *sequential* (one seeded
//! [`TrainingLayoutGenerator`] stream), the expensive CMP simulation fans
//! out across the runtime worker pool, and shard writing consumes the
//! results in input order. Simulation is pure, so the shard bytes are
//! identical for any worker count — determinism is a function of the seed
//! alone, which makes corpora reproducible and cacheable.

use crate::shard::{ShardSetWriter, ShardShapes};
use neurfill::extraction::{ExtractionConfig, NUM_CHANNELS};
use neurfill::persist::{read_constants, write_constants};
use neurfill::surrogate::{label_layout, NORM_LAYOUTS};
use neurfill::HeightNorm;
use neurfill_cmpsim::{ChipProfile, CmpSimulator, ProcessParams};
use neurfill_layout::datagen::{DataGenConfig, TrainingLayoutGenerator};
use neurfill_layout::io::write_durable;
use neurfill_layout::Layout;
use neurfill_runtime::parallel_map_ordered;
use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Configuration of one labeling run.
#[derive(Debug, Clone)]
pub struct LabelConfig {
    /// Number of layouts produced by the two-step random procedure (each
    /// yields one sample per layer).
    pub num_layouts: usize,
    /// Samples per shard file before rotating to the next.
    pub samples_per_shard: u64,
    /// Simulation worker threads (`0` = the pool default).
    pub workers: usize,
    /// Two-step random-procedure settings (rows/cols/seed live here).
    pub datagen: DataGenConfig,
    /// Extraction normalization for the input planes.
    pub extraction: ExtractionConfig,
    /// Golden-simulator process parameters.
    pub process: ProcessParams,
    /// Height normalization; `None` derives it from the first
    /// [`NORM_LAYOUTS`] simulated layouts, as surrogate pre-training does.
    pub norm: Option<HeightNorm>,
    /// Telemetry handle. The default (disabled) handle records nothing;
    /// an enabled one counts layouts/samples (`data.label.*`), shard
    /// writes (`data.shard.*`) and per-stage simulator timings
    /// (`sim.*`). Shard bytes are identical either way.
    pub telemetry: neurfill_obs::Telemetry,
}

impl Default for LabelConfig {
    fn default() -> Self {
        Self {
            num_layouts: 64,
            samples_per_shard: 64,
            workers: 0,
            datagen: DataGenConfig::default(),
            extraction: ExtractionConfig::default(),
            process: ProcessParams::default(),
            norm: None,
            telemetry: neurfill_obs::Telemetry::disabled(),
        }
    }
}

/// Summary of a completed labeling run.
#[derive(Debug, Clone)]
pub struct LabelReport {
    /// Total samples written (layouts × layers).
    pub samples: u64,
    /// Layouts generated and simulated.
    pub layouts: usize,
    /// `(path, sample count)` per shard, in order.
    pub shards: Vec<(PathBuf, u64)>,
    /// Height normalization stored in the manifest.
    pub norm: HeightNorm,
    /// Worker threads the simulation fan-out ran with.
    pub workers: usize,
    /// Wall-clock time spent simulating (the parallel section only).
    pub sim_elapsed: Duration,
}

/// Runs the full labeling pipeline: generate layouts sequentially from a
/// fixed seed, simulate them in parallel on `cfg.workers` threads, and
/// write `(extraction planes, normalized height map)` samples into shards
/// under `out_dir` (prefix `train`), plus a `manifest.txt`.
///
/// Output bytes depend only on the configuration (notably
/// `cfg.datagen.seed`), never on the worker count.
///
/// # Errors
///
/// Returns `InvalidData` for invalid process parameters and propagates
/// file-system errors.
///
/// # Panics
///
/// Panics when `sources` is empty or geometrically inconsistent (see
/// [`TrainingLayoutGenerator::new`]).
pub fn generate_labeled_shards(
    sources: Vec<Layout>,
    cfg: &LabelConfig,
    out_dir: impl AsRef<Path>,
) -> io::Result<LabelReport> {
    let _label_span = cfg.telemetry.span("data.label_ns");
    let sim = CmpSimulator::new(cfg.process.clone()).map_err(bad)?.with_telemetry(cfg.telemetry.clone());

    if cfg.num_layouts == 0 {
        return Err(bad("num_layouts must be non-zero"));
    }
    // Step 1+2: sequential, seeded layout generation — but chunked: only
    // one chunk of layouts (and their simulated profiles) is ever
    // resident, so corpus size no longer bounds memory. The generator
    // stream and the ordered fan-out make the shard bytes identical to
    // the old all-at-once path at any chunk boundary or worker count.
    let mut gen = TrainingLayoutGenerator::new(sources, cfg.datagen.clone());
    let workers = if cfg.workers == 0 { neurfill_runtime::default_workers() } else { cfg.workers };
    // At least NORM_LAYOUTS so the norm's layouts are one chunk; 2×
    // workers keeps every thread busy within a chunk.
    let chunk_size = NORM_LAYOUTS.max(2 * workers);

    let mut norm: Option<HeightNorm> = cfg.norm;
    let mut writer: Option<ShardSetWriter> = None;
    let mut geometry = (0usize, 0usize, 0usize);
    let mut sim_elapsed = Duration::ZERO;
    let mut labeled_count = 0usize;
    let mut remaining = cfg.num_layouts;
    while remaining > 0 {
        let take = remaining.min(chunk_size);
        remaining -= take;
        let layouts = gen.generate(take);

        // Step 3: golden simulation, fanned out across the worker pool.
        // The map preserves input order, so everything downstream is
        // worker-count-independent.
        let started = std::time::Instant::now();
        let labeled: Vec<(Layout, ChipProfile)> = parallel_map_ordered(layouts, workers, |layout| {
            let profile = sim.simulate(&layout);
            (layout, profile)
        });
        sim_elapsed += started.elapsed();
        labeled_count += labeled.len();

        let norm = *norm.get_or_insert_with(|| {
            HeightNorm::derive(labeled.iter().map(|(_, p)| p).take(NORM_LAYOUTS))
        });
        let writer = match &mut writer {
            Some(w) => w,
            None => {
                let (rows, cols) = (labeled[0].0.rows(), labeled[0].0.cols());
                geometry = (rows, cols, labeled[0].0.num_layers());
                let shapes = ShardShapes { input: [NUM_CHANNELS, rows, cols], target: [1, rows, cols] };
                writer.insert(
                    ShardSetWriter::new(&out_dir, "train", shapes, cfg.samples_per_shard)?
                        .with_telemetry(&cfg.telemetry),
                )
            }
        };

        // Ordered shard writes: layout-major, layer-minor.
        for (layout, profile) in &labeled {
            for (input, target) in label_layout(layout, profile, &cfg.extraction, norm)? {
                writer.push(&input, &target)?;
            }
        }
    }
    if cfg.telemetry.is_enabled() {
        cfg.telemetry.add("data.label.layouts", labeled_count as u64);
        cfg.telemetry.counter("data.label.sim_ns").add_duration(sim_elapsed);
    }
    let (rows, cols, layers) = geometry;
    let norm = norm.unwrap_or_default();
    let writer = writer.ok_or_else(|| bad("no layouts generated"))?;
    let samples = writer.total();
    let shards = writer.finish()?;

    let manifest = Manifest {
        samples,
        layouts: labeled_count,
        rows,
        cols,
        layers,
        seed: cfg.datagen.seed,
        norm,
        extraction: cfg.extraction.clone(),
    };
    manifest.save(out_dir.as_ref().join(MANIFEST_FILE))?;
    cfg.telemetry.add("data.label.samples", samples);

    Ok(LabelReport { samples, layouts: labeled_count, shards, norm, workers, sim_elapsed })
}

/// File name of the corpus manifest inside a shard directory.
pub const MANIFEST_FILE: &str = "manifest.txt";

const MANIFEST_MAGIC: &str = "neurfill-data-manifest v1";

/// Corpus metadata a training run needs alongside the shards: the height
/// normalization and extraction settings the labels were produced with
/// (weights trained on these labels are only meaningful with the same
/// constants — see `neurfill::persist`).
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Total samples across all shards.
    pub samples: u64,
    /// Layouts the corpus was generated from.
    pub layouts: usize,
    /// Window-grid rows per sample.
    pub rows: usize,
    /// Window-grid columns per sample.
    pub cols: usize,
    /// Layers per layout.
    pub layers: usize,
    /// Datagen seed the corpus was produced from.
    pub seed: u64,
    /// Height normalization applied to every target.
    pub norm: HeightNorm,
    /// Extraction settings applied to every input.
    pub extraction: ExtractionConfig,
}

impl Manifest {
    /// Writes the manifest as a small text file through [`write_durable`]:
    /// `path` keeps its previous contents until the new manifest is
    /// complete and synced. The `height_norm` and `extraction` lines are
    /// the bundle's ([`write_constants`]).
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut w = Vec::new();
        writeln!(w, "{MANIFEST_MAGIC}")?;
        writeln!(w, "samples {}", self.samples)?;
        writeln!(w, "layouts {}", self.layouts)?;
        writeln!(w, "geometry {} {} {}", self.rows, self.cols, self.layers)?;
        writeln!(w, "seed {}", self.seed)?;
        write_constants(&mut w, self.norm, &self.extraction)?;
        write_durable(path.as_ref(), &w)
    }

    /// Reads a manifest written by [`Manifest::save`].
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on any format violation.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        let mut lines = BufReader::new(std::fs::File::open(&path)?).lines();
        let mut next = |what: &str| -> io::Result<String> {
            lines.next().ok_or_else(|| bad(format!("manifest truncated before {what}")))?
        };
        if next("magic")?.trim() != MANIFEST_MAGIC {
            return Err(bad("not a neurfill data manifest"));
        }
        fn fields<T: std::str::FromStr>(line: &str, key: &str, n: usize) -> io::Result<Vec<T>>
        where
            T::Err: std::fmt::Display,
        {
            let rest = line
                .strip_prefix(key)
                .and_then(|r| r.strip_prefix(' '))
                .ok_or_else(|| bad(format!("expected `{key}` line, got {line:?}")))?;
            let vals: Vec<T> = rest
                .split_whitespace()
                .map(|t| t.parse().map_err(|e| bad(format!("bad `{key}` field {t:?}: {e}"))))
                .collect::<io::Result<_>>()?;
            if vals.len() != n {
                return Err(bad(format!("`{key}` needs {n} fields, got {}", vals.len())));
            }
            Ok(vals)
        }
        let samples = fields::<u64>(&next("samples")?, "samples", 1)?[0];
        let layouts = fields::<usize>(&next("layouts")?, "layouts", 1)?[0];
        let geo = fields::<usize>(&next("geometry")?, "geometry", 3)?;
        let seed = fields::<u64>(&next("seed")?, "seed", 1)?[0];
        let (norm, extraction) = read_constants(&mut lines)?;
        Ok(Self { samples, layouts, rows: geo[0], cols: geo[1], layers: geo[2], seed, norm, extraction })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurfill_layout::benchmark_designs;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nf_label_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn fast_config(seed: u64, workers: usize) -> LabelConfig {
        LabelConfig {
            num_layouts: 4,
            samples_per_shard: 5,
            workers,
            datagen: DataGenConfig { rows: 6, cols: 6, seed, ..DataGenConfig::default() },
            process: ProcessParams::fast(),
            ..LabelConfig::default()
        }
    }

    #[test]
    fn labeling_writes_consistent_corpus_and_manifest() {
        let dir = tmp("basic");
        let report =
            generate_labeled_shards(benchmark_designs(10, 10, 1), &fast_config(3, 1), &dir).unwrap();
        // 4 layouts × 3 layers = 12 samples in shards of 5.
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
        assert_eq!(manifest.seed, 3);
        assert_eq!(manifest.norm.offset_nm, report.norm.offset_nm);
        assert_eq!(manifest.norm.scale_nm, report.norm.scale_nm);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_smaller_corpus_replaces_a_larger_one_in_the_same_directory() {
        let dir = tmp("rerun");
        let sources = benchmark_designs(10, 10, 1);
        let big = LabelConfig { num_layouts: 8, ..fast_config(3, 1) };
        // 8 layouts × 3 layers = 24 samples in 5 shards of 5.
        assert_eq!(generate_labeled_shards(sources.clone(), &big, &dir).unwrap().shards.len(), 5);
        // 12 samples in 3 shards: the first corpus's shards 3 and 4 must go.
        let report = generate_labeled_shards(sources, &fast_config(9, 1), &dir).unwrap();
        assert_eq!((report.samples, report.shards.len()), (12, 3));

        let set = crate::ShardSet::open_dir(&dir).unwrap();
        assert_eq!(set.num_shards(), 3, "{:?}", set.paths());
        assert_eq!(set.len(), 12);
        assert_eq!(Manifest::load(dir.join(MANIFEST_FILE)).unwrap().samples, set.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_bytes_are_identical_across_worker_counts() {
        let sources = benchmark_designs(10, 10, 1);
        let dir1 = tmp("w1");
        let dir4 = tmp("w4");
        generate_labeled_shards(sources.clone(), &fast_config(7, 1), &dir1).unwrap();
        generate_labeled_shards(sources, &fast_config(7, 4), &dir4).unwrap();

        let names = |d: &PathBuf| -> Vec<String> {
            let mut v: Vec<String> = std::fs::read_dir(d)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            v.sort();
            v
        };
        let n1 = names(&dir1);
        assert_eq!(n1, names(&dir4));
        assert!(n1.len() > 1, "expect manifest plus at least one shard");
        for name in &n1 {
            let a = std::fs::read(dir1.join(name)).unwrap();
            let b = std::fs::read(dir4.join(name)).unwrap();
            assert_eq!(a, b, "{name} differs between 1 and 4 workers");
        }
        let _ = std::fs::remove_dir_all(&dir1);
        let _ = std::fs::remove_dir_all(&dir4);
    }

    #[test]
    fn different_seeds_produce_different_corpora() {
        let sources = benchmark_designs(10, 10, 1);
        let da = tmp("seed_a");
        let db = tmp("seed_b");
        generate_labeled_shards(sources.clone(), &fast_config(1, 1), &da).unwrap();
        generate_labeled_shards(sources, &fast_config(2, 1), &db).unwrap();
        let a = std::fs::read(da.join("train-00000.nfshard")).unwrap();
        let b = std::fs::read(db.join("train-00000.nfshard")).unwrap();
        assert_ne!(a, b);
        let _ = std::fs::remove_dir_all(&da);
        let _ = std::fs::remove_dir_all(&db);
    }

    fn manifest() -> Manifest {
        Manifest {
            samples: 10,
            layouts: 5,
            rows: 8,
            cols: 16,
            layers: 2,
            seed: 42,
            norm: HeightNorm { offset_nm: 123.456, scale_nm: 7.89 },
            extraction: ExtractionConfig::default(),
        }
    }

    #[test]
    fn manifest_roundtrips() {
        let dir = tmp("manifest");
        std::fs::create_dir_all(&dir).unwrap();
        let m = manifest();
        let path = dir.join(MANIFEST_FILE);
        m.save(&path).unwrap();
        let back = Manifest::load(&path).unwrap();
        assert_eq!(back.samples, 10);
        assert_eq!((back.rows, back.cols, back.layers), (8, 16, 2));
        assert_eq!(back.norm.offset_nm, 123.456);
        assert_eq!(back.norm.scale_nm, 7.89);
        assert!(Manifest::load(dir.join("missing.txt")).is_err());
        std::fs::write(&path, "garbage\n").unwrap();
        assert!(Manifest::load(&path).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_manifest_save_leaves_the_previous_manifest_intact() {
        let dir = tmp("manifest_durable");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(MANIFEST_FILE);
        let m = manifest();
        m.save(&path).unwrap();
        let before = std::fs::read(&path).unwrap();
        // A directory where the new manifest would be staged: the save
        // cannot even begin, and must say so without touching the old file.
        std::fs::create_dir(neurfill_layout::io::staging_path(&path)).unwrap();
        assert!(Manifest { samples: 20, ..m }.save(&path).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), before);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
