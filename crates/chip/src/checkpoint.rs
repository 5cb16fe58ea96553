//! Tile-granular checkpoint/resume for full-chip runs.
//!
//! A [`TileCheckpoint`] is a directory holding a `run.meta` header that
//! pins the run configuration (design, dimensions, tiling, execution
//! mode) and one [`AppendLog`] with a record per *completed* tile of a
//! full-chip pass. A record is the workspace's one plan format
//! ([`neurfill_layout::io::write_plan`], `neurfill-plan v2`) over the
//! tile's **core** — the region the tile owns after halo/padding are
//! discarded — with the core rect as shape and origin. The amounts
//! round-trip bit for bit, so a resumed run skips completed tiles and
//! still produces a byte-identical chip plan.
//!
//! Crash safety is the log's: a kill mid-append leaves a torn tail that
//! replay truncates, so that tile is simply recomputed, and every stored
//! tile is fsynced before [`TileCheckpoint::store`] returns. Appends
//! pass the
//! [`CHECKPOINT_WRITE`](neurfill_runtime::fault::sites::CHECKPOINT_WRITE)
//! fault site, so the chaos suite's `short_write`, `torn_record` and
//! `crash` are the log's own. `run.meta` is a whole file and goes
//! through [`neurfill_layout::io::write_durable`]. Tile files an older
//! build left in the directory (`tile-*.nftile`) are never read: such a
//! directory resumes no tiles.
//!
//! ```text
//! run.meta       (atomic, config fingerprint)
//! tiles.nflog    append log, one record per completed tile:
//!                  neurfill-plan v2
//!                  shape <L> <rows> <cols> <row0> <col0>
//!                  checksum <fnv1a of the amounts line>
//!                  <a0> <a1> ... (layer-major core amounts)
//! ```

use crate::source::ChipSource;
use neurfill_layout::io::{self as layout_io, PlanShape};
use neurfill_layout::{Tile, Tiling};
use neurfill_runtime::fault::sites;
use neurfill_runtime::{AppendLog, FaultPlan};
use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Config-fingerprint file name inside a checkpoint directory.
pub const META_FILE: &str = "run.meta";
/// The tile log's file name inside a checkpoint directory.
const TILE_LOG: &str = "tiles.nflog";

/// The `run.meta` fingerprint for a full-chip pass: geometry plus an
/// execution-mode tag (`golden`, `pool`, ...). Two runs may
/// share a checkpoint directory only when this string matches exactly —
/// resuming a run under a different configuration would merge plans
/// that were never comparable.
#[must_use]
pub fn chip_run_meta(source: &dyn ChipSource, tiling: &Tiling, mode: &str) -> String {
    format!(
        "neurfill-chip-run v1\nchip {}\nwindows {}x{}x{}\ntiles {}\nhalo {}\nmode {}\n",
        source.name(),
        source.num_layers(),
        source.rows(),
        source.cols(),
        tiling.num_tiles(),
        tiling.halo(),
        mode,
    )
}

/// A checkpoint directory opened for one full-chip pass: the tiles
/// recovered from its log plus the log itself, for storing new ones.
#[derive(Debug)]
pub struct TileCheckpoint {
    log: Mutex<AppendLog>,
    /// Recovered tiles by core origin.
    done: HashMap<(usize, usize), (PlanShape, Vec<f64>)>,
}

impl TileCheckpoint {
    /// Opens (creating if needed) a checkpoint directory and replays its
    /// tile log. `meta` (see [`chip_run_meta`]) must match the
    /// directory's `run.meta` exactly when one exists. A torn log tail
    /// is truncated away and a record that does not read as a plan is
    /// skipped, so those tiles recompute; when a tile was stored twice,
    /// the last record wins.
    ///
    /// # Errors
    ///
    /// Returns a message on I/O failure or when the directory belongs to
    /// a different run configuration.
    pub fn open(dir: &Path, meta: &str, fault: Arc<FaultPlan>) -> Result<Self, String> {
        fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let meta_path = dir.join(META_FILE);
        match fs::read_to_string(&meta_path) {
            Ok(existing) if existing == meta => {}
            Ok(existing) => {
                return Err(format!(
                    "checkpoint dir {} belongs to a different run configuration\n\
                     --- found ---\n{existing}--- this run ---\n{meta}",
                    dir.display()
                ))
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                layout_io::write_durable(&meta_path, meta.as_bytes())
                    .map_err(|e| format!("writing {}: {e}", meta_path.display()))?;
            }
            Err(e) => return Err(format!("reading {}: {e}", meta_path.display())),
        }

        let mut done = HashMap::new();
        let (log, _) = AppendLog::open(dir.join(TILE_LOG), sites::CHECKPOINT_WRITE, fault, |record| {
            if let Ok((shape, amounts)) = layout_io::read_plan(record) {
                done.insert((shape.rect.row0, shape.rect.col0), (shape, amounts));
            }
            Ok(())
        })
        .map_err(|e| format!("opening the tile log in {}: {e}", dir.display()))?;
        Ok(Self { log: Mutex::new(log), done })
    }

    /// Number of completed tiles recovered when the directory was opened.
    #[must_use]
    pub fn resumed(&self) -> usize {
        self.done.len()
    }

    /// The stored core amounts for `tile`, when a completed tile with
    /// matching core geometry and layer count was recovered.
    #[must_use]
    pub fn amounts(&self, tile: &Tile, layers: usize) -> Option<&[f64]> {
        let (shape, amounts) = self.done.get(&(tile.core.row0, tile.core.col0))?;
        (*shape == PlanShape { layers, rect: tile.core }).then_some(amounts.as_slice())
    }

    /// Stores one completed tile: appends its plan to the log and fsyncs
    /// it before returning. An injected fault at the
    /// [`CHECKPOINT_WRITE`](neurfill_runtime::fault::sites::CHECKPOINT_WRITE)
    /// site behaves as [`AppendLog::append`] documents: a `short_write`
    /// heals in place, while `torn_record`/`crash` leave a torn tail and
    /// fail the call — the run aborts exactly as a kill at this ordinal
    /// would.
    ///
    /// # Errors
    ///
    /// Returns a message on I/O failure, an injected fault, or when
    /// `core_amounts` does not match the tile's core geometry times
    /// `layers`.
    pub fn store(&self, tile: &Tile, layers: usize, core_amounts: &[f64]) -> Result<(), String> {
        let context = |e: io::Error| format!("checkpointing tile {}: {e}", tile.core.label());
        let mut body = Vec::new();
        layout_io::write_plan(PlanShape { layers, rect: tile.core }, core_amounts, &mut body)
            .map_err(context)?;
        let mut log = self
            .log
            .lock()
            .map_err(|_| "the tile log's lock was poisoned by a panicked store".to_string())?;
        log.append(&body).and_then(|()| log.sync()).map_err(context)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{run_full_chip, ChipRunConfig};
    use crate::sim::ChipSimulator;
    use neurfill_layout::{DesignKind, FullChipSpec, Tiling};
    use std::path::PathBuf;

    struct FakeSource;
    impl ChipSource for FakeSource {
        fn name(&self) -> String {
            "fake".to_string()
        }
        fn rows(&self) -> usize {
            8
        }
        fn cols(&self) -> usize {
            8
        }
        fn num_layers(&self) -> usize {
            2
        }
        fn window_um(&self) -> f64 {
            40.0
        }
        fn tile_layout(&self, _rect: neurfill_layout::TileRect) -> neurfill_layout::Layout {
            unimplemented!("meta-only fake")
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("neurfill-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn meta() -> String {
        chip_run_meta(&FakeSource, &Tiling::square(8, 8, 4, 2), "golden")
    }

    fn tile() -> Tile {
        Tiling::square(8, 8, 4, 2).tile(0, 1)
    }

    fn log_len(dir: &Path) -> u64 {
        fs::metadata(dir.join(TILE_LOG)).unwrap().len()
    }

    /// The append log's header: magic plus format version.
    const LOG_HEADER: u64 = 12;

    // Values chosen to have non-terminating binary expansions: a decimal
    // round-trip that wasn't exact would fail the bit-identity check.
    fn awkward_amounts(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 + 0.1) / 3.0).collect()
    }

    fn bits(amounts: &[f64]) -> Vec<u64> {
        amounts.iter().map(|a| a.to_bits()).collect()
    }

    #[test]
    fn store_and_reopen_round_trips_amounts_bit_exactly() {
        let dir = tmpdir("roundtrip");
        let fault = Arc::new(FaultPlan::disabled());
        let t = tile();
        let amounts = awkward_amounts(2 * t.core.len());
        {
            let cp = TileCheckpoint::open(&dir, &meta(), Arc::clone(&fault)).unwrap();
            assert_eq!(cp.resumed(), 0);
            cp.store(&t, 2, &amounts).unwrap();
        }
        let cp = TileCheckpoint::open(&dir, &meta(), fault).unwrap();
        assert_eq!(cp.resumed(), 1);
        assert_eq!(
            bits(cp.amounts(&t, 2).unwrap()),
            bits(&amounts),
            "decimal round-trip must be bit-exact"
        );
        // Geometry mismatches never resume stale data.
        assert!(cp.amounts(&t, 3).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_skips_non_plan_records_and_the_last_record_of_a_tile_wins() {
        let dir = tmpdir("replay");
        let fault = Arc::new(FaultPlan::disabled());
        let t = tile();
        let first = awkward_amounts(2 * t.core.len());
        let second: Vec<f64> = first.iter().map(|a| a * 7.0).collect();
        {
            let cp = TileCheckpoint::open(&dir, &meta(), Arc::clone(&fault)).unwrap();
            cp.store(&t, 2, &first).unwrap();
            cp.log.lock().unwrap().append(b"not a plan").unwrap();
            cp.store(&t, 2, &second).unwrap();
        }
        let cp = TileCheckpoint::open(&dir, &meta(), fault).unwrap();
        assert_eq!(cp.resumed(), 1);
        assert_eq!(bits(cp.amounts(&t, 2).unwrap()), bits(&second));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_parent_format_directory_resumes_nothing_and_reruns_byte_identical() {
        let design = FullChipSpec::new(DesignKind::CmpTest, 16, 16, 7).build();
        let fresh = run_full_chip(&design, &ChipRunConfig::fast(8, 2)).unwrap();

        // What the file-per-tile build left: `run.meta` plus one
        // `tile-*.nftile` plan per tile, here with amounts no run would
        // produce, so reading any of them would show in the plan.
        let dir = tmpdir("parent");
        let mut cfg = ChipRunConfig::fast(8, 2);
        cfg.checkpoint = Some(dir.clone());
        let tiling = ChipSimulator::new(cfg.sim.clone()).unwrap().tiling_for(&design);
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(META_FILE), chip_run_meta(&design, &tiling, "golden")).unwrap();
        let layers = design.num_layers();
        let mut parent_files = Vec::new();
        for t in tiling.tiles() {
            let path = dir.join(format!("tile-r{}-c{}.nftile", t.core.row0, t.core.col0));
            let shape = PlanShape { layers, rect: t.core };
            let mut body = Vec::new();
            layout_io::write_plan(shape, &vec![1.0; layers * t.core.len()], &mut body).unwrap();
            fs::write(&path, body).unwrap();
            parent_files.push(path);
        }

        let cp = TileCheckpoint::open(
            &dir,
            &chip_run_meta(&design, &tiling, "golden"),
            Arc::new(FaultPlan::disabled()),
        )
        .unwrap();
        assert_eq!(cp.resumed(), 0);
        drop(cp);
        let rerun = run_full_chip(&design, &cfg).unwrap();
        assert_eq!(rerun.report.tiles_resumed, 0);
        assert_eq!(bits(rerun.plan.as_slice()), bits(fresh.plan.as_slice()));
        assert!(parent_files.iter().all(|p| p.exists()), "tile files are neither read nor removed");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn meta_mismatch_is_rejected() {
        let dir = tmpdir("meta");
        let fault = Arc::new(FaultPlan::disabled());
        TileCheckpoint::open(&dir, &meta(), Arc::clone(&fault)).unwrap();
        let other = chip_run_meta(&FakeSource, &Tiling::square(8, 8, 4, 2), "pool");
        let err = TileCheckpoint::open(&dir, &other, fault).unwrap_err();
        assert!(err.contains("different run configuration"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_and_torn_faults_damage_disk_but_replay_recovers() {
        let dir = tmpdir("faults");
        let t = tile();
        let amounts = awkward_amounts(2 * t.core.len());
        let clean = Arc::new(FaultPlan::disabled());

        // Crash: a torn prefix of the record lands after the header and
        // store() errs; reopening truncates it and resumes nothing.
        let fault = Arc::new(FaultPlan::parse("checkpoint_write=crash@1", 0).unwrap());
        let cp = TileCheckpoint::open(&dir, &meta(), fault).unwrap();
        let err = cp.store(&t, 2, &amounts).unwrap_err();
        assert!(err.contains("fault injected"), "{err}");
        drop(cp);
        assert!(log_len(&dir) > LOG_HEADER, "a crash leaves a torn tail");
        let cp = TileCheckpoint::open(&dir, &meta(), Arc::clone(&clean)).unwrap();
        assert_eq!(cp.resumed(), 0, "a crashed store must not resume");
        drop(cp);
        assert_eq!(log_len(&dir), LOG_HEADER, "replay truncates the torn tail");

        // Torn record: a full-length record whose checksum fails; store()
        // errs and a reopen truncates it.
        let fault = Arc::new(FaultPlan::parse("checkpoint_write=torn_record@1", 0).unwrap());
        let cp = TileCheckpoint::open(&dir, &meta(), fault).unwrap();
        assert!(cp.store(&t, 2, &amounts).unwrap_err().contains("fault injected"));
        drop(cp);
        assert!(log_len(&dir) > LOG_HEADER, "torn_record persists a (corrupt) record");
        let cp = TileCheckpoint::open(&dir, &meta(), Arc::clone(&clean)).unwrap();
        assert_eq!(cp.resumed(), 0, "a torn tile must not resume");
        drop(cp);
        assert_eq!(log_len(&dir), LOG_HEADER, "replay truncates the torn record");

        // Short write self-heals: store() succeeds and the tile resumes.
        let fault = Arc::new(FaultPlan::parse("checkpoint_write=short_write@1", 0).unwrap());
        let cp = TileCheckpoint::open(&dir, &meta(), fault).unwrap();
        cp.store(&t, 2, &amounts).unwrap();
        let cp = TileCheckpoint::open(&dir, &meta(), clean).unwrap();
        assert_eq!(cp.resumed(), 1);
        assert_eq!(bits(cp.amounts(&t, 2).unwrap()), bits(&amounts));
        let _ = fs::remove_dir_all(&dir);
    }
}
