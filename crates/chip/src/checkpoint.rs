//! Tile-granular checkpoint/resume for full-chip runs.
//!
//! A [`TileCheckpoint`] is a directory holding one small text file per
//! *completed* tile of a full-chip pass plus a `run.meta` header pinning
//! the run configuration (design, dimensions, tiling, execution mode).
//! Each tile file stores the tile's **core** fill amounts — the region
//! the tile owns after halo/padding are discarded — in layer-major
//! order, formatted with Rust's shortest-round-trip `{}` notation so a
//! parsed amount is bit-identical to the written one. A resumed run
//! therefore skips completed tiles and still produces a byte-identical
//! chip plan.
//!
//! Finalization is crash-safe: the file is staged at `<name>.tmp`,
//! fsynced, then renamed into place (followed by a best-effort parent
//! directory sync), so a kill can only ever leave a stale `.tmp` or a
//! file failing its FNV-1a checksum — both are discarded on open and
//! the tile is simply recomputed. The
//! [`CHECKPOINT_WRITE`](neurfill_runtime::fault::sites::CHECKPOINT_WRITE)
//! fault site drives the chaos suite: `short_write` interrupts and
//! self-heals, `torn_record` persists a corrupted final file, and
//! `crash` freezes the write mid-stage exactly as a kill at that ordinal
//! would.
//!
//! ```text
//! run.meta                      (atomic, config fingerprint)
//! tile-r0-c0.nftile             neurfill-tile v1
//! tile-r0-c8.nftile             core <row0> <col0> <rows> <cols>
//! ...                           layers <L>
//!                               checksum <fnv1a of the amounts line>
//!                               <a0> <a1> ... (layer-major core amounts)
//! ```

use crate::source::ChipSource;
use neurfill_layout::{Tile, Tiling};
use neurfill_runtime::fault::sites;
use neurfill_runtime::{fnv1a, FaultPlan, WriteFault};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Config-fingerprint file name inside a checkpoint directory.
pub const META_FILE: &str = "run.meta";
/// Extension of per-tile checkpoint files.
pub const TILE_EXTENSION: &str = "nftile";

const TILE_MAGIC: &str = "neurfill-tile v1";

/// The `run.meta` fingerprint for a full-chip pass: geometry plus an
/// execution-mode tag (`golden`, `pool`, `remote`, ...). Two runs may
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

#[derive(Debug)]
struct StoredTile {
    rows: usize,
    cols: usize,
    layers: usize,
    amounts: Vec<f64>,
}

/// A checkpoint directory opened for one full-chip pass: the tiles
/// recovered from disk plus the staging machinery for finalizing new
/// ones.
#[derive(Debug)]
pub struct TileCheckpoint {
    dir: PathBuf,
    fault: Arc<FaultPlan>,
    done: HashMap<(usize, usize), StoredTile>,
}

impl TileCheckpoint {
    /// Opens (creating if needed) a checkpoint directory and loads every
    /// valid completed tile. `meta` (see [`chip_run_meta`]) must match
    /// the directory's `run.meta` exactly when one exists; tile files
    /// that are torn or fail their checksum are deleted so the tiles
    /// recompute.
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
                let tmp = dir.join(format!("{META_FILE}.tmp"));
                write_file(&tmp, meta.as_bytes())
                    .and_then(|()| finalize(&tmp, &meta_path))
                    .map_err(|e| format!("writing {}: {e}", meta_path.display()))?;
            }
            Err(e) => return Err(format!("reading {}: {e}", meta_path.display())),
        }

        let mut done = HashMap::new();
        let entries = fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        for entry in entries {
            let path = entry.map_err(|e| e.to_string())?.path();
            let is_tile = path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(&format!(".{TILE_EXTENSION}")));
            if !is_tile {
                continue;
            }
            match fs::read_to_string(&path).ok().and_then(|text| parse_tile(&text)) {
                Some((key, stored)) => {
                    done.insert(key, stored);
                }
                // Torn or checksum-corrupt leftovers of an interrupted
                // finalize: drop them so the tile recomputes cleanly.
                None => {
                    let _ = fs::remove_file(&path);
                }
            }
        }
        Ok(Self { dir: dir.to_path_buf(), fault, done })
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
        let s = self.done.get(&(tile.core.row0, tile.core.col0))?;
        (s.rows == tile.core.rows && s.cols == tile.core.cols && s.layers == layers)
            .then_some(s.amounts.as_slice())
    }

    /// Finalizes one completed tile: stages the file, fsyncs, renames it
    /// into place. Passing the
    /// [`CHECKPOINT_WRITE`](neurfill_runtime::fault::sites::CHECKPOINT_WRITE)
    /// fault site, a `short_write` self-heals in place while
    /// `torn_record`/`crash` damage the on-disk state and fail the call
    /// — the run aborts exactly as a kill at this ordinal would.
    ///
    /// # Errors
    ///
    /// Returns a message on I/O failure or an injected fault.
    ///
    /// # Panics
    ///
    /// Panics when `core_amounts` does not match the tile's core
    /// geometry times `layers`.
    pub fn store(&self, tile: &Tile, layers: usize, core_amounts: &[f64]) -> Result<(), String> {
        assert_eq!(core_amounts.len(), layers * tile.core.len(), "core amounts/tile geometry mismatch");
        let mut amounts_line = String::new();
        for (i, a) in core_amounts.iter().enumerate() {
            if i > 0 {
                amounts_line.push(' ');
            }
            let _ = write!(amounts_line, "{a}");
        }
        let body = format!(
            "{TILE_MAGIC}\ncore {} {} {} {}\nlayers {layers}\nchecksum {:016x}\n{amounts_line}\n",
            tile.core.row0,
            tile.core.col0,
            tile.core.rows,
            tile.core.cols,
            fnv1a(amounts_line.as_bytes()),
        );
        let name = format!("tile-r{}-c{}.{TILE_EXTENSION}", tile.core.row0, tile.core.col0);
        let path = self.dir.join(&name);
        let tmp = self.dir.join(format!("{name}.tmp"));
        let io_err = |e: io::Error| format!("checkpointing {}: {e}", path.display());

        match self.fault.inject_write(sites::CHECKPOINT_WRITE)? {
            None => {}
            Some(WriteFault::ShortWrite) => {
                // Interrupt the staging write partway, then redo it: the
                // final rename below still lands a complete file.
                write_file(&tmp, &body.as_bytes()[..body.len() / 2]).map_err(io_err)?;
            }
            Some(WriteFault::TornRecord) => {
                // A corrupted final file: complete the rename with a
                // flipped byte in the amounts line, then fail — replay
                // must detect the checksum mismatch and recompute.
                let mut torn = body.into_bytes();
                let last = torn.len() - 2;
                torn[last] ^= 0x01;
                write_file(&tmp, &torn).and_then(|()| finalize(&tmp, &path)).map_err(io_err)?;
                return Err(format!(
                    "fault injected: torn tile checkpoint at '{}'",
                    sites::CHECKPOINT_WRITE
                ));
            }
            Some(WriteFault::Crash) => {
                // Freeze mid-stage: a half-written .tmp and no rename is
                // the exact disk state of a kill at this ordinal. Replay
                // ignores the .tmp and recomputes the tile.
                write_file(&tmp, &body.as_bytes()[..body.len() / 2]).map_err(io_err)?;
                return Err(format!(
                    "fault injected: crash at '{}' (tile {name})",
                    sites::CHECKPOINT_WRITE
                ));
            }
        }
        write_file(&tmp, body.as_bytes()).and_then(|()| finalize(&tmp, &path)).map_err(io_err)
    }
}

/// Writes `bytes` to `path` and fsyncs the file.
fn write_file(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut file = fs::File::create(path)?;
    file.write_all(bytes)?;
    file.sync_all()
}

/// Renames `tmp` into `path` and best-effort-syncs the parent directory
/// so the rename itself is durable.
fn finalize(tmp: &Path, path: &Path) -> io::Result<()> {
    fs::rename(tmp, path)?;
    if let Some(parent) = path.parent() {
        if let Ok(d) = fs::File::open(parent) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Parses one tile file; `None` means torn, corrupt, or not ours.
fn parse_tile(text: &str) -> Option<((usize, usize), StoredTile)> {
    let mut lines = text.lines();
    if lines.next()? != TILE_MAGIC {
        return None;
    }
    let mut core = lines.next()?.strip_prefix("core ")?.split(' ');
    let row0: usize = core.next()?.parse().ok()?;
    let col0: usize = core.next()?.parse().ok()?;
    let rows: usize = core.next()?.parse().ok()?;
    let cols: usize = core.next()?.parse().ok()?;
    let layers: usize = lines.next()?.strip_prefix("layers ")?.parse().ok()?;
    let checksum = u64::from_str_radix(lines.next()?.strip_prefix("checksum ")?, 16).ok()?;
    let amounts_line = lines.next()?;
    if fnv1a(amounts_line.as_bytes()) != checksum {
        return None;
    }
    let amounts: Vec<f64> = amounts_line.split(' ').map(str::parse).collect::<Result<_, _>>().ok()?;
    if amounts.len() != layers.checked_mul(rows.checked_mul(cols)?)? {
        return None;
    }
    Some(((row0, col0), StoredTile { rows, cols, layers, amounts }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurfill_layout::Tiling;

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

    // Values chosen to have non-terminating binary expansions: a decimal
    // round-trip that wasn't exact would fail the bit-identity check.
    fn awkward_amounts(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 + 0.1) / 3.0).collect()
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
        let restored = cp.amounts(&t, 2).unwrap();
        assert_eq!(
            restored.iter().map(|a| a.to_bits()).collect::<Vec<_>>(),
            amounts.iter().map(|a| a.to_bits()).collect::<Vec<_>>(),
            "decimal round-trip must be bit-exact"
        );
        // Geometry mismatches never resume stale data.
        assert!(cp.amounts(&t, 3).is_none());
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

        // Crash: half-written .tmp, no final file, store() errs.
        let fault = Arc::new(FaultPlan::parse("checkpoint_write=crash@1", 0).unwrap());
        let cp = TileCheckpoint::open(&dir, &meta(), fault).unwrap();
        let err = cp.store(&t, 2, &amounts).unwrap_err();
        assert!(err.contains("fault injected"), "{err}");
        let clean = Arc::new(FaultPlan::disabled());
        let cp = TileCheckpoint::open(&dir, &meta(), Arc::clone(&clean)).unwrap();
        assert_eq!(cp.resumed(), 0, "a crashed finalize must not resume");

        // Torn record: the final file exists but fails its checksum;
        // store() errs and a reopen discards the file.
        let fault = Arc::new(FaultPlan::parse("checkpoint_write=torn_record@1", 0).unwrap());
        let cp = TileCheckpoint::open(&dir, &meta(), fault).unwrap();
        assert!(cp.store(&t, 2, &amounts).is_err());
        let tile_path = dir.join(format!("tile-r{}-c{}.{TILE_EXTENSION}", t.core.row0, t.core.col0));
        assert!(tile_path.exists(), "torn_record persists a (corrupt) final file");
        let cp = TileCheckpoint::open(&dir, &meta(), Arc::clone(&clean)).unwrap();
        assert_eq!(cp.resumed(), 0, "a torn tile must not resume");
        assert!(!tile_path.exists(), "replay discards the torn file");

        // Short write self-heals: store() succeeds and the tile resumes.
        let fault = Arc::new(FaultPlan::parse("checkpoint_write=short_write@1", 0).unwrap());
        let cp = TileCheckpoint::open(&dir, &meta(), fault).unwrap();
        cp.store(&t, 2, &amounts).unwrap();
        let cp = TileCheckpoint::open(&dir, &meta(), clean).unwrap();
        assert_eq!(cp.resumed(), 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
