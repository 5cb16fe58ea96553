//! Layout and fill-plan serialization (a stand-in for GDS I/O).
//!
//! [`write_layout_bits`]/[`read_layout_bits`] are the one layout codec:
//! a text header, then raw little-endian `f64` window records, so every
//! bit pattern round-trips.
//!
//! ```text
//! neurfill-layout-bits v1
//! name <name>
//! meta <window_um bits> <file_size_mb bits>     # f64::to_bits, 16 hex digits
//! dims <layers> <rows> <cols>
//! <32 bytes per window: density, perimeter, avg_width, slack>   # L·N·M, flat order
//! ```
//!
//! A `.layout` file ([`save_to_file`]), a `POST /v1/jobs` body and the
//! serve journal's admit record carry these same bytes, so
//! `curl --data-binary @x.layout` submits a saved layout as is.
//!
//! [`write_plan`]/[`read_plan`] are the one fill-plan codec: the HTTP
//! plan body, the serve journal's `done` record, tile checkpoints and
//! `runfill --out`'s `<name>.plan` files are all this format.
//! [`write_durable`] is the one stage → fsync → rename → directory-sync
//! sequence behind every whole-file artifact (run fingerprints, training
//! checkpoints, bundles, saved layouts), and [`fnv1a`] is the workspace's
//! one checksum.

use crate::grid::Grid;
use crate::layout::Layout;
use crate::tiling::TileRect;
use crate::window::WindowPattern;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};

const BITS_MAGIC: &str = "neurfill-layout-bits v1";

/// Upper bound on `layers * rows * cols` accepted by
/// [`read_layout_bits`] (2²⁸ windows, 8 GiB of window data): a header
/// past it, or whose product overflows, is refused before a window is
/// read.
const MAX_LAYOUT_WINDOWS: usize = 1 << 28;

/// `layers · rows · cols` of a `dims` header, each positive and the
/// product at most [`MAX_LAYOUT_WINDOWS`].
fn checked_windows(layers: usize, rows: usize, cols: usize) -> io::Result<usize> {
    layers
        .checked_mul(rows)
        .and_then(|n| n.checked_mul(cols))
        .filter(|&n| n > 0 && n <= MAX_LAYOUT_WINDOWS)
        .ok_or_else(|| {
            bad(format!(
                "dims {layers}x{rows}x{cols} must be positive with at most {MAX_LAYOUT_WINDOWS} windows"
            ))
        })
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Writes `layout` in the one layout encoding (see the module docs):
/// header scalars as `f64::to_bits` hex, then one 32-byte little-endian
/// record per window (density, perimeter, avg_width, slack).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_layout_bits<W: Write>(layout: &Layout, mut w: W) -> io::Result<()> {
    let mut buf = Vec::with_capacity(96 + layout.name().len() + layout.num_windows() * 32);
    writeln!(buf, "{BITS_MAGIC}")?;
    writeln!(buf, "name {}", layout.name())?;
    writeln!(
        buf,
        "meta {:016x} {:016x}",
        layout.window_um().to_bits(),
        layout.file_size_mb().to_bits()
    )?;
    writeln!(buf, "dims {} {} {}", layout.num_layers(), layout.rows(), layout.cols())?;
    for id in layout.window_ids() {
        let p = layout.window(id);
        for v in [p.density, p.perimeter, p.avg_width, p.slack] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
    w.write_all(&buf)
}

/// Reads a layout written by [`write_layout_bits`].
///
/// # Errors
///
/// Returns `InvalidData` on any format violation or truncation, and on
/// a `window_um` that is not positive and finite.
pub fn read_layout_bits<R: Read>(r: R) -> io::Result<Layout> {
    let mut reader = BufReader::new(r);
    let mut line = String::new();
    let mut next = |reader: &mut BufReader<R>, what: &str| -> io::Result<String> {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad(format!("unexpected end of file, expected {what}")));
        }
        Ok(line.trim_end().to_string())
    };
    if next(&mut reader, "magic")? != BITS_MAGIC {
        return Err(bad("not a neurfill layout-bits file".into()));
    }
    let name = next(&mut reader, "name")?
        .strip_prefix("name ")
        .ok_or_else(|| bad("missing name".into()))?
        .to_string();
    let meta_line = next(&mut reader, "meta")?;
    let meta: Vec<f64> = meta_line
        .strip_prefix("meta ")
        .ok_or_else(|| bad(format!("bad meta line {meta_line:?}")))?
        .split_whitespace()
        .map(|t| {
            u64::from_str_radix(t, 16)
                .map(f64::from_bits)
                .map_err(|e| bad(format!("bad meta word {t:?}: {e}")))
        })
        .collect::<io::Result<_>>()?;
    let [window_um, file_size_mb] = meta[..] else {
        return Err(bad(format!("meta needs 2 words, got {}", meta.len())));
    };
    if !(window_um.is_finite() && window_um > 0.0) {
        return Err(bad(format!("window_um {window_um} must be positive and finite")));
    }
    let dims_line = next(&mut reader, "dims")?;
    let dims: Vec<usize> = dims_line
        .strip_prefix("dims ")
        .ok_or_else(|| bad(format!("bad dims line {dims_line:?}")))?
        .split_whitespace()
        .map(|t| t.parse().map_err(|e| bad(format!("bad dim {t:?}: {e}"))))
        .collect::<io::Result<_>>()?;
    let [layers, rows, cols] = dims[..] else {
        return Err(bad(format!("dims needs 3 values, got {dims:?}")));
    };
    let windows = checked_windows(layers, rows, cols)?;
    // Nothing is sized from the header: the grids grow one record at a
    // time as the records arrive.
    let mut word = || -> io::Result<f64> {
        let mut raw = [0u8; 8];
        reader.read_exact(&mut raw).map_err(|e| bad(format!("truncated window records: {e}")))?;
        Ok(f64::from_le_bytes(raw))
    };
    let mut grids = Vec::new();
    for _ in 0..layers {
        let mut data = Vec::new();
        for _ in 0..windows / layers {
            data.push(WindowPattern {
                density: word()?,
                perimeter: word()?,
                avg_width: word()?,
                slack: word()?,
            });
        }
        grids.push(Grid::from_vec(rows, cols, data));
    }
    Ok(Layout::new(name, window_um, grids, file_size_mb))
}

const PLAN_MAGIC: &str = "neurfill-plan v2";

/// What a plan's amounts cover: `layers` × `rect.rows` × `rect.cols`
/// windows in layer-major order, whose top-left window is
/// `(rect.row0, rect.col0)` of the layout or chip they belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanShape {
    /// Number of layers.
    pub layers: usize,
    /// The window rectangle covered on every layer.
    pub rect: TileRect,
}

impl PlanShape {
    /// The whole of `layout`, origin `0 0`.
    #[must_use]
    pub fn of(layout: &Layout) -> Self {
        let rect = TileRect { row0: 0, col0: 0, rows: layout.rows(), cols: layout.cols() };
        Self { layers: layout.num_layers(), rect }
    }

    /// `layers · rows · cols`, or `None` when the product overflows.
    #[must_use]
    pub fn windows(&self) -> Option<usize> {
        self.layers.checked_mul(self.rect.rows)?.checked_mul(self.rect.cols)
    }
}

/// Writes a fill plan — per-window amounts over `shape` — in the one plan
/// format. Every header field is always present:
///
/// ```text
/// neurfill-plan v2
/// shape <layers> <rows> <cols> <row0> <col0>
/// checksum <fnv1a of the amounts line, 16 lowercase hex digits>
/// <a0> <a1> ...          (layer-major, one space apart)
/// ```
///
/// Amounts use Rust's shortest round-trip `{}` form, so every non-NaN
/// `f64` — `-0`, subnormals, `±inf`, `f64::MAX` — reads back bit for
/// bit, and NaN reads back as NaN.
///
/// # Errors
///
/// `InvalidInput` when `amounts.len()` is not the shape's window count;
/// propagates I/O errors.
pub fn write_plan<W: Write>(shape: PlanShape, amounts: &[f64], mut w: W) -> io::Result<()> {
    if shape.windows() != Some(amounts.len()) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{} amounts do not fill plan shape {shape:?}", amounts.len()),
        ));
    }
    let mut line = String::with_capacity(amounts.len() * 20);
    for (i, a) in amounts.iter().enumerate() {
        if i > 0 {
            line.push(' ');
        }
        let _ = write!(line, "{a}");
    }
    let TileRect { row0, col0, rows, cols } = shape.rect;
    write!(
        w,
        "{PLAN_MAGIC}\nshape {} {rows} {cols} {row0} {col0}\nchecksum {:016x}\n{line}\n",
        shape.layers,
        fnv1a(line.as_bytes())
    )
}

/// Reads a plan written by [`write_plan`]: exactly its four lines, each
/// newline-terminated, and nothing after them.
///
/// Nothing is sized from the header: the amounts are counted as they
/// parse, and the count must equal the checked product of the shape.
///
/// # Errors
///
/// `InvalidData` on any violation: wrong magic, a malformed or
/// overflowing shape, a checksum that does not match the amounts line,
/// an amount that does not parse, too many or too few amounts, a missing
/// final newline or trailing bytes. Non-UTF-8 input is `InvalidData` too.
pub fn read_plan<R: Read>(r: R) -> io::Result<(PlanShape, Vec<f64>)> {
    let mut reader = BufReader::new(r);
    let mut next = |what: &str| -> io::Result<String> {
        let mut line = String::new();
        reader.read_line(&mut line)?;
        match line.strip_suffix('\n') {
            Some(body) => Ok(body.to_string()),
            None => Err(bad(format!("unexpected end of plan, expected {what}"))),
        }
    };
    if next("magic")? != PLAN_MAGIC {
        return Err(bad("not a neurfill-plan v2 file".into()));
    }
    let shape_line = next("shape")?;
    let fields: Vec<usize> = shape_line
        .strip_prefix("shape ")
        .ok_or_else(|| bad(format!("bad shape line {shape_line:?}")))?
        .split(' ')
        .map(|t| t.parse().map_err(|e| bad(format!("bad shape field {t:?}: {e}"))))
        .collect::<io::Result<_>>()?;
    let [layers, rows, cols, row0, col0] = fields[..] else {
        return Err(bad(format!("shape needs 5 fields, got {}", fields.len())));
    };
    let shape = PlanShape { layers, rect: TileRect { row0, col0, rows, cols } };
    let windows = shape.windows().ok_or_else(|| bad(format!("plan shape {shape:?} overflows")))?;
    let checksum_line = next("checksum")?;
    let line = next("amounts")?;
    if checksum_line != format!("checksum {:016x}", fnv1a(line.as_bytes())) {
        return Err(bad("plan checksum does not match its amounts".into()));
    }
    let amounts: Vec<f64> = if line.is_empty() {
        Vec::new()
    } else {
        line.split(' ')
            .map(|t| t.parse().map_err(|e| bad(format!("bad amount {t:?}: {e}"))))
            .collect::<io::Result<_>>()?
    };
    if amounts.len() != windows {
        return Err(bad(format!("plan shape holds {windows} windows but {} amounts", amounts.len())));
    }
    if reader.read(&mut [0u8])? != 0 {
        return Err(bad("trailing bytes after the plan".into()));
    }
    Ok((shape, amounts))
}

/// FNV-1a 64-bit over `bytes` — the workspace's one cheap,
/// dependency-free checksum: plan files here, bundle digests, fault-site
/// hashing and append-log records in `neurfill-runtime`, shard records in
/// `neurfill-data`.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `path` with `.tmp` appended to its file name (`a.plan` →
/// `a.plan.tmp`): where [`write_durable`] stages a file.
#[must_use]
pub fn staging_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(std::ffi::OsStr::to_os_string).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Syncs the directory holding `path`, so a file created or renamed
/// there keeps its directory entry across power loss. Best effort: not
/// every file system can open a directory for sync.
pub fn sync_parent_dir(path: &Path) {
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Writes `bytes` to `path` so that `path` only ever holds complete
/// contents: stage them at [`staging_path`]`(path)`, fsync, rename onto
/// `path`, then [`sync_parent_dir`] so the rename itself is durable. A
/// crash at any point leaves `path` either untouched or complete, plus at
/// most a stale staging file.
///
/// # Errors
///
/// Propagates file-system errors.
pub fn write_durable(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut staged = File::create(staging_path(path))?;
    staged.write_all(bytes)?;
    staged.sync_all()?;
    drop(staged);
    std::fs::rename(staging_path(path), path)?;
    sync_parent_dir(path);
    Ok(())
}

/// Saves a layout to a file path through [`write_durable`]: `path` keeps
/// its previous contents until the new layout is complete and synced.
///
/// # Errors
///
/// Propagates file-system errors.
pub fn save_to_file(layout: &Layout, path: impl AsRef<Path>) -> io::Result<()> {
    let mut bytes = Vec::new();
    write_layout_bits(layout, &mut bytes)?;
    write_durable(path.as_ref(), &bytes)
}

/// Loads a layout from a file path.
///
/// # Errors
///
/// Propagates file-system and format errors.
pub fn load_from_file(path: impl AsRef<Path>) -> io::Result<Layout> {
    read_layout_bits(File::open(path)?)
}

/// Loads every regular file in `dir` as a layout, sorted by path so the
/// order does not depend on directory iteration. A file that does not
/// load is handed to `skipped` with its error and left out.
///
/// # Errors
///
/// Propagates errors listing `dir`.
pub fn load_dir(
    dir: &Path,
    mut skipped: impl FnMut(&Path, io::Error),
) -> io::Result<Vec<(PathBuf, Layout)>> {
    let mut layouts = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if !path.is_file() {
            continue;
        }
        match load_from_file(&path) {
            Ok(layout) => layouts.push((path, layout)),
            Err(e) => skipped(&path, e),
        }
    }
    layouts.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(layouts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{DesignKind, DesignSpec};

    #[test]
    fn durable_write_replaces_the_file_and_leaves_no_staging_file() {
        let dir = std::env::temp_dir().join(format!("nf_durable_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.txt");
        write_durable(&path, b"old").unwrap();
        write_durable(&path, b"new").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new");
        assert_eq!(staging_path(&path), dir.join("a.txt.tmp"));
        assert!(!staging_path(&path).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bits_roundtrip_is_bit_exact() {
        let mut l = DesignSpec::new(DesignKind::RiscV, 6, 7, 5).generate();
        // Exercise bit patterns plain-text formatting struggles with.
        l.layer_mut(0).get_mut(0, 0).density = f64::MIN_POSITIVE / 4.0; // subnormal
        l.layer_mut(0).get_mut(0, 1).perimeter = -0.0;
        l.layer_mut(0).get_mut(0, 2).avg_width = 1.0 / 3.0;
        let mut buf = Vec::new();
        write_layout_bits(&l, &mut buf).unwrap();
        let back = read_layout_bits(buf.as_slice()).unwrap();
        assert_eq!(l, back);
        assert_eq!(back.window(back.window_id(1)).perimeter.to_bits(), (-0.0f64).to_bits());
        let mut again = Vec::new();
        write_layout_bits(&back, &mut again).unwrap();
        assert_eq!(buf, again, "bits persistence must be a fixed point");
    }

    #[test]
    fn bits_rejects_garbage_truncation_and_huge_dims() {
        assert!(read_layout_bits(b"hello".as_slice()).is_err());
        assert!(read_layout_bits(b"".as_slice()).is_err());
        let l = DesignSpec::new(DesignKind::CmpTest, 4, 4, 0).generate();
        let mut buf = Vec::new();
        write_layout_bits(&l, &mut buf).unwrap();
        for cut in [3, 40, buf.len() / 2, buf.len() - 5] {
            assert!(read_layout_bits(&buf[..cut]).is_err(), "cut at {cut}");
        }
        let huge = b"neurfill-layout-bits v1\nname x\nmeta 3ff0000000000000 0\ndims 99999 99999 99999\n";
        assert!(read_layout_bits(huge.as_slice()).is_err(), "implausible dims must not allocate");
    }

    #[test]
    fn load_dir_reads_saved_layouts_in_path_order_and_skips_the_rest() {
        let dir = std::env::temp_dir().join(format!("nf_load_dir_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("sub")).unwrap();
        let b = DesignSpec::new(DesignKind::Fpga, 4, 5, 1).generate();
        let a = DesignSpec::new(DesignKind::RiscV, 6, 7, 5).generate();
        save_to_file(&b, dir.join("b.layout")).unwrap();
        save_to_file(&a, dir.join("a.layout")).unwrap();
        std::fs::write(dir.join("c.layout"), b"hello").unwrap();
        let mut skipped = Vec::new();
        let loaded = load_dir(&dir, |path, _| skipped.push(path.to_path_buf())).unwrap();
        assert_eq!(loaded, vec![(dir.join("a.layout"), a), (dir.join("b.layout"), b)]);
        assert_eq!(skipped, vec![dir.join("c.layout")]);
        assert!(load_dir(&dir.join("missing"), |_, _| {}).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_save_leaves_the_previous_layout_intact() {
        let dir = std::env::temp_dir().join(format!("nf_layout_durable_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.layout");
        save_to_file(&DesignSpec::new(DesignKind::CmpTest, 4, 4, 0).generate(), &path).unwrap();
        let before = std::fs::read(&path).unwrap();
        // A directory where the new layout would be staged: the save cannot
        // even begin, and must say so without touching the old file.
        std::fs::create_dir(staging_path(&path)).unwrap();
        let other = DesignSpec::new(DesignKind::RiscV, 4, 4, 1).generate();
        assert!(save_to_file(&other, &path).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), before);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
