//! The on-disk shard format for labeled training samples.
//!
//! A shard is a binary file holding fixed-shape `(input, target)` sample
//! pairs, little-endian throughout:
//!
//! ```text
//! offset  size  field
//! 0       8     magic "NFSHRD1\n"
//! 8       4     format version (u32, currently 1)
//! 12      12    input sample shape  [C, H, W] as 3 × u32
//! 24      12    target sample shape [C, H, W] as 3 × u32
//! 36      8     sample count (u64; all-ones until the writer finalizes)
//! 44      —     records
//! ```
//!
//! Each record is an 8-byte FNV-1a checksum followed by the payload: the
//! input's f32 values then the target's, row-major. Record size is fixed by
//! the header shapes, so the reader can stream one record at a time with
//! bounded memory and validate total file size up front. The count field is
//! written only by [`ShardWriter::finish`] — a crash mid-write leaves the
//! all-ones placeholder and the reader rejects the file instead of training
//! on a truncated corpus.
//!
//! Writers stage the whole shard at a `.tmp` sibling path and only
//! `finish` moves it to its final name (flush → patch count → fsync →
//! rename), so a crash at *any* point of the write — including
//! mid-finalize, which previously could leave a half-patched header at
//! the final path — leaves either no shard file or a complete one.

use neurfill_nn::Dataset;
use neurfill_obs::{Counter, Telemetry};
use neurfill_runtime::fault::{sites, FaultPlan};
use neurfill_tensor::NdArray;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MAGIC: &[u8; 8] = b"NFSHRD1\n";
const VERSION: u32 = 1;
const HEADER_LEN: u64 = 44;
const COUNT_OFFSET: u64 = 36;
const COUNT_PLACEHOLDER: u64 = u64::MAX;

/// File extension used for shards.
pub const SHARD_EXTENSION: &str = "nfshard";

/// `u32` from a little-endian slice the caller guarantees is 4 bytes.
fn le_u32(bytes: &[u8]) -> u32 {
    match bytes.try_into() {
        Ok(array) => u32::from_le_bytes(array),
        Err(_) => unreachable!("caller slices exactly 4 bytes"),
    }
}

/// `u64` from a little-endian slice the caller guarantees is 8 bytes.
fn le_u64(bytes: &[u8]) -> u64 {
    match bytes.try_into() {
        Ok(array) => u64::from_le_bytes(array),
        Err(_) => unreachable!("caller slices exactly 8 bytes"),
    }
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// FNV-1a 64-bit over `bytes` — the record checksum (one definition,
/// shared with bundle digests and tile checkpoints).
pub use neurfill_runtime::fnv1a;

/// The fixed per-sample geometry of a shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardShapes {
    /// `[C, H, W]` of every input sample.
    pub input: [usize; 3],
    /// `[C, H, W]` of every target sample.
    pub target: [usize; 3],
}

impl ShardShapes {
    fn payload_floats(&self) -> usize {
        self.input.iter().product::<usize>() + self.target.iter().product::<usize>()
    }

    fn record_len(&self) -> u64 {
        8 + 4 * self.payload_floats() as u64
    }

    fn check_sample(&self, input: &NdArray, target: &NdArray) -> io::Result<()> {
        if input.shape() != self.input || target.shape() != self.target {
            return Err(bad(format!(
                "sample shapes {:?}/{:?} do not match shard shapes {:?}/{:?}",
                input.shape(),
                target.shape(),
                self.input,
                self.target
            )));
        }
        Ok(())
    }
}

/// Append-only writer of one shard file.
///
/// Records are only ever appended; the header's sample count is patched
/// once, by [`ShardWriter::finish`]. The whole shard is staged at a
/// `.tmp` sibling of `path` until `finish` renames it into place, so the
/// final path only ever holds a complete, finalized shard. Dropping the
/// writer without calling `finish` leaves only the staging file behind,
/// which [`ShardSet::open_dir`] skips (wrong extension) and whose
/// placeholder count readers reject.
#[derive(Debug)]
pub struct ShardWriter {
    file: BufWriter<File>,
    shapes: ShardShapes,
    count: u64,
    path: PathBuf,
    tmp_path: PathBuf,
    records_written: Counter,
    bytes_written: Counter,
}

/// The staging path `finish` renames from: `path` with `.tmp` appended to
/// the file name (`a.nfshard` → `a.nfshard.tmp`).
fn staging_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(std::ffi::OsStr::to_os_string).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

impl ShardWriter {
    /// Creates a shard destined for `path`, staging its bytes at a `.tmp`
    /// sibling (truncating any existing staging file) and writing the
    /// header with a placeholder count. Nothing appears at `path` itself
    /// until [`ShardWriter::finish`].
    ///
    /// # Errors
    ///
    /// Propagates file-system errors; rejects zero-sized sample shapes.
    pub fn create(path: impl AsRef<Path>, shapes: ShardShapes) -> io::Result<Self> {
        if shapes.input.contains(&0) || shapes.target.contains(&0) {
            return Err(bad(format!("zero-sized sample shape {shapes:?}")));
        }
        let path = path.as_ref().to_path_buf();
        let tmp_path = staging_path(&path);
        let mut file = BufWriter::new(File::create(&tmp_path)?);
        file.write_all(MAGIC)?;
        file.write_all(&VERSION.to_le_bytes())?;
        for dims in [&shapes.input, &shapes.target] {
            for &d in dims {
                let d = u32::try_from(d).map_err(|_| bad(format!("dimension {d} exceeds u32")))?;
                file.write_all(&d.to_le_bytes())?;
            }
        }
        file.write_all(&COUNT_PLACEHOLDER.to_le_bytes())?;
        Ok(Self {
            file,
            shapes,
            count: 0,
            path,
            tmp_path,
            records_written: Counter::noop(),
            bytes_written: Counter::noop(),
        })
    }

    /// Counts records and payload bytes written into `telemetry`
    /// (`data.shard.records_written` / `data.shard.bytes_written`). The
    /// shard bytes themselves are untouched.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.records_written = telemetry.counter("data.shard.records_written");
        self.bytes_written = telemetry.counter("data.shard.bytes_written");
        self
    }

    /// Appends one `(input, target)` record.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on a shape mismatch; propagates I/O errors.
    pub fn push(&mut self, input: &NdArray, target: &NdArray) -> io::Result<()> {
        self.shapes
            .check_sample(input, target)
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", self.path.display())))?;
        let mut payload = Vec::with_capacity(4 * self.shapes.payload_floats());
        for arr in [input, target] {
            for v in arr.as_slice() {
                payload.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        self.file.write_all(&fnv1a(&payload).to_le_bytes())?;
        self.file.write_all(&payload)?;
        self.count += 1;
        self.records_written.inc();
        self.bytes_written.add(8 + payload.len() as u64);
        Ok(())
    }

    /// Number of records appended so far.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Whether no record has been appended yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Finalizes the shard: flushes records, patches the header's sample
    /// count, fsyncs, and renames the staging file to the final path.
    /// Returns the path and record count.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; on failure nothing appears at the final path
    /// and the staging file (placeholder count, rejected by readers) is
    /// what a crash would leave.
    pub fn finish(self) -> io::Result<(PathBuf, u64)> {
        let Self { file, count, path, tmp_path, .. } = self;
        let mut file = file.into_inner().map_err(|e| e.into_error())?;
        file.seek(SeekFrom::Start(COUNT_OFFSET))?;
        file.write_all(&count.to_le_bytes())?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp_path, &path)?;
        // Best-effort directory sync so the rename itself is durable; not
        // all filesystems support opening a directory for sync.
        if let Some(dir) = path.parent() {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok((path, count))
    }
}

/// Streaming reader over one shard: validates the header and total size up
/// front, then yields records one at a time with bounded memory.
#[derive(Debug)]
pub struct ShardReader {
    file: BufReader<File>,
    shapes: ShardShapes,
    count: u64,
    read: u64,
    path: PathBuf,
    fault: Option<Arc<FaultPlan>>,
    records_read: Counter,
}

impl ShardReader {
    /// Opens a shard, validating magic, version, shapes, finalized count
    /// and exact file size.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for non-shard files, unfinalized (crashed)
    /// writers, and truncated or oversized files. Every error names the
    /// offending file.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        Self::open_inner(path.as_ref(), None)
    }

    /// [`ShardReader::open`] with a fault plan checked (site
    /// [`sites::SHARD_READ`]) before every record read — the test seam for
    /// transient-I/O handling in consumers of the shard pipeline.
    ///
    /// # Errors
    ///
    /// As [`ShardReader::open`].
    pub fn open_with_faults(path: impl AsRef<Path>, fault: Arc<FaultPlan>) -> io::Result<Self> {
        Self::open_inner(path.as_ref(), Some(fault))
    }

    fn open_inner(path: &Path, fault: Option<Arc<FaultPlan>>) -> io::Result<Self> {
        let path = path.to_path_buf();
        let file = File::open(&path)?;
        let file_len = file.metadata()?.len();
        let mut file = BufReader::new(file);
        let ctx = |msg: String| bad(format!("{}: {msg}", path.display()));

        let mut header = [0u8; HEADER_LEN as usize];
        if file_len < HEADER_LEN {
            return Err(ctx(format!("file too short for a shard header ({file_len} bytes)")));
        }
        file.read_exact(&mut header)?;
        if &header[0..8] != MAGIC {
            return Err(ctx("not a neurfill shard (bad magic)".into()));
        }
        let version = le_u32(&header[8..12]);
        if version != VERSION {
            return Err(ctx(format!("unsupported shard version {version}")));
        }
        let dim = |i: usize| -> usize { le_u32(&header[12 + 4 * i..16 + 4 * i]) as usize };
        let shapes = ShardShapes { input: [dim(0), dim(1), dim(2)], target: [dim(3), dim(4), dim(5)] };
        if shapes.input.contains(&0) || shapes.target.contains(&0) {
            return Err(ctx(format!("zero-sized sample shape {shapes:?}")));
        }
        let count = le_u64(&header[36..44]);
        if count == COUNT_PLACEHOLDER {
            return Err(ctx("shard was never finalized (writer crashed mid-write?)".into()));
        }
        let expect_len =
            count.checked_mul(shapes.record_len()).and_then(|records| records.checked_add(HEADER_LEN));
        if expect_len != Some(file_len) {
            return Err(ctx(format!(
                "file is {file_len} bytes but header promises {count} records (torn header?)"
            )));
        }
        Ok(Self { file, shapes, count, read: 0, path, fault, records_read: Counter::noop() })
    }

    /// Counts successfully read records into `telemetry`
    /// (`data.shard.records_read`).
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.records_read = telemetry.counter("data.shard.records_read");
        self
    }

    /// Per-sample geometry of this shard.
    #[must_use]
    pub fn shapes(&self) -> &ShardShapes {
        &self.shapes
    }

    /// Number of records in the shard.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Whether the shard holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Reads the next record, or `None` past the end.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on a checksum mismatch (bit rot or tampering)
    /// and propagates I/O errors. Any error poisons the reader: subsequent
    /// calls return `None`, so iteration terminates instead of re-reporting
    /// the same corrupt record forever.
    pub fn read_next(&mut self) -> io::Result<Option<(NdArray, NdArray)>> {
        match self.read_record() {
            Ok(rec) => Ok(rec),
            Err(e) => {
                self.read = self.count;
                Err(e)
            }
        }
    }

    /// Stamps `self.path` and the failing record index onto an error, so a
    /// failure deep in a multi-shard stream is attributable.
    fn record_err(&self, e: io::Error) -> io::Error {
        io::Error::new(e.kind(), format!("{}: record {}: {e}", self.path.display(), self.read))
    }

    fn read_record(&mut self) -> io::Result<Option<(NdArray, NdArray)>> {
        if self.read == self.count {
            return Ok(None);
        }
        if let Some(fault) = &self.fault {
            fault.inject_io(sites::SHARD_READ).map_err(|e| self.record_err(e))?;
        }
        let mut checksum = [0u8; 8];
        self.file.read_exact(&mut checksum).map_err(|e| self.record_err(e))?;
        let mut payload = vec![0u8; 4 * self.shapes.payload_floats()];
        self.file.read_exact(&mut payload).map_err(|e| self.record_err(e))?;
        if fnv1a(&payload) != u64::from_le_bytes(checksum) {
            return Err(bad(format!(
                "{}: checksum mismatch in record {} — shard is corrupt",
                self.path.display(),
                self.read
            )));
        }
        let floats: Vec<f32> = payload.chunks_exact(4).map(|c| f32::from_bits(le_u32(c))).collect();
        let n_in = self.shapes.input.iter().product::<usize>();
        let input = NdArray::from_vec(floats[..n_in].to_vec(), &self.shapes.input)
            .map_err(|e| self.record_err(bad(e.to_string())))?;
        let target = NdArray::from_vec(floats[n_in..].to_vec(), &self.shapes.target)
            .map_err(|e| self.record_err(bad(e.to_string())))?;
        self.read += 1;
        self.records_read.inc();
        Ok(Some((input, target)))
    }

    /// Loads the remaining records into an in-memory [`Dataset`] sized up
    /// front from the header count.
    ///
    /// # Errors
    ///
    /// Propagates record errors (checksum, truncation).
    pub fn read_to_dataset(mut self) -> io::Result<Dataset> {
        let mut ds = Dataset::with_capacity(usize::try_from(self.count - self.read).unwrap_or(0));
        while let Some((input, target)) = self.read_next()? {
            ds.push(input, target).map_err(|e| bad(format!("{}: {e}", self.path.display())))?;
        }
        Ok(ds)
    }
}

impl Iterator for ShardReader {
    type Item = io::Result<(NdArray, NdArray)>;

    fn next(&mut self) -> Option<Self::Item> {
        self.read_next().transpose()
    }
}

/// Writes a sequence of samples across multiple shards, rotating to a new
/// file every `samples_per_shard` records.
#[derive(Debug)]
pub struct ShardSetWriter {
    dir: PathBuf,
    prefix: String,
    shapes: ShardShapes,
    samples_per_shard: u64,
    current: Option<ShardWriter>,
    finished: Vec<(PathBuf, u64)>,
    total: u64,
    telemetry: Telemetry,
}

impl ShardSetWriter {
    /// Creates a writer producing `dir/<prefix>-00000.nfshard`, … shards.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation errors; `samples_per_shard` must be
    /// non-zero.
    pub fn new(
        dir: impl AsRef<Path>,
        prefix: &str,
        shapes: ShardShapes,
        samples_per_shard: u64,
    ) -> io::Result<Self> {
        if samples_per_shard == 0 {
            return Err(bad("samples_per_shard must be non-zero"));
        }
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            dir: dir.as_ref().to_path_buf(),
            prefix: prefix.to_string(),
            shapes,
            samples_per_shard,
            current: None,
            finished: Vec::new(),
            total: 0,
            telemetry: Telemetry::disabled(),
        })
    }

    /// Attaches a telemetry handle to every shard writer this set rotates
    /// through (see [`ShardWriter::with_telemetry`]).
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.telemetry = telemetry.clone();
        self
    }

    /// Appends one sample, rotating to a fresh shard when the current one
    /// is full.
    ///
    /// # Errors
    ///
    /// Propagates shard-writer errors.
    pub fn push(&mut self, input: &NdArray, target: &NdArray) -> io::Result<()> {
        if self.current.as_ref().is_none_or(|w| w.len() == self.samples_per_shard) {
            self.rotate()?;
        }
        match self.current.as_mut() {
            Some(writer) => writer.push(input, target)?,
            None => unreachable!("rotate() always installs a writer"),
        }
        self.total += 1;
        Ok(())
    }

    fn rotate(&mut self) -> io::Result<()> {
        if let Some(writer) = self.current.take() {
            self.finished.push(writer.finish()?);
        }
        let path =
            self.dir.join(format!("{}-{:05}.{SHARD_EXTENSION}", self.prefix, self.finished.len()));
        self.current =
            Some(ShardWriter::create(path, self.shapes.clone())?.with_telemetry(&self.telemetry));
        Ok(())
    }

    /// Finalizes the in-flight shard and returns `(path, count)` for every
    /// shard written, in order.
    ///
    /// # Errors
    ///
    /// Propagates finalization errors.
    pub fn finish(mut self) -> io::Result<Vec<(PathBuf, u64)>> {
        if let Some(writer) = self.current.take() {
            self.finished.push(writer.finish()?);
        }
        Ok(self.finished)
    }

    /// Total samples pushed so far.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }
}

/// An ordered set of shards in a directory, opened lazily for streaming.
#[derive(Debug, Clone)]
pub struct ShardSet {
    paths: Vec<PathBuf>,
    counts: Vec<u64>,
    shapes: ShardShapes,
}

impl ShardSet {
    /// Scans `dir` for `*.nfshard` files (sorted by file name for a stable
    /// order), validating every header and that all shards agree on sample
    /// shapes.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` when no shard is found, any header is invalid,
    /// or shapes disagree between shards.
    pub fn open_dir(dir: impl AsRef<Path>) -> io::Result<Self> {
        let dir = dir.as_ref();
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
            .collect::<io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .filter(|p| p.is_file() && p.extension().is_some_and(|e| e == SHARD_EXTENSION))
            .collect();
        paths.sort();
        if paths.is_empty() {
            return Err(bad(format!("no .{SHARD_EXTENSION} files in {}", dir.display())));
        }
        let mut counts = Vec::with_capacity(paths.len());
        let mut shapes: Option<ShardShapes> = None;
        for path in &paths {
            let reader = ShardReader::open(path)?;
            match &shapes {
                None => shapes = Some(reader.shapes().clone()),
                Some(s) if s != reader.shapes() => {
                    return Err(bad(format!(
                        "{}: sample shapes {:?} disagree with the set's {s:?}",
                        path.display(),
                        reader.shapes()
                    )))
                }
                Some(_) => {}
            }
            counts.push(reader.len());
        }
        let Some(shapes) = shapes else { unreachable!("paths is non-empty, so shapes was set") };
        Ok(Self { paths, counts, shapes })
    }

    /// Number of shards.
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.paths.len()
    }

    /// Total samples across all shards.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Whether the set holds no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-sample geometry shared by every shard.
    #[must_use]
    pub fn shapes(&self) -> &ShardShapes {
        &self.shapes
    }

    /// The shard paths, in iteration order.
    #[must_use]
    pub fn paths(&self) -> &[PathBuf] {
        &self.paths
    }

    /// Opens shard `index` for streaming.
    ///
    /// # Errors
    ///
    /// Propagates open/validation errors (the file may have changed since
    /// the scan).
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn open_shard(&self, index: usize) -> io::Result<ShardReader> {
        ShardReader::open(&self.paths[index])
    }

    /// Loads shard `index` into an in-memory [`Dataset`].
    ///
    /// # Errors
    ///
    /// Propagates shard errors.
    pub fn load_shard(&self, index: usize) -> io::Result<Dataset> {
        self.open_shard(index)?.read_to_dataset()
    }

    /// Splits off the last `n` shards into their own set (e.g. a held-out
    /// validation split).
    ///
    /// # Panics
    ///
    /// Panics when `n` exceeds the number of shards.
    #[must_use]
    pub fn split_off(&mut self, n: usize) -> ShardSet {
        assert!(n <= self.num_shards());
        let at = self.num_shards() - n;
        ShardSet {
            paths: self.paths.split_off(at),
            counts: self.counts.split_off(at),
            shapes: self.shapes.clone(),
        }
    }

    /// Streams every sample of every shard in order — the same consumption
    /// shape as [`Dataset::iter`], with one shard of buffering at most.
    pub fn stream(&self) -> impl Iterator<Item = io::Result<(NdArray, NdArray)>> + '_ {
        self.paths.iter().flat_map(|p| match ShardReader::open(p) {
            Ok(reader) => Box::new(reader) as Box<dyn Iterator<Item = io::Result<(NdArray, NdArray)>>>,
            Err(e) => Box::new(std::iter::once(Err(e))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(i: usize) -> (NdArray, NdArray) {
        (NdArray::full(&[2, 3, 3], i as f32 * 0.25), NdArray::full(&[1, 3, 3], -(i as f32)))
    }

    fn shapes() -> ShardShapes {
        ShardShapes { input: [2, 3, 3], target: [1, 3, 3] }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nf_shard_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn roundtrip_preserves_bits() {
        let dir = tmp("roundtrip");
        let path = dir.join(format!("a.{SHARD_EXTENSION}"));
        let mut w = ShardWriter::create(&path, shapes()).unwrap();
        for i in 0..5 {
            let (x, y) = sample(i);
            w.push(&x, &y).unwrap();
        }
        let (_, n) = w.finish().unwrap();
        assert_eq!(n, 5);
        let reader = ShardReader::open(&path).unwrap();
        assert_eq!(reader.len(), 5);
        for (i, rec) in reader.enumerate() {
            let (x, y) = rec.unwrap();
            let (ex, ey) = sample(i);
            assert_eq!(x, ex);
            assert_eq!(y, ey);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn writer_rejects_wrong_shapes_naming_the_file() {
        let dir = tmp("wrong_shape");
        let path = dir.join(format!("a.{SHARD_EXTENSION}"));
        let mut w = ShardWriter::create(&path, shapes()).unwrap();
        let err = w.push(&NdArray::zeros(&[1, 3, 3]), &NdArray::zeros(&[1, 3, 3])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains(&path.display().to_string()), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_transient_read_fault_names_file_and_record() {
        let dir = tmp("fault");
        let path = dir.join(format!("a.{SHARD_EXTENSION}"));
        let mut w = ShardWriter::create(&path, shapes()).unwrap();
        for i in 0..3 {
            let (x, y) = sample(i);
            w.push(&x, &y).unwrap();
        }
        w.finish().unwrap();

        let fault = Arc::new(FaultPlan::parse("shard_read=transient@2", 0).unwrap());
        let mut reader = ShardReader::open_with_faults(&path, fault).unwrap();
        assert!(reader.read_next().unwrap().is_some(), "record 1 reads clean");
        let err = reader.read_next().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        let msg = err.to_string();
        assert!(msg.contains("transient"), "{msg}");
        assert!(msg.contains(&path.display().to_string()), "{msg}");
        assert!(msg.contains("record 1"), "0-based failing record index: {msg}");
        // The disabled plan leaves reads untouched.
        let clean = ShardReader::open_with_faults(&path, Arc::new(FaultPlan::disabled())).unwrap();
        assert_eq!(clean.map(Result::unwrap).count(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unfinalized_shard_never_appears_at_the_final_path() {
        let dir = tmp("unfinalized");
        let path = dir.join(format!("a.{SHARD_EXTENSION}"));
        let mut w = ShardWriter::create(&path, shapes()).unwrap();
        let (x, y) = sample(0);
        w.push(&x, &y).unwrap();
        drop(w); // no finish(): the crash leaves only the staging file
        assert!(!path.exists(), "final path must stay absent without finish()");
        let staged = staging_path(&path);
        assert!(staged.exists(), "staging file is the crash residue");
        // The staging residue is rejected both by a direct open (placeholder
        // count) and by directory scans (wrong extension).
        let err = ShardReader::open(&staged).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("finalized"), "{err}");
        assert!(ShardSet::open_dir(&dir).is_err(), "scan must not pick up .tmp residue");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_header_at_the_final_path_is_rejected() {
        // Regression for the pre-rename finalize: a crash mid-finalize
        // could leave a half-patched count at the final path. Construct
        // that exact file and assert the reader refuses it.
        let dir = tmp("torn_header");
        let path = dir.join(format!("a.{SHARD_EXTENSION}"));
        let mut w = ShardWriter::create(&path, shapes()).unwrap();
        let (x, y) = sample(0);
        w.push(&x, &y).unwrap();
        w.finish().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();

        // Placeholder count (finalize never started).
        bytes[COUNT_OFFSET as usize..COUNT_OFFSET as usize + 8]
            .copy_from_slice(&COUNT_PLACEHOLDER.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = ShardReader::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("finalized"), "{err}");

        // Torn count (finalize wrote some but not all count bytes before
        // the crash): the claimed count no longer matches the file size.
        bytes[COUNT_OFFSET as usize..COUNT_OFFSET as usize + 8]
            .copy_from_slice(&[0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff]);
        std::fs::write(&path, &bytes).unwrap();
        let err = ShardReader::open(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_byte_is_detected() {
        let dir = tmp("corrupt");
        let path = dir.join(format!("a.{SHARD_EXTENSION}"));
        let mut w = ShardWriter::create(&path, shapes()).unwrap();
        for i in 0..3 {
            let (x, y) = sample(i);
            w.push(&x, &y).unwrap();
        }
        w.finish().unwrap();
        // Flip one payload byte in the middle record.
        let mut bytes = std::fs::read(&path).unwrap();
        let record_len = (8 + 4 * (2 * 9 + 9)) as usize;
        let idx = HEADER_LEN as usize + record_len + 20;
        bytes[idx] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let reader = ShardReader::open(&path).unwrap();
        let results: Vec<_> = reader.collect();
        assert_eq!(results.len(), 2, "error poisons the reader; iteration stops");
        assert!(results[0].is_ok());
        let err = results[1].as_ref().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_and_oversized_files_are_rejected() {
        let dir = tmp("truncated");
        let path = dir.join(format!("a.{SHARD_EXTENSION}"));
        let mut w = ShardWriter::create(&path, shapes()).unwrap();
        for i in 0..3 {
            let (x, y) = sample(i);
            w.push(&x, &y).unwrap();
        }
        w.finish().unwrap();
        let bytes = std::fs::read(&path).unwrap();

        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        assert!(ShardReader::open(&path).is_err(), "truncated tail");

        let mut longer = bytes.clone();
        longer.extend_from_slice(&[0; 3]);
        std::fs::write(&path, &longer).unwrap();
        assert!(ShardReader::open(&path).is_err(), "trailing garbage");

        std::fs::write(&path, &bytes[..20]).unwrap();
        assert!(ShardReader::open(&path).is_err(), "truncated header");

        std::fs::write(&path, b"definitely not a shard file header").unwrap();
        assert!(ShardReader::open(&path).is_err(), "bad magic");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn set_writer_rotates_and_set_reader_streams_in_order() {
        let dir = tmp("set");
        let mut w = ShardSetWriter::new(&dir, "train", shapes(), 4).unwrap();
        for i in 0..10 {
            let (x, y) = sample(i);
            w.push(&x, &y).unwrap();
        }
        assert_eq!(w.total(), 10);
        let shards = w.finish().unwrap();
        assert_eq!(shards.len(), 3);
        assert_eq!(shards.iter().map(|(_, n)| n).sum::<u64>(), 10);

        let mut set = ShardSet::open_dir(&dir).unwrap();
        assert_eq!(set.num_shards(), 3);
        assert_eq!(set.len(), 10);
        for (i, rec) in set.stream().enumerate() {
            let (x, _) = rec.unwrap();
            assert_eq!(x.as_slice()[0], i as f32 * 0.25, "stream order at {i}");
        }
        // Dataset loading is capacity-aware and ordered.
        let ds = set.load_shard(1).unwrap();
        assert_eq!(ds.len(), 4);
        assert_eq!(ds.sample(0).0.as_slice()[0], 4.0 * 0.25);

        let val = set.split_off(1);
        assert_eq!(set.num_shards(), 2);
        assert_eq!(val.num_shards(), 1);
        assert_eq!(val.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_dir_rejects_mixed_shapes_and_empty_dirs() {
        let dir = tmp("mixed");
        assert!(ShardSet::open_dir(&dir).is_err(), "empty dir");
        let mut a = ShardWriter::create(dir.join(format!("a.{SHARD_EXTENSION}")), shapes()).unwrap();
        let (x, y) = sample(0);
        a.push(&x, &y).unwrap();
        a.finish().unwrap();
        let other = ShardShapes { input: [1, 3, 3], target: [1, 3, 3] };
        let mut b = ShardWriter::create(dir.join(format!("b.{SHARD_EXTENSION}")), other).unwrap();
        b.push(&NdArray::zeros(&[1, 3, 3]), &NdArray::zeros(&[1, 3, 3])).unwrap();
        b.finish().unwrap();
        assert!(ShardSet::open_dir(&dir).is_err(), "mixed shapes");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
