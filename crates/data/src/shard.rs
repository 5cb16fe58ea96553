//! The on-disk shard format for labeled training samples.
//!
//! A shard is a sealed append log ([`neurfill_runtime::applog`], the
//! workspace's one record format) of fixed-shape `(input, target)`
//! sample pairs:
//!
//! ```text
//! record 0       shapes <Ci> <Hi> <Wi> <Ct> <Ht> <Wt>
//!                (input and target sample shapes [C, H, W], text)
//! record 1..=n   one sample: the input's f32 values then the target's,
//!                row-major, little-endian — 4·(Ci·Hi·Wi + Ct·Ht·Wt) bytes
//! record n+1     seal <n>
//! ```
//!
//! [`ShardSetWriter`] appends the seal and fsyncs the log when a shard is
//! full or the writer finishes; the file's directory entry was synced
//! when the log was created. A crash before that leaves an unsealed log,
//! which every reader refuses instead of training on a truncated corpus.
//! Starting a shard over an existing file replaces the file.
//!
//! [`ShardReader::open`] walks the records' frames without reading the
//! samples: the shapes, the size of every sample and the seal's count
//! are checked before the first sample is read. The samples then stream
//! one at a time with bounded memory, each checked against its record
//! checksum as it is read. The reader never writes to a shard.

use neurfill_nn::Dataset;
use neurfill_obs::{Counter, Telemetry};
use neurfill_runtime::applog::{AppendLog, Mark, Records, Stop};
use neurfill_runtime::FaultPlan;
use neurfill_tensor::NdArray;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// File extension used for shards.
pub const SHARD_EXTENSION: &str = "nfshard";

/// The label a shard's log carries in place of a fault site: no fault
/// plan reaches a shard, so nothing is ever injected under it.
const LOG_LABEL: &str = "shard";

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// FNV-1a 64-bit over `bytes` — the record checksum (one definition,
/// in `neurfill-layout`, shared with plan files and bundle digests).
pub use neurfill_layout::io::fnv1a;

/// The fixed per-sample geometry of a shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardShapes {
    /// `[C, H, W]` of every input sample.
    pub input: [usize; 3],
    /// `[C, H, W]` of every target sample.
    pub target: [usize; 3],
}

impl ShardShapes {
    /// Bytes of one sample record, as a checked product: zero or
    /// overflowing dimensions are an error, never a wrapped size.
    fn sample_bytes(&self) -> io::Result<usize> {
        if self.input.contains(&0) || self.target.contains(&0) {
            return Err(bad(format!("zero-sized sample shape {self:?}")));
        }
        let floats = |dims: &[usize; 3]| dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d));
        floats(&self.input)
            .zip(floats(&self.target))
            .and_then(|(input, target)| input.checked_add(target)?.checked_mul(4))
            .ok_or_else(|| bad(format!("sample shape {self:?} overflows")))
    }

    fn record(&self) -> String {
        let [a, b, c] = self.input;
        let [d, e, f] = self.target;
        format!("shapes {a} {b} {c} {d} {e} {f}")
    }

    fn parse(record: &[u8]) -> Option<Self> {
        let mut words = std::str::from_utf8(record).ok()?.strip_prefix("shapes ")?.split(' ');
        let mut dims = [0usize; 6];
        for d in &mut dims {
            *d = words.next()?.parse().ok()?;
        }
        let [a, b, c, d, e, f] = dims;
        words.next().is_none().then_some(Self { input: [a, b, c], target: [d, e, f] })
    }
}

fn parse_seal(record: &[u8]) -> Option<u64> {
    std::str::from_utf8(record).ok()?.strip_prefix("seal ")?.parse().ok()
}

/// Streaming reader over one shard: checks the shapes, every sample's
/// size and the seal up front, then yields samples one at a time with
/// bounded memory.
#[derive(Debug)]
pub struct ShardReader {
    records: Records,
    shapes: ShardShapes,
    sample_bytes: usize,
    payload: Vec<u8>,
    count: u64,
    read: u64,
}

impl ShardReader {
    /// Opens a shard read-only and walks its records' frames: the shapes
    /// record, one record per sample of the shapes' size, and a final
    /// seal whose count is the number of samples.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for a file that is not an append log, a
    /// missing or unreadable shapes record, a sample record of the wrong
    /// size, a torn record, a missing seal (a writer that never
    /// finished), a seal whose count disagrees with the samples, and
    /// records after the seal. Every error names the offending file.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let mut records = Records::open(path)?;
        let mut payload = Vec::new();
        if !records.next_into(&mut payload)? {
            return Err(stopped(&records));
        }
        let shapes = ShardShapes::parse(&payload)
            .ok_or_else(|| records.invalid("record 0 is not a shapes record"))?;
        let sample_bytes = shapes.sample_bytes().map_err(|e| records.invalid(e))?;

        // Every record but the last must be a sample; the last, the seal.
        let first_sample = records.mark();
        let mut last: Option<(Mark, u64)> = None;
        loop {
            let at = records.mark();
            let Some(len) = records.skip()? else { break };
            if let Some((_, prev)) = last.filter(|&(_, prev)| prev != sample_bytes as u64) {
                let index = records.index() - 2;
                return Err(records.invalid(format!(
                    "record {index} is {prev} bytes where a {sample_bytes}-byte sample belongs"
                )));
            }
            last = Some((at, len));
        }
        let Some((seal_at, _)) = last.filter(|_| records.stop() == Some(Stop::End)) else {
            return Err(stopped(&records));
        };
        records.rewind(seal_at)?;
        if !records.next_into(&mut payload)? {
            return Err(stopped(&records));
        }
        let count = parse_seal(&payload).ok_or_else(|| records.invalid(UNSEALED))?;
        let samples = records.index() - 2;
        if count != samples {
            let msg = format!("seal counts {count} samples but the shard holds {samples}");
            return Err(records.invalid(msg));
        }
        records.rewind(first_sample)?;
        Ok(Self { records, shapes, sample_bytes, payload, count, read: 0 })
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
        if self.read == self.count {
            return Ok(None);
        }
        let sample = self.read_sample();
        self.read = if sample.is_ok() { self.read + 1 } else { self.count };
        sample.map(Some)
    }

    fn read_sample(&mut self) -> io::Result<(NdArray, NdArray)> {
        let records = &mut self.records;
        if !records.next_into(&mut self.payload)? {
            return Err(stopped(records));
        }
        if self.payload.len() != self.sample_bytes {
            let index = records.index() - 1;
            return Err(records.invalid(format!("record {index} changed size since the open")));
        }
        let (input, target) = self.payload.split_at(4 * self.shapes.input.iter().product::<usize>());
        // Fixed-size chunks keep bounds checks out of the decode loop.
        let decode = |bytes: &[u8], shape: &[usize; 3]| {
            let floats = bytes.as_chunks::<4>().0.iter().map(|c| f32::from_le_bytes(*c));
            NdArray::from_vec(floats.collect(), shape).map_err(|e| records.invalid(e))
        };
        Ok((decode(input, &self.shapes.input)?, decode(target, &self.shapes.target)?))
    }
}

const UNSEALED: &str = "shard is not sealed (its writer never finished)";

/// Why a shard's record walk stopped before its seal: the torn or
/// checksum-failing record it stopped at, or a log that simply ended.
fn stopped(records: &Records) -> io::Error {
    let index = records.index();
    records.invalid(match records.stop() {
        Some(Stop::Checksum) => format!("checksum mismatch in record {index} — shard is corrupt"),
        Some(Stop::Torn) => format!("record {index} is torn — shard is truncated"),
        Some(Stop::End) | None => UNSEALED.to_string(),
    })
}

impl Iterator for ShardReader {
    type Item = io::Result<(NdArray, NdArray)>;

    fn next(&mut self) -> Option<Self::Item> {
        self.read_next().transpose()
    }
}

/// Writes a sequence of samples across multiple shards, rotating to a new
/// file every `samples_per_shard` records. Each shard is sealed when it
/// is full or at [`ShardSetWriter::finish`]; a writer dropped before that
/// leaves an unsealed shard, which readers refuse.
#[derive(Debug)]
pub struct ShardSetWriter {
    dir: PathBuf,
    prefix: String,
    shapes: ShardShapes,
    samples_per_shard: u64,
    /// The shard being written and the samples in it.
    current: Option<(AppendLog, u64)>,
    finished: Vec<(PathBuf, u64)>,
    total: u64,
    payload: Vec<u8>,
    records_written: Counter,
    bytes_written: Counter,
}

impl ShardSetWriter {
    /// Creates a writer producing `dir/<prefix>-00000.nfshard`, … shards.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation errors; `samples_per_shard` must be
    /// non-zero and no sample dimension zero.
    pub fn new(
        dir: impl AsRef<Path>,
        prefix: &str,
        shapes: ShardShapes,
        samples_per_shard: u64,
    ) -> io::Result<Self> {
        if samples_per_shard == 0 {
            return Err(bad("samples_per_shard must be non-zero"));
        }
        let sample_bytes = shapes.sample_bytes()?;
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            dir: dir.as_ref().to_path_buf(),
            prefix: prefix.to_string(),
            shapes,
            samples_per_shard,
            current: None,
            finished: Vec::new(),
            total: 0,
            payload: Vec::with_capacity(sample_bytes),
            records_written: Counter::noop(),
            bytes_written: Counter::noop(),
        })
    }

    /// Counts every sample record written and its bytes into
    /// `telemetry` (`data.shard.records_written` /
    /// `data.shard.bytes_written`). The shard bytes are untouched.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.records_written = telemetry.counter("data.shard.records_written");
        self.bytes_written = telemetry.counter("data.shard.bytes_written");
        self
    }

    /// Appends one sample, rotating to a fresh shard when the current one
    /// is full.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData`, naming the shard, on a shape mismatch;
    /// propagates I/O errors.
    pub fn push(&mut self, input: &NdArray, target: &NdArray) -> io::Result<()> {
        if self.current.as_ref().is_none_or(|(_, n)| *n == self.samples_per_shard) {
            self.rotate()?;
        }
        let Some((log, count)) = self.current.as_mut() else {
            unreachable!("rotate() always opens a shard")
        };
        let ShardShapes { input: want_input, target: want_target } = &self.shapes;
        if input.shape() != want_input || target.shape() != want_target {
            return Err(bad(format!(
                "{}: sample shapes {:?}/{:?} do not match shard shapes {want_input:?}/{want_target:?}",
                log.path().display(),
                input.shape(),
                target.shape(),
            )));
        }
        self.payload.clear();
        for v in input.as_slice().iter().chain(target.as_slice()) {
            self.payload.extend_from_slice(&v.to_le_bytes());
        }
        log.append(&self.payload)?;
        *count += 1;
        self.total += 1;
        self.records_written.inc();
        self.bytes_written.add(12 + self.payload.len() as u64);
        Ok(())
    }

    /// Seals the shard being written, then starts the next: a new log,
    /// replacing any file at its path, holding the shapes record.
    fn rotate(&mut self) -> io::Result<()> {
        self.seal()?;
        let name = format!("{}-{:05}.{SHARD_EXTENSION}", self.prefix, self.finished.len());
        let path = self.dir.join(name);
        match std::fs::remove_file(&path) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
        let no_faults = Arc::new(FaultPlan::disabled());
        let (mut log, _) = AppendLog::open(&path, LOG_LABEL, no_faults, |_| Ok(()))?;
        log.append(self.shapes.record().as_bytes())?;
        self.current = Some((log, 0));
        Ok(())
    }

    /// Seals the shard being written, if any: appends `seal <count>` and
    /// fsyncs the log.
    fn seal(&mut self) -> io::Result<()> {
        if let Some((mut log, count)) = self.current.take() {
            log.append(format!("seal {count}").as_bytes())?;
            log.sync()?;
            self.finished.push((log.path().to_path_buf(), count));
        }
        Ok(())
    }

    /// Seals the in-flight shard, removes every `<prefix>-NNNNN` shard in
    /// the directory with an index at or above the number written (a
    /// larger earlier corpus's tail, which would otherwise be read as part
    /// of this one), and returns `(path, count)` for every shard written,
    /// in order.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; the in-flight shard then stays unsealed.
    pub fn finish(mut self) -> io::Result<Vec<(PathBuf, u64)>> {
        self.seal()?;
        let written = self.finished.len();
        for entry in std::fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let index = path
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(|n| n.strip_prefix(&self.prefix)?.strip_prefix('-'))
                .and_then(|n| n.strip_suffix(SHARD_EXTENSION)?.strip_suffix('.'))
                .filter(|digits| digits.bytes().all(|b| b.is_ascii_digit()))
                .and_then(|digits| digits.parse::<usize>().ok());
            if index.is_some_and(|i| i >= written) {
                std::fs::remove_file(&path)?;
            }
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
        // One shard open at a time: only its shapes and count are kept.
        let scanned: Vec<(ShardShapes, u64)> = paths
            .iter()
            .map(|p| ShardReader::open(p).map(|r| (r.shapes, r.count)))
            .collect::<io::Result<_>>()?;
        let shapes = scanned[0].0.clone();
        if let Some((path, (other, _))) = paths.iter().zip(&scanned).find(|(_, s)| s.0 != shapes) {
            let msg = format!("sample shapes {other:?} disagree with the set's {shapes:?}");
            return Err(bad(format!("{}: {msg}", path.display())));
        }
        let counts = scanned.into_iter().map(|(_, count)| count).collect();
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

    /// Loads shard `index` into an in-memory [`Dataset`], which grows with
    /// the samples read, never from the seal's count.
    ///
    /// # Errors
    ///
    /// Propagates shard errors (checksum, truncation).
    pub fn load_shard(&self, index: usize) -> io::Result<Dataset> {
        let mut ds = Dataset::new();
        for sample in self.open_shard(index)? {
            let (input, target) = sample?;
            ds.push(input, target).map_err(|e| bad(format!("{}: {e}", self.paths[index].display())))?;
        }
        Ok(ds)
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

    /// A writer into `dir` holding samples `0..n` in its first shard, not
    /// yet sealed, and that shard's path.
    fn unsealed(dir: &Path, n: usize) -> (ShardSetWriter, PathBuf) {
        let mut w = ShardSetWriter::new(dir, "a", shapes(), 64).unwrap();
        for i in 0..n {
            let (x, y) = sample(i);
            w.push(&x, &y).unwrap();
        }
        (w, dir.join(format!("a-00000.{SHARD_EXTENSION}")))
    }

    fn sealed(dir: &Path, n: usize) -> PathBuf {
        let (w, path) = unsealed(dir, n);
        w.finish().unwrap();
        path
    }

    fn seal(count: u64) -> String {
        format!("seal {count}")
    }

    /// Appends raw records to the log at `path`.
    fn append_raw(path: &Path, records: &[&[u8]]) {
        let (mut log, _) =
            AppendLog::open(path, LOG_LABEL, Arc::new(FaultPlan::disabled()), |_| Ok(())).unwrap();
        for r in records {
            log.append(r).unwrap();
        }
    }

    fn refused(path: &Path, why: &str) -> String {
        let err = ShardReader::open(path).map(|_| ()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{why}: {err}");
        assert!(err.to_string().contains(&path.display().to_string()), "{why}: {err}");
        err.to_string()
    }

    /// Bytes before sample record `i`: the log header, the shapes record
    /// and `i` sample records of 12 + 4 · 27 bytes.
    fn sample_offset(i: usize) -> usize {
        12 + (12 + shapes().record().len()) + i * (12 + 4 * 27)
    }

    #[test]
    fn roundtrip_preserves_bits() {
        let dir = tmp("roundtrip");
        let (w, path) = unsealed(&dir, 5);
        assert_eq!(w.finish().unwrap(), vec![(path.clone(), 5)]);
        let reader = ShardReader::open(&path).unwrap();
        assert_eq!(reader.count, 5);
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
        let (mut w, path) = unsealed(&dir, 0);
        let err = w.push(&NdArray::zeros(&[1, 3, 3]), &NdArray::zeros(&[1, 3, 3])).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains(&path.display().to_string()), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_unsealed_shard_is_refused_by_open_and_open_dir() {
        for n in [1, 3] {
            let dir = tmp(&format!("unsealed{n}"));
            let (w, path) = unsealed(&dir, n);
            drop(w); // no finish(): a crash mid-write
            assert!(refused(&path, "unsealed").contains("not sealed"));
            let err = ShardSet::open_dir(&dir).unwrap_err();
            assert!(err.to_string().contains("not sealed"), "{err}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn creating_a_shard_replaces_the_file_it_never_appends() {
        let dir = tmp("replace");
        let path = sealed(&dir, 3);
        // A rewrite that crashes leaves an unsealed shard, not the old one.
        drop(unsealed(&dir, 1));
        refused(&path, "crashed rewrite");
        sealed(&dir, 2);
        assert_eq!(ShardReader::open(&path).unwrap().count, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_torn_or_miscounted_seal_is_refused() {
        let dir = tmp("seal");
        let path = sealed(&dir, 2);
        let bytes = std::fs::read(&path).unwrap();
        let seal_at = sample_offset(2);
        assert_eq!(bytes.len(), seal_at + 12 + seal(2).len());
        for cut in seal_at + 1..bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            assert!(refused(&path, "torn seal").contains("record 3 is torn"));
        }
        // Cut exactly before the seal: a whole log that was never sealed.
        std::fs::write(&path, &bytes[..seal_at]).unwrap();
        assert!(refused(&path, "no seal").contains("not sealed"));

        for count in [0u64, 1, 3, u64::MAX] {
            std::fs::write(&path, &bytes[..seal_at]).unwrap();
            append_raw(&path, &[seal(count).as_bytes()]);
            assert!(refused(&path, "miscounted seal").contains("seal counts"));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_byte_is_detected() {
        let dir = tmp("corrupt");
        let path = sealed(&dir, 3);
        // Flip one payload byte in the middle sample (log record 2).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[sample_offset(1) + 12 + 20] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let reader = ShardReader::open(&path).unwrap();
        let results: Vec<_> = reader.collect();
        assert_eq!(results.len(), 2, "error poisons the reader; iteration stops");
        assert!(results[0].is_ok());
        let err = results[1].as_ref().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum mismatch in record 2"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_extended_and_foreign_files_are_rejected() {
        let dir = tmp("truncated");
        let path = sealed(&dir, 3);
        let bytes = std::fs::read(&path).unwrap();

        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        refused(&path, "truncated tail");

        let mut longer = bytes.clone();
        longer.extend_from_slice(&[0; 3]);
        std::fs::write(&path, &longer).unwrap();
        refused(&path, "trailing garbage");

        // A whole record after the seal: a sample, or a second seal.
        for extra in [vec![0u8; 4 * 27], seal(3).into_bytes()] {
            std::fs::write(&path, &bytes).unwrap();
            append_raw(&path, &[&extra]);
            refused(&path, "record after the seal");
        }

        std::fs::write(&path, &bytes[..20]).unwrap();
        refused(&path, "truncated shapes record");

        std::fs::write(&path, &bytes[..8]).unwrap();
        refused(&path, "truncated header");

        std::fs::write(&path, b"definitely not a shard file header").unwrap();
        assert!(refused(&path, "bad magic").contains("bad magic"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_sample_of_the_wrong_size_is_refused() {
        let dir = tmp("sample_size");
        let (w, path) = unsealed(&dir, 1);
        drop(w);
        append_raw(&path, &[&[0u8; 4 * 26], seal(2).as_bytes()]);
        assert!(refused(&path, "short sample").contains("record 2 is 104 bytes"));
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
        sealed(&dir, 1);
        let other = ShardShapes { input: [1, 3, 3], target: [1, 3, 3] };
        let mut b = ShardSetWriter::new(&dir, "b", other, 64).unwrap();
        b.push(&NdArray::zeros(&[1, 3, 3]), &NdArray::zeros(&[1, 3, 3])).unwrap();
        b.finish().unwrap();
        assert!(ShardSet::open_dir(&dir).is_err(), "mixed shapes");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
