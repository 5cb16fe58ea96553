//! A crash-tolerant append-only log of checksummed records: the one
//! durability primitive for a growing set of completed units, and the
//! one record format — the serve job journal, a full-chip run's tile
//! checkpoint and the training corpus's shards. Whole-file artifacts go
//! through [`neurfill_layout::io::write_durable`] instead.
//!
//! ```text
//! offset  size  field
//! 0       8     magic "NFALOG1\n"
//! 8       4     format version (u32, currently 1)
//! 12      —     records: u32 payload_len | u64 fnv1a(payload) | payload
//! ```
//!
//! Little-endian throughout. [`Records`] is the one reader of that
//! framing. Opening an existing [`AppendLog`] *replays* it through that
//! reader, streaming each validated record to a visitor, and truncates
//! the first incomplete or checksum-failing record and all after it —
//! the torn tail a crash mid-append leaves — so the log reopens to a
//! clean prefix of acknowledged appends. A newly created log syncs its
//! header and its directory entry before [`AppendLog::open`] returns.
//!
//! Appends are durable against *process* crashes as soon as
//! [`AppendLog::append`] returns (the bytes are in the kernel page
//! cache); durability against power loss additionally needs
//! [`AppendLog::sync`], which callers invoke at their own cadence so the
//! per-append cost stays microseconds, not an fsync.
//!
//! Every append passes a [`FaultPlan`] write site, so tests can inject
//! `short_write` (torn prefix healed in place), `torn_record`
//! (checksum-corrupt tail, log dies), and `crash` (mid-record tail, log
//! dies) deterministically. A dead log models the disk state of a
//! process killed at that exact ordinal: the bytes already on disk stay
//! exactly as torn, and every later append fails fast — a test restarts
//! by reopening the same path. This is the workspace's only emulation of
//! those three faults.

use crate::fault::{FaultPlan, WriteFault};
use neurfill_layout::io::{fnv1a, sync_parent_dir};
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MAGIC: &[u8; 8] = b"NFALOG1\n";
const VERSION: u32 = 1;
const HEADER_LEN: u64 = 12;
/// `u32 payload_len | u64 fnv1a(payload)` ahead of every payload.
const FRAME_LEN: u64 = 12;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Why a [`Records`] walk stopped: what lies past the good prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// The file ends cleanly after the last whole record.
    End,
    /// A record runs past the end of the file.
    Torn,
    /// A whole record whose payload does not match its checksum.
    Checksum,
}

/// A place between two records of a [`Records`] walk.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    /// Offset just past the last whole record walked over.
    position: u64,
    /// Records walked over.
    index: u64,
}

/// A read-only cursor over an append log's records: the one parser of
/// their framing, under [`AppendLog::open`]'s replay and every other
/// reader. It reads no record longer than the bytes left in the file.
#[derive(Debug)]
pub struct Records {
    src: BufReader<File>,
    path: PathBuf,
    file_len: u64,
    at: Mark,
    stop: Option<Stop>,
}

impl Records {
    /// Opens the log at `path` read-only and checks its header.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; returns `InvalidData` naming the file when
    /// it is too short for a header or has a bad magic or version.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = File::open(&path)?;
        let file_len = file.metadata()?.len();
        Self::over(file, path.as_ref().to_path_buf(), file_len)
    }

    fn over(file: File, path: PathBuf, file_len: u64) -> io::Result<Self> {
        let mut records = Self {
            src: BufReader::new(file),
            path,
            file_len,
            at: Mark { position: HEADER_LEN, index: 0 },
            stop: None,
        };
        if file_len < HEADER_LEN {
            return Err(records.invalid(format!("too short for an append log ({file_len} bytes)")));
        }
        let mut header = [0u8; HEADER_LEN as usize];
        records.src.seek(SeekFrom::Start(0))?;
        records.src.read_exact(&mut header)?;
        if &header[..8] != MAGIC {
            return Err(records.invalid("not a neurfill append log (bad magic)"));
        }
        let version = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
        if version != VERSION {
            return Err(records.invalid(format!("unsupported append-log version {version}")));
        }
        Ok(records)
    }

    /// An `InvalidData` error naming the log's file.
    #[must_use]
    pub fn invalid(&self, msg: impl std::fmt::Display) -> io::Error {
        bad(format!("{}: {msg}", self.path.display()))
    }

    /// Records walked over so far: the index of the next one.
    #[must_use]
    pub fn index(&self) -> u64 {
        self.at.index
    }

    /// Why the walk stopped, or `None` while it goes on.
    #[must_use]
    pub fn stop(&self) -> Option<Stop> {
        self.stop
    }

    /// Parses the next record's frame, the one place the framing is read:
    /// its payload length, bounded by the bytes left, and checksum.
    fn frame(&mut self) -> io::Result<Option<(u64, u64)>> {
        let remaining = self.file_len - self.at.position;
        if self.stop.is_none() && remaining < FRAME_LEN {
            self.stop = Some(if remaining == 0 { Stop::End } else { Stop::Torn });
        }
        if self.stop.is_some() {
            return Ok(None);
        }
        let mut frame = [0u8; FRAME_LEN as usize];
        self.src.read_exact(&mut frame)?;
        let len = u64::from(u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]));
        if len > remaining - FRAME_LEN {
            self.stop = Some(Stop::Torn);
            return Ok(None);
        }
        let mut checksum = [0u8; 8];
        checksum.copy_from_slice(&frame[4..]);
        self.at = Mark { position: self.at.position + FRAME_LEN + len, index: self.at.index + 1 };
        Ok(Some((len, u64::from_le_bytes(checksum))))
    }

    /// Reads the next record into `buf` and checks it; `false` once the
    /// walk has stopped (see [`Records::stop`]).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn next_into(&mut self, buf: &mut Vec<u8>) -> io::Result<bool> {
        let before = self.at;
        let Some((len, checksum)) = self.frame()? else { return Ok(false) };
        buf.clear();
        buf.resize(len as usize, 0);
        self.src.read_exact(buf)?;
        if fnv1a(buf) != checksum {
            (self.at, self.stop) = (before, Some(Stop::Checksum));
        }
        Ok(self.stop.is_none())
    }

    /// Steps over the next record without reading or checking its
    /// payload: its length, or `None` once the walk has stopped.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn skip(&mut self) -> io::Result<Option<u64>> {
        let Some((len, _)) = self.frame()? else { return Ok(None) };
        // `frame` bounded `len` by the bytes left, so it fits an i64.
        self.src.seek_relative(len as i64)?;
        Ok(Some(len))
    }

    /// The walk's place, for [`Records::rewind`].
    #[must_use]
    pub fn mark(&self) -> Mark {
        self.at
    }

    /// Moves the walk back to `mark`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn rewind(&mut self, mark: Mark) -> io::Result<()> {
        self.src.seek(SeekFrom::Start(mark.position))?;
        (self.at, self.stop) = (mark, None);
        Ok(())
    }
}

/// What [`AppendLog::open`] found besides the records it streamed.
#[derive(Debug)]
pub struct Replay {
    /// Bytes truncated off the tail (0 for a cleanly-closed log).
    pub truncated_bytes: u64,
}

/// An append-only log of checksummed records with torn-tail recovery.
#[derive(Debug)]
pub struct AppendLog {
    file: File,
    path: PathBuf,
    site: &'static str,
    fault: Arc<FaultPlan>,
    /// Set once a `crash`/`torn_record` fault fires: the on-disk bytes are
    /// frozen as the injected kill left them and all later appends fail.
    dead: bool,
    records: u64,
    end: u64,
}

impl AppendLog {
    /// Opens (or creates) the log at `path`, replaying any existing
    /// records through [`Records`]: each validated payload goes to
    /// `visit`, in append order, and a torn tail is truncated. `site`
    /// names the fault-injection site checked on every append (e.g.
    /// [`crate::fault::sites::JOURNAL_WRITE`]).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors and the first error `visit` returns (the
    /// file is then left as it was); returns `InvalidData` when the file
    /// exists but is not an append log (bad magic or unsupported
    /// version).
    pub fn open(
        path: impl AsRef<Path>,
        site: &'static str,
        fault: Arc<FaultPlan>,
        mut visit: impl FnMut(&[u8]) -> io::Result<()>,
    ) -> io::Result<(Self, Replay)> {
        let path = path.as_ref().to_path_buf();
        // Existing contents are replayed, never truncated.
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(&path)?;
        let file_len = file.metadata()?.len();
        let (Mark { position: end, index: records }, truncated_bytes) = if file_len < HEADER_LEN {
            // A new log, or a crash between create and header write:
            // (re)write the header and make the file's directory entry
            // durable with it.
            file.set_len(0)?;
            file.write_all(MAGIC)?;
            file.write_all(&VERSION.to_le_bytes())?;
            file.sync_all()?;
            sync_parent_dir(&path);
            (Mark { position: HEADER_LEN, index: 0 }, file_len)
        } else {
            let mut replay = Records::over(file.try_clone()?, path.clone(), file_len)?;
            let mut payload = Vec::new();
            while replay.next_into(&mut payload)? {
                visit(&payload)?;
            }
            if replay.at.position < file_len {
                file.set_len(replay.at.position)?;
                file.sync_all()?;
            }
            file.seek(SeekFrom::Start(replay.at.position))?;
            (replay.at, file_len - replay.at.position)
        };
        let log = Self { file, path, site, fault, dead: false, records, end };
        Ok((log, Replay { truncated_bytes }))
    }

    /// Path the log lives at.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records appended plus records replayed at open.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.records
    }

    /// Whether the log holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Appends one record. On return the record is durable against a
    /// process crash; call [`AppendLog::sync`] for power-loss durability.
    ///
    /// Injected write faults ([`FaultPlan::inject_write`] at this log's
    /// site) behave as: `short_write` writes a torn prefix, truncates it
    /// away and rewrites the full record (success — exercises in-place
    /// healing); `torn_record` persists the record with a corrupted
    /// checksum, kills the log and errors; `crash` persists only a
    /// mid-record prefix, kills the log and errors. Once the log is dead
    /// every later append errors without touching the file.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors and injected faults.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        if self.dead {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                format!("{}: append log is dead (injected crash)", self.path.display()),
            ));
        }
        let len = u32::try_from(payload.len())
            .map_err(|_| bad(format!("record of {} bytes exceeds u32 length", payload.len())))?;
        let mut record = Vec::with_capacity(12 + payload.len());
        record.extend_from_slice(&len.to_le_bytes());
        record.extend_from_slice(&fnv1a(payload).to_le_bytes());
        record.extend_from_slice(payload);

        let fault = self
            .fault
            .inject_write(self.site)
            .map_err(|e| io::Error::new(io::ErrorKind::Interrupted, e))?;
        match fault {
            None => {
                self.file.write_all(&record)?;
            }
            Some(WriteFault::ShortWrite) => {
                // Tear the write partway, then heal: truncate back to the
                // record start and redo the whole record.
                let torn = record.len() / 2;
                self.file.write_all(&record[..torn])?;
                self.file.set_len(self.end)?;
                self.file.seek(SeekFrom::Start(self.end))?;
                self.file.write_all(&record)?;
            }
            Some(WriteFault::TornRecord) => {
                // Full-length record whose checksum no longer matches —
                // replay must drop it by validation, not by size.
                let mut torn = record.clone();
                torn[4] ^= 0xff;
                self.file.write_all(&torn)?;
                return Err(self.kill("torn record"));
            }
            Some(WriteFault::Crash) => {
                // The kill lands mid-record: a prefix is on disk, the
                // writer never returns.
                let torn = (record.len() / 2).max(1);
                self.file.write_all(&record[..torn])?;
                return Err(self.kill("crash"));
            }
        }
        self.end += record.len() as u64;
        self.records += 1;
        Ok(())
    }

    /// Freezes the log as an injected `fault` left it: every later append
    /// and sync fails without touching the file.
    fn kill(&mut self, fault: &str) -> io::Error {
        let _ = self.file.flush();
        self.dead = true;
        io::Error::new(
            io::ErrorKind::BrokenPipe,
            format!(
                "{}: fault injected: {fault} at '{}' (append {})",
                self.path.display(),
                self.site,
                self.records
            ),
        )
    }

    /// Whether an injected `crash`/`torn_record` fault has killed the log.
    #[must_use]
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Fsyncs the log file (power-loss durability up to the last append;
    /// the file's directory entry was synced when [`AppendLog::open`]
    /// created it).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; fails fast on a dead log.
    pub fn sync(&mut self) -> io::Result<()> {
        if self.dead {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                format!("{}: append log is dead (injected crash)", self.path.display()),
            ));
        }
        self.file.sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nf_applog_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Opens `path` fault-free, collecting the replayed records.
    fn plain(path: &Path) -> (AppendLog, Vec<Vec<u8>>, Replay) {
        let mut records = Vec::new();
        let (log, replay) =
            AppendLog::open(path, "journal_write", Arc::new(FaultPlan::disabled()), |r| {
                records.push(r.to_vec());
                Ok(())
            })
            .unwrap();
        (log, records, replay)
    }

    #[test]
    fn roundtrip_replays_records_in_order() {
        let dir = tmp("roundtrip");
        let path = dir.join("log.nflog");
        let (mut log, records, _) = plain(&path);
        assert!(records.is_empty());
        for i in 0..5u32 {
            log.append(format!("record {i}").as_bytes()).unwrap();
        }
        assert_eq!(log.len(), 5);
        drop(log);
        let (log, records, replay) = plain(&path);
        assert_eq!(log.len(), 5);
        assert_eq!(replay.truncated_bytes, 0);
        let texts: Vec<String> = records.iter().map(|r| String::from_utf8(r.clone()).unwrap()).collect();
        assert_eq!(texts, vec!["record 0", "record 1", "record 2", "record 3", "record 4"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn appends_continue_after_replay() {
        let dir = tmp("continue");
        let path = dir.join("log.nflog");
        let (mut log, _, _) = plain(&path);
        log.append(b"a").unwrap();
        drop(log);
        let (mut log, _, _) = plain(&path);
        log.append(b"b").unwrap();
        drop(log);
        let (_, records, _) = plain(&path);
        assert_eq!(records, vec![b"a".to_vec(), b"b".to_vec()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_on_replay() {
        let dir = tmp("torn");
        let path = dir.join("log.nflog");
        let (mut log, _, _) = plain(&path);
        log.append(b"keep me").unwrap();
        log.append(b"tear me").unwrap();
        drop(log);
        // Chop the last record mid-payload, as a kill would.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let (mut log, records, replay) = plain(&path);
        assert_eq!(records, vec![b"keep me".to_vec()]);
        assert!(replay.truncated_bytes > 0);
        // The truncated log accepts new appends cleanly.
        log.append(b"after recovery").unwrap();
        drop(log);
        let (_, records, _) = plain(&path);
        assert_eq!(records, vec![b"keep me".to_vec(), b"after recovery".to_vec()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checksum_corrupt_tail_is_truncated_on_replay() {
        let dir = tmp("checksum");
        let path = dir.join("log.nflog");
        let (mut log, _, _) = plain(&path);
        log.append(b"good").unwrap();
        log.append(b"evil").unwrap();
        drop(log);
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        *bytes.last_mut().unwrap() ^= 0x01; // corrupt last payload byte
        std::fs::write(&path, &bytes).unwrap();
        let (_, records, replay) = plain(&path);
        assert_eq!(records, vec![b"good".to_vec()]);
        assert_eq!(replay.truncated_bytes, (12 + 4) as u64, "{n}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_crash_leaves_a_recoverable_torn_tail() {
        let dir = tmp("crash");
        let path = dir.join("log.nflog");
        let fault = Arc::new(FaultPlan::parse("journal_write=crash@2", 0).unwrap());
        let (mut log, _) = AppendLog::open(&path, "journal_write", fault, |_| Ok(())).unwrap();
        log.append(b"acked").unwrap();
        let err = log.append(b"killed mid-write").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert!(log.is_dead());
        // Every later append fails without touching the file.
        assert!(log.append(b"more").is_err());
        assert!(log.sync().is_err());
        drop(log);
        // Restart on the same path: the acked record survives, the torn
        // tail is dropped.
        let (_, records, replay) = plain(&path);
        assert_eq!(records, vec![b"acked".to_vec()]);
        assert!(replay.truncated_bytes > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_torn_record_is_dropped_by_checksum_on_replay() {
        let dir = tmp("torn_record");
        let path = dir.join("log.nflog");
        let fault = Arc::new(FaultPlan::parse("journal_write=torn_record@2", 0).unwrap());
        let (mut log, _) = AppendLog::open(&path, "journal_write", fault, |_| Ok(())).unwrap();
        log.append(b"first").unwrap();
        assert!(log.append(b"second").is_err());
        drop(log);
        let (_, records, _) = plain(&path);
        assert_eq!(records, vec![b"first".to_vec()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_short_write_heals_in_place() {
        let dir = tmp("short");
        let path = dir.join("log.nflog");
        let fault = Arc::new(FaultPlan::parse("journal_write=short_write@1-2", 0).unwrap());
        let (mut log, _) = AppendLog::open(&path, "journal_write", fault, |_| Ok(())).unwrap();
        log.append(b"healed once").unwrap();
        log.append(b"healed twice").unwrap();
        log.append(b"clean").unwrap();
        assert!(!log.is_dead());
        drop(log);
        let (_, records, replay) = plain(&path);
        assert_eq!(records, vec![b"healed once".to_vec(), b"healed twice".to_vec(), b"clean".to_vec()]);
        assert_eq!(replay.truncated_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_log_files_are_rejected() {
        let dir = tmp("badmagic");
        let path = dir.join("log.nflog");
        std::fs::write(&path, b"this is not an append log, sorry").unwrap();
        let err = AppendLog::open(&path, "journal_write", Arc::new(FaultPlan::disabled()), |_| Ok(()))
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn header_only_crash_residue_is_rebuilt() {
        let dir = tmp("headerless");
        let path = dir.join("log.nflog");
        std::fs::write(&path, &MAGIC[..5]).unwrap(); // crash mid-header
        let (mut log, records, replay) = plain(&path);
        assert!(records.is_empty());
        assert_eq!(replay.truncated_bytes, 5);
        log.append(b"fresh start").unwrap();
        drop(log);
        let (_, records, _) = plain(&path);
        assert_eq!(records, vec![b"fresh start".to_vec()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_visitor_error_stops_the_replay_and_leaves_the_file_alone() {
        let dir = tmp("visitor");
        let path = dir.join("log.nflog");
        let (mut log, _, _) = plain(&path);
        log.append(b"first").unwrap();
        log.append(b"second").unwrap();
        drop(log);
        let mut torn = std::fs::read(&path).unwrap();
        torn.extend_from_slice(&[1, 2, 3]);
        std::fs::write(&path, &torn).unwrap();
        let mut seen = 0;
        let err = AppendLog::open(&path, "journal_write", Arc::new(FaultPlan::disabled()), |_| {
            seen += 1;
            Err(io::Error::new(io::ErrorKind::InvalidData, "schema bug"))
        })
        .map(|_| ())
        .unwrap_err();
        assert_eq!((seen, err.to_string()), (1, "schema bug".to_string()));
        assert_eq!(std::fs::read(&path).unwrap(), torn, "a refused replay truncates nothing");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn records_walk_reports_where_and_why_the_good_prefix_ends() {
        let dir = tmp("records");
        let path = dir.join("log.nflog");
        let (mut log, _, _) = plain(&path);
        for r in [&b"one"[..], b"two", b"three"] {
            log.append(r).unwrap();
        }
        drop(log);
        let clean = std::fs::read(&path).unwrap();

        let mut records = Records::open(&path).unwrap();
        let mut buf = Vec::new();
        assert!(records.next_into(&mut buf).unwrap());
        assert_eq!(buf, b"one");
        let second = records.mark();
        assert_eq!(records.skip().unwrap(), Some(3));
        assert!(records.next_into(&mut buf).unwrap());
        assert_eq!((buf.as_slice(), records.index()), (&b"three"[..], 3));
        assert!(!records.next_into(&mut buf).unwrap());
        assert_eq!((records.stop(), records.mark().position), (Some(Stop::End), clean.len() as u64));
        records.rewind(second).unwrap();
        assert!(records.next_into(&mut buf).unwrap());
        assert_eq!((buf.as_slice(), records.index()), (&b"two"[..], 2));

        // A flipped payload byte stops the walk at that record; a cut one
        // stops it as torn. Neither touches the file.
        let mut flipped = clean.clone();
        *flipped.last_mut().unwrap() ^= 0x20;
        std::fs::write(&path, &flipped).unwrap();
        let mut records = Records::open(&path).unwrap();
        while records.next_into(&mut buf).unwrap() {}
        assert_eq!((records.stop(), records.index()), (Some(Stop::Checksum), 2));
        std::fs::write(&path, &clean[..clean.len() - 1]).unwrap();
        let mut records = Records::open(&path).unwrap();
        while records.skip().unwrap().is_some() {}
        assert_eq!((records.stop(), records.index()), (Some(Stop::Torn), 2));
        assert_eq!(std::fs::read(&path).unwrap(), &clean[..clean.len() - 1]);

        // The read-only reader refuses a short or foreign header.
        for bytes in [&MAGIC[..5], &b"this is not an append log, sorry"[..]] {
            std::fs::write(&path, bytes).unwrap();
            let err = Records::open(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(&path.display().to_string()), "{err}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
