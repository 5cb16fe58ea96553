//! A crash-tolerant append-only log of checksummed records — the one
//! durability primitive for a growing set of completed units: the serve
//! job journal's transitions and a full-chip run's tile checkpoint.
//! Whole-file artifacts go through
//! [`neurfill_layout::io::write_durable`] instead.
//!
//! A versioned magic header, FNV-1a 64-bit per-record checksums,
//! little-endian throughout:
//!
//! ```text
//! offset  size  field
//! 0       8     magic "NFALOG1\n"
//! 8       4     format version (u32, currently 1)
//! 12      —     records
//! ```
//!
//! Each record is `u32 payload_len | u64 fnv1a(payload) | payload`.
//! Opening an existing log *replays* it: records are validated in order
//! and the first incomplete or checksum-failing record — the torn tail a
//! crash mid-append leaves — is truncated away, so the log always
//! reopens to a clean prefix of fully-acknowledged appends. A newly
//! created log syncs its header and its directory entry before
//! [`AppendLog::open`] returns.
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
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const MAGIC: &[u8; 8] = b"NFALOG1\n";
const VERSION: u32 = 1;
const HEADER_LEN: u64 = 12;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// What [`AppendLog::open`] found on disk.
#[derive(Debug)]
pub struct Replay {
    /// The validated record payloads, in append order.
    pub records: Vec<Vec<u8>>,
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
    /// Opens (or creates) the log at `path`, replaying and validating any
    /// existing records and truncating a torn tail. `site` names the
    /// fault-injection site checked on every append (e.g.
    /// [`crate::fault::sites::JOURNAL_WRITE`]).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; returns `InvalidData` when the file exists
    /// but is not an append log (bad magic or unsupported version).
    pub fn open(
        path: impl AsRef<Path>,
        site: &'static str,
        fault: Arc<FaultPlan>,
    ) -> io::Result<(Self, Replay)> {
        let path = path.as_ref().to_path_buf();
        // Existing contents are replayed, never truncated.
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(&path)?;
        let file_len = file.metadata()?.len();
        let ctx = |msg: String| bad(format!("{}: {msg}", path.display()));

        if file_len < HEADER_LEN {
            // A new log, or a crash between create and header write:
            // (re)write the header and make the file's directory entry
            // durable with it.
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(MAGIC)?;
            file.write_all(&VERSION.to_le_bytes())?;
            file.sync_all()?;
            sync_parent_dir(&path);
            let log = Self { file, path, site, fault, dead: false, records: 0, end: HEADER_LEN };
            return Ok((log, Replay { records: Vec::new(), truncated_bytes: file_len }));
        }

        let mut magic = [0u8; 8];
        file.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(ctx("not a neurfill append log (bad magic)".into()));
        }
        let mut version = [0u8; 4];
        file.read_exact(&mut version)?;
        let version = u32::from_le_bytes(version);
        if version != VERSION {
            return Err(ctx(format!("unsupported append-log version {version}")));
        }

        let mut records = Vec::new();
        let mut good_end = HEADER_LEN;
        loop {
            let remaining = file_len - good_end;
            if remaining == 0 {
                break;
            }
            if remaining < 12 {
                break; // torn record header
            }
            let mut rec_header = [0u8; 12];
            file.read_exact(&mut rec_header)?;
            let len = u64::from(u32::from_le_bytes([
                rec_header[0],
                rec_header[1],
                rec_header[2],
                rec_header[3],
            ]));
            let checksum = u64::from_le_bytes([
                rec_header[4],
                rec_header[5],
                rec_header[6],
                rec_header[7],
                rec_header[8],
                rec_header[9],
                rec_header[10],
                rec_header[11],
            ]);
            if len > remaining - 12 {
                break; // torn payload (or a torn length field)
            }
            let mut payload = vec![0u8; len as usize];
            file.read_exact(&mut payload)?;
            if fnv1a(&payload) != checksum {
                break; // corrupted tail
            }
            good_end += 12 + len;
            records.push(payload);
        }
        let truncated_bytes = file_len - good_end;
        if truncated_bytes > 0 {
            file.set_len(good_end)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::Start(good_end))?;
        let n = records.len() as u64;
        let log = Self { file, path, site, fault, dead: false, records: n, end: good_end };
        Ok((log, Replay { records, truncated_bytes }))
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

    fn plain(path: &Path) -> (AppendLog, Replay) {
        AppendLog::open(path, "journal_write", Arc::new(FaultPlan::disabled())).unwrap()
    }

    #[test]
    fn roundtrip_replays_records_in_order() {
        let dir = tmp("roundtrip");
        let path = dir.join("log.nflog");
        let (mut log, replay) = plain(&path);
        assert!(replay.records.is_empty());
        for i in 0..5u32 {
            log.append(format!("record {i}").as_bytes()).unwrap();
        }
        assert_eq!(log.len(), 5);
        drop(log);
        let (log, replay) = plain(&path);
        assert_eq!(log.len(), 5);
        assert_eq!(replay.truncated_bytes, 0);
        let texts: Vec<String> =
            replay.records.iter().map(|r| String::from_utf8(r.clone()).unwrap()).collect();
        assert_eq!(texts, vec!["record 0", "record 1", "record 2", "record 3", "record 4"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn appends_continue_after_replay() {
        let dir = tmp("continue");
        let path = dir.join("log.nflog");
        let (mut log, _) = plain(&path);
        log.append(b"a").unwrap();
        drop(log);
        let (mut log, _) = plain(&path);
        log.append(b"b").unwrap();
        drop(log);
        let (_, replay) = plain(&path);
        assert_eq!(replay.records, vec![b"a".to_vec(), b"b".to_vec()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_on_replay() {
        let dir = tmp("torn");
        let path = dir.join("log.nflog");
        let (mut log, _) = plain(&path);
        log.append(b"keep me").unwrap();
        log.append(b"tear me").unwrap();
        drop(log);
        // Chop the last record mid-payload, as a kill would.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let (mut log, replay) = plain(&path);
        assert_eq!(replay.records, vec![b"keep me".to_vec()]);
        assert!(replay.truncated_bytes > 0);
        // The truncated log accepts new appends cleanly.
        log.append(b"after recovery").unwrap();
        drop(log);
        let (_, replay) = plain(&path);
        assert_eq!(replay.records, vec![b"keep me".to_vec(), b"after recovery".to_vec()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checksum_corrupt_tail_is_truncated_on_replay() {
        let dir = tmp("checksum");
        let path = dir.join("log.nflog");
        let (mut log, _) = plain(&path);
        log.append(b"good").unwrap();
        log.append(b"evil").unwrap();
        drop(log);
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        *bytes.last_mut().unwrap() ^= 0x01; // corrupt last payload byte
        std::fs::write(&path, &bytes).unwrap();
        let (_, replay) = plain(&path);
        assert_eq!(replay.records, vec![b"good".to_vec()]);
        assert_eq!(replay.truncated_bytes, (12 + 4) as u64, "{n}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_crash_leaves_a_recoverable_torn_tail() {
        let dir = tmp("crash");
        let path = dir.join("log.nflog");
        let fault = Arc::new(FaultPlan::parse("journal_write=crash@2", 0).unwrap());
        let (mut log, _) = AppendLog::open(&path, "journal_write", fault).unwrap();
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
        let (_, replay) = plain(&path);
        assert_eq!(replay.records, vec![b"acked".to_vec()]);
        assert!(replay.truncated_bytes > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_torn_record_is_dropped_by_checksum_on_replay() {
        let dir = tmp("torn_record");
        let path = dir.join("log.nflog");
        let fault = Arc::new(FaultPlan::parse("journal_write=torn_record@2", 0).unwrap());
        let (mut log, _) = AppendLog::open(&path, "journal_write", fault).unwrap();
        log.append(b"first").unwrap();
        assert!(log.append(b"second").is_err());
        drop(log);
        let (_, replay) = plain(&path);
        assert_eq!(replay.records, vec![b"first".to_vec()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_short_write_heals_in_place() {
        let dir = tmp("short");
        let path = dir.join("log.nflog");
        let fault = Arc::new(FaultPlan::parse("journal_write=short_write@1-2", 0).unwrap());
        let (mut log, _) = AppendLog::open(&path, "journal_write", fault).unwrap();
        log.append(b"healed once").unwrap();
        log.append(b"healed twice").unwrap();
        log.append(b"clean").unwrap();
        assert!(!log.is_dead());
        drop(log);
        let (_, replay) = plain(&path);
        assert_eq!(
            replay.records,
            vec![b"healed once".to_vec(), b"healed twice".to_vec(), b"clean".to_vec()]
        );
        assert_eq!(replay.truncated_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_log_files_are_rejected() {
        let dir = tmp("badmagic");
        let path = dir.join("log.nflog");
        std::fs::write(&path, b"this is not an append log, sorry").unwrap();
        let err = AppendLog::open(&path, "journal_write", Arc::new(FaultPlan::disabled()))
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
        let (mut log, replay) = plain(&path);
        assert!(replay.records.is_empty());
        assert_eq!(replay.truncated_bytes, 5);
        log.append(b"fresh start").unwrap();
        drop(log);
        let (_, replay) = plain(&path);
        assert_eq!(replay.records, vec![b"fresh start".to_vec()]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
