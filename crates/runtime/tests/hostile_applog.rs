//! The append log (`neurfill_runtime::applog`) fed hostile bytes. The
//! serve journal and the chip tile checkpoint both trust its replay, so
//! whatever the file holds, `AppendLog::open` must return a prefix of
//! the records that were written, never panic, truncate the file to that
//! prefix, and accept appends afterwards that reopen cleanly.
//!
//! A damaged header (magic or version) is the one other outcome: a typed
//! `InvalidData` error that leaves the file as it was.

use neurfill_runtime::{AppendLog, FaultPlan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const HEADER_LEN: usize = 12;
const RECORD_HEADER_LEN: usize = 12;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nf_hostile_applog_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("log.nflog")
}

fn remove(path: &Path) {
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

fn open(path: &Path) -> io::Result<(AppendLog, Vec<Vec<u8>>, u64)> {
    let mut records = Vec::new();
    AppendLog::open(path, "journal_write", Arc::new(FaultPlan::disabled()), |r| {
        records.push(r.to_vec());
        Ok(())
    })
    .map(|(log, replay)| (log, records, replay.truncated_bytes))
}

/// Three records of different lengths, one of them empty.
fn records() -> Vec<Vec<u8>> {
    vec![b"admit 1 acme".to_vec(), Vec::new(), (0..=255u8).collect()]
}

/// The bytes of a clean log holding [`records`].
fn clean_log(path: &Path) -> Vec<u8> {
    let (mut log, replayed, _) = open(path).unwrap();
    assert!(replayed.is_empty());
    for r in records() {
        log.append(&r).unwrap();
    }
    drop(log);
    std::fs::read(path).unwrap()
}

/// File length of a log holding the first `n` of [`records`].
fn prefix_len(n: usize) -> u64 {
    (HEADER_LEN + records()[..n].iter().map(|r| RECORD_HEADER_LEN + r.len()).sum::<usize>()) as u64
}

/// Opens `bytes` as a log and checks the replay contract: a prefix of
/// [`records`], the file truncated to exactly that prefix, and an append
/// that reopens cleanly after it. A header that is not a log's is a
/// typed error instead. Returns the prefix length, or `None` on error.
fn assert_prefix_replay(path: &Path, bytes: &[u8], why: &str) -> Option<usize> {
    std::fs::write(path, bytes).unwrap();
    let (mut log, replayed, truncated) = match open(path) {
        Ok(opened) => opened,
        Err(e) => {
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{why}: {e}");
            assert!(bytes.len() >= HEADER_LEN, "{why}: a short header is rebuilt, not refused");
            assert_eq!(std::fs::read(path).unwrap(), bytes, "{why}: a refused file is left alone");
            return None;
        }
    };
    let n = replayed.len();
    assert!(n <= 3 && replayed == records()[..n], "{why}: replay is not a prefix: {replayed:?}");
    let expected_len = prefix_len(n);
    assert_eq!(std::fs::metadata(path).unwrap().len(), expected_len, "{why}: file not truncated");
    // A header cut short is rebuilt, so its bytes count as truncated.
    let dropped =
        if bytes.len() < HEADER_LEN { bytes.len() as u64 } else { bytes.len() as u64 - expected_len };
    assert_eq!(truncated, dropped, "{why}");
    assert_eq!(log.len(), n as u64, "{why}");

    log.append(b"after").unwrap();
    drop(log);
    let (_, reopened, truncated) = open(path).unwrap();
    let mut want = records()[..n].to_vec();
    want.push(b"after".to_vec());
    assert_eq!(reopened, want, "{why}: an append after replay must reopen cleanly");
    assert_eq!(truncated, 0, "{why}");
    Some(n)
}

#[test]
fn truncation_at_every_byte_replays_the_records_wholly_before_the_cut() {
    let path = scratch("truncate");
    let bytes = clean_log(&path);
    assert_eq!(bytes.len() as u64, prefix_len(3));
    for cut in 0..=bytes.len() {
        let n = assert_prefix_replay(&path, &bytes[..cut], &format!("cut at {cut}"))
            .unwrap_or_else(|| panic!("cut at {cut}: a truncated log must open"));
        let whole = (0..=3).rev().find(|&k| prefix_len(k) <= cut as u64).unwrap_or(0);
        assert_eq!(n, whole, "cut at {cut}");
    }
    remove(&path);
}

#[test]
fn random_byte_flips_replay_a_prefix_or_refuse_the_header() {
    let path = scratch("flips");
    let bytes = clean_log(&path);
    let mut rng = StdRng::seed_from_u64(0x6170_706c_6f67);
    let mut refused = 0;
    for case in 0..512 {
        let mut hostile = bytes.clone();
        for _ in 0..rng.gen_range(1..=3) {
            let at = rng.gen_range(0..hostile.len());
            hostile[at] ^= rng.gen_range(1..=255u8);
        }
        if assert_prefix_replay(&path, &hostile, &format!("flip case {case}")).is_none() {
            refused += 1;
        }
    }
    // Every position gets hit, so some flips land in the 12-byte header.
    assert!(refused > 0 && refused < 512, "{refused} of 512 cases refused");
    remove(&path);
}

#[test]
fn every_single_bit_flip_in_a_record_drops_that_record_and_its_successors() {
    let path = scratch("bitflips");
    let bytes = clean_log(&path);
    for at in HEADER_LEN..bytes.len() {
        let owner = (0..3).find(|&k| (at as u64) < prefix_len(k + 1)).unwrap();
        for bit in 0..8 {
            let mut hostile = bytes.clone();
            hostile[at] ^= 1 << bit;
            let why = format!("byte {at} bit {bit}");
            let n = assert_prefix_replay(&path, &hostile, &why).unwrap();
            assert_eq!(n, owner, "{why}: record {owner} was damaged");
        }
    }
    remove(&path);
}

#[test]
fn a_record_header_claiming_u32_max_bytes_is_a_torn_tail() {
    let path = scratch("huge");
    let bytes = clean_log(&path);
    let second = prefix_len(1) as usize;
    let mut hostile = bytes[..second].to_vec();
    hostile.extend_from_slice(&u32::MAX.to_le_bytes());
    hostile.extend_from_slice(&0u64.to_le_bytes());
    hostile.extend_from_slice(b"a few payload bytes");
    assert_eq!(assert_prefix_replay(&path, &hostile, "u32::MAX length"), Some(1));

    // The same claim with nothing after it, and as the very first record.
    let mut bare = bytes[..HEADER_LEN].to_vec();
    bare.extend_from_slice(&u32::MAX.to_le_bytes());
    bare.extend_from_slice(&u64::MAX.to_le_bytes());
    assert_eq!(assert_prefix_replay(&path, &bare, "u32::MAX length, first record"), Some(0));
    remove(&path);
}
