//! Training shards fed hostile bytes. A shard is a sealed append log
//! (`neurfill_data::shard`): a shapes record, one record per sample and
//! a `seal <count>` record. Whatever the file holds, opening it and
//! streaming its samples must end in a typed `InvalidData` error unless
//! it is a well-formed sealed shard: never a panic (overflow checks are on
//! in the debug build this runs in), and never an allocation sized from
//! the file's claims rather than its bytes.
//!
//! The global allocator below records the largest single request the
//! reading thread makes, which must stay within the file's size or the
//! reader's fixed 8 KiB buffer, whichever is larger.

use neurfill_data::{ShardReader, ShardSetWriter, ShardShapes, SHARD_EXTENSION};
use neurfill_runtime::{AppendLog, FaultPlan};
use neurfill_tensor::NdArray;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

struct LargestAlloc;

thread_local! {
    /// The largest request this thread made while measuring, or `None`
    /// when it is not measuring (test threads run side by side).
    static LARGEST: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|l| l.set(l.get().map(|m| m.max(size))));
}

// SAFETY: delegates verbatim to the system allocator.
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: LargestAlloc = LargestAlloc;

/// The reader's fixed read buffer, which a small file does not shrink.
const READ_BUFFER: usize = 8 << 10;

const SHAPES: ShardShapes = ShardShapes { input: [2, 3, 3], target: [1, 3, 3] };
/// Bytes of one sample record's payload under [`SHAPES`].
const SAMPLE_BYTES: usize = 4 * 27;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nf_hostile_shard_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The bytes of a sealed shard of `n` samples under `shapes`, sample `i`
/// filled with `i + offset`.
fn sealed(dir: &Path, shapes: &ShardShapes, n: usize, offset: f32) -> Vec<u8> {
    let mut w = ShardSetWriter::new(dir, "clean", shapes.clone(), 64).unwrap();
    for i in 0..n {
        let v = i as f32 + offset;
        w.push(&NdArray::full(&shapes.input, v), &NdArray::full(&shapes.target, -v)).unwrap();
    }
    let written = w.finish().unwrap();
    let bytes = std::fs::read(&written[0].0).unwrap();
    std::fs::remove_file(&written[0].0).unwrap();
    bytes
}

/// A log holding exactly `records`, as a hostile writer would frame them.
fn log_of(path: &Path, records: &[Vec<u8>]) -> Vec<u8> {
    let _ = std::fs::remove_file(path);
    let (mut log, _) =
        AppendLog::open(path, "journal_write", Arc::new(FaultPlan::disabled()), |_| Ok(())).unwrap();
    for r in records {
        log.append(r).unwrap();
    }
    drop(log);
    std::fs::read(path).unwrap()
}

/// Opens the shard at `path` and streams every sample.
fn read_all(path: &Path) -> io::Result<usize> {
    let reader = ShardReader::open(path)?;
    reader.map(|r| r.map(|_| ())).collect::<io::Result<Vec<()>>>().map(|v| v.len())
}

/// Asserts that `bytes` are refused with `InvalidData` naming the file,
/// and that reading them allocated no block larger than the file or the
/// read buffer. Returns the error text.
fn assert_refused(path: &Path, bytes: &[u8], why: &str) -> String {
    std::fs::write(path, bytes).unwrap();
    LARGEST.set(Some(0));
    let outcome = read_all(path);
    let largest = LARGEST.replace(None).unwrap_or(0);
    let err = match outcome {
        Ok(n) => panic!("{why}: read {n} samples from a hostile shard"),
        Err(e) => e,
    };
    assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{why}: {err}");
    assert!(err.to_string().contains(&path.display().to_string()), "{why}: {err}");
    assert!(
        largest <= bytes.len().max(READ_BUFFER),
        "{why}: allocated {largest} bytes for a {}-byte file",
        bytes.len()
    );
    err.to_string()
}

fn shard_path(dir: &Path) -> PathBuf {
    dir.join(format!("hostile.{SHARD_EXTENSION}"))
}

#[test]
fn the_clean_shard_reads_back_and_frames_as_documented() {
    let dir = scratch("clean");
    let path = shard_path(&dir);
    let bytes = sealed(&dir, &SHAPES, 3, 0.0);
    let shapes = b"shapes 2 3 3 1 3 3".to_vec();
    let mut records = vec![shapes];
    for i in 0..3u8 {
        let v = f32::from(i);
        let mut sample = Vec::new();
        for x in std::iter::repeat_n(v, 18).chain(std::iter::repeat_n(-v, 9)) {
            sample.extend_from_slice(&x.to_le_bytes());
        }
        records.push(sample);
    }
    records.push(b"seal 3".to_vec());
    assert_eq!(log_of(&path, &records), bytes, "a shard is exactly this append log");
    assert_eq!(read_all(&path).unwrap(), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncation_at_every_byte_is_refused() {
    let dir = scratch("truncate");
    let path = shard_path(&dir);
    let bytes = sealed(&dir, &SHAPES, 3, 0.0);
    for cut in 0..bytes.len() {
        assert_refused(&path, &bytes[..cut], &format!("cut at {cut}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_single_byte_flip_is_refused() {
    let dir = scratch("flips");
    let path = shard_path(&dir);
    let bytes = sealed(&dir, &SHAPES, 3, 0.0);
    for at in 0..bytes.len() {
        for flip in [0x01u8, 0x80, 0xff] {
            let mut hostile = bytes.clone();
            hostile[at] ^= flip;
            assert_refused(&path, &hostile, &format!("byte {at} ^ {flip:#04x}"));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn splices_of_two_shards_are_refused() {
    // Shards of different shapes: every splice pairs one shard's shapes
    // record with bytes framed for the other's. (Two shards of one shape
    // spliced at a record boundary are a well-formed log of real samples.)
    let dir = scratch("splices");
    let path = shard_path(&dir);
    let a = sealed(&dir, &SHAPES, 3, 0.0);
    let b = sealed(&dir, &ShardShapes { input: [1, 3, 3], target: [1, 3, 3] }, 4, 10.0);
    let mut cases = 0;
    for (head, tail) in [(&a, &b), (&b, &a)] {
        for at in 0..=head.len().min(tail.len()) {
            let mut spliced = head[..at].to_vec();
            spliced.extend_from_slice(&tail[at..]);
            if spliced != *head && spliced != *tail {
                assert_refused(&path, &spliced, &format!("splice at {at}"));
                cases += 1;
            }
        }
    }
    assert!(cases > a.len(), "{cases} splices");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unsealed_miscounted_and_overlong_logs_are_refused() {
    let dir = scratch("seal");
    let path = shard_path(&dir);
    let shapes = b"shapes 2 3 3 1 3 3".to_vec();
    let sample = vec![0u8; SAMPLE_BYTES];
    let seal = |n: u64| format!("seal {n}").into_bytes();

    let unsealed = log_of(&path, &[shapes.clone(), sample.clone(), sample.clone()]);
    assert!(assert_refused(&path, &unsealed, "unsealed").contains("not sealed"));
    let empty = log_of(&path, &[]);
    assert!(assert_refused(&path, &empty, "no records").contains("not sealed"));
    let shapes_only = log_of(&path, std::slice::from_ref(&shapes));
    assert!(assert_refused(&path, &shapes_only, "shapes only").contains("not sealed"));

    for count in [0, 1, 3, u64::MAX] {
        let miscounted = log_of(&path, &[shapes.clone(), sample.clone(), sample.clone(), seal(count)]);
        let err = assert_refused(&path, &miscounted, &format!("seal {count}"));
        assert!(err.contains("seal counts"), "{err}");
    }
    for after in [sample.clone(), seal(2), Vec::new()] {
        let overlong = log_of(&path, &[shapes.clone(), sample.clone(), sample.clone(), seal(2), after]);
        assert_refused(&path, &overlong, "a record after the seal");
    }
    let not_a_seal = log_of(&path, &[shapes, sample, b"seal one".to_vec()]);
    assert_refused(&path, &not_a_seal, "unparsable seal");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_sample_of_the_wrong_size_is_refused() {
    let dir = scratch("sample_size");
    let path = shard_path(&dir);
    let shapes = b"shapes 2 3 3 1 3 3".to_vec();
    for len in [0, 4, SAMPLE_BYTES - 4, SAMPLE_BYTES - 1, SAMPLE_BYTES + 1, SAMPLE_BYTES + 4] {
        let wrong = vec![0u8; len];
        let sample = vec![0u8; SAMPLE_BYTES];
        for records in [
            vec![shapes.clone(), wrong.clone(), sample.clone(), b"seal 2".to_vec()],
            vec![shapes.clone(), sample.clone(), wrong.clone(), b"seal 2".to_vec()],
        ] {
            let bytes = log_of(&path, &records);
            let err = assert_refused(&path, &bytes, &format!("{len}-byte sample"));
            assert!(err.contains(&format!("is {len} bytes")), "{err}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hostile_shapes_records_are_refused_without_sizing_from_them() {
    let dir = scratch("shapes");
    let path = shard_path(&dir);
    let max = u32::MAX;
    let sample = vec![0u8; SAMPLE_BYTES];
    for shapes in [
        format!("shapes {max} {max} {max} {max} {max} {max}"),
        format!("shapes 1 {max} {max} 1 1 1"),
        format!("shapes {} 1 1 1 1 1", usize::MAX),
        "shapes 1 100000 100000 1 1 1".to_string(),
        "shapes 0 3 3 1 3 3".to_string(),
        "shapes 2 3 3 1 3".to_string(),
        "shapes 2 3 3 1 3 3 3".to_string(),
        "shapes -2 3 3 1 3 3".to_string(),
        "seal 1".to_string(),
        String::new(),
    ] {
        let records = [shapes.clone().into_bytes(), sample.clone(), b"seal 1".to_vec()];
        let bytes = log_of(&path, &records);
        assert_refused(&path, &bytes, &shapes);
    }
    // The same claims as raw bytes where the text record belongs.
    let mut binary = Vec::new();
    for _ in 0..6 {
        binary.extend_from_slice(&max.to_le_bytes());
    }
    let bytes = log_of(&path, &[binary, sample, b"seal 1".to_vec()]);
    assert_refused(&path, &bytes, "binary u32::MAX dims");
    let _ = std::fs::remove_dir_all(&dir);
}
