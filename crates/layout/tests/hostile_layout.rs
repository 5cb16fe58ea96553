//! Hostile `dims` headers into both layout readers. A header is the only
//! thing a 74-byte request body needs to claim ten billion windows, so
//! neither reader may size anything from it: the window count is a
//! checked product under one cap, and the grids grow only with windows
//! that actually arrive.
//!
//! The global allocator below records the largest single request and
//! refuses any over 1 GiB, so a reader that sizes a buffer from the
//! header fails here (allocation error) instead of reserving memory.

use neurfill_layout::io::{read_layout, read_layout_bits};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

struct CappedAlloc;

static LARGEST: AtomicUsize = AtomicUsize::new(0);
const REFUSE_ABOVE: usize = 1 << 30;

// SAFETY: delegates verbatim to the system allocator, or returns null
// (a refused allocation) for requests above `REFUSE_ABOVE`.
unsafe impl GlobalAlloc for CappedAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        if layout.size() > REFUSE_ABOVE {
            return std::ptr::null_mut();
        }
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        if new_size > REFUSE_ABOVE {
            return std::ptr::null_mut();
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CappedAlloc = CappedAlloc;

/// Serializes the tests of this binary so `LARGEST` sees one reader.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Runs `read` and returns its error and the largest allocation it made.
fn refused(read: impl FnOnce() -> io::Result<neurfill_layout::Layout>) -> (io::Error, usize) {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    LARGEST.store(0, Ordering::Relaxed);
    let err = read().expect_err("a hostile header must be refused");
    (err, LARGEST.load(Ordering::Relaxed))
}

/// Ten billion windows; a product that wraps to 0 in 64 bits; exactly the
/// cap (2²⁸ windows) with no window data behind it.
const DIMS: [&str; 3] = ["1 100000 100000", "1 4294967296 4294967296", "1 16384 16384"];

#[test]
fn text_reader_refuses_hostile_dims_without_sizing_from_them() {
    for dims in DIMS {
        let body = format!("neurfill-layout v1\nname x\nwindow_um 1\nfile_size_mb 1\ndims {dims}\n");
        let (err, largest) = refused(|| read_layout(body.as_bytes()));
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{dims}: {err}");
        assert!(largest < 1 << 20, "{dims}: allocated {largest} bytes");
    }
}

#[test]
fn bits_reader_refuses_hostile_dims_without_sizing_from_them() {
    for dims in DIMS {
        let body = format!("neurfill-layout-bits v1\nname x\nmeta 0 0\ndims {dims}\n");
        let (err, largest) = refused(|| read_layout_bits(body.as_bytes()));
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{dims}: {err}");
        assert!(largest < 1 << 20, "{dims}: allocated {largest} bytes");
    }
}
