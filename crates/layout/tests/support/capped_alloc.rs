//! A global allocator for hostile-input suites: it records the largest
//! single request and refuses (returns null for) any over 1 GiB, so a
//! reader that sizes a buffer from a count in its input fails with an
//! allocation error instead of reserving the memory.
//!
//! Include it with `#[path = ".../support/capped_alloc.rs"] mod
//! capped_alloc;`: it installs itself as the test binary's allocator.

use std::alloc::{GlobalAlloc, Layout, System};
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

/// Serializes the measurements of one test binary so `LARGEST` sees one
/// caller at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Runs `f` and returns its result and the largest single allocation
/// made while it ran.
pub fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    LARGEST.store(0, Ordering::Relaxed);
    let out = f();
    (out, LARGEST.load(Ordering::Relaxed))
}
