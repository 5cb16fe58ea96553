//! Pins the steady-state allocation behaviour of `Module::infer`.
//!
//! The batched inference path used to allocate a fresh im2col patch
//! matrix — the largest transient of the whole forward — per convolution
//! per call. The direct convolution forward builds no patch matrix; it
//! copies each image into a zero-bordered buffer in the thread-local
//! scratch of `neurfill-tensor`. So repeated `infer` calls at the same
//! shape must allocate strictly less than the first (cold) call and
//! settle to an exact per-call count: call 2 and call 3 allocate the same
//! number of blocks.
//!
//! A counting `#[global_allocator]` keeps this honest; the test must be
//! the only one in this binary so no other test's allocations interleave.

use neurfill_nn::{Module, UNet, UNetConfig};
use neurfill_tensor::NdArray;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to the system allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn batched_infer_allocations_reach_a_steady_state() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xa110c);
    let net =
        UNet::new(UNetConfig { in_channels: 6, out_channels: 1, base_channels: 8, depth: 2 }, &mut rng);
    net.set_training(false);
    let x = NdArray::from_fn(&[8, 6, 32, 32], |i| (i as f32 * 0.13).sin());

    // Cold call: grows the thread-local convolution scratch to the
    // high-water mark for this shape.
    let cold = allocations_during(|| {
        net.infer(&x).unwrap();
    });
    // Warm calls: the scratch is reused, so the per-call count must drop
    // below the cold call and be exactly repeatable.
    let warm1 = allocations_during(|| {
        net.infer(&x).unwrap();
    });
    let warm2 = allocations_during(|| {
        net.infer(&x).unwrap();
    });
    assert_eq!(warm1, warm2, "infer allocation count must be steady across warm calls");
    assert!(
        warm1 < cold,
        "warm infer must allocate less than the cold call (cold {cold}, warm {warm1})"
    );
}
