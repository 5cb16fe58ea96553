//! Pins what one fill job keeps alive.
//!
//! A learned model reaches a full chip by running thousands of
//! independent tile jobs, so the heap one `FillingFlow::run` holds at its
//! peak — and hands back inside `FlowResult` — decides how many run side
//! by side. Before the rectangles went to a sink, a 32×32×3 job peaked at
//! 50–100 MiB (these three jobs: 61 / 50 / 100) and returned all of it
//! inside `FlowResult`.
//!
//! A live-bytes `#[global_allocator]` keeps this honest; the test must be
//! the only one in this binary so no other test's allocations interleave.

use neurfill::extraction::{ExtractionConfig, NUM_CHANNELS};
use neurfill::pipeline::{FillingFlow, FlowConfig};
use neurfill::{CmpNeuralNetwork, CmpNnConfig, HeightNorm};
use neurfill_layout::benchmark_designs;
use neurfill_nn::{UNet, UNetConfig};
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct LiveBytesAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: delegates verbatim to the system allocator.
unsafe impl GlobalAlloc for LiveBytesAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        grew(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: LiveBytesAlloc = LiveBytesAlloc;

const MIB: f64 = 1024.0 * 1024.0;

#[test]
fn a_fill_job_keeps_a_few_mib_alive() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(23);
    let unet = UNet::new(UNetConfig { in_channels: NUM_CHANNELS, ..UNetConfig::default() }, &mut rng);
    let network = CmpNeuralNetwork::new(
        unet,
        HeightNorm::default(),
        ExtractionConfig::default(),
        CmpNnConfig::default(),
    );
    let flow = FillingFlow::with_network(network, FlowConfig::default()).unwrap();

    for layout in benchmark_designs(32, 32, 23) {
        let entry = LIVE.load(Ordering::Relaxed);
        PEAK.store(entry, Ordering::Relaxed);
        let result = flow.run(&layout).unwrap();
        let rise = (PEAK.load(Ordering::Relaxed) - entry) as f64 / MIB;
        let before_drop = LIVE.load(Ordering::Relaxed);
        assert!(result.insertion.dummy_count() > 0, "{}: the job placed dummies", layout.name());
        drop(result);
        let held = (before_drop - LIVE.load(Ordering::Relaxed)) as f64 / MIB;
        println!("{}: live heap rose {rise:.2} MiB, FlowResult held {held:.2} MiB", layout.name());
        assert!(rise < 8.0, "{}: live heap rose {rise:.1} MiB during the job", layout.name());
        assert!(held < 2.0, "{}: the returned FlowResult holds {held:.1} MiB", layout.name());
    }
}
