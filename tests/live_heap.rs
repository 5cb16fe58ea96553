//! Pins what one fill job keeps alive.
//!
//! A learned model reaches a full chip by running thousands of
//! independent tile jobs, so the heap one `FillingFlow::run` holds at its
//! peak — and hands back inside `FlowResult` — decides how many run side
//! by side. Before the rectangles went to a sink, a 32×32×3 job peaked at
//! 50–100 MiB (these three jobs: 61 / 50 / 100) and returned all of it
//! inside `FlowResult`. The rise is now 4.5 / 3.9 / 3.9 MiB: the objective
//! keeps the three-layer tape of the last line-search trial alive until
//! the gradient at that point runs its backward, where the gradient used
//! to tape one layer at a time (2.9 / 2.3 / 2.3 MiB).
//!
//! The same goes for training: the tape of one `fit` batch step is the
//! set-up phase's high-water mark, and it was ~25 full-size temporaries
//! per batch norm deep before the norm became one node.
//!
//! A live-bytes `#[global_allocator]` keeps this honest; the tests of this
//! binary hold [`MEASURING`] so no other test's allocations interleave.

use neurfill::extraction::{ExtractionConfig, NUM_CHANNELS};
use neurfill::pipeline::{FillingFlow, FlowConfig};
use neurfill::{CmpNeuralNetwork, CmpNnConfig, HeightNorm};
use neurfill_layout::benchmark_designs;
use neurfill_nn::loss::mse_loss;
use neurfill_nn::{Adam, Module, UNet, UNetConfig};
use neurfill_tensor::{NdArray, Tensor};
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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

/// Held by each test while it reads [`LIVE`] / [`PEAK`].
static MEASURING: Mutex<()> = Mutex::new(());

#[test]
fn a_fill_job_keeps_a_few_mib_alive() {
    let _alone = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
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

#[test]
fn a_training_step_keeps_its_tape_small() {
    let _alone = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = rand::rngs::StdRng::seed_from_u64(29);
    let net = UNet::new(UNetConfig { in_channels: NUM_CHANNELS, ..UNetConfig::default() }, &mut rng);
    net.set_training(true);
    let mut opt = Adam::new(net.parameters(), 1e-3);
    let x = NdArray::from_fn(&[4, NUM_CHANNELS, 32, 32], |i| (i as f32 * 0.37).sin());
    let y = NdArray::from_fn(&[4, 1, 32, 32], |i| (i as f32 * 0.11).cos());
    // `fit`'s batch step; the first one also allocates what later steps
    // keep (Adam's moments, the kernels' scratch), so the second is read.
    let mut step = || {
        opt.zero_grad();
        let pred = net.forward(&Tensor::constant(x.clone())).unwrap();
        let loss = mse_loss(&pred, &Tensor::constant(y.clone())).unwrap();
        loss.backward().unwrap();
        opt.step();
    };
    step();
    let entry = LIVE.load(Ordering::Relaxed);
    PEAK.store(entry, Ordering::Relaxed);
    step();
    let rise = (PEAK.load(Ordering::Relaxed) - entry) as f64 / MIB;
    println!("one training step at [4, {NUM_CHANNELS}, 32, 32]: live heap rose {rise:.2} MiB");
    // Measured 4.85 MiB (14.83 with the composed norm and the allocating
    // convolution backward); the bound is that plus 25 %.
    assert!(rise < 6.0, "live heap rose {rise:.1} MiB during one training step");
}
