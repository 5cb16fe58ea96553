//! Micro-benchmark of the optimized compute kernels against their
//! reference implementations: blocked GEMM, row-span im2col, the
//! frozen-surrogate UNet backward, the interior/border pad convolution
//! split and the anchored contact solve — plus graph-free UNet inference
//! at the batch sizes the runtime pool forms and one end-to-end labeling
//! run, so kernel wins are tied to pipeline wall-clock.
//!
//! Hand-rolled harness (no criterion): each op is timed as the best of
//! several samples after warmup, with the iteration count calibrated so
//! a sample runs long enough to dominate timer noise. Results go to
//! stdout as a table and to `BENCH_kernels.json` at the repo root
//! (override with `NEURFILL_BENCH_OUT`) as machine-readable records:
//! `{op, shape, ns_per_iter, reference_ns_per_iter, speedup, host}`.
//!
//! The end-to-end entry times the full labeling pipeline on the current
//! build; its reference column comes from
//! `NEURFILL_BASELINE_LABELING_NS` (measured on a pre-optimization
//! checkout) when set, else it is null.

use neurfill_bench::records::{output_path, print_table, write_table, BenchRecord};
use neurfill_cmpsim::contact::{
    solve_reference_plane, solve_reference_plane_reference, solve_reference_plane_stats,
};
use neurfill_cmpsim::{PadKernel, ProcessParams};
use neurfill_data::LabelConfig;
use neurfill_layout::benchmark_designs;
use neurfill_layout::datagen::DataGenConfig;
use neurfill_nn::{Module, UNet, UNetConfig};
use neurfill_tensor::kernels::{gemm, gemm_reference, set_gemm_threads};
use neurfill_tensor::{im2col_into, NdArray, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const SAMPLES: usize = 7;
const TARGET_SAMPLE_NS: u128 = 20_000_000; // 20 ms

/// Iteration count such that one sample runs for ~`TARGET_SAMPLE_NS`,
/// calibrated from a single warmup call.
fn calibrate(f: &mut impl FnMut()) -> usize {
    let t = Instant::now();
    f();
    let once = t.elapsed().as_nanos().max(1);
    ((TARGET_SAMPLE_NS / once) as usize).clamp(1, 1_000_000)
}

fn sample_ns(f: &mut impl FnMut(), iters: usize) -> f64 {
    let t = Instant::now();
    for _ in 0..iters {
        f();
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

/// Best-of-`SAMPLES` wall-clock per iteration.
fn time_ns(mut f: impl FnMut()) -> f64 {
    let iters = calibrate(&mut f);
    let mut best = f64::INFINITY;
    for _ in 0..SAMPLES {
        best = best.min(sample_ns(&mut f, iters));
    }
    best
}

/// Times two implementations of the same op with interleaved samples
/// (ref, opt, ref, opt, …) so machine-wide slowdowns — noisy neighbors,
/// frequency steps — hit both columns alike instead of skewing the
/// ratio. Returns `(reference_ns, optimized_ns)`, best-of-`SAMPLES`.
fn time_pair_ns(mut reference: impl FnMut(), mut optimized: impl FnMut()) -> (f64, f64) {
    let ref_iters = calibrate(&mut reference);
    let opt_iters = calibrate(&mut optimized);
    let (mut best_ref, mut best_opt) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..SAMPLES {
        best_ref = best_ref.min(sample_ns(&mut reference, ref_iters));
        best_opt = best_opt.min(sample_ns(&mut optimized, opt_iters));
    }
    (best_ref, best_opt)
}

fn row(op: &str, shape: String, ns: f64, reference_ns: Option<f64>) -> BenchRecord {
    BenchRecord { op: op.to_string(), shape, ns, reference_ns }
}

fn random_f32(rng: &mut StdRng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

fn random_f64(rng: &mut StdRng, len: usize) -> Vec<f64> {
    (0..len).map(|_| rng.gen_range(-50.0f64..500.0)).collect()
}

/// The exact pre-optimization `NdArray::matmul` inner loop (i-k-j with
/// the zero-skip branch) — the baseline this PR's kernel replaced.
fn gemm_legacy(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        for p in 0..k {
            let x = a[i * k + p];
            if x == 0.0 {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            let orow = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += x * bv;
            }
        }
    }
}

fn bench_gemm(rows: &mut Vec<BenchRecord>) {
    // (m, k, n) triples matching the im2col matmuls of the default UNet
    // (base 8, depth 2) on 16×16 windows at batch 32: m = out channels,
    // k = in_channels·kh·kw, n = batch·Ho·Wo.
    let shapes = [(8usize, 54usize, 8192usize), (16, 72, 2048), (32, 144, 4096), (64, 288, 1024)];
    let mut rng = StdRng::seed_from_u64(7);
    for (m, k, n) in shapes {
        let a = random_f32(&mut rng, m * k);
        let b = random_f32(&mut rng, k * n);
        let mut out = vec![0.0f32; m * n];
        let mut out2 = vec![0.0f32; m * n];
        let (legacy_ns, ns) =
            time_pair_ns(|| gemm_legacy(&a, &b, &mut out, m, k, n), || gemm(&a, &b, &mut out2, m, k, n));
        rows.push(row("gemm", format!("{m}x{k}x{n}"), ns, Some(legacy_ns)));
        let reference_ns = time_ns(|| gemm_reference(&a, &b, &mut out, m, k, n));
        rows.push(row("gemm_oracle", format!("{m}x{k}x{n}"), ns, Some(reference_ns)));
    }
}

/// The im2col the row-span kernel replaced: zero the whole patch matrix,
/// then move the pixels one bounds-checked element at a time (3×3, stride
/// 1, pad 1 — the UNet's convolution).
fn im2col_legacy(x: &[f32], c: usize, edge: usize, o: &mut [f32]) {
    o.fill(0.0);
    let cols = edge * edge;
    for ci in 0..c {
        let img = &x[ci * cols..(ci + 1) * cols];
        for ky in 0..3 {
            for kx in 0..3 {
                let row = ((ci * 3 + ky) * 3 + kx) * cols;
                for oy in 0..edge {
                    let iy = (oy + ky) as isize - 1;
                    if iy < 0 || iy >= edge as isize {
                        continue;
                    }
                    for ox in 0..edge {
                        let ix = (ox + kx) as isize - 1;
                        if ix >= 0 && ix < edge as isize {
                            o[row + oy * edge + ox] = img[iy as usize * edge + ix as usize];
                        }
                    }
                }
            }
        }
    }
}

fn bench_im2col(rows: &mut Vec<BenchRecord>) {
    // (channels, edge) of the 3×3 convolutions that move the most patch
    // elements in one batch-1 forward of the default UNet (base 8, depth 2)
    // on a 32×32 tile — 91 % of its ~520 k between them.
    let shapes = [(4usize, 32usize), (8, 32), (16, 32), (16, 16), (32, 16)];
    let mut rng = StdRng::seed_from_u64(17);
    for (c, edge) in shapes {
        let x = random_f32(&mut rng, c * edge * edge);
        let cols = edge * edge;
        let mut legacy = vec![0.0f32; c * 9 * cols];
        let mut out = vec![0.0f32; c * 9 * cols];
        let (legacy_ns, ns) = time_pair_ns(
            || im2col_legacy(&x, c, edge, &mut legacy),
            || im2col_into(&x, c, edge, edge, 3, 3, 1, 1, &mut out, cols, 0),
        );
        assert_eq!(legacy, out, "im2col c{c} {edge}x{edge}");
        rows.push(row("im2col", format!("c{c}_{edge}x{edge}_k3"), ns, Some(legacy_ns)));
    }
}

/// Backward of the production surrogate (4 → 1 channels, base 8, depth 2)
/// at batch 1 on a 32×32 tile, w.r.t. its input: with every weight a
/// variable (what training differentiates, and what the fill job used to)
/// and frozen as `CmpNeuralNetwork` wraps it. Backward = (forward +
/// backward) − forward, each best-of-samples.
fn bench_unet_backward(rows: &mut Vec<BenchRecord>) {
    set_gemm_threads(1);
    let mut rng = StdRng::seed_from_u64(19);
    let unet =
        UNet::new(UNetConfig { in_channels: 4, out_channels: 1, base_channels: 8, depth: 2 }, &mut rng);
    unet.set_training(false);
    let input = NdArray::from_vec(random_f32(&mut rng, 4 * 32 * 32), &[1, 4, 32, 32]).unwrap();
    let backward_ns = |unet: &UNet| {
        let forward = || unet.forward(&Tensor::parameter(input.clone())).unwrap().sum();
        let (forward_ns, both_ns) = time_pair_ns(
            || {
                std::hint::black_box(forward().item());
            },
            || {
                unet.zero_grad();
                forward().backward().unwrap();
            },
        );
        (both_ns - forward_ns).max(0.0)
    };
    let trainable_ns = backward_ns(&unet);
    for p in unet.parameters() {
        p.set_requires_grad(false);
    }
    let frozen_ns = backward_ns(&unet);
    set_gemm_threads(0);
    rows.push(row("unet_backward", "trainable_batch1_32x32".to_string(), trainable_ns, None));
    rows.push(row("unet_backward", "frozen_batch1_32x32".to_string(), frozen_ns, Some(trainable_ns)));
}

/// Graph-free `Module::infer` of the same surrogate on one GEMM thread
/// (the pool pins per-worker inference to one core), at the batch sizes
/// the runtime pool forms.
fn bench_unet_infer(rows: &mut Vec<BenchRecord>) {
    set_gemm_threads(1);
    let mut rng = StdRng::seed_from_u64(0x1f8);
    let unet =
        UNet::new(UNetConfig { in_channels: 4, out_channels: 1, base_channels: 8, depth: 2 }, &mut rng);
    unet.set_training(false);
    for batch in [1usize, 8, 32] {
        let input =
            NdArray::from_vec(random_f32(&mut rng, batch * 4 * 32 * 32), &[batch, 4, 32, 32]).unwrap();
        let ns = time_ns(|| {
            std::hint::black_box(unet.infer(&input).unwrap());
        });
        rows.push(row("unet_infer", format!("batch{batch}_32x32"), ns, None));
    }
    set_gemm_threads(0);
}

fn bench_pad_kernel(rows: &mut Vec<BenchRecord>) {
    let shapes = [(16usize, 16usize, 2usize), (64, 64, 4), (128, 128, 4)];
    let mut rng = StdRng::seed_from_u64(11);
    for (r, c, radius) in shapes {
        let kernel = PadKernel::exponential(1.5, radius);
        let field = random_f64(&mut rng, r * c);
        let mut out = vec![0.0f64; r * c];
        let (reference_ns, ns) = time_pair_ns(
            || {
                std::hint::black_box(kernel.apply_reference(&field, r, c));
            },
            || kernel.apply_into(&field, r, c, &mut out),
        );
        rows.push(row("pad_kernel", format!("{r}x{c}_r{radius}"), ns, Some(reference_ns)));
    }
}

fn bench_contact(rows: &mut Vec<BenchRecord>) {
    let mut rng = StdRng::seed_from_u64(13);
    let params = ProcessParams::default();
    // Mid-polish boards (every window in contact, a few tens of nm of
    // relief under the initial height); 65 536 and 1 048 576 are the chip
    // boards `chip_golden` and paper-scale design C solve once per step.
    for n in [256usize, 4096, 16384, 65_536, 1_048_576] {
        let heights: Vec<f64> =
            (0..n).map(|_| params.initial_height - rng.gen_range(0.0..40.0)).collect();
        let (_, stats) = solve_reference_plane_stats(&heights, &params);
        println!("contact n{n}: {stats:?}");
        let (reference_ns, ns) = time_pair_ns(
            || {
                std::hint::black_box(solve_reference_plane_reference(&heights, &params));
            },
            || {
                std::hint::black_box(solve_reference_plane(&heights, &params));
            },
        );
        rows.push(row("contact_exact", format!("n{n}"), ns, Some(reference_ns)));
    }
}

/// End-to-end: the same corpus generation the `labeling` bench runs —
/// layout generation → golden simulation → shard writes. Every hot loop
/// in it goes through the kernels above.
fn bench_labeling(rows: &mut Vec<BenchRecord>) {
    const LAYOUTS: usize = 8;
    let sources = benchmark_designs(12, 12, 1);
    let config = LabelConfig {
        num_layouts: LAYOUTS,
        samples_per_shard: 16,
        workers: 1,
        datagen: DataGenConfig { rows: 16, cols: 16, seed: 5, ..DataGenConfig::default() },
        process: ProcessParams::fast(),
        ..LabelConfig::default()
    };
    let dir = std::env::temp_dir().join(format!("nf_bench_kernels_{}", std::process::id()));
    let ns = time_ns(|| {
        let report = neurfill_data::generate_labeled_shards(sources.clone(), &config, &dir).unwrap();
        std::hint::black_box(report.samples);
    });
    let _ = std::fs::remove_dir_all(&dir);
    let baseline =
        std::env::var("NEURFILL_BASELINE_LABELING_NS").ok().and_then(|v| v.parse::<f64>().ok());
    rows.push(row("labeling_end_to_end", format!("{LAYOUTS}_layouts_16x16"), ns, baseline));
}

fn main() {
    // `cargo bench` passes `--bench`; a bare `--no-run` build never gets here.
    let mut rows = Vec::new();
    bench_gemm(&mut rows);
    bench_im2col(&mut rows);
    bench_unet_backward(&mut rows);
    bench_unet_infer(&mut rows);
    bench_pad_kernel(&mut rows);
    bench_contact(&mut rows);
    bench_labeling(&mut rows);

    print_table(&rows);
    let path = output_path(env!("CARGO_MANIFEST_DIR"), "BENCH_kernels.json");
    match write_table(&path, &rows) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
}
