//! Bit-exactness contract of the blocked GEMM layer.
//!
//! The blocked/threaded kernels must reproduce the reference i-k-j loop
//! bit for bit at every shape and thread count — that is what keeps the
//! simulator, training and labeling pipelines byte-reproducible while
//! the hot loop gets faster. These tests compare raw `f32` bit patterns,
//! never values, so `-0.0` vs `0.0` and NaN payload differences count as
//! failures.

use neurfill_tensor::kernels::{gemm, gemm_reference, gemm_tiered, gemm_with_threads, set_gemm_threads};
use neurfill_tensor::{conv2d_backward, conv2d_forward, NdArray, NumericsTier};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic pseudo-random buffer including exact zeros and a wide
/// magnitude range (so accumulation-order bugs cannot hide).
fn random_buf(rng: &mut StdRng, len: usize) -> Vec<f32> {
    (0..len)
        .map(|_| {
            if rng.gen_range(0u32..8) == 0 {
                0.0
            } else {
                let mag = rng.gen_range(-3.0f32..3.0);
                let scale = 10f32.powi(rng.gen_range(-3i32..4));
                mag * scale
            }
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Blocked == reference, bitwise, across random shapes and thread
    // counts 1/2/8.
    #[test]
    fn blocked_gemm_is_bitwise_equal_to_reference(
        m in 1usize..40,
        k in 1usize..160,
        n in 1usize..600,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_buf(&mut rng, m * k);
        let b = random_buf(&mut rng, k * n);
        let mut want = vec![0.0f32; m * n];
        gemm_reference(&a, &b, &mut want, m, k, n);
        for threads in [1usize, 2, 8] {
            let mut got = vec![0.0f32; m * n];
            gemm_with_threads(&a, &b, &mut got, m, k, n, threads);
            prop_assert_eq!(bits(&want), bits(&got), "{}x{}x{} t={}", m, k, n, threads);
        }
    }

    // Transposed operands: (Bᵀ·Aᵀ)ᵀ exercises the kernels on the
    // swapped-extent shapes the autodiff backward pass produces, and
    // must match the reference on those shapes bit for bit.
    #[test]
    fn transposed_operands_match_reference(
        m in 1usize..24,
        k in 1usize..96,
        n in 1usize..96,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
        let a = NdArray::from_vec(random_buf(&mut rng, m * k), &[m, k]).unwrap();
        let b = NdArray::from_vec(random_buf(&mut rng, k * n), &[k, n]).unwrap();
        let bt = b.transpose2d().unwrap();
        let at = a.transpose2d().unwrap();
        let mut want = vec![0.0f32; n * m];
        gemm_reference(bt.as_slice(), at.as_slice(), &mut want, n, k, m);
        for threads in [1usize, 2, 8] {
            let mut got = vec![0.0f32; n * m];
            gemm_with_threads(bt.as_slice(), at.as_slice(), &mut got, n, k, m, threads);
            prop_assert_eq!(bits(&want), bits(&got), "t={}", threads);
        }
    }
}

/// The reference kernel (and therefore the blocked kernels, by the
/// bitwise-equality property above) matches the pre-optimization
/// zero-skip loop on finite inputs: skipping `0 × finite` only ever
/// dropped `±0.0` addends, which are exact no-ops on these sums.
#[test]
fn reference_matches_legacy_zero_skip_kernel_on_finite_inputs() {
    let legacy = |a: &[f32], b: &[f32], m: usize, k: usize, n: usize| {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            for (kk, &x) in arow.iter().enumerate() {
                if x == 0.0 {
                    continue;
                }
                let brow = &b[kk * n..(kk + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += x * bv;
                }
            }
        }
        out
    };
    let mut rng = StdRng::seed_from_u64(7);
    for &(m, k, n) in &[(3usize, 17usize, 29usize), (8, 72, 256), (16, 144, 100)] {
        let a = random_buf(&mut rng, m * k);
        let b = random_buf(&mut rng, k * n);
        let mut new = vec![0.0f32; m * n];
        gemm(&a, &b, &mut new, m, k, n);
        assert_eq!(bits(&legacy(&a, &b, m, k, n)), bits(&new), "{m}x{k}x{n}");
    }
}

/// Regression for the NaN-swallowing zero-skip: `0 × NaN` must be NaN
/// all the way through the public `NdArray::matmul`.
#[test]
fn matmul_propagates_zero_times_nan() {
    let a = NdArray::from_vec(vec![0.0, 0.0, 1.0, 2.0], &[2, 2]).unwrap();
    let b = NdArray::from_vec(vec![f32::NAN, 1.0, 3.0, 4.0], &[2, 2]).unwrap();
    let out = a.matmul(&b).unwrap();
    assert!(out.as_slice()[0].is_nan(), "row with 0×NaN must be NaN");
    assert!(out.as_slice()[2].is_nan(), "0×NaN in an otherwise finite dot must poison it");
    // 0 × inf likewise produces NaN rather than being skipped.
    let c = NdArray::from_vec(vec![f32::INFINITY, 1.0, 3.0, 4.0], &[2, 2]).unwrap();
    let out = a.matmul(&c).unwrap();
    assert!(out.as_slice()[0].is_nan(), "0 × inf must contribute NaN");
}

/// im2col convolution forward + backward are byte-identical at thread
/// counts 1/2/8 — the shapes are large enough that the threaded path
/// genuinely engages (the work threshold is crossed).
#[test]
fn conv_forward_backward_bytes_identical_across_thread_counts() {
    let (batch, cin, cout, h, w) = (32usize, 4usize, 8usize, 18usize, 18usize);
    let mut rng = StdRng::seed_from_u64(11);
    let input =
        NdArray::from_vec(random_buf(&mut rng, batch * cin * h * w), &[batch, cin, h, w]).unwrap();
    let weight = NdArray::from_vec(random_buf(&mut rng, cout * cin * 9), &[cout, cin, 3, 3]).unwrap();
    let bias = NdArray::from_vec(random_buf(&mut rng, cout), &[cout]).unwrap();
    let gout =
        NdArray::from_vec(random_buf(&mut rng, batch * cout * h * w), &[batch, cout, h, w]).unwrap();

    let run = || {
        let out = conv2d_forward(&input, &weight, Some(&bias), 1, 1).unwrap();
        let (gi, gw, gb) = conv2d_backward(&input, &weight, &gout, 1, 1, [true; 3]).unwrap();
        let mut all = bits(out.as_slice());
        for g in [gi, gw, gb] {
            all.extend(bits(g.unwrap().as_slice()));
        }
        all
    };

    set_gemm_threads(1);
    let t1 = run();
    set_gemm_threads(2);
    let t2 = run();
    set_gemm_threads(8);
    let t8 = run();
    set_gemm_threads(0);
    assert_eq!(t1, t2, "conv bytes differ between 1 and 2 threads");
    assert_eq!(t1, t8, "conv bytes differ between 1 and 8 threads");
}

// ---------------------------------------------------------------------------
// Fast-tier (FMA-contracted) cases. `gemm_tiered` takes the tier as an
// explicit argument, so these run side by side with the exact-tier
// properties above without mutating the process-wide tier.
// ---------------------------------------------------------------------------

/// The UNet im2col shapes the training/inference hot loop actually hits
/// (m = channels, k = cin·3·3, n = spatial positions × batch).
const UNET_IM2COL_SHAPES: [(usize, usize, usize); 4] =
    [(8, 54, 8192), (16, 72, 2048), (32, 144, 4096), (64, 288, 1024)];

/// Documented Fast-tier bound (also in `kernels` module docs): for each
/// output element, `|fast − exact| ≤ 2·k·ε·Σᵢ|aᵢ·bᵢ|` with ε = 2⁻²⁴.
/// Both tiers are within `k·ε·Σ|a·b|` of the infinitely-precise dot
/// (standard forward error of a length-k recursive summation; FMA only
/// removes one rounding per step), so their mutual distance is at most
/// twice that. The f64 abs-dot is computed alongside an f64 reference.
fn assert_fma_bound(exact: &[f32], fast: &[f32], absdot: &[f64], k: usize, label: &str) {
    let gamma = 2.0 * k as f64 * f64::from(f32::EPSILON) * 0.5; // 2·k·ε, ε = 2⁻²⁴
    for (i, ((&e, &f), &ad)) in exact.iter().zip(fast).zip(absdot).enumerate() {
        let err = (f64::from(e) - f64::from(f)).abs();
        let bound = gamma * ad + 1e-12;
        assert!(
            err <= bound,
            "{label}: element {i} exceeds FMA bound: exact={e} fast={f} err={err:.3e} bound={bound:.3e}"
        );
    }
}

/// f64 reference dot products plus the per-element Σ|a·b| the bound needs.
fn reference_f64(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> (Vec<f64>, Vec<f64>) {
    let mut out = vec![0.0f64; m * n];
    let mut absdot = vec![0.0f64; m * n];
    for i in 0..m {
        for kk in 0..k {
            let x = f64::from(a[i * k + kk]);
            for j in 0..n {
                let p = x * f64::from(b[kk * n + j]);
                out[i * n + j] += p;
                absdot[i * n + j] += p.abs();
            }
        }
    }
    (out, absdot)
}

/// FMA-GEMM vs reference across the UNet im2col shapes: each element
/// stays within the documented relative-error bound of the exact tier,
/// and both tiers stay within half the bound of the f64 reference.
#[test]
fn fast_tier_gemm_within_documented_bound_on_unet_shapes() {
    let mut rng = StdRng::seed_from_u64(23);
    for &(m, k, n) in &UNET_IM2COL_SHAPES {
        let a = random_buf(&mut rng, m * k);
        let b = random_buf(&mut rng, k * n);
        let (ref64, absdot) = reference_f64(&a, &b, m, k, n);
        let mut exact = vec![0.0f32; m * n];
        gemm_tiered(&a, &b, &mut exact, m, k, n, 1, NumericsTier::Exact);
        let mut fast = vec![0.0f32; m * n];
        gemm_tiered(&a, &b, &mut fast, m, k, n, 1, NumericsTier::Fast);
        assert_fma_bound(&exact, &fast, &absdot, k, &format!("{m}x{k}x{n}"));
        // Each tier individually honors half the bound vs the f64 truth.
        let half_gamma = k as f64 * f64::from(f32::EPSILON) * 0.5;
        for (label, got) in [("exact", &exact), ("fast", &fast)] {
            for (i, (&g, (&r, &ad))) in got.iter().zip(ref64.iter().zip(&absdot)).enumerate() {
                let err = (f64::from(g) - r).abs();
                // One extra ε·|r| covers the final f64→f32 narrowing.
                let bound = half_gamma * ad + f64::from(f32::EPSILON) * r.abs() + 1e-12;
                assert!(
                    err <= bound,
                    "{label} {m}x{k}x{n}: element {i} err={err:.3e} bound={bound:.3e}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Fast tier is still bit-deterministic: the FMA kernel keeps the
    // ascending-k accumulation order, so thread count never changes a
    // bit *within* the tier (only the tier switch does).
    #[test]
    fn fast_tier_is_bitwise_deterministic_across_thread_counts(
        m in 1usize..40,
        k in 1usize..160,
        n in 1usize..600,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51ed_270b);
        let a = random_buf(&mut rng, m * k);
        let b = random_buf(&mut rng, k * n);
        let mut want = vec![0.0f32; m * n];
        gemm_tiered(&a, &b, &mut want, m, k, n, 1, NumericsTier::Fast);
        for threads in [2usize, 3, 8] {
            let mut got = vec![0.0f32; m * n];
            gemm_tiered(&a, &b, &mut got, m, k, n, threads, NumericsTier::Fast);
            prop_assert_eq!(bits(&want), bits(&got), "fast tier {}x{}x{} t={}", m, k, n, threads);
        }
    }
}
