//! Bit-exactness contract of the blocked GEMM layer.
//!
//! The blocked/threaded kernels must reproduce the reference i-k-j loop
//! bit for bit at every shape and thread count — that is what keeps the
//! simulator, training and labeling pipelines byte-reproducible while
//! the hot loop gets faster. These tests compare raw `f32` bit patterns,
//! never values, so `-0.0` vs `0.0` and NaN payload differences count as
//! failures.

use neurfill_tensor::kernels::{
    gemm, gemm_bt_with_threads, gemm_reference, gemm_with_threads, set_gemm_threads,
};
use neurfill_tensor::{conv2d_backward, conv2d_forward, NdArray};
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

    // A right operand handed over transposed (`n × k`, read through the
    // packing step) == the reference on the materialized `k × n` matrix,
    // bitwise, accumulating onto a non-zero `out`. The ranges cover
    // `n < NR` (tail columns only), `k` off the `KC` strip boundary,
    // `m < 4` (single-row micro-kernel only) and products small enough
    // for the unblocked fallback.
    #[test]
    fn transposed_operand_gemm_is_bitwise_equal_to_reference(
        m in 1usize..40,
        k in 1usize..300,
        n in 1usize..200,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5bd1_e995);
        let a = random_buf(&mut rng, m * k);
        let bt = NdArray::from_vec(random_buf(&mut rng, n * k), &[n, k]).unwrap();
        let b = bt.transpose2d().unwrap();
        let start = random_buf(&mut rng, m * n);
        let mut want = start.clone();
        gemm_reference(&a, b.as_slice(), &mut want, m, k, n);
        for threads in [1usize, 2, 3, 8] {
            let mut got = start.clone();
            gemm_bt_with_threads(&a, bt.as_slice(), &mut got, m, k, n, threads);
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
