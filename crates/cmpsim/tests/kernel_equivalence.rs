//! Bit-exactness contracts of the optimized pad kernel.
//!
//! The row-accumulated `PadKernel::apply_window_into` (and `apply`, its
//! full-board window) must reproduce `apply_reference` bit for bit —
//! these properties compare `f64` bit patterns, never values. (The
//! contact solve is certified against its bisection oracle to a
//! tolerance, in `contact`'s own tests.)

use neurfill_cmpsim::PadKernel;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

fn random_field(rng: &mut StdRng, len: usize) -> Vec<f64> {
    (0..len).map(|_| rng.gen_range(-50.0f64..500.0)).collect()
}

/// A window along an axis of length `n` for radius `r`, of one of seven
/// kinds: full, empty, at the start edge, at the end edge, one cell
/// wide, narrower than the radius, or anywhere. Corners are two edge
/// kinds on the two axes.
fn axis_window(kind: usize, n: usize, r: usize, rng: &mut StdRng) -> Range<usize> {
    let at = rng.gen_range(0..=n);
    let len = rng.gen_range(0..=n);
    match kind {
        0 => 0..n,
        1 => at..at,
        2 => 0..len,
        3 => n - len..n,
        4 => {
            let c = rng.gen_range(0..n);
            c..c + 1
        }
        5 => {
            let w = rng.gen_range(0..=r.min(n));
            let start = rng.gen_range(0..=n - w);
            start..start + w
        }
        _ => at.min(len)..at.max(len),
    }
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i} ({x} vs {y})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Any window of the row-accumulated kernel == the same crop of the
    // reference on the whole field, bitwise.
    #[test]
    fn pad_kernel_window_is_the_reference_crop_bitwise(
        rows in 1usize..48,
        cols in 1usize..48,
        radius in 0usize..7,
        row_kind in 0usize..7,
        col_kind in 0usize..7,
        character_length in 0.4f64..4.0,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let field = random_field(&mut rng, rows * cols);
        let kernel = PadKernel::exponential(character_length, radius);
        let rw = axis_window(row_kind, rows, radius, &mut rng);
        let cw = axis_window(col_kind, cols, radius, &mut rng);
        let mut got = vec![f64::NAN; rw.len() * cw.len()];
        kernel.apply_window_into(&field, rows, cols, rw.clone(), cw.clone(), &mut got);
        let reference = kernel.apply_reference(&field, rows, cols);
        for (k, i) in rw.clone().enumerate() {
            for (l, j) in cw.clone().enumerate() {
                prop_assert_eq!(
                    got[k * cw.len() + l].to_bits(), reference[i * cols + j].to_bits(),
                    "{}x{} r={} window {:?} x {:?} pixel ({}, {})", rows, cols, radius, rw, cw, i, j
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Row-accumulated columns + edge columns == reference bounds-checked
    // loop, bitwise, on random grids (including grids smaller than the
    // kernel window, where every column is an edge column).
    #[test]
    fn pad_kernel_split_is_bitwise_equal_to_reference(
        rows in 1usize..20,
        cols in 1usize..20,
        radius in 0usize..5,
        character_length in 0.4f64..4.0,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let field = random_field(&mut rng, rows * cols);
        let kernel = PadKernel::exponential(character_length, radius);
        let fast = kernel.apply(&field, rows, cols);
        let slow = kernel.apply_reference(&field, rows, cols);
        for (i, (x, y)) in fast.iter().zip(&slow).enumerate() {
            prop_assert_eq!(
                x.to_bits(), y.to_bits(),
                "{}x{} r={} element {}", rows, cols, radius, i
            );
        }
    }

}

/// Degenerate pad-kernel grids: single row / single column strips where
/// the kernel window always clips on one axis.
#[test]
fn pad_kernel_matches_reference_on_strip_grids() {
    let mut rng = StdRng::seed_from_u64(42);
    for radius in [0usize, 1, 2, 4] {
        let kernel = PadKernel::exponential(1.5, radius);
        for &(rows, cols) in &[(1usize, 17usize), (17, 1), (1, 1), (2, 9), (9, 2)] {
            let field = random_field(&mut rng, rows * cols);
            assert_bits_eq(
                &kernel.apply(&field, rows, cols),
                &kernel.apply_reference(&field, rows, cols),
                &format!("{rows}x{cols} r={radius}"),
            );
        }
    }
}
