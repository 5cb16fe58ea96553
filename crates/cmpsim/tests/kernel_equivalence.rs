//! Bit-exactness contracts of the optimized simulator kernels.
//!
//! The interior/border split of `PadKernel::apply` and the optimized
//! contact solver must reproduce their reference implementations bit for
//! bit — these properties compare `f64` bit patterns, never values.

use neurfill_cmpsim::contact::{solve_reference_plane, solve_reference_plane_reference};
use neurfill_cmpsim::{PadKernel, ProcessParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_field(rng: &mut StdRng, len: usize) -> Vec<f64> {
    (0..len).map(|_| rng.gen_range(-50.0f64..500.0)).collect()
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i} ({x} vs {y})");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Interior fast path + border class table == reference bounds-checked
    // loop, bitwise, on random grids (including grids smaller than the
    // kernel window, where everything is border).
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

    // Optimized contact solver == reference solver, bitwise, across
    // random height fields and process parameters — including flat
    // fields, where the bracket's ulp-tie walk path is most likely.
    #[test]
    fn contact_solver_is_bitwise_equal_to_reference(
        n in 1usize..300,
        base in -100.0f64..600.0,
        spread in 0.0f64..80.0,
        exponent in prop_oneof![Just(1.0f64), Just(1.3), Just(1.5)],
        penetration in 1.0f64..60.0,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let heights: Vec<f64> =
            (0..n).map(|_| base + rng.gen_range(0.0..=1.0) * spread).collect();
        let params = ProcessParams {
            contact_exponent: exponent,
            reference_penetration: penetration,
            ..ProcessParams::default()
        };
        let want = solve_reference_plane_reference(&heights, &params);
        let got = solve_reference_plane(&heights, &params);
        prop_assert_eq!(want.to_bits(), got.to_bits(), "{} vs {}", want, got);
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

/// Flat fields sit exactly on the contact bracket's mathematical
/// boundary (`mean_force(lo₀) = target` up to rounding) — pin the
/// optimized solver to the reference there explicitly.
#[test]
fn contact_solver_matches_reference_on_flat_fields() {
    for n in [1usize, 2, 3, 64, 1000] {
        for h in [0.0f64, 500.0, -250.0, 1e-12] {
            let heights = vec![h; n];
            let params = ProcessParams::default();
            let want = solve_reference_plane_reference(&heights, &params);
            let got = solve_reference_plane(&heights, &params);
            assert_eq!(want.to_bits(), got.to_bits(), "n={n} h={h}");
        }
    }
}
