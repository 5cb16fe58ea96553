//! Bit-exactness contracts of the optimized simulator kernels.
//!
//! The interior/border split of `PadKernel::apply` and the optimized
//! contact solver must reproduce their reference implementations bit for
//! bit — these properties compare `f64` bit patterns, never values.

use neurfill_cmpsim::contact::{
    solve_reference_plane, solve_reference_plane_reference, solve_reference_plane_stats,
    window_pressures,
};
use neurfill_cmpsim::shard::{dish_erosion_factors, finalize_layer, polish_pointwise};
use neurfill_cmpsim::{CmpSimulator, LayerInput, LayerProfile, PadKernel, ProcessParams};
use neurfill_layout::benchmark_designs;
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
    // fields, where the bracket's ulp-tie walk path is most likely, and
    // chip-sized boards, where the anchors' rounding margin is widest.
    #[test]
    fn contact_solver_is_bitwise_equal_to_reference(
        n in prop_oneof![1usize..300, 300usize..65_537],
        base in -100.0f64..600.0,
        spread in 0.0f64..80.0,
        exponent in prop_oneof![Just(1.0f64), Just(1.5), 1.0f64..2.5],
        penetration in 0.5f64..60.0,
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

fn assert_contact_bits_eq(heights: &[f64], params: &ProcessParams, what: &str) {
    let want = solve_reference_plane_reference(heights, params);
    let got = solve_reference_plane(heights, params);
    assert_eq!(want.to_bits(), got.to_bits(), "{what}: {want} vs {got}");
}

/// Boards that stress the anchored probes: roots inside the anchor gap,
/// windows out of contact, magnitudes where the reach is below an ulp,
/// non-finite heights, and stiffnesses that leave the optimized path.
#[test]
fn contact_solver_matches_reference_on_hard_boards() {
    let mut rng = StdRng::seed_from_u64(7);
    let exponents = [1.0, 1.5, 2.5];
    let with_exponent = |e: f64| ProcessParams { contact_exponent: e, ..ProcessParams::default() };
    for n in [1usize, 2, 64, 4096] {
        for e in exponents {
            let p = with_exponent(e);
            // Near-flat: the whole bisection endgame sits between the anchors.
            for spread in [1e-12, 1e-10, 1e-9, 1e-8, 1e-6] {
                let heights: Vec<f64> =
                    (0..n).map(|_| 500.0 + rng.gen_range(0.0..=1.0) * spread).collect();
                assert_contact_bits_eq(&heights, &p, &format!("spread {spread} n={n} e={e}"));
            }
            // Two levels, one window far out of contact.
            let mut heights = vec![500.0; n];
            heights[n / 2] = 300.0;
            assert_contact_bits_eq(&heights, &p, &format!("two-level n={n} e={e}"));
            // Heights where a sub-nanometre reach rounds away.
            for base in [1e9, -1e9] {
                let heights: Vec<f64> = (0..n).map(|_| base + rng.gen_range(0.0..40.0)).collect();
                assert_contact_bits_eq(&heights, &p, &format!("base {base} n={n} e={e}"));
            }
            let heights: Vec<f64> = (0..n).map(|i| if i % 2 == 0 { 1e9 } else { -1e9 }).collect();
            assert_contact_bits_eq(&heights, &p, &format!("±1e9 n={n} e={e}"));
            // Non-finite heights: NaN is invisible to the force sum, ±∞
            // drags the bracket to infinity; the reference terminates on
            // all of them as long as one height is finite.
            if n >= 2 {
                for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                    let mut heights: Vec<f64> = (0..n).map(|_| rng.gen_range(760.0..800.0)).collect();
                    heights[n - 1] = bad;
                    assert_contact_bits_eq(&heights, &p, &format!("{bad} last n={n} e={e}"));
                    if n >= 3 {
                        heights[0] = bad;
                        assert_contact_bits_eq(&heights, &p, &format!("{bad} first+last n={n} e={e}"));
                    }
                }
            }
        }
    }
    // Degenerate stiffness: `pen^e` under- or overflows, k is ∞ or 0.
    let heights: Vec<f64> = (0..64).map(|_| rng.gen_range(760.0..800.0)).collect();
    for pen in [1e-200, 1e200] {
        let p = ProcessParams {
            contact_exponent: 2.0,
            reference_penetration: pen,
            ..ProcessParams::default()
        };
        assert!(!(p.contact_stiffness().is_finite() && p.contact_stiffness() != 0.0));
        assert_contact_bits_eq(&heights, &p, &format!("degenerate k, pen {pen}"));
    }
}

/// The anchors must actually engage on the boards the benchmark solves
/// (otherwise every equality above is the old code path comparing with
/// itself): a chip-sized mid-polish board takes a handful of passes.
#[test]
fn contact_solver_skips_most_probes_on_a_chip_sized_board() {
    let mut rng = StdRng::seed_from_u64(3);
    let p = ProcessParams::default();
    let heights: Vec<f64> = (0..65_536).map(|_| rng.gen_range(760.0..800.0)).collect();
    let (got, stats) = solve_reference_plane_stats(&heights, &p);
    assert_eq!(solve_reference_plane_reference(&heights, &p).to_bits(), got.to_bits());
    assert!(stats.force_evals + stats.hint_passes <= 10, "{stats:?}");
    assert!(stats.anchored_probes >= 30, "{stats:?}");
}

/// The paper's polish loop (§II-A) written out against the *reference*
/// contact solver; `CmpSimulator` must reproduce it bit for bit.
fn simulate_layer_with_reference_solver(input: &LayerInput, p: &ProcessParams) -> LayerProfile {
    let (rows, cols) = (input.rows, input.cols);
    let kernel = PadKernel::exponential(p.character_length, p.kernel_radius);
    let rho_eff = kernel.apply(&input.density, rows, cols);
    let (dish, erosion) = dish_erosion_factors(&input.avg_width, &input.perimeter, p);
    let mut z_up = vec![p.initial_height; rows * cols];
    let mut z_down: Vec<f64> = z_up.iter().map(|z| z - p.initial_step).collect();
    for _ in 0..p.steps {
        let smoothed = kernel.apply(&z_up, rows, cols);
        let z_ref = solve_reference_plane_reference(&smoothed, p);
        let pressures = window_pressures(&smoothed, z_ref, p);
        polish_pointwise(&mut z_up, &mut z_down, &pressures, &rho_eff, &dish, &erosion, p);
    }
    finalize_layer(rows, cols, &input.density, &z_up, &z_down)
}

/// End-to-end pin: designs A/B/C at the flow's 32×32 under the default
/// process, every layer — 450 real mid-polish boards through the
/// anchored solver, compared on the final profiles.
#[test]
fn simulator_matches_a_polish_loop_on_the_reference_solver() {
    let p = ProcessParams::default();
    let sim = CmpSimulator::new(p.clone()).unwrap();
    for layout in benchmark_designs(32, 32, 1) {
        for layer in 0..layout.num_layers() {
            let input = LayerInput::from_layout(&layout, layer);
            let want = simulate_layer_with_reference_solver(&input, &p);
            let got = sim.simulate_layer(&input);
            let what = format!("{} layer {layer}", layout.name());
            assert_bits_eq(got.heights(), want.heights(), &format!("{what}: heights"));
            assert_bits_eq(got.dishing(), want.dishing(), &format!("{what}: dishing"));
            assert_bits_eq(got.erosion(), want.erosion(), &format!("{what}: erosion"));
        }
    }
}
