//! Property-based tests of the CMP simulator's physical invariants.

use neurfill_cmpsim::{contact, CmpSimulator, LayerInput, PadKernel, ProcessParams};
use neurfill_layout::{Grid, Layout, WindowPattern};
use proptest::prelude::*;

fn params() -> ProcessParams {
    ProcessParams { steps: 12, kernel_radius: 2, ..ProcessParams::default() }
}

fn layer_input(rows: usize, cols: usize, densities: Vec<f64>) -> LayerInput {
    LayerInput {
        rows,
        cols,
        perimeter: densities.iter().map(|d| 2.0 * 10_000.0 * d / 0.2).collect(),
        avg_width: vec![0.2; rows * cols],
        density: densities,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn heights_are_finite_and_below_initial(
        densities in proptest::collection::vec(0.05f64..0.95, 36)
    ) {
        let sim = CmpSimulator::new(params()).unwrap();
        let out = sim.simulate_layer(&layer_input(6, 6, densities));
        for &h in out.heights() {
            prop_assert!(h.is_finite());
            prop_assert!(h < params().initial_height);
            prop_assert!(h > 0.0, "over-polished to {h}");
        }
        for &d in out.dishing() {
            prop_assert!(d >= 0.0 && d <= params().initial_step + 1e-9);
        }
        for &e in out.erosion() {
            prop_assert!(e >= -1e-9);
        }
    }

    #[test]
    fn uniform_density_gives_flat_surface(d in 0.1f64..0.9) {
        let sim = CmpSimulator::new(params()).unwrap();
        let out = sim.simulate_layer(&layer_input(5, 5, vec![d; 25]));
        prop_assert!(out.height_range() < 1e-9, "range {}", out.height_range());
    }

    #[test]
    fn simulation_is_permutation_equivariant_under_transpose(
        densities in proptest::collection::vec(0.1f64..0.9, 25)
    ) {
        // Transposing the input pattern transposes the output heights
        // (the kernel is isotropic and the physics is position-free).
        let sim = CmpSimulator::new(params()).unwrap();
        let base = layer_input(5, 5, densities.clone());
        let mut transposed_density = vec![0.0; 25];
        for r in 0..5 {
            for c in 0..5 {
                transposed_density[c * 5 + r] = densities[r * 5 + c];
            }
        }
        let transposed = layer_input(5, 5, transposed_density);
        let a = sim.simulate_layer(&base);
        let b = sim.simulate_layer(&transposed);
        for r in 0..5 {
            for c in 0..5 {
                prop_assert!((a.height(r, c) - b.height(c, r)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn pressure_balance_holds_for_any_topography(
        heights in proptest::collection::vec(400.0f64..600.0, 49)
    ) {
        let p = params();
        let z_ref = contact::solve_reference_plane(&heights, &p);
        let q = contact::window_pressures(&heights, z_ref, &p);
        let mean: f64 = q.iter().sum::<f64>() / q.len() as f64;
        prop_assert!((mean - p.applied_pressure).abs() < 1e-5, "mean pressure {mean}");
        prop_assert!(q.iter().all(|v| *v >= 0.0));
    }

    #[test]
    fn kernel_preserves_mean_on_interior(
        field in proptest::collection::vec(0.0f64..1.0, 81)
    ) {
        // Edge renormalization keeps values a convex combination, so the
        // smoothed field stays within the input's range.
        let k = PadKernel::exponential(1.5, 2);
        let out = k.apply(&field, 9, 9);
        let lo = field.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = field.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for v in out {
            prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
        }
    }

    #[test]
    fn more_polish_time_removes_more_material(
        densities in proptest::collection::vec(0.2f64..0.8, 16)
    ) {
        let short = CmpSimulator::new(ProcessParams { steps: 5, kernel_radius: 2, ..ProcessParams::default() }).unwrap();
        let long = CmpSimulator::new(ProcessParams { steps: 25, kernel_radius: 2, ..ProcessParams::default() }).unwrap();
        let input = layer_input(4, 4, densities);
        let a = short.simulate_layer(&input);
        let b = long.simulate_layer(&input);
        for (ha, hb) in a.heights().iter().zip(b.heights()) {
            prop_assert!(hb < ha, "longer polish must sit lower: {hb} !< {ha}");
        }
    }
}

/// A uniform layout: every window of a 32×32 layer alike. Every window
/// sees the same contact depth, up to the pad kernel's renormalization at
/// the chip edge, so the default 50-step polish leaves the layer flat to
/// rounding: a range below 1e-10 nm, under a thousand ulp of its height
/// (about thirty are seen).
#[test]
fn a_uniform_layout_polishes_to_zero_height_range() {
    let sim = CmpSimulator::new(ProcessParams::default()).unwrap();
    for (width, spacing) in [(0.1, 0.9), (0.2, 0.2), (1.0, 0.25)] {
        let pattern = WindowPattern::from_line_model(width, spacing, 10_000.0, 0.8);
        let layout = Layout::new("uniform", 100.0, vec![Grid::filled(32, 32, pattern)], 1.0);
        let range = sim.simulate(&layout).max_height_range();
        println!("width {width} spacing {spacing}: range {range:e}");
        assert!(range < 1e-10, "width {width} spacing {spacing}: range {range:e} nm");
    }
}

/// `Σ values` with Neumaier's compensation: exact enough that the
/// residual below measures the solve, not this sum.
fn compensated_sum(values: &[f64]) -> f64 {
    let (mut sum, mut carry) = (0.0f64, 0.0f64);
    for &v in values {
        let t = sum + v;
        carry += if sum.abs() >= v.abs() { (sum - t) + v } else { (v - t) + sum };
        sum = t;
    }
    sum + carry
}

/// Designs A/B/C at 32×32 under the default process, every layer: after
/// every contact solve of the polish loop, the window pressures balance
/// the applied pressure `P` to within the solve's certified residual
/// bound, `(n/2 + 16)·ε·P + 8ε·|z_ref|·|f′(z_ref)|`, with
/// `f′ = (3/2)·k·Σ√d / n` the force's slope.
#[test]
fn force_balance_residual_stays_within_its_bound_after_every_abc_solve() {
    use neurfill_cmpsim::{dish_erosion_factors, polish_pointwise};
    let p = ProcessParams::default();
    let (k, e) = (p.contact_stiffness(), p.contact_exponent);
    let kernel = PadKernel::exponential(p.character_length, p.kernel_radius);
    let mut worst: f64 = 0.0;
    for layout in neurfill_layout::benchmark_designs(32, 32, 1) {
        for layer in 0..layout.num_layers() {
            let input = LayerInput::from_layout(&layout, layer);
            let (rows, cols, n) = (input.rows, input.cols, (input.rows * input.cols) as f64);
            let rho_eff = kernel.apply(&input.density, rows, cols);
            let (dish, erosion) = dish_erosion_factors(&input.avg_width, &input.perimeter, &p);
            let mut z_up = vec![p.initial_height; rows * cols];
            let mut z_down: Vec<f64> = z_up.iter().map(|z| z - p.initial_step).collect();
            for step in 0..p.steps {
                let smoothed = kernel.apply(&z_up, rows, cols);
                let z_ref = contact::solve_reference_plane(&smoothed, &p);
                let q = contact::window_pressures(&smoothed, z_ref, &p);
                let residual = (compensated_sum(&q) / n - p.applied_pressure).abs();
                let roots: Vec<f64> = smoothed.iter().map(|z| (z - z_ref).max(0.0).sqrt()).collect();
                let slope = e * k * compensated_sum(&roots) / n;
                let bound = (n / 2.0 + 16.0) * f64::EPSILON * p.applied_pressure
                    + 8.0 * f64::EPSILON * z_ref.abs() * slope;
                assert!(
                    residual <= bound,
                    "{} layer {layer} step {step}: residual {residual:e} over {bound:e}",
                    layout.name()
                );
                worst = worst.max(residual / bound);
                polish_pointwise(&mut z_up, &mut z_down, &q, &rho_eff, &dish, &erosion, &p);
            }
        }
    }
    println!("worst residual: {worst:.3} of its bound");
}
