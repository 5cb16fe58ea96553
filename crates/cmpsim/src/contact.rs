//! Contact-mechanics pressure solve (paper §II-A step 2).
//!
//! The rough pad is modelled as a bed of asperities: the contact pressure
//! on a window whose (smoothed) envelope height is `z` is
//! `p(z) = k · max(0, z − z_ref)^e`, and the pad reference plane `z_ref`
//! floats so that the mean window pressure balances the applied pressure.
//! `z_ref` is found by bisection (the force balance is strictly monotone).
//!
//! [`solve_reference_plane`] is **bit-identical** to the
//! pre-optimization solver (kept as [`solve_reference_plane_reference`])
//! on every input where that solver terminates. It hoists the min/max
//! scans into a single pass, skips non-contacting windows inside the
//! force sum (an exact no-op: their reference contribution is `+0.0`
//! added to a non-negative sum), and replaces the unbounded one-step
//! bracket walk with a galloping + binary search over the *same*
//! sequential-subtraction grid — O(log) force evaluations instead of
//! O(steps), landing on the identical grid point bit for bit.

use crate::params::ProcessParams;
use std::cell::Cell;

/// Instrumentation from one reference-plane solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ContactSolveStats {
    /// Number of mean-force evaluations (each O(windows)).
    pub force_evals: u64,
    /// Grid steps taken while bracketing the root from below.
    pub bracket_steps: u64,
}

/// Solves for the pad reference plane `z_ref` so that
/// `mean_i k·⟨z_i − z_ref⟩^e = applied_pressure`.
///
/// Returns `z_ref`. The heights are the *smoothed* envelope heights.
/// Bit-identical to [`solve_reference_plane_reference`] wherever the
/// latter terminates (see the module docs).
///
/// # Panics
///
/// Panics when `heights` is empty.
#[must_use]
pub fn solve_reference_plane(heights: &[f64], params: &ProcessParams) -> f64 {
    solve_reference_plane_stats(heights, params).0
}

/// [`solve_reference_plane`] plus solve instrumentation.
///
/// # Panics
///
/// Panics when `heights` is empty.
#[must_use]
pub fn solve_reference_plane_stats(heights: &[f64], params: &ProcessParams) -> (f64, ContactSolveStats) {
    assert!(!heights.is_empty(), "need at least one window");
    let k = params.contact_stiffness();
    let e = params.contact_exponent;
    let target = params.applied_pressure;
    if !(k.is_finite() && k != 0.0) {
        // Degenerate stiffness (overflowed/underflowed `pen^e`): the
        // zero-skip below is no longer an exact no-op (`k · 0` may be
        // NaN), so take the reference loop verbatim.
        return (solve_reference_plane_reference(heights, params), ContactSolveStats::default());
    }
    // Single pass over the heights for both extrema (the reference
    // solver folded twice); `f64::max`/`min` keep its exact NaN and
    // signed-zero semantics.
    let mut zmax = f64::NEG_INFINITY;
    let mut zmin = f64::INFINITY;
    for &z in heights {
        zmax = f64::max(zmax, z);
        zmin = f64::min(zmin, z);
    }
    let evals = Cell::new(0u64);
    // Windows at or below the plane contribute `k · max(0, ·)^e = +0.0`
    // in the reference sum; adding `+0.0` to a non-negative partial sum
    // is an exact no-op, so they are skipped without changing a bit.
    // (NaN heights also match: the reference maps them to `+0.0` via
    // `max(0.0)`, and `NaN > z` is false here.)
    let mean_force = |z_ref: f64| -> f64 {
        evals.set(evals.get() + 1);
        let mut sum = 0.0;
        for &z in heights {
            if z > z_ref {
                sum += k * (z - z_ref).powf(e);
            }
        }
        sum / heights.len() as f64
    };
    let hi = zmax;
    let (lo, bracket_steps) = bracket_lo(
        zmin - params.reference_penetration,
        params.reference_penetration.max(1.0),
        zmax,
        target,
        mean_force,
    );
    let z_ref = bisect(lo, hi, target, mean_force);
    (z_ref, ContactSolveStats { force_evals: evals.get(), bracket_steps })
}

/// The 200-iteration bisection (verbatim from the reference
/// implementation — same probes, same exit test).
fn bisect(mut lo: f64, mut hi: f64, target: f64, mean_force: impl Fn(f64) -> f64) -> f64 {
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if mean_force(mid) > target {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo < 1e-9 {
            break;
        }
    }
    0.5 * (lo + hi)
}

/// Brackets the root from below: returns the same grid point the
/// reference walk
///
/// ```text
/// while mean_force(lo) < target { lo -= step; if zmax - lo > 1e7 { break } }
/// ```
///
/// would return, using O(log steps) force evaluations instead of one per
/// step. The walk's grid is the *sequential* subtraction sequence
/// `lo_{j+1} = lo_j − step` (not `lo_0 − j·step`, which rounds
/// differently), so grid points are recomputed by replaying
/// subtractions. Mathematically `mean_force(lo_0) ≥ target` always holds
/// (every window penetrates by at least the reference penetration at
/// `lo_0`), so the fast path — one evaluation, zero steps — is the norm
/// and the walk only triggers on ulp-level rounding ties.
///
/// Termination is strictly better than the reference: where the walk
/// cannot make progress (`lo − step == lo` at large magnitudes, or the
/// NaN-guard cases where the reference loops forever), this returns the
/// stall point instead of hanging.
///
/// The `!(force < target)` comparisons are deliberate (and exempted from
/// `clippy::neg_cmp_op_on_partial_ord`): a NaN force must exit the walk
/// exactly like the reference `while` condition does, which `>=` or
/// `partial_cmp` would not reproduce.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn bracket_lo(l0: f64, step: f64, zmax: f64, target: f64, force: impl Fn(f64) -> f64) -> (f64, u64) {
    if !(force(l0) < target) {
        return (l0, 0);
    }
    // Replays j sequential subtractions from `l0` (the walk's exact FP grid).
    let grid = |j: u64| -> f64 {
        let mut v = l0;
        for _ in 0..j {
            v -= step;
        }
        v
    };
    // First crossing in (a, b] given force(grid(a)) < target ≤ force(grid(b)).
    let first_crossing = |mut a: u64, mut b: u64| -> u64 {
        while b - a > 1 {
            let m = a + (b - a) / 2;
            if !(force(grid(m)) < target) {
                b = m;
            } else {
                a = m;
            }
        }
        b
    };
    // The reference walk evaluates force at j = 0, 1, 2, … and checks the
    // guard at j = 1, 2, … (after each subtraction, before the next force
    // check); it stops at the first j where either fires. Gallop the
    // force checks (1, 2, 4, …) while stepping the grid one subtraction
    // at a time so every guard check still happens in order.
    let mut below = 0u64; // largest j with force(grid(j)) < target confirmed
    let mut j = 0u64;
    let mut lo = l0;
    let mut next_probe = 1u64;
    loop {
        let next = lo - step;
        j += 1;
        let stalled = next == lo;
        if !stalled {
            lo = next;
        }
        if stalled || zmax - lo > 1e7 {
            // Guard fires at j (or the walk stalls there). The reference
            // would still have evaluated force at below+1 ..= j−1 first.
            if j >= below + 2 && !(force(grid(j - 1)) < target) {
                let jf = first_crossing(below, j - 1);
                return (grid(jf), jf);
            }
            return (lo, j);
        }
        if j == next_probe {
            if !(force(lo) < target) {
                let jf = first_crossing(below, j);
                return (grid(jf), jf);
            }
            below = j;
            next_probe = next_probe.saturating_mul(2);
        }
    }
}

/// The pre-optimization solver, kept verbatim: the bit-exactness oracle
/// for [`solve_reference_plane`] and the fallback for degenerate
/// stiffness.
///
/// # Panics
///
/// Panics when `heights` is empty.
#[must_use]
pub fn solve_reference_plane_reference(heights: &[f64], params: &ProcessParams) -> f64 {
    assert!(!heights.is_empty(), "need at least one window");
    let k = params.contact_stiffness();
    let e = params.contact_exponent;
    let target = params.applied_pressure;
    let zmax = heights.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let zmin = heights.iter().cloned().fold(f64::INFINITY, f64::min);
    let mean_force = |z_ref: f64| -> f64 {
        heights.iter().map(|&z| k * (z - z_ref).max(0.0).powf(e)).sum::<f64>() / heights.len() as f64
    };
    // Bracket: at z_ref = zmax force is 0 < target; lower bound far enough
    // below zmin that force exceeds target.
    let mut hi = zmax;
    let mut lo = zmin - params.reference_penetration;
    while mean_force(lo) < target {
        lo -= params.reference_penetration.max(1.0);
        if zmax - lo > 1e7 {
            break; // degenerate inputs; bisection below still converges
        }
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if mean_force(mid) > target {
            lo = mid;
        } else {
            hi = mid;
        }
        if hi - lo < 1e-9 {
            break;
        }
    }
    0.5 * (lo + hi)
}

/// Per-window contact pressures for the given (smoothed) envelope heights
/// and solved reference plane.
#[must_use]
pub fn window_pressures(heights: &[f64], z_ref: f64, params: &ProcessParams) -> Vec<f64> {
    let k = params.contact_stiffness();
    let e = params.contact_exponent;
    heights.iter().map(|&z| k * (z - z_ref).max(0.0).powf(e)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_chip_carries_applied_pressure_uniformly() {
        let p = ProcessParams::default();
        let heights = vec![500.0; 64];
        let z_ref = solve_reference_plane(&heights, &p);
        let pressures = window_pressures(&heights, z_ref, &p);
        for q in &pressures {
            assert!((q - p.applied_pressure).abs() < 1e-6, "{q}");
        }
        // Penetration equals the reference penetration by construction.
        assert!((500.0 - z_ref - p.reference_penetration).abs() < 1e-6);
    }

    #[test]
    fn high_windows_carry_more_pressure() {
        let p = ProcessParams::default();
        let mut heights = vec![500.0; 64];
        heights[0] = 520.0;
        let z_ref = solve_reference_plane(&heights, &p);
        let q = window_pressures(&heights, z_ref, &p);
        assert!(q[0] > q[1]);
        // Force balance holds.
        let mean: f64 = q.iter().sum::<f64>() / q.len() as f64;
        assert!((mean - p.applied_pressure).abs() < 1e-6);
    }

    #[test]
    fn very_low_windows_lose_contact() {
        let p = ProcessParams::default();
        let mut heights = vec![500.0; 16];
        heights[3] = 300.0; // far below everything
        let z_ref = solve_reference_plane(&heights, &p);
        let q = window_pressures(&heights, z_ref, &p);
        assert_eq!(q[3], 0.0);
    }

    #[test]
    fn mean_pressure_is_conserved_for_rough_chips() {
        let p = ProcessParams::default();
        let heights: Vec<f64> = (0..100).map(|i| 480.0 + (i % 13) as f64 * 3.0).collect();
        let z_ref = solve_reference_plane(&heights, &p);
        let q = window_pressures(&heights, z_ref, &p);
        let mean: f64 = q.iter().sum::<f64>() / q.len() as f64;
        assert!((mean - p.applied_pressure).abs() < 1e-6);
    }

    #[test]
    fn optimized_solver_is_bitwise_equal_to_reference() {
        let p = ProcessParams::default();
        for heights in [
            vec![500.0; 7],
            vec![480.0, 520.0, 500.0, 499.5],
            (0..257).map(|i| 450.0 + (i % 29) as f64 * 2.5).collect::<Vec<_>>(),
            vec![0.0, -20.0, 35.0],
        ] {
            let want = solve_reference_plane_reference(&heights, &p);
            let got = solve_reference_plane(&heights, &p);
            assert_eq!(want.to_bits(), got.to_bits(), "heights = {heights:?}");
        }
    }

    #[test]
    fn bracket_walk_matches_a_linear_scan_on_synthetic_forces() {
        // A synthetic monotone force whose crossing sits dozens of grid
        // steps below the start, so the galloped bracket actually
        // searches (unlike production inputs where the first probe wins).
        let scan = |l0: f64, step: f64, zmax: f64, target: f64, force: &dyn Fn(f64) -> f64| {
            let mut lo = l0;
            while force(lo) < target {
                lo -= step;
                if zmax - lo > 1e7 {
                    break;
                }
            }
            lo
        };
        for crossing in [0.5f64, 3.0, 17.0, 64.5, 1000.25] {
            let force = move |z: f64| -> f64 { (-z) - crossing }; // ≥ 0 ⇔ z ≤ −crossing
            let (got, _) = bracket_lo(0.0, 1.0, 0.0, 0.0, force);
            let want = scan(0.0, 1.0, 0.0, 0.0, &force);
            assert_eq!(want.to_bits(), got.to_bits(), "crossing at {crossing}");
        }
    }

    #[test]
    fn degenerate_guard_still_caps_the_bracket() {
        // A force that never reaches the target: the reference walk runs
        // until the zmax − lo > 1e7 guard fires; the galloped bracket
        // must land on the same guarded grid point.
        let force = |_z: f64| -> f64 { 0.0 };
        let step = 1e6;
        let (lo, steps) = bracket_lo(0.0, step, 0.0, 1.0, force);
        let mut want = 0.0;
        loop {
            want -= step;
            if 0.0 - want > 1e7 {
                break;
            }
        }
        assert_eq!(want.to_bits(), lo.to_bits());
        assert!(steps >= 10, "guard fires after ~11 steps, saw {steps}");
        // Stalled grids (|lo| so large the step vanishes) terminate
        // instead of hanging like the reference loop would.
        let (lo, _) = bracket_lo(-1e300, 1.0, -1e300 + 1.0, 1.0, force);
        assert!(lo.is_finite());
    }

    #[test]
    fn exact_solver_reports_bounded_force_evals() {
        let p = ProcessParams::default();
        let heights: Vec<f64> = (0..4096).map(|i| 500.0 + (i % 97) as f64).collect();
        let (_, stats) = solve_reference_plane_stats(&heights, &p);
        // 1 bracket evaluation + ≤200 bisection evaluations.
        assert!(stats.force_evals <= 201, "{}", stats.force_evals);
        assert_eq!(stats.bracket_steps, 0, "production inputs never walk");
    }
}
