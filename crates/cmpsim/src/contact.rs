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
//!
//! # Anchored probes
//!
//! The bracket walk and the 200-iteration bisection visit exactly the
//! reference's probe points, but a probe only needs the *sign* of
//! `mean_force(z) − target`, and most of the ~38 probes sit far from the
//! root. Two exact evaluations next to the root — the **anchors**
//! `over < under` — settle all of those without reading the board:
//!
//! * The floating-point force `F(z)` (ordered sum of `k · powf(zᵢ − z, e)`
//!   over the contacting windows, divided by `n`) is within a relative
//!   `γ = (n + e + 12)·u`, `u = 2⁻⁵³`, of the real-valued force `f(z)`:
//!   one rounding in the subtraction (amplified `e`-fold by the power),
//!   up to 4 ulp for `powf` (libm stays below 1), one for the product
//!   with `k`, at most `n − 1` for the ordered additions of non-negative
//!   terms and one for the division.
//! * `f` is non-increasing in `z`. So if `F(over) > target·(1 + m)` with
//!   `m = 4γ`, then for every `z ≤ over`:
//!   `F(z) ≥ f(z)(1 − γ) ≥ f(over)(1 − γ) ≥ F(over)(1 − γ)/(1 + γ) >
//!   target`, and symmetrically `F(z) < target` for every `z ≥ under`
//!   once `F(under) < target·(1 − m)`. Overflow only pushes `F` to `+∞`
//!   on the `over` side, and underflow is excluded by requiring
//!   `target·ε` to be a normal number.
//!
//! Only probes strictly inside `(over, under)` — a gap of about 1e-9 nm
//! at 65 536 windows, growing with `n` — are evaluated. Where the
//! anchors come from cannot matter: they are *accepted* only by the
//! exact test above, so the Newton iteration that proposes them is a
//! hint; a bad hint costs its passes and leaves every probe evaluated
//! as before. NaN heights
//! never contribute to `F` at any `z`, so the argument is blind to them
//! (they do spoil the hint, which then proposes nothing), and ±∞
//! heights make one of the two acceptance tests fail. Debug builds
//! re-evaluate every anchored probe and assert the answer.

use crate::params::ProcessParams;
use std::cell::Cell;
use std::cmp::Ordering;

/// Instrumentation from one reference-plane solve. Every O(windows)
/// pass over the board is counted in `force_evals` or `hint_passes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ContactSolveStats {
    /// Exact mean-force evaluations: the anchor candidates plus every
    /// probe no anchor decides.
    pub force_evals: u64,
    /// Newton passes spent locating the root for the anchors.
    pub hint_passes: u64,
    /// Probes answered from an anchor without reading the board.
    pub anchored_probes: u64,
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
    // signed-zero semantics. The height sum only seeds the hint.
    let mut zmax = f64::NEG_INFINITY;
    let mut zmin = f64::INFINITY;
    let mut zsum = 0.0;
    for &z in heights {
        zmax = f64::max(zmax, z);
        zmin = f64::min(zmin, z);
        zsum += z;
    }
    let evals = Cell::new(0u64);
    let force = |z_ref: f64| -> f64 {
        evals.set(evals.get() + 1);
        mean_force(heights, k, e, z_ref)
    };
    // Jensen: the mean height minus the flat-chip penetration is never
    // right of the root for a convex contact law, so Newton climbs to it
    // monotonically.
    let start = zsum / heights.len() as f64 - params.reference_penetration;
    let (anchors, hint_passes) = find_anchors(heights, k, e, target, start, force);
    let anchored = Cell::new(0u64);
    let force_vs_target = |z_ref: f64| -> Option<Ordering> {
        let known = anchors.and_then(|(over, under)| {
            if z_ref <= over {
                Some(Ordering::Greater)
            } else if z_ref >= under {
                Some(Ordering::Less)
            } else {
                None
            }
        });
        if known.is_some() {
            debug_assert_eq!(
                mean_force(heights, k, e, z_ref).partial_cmp(&target),
                known,
                "anchors {anchors:?} misjudged the probe at {z_ref}"
            );
            anchored.set(anchored.get() + 1);
            return known;
        }
        force(z_ref).partial_cmp(&target)
    };
    let hi = zmax;
    let (lo, bracket_steps) = bracket_lo(
        zmin - params.reference_penetration,
        params.reference_penetration.max(1.0),
        zmax,
        force_vs_target,
    );
    let z_ref = bisect(lo, hi, force_vs_target);
    let stats = ContactSolveStats {
        force_evals: evals.get(),
        hint_passes,
        anchored_probes: anchored.get(),
        bracket_steps,
    };
    (z_ref, stats)
}

/// The floating-point mean force `F(z_ref)` every probe compares against
/// the target. Windows at or below the plane contribute
/// `k · max(0, ·)^e = +0.0` in the reference sum; adding `+0.0` to a
/// non-negative partial sum is an exact no-op, so they are skipped
/// without changing a bit. (NaN heights also match: the reference maps
/// them to `+0.0` via `max(0.0)`, and `NaN > z` is false here.)
fn mean_force(heights: &[f64], k: f64, e: f64, z_ref: f64) -> f64 {
    let mut sum = 0.0;
    for &z in heights {
        if z > z_ref {
            sum += k * (z - z_ref).powf(e);
        }
    }
    sum / heights.len() as f64
}

/// Newton passes the hint may spend before giving up on anchors.
const HINT_PASSES_MAX: u64 = 8;
/// Exact evaluations each anchor may spend, stepping 16× further from
/// the hint after every candidate that fails its acceptance test.
const ANCHOR_TRIES: usize = 3;

/// Proposes and verifies the two anchors of the module docs. Returns
/// them (or `None`: every probe is then evaluated) and the number of
/// hint passes spent; the candidates' exact evaluations go through
/// `force`.
///
/// The proposal is Newton's iteration on the real-valued balance
/// `k·Σ⟨zᵢ − z⟩^e / n = target` from `start`. The candidates sit at
/// `hint ∓ 1.5·m·target/|f′|`: the linearized force clears the margin
/// `m` there with the bound `γ = m/4` on the hint's own rounding to
/// spare, so the iteration stops once its predicted remaining error is
/// a fraction of that reach.
fn find_anchors(
    heights: &[f64],
    k: f64,
    e: f64,
    target: f64,
    start: f64,
    force: impl Fn(f64) -> f64,
) -> (Option<(f64, f64)>, u64) {
    let n = heights.len() as f64;
    // m = 4γ. The bound behind it assumes margins in the normal range,
    // a force that falls as the plane rises, and γ ≪ 1.
    let margin = 2.0 * (n + e + 12.0) * f64::EPSILON;
    if !(target * f64::EPSILON >= f64::MIN_POSITIVE && k > 0.0 && e > 0.0 && margin <= 1e-6) {
        return (None, 0);
    }
    let mut hint = start;
    let mut reach = None;
    let mut passes = 0;
    while reach.is_none() && passes < HINT_PASSES_MAX {
        passes += 1;
        // sum = Σ d^e and dsum = Σ d^(e−1) over the contacting windows.
        // The hint needs no particular rounding, so the shipped exponent
        // 3/2 takes a square root, several times cheaper than `powf`.
        let (mut sum, mut dsum) = (0.0, 0.0);
        for &z in heights {
            if z > hint {
                let d = z - hint;
                let p = if e == 1.5 { d.sqrt() } else { d.powf(e - 1.0) };
                sum += p * d;
                dsum += p;
            }
        }
        let slope = k * e * dsum / n;
        let step = (k * sum / n - target) / slope;
        if !step.is_finite() {
            return (None, passes);
        }
        hint += step;
        // Newton leaves ≈ step²·|f″/2f′| = step²·(e − 1)/(2·d̄) with
        // d̄ = sum/dsum the mean penetration; (e + 1)/d̄ over-estimates
        // the factor for every exponent.
        let predicted_error = (e + 1.0) * step * step * dsum / sum;
        let delta = 1.5 * margin * target / slope;
        if predicted_error <= 0.5 * delta {
            reach = Some(delta);
        }
    }
    let anchors = reach.and_then(|delta| {
        let anchor = |dir: f64, accepts: &dyn Fn(f64) -> bool| -> Option<f64> {
            let mut delta = delta;
            for _ in 0..ANCHOR_TRIES {
                let at = hint + dir * delta;
                if accepts(force(at)) {
                    return Some(at);
                }
                delta *= 16.0;
            }
            None
        };
        let over = anchor(-1.0, &|f| f > target * (1.0 + margin))?;
        let under = anchor(1.0, &|f| f < target * (1.0 - margin))?;
        Some((over, under))
    });
    (anchors, passes)
}

/// The 200-iteration bisection (verbatim from the reference
/// implementation — same probes, same exit test; `F(mid) > target` is
/// `force_vs_target(mid) == Some(Greater)`, NaN included).
fn bisect(mut lo: f64, mut hi: f64, force_vs_target: impl Fn(f64) -> Option<Ordering>) -> f64 {
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if force_vs_target(mid) == Some(Ordering::Greater) {
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
/// The walk continues only on `Some(Less)`: a NaN force (`None`) must
/// exit it exactly like the reference `while force < target` condition
/// does, which testing for `Greater`/`Equal` would not reproduce.
fn bracket_lo(
    l0: f64,
    step: f64,
    zmax: f64,
    force_vs_target: impl Fn(f64) -> Option<Ordering>,
) -> (f64, u64) {
    let falls_short = |z: f64| force_vs_target(z) == Some(Ordering::Less);
    if !falls_short(l0) {
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
            if !falls_short(grid(m)) {
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
            if j >= below + 2 && !falls_short(grid(j - 1)) {
                let jf = first_crossing(below, j - 1);
                return (grid(jf), jf);
            }
            return (lo, j);
        }
        if j == next_probe {
            if !falls_short(lo) {
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
    let mut out = vec![0.0; heights.len()];
    window_pressures_into(heights, z_ref, params, &mut out);
    out
}

/// [`window_pressures`] into a caller-owned buffer (the polish loops
/// reuse one across steps).
///
/// # Panics
///
/// Panics when `out` and `heights` disagree in length.
pub fn window_pressures_into(heights: &[f64], z_ref: f64, params: &ProcessParams, out: &mut [f64]) {
    assert_eq!(out.len(), heights.len(), "pressure buffer length");
    let k = params.contact_stiffness();
    let e = params.contact_exponent;
    for (q, &z) in out.iter_mut().zip(heights) {
        *q = k * (z - z_ref).max(0.0).powf(e);
    }
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
            let (got, _) = bracket_lo(0.0, 1.0, 0.0, |z| force(z).partial_cmp(&0.0));
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
        let (lo, steps) = bracket_lo(0.0, step, 0.0, |z| force(z).partial_cmp(&1.0));
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
        let (lo, _) = bracket_lo(-1e300, 1.0, -1e300 + 1.0, |z| force(z).partial_cmp(&1.0));
        assert!(lo.is_finite());
    }

    #[test]
    fn exact_solver_reports_bounded_force_evals() {
        let p = ProcessParams::default();
        let heights: Vec<f64> = (0..4096).map(|i| 500.0 + (i % 97) as f64).collect();
        let (_, stats) = solve_reference_plane_stats(&heights, &p);
        // Every O(windows) pass is a hint pass or an exact evaluation
        // (2 anchors + the probes inside their gap); the reference makes
        // 1 bracket + ~38 bisection evaluations here.
        assert!(stats.force_evals + stats.hint_passes <= 12, "{stats:?}");
        assert!(stats.force_evals >= 2 && stats.hint_passes >= 1, "{stats:?}");
        assert!(stats.anchored_probes >= 30, "{stats:?}");
        assert_eq!(stats.bracket_steps, 0, "production inputs never walk");
    }
}
