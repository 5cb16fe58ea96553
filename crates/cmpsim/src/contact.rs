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
//! root. Two board passes next to the root whose rounding is bounded —
//! the **anchors** `over < under` — settle all of those without reading
//! the board again:
//!
//! * The floating-point force `F(z)` (ordered sum of `k · powf(zᵢ − z, e)`
//!   over the contacting windows, divided by `n`) is within a relative
//!   `γ = (n + e + 12)·u`, `u = 2⁻⁵³`, of the real-valued force `f(z)`:
//!   one rounding in the subtraction (amplified `e`-fold by the power),
//!   up to 4 ulp for `powf` (libm stays below 1), one for the product
//!   with `k`, at most `n − 1` for the ordered additions of non-negative
//!   terms and one for the division.
//! * At the shipped exponent `e = 3/2` the anchor candidates are checked
//!   with `F√(z)`, the same ordered sum of `k · (√d · d)`, `d = zᵢ − z`,
//!   instead: the subtraction (amplified `e`-fold), the correctly
//!   rounded `sqrt`, the product and the `k ·` round once each — at most
//!   `(e + 3)·u` per term to first order, less than the per-term budget
//!   above, which spends 4 ulp on `powf` alone — so `F√` obeys the same
//!   bound `γ` at a fraction of `powf`'s cost.
//! * `f` is non-increasing in `z`. So if the candidate's force (`F`, or
//!   `F√`) exceeds `target·(1 + m)` at `over`, with `m = 4γ`, then for
//!   every `z ≤ over`:
//!   `F(z) ≥ f(z)(1 − γ) ≥ f(over)(1 − γ) ≥ F√(over)(1 − γ)/(1 + γ) >
//!   target`, and symmetrically `F(z) < target` for every `z ≥ under`
//!   once the force at `under` is below `target·(1 − m)`. Overflow only
//!   pushes a force to `+∞` on the `over` side, and underflow is
//!   excluded by requiring `target·ε` to be a normal number.
//!
//! Only probes strictly inside `(over, under)` — a gap of about 1e-9 nm
//! at 65 536 windows, growing with `n` — read the board again (below),
//! so every decision and `z_ref` are the reference's. Where the
//! anchors come from cannot matter: they are *accepted* only by the
//! exact test above, so the Newton iteration that proposes them is a
//! hint; a bad hint costs its passes and leaves every probe evaluated
//! as before. NaN heights
//! never contribute to `F` at any `z`, so the argument is blind to them
//! (they do spoil the hint, which then proposes nothing), and ±∞
//! heights make one of the two acceptance tests fail. Debug builds
//! re-evaluate every anchored probe and assert the answer.
//!
//! # Certified probes
//!
//! The gap grows with `n` because `γ` charges every addition its worst
//! case. At `e = 3/2` a probe inside the gap first gets one `√d·d` pass
//! that returns, in board order, the ordered sum `S√` of
//! `bᵢ = k·(√dᵢ·dᵢ)` (what [`anchor_force`] sums) and `P = Σⱼ Ŝⱼ`, the
//! sum of its running partial sums. The reference compares
//! `F = S_F / n` with the target, where `S_F` is the ordered sum of
//! `aᵢ = k·powf(dᵢ, e)` over the same windows and the same `dᵢ`. `S_F` is
//! never computed on this path; it is bounded, to first order in `u`:
//!
//! * Per term, against the real `k·(zᵢ − z)^e`, `bᵢ` errs by at most
//!   `(e + 3)·u` and `aᵢ` by at most its share of `γ`, `(e + 12)·u`.
//!   So `|Σaᵢ − Σbᵢ| ≤ (2e + 15)·u·Σbᵢ`, which is `18u·Σbᵢ` at `e = 3/2`.
//! * A recursive sum of non-negative terms errs by at most `u·Σⱼ Ŝⱼ`,
//!   the sum of its computed partial sums (Higham, *Accuracy and
//!   Stability of Numerical Algorithms*, §4.2). So `|S√ − Σbᵢ| ≤ u·P`.
//!   The `powf` sum's partial sums are the `√` pass's to within a
//!   relative `(2n + 18)·u ≤ 2γ`, so `|S_F − Σaᵢ| ≤ (1 + 2γ)·u·P`.
//! * Together: `|S_F − S√| ≤ 18u·S√ + (2 + 2γ + 18u)·u·P`, with `P` the
//!   real sum of the partials, which the computed `P` undercounts by at
//!   most a relative `γ`. The anchors exist only when `γ ≤ 2.5e-7`, so
//!   the solver pads this to `B = 24u·S√ + (2 + 1/16)·u·P`.
//!
//! `F > target` holds once `S_F > n·target·(1 + 2u)` (the division rounds
//! once, and `target·(1 + 2u)` is at least the next float up), and
//! `F < target` once `S_F < n·target·(1 − 2u)`. The solver answers
//! `Greater` when `S√ − B > n·target·(1 + 4u)` and `Less` when
//! `S√ + B < n·target·(1 − 4u)`, all in floats. A rounded sum exceeds a
//! float only if the exact sum does. The other roundings (two in each
//! threshold, three in `B`) and subnormal terms (at most 2⁻¹⁰⁷⁴ each,
//! while `target·ε` is normal) cost `O(n·u²·target)`. Near the threshold
//! `S√ ≥ n·target/2`, so the padding's `6u·S√ + u·P/16` covers them;
//! farther away the gap to the threshold does. A probe neither test
//! settles is evaluated with `powf`, as before. On real boards
//! `P ≈ n·S√/2`, so `B ≈ γ·n·target`: a quarter of the anchors' margin,
//! and about a sixth of the gap's probes still need `powf`. An infinite
//! or overflowing sum makes `S√ − B` NaN and `S√ + B` infinite, so
//! neither test passes. Debug builds re-evaluate every certified probe
//! with `powf` and assert the answer.

use crate::params::ProcessParams;
use neurfill_obs::{Counter, Telemetry};
use std::cell::Cell;
use std::cmp::Ordering;
use std::ops::AddAssign;

/// Instrumentation from one reference-plane solve. Every O(windows)
/// pass over the board is counted in `force_evals` or `hint_passes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ContactSolveStats {
    /// Board passes that evaluate a force: the anchor candidates and
    /// every certification (both with `√d·d` at `e = 1.5`), plus every
    /// `powf` evaluation of a probe.
    pub force_evals: u64,
    /// Newton passes spent locating the root for the anchors.
    pub hint_passes: u64,
    /// Probes answered from an anchor without reading the board.
    pub anchored_probes: u64,
    /// Probes inside the anchors' gap settled by one `√d·d` pass and its
    /// error bound (module docs).
    pub certified_probes: u64,
    /// Probes evaluated with `powf`, as the reference evaluates them.
    pub exact_probes: u64,
    /// Grid steps taken while bracketing the root from below.
    pub bracket_steps: u64,
}

/// The counter names [`ContactSolveStats::counts`] reports, in order.
const COUNTER_NAMES: [&str; 6] = [
    "force_evals",
    "hint_passes",
    "anchored_probes",
    "certified_probes",
    "exact_probes",
    "bracket_steps",
];

impl ContactSolveStats {
    /// Every counter, in [`COUNTER_NAMES`] order.
    fn counts(&self) -> [u64; 6] {
        [
            self.force_evals,
            self.hint_passes,
            self.anchored_probes,
            self.certified_probes,
            self.exact_probes,
            self.bracket_steps,
        ]
    }
}

impl AddAssign for ContactSolveStats {
    fn add_assign(&mut self, other: Self) {
        self.force_evals += other.force_evals;
        self.hint_passes += other.hint_passes;
        self.anchored_probes += other.anchored_probes;
        self.certified_probes += other.certified_probes;
        self.exact_probes += other.exact_probes;
        self.bracket_steps += other.bracket_steps;
    }
}

/// The `<scope>.contact.*` telemetry counters, one per field of
/// [`ContactSolveStats`], registered once so that adding a solve's
/// stats costs only atomics.
#[derive(Debug, Clone)]
pub struct ContactCounters([Counter; 6]);

impl ContactCounters {
    /// Registers `<scope>.contact.<field>` for every field.
    #[must_use]
    pub fn new(telemetry: &Telemetry, scope: &str) -> Self {
        Self(COUNTER_NAMES.map(|name| telemetry.counter(&format!("{scope}.contact.{name}"))))
    }

    /// Adds one solve's (or a sum of solves') stats.
    pub fn add(&self, stats: &ContactSolveStats) {
        for (counter, n) in self.0.iter().zip(stats.counts()) {
            counter.add(n);
        }
    }
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
    let stats = Cell::new(ContactSolveStats::default());
    let count = |bump: fn(&mut ContactSolveStats)| {
        let mut s = stats.get();
        bump(&mut s);
        stats.set(s);
    };
    let candidate_force = |z_ref: f64| -> f64 {
        count(|s| s.force_evals += 1);
        anchor_force(heights, k, e, z_ref)
    };
    // Jensen: the mean height minus the flat-chip penetration is never
    // right of the root for a convex contact law, so Newton climbs to it
    // monotonically.
    let start = zsum / heights.len() as f64 - params.reference_penetration;
    let (anchors, hint_passes) = find_anchors(heights, k, e, target, start, candidate_force);
    let limits = certify_limits(heights.len(), target);
    let force_vs_target = |z_ref: f64| -> Option<Ordering> {
        let known = anchors.and_then(|(over, under)| {
            let side = if z_ref <= over {
                Ordering::Greater
            } else if z_ref >= under {
                Ordering::Less
            } else if e == 1.5 {
                count(|s| s.force_evals += 1);
                let (sum, partials) = sqrt_force_sums(heights, k, z_ref);
                let certified = certify(sum, certified_bound(sum, partials), limits)?;
                count(|s| s.certified_probes += 1);
                return Some(certified);
            } else {
                return None;
            };
            count(|s| s.anchored_probes += 1);
            Some(side)
        });
        if known.is_some() {
            debug_assert_eq!(
                mean_force(heights, k, e, z_ref).partial_cmp(&target),
                known,
                "anchors {anchors:?} or the certified bound misjudged the probe at {z_ref}"
            );
            return known;
        }
        count(|s| {
            s.force_evals += 1;
            s.exact_probes += 1;
        });
        mean_force(heights, k, e, z_ref).partial_cmp(&target)
    };
    let hi = zmax;
    let (lo, bracket_steps) = bracket_lo(
        zmin - params.reference_penetration,
        params.reference_penetration.max(1.0),
        zmax,
        force_vs_target,
    );
    let z_ref = bisect(lo, hi, force_vs_target);
    (z_ref, ContactSolveStats { hint_passes, bracket_steps, ..stats.get() })
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

/// The force an anchor candidate is checked with: [`mean_force`], except
/// at the shipped exponent 3/2, where each term is `k · (√d · d)` — the
/// same bound `γ` (module docs) at a fraction of `powf`'s cost.
fn anchor_force(heights: &[f64], k: f64, e: f64, z_ref: f64) -> f64 {
    if e != 1.5 {
        return mean_force(heights, k, e, z_ref);
    }
    sqrt_force_sums(heights, k, z_ref).0 / heights.len() as f64
}

/// One `√d·d` pass in board order: the ordered sum `S√` of
/// `k · (√d · d)` over the contacting windows, and `P`, the sum of its
/// running partial sums (module docs, "Certified probes").
fn sqrt_force_sums(heights: &[f64], k: f64, z_ref: f64) -> (f64, f64) {
    let (mut sum, mut partials) = (0.0, 0.0);
    for &z in heights {
        if z > z_ref {
            let d = z - z_ref;
            sum += k * (d.sqrt() * d);
            partials += sum;
        }
    }
    (sum, partials)
}

/// `B = 24u·S√ + (2 + 1/16)·u·P`, the padded bound on `|S_F − S√|`
/// (module docs).
fn certified_bound(sum: f64, partials: f64) -> f64 {
    let u = f64::EPSILON / 2.0;
    24.0 * u * sum + (2.0 + 1.0 / 16.0) * u * partials
}

/// The certified probes' thresholds `n·target·(1 ± 4u)`.
fn certify_limits(n: usize, target: f64) -> (f64, f64) {
    let nt = n as f64 * target;
    (nt * (1.0 + 2.0 * f64::EPSILON), nt * (1.0 - 2.0 * f64::EPSILON))
}

/// The reference's answer for a probe whose `√d·d` sum reads `sum`, when
/// `sum ± bound` lies wholly on one side of the thresholds `limits`
/// ([`certify_limits`]); `None` when it straddles them.
fn certify(sum: f64, bound: f64, (above, below): (f64, f64)) -> Option<Ordering> {
    if sum - bound > above {
        Some(Ordering::Greater)
    } else if sum + bound < below {
        Some(Ordering::Less)
    } else {
        None
    }
}

/// The anchors' margin `m = 4γ = 4·(n + e + 12)·u` (module docs).
fn anchor_margin(n: usize, e: f64) -> f64 {
    2.0 * (n as f64 + e + 12.0) * f64::EPSILON
}

/// The acceptance test of an anchor candidate whose force reads `force`:
/// an `over` anchor (`Greater`) must clear `target·(1 + m)`, an `under`
/// anchor (`Less`) fall below `target·(1 − m)`.
fn settles(side: Ordering, force: f64, target: f64, margin: f64) -> bool {
    match side {
        Ordering::Greater => force > target * (1.0 + margin),
        _ => force < target * (1.0 - margin),
    }
}

/// Newton passes the hint may spend before giving up on anchors.
const HINT_PASSES_MAX: u64 = 8;
/// Exact evaluations each anchor may spend, stepping 16× further from
/// the hint after every candidate that fails its acceptance test.
const ANCHOR_TRIES: usize = 3;

/// Proposes and verifies the two anchors of the module docs. Returns
/// them (or `None`: every probe is then evaluated) and the number of
/// hint passes spent; the candidates' evaluations go through `force`
/// ([`anchor_force`], counted).
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
    // The bound behind the margin assumes margins in the normal range,
    // a force that falls as the plane rises, and γ ≪ 1.
    let margin = anchor_margin(heights.len(), e);
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
        let anchor = |side: Ordering, dir: f64| -> Option<f64> {
            let mut delta = delta;
            for _ in 0..ANCHOR_TRIES {
                let at = hint + dir * delta;
                if settles(side, force(at), target, margin) {
                    return Some(at);
                }
                delta *= 16.0;
            }
            None
        };
        let over = anchor(Ordering::Greater, -1.0)?;
        let under = anchor(Ordering::Less, 1.0)?;
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

    /// `a + b` as an unevaluated sum `(s, err)`, exactly (Knuth's TwoSum).
    fn two_sum(a: f64, b: f64) -> (f64, f64) {
        let s = a + b;
        let bb = s - a;
        (s, (a - (s - bb)) + (b - bb))
    }

    /// A double-double `hi + lo`, about 106 bits: precise enough to stand
    /// in for real arithmetic against bounds of a few ulps.
    #[derive(Debug, Clone, Copy)]
    struct Dd(f64, f64);

    impl Dd {
        fn norm(hi: f64, lo: f64) -> Self {
            let (s, e) = two_sum(hi, lo);
            Dd(s, e)
        }
        fn add(self, o: Dd) -> Dd {
            let (s, e) = two_sum(self.0, o.0);
            Dd::norm(s, e + self.1 + o.1)
        }
        fn mul(self, o: Dd) -> Dd {
            let p = self.0 * o.0;
            let e = self.0.mul_add(o.0, -p);
            Dd::norm(p, e + (self.0 * o.1 + self.1 * o.0))
        }
        fn sqrt(self) -> Dd {
            let s = self.0.sqrt();
            let p = s * s;
            let r = ((self.0 - p) - s.mul_add(s, -p)) + self.1;
            Dd::norm(s, r / (2.0 * s))
        }
        fn div(self, n: f64) -> Dd {
            let q = self.0 / n;
            let p = q * n;
            let r = ((self.0 - p) - q.mul_add(n, -p)) + self.1;
            Dd::norm(q, r / n)
        }
    }

    /// The real-valued force `f(z) = k·Σ⟨zᵢ − z⟩^{3/2} / n` in
    /// double-double.
    fn real_force_e15(heights: &[f64], k: f64, z_ref: f64) -> Dd {
        let mut sum = Dd(0.0, 0.0);
        for &z in heights {
            if z > z_ref {
                let (hi, lo) = two_sum(z, -z_ref);
                let d = Dd(hi, lo);
                sum = sum.add(Dd(k, 0.0).mul(d.mul(d.sqrt())));
            }
        }
        sum.div(heights.len() as f64)
    }

    /// Random, near-flat, two-level and ±1e9 boards of up to 65 536
    /// windows — the shapes `kernel_equivalence` pins the solver on.
    fn hard_boards() -> Vec<(String, Vec<f64>)> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(23);
        let mut boards = Vec::new();
        for n in [1usize, 2, 64, 4096, 65_536] {
            boards
                .push((format!("random n={n}"), (0..n).map(|_| rng.gen_range(760.0..800.0)).collect()));
            for spread in [1e-12, 1e-10, 1e-9, 1e-8, 1e-6] {
                let h = (0..n).map(|_| 500.0 + rng.gen_range(0.0..=1.0) * spread).collect();
                boards.push((format!("spread {spread} n={n}"), h));
            }
            let mut h = vec![500.0; n];
            h[n / 2] = 300.0;
            boards.push((format!("two-level n={n}"), h));
            for base in [1e9, -1e9] {
                let h = (0..n).map(|_| base + rng.gen_range(0.0..40.0)).collect();
                boards.push((format!("base {base} n={n}"), h));
            }
            let h = (0..n).map(|i| if i % 2 == 0 { 1e9 } else { -1e9 }).collect();
            boards.push((format!("±1e9 n={n}"), h));
        }
        boards
    }

    #[test]
    fn both_forces_stay_within_gamma_of_the_real_force_at_e_one_and_a_half() {
        let p = ProcessParams::default();
        assert_eq!(p.contact_exponent, 1.5);
        let (k, e) = (p.contact_stiffness(), p.contact_exponent);
        let u = f64::EPSILON / 2.0;
        let mut worst: f64 = 0.0;
        let mut checked = 0;
        for (what, h) in hard_boards() {
            let gamma = (h.len() as f64 + e + 12.0) * u;
            let root = solve_reference_plane(&h, &p);
            let zmin = h.iter().copied().fold(f64::INFINITY, f64::min);
            let mut points = vec![root, zmin - p.reference_penetration];
            for scale in [1e-9, 1e-6, 1e-3, 1.0, 10.0] {
                points.extend([root - scale, root + scale]);
            }
            for z_ref in points {
                let f = real_force_e15(&h, k, z_ref);
                if f.0 == 0.0 {
                    continue;
                }
                for (name, got) in
                    [("√d·d", anchor_force(&h, k, e, z_ref)), ("powf", mean_force(&h, k, e, z_ref))]
                {
                    let err = ((got - f.0) - f.1).abs();
                    let ratio = err / (gamma * f.0);
                    assert!(ratio <= 1.0, "{what} at {z_ref}: {name} off by {ratio}·γ");
                    worst = worst.max(ratio);
                    checked += 1;
                }
            }
        }
        assert!(checked > 500, "{checked}");
        println!("{checked} forces, worst |F − f| = {worst:.3e}·γ");
    }

    /// Runs the polish loop of one layer under `p` and hands `visit`
    /// every smoothed board the contact solve sees, with its step.
    fn polish_boards(
        layer: &crate::LayerInput,
        p: &ProcessParams,
        mut visit: impl FnMut(usize, &[f64]),
    ) {
        use crate::shard::{dish_erosion_factors, polish_pointwise};
        let kernel = crate::PadKernel::exponential(p.character_length, p.kernel_radius);
        let (rows, cols) = (layer.rows, layer.cols);
        let rho_eff = kernel.apply(&layer.density, rows, cols);
        let (dish, erosion) = dish_erosion_factors(&layer.avg_width, &layer.perimeter, p);
        let mut z_up = vec![p.initial_height; rows * cols];
        let mut z_down: Vec<f64> = z_up.iter().map(|z| z - p.initial_step).collect();
        for step in 0..p.steps {
            let smoothed = kernel.apply(&z_up, rows, cols);
            let z_ref = solve_reference_plane(&smoothed, p);
            let pressures = window_pressures(&smoothed, z_ref, p);
            polish_pointwise(&mut z_up, &mut z_down, &pressures, &rho_eff, &dish, &erosion, p);
            visit(step, &smoothed);
        }
    }

    /// The polish loop of designs A/B/C at 32×32 under the default
    /// process: every smoothed board the contact solve sees.
    fn abc_boards() -> Vec<(String, Vec<f64>)> {
        let p = ProcessParams::default();
        let mut boards = Vec::new();
        for layout in neurfill_layout::benchmark_designs(32, 32, 1) {
            for layer in 0..layout.num_layers() {
                polish_boards(&crate::LayerInput::from_layout(&layout, layer), &p, |step, smoothed| {
                    boards.push((
                        format!("{} layer {layer} step {step}", layout.name()),
                        smoothed.to_vec(),
                    ));
                });
            }
        }
        boards
    }

    /// The probe points of [`solve_reference_plane_reference`] — its
    /// bracket walk and bisection — replayed with [`mean_force`] (the
    /// reference's sum with the exact no-op terms skipped), and the
    /// float where `F` crosses the target: the bisection carried on
    /// past the reference's 1e-9 exit until its ends are adjacent.
    fn reference_probes(heights: &[f64], p: &ProcessParams) -> (Vec<f64>, f64) {
        let (k, e, target) = (p.contact_stiffness(), p.contact_exponent, p.applied_pressure);
        let zmax = heights.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let zmin = heights.iter().copied().fold(f64::INFINITY, f64::min);
        let mut probes = Vec::new();
        let mut force = |z: f64| {
            probes.push(z);
            mean_force(heights, k, e, z)
        };
        let (mut lo, mut hi) = (zmin - p.reference_penetration, zmax);
        while force(lo) < target {
            lo -= p.reference_penetration.max(1.0);
            if zmax - lo > 1e7 {
                break;
            }
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if force(mid) > target {
                lo = mid;
            } else {
                hi = mid;
            }
            if hi - lo < 1e-9 {
                break;
            }
        }
        loop {
            let mid = 0.5 * (lo + hi);
            if !(lo < mid && mid < hi) {
                break;
            }
            if mean_force(heights, k, e, mid) > target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        (probes, lo)
    }

    /// Every probe of [`reference_probes`], plus every float within 32
    /// ulps of where `F` crosses the target (where its rounding noise
    /// lives).
    fn probes_near_root(heights: &[f64], p: &ProcessParams) -> Vec<f64> {
        let (mut probes, root) = reference_probes(heights, p);
        let (mut below, mut above) = (root, root);
        for _ in 0..32 {
            below = below.next_down();
            above = above.next_up();
            probes.extend([below, above]);
        }
        probes
    }

    /// Answers given to a set of probes other than by `powf`, and how
    /// many of them disagree with `powf`.
    #[derive(Debug, Default, Clone, Copy)]
    struct Answers {
        /// From an anchor.
        anchored: u64,
        /// By certification (the `√d·d` pass and its bound `B`).
        certified: u64,
        /// Anchored or certified answers that disagree with `powf`.
        wrong: u64,
        /// Certified answers with `B` forced to 0 that disagree.
        wrong_unbounded: u64,
    }

    impl AddAssign for Answers {
        fn add_assign(&mut self, o: Self) {
            self.anchored += o.anchored;
            self.certified += o.certified;
            self.wrong += o.wrong;
            self.wrong_unbounded += o.wrong_unbounded;
        }
    }

    /// Answers every probe of `probes` from the anchors, by
    /// certification (every probe, not only the gap's), with `B` forced to
    /// 0, and by the `powf` force the reference reads. The anchors are the
    /// solver's own and the tightest pair the acceptance test admits among
    /// the probes.
    fn answer_every_way(heights: &[f64], p: &ProcessParams, probes: &[f64]) -> Answers {
        let (k, e, target) = (p.contact_stiffness(), p.contact_exponent, p.applied_pressure);
        let margin = anchor_margin(heights.len(), e);
        let limits = certify_limits(heights.len(), target);
        let start = heights.iter().sum::<f64>() / heights.len() as f64 - p.reference_penetration;
        let (solver, _) = find_anchors(heights, k, e, target, start, |z| anchor_force(heights, k, e, z));
        let mut answers = Answers::default();
        // (probe, force an anchor there is checked with, powf answer)
        let mut probes_read = Vec::new();
        for &z in probes {
            let (sum, partials) = sqrt_force_sums(heights, k, z);
            let truth = mean_force(heights, k, e, z).partial_cmp(&target);
            if let Some(certified) = certify(sum, certified_bound(sum, partials), limits) {
                answers.certified += 1;
                answers.wrong += u64::from(truth != Some(certified));
            }
            if let Some(unbounded) = certify(sum, 0.0, limits) {
                answers.wrong_unbounded += u64::from(truth != Some(unbounded));
            }
            probes_read.push((z, sum / heights.len() as f64, truth));
        }
        let tightest =
            |side| probes_read.iter().filter(move |(_, f, _)| settles(side, *f, target, margin));
        let over = tightest(Ordering::Greater).map(|(z, ..)| *z).fold(f64::NEG_INFINITY, f64::max);
        let under = tightest(Ordering::Less).map(|(z, ..)| *z).fold(f64::INFINITY, f64::min);
        for (over, under) in solver.into_iter().chain([(over, under)]) {
            for &(z, _, truth) in &probes_read {
                let known = if z <= over {
                    Ordering::Greater
                } else if z >= under {
                    Ordering::Less
                } else {
                    continue;
                };
                answers.anchored += 1;
                answers.wrong += u64::from(truth != Some(known));
            }
        }
        answers
    }

    /// The proof of the anchor and certification rules on the boards
    /// the product solves: every probe of [`probes_near_root`] answered
    /// from the anchors, by certification and by `powf` — for A/B/C's
    /// 450 polish-loop boards at 32×32, and six of them (layer 0, steps 0
    /// and 30) tiled 8 × 8 to `chip_golden`'s 65 536 windows. With the
    /// margin set to 0 some anchored answers disagree.
    #[test]
    fn anchored_answers_match_powf_on_every_probe_of_abc_boards() {
        let p = ProcessParams::default();
        let boards = abc_boards();
        let tiled: Vec<(String, Vec<f64>)> = boards
            .iter()
            .filter(|(what, _)| {
                what.contains("layer 0 ") && (what.ends_with(" step 0") || what.ends_with(" step 30"))
            })
            .map(|(what, b)| {
                let big = (0..256 * 256).map(|i| b[(i / 256 % 32) * 32 + i % 32]).collect();
                (format!("{what} tiled 8x8"), big)
            })
            .collect();
        let (mut total, mut first_wrong) = (Answers::default(), None);
        for (what, h) in boards.iter().chain(&tiled) {
            let answers = answer_every_way(h, &p, &probes_near_root(h, &p));
            if answers.wrong > 0 && first_wrong.is_none() {
                first_wrong = Some(what);
            }
            total += answers;
        }
        assert_eq!(total.wrong, 0, "{total:?} disagree with powf, first on {first_wrong:?}");
        assert!(total.anchored > 450 * 60 && total.certified > 450 * 50, "{total:?}");
    }

    /// The same proof on every polish-loop board of layer 0 of
    /// `chip_golden`'s chip (design C, 256², seed 7), the boards whose
    /// anchors leave probes in their gap, where the solver also equals
    /// the reference bit for bit.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "release-only: ci.sh runs it with --release")]
    fn anchored_and_certified_answers_match_powf_on_chip_golden_boards() {
        use neurfill_layout::{DesignKind, FullChipSpec};
        let p = ProcessParams::default();
        let chip = FullChipSpec::new(DesignKind::RiscV, 256, 256, 7).build().generate();
        let mut total = Answers::default();
        let mut boards = 0;
        polish_boards(&crate::LayerInput::from_layout(&chip, 0), &p, |step, h| {
            let want = solve_reference_plane_reference(h, &p);
            assert_eq!(solve_reference_plane(h, &p).to_bits(), want.to_bits(), "step {step}");
            let answers = answer_every_way(h, &p, &probes_near_root(h, &p));
            assert_eq!(answers.wrong, 0, "step {step}: {answers:?} disagree with powf");
            total += answers;
            boards += 1;
        });
        println!("{boards} boards: {total:?}");
        assert_eq!(boards, p.steps);
        assert!(total.certified > boards as u64 * 30, "{total:?}");
    }

    /// Certification with `B` forced to 0 misjudges a probe that the
    /// bound keeps it from answering. On the product's boards the
    /// thresholds' own `4u` happens to absorb `|S√ − S_F|` (chip_golden's
    /// boards differ by at most 4u·n·target near the root), so this board
    /// is built to expose it: 1 024 equal heights make every partial sum's
    /// rounding systematic, and at `d = 20.000000000000117` under an
    /// applied pressure of 1.3 the two terms, one ulp apart, straddle a
    /// rounding boundary of the top binade. There `S√` reads
    /// `n·target·(1 + 140u)` and `S_F` reads `n·target·(1 − 163u)` (with
    /// glibc's `pow`; another libm may round that term elsewhere).
    #[test]
    fn certification_without_its_bound_misjudges_an_equal_height_board() {
        let p = ProcessParams { applied_pressure: 1.3, ..ProcessParams::default() };
        let h = vec![20.000_000_000_000_117; 1024];
        // Probes one ulp of d apart around d = h (z = 0).
        let probes: Vec<f64> = (-100..=100).map(|j| f64::from(j) * 2f64.powi(-48)).collect();
        let answers = answer_every_way(&h, &p, &probes);
        println!("{answers:?}");
        assert_eq!(answers.wrong, 0, "{answers:?}");
        assert!(answers.wrong_unbounded > 0, "B = 0 misjudged no probe: {answers:?}");
    }
}
