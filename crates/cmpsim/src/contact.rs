//! Contact-mechanics pressure solve (paper §II-A step 2).
//!
//! The rough pad is modelled as a bed of asperities: the contact pressure
//! on a window whose (smoothed) envelope height is `z` is
//! `p(z) = k · ⟨z − z_ref⟩^e`, and the pad reference plane `z_ref`
//! floats so that the mean window pressure balances the applied pressure
//! `P`: `f(z_ref) = (k/n)·Σᵢ ⟨zᵢ − z_ref⟩^e = P`.
//!
//! # The Newton solve
//!
//! `f` falls as the plane rises and, for `e ≥ 1`, is convex.
//! [`solve_reference_plane`] runs Newton's iteration on it from
//! `z₀ = mean(z) − reference_penetration`. `k` is chosen so that
//! `k·pen^e = P`, so by Jensen's inequality `f(z₀) ≥ P`: the start is
//! left of the root, and from there Newton's iterates on a convex,
//! falling function climb to the root without overshooting it. The mean
//! is taken as `h₀ + mean(z − h₀)` with `h₀` the first height, so a flat
//! board at `h` starts at `h − pen`, rounded once.
//!
//! Each pass is one loop over the board that returns `S = Σ d·√d` and
//! `D = Σ √d` over the windows the plane touches, `d = zᵢ − z`
//! (`Σ d^e` and `Σ d^{e−1}` through `powf` when `e ≠ 3/2`), and steps by
//! `(S − n·P/k)/(e·D)`. The loop keeps four interleaved accumulators and
//! combines them in a fixed order, so the summation order is written in
//! the source: the loop vectorizes without any `target_feature` dispatch,
//! and every caller on every host gets the same bits.
//!
//! **Stop rule.** A pass stops the solve, after its step, once Newton's
//! own error estimate for the step after it, `(e + 1)·step²/d̄` with
//! `d̄ = S/D` the mean penetration, is within the rounding floor
//! `4ε·|z| + (n/4 + 8)·ε·S/(e·D)`: a few ulp of the plane, plus the step
//! that the worst-case rounding of the four-lane sum `S` alone can
//! produce. The last pass therefore takes a step the answer needs, and
//! a solve stopped one pass early misses it. On the first step of every
//! polish, where every window sits at the initial height, `z₀` is the
//! root up to rounding, the first step is rounding noise and the solve
//! ends after one pass. (A rule on the step's size alone need not end
//! that board: its steps stay at the noise level of `S`.)
//!
//! **Fallback.** The iterates keep to the bracket `[z₀, zmax]`, less the
//! rounding floor at the bottom. The top needs no test of its own: a
//! plane at or above every window has `D = 0` and so a non-finite step.
//! [`solve_reference_plane_reference`], the bisection this solve
//! replaced, answers instead when the stiffness is degenerate (not finite
//! and positive), a height is not finite (the sum of heights is then not
//! finite either), a step is not finite, an iterate leaves the bracket
//! or `MAX_PASSES` passes do not settle the plane. For `e < 1` the
//! force is concave and `z₀` is not left of the root, so the first step
//! leaves the bracket and the bisection carries the solve.
//!
//! **Pressures.** At `e = 3/2` each window's pressure is `k·(√d·d)`,
//! the terms the solve sums; other exponents take `k·powf(d, e)`.
//!
//! # The re-baseline
//!
//! The solver used to reproduce the bisection's answer bit for bit, and
//! the pressures `k·powf(d, 3/2)` bit for bit. That took anchored and
//! certified bisection probes and a certified `d^{3/2}` whose bits
//! depended on the host's FMA support and on libm's `pow` erring by less
//! than 0.55 ulp, all to land on the last bit of a 200-step bisection
//! that stops at a width of 1e-9 nm. The Newton answer differs from the
//! bisection's by less than that width, and `√d·d` from `powf(d, 3/2)`
//! by about an ulp, so the golden simulator's output moved once, in its
//! trailing digits. The chip simulator still equals the monolithic one
//! byte for byte: it runs the same loop on the tile-assembled chip.

use crate::params::ProcessParams;
use neurfill_obs::{Counter, Telemetry};
use std::ops::AddAssign;

/// Instrumentation from one reference-plane solve (or a sum of solves).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ContactSolveStats {
    /// Newton passes over the board.
    pub newton_passes: u64,
    /// Solves handed to [`solve_reference_plane_reference`].
    pub fallbacks: u64,
}

/// The counter names [`ContactSolveStats::counts`] reports, in order.
const COUNTER_NAMES: [&str; 2] = ["newton_passes", "fallbacks"];

impl ContactSolveStats {
    /// Every counter, in [`COUNTER_NAMES`] order.
    fn counts(&self) -> [u64; 2] {
        [self.newton_passes, self.fallbacks]
    }
}

impl AddAssign for ContactSolveStats {
    fn add_assign(&mut self, other: Self) {
        self.newton_passes += other.newton_passes;
        self.fallbacks += other.fallbacks;
    }
}

/// The `<scope>.contact.*` telemetry counters, one per field of
/// [`ContactSolveStats`], registered once so that adding a solve's
/// stats costs only atomics.
#[derive(Debug, Clone)]
pub struct ContactCounters([Counter; 2]);

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

/// Newton passes a solve may spend before the bisection takes over.
const MAX_PASSES: u64 = 12;

/// Interleaved accumulators of a board pass.
const LANES: usize = 4;

/// Solves for the pad reference plane `z_ref` so that
/// `mean_i k·⟨z_i − z_ref⟩^e = applied_pressure`.
///
/// Returns `z_ref`. The heights are the *smoothed* envelope heights. The
/// answer is Newton's, or the bisection's where Newton is not safe (see
/// the module docs).
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
    let mut stats = ContactSolveStats::default();
    let z_ref = newton(heights, params, &mut stats.newton_passes).unwrap_or_else(|| {
        stats.fallbacks = 1;
        solve_reference_plane_reference(heights, params)
    });
    (z_ref, stats)
}

/// The safeguarded Newton solve of the module docs, counting its passes
/// into `passes`; `None` hands the solve to the bisection.
fn newton(heights: &[f64], params: &ProcessParams, passes: &mut u64) -> Option<f64> {
    let k = params.contact_stiffness();
    let e = params.contact_exponent;
    if !(k.is_finite() && k > 0.0) {
        return None;
    }
    let n = heights.len() as f64;
    let first = heights[0];
    let start = first + lane_sums(heights, |h| (h - first, 0.0)).0 / n - params.reference_penetration;
    if !start.is_finite() {
        return None;
    }
    // S at the root: k·S/n = P.
    let target = n * params.applied_pressure / k;
    let mut z = start;
    while *passes < MAX_PASSES {
        *passes += 1;
        let (sum, dsum) = force_sums(heights, z, e);
        let step = (sum - target) / (e * dsum);
        let floor =
            4.0 * f64::EPSILON * z.abs() + (n / LANES as f64 + 8.0) * f64::EPSILON * sum / (e * dsum);
        let next = z + step;
        if !(next.is_finite() && next >= start - floor) {
            return None;
        }
        z = next;
        if (e + 1.0) * step * step * dsum / sum <= floor {
            return Some(z);
        }
    }
    None
}

/// `(Σ d^e, Σ d^{e−1})` over the windows the plane at `z` touches,
/// `d = zᵢ − z`: `d·√d` and `√d` at `e = 3/2`, `powf` otherwise.
fn force_sums(heights: &[f64], z: f64, e: f64) -> (f64, f64) {
    if e == 1.5 {
        lane_sums(heights, |h| {
            let d = (h - z).max(0.0);
            let root = d.sqrt();
            (root * d, root)
        })
    } else {
        lane_sums(heights, |h| {
            if h > z {
                let d = h - z;
                let p = d.powf(e - 1.0);
                (p * d, p)
            } else {
                (0.0, 0.0)
            }
        })
    }
}

/// Both sums of `term(h)` over the board, each in [`LANES`] interleaved
/// accumulators combined as `(a₀ + a₁) + (a₂ + a₃)`. The order is fixed
/// here, so the loop vectorizes and every host adds the same terms in
/// the same order.
#[inline(always)]
fn lane_sums(heights: &[f64], term: impl Fn(f64) -> (f64, f64)) -> (f64, f64) {
    let (mut a, mut b) = ([0.0; LANES], [0.0; LANES]);
    let mut chunks = heights.chunks_exact(LANES);
    for chunk in &mut chunks {
        for (l, &h) in chunk.iter().enumerate() {
            let (x, y) = term(h);
            a[l] += x;
            b[l] += y;
        }
    }
    for (l, &h) in chunks.remainder().iter().enumerate() {
        let (x, y) = term(h);
        a[l] += x;
        b[l] += y;
    }
    ((a[0] + a[1]) + (a[2] + a[3]), (b[0] + b[1]) + (b[2] + b[3]))
}

/// The bisection solver the Newton solve replaced: its oracle and its
/// fallback. Kept verbatim, apart from one guard: a bracket walk whose
/// plane no longer moves (a board with no finite height, or `|lo|` past
/// `2⁵³` steps) ends, so such a board answers NaN, `+∞` or `−∞` instead
/// of hanging. On every board the walk used to end on, nothing changes.
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
        let last = lo;
        lo -= params.reference_penetration.max(1.0);
        if zmax - lo > 1e7 || lo == last {
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
/// reuse one across steps): `k·(√d·d)` at `e = 3/2`, `k·powf(d, e)`
/// otherwise, `d = ⟨z − z_ref⟩`.
///
/// # Panics
///
/// Panics when `out` and `heights` disagree in length.
pub fn window_pressures_into(heights: &[f64], z_ref: f64, params: &ProcessParams, out: &mut [f64]) {
    assert_eq!(out.len(), heights.len(), "pressure buffer length");
    let k = params.contact_stiffness();
    let e = params.contact_exponent;
    let pairs = out.iter_mut().zip(heights);
    if e == 1.5 {
        for (q, &z) in pairs {
            let d = (z - z_ref).max(0.0);
            *q = k * (d.sqrt() * d);
        }
    } else {
        for (q, &z) in pairs {
            *q = k * (z - z_ref).max(0.0).powf(e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// The bisection's stopping width (nm): its answer is the midpoint of
    /// a bracket narrower than this.
    const STOP_WIDTH: f64 = 1e-9;

    /// What [`certify`] saw over a set of boards. The shares are of each
    /// check's bound, so a certified set stays at or below 1.
    #[derive(Debug, Default, Clone, Copy)]
    struct Certified {
        boards: u64,
        stats: ContactSolveStats,
        /// The largest `|Δz_ref|` against the bisection.
        worst_dz: f64,
        /// The largest real-valued residual (`e = 3/2` only).
        worst_residual: f64,
    }

    impl AddAssign for Certified {
        fn add_assign(&mut self, o: Self) {
            self.boards += o.boards;
            self.stats += o.stats;
            self.worst_dz = self.worst_dz.max(o.worst_dz);
            self.worst_residual = self.worst_residual.max(o.worst_residual);
        }
    }

    /// The tolerance certification of one solve against the bisection.
    ///
    /// * A solve handed to the bisection answers its bits.
    /// * A Newton answer lies within the bisection's stopping width of
    ///   the bisection's answer (within `8ε·|z|` where the plane's ulp is
    ///   wider than that width, at `|z|` past about 10⁵ nm).
    /// * At `e = 3/2` it leaves a real-valued residual (double-double)
    ///   `|f(z) − P| ≤ (n/2 + 16)·ε·P + 8ε·|z|·|f′(z)|`: twice the force
    ///   the stop rule's rounding floor is worth, once for Newton's error
    ///   estimate and once for the rounding of the last step.
    fn certify(heights: &[f64], p: &ProcessParams, what: &str) -> Certified {
        let (z, stats) = solve_reference_plane_stats(heights, p);
        let want = solve_reference_plane_reference(heights, p);
        let mut seen = Certified { boards: 1, stats, ..Certified::default() };
        if stats.fallbacks > 0 {
            assert_eq!(z.to_bits(), want.to_bits(), "{what}: a fallback answers the bisection's bits");
            return seen;
        }
        seen.worst_dz = (z - want).abs() / STOP_WIDTH.max(8.0 * f64::EPSILON * z.abs());
        assert!(seen.worst_dz <= 1.0, "{what}: Newton {z} vs bisection {want}");
        if p.contact_exponent == 1.5 {
            let (k, target, n) = (p.contact_stiffness(), p.applied_pressure, heights.len() as f64);
            let f = real_force_e15(heights, k, z);
            let residual = ((f.0 - target) + f.1).abs();
            let slope = k * 1.5 * force_sums(heights, z, 1.5).1 / n;
            let bound = (n / 2.0 + 16.0) * f64::EPSILON * target + 8.0 * f64::EPSILON * z.abs() * slope;
            seen.worst_residual = residual / bound;
            assert!(
                seen.worst_residual <= 1.0,
                "{what}: residual {residual:e} over its bound {bound:e}"
            );
        }
        seen
    }

    fn with_exponent(e: f64) -> ProcessParams {
        ProcessParams { contact_exponent: e, ..ProcessParams::default() }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        // Random boards up to chip size under random exponents (one draw
        // in four below 1, where the bisection carries the solve) and
        // penetrations.
        #[test]
        fn newton_is_certified_on_random_boards(
            n in prop_oneof![1usize..300, 300usize..65_537],
            base in -100.0f64..600.0,
            spread in 0.0f64..80.0,
            exponent in prop_oneof![Just(1.0f64), Just(1.5), 1.0f64..2.5, 0.3f64..1.0],
            penetration in 0.5f64..60.0,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let heights: Vec<f64> =
                (0..n).map(|_| base + rng.gen_range(0.0..=1.0) * spread).collect();
            let p = ProcessParams {
                contact_exponent: exponent,
                reference_penetration: penetration,
                ..ProcessParams::default()
            };
            certify(&heights, &p, &format!("n={n} e={exponent} pen={penetration}"));
        }
    }

    /// Flat fields: the start is the root up to rounding, so the solve
    /// ends after one pass, as on the first step of every polish.
    #[test]
    fn newton_is_certified_on_flat_fields_in_one_pass() {
        for n in [1usize, 2, 3, 64, 1000, 65_536] {
            for h in [0.0f64, 500.0, 800.0, -250.0, 1e-12, 763.123_456_789] {
                let seen = certify(&vec![h; n], &ProcessParams::default(), &format!("n={n} h={h}"));
                assert_eq!(
                    seen.stats,
                    ContactSolveStats { newton_passes: 1, fallbacks: 0 },
                    "n={n} h={h}"
                );
            }
        }
    }

    /// Near-flat boards (spread 1e-12 to 1e-6), two levels, heights at
    /// ±1e9, non-finite heights and degenerate stiffness, under three
    /// exponents.
    #[test]
    fn newton_is_certified_on_hard_boards() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut total = Certified::default();
        for n in [1usize, 2, 64, 4096, 65_536] {
            for e in [1.0, 1.5, 2.5] {
                let p = with_exponent(e);
                let mut check = |heights: &[f64], what: String| total += certify(heights, &p, &what);
                for spread in [1e-12, 1e-10, 1e-9, 1e-8, 1e-6] {
                    let heights: Vec<f64> =
                        (0..n).map(|_| 500.0 + rng.gen_range(0.0..=1.0) * spread).collect();
                    check(&heights, format!("spread {spread} n={n} e={e}"));
                }
                let mut heights = vec![500.0; n];
                heights[n / 2] = 300.0;
                check(&heights, format!("two-level n={n} e={e}"));
                for base in [1e9, -1e9] {
                    let heights: Vec<f64> = (0..n).map(|_| base + rng.gen_range(0.0..40.0)).collect();
                    check(&heights, format!("base {base} n={n} e={e}"));
                }
                let heights: Vec<f64> = (0..n).map(|i| if i % 2 == 0 { 1e9 } else { -1e9 }).collect();
                check(&heights, format!("±1e9 n={n} e={e}"));
                if n >= 2 {
                    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                        let mut heights: Vec<f64> =
                            (0..n).map(|_| rng.gen_range(760.0..800.0)).collect();
                        heights[n - 1] = bad;
                        check(&heights, format!("{bad} last n={n} e={e}"));
                        heights[0] = bad;
                        check(&heights, format!("{bad} first+last n={n} e={e}"));
                    }
                }
            }
        }
        // Degenerate stiffness: `pen^e` under- or overflows, k is ∞ or 0.
        let heights: Vec<f64> = (0..64).map(|_| rng.gen_range(760.0..800.0)).collect();
        for pen in [1e-200, 1e200] {
            let p = ProcessParams { reference_penetration: pen, ..with_exponent(2.0) };
            assert!(!(p.contact_stiffness().is_finite() && p.contact_stiffness() != 0.0));
            total += certify(&heights, &p, &format!("degenerate k, pen {pen}"));
        }
        println!("{total:?}");
        // The bisection answers the 72 boards with a non-finite height,
        // the two degenerate stiffnesses and the eight ±1e9 boards at
        // e > 1, where Newton closes the 2e9 nm gap from its start by only
        // a third per pass; Newton answers the other 127.
        assert_eq!((total.boards, total.stats.fallbacks), (209, 82), "{total:?}");
    }

    /// A board with no finite height used to hang the bisection's bracket
    /// walk. Both solvers answer NaN, `+∞` and `−∞` on them.
    #[test]
    fn boards_without_a_finite_height_answer_their_height() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let heights = vec![bad; 16];
            let p = ProcessParams::default();
            for z in [solve_reference_plane(&heights, &p), solve_reference_plane_reference(&heights, &p)]
            {
                assert!(z == bad || (bad.is_nan() && z.is_nan()), "{bad}: {z}");
            }
        }
    }

    #[test]
    fn newton_reports_its_passes() {
        let p = ProcessParams::default();
        let heights: Vec<f64> = (0..4096).map(|i| 500.0 + (i % 97) as f64).collect();
        let seen = certify(&heights, &p, "ramp");
        assert_eq!(seen.stats.fallbacks, 0, "{seen:?}");
        assert!((2..=5).contains(&seen.stats.newton_passes), "{seen:?}");
        // The bisection answers a degenerate stiffness without a pass.
        let p = ProcessParams { reference_penetration: 1e200, ..with_exponent(2.0) };
        let (_, stats) = solve_reference_plane_stats(&heights, &p);
        assert_eq!(stats, ContactSolveStats { newton_passes: 0, fallbacks: 1 });
    }

    /// Runs the polish loop of one layer under `p`, with `solve` for the
    /// plane and `pressures` for the windows, and hands `visit` every
    /// smoothed board the solve sees, with its step. Returns the final
    /// up- and down-area heights.
    fn polish(
        layer: &crate::LayerInput,
        p: &ProcessParams,
        solve: impl Fn(&[f64]) -> f64,
        pressures: impl Fn(&[f64], f64) -> Vec<f64>,
        mut visit: impl FnMut(usize, &[f64]),
    ) -> (Vec<f64>, Vec<f64>) {
        use crate::{dish_erosion_factors, polish_pointwise};
        let kernel = crate::PadKernel::exponential(p.character_length, p.kernel_radius);
        let (rows, cols) = (layer.rows, layer.cols);
        let rho_eff = kernel.apply(&layer.density, rows, cols);
        let (dish, erosion) = dish_erosion_factors(&layer.avg_width, &layer.perimeter, p);
        let mut z_up = vec![p.initial_height; rows * cols];
        let mut z_down: Vec<f64> = z_up.iter().map(|z| z - p.initial_step).collect();
        for step in 0..p.steps {
            let smoothed = kernel.apply(&z_up, rows, cols);
            let q = pressures(&smoothed, solve(&smoothed));
            polish_pointwise(&mut z_up, &mut z_down, &q, &rho_eff, &dish, &erosion, p);
            visit(step, &smoothed);
        }
        (z_up, z_down)
    }

    /// The bisection's polish loop: its plane, and every pressure
    /// `k·powf(d, e)`.
    fn polish_on_the_bisection(layer: &crate::LayerInput, p: &ProcessParams) -> (Vec<f64>, Vec<f64>) {
        let (k, e) = (p.contact_stiffness(), p.contact_exponent);
        let powf_pressures =
            |h: &[f64], z_ref: f64| h.iter().map(|&z| k * (z - z_ref).max(0.0).powf(e)).collect();
        polish(layer, p, |h| solve_reference_plane_reference(h, p), powf_pressures, |_, _| {})
    }

    /// The largest height in `a` or `b` apart from its partner.
    fn max_gap(a: &(Vec<f64>, Vec<f64>), b: &(Vec<f64>, Vec<f64>)) -> f64 {
        let pairs = a.0.iter().zip(&b.0).chain(a.1.iter().zip(&b.1));
        pairs.map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
    }

    /// How far (nm) the Newton loop's polished heights may end from the
    /// bisection loop's.
    const HEIGHT_BOUND: f64 = 1e-8;

    /// Designs A/B/C at the flow's 32×32 under the default process, every
    /// layer: every one of the 450 boards the polish loop solves is
    /// certified, the first step of each layer ends after one pass, and
    /// the polished up- and down-area heights stay within
    /// [`HEIGHT_BOUND`] of a loop on the bisection with `powf` pressures.
    #[test]
    fn newton_polish_loop_is_certified_on_abc_and_ends_near_the_bisection_loop() {
        let p = ProcessParams::default();
        let (mut total, mut worst_gap) = (Certified::default(), 0.0f64);
        for layout in neurfill_layout::benchmark_designs(32, 32, 1) {
            for layer in 0..layout.num_layers() {
                let input = crate::LayerInput::from_layout(&layout, layer);
                let what = format!("{} layer {layer}", layout.name());
                let newton = polish(
                    &input,
                    &p,
                    |h| solve_reference_plane(h, &p),
                    |h, z_ref| window_pressures(h, z_ref, &p),
                    |step, h| {
                        let seen = certify(h, &p, &format!("{what} step {step}"));
                        if step == 0 {
                            assert_eq!(seen.stats.newton_passes, 1, "{what}: step 0");
                        }
                        total += seen;
                    },
                );
                let gap = max_gap(&newton, &polish_on_the_bisection(&input, &p));
                assert!(gap <= HEIGHT_BOUND, "{what}: heights {gap:e} nm from the bisection loop's");
                worst_gap = worst_gap.max(gap);
            }
        }
        println!("{total:?}, heights at most {worst_gap:e} nm apart");
        assert_eq!(total.boards, 450);
        assert_eq!(total.stats.fallbacks, 0, "{total:?}");
    }

    /// Every polish board of layer 0 of `chip_golden`'s chip (design C,
    /// 256², seed 7) certified, and its heights against the bisection
    /// loop's.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "release-only: ci.sh runs it with --release")]
    fn newton_is_certified_on_chip_golden_boards() {
        use neurfill_layout::{DesignKind, FullChipSpec};
        let p = ProcessParams::default();
        let chip = FullChipSpec::new(DesignKind::RiscV, 256, 256, 7).build().generate();
        let input = crate::LayerInput::from_layout(&chip, 0);
        let mut total = Certified::default();
        let newton = polish(
            &input,
            &p,
            |h| solve_reference_plane(h, &p),
            |h, z_ref| window_pressures(h, z_ref, &p),
            |step, h| total += certify(h, &p, &format!("step {step}")),
        );
        let gap = max_gap(&newton, &polish_on_the_bisection(&input, &p));
        println!("{total:?}, heights at most {gap:e} nm apart");
        assert_eq!(total.boards, p.steps as u64);
        assert_eq!(total.stats.fallbacks, 0, "{total:?}");
        assert!(total.stats.newton_passes <= 4 * total.boards, "{total:?}");
        assert!(gap <= HEIGHT_BOUND, "heights {gap:e} nm from the bisection loop's");
    }

    /// The pressures are `k·(√d·d)` at `e = 3/2` and `k·powf(d, e)`
    /// otherwise, on contact depths from `±0` and subnormals to `±∞` and
    /// NaN.
    #[test]
    fn pressures_take_sqrt_at_three_halves_and_powf_otherwise() {
        let z_ref = 763.25;
        let mut heights = vec![0.0, -0.0, 5e-324, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, z_ref];
        heights.extend([z_ref.next_up(), z_ref.next_down(), f64::MAX, 1e9]);
        heights.extend((1..200).map(|m| z_ref + f64::from(m * m)));
        for e in [1.5, 1.0, 2.5] {
            let p = with_exponent(e);
            let k = p.contact_stiffness();
            let got = window_pressures(&heights, z_ref, &p);
            for (q, &z) in got.iter().zip(&heights) {
                let d = (z - z_ref).max(0.0);
                let want = if e == 1.5 { k * (d.sqrt() * d) } else { k * d.powf(e) };
                assert_eq!(q.to_bits(), want.to_bits(), "e={e} z={z}");
                let powf = k * d.powf(e);
                let close = *q == powf || (q - powf).abs() <= 4.0 * f64::EPSILON * powf;
                assert!(close, "e={e} z={z}: {q} vs powf {powf}");
            }
        }
    }
}
