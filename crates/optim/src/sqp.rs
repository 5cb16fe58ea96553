//! The scalable SQP solver used by NeurFill's MSP-SQP framework
//! (paper §IV, Fig. 7).
//!
//! Dummy-fill synthesis has thousands of box-constrained variables, so the
//! quadratic subproblem is solved approximately with a limited-memory
//! (L-BFGS) quasi-Newton model and a projected-arc line search — the
//! standard large-scale realization of the SQP family for pure box
//! constraints (cf. L-BFGS-B).

use crate::linesearch::projected_backtracking;
use crate::problem::{Bounds, Objective};
use std::collections::VecDeque;

/// SQP solver configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SqpConfig {
    /// Maximum major iterations.
    pub max_iterations: usize,
    /// Convergence threshold on the projected-gradient norm.
    pub tolerance: f64,
    /// L-BFGS history length; `0` keeps no history (projected steepest
    /// ascent).
    pub memory: usize,
    /// Armijo sufficient-increase constant.
    pub armijo_c1: f64,
    /// Maximum halvings in the line search.
    pub max_backtracks: usize,
    /// Initial trial step of each line search.
    pub initial_step: f64,
}

impl Default for SqpConfig {
    fn default() -> Self {
        Self {
            max_iterations: 100,
            tolerance: 1e-6,
            memory: 10,
            armijo_c1: 1e-4,
            max_backtracks: 30,
            initial_step: 1.0,
        }
    }
}

/// Result of an SQP maximization.
#[derive(Debug, Clone, PartialEq)]
pub struct SqpResult {
    /// Final (feasible) point.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub value: f64,
    /// Major iterations that took a step (`history.len()`).
    pub iterations: usize,
    /// Objective evaluations spent, failed line searches included.
    pub evaluations: usize,
    /// Gradient evaluations spent.
    pub gradient_evaluations: usize,
    /// Whether the projected-gradient tolerance was reached, or no trial
    /// of either line search increased a finite objective with a finite
    /// gradient. Never set at a NaN value or gradient.
    pub converged: bool,
    /// Whether the solve was abandoned early because the caller's stop
    /// predicate fired (see [`SqpSolver::maximize_with_stop`]). The
    /// returned point is still the best feasible iterate found.
    pub stopped: bool,
    /// Objective value after each major iteration.
    pub history: Vec<f64>,
}

/// Limited-memory BFGS state (maximization convention).
#[derive(Debug, Default)]
struct Lbfgs {
    memory: usize,
    s: VecDeque<Vec<f64>>,
    y: VecDeque<Vec<f64>>, // y in minimization convention: −(g₊ − g₋)
}

impl Lbfgs {
    fn new(memory: usize) -> Self {
        Self { memory, s: VecDeque::new(), y: VecDeque::new() }
    }

    /// Stores a curvature pair, evicting the oldest at `memory` pairs. A
    /// zero `memory` stores nothing: every direction is the gradient, so
    /// the solver is projected steepest ascent.
    fn push(&mut self, s: Vec<f64>, y: Vec<f64>) {
        if self.memory == 0 {
            return;
        }
        let sy: f64 = s.iter().zip(&y).map(|(a, b)| a * b).sum();
        if sy <= 1e-12 {
            return; // skip non-curvature pairs
        }
        if self.s.len() == self.memory {
            self.s.pop_front();
            self.y.pop_front();
        }
        self.s.push_back(s);
        self.y.push_back(y);
    }

    /// Two-loop recursion: returns the ascent direction `H·g`.
    fn ascent_direction(&self, grad: &[f64]) -> Vec<f64> {
        // Work in minimization convention on q = −g, return −H·q = H·g.
        let mut q: Vec<f64> = grad.iter().map(|g| -g).collect();
        let k = self.s.len();
        let mut alpha = vec![0.0; k];
        let mut rho = vec![0.0; k];
        for i in (0..k).rev() {
            let sy: f64 = self.s[i].iter().zip(&self.y[i]).map(|(a, b)| a * b).sum();
            rho[i] = 1.0 / sy;
            let sq: f64 = self.s[i].iter().zip(&q).map(|(a, b)| a * b).sum();
            alpha[i] = rho[i] * sq;
            for (qj, yj) in q.iter_mut().zip(&self.y[i]) {
                *qj -= alpha[i] * yj;
            }
        }
        // Initial Hessian scaling γ = sᵀy / yᵀy.
        if k > 0 {
            let sy: f64 = self.s[k - 1].iter().zip(&self.y[k - 1]).map(|(a, b)| a * b).sum();
            let yy: f64 = self.y[k - 1].iter().map(|y| y * y).sum();
            let gamma = if yy > 0.0 { sy / yy } else { 1.0 };
            for qj in &mut q {
                *qj *= gamma;
            }
        }
        for i in 0..k {
            let yq: f64 = self.y[i].iter().zip(&q).map(|(a, b)| a * b).sum();
            let beta = rho[i] * yq;
            for (qj, sj) in q.iter_mut().zip(&self.s[i]) {
                *qj += (alpha[i] - beta) * sj;
            }
        }
        q.iter().map(|v| -v).collect()
    }
}

/// Whether a point whose line searches all failed may be called
/// stationary: only when its value and gradient are finite. A NaN value or
/// gradient rejects every trial too, and that is not convergence.
fn stationary_when_no_step(f: f64, g: &[f64]) -> bool {
    f.is_finite() && g.iter().all(|v| v.is_finite())
}

/// How many coordinates of `x` sit on a face of the box.
fn active_bounds(bounds: &Bounds, x: &[f64]) -> usize {
    x.iter()
        .zip(bounds.lower().iter().zip(bounds.upper()))
        .filter(|(v, (l, u))| v <= l || v >= u)
        .count()
}

/// Sequential-quadratic-programming maximizer for box-constrained smooth
/// objectives.
///
/// # Examples
///
/// ```
/// use neurfill_optim::{Bounds, FnObjective, SqpConfig, SqpSolver};
///
/// // maximize −(x−0.3)² − (y−0.7)² over the unit box
/// let obj = FnObjective::new(
///     2,
///     |x: &[f64]| -(x[0] - 0.3f64).powi(2) - (x[1] - 0.7f64).powi(2),
///     |x: &[f64]| vec![-2.0 * (x[0] - 0.3), -2.0 * (x[1] - 0.7)],
/// );
/// let bounds = Bounds::new(vec![0.0, 0.0], vec![1.0, 1.0]);
/// let result = SqpSolver::new(SqpConfig::default()).maximize(&obj, &bounds, &[0.0, 0.0]);
/// assert!(result.converged);
/// assert!((result.x[0] - 0.3).abs() < 1e-4);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SqpSolver {
    config: SqpConfig,
    telemetry: neurfill_obs::Telemetry,
}

impl SqpSolver {
    /// Creates a solver with the given configuration.
    #[must_use]
    pub fn new(config: SqpConfig) -> Self {
        Self { config, telemetry: neurfill_obs::Telemetry::disabled() }
    }

    /// Attaches a telemetry handle; each solve then contributes to the
    /// `optim.sqp.*` counters (among them `linesearch_failures`, searches
    /// that accepted no trial, `trials_skipped`, trials rejected without an
    /// evaluation, and `active_at_qn_failure`, the coordinates on a face of
    /// the box summed over the quasi-Newton searches that failed) and the
    /// `optim.sqp.solve_ns` histogram.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: neurfill_obs::Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The solver's configuration.
    #[must_use]
    pub fn config(&self) -> &SqpConfig {
        &self.config
    }

    /// Maximizes `objective` over `bounds` starting from `x0` (projected
    /// into the box first).
    ///
    /// # Panics
    ///
    /// Panics when `x0.len()` differs from the bound dimension.
    #[must_use]
    pub fn maximize(&self, objective: &dyn Objective, bounds: &Bounds, x0: &[f64]) -> SqpResult {
        self.maximize_with_stop(objective, bounds, x0, &|| false)
    }

    /// [`SqpSolver::maximize`] with a cooperative stop predicate, checked
    /// once per major iteration: when `should_stop` returns `true` the
    /// solve abandons further iterations and returns the best feasible
    /// iterate so far with [`SqpResult::stopped`] set. A predicate that
    /// never fires leaves the trajectory bit-identical to
    /// [`SqpSolver::maximize`].
    ///
    /// # Panics
    ///
    /// Panics when `x0.len()` differs from the bound dimension.
    #[must_use]
    pub fn maximize_with_stop(
        &self,
        objective: &dyn Objective,
        bounds: &Bounds,
        x0: &[f64],
        should_stop: &dyn Fn() -> bool,
    ) -> SqpResult {
        assert_eq!(x0.len(), bounds.dim(), "start point dimension mismatch");
        let _solve_timer = self.telemetry.time("optim.sqp.solve_ns");
        let cfg = &self.config;
        let mut x = bounds.projected(x0);
        let (mut f, mut g) = objective.value_and_gradient(&x);
        let mut evaluations = 1;
        let mut gradient_evaluations = 1;
        let mut linesearch_failures = 0;
        let mut trials_skipped = 0;
        let mut active_at_qn_failure = 0;
        let mut lbfgs = Lbfgs::new(cfg.memory);
        let mut history = Vec::with_capacity(cfg.max_iterations);
        let mut converged = false;
        let mut stopped = false;
        let mut iterations = 0;

        for _ in 0..cfg.max_iterations {
            if should_stop() {
                stopped = true;
                break;
            }
            if bounds.projected_gradient_norm(&x, &g) <= cfg.tolerance {
                converged = true;
                break;
            }
            let direction = lbfgs.ascent_direction(&g);
            // Quasi-Newton direction first; when it fails, the
            // steepest-ascent fallback.
            let mut accepted = None;
            for (k, d) in [&direction, &g].into_iter().enumerate() {
                let ls = projected_backtracking(
                    objective,
                    bounds,
                    &x,
                    f,
                    &g,
                    d,
                    cfg.initial_step,
                    cfg.armijo_c1,
                    cfg.max_backtracks,
                );
                evaluations += ls.evaluations;
                trials_skipped += ls.skipped;
                accepted = ls.accepted;
                if accepted.is_some() {
                    break;
                }
                linesearch_failures += 1;
                if k == 0 {
                    active_at_qn_failure += active_bounds(bounds, &x);
                }
            }
            let Some(ls) = accepted else {
                // No ascent achievable: first-order stationary in practice,
                // unless the objective answered NaN.
                converged = stationary_when_no_step(f, &g);
                break;
            };
            iterations += 1;
            let g_new = objective.gradient(&ls.x);
            gradient_evaluations += 1;
            let s: Vec<f64> = ls.x.iter().zip(&x).map(|(a, b)| a - b).collect();
            let y: Vec<f64> = g.iter().zip(&g_new).map(|(old, new)| old - new).collect();
            lbfgs.push(s, y);
            x = ls.x;
            f = ls.value;
            g = g_new;
            history.push(f);
        }

        if self.telemetry.is_enabled() {
            self.telemetry.inc("optim.sqp.solves");
            self.telemetry.add("optim.sqp.iterations", iterations as u64);
            self.telemetry.add("optim.sqp.evaluations", evaluations as u64);
            self.telemetry.add("optim.sqp.gradient_evaluations", gradient_evaluations as u64);
            self.telemetry.add("optim.sqp.linesearch_failures", linesearch_failures as u64);
            self.telemetry.add("optim.sqp.trials_skipped", trials_skipped as u64);
            self.telemetry.add("optim.sqp.active_at_qn_failure", active_at_qn_failure as u64);
        }
        SqpResult {
            x,
            value: f,
            iterations,
            evaluations,
            gradient_evaluations,
            converged,
            stopped,
            history,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::FnObjective;
    use std::cell::Cell;

    fn neg_quadratic(center: Vec<f64>) -> impl Objective {
        let c2 = center.clone();
        FnObjective::new(
            center.len(),
            move |x: &[f64]| -x.iter().zip(&center).map(|(a, b)| (a - b) * (a - b)).sum::<f64>(),
            move |x: &[f64]| x.iter().zip(&c2).map(|(a, b)| -2.0 * (a - b)).collect(),
        )
    }

    /// The shipped solver and the same solver without its curvature model
    /// (`memory: 0`, projected steepest ascent).
    fn with_and_without_curvature(config: SqpConfig) -> [SqpSolver; 2] {
        [10, 0].map(|memory| SqpSolver::new(SqpConfig { memory, ..config.clone() }))
    }

    #[test]
    fn converges_to_interior_maximum() {
        let obj = neg_quadratic(vec![0.25, 0.5, 0.75]);
        let bounds = Bounds::new(vec![0.0; 3], vec![1.0; 3]);
        for solver in with_and_without_curvature(SqpConfig::default()) {
            let r = solver.maximize(&obj, &bounds, &[0.9, 0.9, 0.9]);
            assert!(r.converged, "{r:?}");
            for (xi, ci) in r.x.iter().zip([0.25, 0.5, 0.75]) {
                assert!((xi - ci).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn lands_on_active_bound() {
        // Maximum at (2, 2) lies outside the unit box ⇒ solution (1, 1).
        let obj = neg_quadratic(vec![2.0, 2.0]);
        let bounds = Bounds::new(vec![0.0; 2], vec![1.0; 2]);
        for solver in with_and_without_curvature(SqpConfig::default()) {
            let r = solver.maximize(&obj, &bounds, &[0.0, 0.0]);
            assert!(r.converged);
            assert!(bounds.contains(&r.x, 0.0), "{r:?}");
            assert!((r.x[0] - 1.0).abs() < 1e-8);
            assert!((r.x[1] - 1.0).abs() < 1e-8);
        }
    }

    #[test]
    fn curvature_model_needs_fewer_iterations_on_ill_conditioned_problem() {
        // κ = 400 quadratic: curvature information should pay off.
        let obj = FnObjective::new(
            2,
            |x: &[f64]| -(x[0] - 0.5f64).powi(2) - 400.0 * (x[1] - 0.5f64).powi(2),
            |x: &[f64]| vec![-2.0 * (x[0] - 0.5), -800.0 * (x[1] - 0.5)],
        );
        let bounds = Bounds::new(vec![0.0; 2], vec![1.0; 2]);
        let config = SqpConfig { max_iterations: 1000, ..SqpConfig::default() };
        let [sqp, steepest] =
            with_and_without_curvature(config).map(|solver| solver.maximize(&obj, &bounds, &[0.0, 0.0]));
        assert!(sqp.converged && steepest.converged, "{sqp:?} {steepest:?}");
        assert!(sqp.iterations < steepest.iterations, "{} vs {}", sqp.iterations, steepest.iterations);
    }

    #[test]
    fn maximizes_negated_rosenbrock() {
        // max −rosenbrock: optimum (1, 1); a stiff curved valley exercises
        // the quasi-Newton model.
        let obj = FnObjective::new(
            2,
            |x: &[f64]| {
                let a = 1.0 - x[0];
                let b = x[1] - x[0] * x[0];
                -(a * a + 100.0 * b * b)
            },
            |x: &[f64]| {
                let b = x[1] - x[0] * x[0];
                vec![2.0 * (1.0 - x[0]) + 400.0 * x[0] * b, -200.0 * b]
            },
        );
        let bounds = Bounds::new(vec![-2.0; 2], vec![2.0; 2]);
        let cfg = SqpConfig { max_iterations: 2000, tolerance: 1e-6, ..SqpConfig::default() };
        let r = SqpSolver::new(cfg).maximize(&obj, &bounds, &[-1.2, 1.0]);
        assert!((r.x[0] - 1.0).abs() < 1e-3, "{:?}", r.x);
        assert!((r.x[1] - 1.0).abs() < 1e-3, "{:?}", r.x);
    }

    #[test]
    fn history_is_monotone_nondecreasing() {
        let obj = neg_quadratic(vec![0.3, 0.6]);
        let bounds = Bounds::new(vec![0.0; 2], vec![1.0; 2]);
        let r = SqpSolver::default().maximize(&obj, &bounds, &[1.0, 0.0]);
        for w in r.history.windows(2) {
            assert!(w[1] >= w[0] - 1e-12, "{:?}", r.history);
        }
    }

    #[test]
    fn start_outside_box_is_projected() {
        let obj = neg_quadratic(vec![0.5]);
        let bounds = Bounds::new(vec![0.0], vec![1.0]);
        let r = SqpSolver::default().maximize(&obj, &bounds, &[42.0]);
        assert!(bounds.contains(&r.x, 1e-12));
        assert!((r.x[0] - 0.5).abs() < 1e-5);
    }

    #[test]
    fn zero_iterations_at_optimum() {
        let obj = neg_quadratic(vec![0.5]);
        let bounds = Bounds::new(vec![0.0], vec![1.0]);
        let r = SqpSolver::default().maximize(&obj, &bounds, &[0.5]);
        assert!(r.converged);
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn an_iteration_that_takes_no_step_is_not_counted() {
        // Constant value, non-zero gradient: every trial is evaluated and
        // fails Armijo, along the quasi-Newton direction and along the
        // gradient, so the first major iteration exits without a step.
        let calls = Cell::new(0usize);
        let obj = FnObjective::new(
            2,
            |_: &[f64]| {
                calls.set(calls.get() + 1);
                1.0
            },
            |_: &[f64]| vec![1.0, 0.5],
        );
        let bounds = Bounds::new(vec![0.0; 2], vec![1.0; 2]);
        for solver in with_and_without_curvature(SqpConfig::default()) {
            calls.set(0);
            let r = solver.maximize(&obj, &bounds, &[0.5, 0.5]);
            assert!(r.converged, "{r:?}");
            assert_eq!(r.iterations, 0);
            assert!(r.history.is_empty());
            assert_eq!(r.evaluations, calls.get());
            assert!(r.evaluations > 1, "the failed searches evaluated trials: {r:?}");
            assert_eq!(r.x, vec![0.5, 0.5]);
        }

        // Linear objective with a cap: the first search steps to the
        // bound, then every trial of the next is a non-ascent projection
        // and fails. That failed search is not an iteration, and the
        // iterate never leaves the box.
        let linear = FnObjective::new(1, |x: &[f64]| x[0], |_| vec![1.0]);
        let capped = Bounds::new(vec![0.0], vec![0.3]);
        for solver in with_and_without_curvature(SqpConfig { tolerance: -1.0, ..SqpConfig::default() }) {
            let r = solver.maximize(&linear, &capped, &[0.0]);
            assert!(r.converged, "{r:?}");
            assert_eq!((r.iterations, r.history.len()), (1, 1), "{r:?}");
            assert_eq!(r.x, vec![0.3]);
        }
    }

    #[test]
    fn a_nan_objective_or_gradient_is_not_convergence() {
        // A NaN value fails every Armijo test, a NaN gradient makes every
        // predicted increase NaN: both searches fail from the start point.
        let nan_value = FnObjective::new(2, |_: &[f64]| f64::NAN, |_: &[f64]| vec![1.0, 0.5]);
        let nan_gradient = FnObjective::new(2, |_: &[f64]| 1.0, |_: &[f64]| vec![f64::NAN, 0.5]);
        let bounds = Bounds::new(vec![0.0; 2], vec![1.0; 2]);
        for solver in with_and_without_curvature(SqpConfig::default()) {
            for obj in [&nan_value as &dyn Objective, &nan_gradient] {
                let r = solver.maximize(obj, &bounds, &[0.5, 0.5]);
                assert!(!r.converged, "{r:?}");
                assert_eq!((r.iterations, r.history.len()), (0, 0), "{r:?}");
                assert_eq!(r.x, vec![0.5, 0.5]);
            }
        }
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn a_capped_solve_is_the_prefix_of_a_longer_one() {
        // The cap is only the loop's trip count: a solve capped at N takes
        // the first N steps of the uncapped solve, line-search failures and
        // L-BFGS evictions included, and stops there.
        let calls = Cell::new(0usize);
        let coupled = coupled_quadratic(12, &calls);
        let rosenbrock = crate::testfns::neg_rosenbrock();
        let cases: [(&dyn Objective, Bounds, Vec<f64>); 2] = [
            (&coupled, Bounds::new(vec![0.0; 12], vec![1.0; 12]), vec![0.5; 12]),
            (&rosenbrock, Bounds::new(vec![-2.0; 2], vec![2.0; 2]), vec![-1.2, 1.0]),
        ];
        for (obj, bounds, x0) in &cases {
            let solve = |max_iterations| {
                let cfg = SqpConfig { max_iterations, tolerance: 0.0, ..SqpConfig::default() };
                SqpSolver::new(cfg).maximize(*obj, bounds, x0)
            };
            let long = solve(2000);
            assert!(long.history.len() > 12, "{:?}", long.history);
            for n in [1, 2, 5, 11, long.history.len() / 2, long.history.len()] {
                let capped = solve(n);
                assert_eq!(capped.iterations, n);
                assert_eq!(bits(&capped.history), bits(&long.history[..n]), "cap {n}");
                assert_eq!(capped.value.to_bits(), long.history[n - 1].to_bits(), "cap {n}");
                assert!(!capped.converged, "cap {n}");
            }
        }
    }

    #[test]
    fn stop_predicate_aborts_mid_optimization() {
        // Far-off maximum so the default tolerance is never reached in two
        // iterations; the predicate must cut the solve short.
        let obj = neg_quadratic(vec![0.9, 0.9, 0.9]);
        let bounds = Bounds::new(vec![0.0; 3], vec![1.0; 3]);
        let calls = Cell::new(0usize);
        let stop = || {
            calls.set(calls.get() + 1);
            calls.get() > 2
        };
        let r = SqpSolver::default().maximize_with_stop(&obj, &bounds, &[0.0; 3], &stop);
        assert!(r.stopped, "{r:?}");
        assert!(!r.converged);
        assert_eq!(r.iterations, 2, "stopped at the third iteration check");

        // A predicate that never fires is bit-identical to maximize().
        let a = SqpSolver::default().maximize(&obj, &bounds, &[0.0; 3]);
        let b = SqpSolver::default().maximize_with_stop(&obj, &bounds, &[0.0; 3], &|| false);
        assert_eq!(a, b);
    }

    /// Concave quadratic `−½·xᵀAx + bᵀx` with `A = I + c·11ᵀ`: the strong
    /// coupling makes quasi-Newton directions leave the box, so some of
    /// their projected arcs are not ascent arcs and the search fails.
    fn coupled_quadratic(n: usize, calls: &Cell<usize>) -> impl Objective + '_ {
        let b: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 11) as f64 - 3.0).collect();
        let b2 = b.clone();
        let ax = |x: &[f64]| -> Vec<f64> {
            let sum: f64 = x.iter().sum();
            x.iter().map(|xi| xi + 4.0 * sum).collect()
        };
        FnObjective::new(
            n,
            move |x: &[f64]| {
                calls.set(calls.get() + 1);
                x.iter().zip(ax(x)).zip(&b).map(|((xi, axi), bi)| bi * xi - 0.5 * xi * axi).sum()
            },
            move |x: &[f64]| {
                calls.set(calls.get() + 1);
                ax(x).iter().zip(&b2).map(|(axi, bi)| bi - axi).collect()
            },
        )
    }

    #[test]
    fn evaluations_account_for_every_objective_call() {
        // With 30 backtracks the failed searches consist of skipped trials;
        // with 2, one runs out of schedule on evaluated trials, which the
        // solver used to drop from its count.
        for max_backtracks in [30, 2] {
            let calls = Cell::new(0usize);
            let obj = coupled_quadratic(12, &calls);
            let bounds = Bounds::new(vec![0.0; 12], vec![1.0; 12]);
            let telemetry = neurfill_obs::Telemetry::new();
            let r = SqpSolver::new(SqpConfig { max_backtracks, ..SqpConfig::default() })
                .with_telemetry(telemetry.clone())
                .maximize(&obj, &bounds, &[0.5; 12]);
            // `FnObjective` answers `value_and_gradient` with one call each.
            assert_eq!(r.evaluations + r.gradient_evaluations, calls.get(), "{r:?}");
            let snap = telemetry.snapshot();
            assert_eq!(snap.counter("optim.sqp.evaluations"), r.evaluations as u64);
            assert!(snap.counter("optim.sqp.linesearch_failures") > 0, "{}", snap.summary());
            assert!(snap.counter("optim.sqp.trials_skipped") > 0, "{}", snap.summary());
        }
    }

    #[test]
    fn active_bounds_at_failed_quasi_newton_searches_are_counted_without_moving_the_solve() {
        let calls = Cell::new(0usize);
        let obj = coupled_quadratic(12, &calls);
        let bounds = Bounds::new(vec![0.0; 12], vec![1.0; 12]);
        let telemetry = neurfill_obs::Telemetry::new();
        let counted =
            SqpSolver::default().with_telemetry(telemetry.clone()).maximize(&obj, &bounds, &[0.5; 12]);
        let plain = SqpSolver::default().maximize(&obj, &bounds, &[0.5; 12]);
        assert_eq!(counted, plain);
        let snap = telemetry.snapshot();
        let failures = snap.counter("optim.sqp.linesearch_failures");
        let active = snap.counter("optim.sqp.active_at_qn_failure");
        // An L-BFGS direction fails at every step size only when some
        // coordinate is held on a face; no more than all of them can be.
        assert!(active > 0, "{}", snap.summary());
        assert!(active <= failures * 12, "{}", snap.summary());
        assert_eq!(active_bounds(&bounds, &[0.0, 0.5, 1.0, 1.0]), 3);
    }

    #[test]
    fn zero_memory_keeps_no_history_and_steps_along_the_gradient() {
        // Ill-conditioned, so 50 steepest-ascent steps stay far from the
        // maximum and every search accepts a step.
        let weights = [1.0, 10.0, 100.0];
        let center = [0.5, -0.25, 0.75];
        let obj = FnObjective::new(
            3,
            |x: &[f64]| -(0..3).map(|i| weights[i] * (x[i] - center[i]).powi(2)).sum::<f64>(),
            |x: &[f64]| (0..3).map(|i| -2.0 * weights[i] * (x[i] - center[i])).collect(),
        );
        let bounds = Bounds::new(vec![-10.0; 3], vec![10.0; 3]);
        let x0 = [-8.0, 9.0, 4.0];
        let cfg = SqpConfig { memory: 0, max_iterations: 50, tolerance: 0.0, ..SqpConfig::default() };

        // The solver's loop, replayed with the history in view.
        let mut lbfgs = Lbfgs::new(0);
        let mut x = x0.to_vec();
        let (mut f, mut g) = obj.value_and_gradient(&x);
        for _ in 0..50 {
            let d = lbfgs.ascent_direction(&g);
            assert_eq!(d, g);
            let ls = projected_backtracking(
                &obj,
                &bounds,
                &x,
                f,
                &g,
                &d,
                cfg.initial_step,
                cfg.armijo_c1,
                cfg.max_backtracks,
            )
            .accepted
            .unwrap();
            let g_new = obj.gradient(&ls.x);
            lbfgs.push(
                ls.x.iter().zip(&x).map(|(a, b)| a - b).collect(),
                g.iter().zip(&g_new).map(|(old, new)| old - new).collect(),
            );
            assert!(lbfgs.s.is_empty() && lbfgs.y.is_empty());
            (x, f, g) = (ls.x, ls.value, g_new);
        }

        let r = SqpSolver::new(cfg).maximize(&obj, &bounds, &x0);
        assert_eq!((r.iterations, r.converged), (50, false), "{r:?}");
        assert_eq!(r.x, x);
        assert_eq!(r.value, f);
    }

    #[test]
    fn scales_to_moderately_high_dimension() {
        let n = 500;
        let center: Vec<f64> = (0..n).map(|i| (i % 10) as f64 / 10.0).collect();
        let obj = neg_quadratic(center.clone());
        let bounds = Bounds::new(vec![0.0; n], vec![1.0; n]);
        let r = SqpSolver::default().maximize(&obj, &bounds, &vec![0.0; n]);
        assert!(r.converged);
        let err: f64 = r.x.iter().zip(&center).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
        assert!(err < 1e-3, "max err {err}");
    }
}
