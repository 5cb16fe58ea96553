//! Plain projected gradient ascent — the ablation baseline against the SQP
//! solver (same projected-arc line search, no curvature model).

use crate::linesearch::projected_backtracking;
use crate::problem::{Bounds, Objective};
use crate::sqp::SqpResult;

/// Projected-gradient-ascent configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ProjGradConfig {
    /// Maximum iterations.
    pub max_iterations: usize,
    /// Convergence threshold on the projected-gradient norm.
    pub tolerance: f64,
    /// Initial trial step of each line search.
    pub initial_step: f64,
    /// Armijo constant.
    pub armijo_c1: f64,
    /// Maximum halvings in the line search.
    pub max_backtracks: usize,
}

impl Default for ProjGradConfig {
    fn default() -> Self {
        Self {
            max_iterations: 200,
            tolerance: 1e-6,
            initial_step: 1.0,
            armijo_c1: 1e-4,
            max_backtracks: 30,
        }
    }
}

/// Maximizes `objective` over `bounds` by projected gradient ascent.
///
/// Returns the same result type as the SQP solver for easy comparison.
///
/// # Panics
///
/// Panics when `x0.len()` differs from the bound dimension.
#[must_use]
pub fn maximize_projected_gradient(
    objective: &dyn Objective,
    bounds: &Bounds,
    x0: &[f64],
    config: &ProjGradConfig,
) -> SqpResult {
    assert_eq!(x0.len(), bounds.dim());
    let mut x = bounds.projected(x0);
    let (mut f, mut g) = objective.value_and_gradient(&x);
    let mut evaluations = 1;
    let mut gradient_evaluations = 1;
    let mut history = Vec::new();
    let mut converged = false;
    let mut iterations = 0;
    // Barzilai–Borwein-style step carry-over speeds up plain gradient ascent.
    let mut step = config.initial_step;
    for _ in 0..config.max_iterations {
        if bounds.projected_gradient_norm(&x, &g) <= config.tolerance {
            converged = true;
            break;
        }
        iterations += 1;
        let ls = projected_backtracking(
            objective,
            bounds,
            &x,
            f,
            &g,
            &g,
            step,
            config.armijo_c1,
            config.max_backtracks,
        );
        evaluations += ls.evaluations;
        let Some(ls) = ls.accepted else {
            converged = true;
            break;
        };
        // Grow the trial step when the full step was accepted.
        step = if ls.alpha >= step { step * 2.0 } else { ls.alpha * 2.0 };
        x = ls.x;
        f = ls.value;
        g = objective.gradient(&x);
        gradient_evaluations += 1;
        history.push(f);
    }
    SqpResult {
        x,
        value: f,
        iterations,
        evaluations,
        gradient_evaluations,
        converged,
        stopped: false,
        history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::FnObjective;
    use crate::sqp::{SqpConfig, SqpSolver};

    #[test]
    fn converges_on_separable_quadratic() {
        let obj = FnObjective::new(
            2,
            |x: &[f64]| -(x[0] - 0.4f64).powi(2) - 4.0 * (x[1] - 0.6f64).powi(2),
            |x: &[f64]| vec![-2.0 * (x[0] - 0.4), -8.0 * (x[1] - 0.6)],
        );
        let bounds = Bounds::new(vec![0.0; 2], vec![1.0; 2]);
        let r = maximize_projected_gradient(&obj, &bounds, &[0.0, 0.0], &ProjGradConfig::default());
        assert!(r.converged);
        assert!((r.x[0] - 0.4).abs() < 1e-4, "{:?}", r.x);
        assert!((r.x[1] - 0.6).abs() < 1e-4, "{:?}", r.x);
    }

    #[test]
    fn sqp_needs_fewer_iterations_on_ill_conditioned_problem() {
        // κ = 400 quadratic: curvature information should pay off.
        let obj = FnObjective::new(
            2,
            |x: &[f64]| -(x[0] - 0.5f64).powi(2) - 400.0 * (x[1] - 0.5f64).powi(2),
            |x: &[f64]| vec![-2.0 * (x[0] - 0.5), -800.0 * (x[1] - 0.5)],
        );
        let bounds = Bounds::new(vec![0.0; 2], vec![1.0; 2]);
        let pg = maximize_projected_gradient(
            &obj,
            &bounds,
            &[0.0, 0.0],
            &ProjGradConfig { max_iterations: 1000, ..ProjGradConfig::default() },
        );
        let sqp = SqpSolver::new(SqpConfig { max_iterations: 1000, ..SqpConfig::default() }).maximize(
            &obj,
            &bounds,
            &[0.0, 0.0],
        );
        assert!(sqp.converged && pg.converged);
        assert!(sqp.iterations <= pg.iterations, "sqp {} vs pg {}", sqp.iterations, pg.iterations);
    }

    #[test]
    fn stays_feasible_throughout() {
        let obj = FnObjective::new(1, |x: &[f64]| x[0], |_| vec![1.0]);
        let bounds = Bounds::new(vec![0.0], vec![0.3]);
        let r = maximize_projected_gradient(&obj, &bounds, &[0.0], &ProjGradConfig::default());
        assert!((r.x[0] - 0.3).abs() < 1e-12);
    }
}
