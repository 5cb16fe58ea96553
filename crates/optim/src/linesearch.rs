//! Backtracking line search along the projected arc.

use crate::problem::{Bounds, Objective};

/// The accepted trial of a projected-arc line search.
#[derive(Debug, Clone, PartialEq)]
pub struct LineSearchResult {
    /// Accepted point (already projected into the box).
    pub x: Vec<f64>,
    /// Objective value at the accepted point.
    pub value: f64,
}

/// Outcome of one projected-arc line search, successful or not.
#[derive(Debug, Clone, PartialEq)]
pub struct LineSearch {
    /// The accepted trial; `None` when no step in the schedule achieves
    /// sufficient increase (the caller should then fall back to a steepest
    /// direction or declare convergence).
    pub accepted: Option<LineSearchResult>,
    /// Objective evaluations actually spent, including those of a search
    /// that accepted nothing.
    pub evaluations: usize,
    /// Trials rejected without an evaluation because the projected step
    /// was not an ascent step.
    pub skipped: usize,
}

/// Backtracking Armijo search along the projected arc
/// `x(α) = P(x₀ + α·d)` for a maximization problem.
///
/// A trial is accepted when `predicted > 0` and
/// `value ≥ f0 + c1·predicted`, where `predicted = ∇f·(x(α) − x₀)`. A
/// trial with `predicted ≤ 0` (or NaN) fails the first condition whatever
/// the objective returns, so it is rejected without evaluating the
/// objective: the schedule and the outcome are those of a search that
/// evaluates every trial.
#[must_use]
#[allow(clippy::too_many_arguments)] // mirrors the line-search signature of optimization texts
pub fn projected_backtracking(
    objective: &dyn Objective,
    bounds: &Bounds,
    x0: &[f64],
    f0: f64,
    grad: &[f64],
    direction: &[f64],
    alpha0: f64,
    c1: f64,
    max_backtracks: usize,
) -> LineSearch {
    let mut alpha = alpha0;
    let mut evaluations = 0;
    let mut skipped = 0;
    for _ in 0..max_backtracks {
        let mut x = x0.to_vec();
        for (xi, di) in x.iter_mut().zip(direction) {
            *xi += alpha * di;
        }
        bounds.project(&mut x);
        // Directional increase predicted by the gradient over the actual
        // (projected) displacement.
        let predicted: f64 = grad.iter().zip(x.iter().zip(x0)).map(|(g, (xn, xo))| g * (xn - xo)).sum();
        if predicted > 0.0 {
            evaluations += 1;
            let value = objective.value(&x);
            if value >= f0 + c1 * predicted {
                return LineSearch {
                    accepted: Some(LineSearchResult { x, value }),
                    evaluations,
                    skipped,
                };
            }
        } else {
            skipped += 1;
        }
        alpha *= 0.5;
    }
    LineSearch { accepted: None, evaluations, skipped }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::FnObjective;
    use proptest::prelude::*;
    use std::cell::Cell;

    #[test]
    fn finds_full_step_on_linear_objective() {
        let obj = FnObjective::new(1, |x: &[f64]| x[0], |_| vec![1.0]);
        let b = Bounds::new(vec![-10.0], vec![10.0]);
        let ls = projected_backtracking(&obj, &b, &[0.0], 0.0, &[1.0], &[1.0], 1.0, 1e-4, 20);
        let r = ls.accepted.unwrap();
        // The full step: x₀ + 1·d, scored once.
        assert_eq!(r.x, vec![1.0]);
        assert_eq!(r.value.to_bits(), 1.0f64.to_bits());
        assert_eq!((ls.evaluations, ls.skipped), (1, 0));
    }

    #[test]
    fn backtracks_on_overshoot() {
        // f(x) = -(x-0.1)²: full step to 1.0 overshoots the peak at 0.1.
        let obj = FnObjective::new(
            1,
            |x: &[f64]| -(x[0] - 0.1) * (x[0] - 0.1),
            |x: &[f64]| vec![-2.0 * (x[0] - 0.1)],
        );
        let b = Bounds::new(vec![-1.0], vec![1.0]);
        let g = obj.gradient(&[0.0]);
        let r = projected_backtracking(&obj, &b, &[0.0], obj.value(&[0.0]), &g, &[1.0], 1.0, 0.5, 30)
            .accepted
            .unwrap();
        // Steps 1, 1/2, 1/4 and 1/8 fail Armijo at c1 = 0.5; 1/16 passes.
        assert_eq!(r.x, vec![0.0625]);
        assert_eq!(r.value.to_bits(), obj.value(&[0.0625]).to_bits());
        assert!(r.value > obj.value(&[0.0]));
    }

    #[test]
    fn respects_bounds_via_projection() {
        let obj = FnObjective::new(1, |x: &[f64]| x[0], |_| vec![1.0]);
        let b = Bounds::new(vec![0.0], vec![0.25]);
        let r = projected_backtracking(&obj, &b, &[0.0], 0.0, &[1.0], &[1.0], 1.0, 1e-4, 20)
            .accepted
            .unwrap();
        assert_eq!(r.x, vec![0.25]);
    }

    #[test]
    fn descent_direction_fails_without_evaluating() {
        let calls = Cell::new(0usize);
        let obj = FnObjective::new(
            1,
            |x: &[f64]| {
                calls.set(calls.get() + 1);
                x[0]
            },
            |_| vec![1.0],
        );
        let b = Bounds::new(vec![-10.0], vec![10.0]);
        // Direction opposite to the gradient cannot yield an increase.
        let ls = projected_backtracking(&obj, &b, &[0.0], 0.0, &[1.0], &[-1.0], 1.0, 1e-4, 10);
        assert!(ls.accepted.is_none());
        assert_eq!((ls.evaluations, ls.skipped), (0, 10));
        assert_eq!(calls.get(), 0);
    }

    /// The line search this module replaced: evaluates the objective on
    /// every trial, then tests `predicted > 0` together with Armijo.
    #[allow(clippy::too_many_arguments)]
    fn always_evaluate_reference(
        objective: &dyn Objective,
        bounds: &Bounds,
        x0: &[f64],
        f0: f64,
        grad: &[f64],
        direction: &[f64],
        alpha0: f64,
        c1: f64,
        max_backtracks: usize,
    ) -> Option<LineSearchResult> {
        let mut alpha = alpha0;
        for _ in 0..max_backtracks {
            let mut x = x0.to_vec();
            for (xi, di) in x.iter_mut().zip(direction) {
                *xi += alpha * di;
            }
            bounds.project(&mut x);
            let predicted: f64 =
                grad.iter().zip(x.iter().zip(x0)).map(|(g, (xn, xo))| g * (xn - xo)).sum();
            let value = objective.value(&x);
            if predicted > 0.0 && value >= f0 + c1 * predicted {
                return Some(LineSearchResult { x, value });
            }
            alpha *= 0.5;
        }
        None
    }

    fn bits(r: &Option<LineSearchResult>) -> Option<(Vec<u64>, u64)> {
        r.as_ref().map(|r| (r.x.iter().map(|v| v.to_bits()).collect(), r.value.to_bits()))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // Quadratics (concave, convex and saddle), directions that are
        // ascent, descent or mixed, starts on and off the bounds: the
        // outcome is bit-equal to the always-evaluate search and no call
        // is made on a trial whose projected step is not an ascent step.
        #[test]
        fn matches_always_evaluate_reference(
            center in proptest::collection::vec(-2.0f64..3.0, 5),
            weights in proptest::collection::vec(-4.0f64..8.0, 5),
            start in proptest::collection::vec(-0.5f64..1.5, 5),
            mix in proptest::collection::vec(-1.0f64..1.0, 5),
            kind in 0usize..4,
            alpha0 in 0.05f64..4.0,
            c1 in 1e-6f64..0.5,
            max_backtracks in 0usize..34,
        ) {
            let bounds = Bounds::new(vec![0.0; 5], vec![1.0; 5]);
            // Clamping the start puts about half the coordinates on an
            // active bound.
            let x0 = bounds.projected(&start);
            let value = |x: &[f64]| -> f64 {
                -x.iter().zip(&center).zip(&weights).map(|((a, b), w)| w * (a - b) * (a - b)).sum::<f64>()
            };
            let grad: Vec<f64> =
                x0.iter().zip(&center).zip(&weights).map(|((a, b), w)| -2.0 * w * (a - b)).collect();
            let direction: Vec<f64> = match kind {
                0 => grad.clone(),
                1 => grad.iter().map(|g| -g).collect(),
                2 => grad.iter().zip(&mix).map(|(g, m)| g * m).collect(),
                _ => mix.clone(),
            };
            let f0 = value(&x0);

            let skipped_calls = Cell::new(0usize);
            let calls = Cell::new(0usize);
            let counting = FnObjective::new(
                5,
                |x: &[f64]| {
                    calls.set(calls.get() + 1);
                    let predicted: f64 =
                        grad.iter().zip(x.iter().zip(&x0)).map(|(g, (xn, xo))| g * (xn - xo)).sum();
                    if predicted.is_nan() || predicted <= 0.0 {
                        skipped_calls.set(skipped_calls.get() + 1);
                    }
                    value(x)
                },
                |_| vec![0.0; 5],
            );
            let got = projected_backtracking(
                &counting, &bounds, &x0, f0, &grad, &direction, alpha0, c1, max_backtracks,
            );
            prop_assert_eq!(skipped_calls.get(), 0);
            prop_assert_eq!(got.evaluations, calls.get());

            let reference_calls = Cell::new(0usize);
            let plain = FnObjective::new(
                5,
                |x: &[f64]| {
                    reference_calls.set(reference_calls.get() + 1);
                    value(x)
                },
                |_| vec![0.0; 5],
            );
            let want = always_evaluate_reference(
                &plain, &bounds, &x0, f0, &grad, &direction, alpha0, c1, max_backtracks,
            );
            prop_assert_eq!(bits(&got.accepted), bits(&want));
            // Every trial of the schedule is either evaluated or skipped.
            prop_assert_eq!(got.evaluations + got.skipped, reference_calls.get());
        }
    }
}
