//! Property-based tests of the optimizers: feasibility, monotonicity and
//! optimality invariants over randomized problems.

use neurfill_optim::testfns::gaussian_peaks;
use neurfill_optim::{Bounds, BoxNormalized, FnObjective, Nmmso, NmmsoConfig, SqpConfig, SqpSolver};
use proptest::prelude::*;
use rand::SeedableRng;

fn quadratic(center: Vec<f64>, weights: Vec<f64>) -> impl neurfill_optim::Objective {
    let c2 = center.clone();
    let w2 = weights.clone();
    FnObjective::new(
        center.len(),
        move |x: &[f64]| {
            -x.iter().zip(&center).zip(&weights).map(|((a, b), w)| w * (a - b) * (a - b)).sum::<f64>()
        },
        move |x: &[f64]| x.iter().zip(&c2).zip(&w2).map(|((a, b), w)| -2.0 * w * (a - b)).collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sqp_finds_clipped_quadratic_optimum(
        center in proptest::collection::vec(-2.0f64..3.0, 4),
        weights in proptest::collection::vec(0.5f64..8.0, 4),
        start in proptest::collection::vec(0.0f64..1.0, 4),
    ) {
        let obj = quadratic(center.clone(), weights);
        let bounds = Bounds::new(vec![0.0; 4], vec![1.0; 4]);
        let r = SqpSolver::new(SqpConfig { max_iterations: 300, ..SqpConfig::default() })
            .maximize(&obj, &bounds, &start);
        prop_assert!(bounds.contains(&r.x, 1e-9));
        // Separable quadratic: the box optimum is the clipped center.
        for (xi, ci) in r.x.iter().zip(&center) {
            prop_assert!((xi - ci.clamp(0.0, 1.0)).abs() < 1e-3, "{xi} vs {ci}");
        }
    }

    #[test]
    fn sqp_history_is_monotone(
        center in proptest::collection::vec(-1.0f64..2.0, 3),
        start in proptest::collection::vec(0.0f64..1.0, 3),
    ) {
        let obj = quadratic(center, vec![1.0; 3]);
        let bounds = Bounds::new(vec![0.0; 3], vec![1.0; 3]);
        let r = SqpSolver::default().maximize(&obj, &bounds, &start);
        for w in r.history.windows(2) {
            prop_assert!(w[1] >= w[0] - 1e-12);
        }
    }

    #[test]
    fn projected_gradient_stays_feasible(
        center in proptest::collection::vec(-2.0f64..3.0, 3),
        start in proptest::collection::vec(0.0f64..1.0, 3),
    ) {
        let obj = quadratic(center, vec![1.0; 3]);
        let bounds = Bounds::new(vec![0.0; 3], vec![1.0; 3]);
        let r = SqpSolver::new(SqpConfig { memory: 0, ..SqpConfig::default() })
            .maximize(&obj, &bounds, &start);
        prop_assert!(bounds.contains(&r.x, 1e-9));
    }

    #[test]
    fn box_normalization_does_not_change_the_optimum(
        center in proptest::collection::vec(100.0f64..900.0, 3),
        span in 500.0f64..5000.0,
    ) {
        let obj = quadratic(center.clone(), vec![1.0; 3]);
        let bounds = Bounds::new(vec![0.0; 3], vec![span; 3]);
        let (norm, unit) = BoxNormalized::new(&obj, &bounds);
        let r = SqpSolver::new(SqpConfig { max_iterations: 300, ..SqpConfig::default() })
            .maximize(&norm, &unit, &[0.5; 3]);
        let x = norm.to_x(&r.x);
        for (xi, ci) in x.iter().zip(&center) {
            prop_assert!((xi - ci.clamp(0.0, span)).abs() < span * 1e-3, "{xi} vs {ci}");
        }
    }

    #[test]
    fn nmmso_modes_are_feasible_and_sorted(seed in 0u64..64) {
        let obj = gaussian_peaks(
            2,
            vec![(vec![0.25, 0.25], 1.0, 0.15), (vec![0.75, 0.75], 0.8, 0.15)],
        );
        let bounds = Bounds::new(vec![0.0; 2], vec![1.0; 2]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cfg = NmmsoConfig { max_evaluations: 400, ..NmmsoConfig::default() };
        let result = Nmmso::new(cfg).maximize(&obj, &bounds, &mut rng);
        prop_assert!(!result.modes.is_empty());
        for m in &result.modes {
            prop_assert!(bounds.contains(&m.x, 1e-9));
        }
        for w in result.modes.windows(2) {
            prop_assert!(w[0].value >= w[1].value);
        }
    }
}
