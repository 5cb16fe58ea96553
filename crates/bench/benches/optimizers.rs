//! Criterion micro-benchmarks of the optimization substrate: SQP major
//! iterations, the same solver without its curvature model (`memory: 0`,
//! projected steepest ascent) and NMMSO generations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use neurfill_optim::testfns::{gaussian_peaks, neg_sphere};
use neurfill_optim::{Bounds, Nmmso, NmmsoConfig, SqpConfig, SqpSolver};
use rand::SeedableRng;

fn bench_sqp(c: &mut Criterion) {
    let mut group = c.benchmark_group("sqp_maximize");
    group.sample_size(10);
    for &dim in &[100usize, 1000] {
        let obj = neg_sphere(dim);
        let bounds = Bounds::new(vec![-1.0; dim], vec![1.0; dim]);
        let solver = SqpSolver::new(SqpConfig { max_iterations: 25, ..SqpConfig::default() });
        let x0 = vec![0.5; dim];
        group.bench_with_input(BenchmarkId::from_parameter(dim), &dim, |b, _| {
            b.iter(|| solver.maximize(std::hint::black_box(&obj), &bounds, &x0));
        });
    }
    group.finish();
}

fn bench_projected_gradient(c: &mut Criterion) {
    let mut group = c.benchmark_group("projected_gradient_ablation");
    group.sample_size(10);
    let dim = 1000;
    let obj = neg_sphere(dim);
    let bounds = Bounds::new(vec![-1.0; dim], vec![1.0; dim]);
    let solver = SqpSolver::new(SqpConfig { max_iterations: 25, memory: 0, ..SqpConfig::default() });
    let x0 = vec![0.5; dim];
    group.bench_function("dim1000", |b| {
        b.iter(|| solver.maximize(std::hint::black_box(&obj), &bounds, &x0));
    });
    group.finish();
}

fn bench_nmmso(c: &mut Criterion) {
    let mut group = c.benchmark_group("nmmso_search");
    group.sample_size(10);
    let obj = gaussian_peaks(
        2,
        vec![(vec![0.2, 0.2], 1.0, 0.12), (vec![0.8, 0.8], 0.9, 0.12), (vec![0.2, 0.8], 0.8, 0.12)],
    );
    let bounds = Bounds::new(vec![0.0; 2], vec![1.0; 2]);
    group.bench_function("budget500", |b| {
        b.iter(|| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(3);
            Nmmso::new(NmmsoConfig { max_evaluations: 500, ..NmmsoConfig::default() }).maximize(
                std::hint::black_box(&obj),
                &bounds,
                &mut rng,
            )
        });
    });
    group.finish();
}

criterion_group!(benches, bench_sqp, bench_projected_gradient, bench_nmmso);
criterion_main!(benches);
