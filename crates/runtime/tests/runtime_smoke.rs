//! End-to-end smoke test of the concurrent runtime: a 2-worker pool over
//! several jobs must complete them all, reproduce the sequential pipeline
//! bit-for-bit, and contain failures without stalling other jobs.

use neurfill::extraction::NUM_CHANNELS;
use neurfill::pipeline::{FillingFlow, FlowConfig};
use neurfill::{CmpNeuralNetwork, CmpNnConfig, HeightNorm, NeurFillConfig, PlanarityMetrics};
use neurfill_cmpsim::{ChipProfile, LayerProfile, ProcessParams};
use neurfill_layout::{apply_fill, DesignKind, DesignSpec, Layout};
use neurfill_nn::{UNet, UNetConfig};
use neurfill_optim::SqpConfig;
use neurfill_runtime::{JobSpec, JobStatus, ModelBundle, PoolOptions, RuntimePool};
use rand::SeedableRng;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

fn network(seed: u64) -> CmpNeuralNetwork {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let unet = UNet::new(
        UNetConfig { in_channels: NUM_CHANNELS, out_channels: 1, base_channels: 4, depth: 2 },
        &mut rng,
    );
    CmpNeuralNetwork::new(unet, HeightNorm::default(), Default::default(), CmpNnConfig::default())
}

fn flow_config() -> FlowConfig {
    FlowConfig {
        process: ProcessParams::fast(),
        neurfill: NeurFillConfig {
            sqp: SqpConfig { max_iterations: 8, ..SqpConfig::default() },
            ..NeurFillConfig::default()
        },
        beta_time_s: 60.0,
        ..FlowConfig::default()
    }
}

fn layouts() -> Vec<Layout> {
    vec![
        DesignSpec::new(DesignKind::CmpTest, 8, 8, 1).generate(),
        DesignSpec::new(DesignKind::Fpga, 8, 8, 2).generate(),
        DesignSpec::new(DesignKind::RiscV, 8, 8, 3).generate(),
        DesignSpec::new(DesignKind::CmpTest, 8, 8, 4).generate(),
    ]
}

#[test]
fn pool_matches_sequential_flow_and_contains_failures() {
    let bundle = Arc::new(ModelBundle::from_network(&network(42)).unwrap());
    let config = flow_config();

    let pool = RuntimePool::new(
        Arc::clone(&bundle),
        config.clone(),
        PoolOptions { workers: 2, ..PoolOptions::default() },
    )
    .unwrap();

    let good: Vec<_> = layouts()
        .into_iter()
        .enumerate()
        .map(|(i, l)| (l.clone(), pool.submit(JobSpec::new(format!("job-{i}"), l)).unwrap()))
        .collect();
    // Deliberate failure: 6x6 is not divisible by the depth-2 UNet's
    // down-sampling factor, so synthesis errors out.
    let bad = pool
        .submit(JobSpec::new("bad-geometry", DesignSpec::new(DesignKind::CmpTest, 6, 6, 9).generate()))
        .unwrap();

    // The failing job reports Failed with its error...
    match pool.wait(bad) {
        Some(JobStatus::Failed(msg)) => assert!(msg.contains("not divisible"), "unexpected: {msg}"),
        other => panic!("bad job must fail, got {other:?}"),
    }

    // ...and every other job still completes, matching a sequential
    // FillingFlow over the same bundle bit-for-bit.
    let sequential = FillingFlow::with_network(Rc::new(bundle.hydrate().unwrap()), config).unwrap();
    for (layout, id) in good {
        let report = match pool.wait(id) {
            Some(JobStatus::Done(report)) => report,
            other => panic!("job must complete, got {other:?}"),
        };
        let expected = sequential.run(&layout).unwrap();
        assert_eq!(report.plan.as_slice(), expected.plan.as_slice(), "{}", report.name);
        assert_eq!(report.quality, expected.scored.quality, "{}", report.name);
        assert_eq!(report.objective_value, expected.synthesis.objective_value, "{}", report.name);
        // `overall` folds the measured wall-clock into the score, so it is
        // close but not bit-comparable across runs; every deterministic
        // output above is.
        assert!(report.overall.is_finite());
        // `predicted` is the surrogate's σ/σ* of the filled layout: the
        // job's multi-layer forward must agree, bit for bit, with plain
        // single-layer forwards on the sequential flow's network.
        let filled = apply_fill(&layout, &expected.plan, &sequential.config().insertion_dummy_spec());
        let (rows, cols) = (filled.rows(), filled.cols());
        let profile = ChipProfile::new(
            (0..filled.num_layers())
                .map(|l| {
                    let heights = sequential.network().predict_layer_heights(&filled, l).unwrap();
                    let zeros = vec![0.0; rows * cols];
                    LayerProfile::new(rows, cols, heights, zeros.clone(), zeros)
                })
                .collect(),
        );
        let predicted = PlanarityMetrics::from_profile(&profile);
        assert_eq!(report.predicted.sigma.to_bits(), predicted.sigma.to_bits(), "{}", report.name);
        assert_eq!(
            report.predicted.sigma_star.to_bits(),
            predicted.sigma_star.to_bits(),
            "{}",
            report.name
        );
    }

    let stats = pool.shutdown();
    assert_eq!(stats.jobs_submitted, 5);
    assert_eq!(stats.jobs_completed, 4);
    assert_eq!(stats.jobs_failed, 1);
    assert_eq!(stats.samples_inferred, 12, "4 completed jobs x 3 layers");
    // Workers hydrate on their first job; one worker may drain the whole
    // queue before the other is scheduled.
    assert!((1..=2).contains(&stats.hydrations), "hydrations {}", stats.hydrations);
}

#[test]
fn wait_first_streams_terminal_jobs_without_blocking_on_the_rest() {
    let bundle = Arc::new(ModelBundle::from_network(&network(11)).unwrap());
    let pool =
        RuntimePool::new(bundle, flow_config(), PoolOptions { workers: 2, ..PoolOptions::default() })
            .unwrap();

    let mut open: Vec<_> = (0..3)
        .map(|i| {
            let layout = DesignSpec::new(DesignKind::CmpTest, 8, 8, i).generate();
            pool.submit(JobSpec::new(format!("stream-{i}"), layout)).unwrap()
        })
        .collect();

    // Drain via wait_first: each call yields a terminal job from the
    // open set until the set is exhausted.
    let mut completed = 0;
    while !open.is_empty() {
        let (id, status) = pool.wait_first(&open).expect("open ids are known");
        assert!(open.contains(&id));
        assert!(status.is_terminal(), "{status:?}");
        assert!(matches!(status, JobStatus::Done(_)));
        open.retain(|&x| x != id);
        completed += 1;
    }
    assert_eq!(completed, 3);

    // Degenerate sets return None instead of blocking forever.
    assert!(pool.wait_first(&[]).is_none());
    assert!(pool.wait_first(&[9999]).is_none());
    let _ = pool.shutdown();
}

#[test]
fn zero_timeout_fails_in_queue_without_stalling_the_pool() {
    let bundle = Arc::new(ModelBundle::from_network(&network(7)).unwrap());
    let pool =
        RuntimePool::new(bundle, flow_config(), PoolOptions { workers: 1, ..PoolOptions::default() })
            .unwrap();

    let expired = pool
        .submit(JobSpec {
            name: "expired".into(),
            layout: DesignSpec::new(DesignKind::CmpTest, 8, 8, 1).generate(),
            timeout: Some(Duration::ZERO),
        })
        .unwrap();
    let normal = pool
        .submit(JobSpec::new("normal", DesignSpec::new(DesignKind::Fpga, 8, 8, 2).generate()))
        .unwrap();

    match pool.wait(expired) {
        Some(JobStatus::Failed(msg)) => assert!(msg.contains("timed out"), "unexpected: {msg}"),
        other => panic!("expired job must fail, got {other:?}"),
    }
    assert!(matches!(pool.wait(normal), Some(JobStatus::Done(_))));
    let stats = pool.shutdown();
    assert_eq!(stats.jobs_completed, 1);
    assert_eq!(stats.jobs_failed, 1);
}
