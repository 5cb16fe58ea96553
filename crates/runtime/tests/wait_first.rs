//! `RuntimePool::wait_first` under cancellation and worker panic: the
//! selector must surface cancelled and panicked jobs as terminal
//! failures (never hang, never drop them), and the pool must stay
//! usable afterwards. Ordering is forced with deterministic fault-plan
//! delays, not sleeps.

use neurfill::extraction::NUM_CHANNELS;
use neurfill::pipeline::FlowConfig;
use neurfill::{CmpNeuralNetwork, CmpNnConfig, HeightNorm, NeurFillConfig};
use neurfill_cmpsim::ProcessParams;
use neurfill_layout::{DesignKind, DesignSpec, Layout};
use neurfill_nn::{UNet, UNetConfig};
use neurfill_optim::SqpConfig;
use neurfill_runtime::{FaultPlan, JobSpec, JobStatus, ModelBundle, PoolOptions, RuntimePool};
use rand::SeedableRng;
use std::sync::Arc;

fn bundle() -> Arc<ModelBundle> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let unet = UNet::new(
        UNetConfig { in_channels: NUM_CHANNELS, out_channels: 1, base_channels: 4, depth: 2 },
        &mut rng,
    );
    let net =
        CmpNeuralNetwork::new(unet, HeightNorm::default(), Default::default(), CmpNnConfig::default());
    Arc::new(ModelBundle::from_network(&net).unwrap())
}

fn flow_config() -> FlowConfig {
    FlowConfig {
        process: ProcessParams::fast(),
        neurfill: NeurFillConfig {
            sqp: SqpConfig { max_iterations: 2, ..SqpConfig::default() },
            ..NeurFillConfig::default()
        },
        beta_time_s: 60.0,
        ..FlowConfig::default()
    }
}

fn layout(seed: u64) -> Layout {
    DesignSpec::new(DesignKind::CmpTest, 8, 8, seed).generate()
}

fn pool_with(workers: usize, fault: &str) -> RuntimePool {
    RuntimePool::new(
        bundle(),
        flow_config(),
        PoolOptions {
            workers,
            fault: Arc::new(FaultPlan::parse(fault, 0).unwrap()),
            ..PoolOptions::default()
        },
    )
    .unwrap()
}

#[test]
fn wait_first_surfaces_cancelled_queued_job() {
    // One worker, first synthesis delayed: job A deterministically pins
    // the worker while B sits queued and gets cancelled.
    let pool = pool_with(1, "synthesis=delay300@1");
    let a = pool.submit(JobSpec::new("pin", layout(1))).unwrap();
    let b = pool.submit(JobSpec::new("victim", layout(2))).unwrap();

    assert!(pool.cancel(b), "queued job must accept cancellation");

    // The selector must return B as terminal (failed with a
    // cancellation message), not hang on it or skip it.
    let (id, status) = pool.wait_first(&[b]).expect("job known to the pool");
    assert_eq!(id, b);
    match status {
        JobStatus::Failed(msg) => {
            assert!(msg.contains("cancelled"), "cancellation must be named: {msg}")
        }
        other => panic!("cancelled job must fail, got {other:?}"),
    }
    // Cancelling a terminal job is a no-op.
    assert!(!pool.cancel(b), "terminal job must refuse cancellation");

    // The pinned job is unaffected. B's status was taken above, so the
    // pool no longer knows it: the selector must wait for A and return it
    // done.
    let (id, status) = pool.wait_first(&[a, b]).expect("A is known to the pool");
    assert_eq!(id, a, "a taken job is never selected again");
    assert!(matches!(status, JobStatus::Done(_)), "pinned job must finish, got {status:?}");
    let _ = pool.shutdown();
}

#[test]
fn wait_first_surfaces_worker_panic_and_pool_survives() {
    // First synthesis panics; the supervisor converts it to Failed.
    let pool = pool_with(2, "synthesis=panic@1");
    let p = pool.submit(JobSpec::new("panics", layout(3))).unwrap();

    let (id, status) = pool.wait_first(&[p]).expect("job known to the pool");
    assert_eq!(id, p);
    match status {
        JobStatus::Failed(msg) => {
            assert!(msg.contains("panic"), "panic must be named: {msg}")
        }
        other => panic!("panicked job must fail, got {other:?}"),
    }

    // The worker that caught the panic keeps serving jobs.
    let q = pool.submit(JobSpec::new("after", layout(4))).unwrap();
    let (id, status) = pool.wait_first(&[q]).expect("job known to the pool");
    assert_eq!(id, q);
    assert!(matches!(status, JobStatus::Done(_)), "pool must survive a worker panic");
    let _ = pool.shutdown();
}

#[test]
fn wait_first_returns_none_for_unknown_ids() {
    let pool = pool_with(1, "");
    assert!(pool.wait_first(&[]).is_none(), "empty id set has no first");
    assert!(pool.wait_first(&[9999]).is_none(), "unknown ids must not block");
    let _ = pool.shutdown();
}
