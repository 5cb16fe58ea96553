//! Deterministic fault-injection tests of the runtime's failure model.
//! Every scenario is driven by a seeded [`FaultPlan`] — no sleeps as
//! synchronization, no reliance on thread interleaving: the plan decides
//! exactly which invocation of which site faults.

use neurfill::extraction::NUM_CHANNELS;
use neurfill::pipeline::FlowConfig;
use neurfill::{CmpNeuralNetwork, CmpNnConfig, HeightNorm, NeurFillConfig};
use neurfill_cmpsim::ProcessParams;
use neurfill_layout::{DesignKind, DesignSpec, Layout};
use neurfill_nn::{UNet, UNetConfig};
use neurfill_optim::SqpConfig;
use neurfill_runtime::{
    FaultPlan, JobSpec, JobStatus, ModelBundle, PoolOptions, RetryPolicy, RuntimePool,
};
use rand::SeedableRng;
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

fn layout(seed: u64) -> Layout {
    DesignSpec::new(DesignKind::CmpTest, 8, 8, seed).generate()
}

fn pool_with(plan: &str, options: PoolOptions) -> RuntimePool {
    let bundle = Arc::new(ModelBundle::from_network(&network(42)).unwrap());
    let options = PoolOptions { fault: Arc::new(FaultPlan::parse(plan, 0).unwrap()), ..options };
    RuntimePool::new(bundle, flow_config(), options).unwrap()
}

fn done(status: Option<JobStatus>) -> Box<neurfill_runtime::JobReport> {
    match status {
        Some(JobStatus::Done(report)) => report,
        other => panic!("expected a completed job, got {other:?}"),
    }
}

fn failed(status: Option<JobStatus>) -> String {
    match status {
        Some(JobStatus::Failed(msg)) => msg,
        other => panic!("expected a failed job, got {other:?}"),
    }
}

#[test]
fn injected_panic_fails_only_its_job_and_spares_the_worker() {
    // The first synthesis panics; the worker must survive and run the
    // second job to completion on the same thread.
    let pool = pool_with("synthesis=panic@1", PoolOptions { workers: 1, ..PoolOptions::default() });
    let first = pool.submit(JobSpec::new("panics", layout(1))).unwrap();
    let second = pool.submit(JobSpec::new("survives", layout(2))).unwrap();

    let msg = failed(pool.wait(first));
    assert!(msg.contains("panicked") && msg.contains("fault injected"), "{msg}");
    let report = done(pool.wait(second));
    assert!(report.quality.is_finite());

    let stats = pool.shutdown();
    assert_eq!(stats.jobs_failed, 1);
    assert_eq!(stats.jobs_completed, 1);
    assert_eq!(stats.retries, 0, "panics are permanent, never retried");
}

#[test]
fn transient_synthesis_fault_retries_and_succeeds() {
    let pool = pool_with(
        "synthesis=transient@1",
        PoolOptions {
            workers: 1,
            retry: RetryPolicy {
                max_retries: 2,
                base_backoff: Duration::ZERO,
                ..RetryPolicy::default()
            },
            ..PoolOptions::default()
        },
    );
    let id = pool.submit(JobSpec::new("flaky", layout(3))).unwrap();
    let report = done(pool.wait(id));
    assert!(report.degraded.is_none(), "retry path is not a degradation");
    let stats = pool.shutdown();
    assert_eq!(stats.retries, 1, "exactly the one injected transient");
    assert_eq!(stats.jobs_completed, 1);
    assert_eq!(stats.jobs_failed, 0);
}

#[test]
fn transient_hydration_fault_is_retried_with_a_fresh_hydration() {
    let pool = pool_with(
        "hydrate=transient@1",
        PoolOptions {
            workers: 1,
            retry: RetryPolicy {
                max_retries: 1,
                base_backoff: Duration::ZERO,
                ..RetryPolicy::default()
            },
            ..PoolOptions::default()
        },
    );
    // The worker's first hydration attempt fails transiently; the retry
    // hydrates afresh.
    let id = pool.submit(JobSpec::new("hydrate-flaky", layout(4))).unwrap();
    let report = done(pool.wait(id));
    assert!(report.quality.is_finite());
    let stats = pool.shutdown();
    assert_eq!(stats.retries, 1);
    assert_eq!(stats.hydrations, 1, "the worker's successful second attempt");
}

#[test]
fn exhausted_retry_budget_fails_with_the_transient_error() {
    let pool = pool_with(
        "synthesis=transient",
        PoolOptions {
            workers: 1,
            retry: RetryPolicy {
                max_retries: 2,
                base_backoff: Duration::ZERO,
                ..RetryPolicy::default()
            },
            ..PoolOptions::default()
        },
    );
    let id = pool.submit(JobSpec::new("always-flaky", layout(5))).unwrap();
    let msg = failed(pool.wait(id));
    assert!(msg.contains("transient"), "{msg}");
    let stats = pool.shutdown();
    assert_eq!(stats.retries, 2, "full budget consumed");
    assert_eq!(stats.jobs_failed, 1);
}

#[test]
fn mid_job_deadline_aborts_synthesis_cooperatively() {
    // The injected delay holds the job at the synthesis site well past its
    // deadline; the cancel token then aborts inside the flow (not at
    // dequeue — the job had already started).
    let pool = pool_with("synthesis=delay1000@1", PoolOptions { workers: 1, ..PoolOptions::default() });
    let id = pool
        .submit(JobSpec {
            name: "deadline".into(),
            layout: layout(6),
            timeout: Some(Duration::from_millis(250)),
        })
        .unwrap();
    let msg = failed(pool.wait(id));
    assert!(msg.contains("deadline exceeded"), "cooperative mid-job abort, got: {msg}");
    let stats = pool.shutdown();
    assert_eq!(stats.jobs_failed, 1);
    assert_eq!(stats.retries, 0, "deadline errors are not retryable");
}

#[test]
fn cancellation_hits_running_and_queued_jobs() {
    // One worker: job A sleeps 500ms at the synthesis site, job B queues
    // behind it. Cancelling both while A sleeps exercises the mid-job
    // cancellation point (A) and the at-dequeue check (B).
    let pool = pool_with("synthesis=delay500@1", PoolOptions { workers: 1, ..PoolOptions::default() });
    let a = pool.submit(JobSpec::new("running", layout(7))).unwrap();
    let b = pool.submit(JobSpec::new("queued", layout(8))).unwrap();
    assert!(pool.cancel(a), "running job is cancellable");
    assert!(pool.cancel(b), "queued job is cancellable");
    assert!(!pool.cancel(9_999), "unknown ids are not");

    let msg_a = failed(pool.wait(a));
    assert!(msg_a.contains("cancelled"), "{msg_a}");
    let msg_b = failed(pool.wait(b));
    assert!(msg_b.contains("cancelled"), "{msg_b}");
    assert!(!pool.cancel(a), "terminal jobs are no longer cancellable");

    assert!(pool.wait(9_999).is_none(), "unknown ids wait to None");
    assert!(pool.status(9_999).is_none());
    let stats = pool.shutdown();
    assert_eq!(stats.jobs_failed, 2);
}

#[test]
fn verify_forward_panic_fails_only_its_job_and_spares_the_worker() {
    // Synthesis of the first job succeeds; its verification forward
    // panics. Like every other panic it fails that job only.
    let pool = pool_with("verify_forward=panic@1", PoolOptions { workers: 1, ..PoolOptions::default() });
    let first = pool.submit(JobSpec::new("panics", layout(9))).unwrap();
    let second = pool.submit(JobSpec::new("survives", layout(10))).unwrap();
    let msg = failed(pool.wait(first));
    assert!(msg.contains("panicked") && msg.contains("verify_forward"), "{msg}");
    assert!(done(pool.wait(second)).degraded.is_none());
    let stats = pool.shutdown();
    assert_eq!(stats.jobs_failed, 1);
    assert_eq!(stats.jobs_completed, 1);
    assert_eq!(stats.retries, 0, "panics are permanent, never retried");
}

#[test]
fn transient_verify_forward_fault_retries_and_succeeds() {
    let pool = pool_with(
        "verify_forward=transient@1",
        PoolOptions {
            workers: 1,
            retry: RetryPolicy {
                max_retries: 2,
                base_backoff: Duration::ZERO,
                ..RetryPolicy::default()
            },
            ..PoolOptions::default()
        },
    );
    let id = pool.submit(JobSpec::new("flaky-verify", layout(12))).unwrap();
    let report = done(pool.wait(id));
    assert!(report.degraded.is_none(), "retry path is not a degradation");
    let stats = pool.shutdown();
    assert_eq!(stats.retries, 1, "exactly the one injected transient");
    assert_eq!(stats.jobs_completed, 1);
    assert_eq!(stats.jobs_failed, 0);
}

#[test]
fn nan_poisoned_heights_degrade_verification_to_the_golden_simulator() {
    let pool = pool_with("verify_forward=nan", PoolOptions { workers: 1, ..PoolOptions::default() });
    let id = pool.submit(JobSpec::new("poisoned", layout(11))).unwrap();
    let report = done(pool.wait(id));
    let reason = report.degraded.as_deref().expect("health guard must trip on NaN heights");
    assert!(reason.contains("non-finite"), "{reason}");
    assert!(
        report.predicted.sigma.is_finite(),
        "golden-simulator verification still yields usable metrics"
    );
    assert!(report.to_text().contains("degraded"), "report text records the degradation");
    let stats = pool.shutdown();
    assert_eq!(stats.jobs_degraded, 1);
    assert_eq!(stats.jobs_completed, 1, "a degraded job still completes");
    assert_eq!(stats.jobs_failed, 0);
}
