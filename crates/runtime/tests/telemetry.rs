//! Deterministic telemetry tests: every assertion is driven by a seeded
//! [`FaultPlan`] or a fixed-seed workload — no sleeps as synchronization,
//! no reliance on wall-clock values. Timing histograms are asserted on
//! *counts* (how many observations landed), never on durations.

use neurfill::extraction::NUM_CHANNELS;
use neurfill::pipeline::FlowConfig;
use neurfill::telemetry::{MetricsSnapshot, Telemetry};
use neurfill::{CmpNeuralNetwork, CmpNnConfig, HeightNorm, NeurFillConfig};
use neurfill_cmpsim::ProcessParams;
use neurfill_layout::{DesignKind, DesignSpec, Layout};
use neurfill_nn::{UNet, UNetConfig};
use neurfill_optim::SqpConfig;
use neurfill_runtime::{
    FaultPlan, JobSpec, JobStatus, ModelBundle, PoolOptions, RetryPolicy, RuntimePool, RuntimeStats,
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

/// A pool with telemetry attached and an optional fault plan.
fn pool_with(plan: &str, options: PoolOptions) -> (RuntimePool, Telemetry) {
    let bundle = Arc::new(ModelBundle::from_network(&network(42)).unwrap());
    let telemetry = Telemetry::new();
    let options = PoolOptions {
        fault: Arc::new(FaultPlan::parse(plan, 0).unwrap()),
        telemetry: telemetry.clone(),
        ..options
    };
    (RuntimePool::new(bundle, flow_config(), options).unwrap(), telemetry)
}

fn retry_once() -> RetryPolicy {
    RetryPolicy { max_retries: 2, base_backoff: Duration::ZERO, ..RetryPolicy::default() }
}

/// Run `jobs` fixed-seed layouts to completion and return the snapshot.
fn run_jobs(pool: &RuntimePool, jobs: u64) -> MetricsSnapshot {
    let ids: Vec<_> = (0..jobs)
        .map(|i| pool.submit(JobSpec::new(format!("job-{i}"), layout(100 + i))).unwrap())
        .collect();
    for id in ids {
        match pool.wait(id) {
            Some(JobStatus::Done(_)) => {}
            other => panic!("expected a completed job, got {other:?}"),
        }
    }
    pool.metrics_snapshot()
}

/// Fault events carry structured fields; find one by name or fail loudly.
fn fault_event_named<'s>(snap: &'s MetricsSnapshot, name: &str) -> &'s neurfill::telemetry::Event {
    let faults = snap.events_of_kind("fault");
    faults.iter().find(|e| e.name == name).copied().unwrap_or_else(|| {
        let seen: Vec<_> = faults.iter().map(|e| e.name.as_str()).collect();
        panic!("no fault event named {name:?}; saw {seen:?}")
    })
}

#[test]
fn one_snapshot_covers_sim_optimizer_and_runtime_activity() {
    // The acceptance bar for `--metrics-out`: a single registry, attached
    // at the pool, must see simulator stages, optimizer work, the runtime
    // job lifecycle and verification forwards from one fixed-seed run.
    let (pool, _) = pool_with("", PoolOptions { workers: 1, ..PoolOptions::default() });
    let snap = run_jobs(&pool, 2);
    let _ = pool.shutdown();

    // Runtime job lifecycle.
    assert_eq!(snap.counter("runtime.jobs_submitted"), 2);
    assert_eq!(snap.counter("runtime.jobs_completed"), 2);
    assert_eq!(snap.counter("runtime.jobs_failed"), 0);
    // Verification forwards: every layer of every filled layout scored.
    assert!(snap.counter("runtime.samples_inferred") > 0);
    // Golden-simulator stages ran during verification.
    assert!(snap.counter("sim.layers") > 0, "simulator stage metrics missing");
    assert!(snap.histogram("sim.layer_ns").is_some());
    // The synthesis optimizer reported its iteration counts.
    assert!(snap.counter("optim.sqp.solves") > 0, "SQP metrics missing");
    assert!(snap.counter("optim.sqp.iterations") >= snap.counter("optim.sqp.solves"));
    // Per-job latency histograms: one observation per job.
    assert_eq!(snap.histogram("job.total_ns").map(|h| h.count), Some(2));
    assert_eq!(snap.histogram("job.queue_wait_ns").map(|h| h.count), Some(2));
    // Spans nest under a path; the job span is the root of its thread.
    assert!(snap.events_of_kind("span").iter().any(|e| e.name == "job.total_ns"));
}

#[test]
fn deterministic_counters_agree_between_one_and_many_workers() {
    // Scheduling-dependent counters (hydrations) may vary with worker
    // count, but the work itself is fixed by the seed: same jobs, same
    // samples, same simulator stages, same optimizer trajectory.
    let deterministic = [
        "runtime.jobs_submitted",
        "runtime.jobs_completed",
        "runtime.jobs_failed",
        "runtime.jobs_degraded",
        "runtime.retries",
        "runtime.samples_inferred",
        "sim.layers",
        "optim.sqp.solves",
        "optim.sqp.iterations",
        "optim.sqp.evaluations",
    ];
    let (solo_pool, _) = pool_with("", PoolOptions { workers: 1, ..PoolOptions::default() });
    let solo = run_jobs(&solo_pool, 3);
    let _ = solo_pool.shutdown();
    let (fleet_pool, _) = pool_with("", PoolOptions { workers: 3, ..PoolOptions::default() });
    let fleet = run_jobs(&fleet_pool, 3);
    let _ = fleet_pool.shutdown();

    for name in deterministic {
        assert_eq!(solo.counter(name), fleet.counter(name), "{name} diverged across schedules");
    }
    // Latency histogram *counts* are deterministic too (values are not).
    assert_eq!(
        solo.histogram("job.total_ns").map(|h| h.count),
        fleet.histogram("job.total_ns").map(|h| h.count)
    );
}

#[test]
fn retry_transition_emits_counter_and_fault_event() {
    let (pool, _) = pool_with(
        "synthesis=transient@1",
        PoolOptions { workers: 1, retry: retry_once(), ..PoolOptions::default() },
    );
    let snap = run_jobs(&pool, 1);
    let _ = pool.shutdown();

    assert_eq!(snap.counter("runtime.retries"), 1);
    let event = fault_event_named(&snap, "retry");
    assert_eq!(event.fields.iter().find(|(k, _)| k == "job").map(|(_, v)| v.as_str()), Some("job-0"));
    assert!(event.fields.iter().any(|(k, v)| k == "error" && v.contains("transient")));
}

#[test]
fn nan_degradation_emits_counter_and_fault_event() {
    let (pool, _) =
        pool_with("verify_forward=nan", PoolOptions { workers: 1, ..PoolOptions::default() });
    let snap = run_jobs(&pool, 1);
    let _ = pool.shutdown();

    assert_eq!(snap.counter("runtime.jobs_degraded"), 1);
    assert_eq!(snap.counter("runtime.jobs_completed"), 1, "a degraded job still completes");
    let event = fault_event_named(&snap, "golden_degraded");
    assert!(event.fields.iter().any(|(k, v)| k == "reason" && v.contains("non-finite")));
}

#[test]
fn disabled_telemetry_leaves_reports_and_stats_byte_identical() {
    // The zero-cost guarantee: running the identical fixed-seed workload
    // with telemetry disabled must change nothing the user can observe —
    // same fill plans, same report text, same stats line. Report lines
    // derived from the wall clock (`synthesis_s` and the time-weighted
    // `overall` score) vary between any two runs and are excluded.
    let deterministic_text = |report: &neurfill_runtime::JobReport| -> String {
        report
            .to_text()
            .lines()
            .filter(|l| !l.starts_with("synthesis_s") && !l.starts_with("overall"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let run = |telemetry: Telemetry| -> (Vec<String>, RuntimeStats) {
        let bundle = Arc::new(ModelBundle::from_network(&network(42)).unwrap());
        let options = PoolOptions { workers: 1, telemetry, ..PoolOptions::default() };
        let pool = RuntimePool::new(bundle, flow_config(), options).unwrap();
        let ids: Vec<_> = (0..2)
            .map(|i| pool.submit(JobSpec::new(format!("job-{i}"), layout(100 + i))).unwrap())
            .collect();
        let reports = ids
            .into_iter()
            .map(|id| match pool.wait(id) {
                Some(JobStatus::Done(report)) => deterministic_text(&report),
                other => panic!("expected a completed job, got {other:?}"),
            })
            .collect();
        (reports, pool.shutdown())
    };

    let (enabled_reports, enabled_stats) = run(Telemetry::new());
    let (disabled_reports, disabled_stats) = run(Telemetry::disabled());
    assert_eq!(enabled_reports, disabled_reports, "reports must not depend on telemetry");

    // The stats line mixes deterministic counters with stage timings;
    // compare the former.
    let deterministic_lines = |stats: &RuntimeStats| -> Vec<String> {
        stats
            .to_string()
            .lines()
            .filter(|l| l.starts_with("jobs:") || l.starts_with("resilience:"))
            .map(str::to_string)
            .collect()
    };
    assert_eq!(deterministic_lines(&enabled_stats), deterministic_lines(&disabled_stats));
    assert_eq!(enabled_stats.samples_inferred, disabled_stats.samples_inferred);
    assert_eq!(enabled_stats.hydrations, disabled_stats.hydrations);
}

#[test]
fn real_run_snapshot_round_trips_through_jsonl() {
    // A snapshot from an actual faulted run (counters + histograms +
    // gauges + structured events) must survive serialization unchanged.
    let (pool, _) = pool_with(
        "synthesis=transient@1",
        PoolOptions { workers: 1, retry: retry_once(), ..PoolOptions::default() },
    );
    let snap = run_jobs(&pool, 2);
    let _ = pool.shutdown();

    let text = snap.to_jsonl();
    let back = MetricsSnapshot::from_jsonl(&text).unwrap();
    assert_eq!(back, snap, "JSONL round-trip must be lossless");

    // And every line is an object of a known record type.
    for line in text.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "not a JSON object: {line}");
        assert!(
            ["\"counter\"", "\"gauge\"", "\"histogram\"", "\"event\"", "\"meta\""]
                .iter()
                .any(|t| line.contains(t)),
            "unknown record type: {line}"
        );
    }
}
