//! Deterministic end-to-end tests of the service over real loopback HTTP:
//! job lifecycle, fair-share dispatch, backpressure, canary hot-swap and
//! graceful shutdown. No sleeps-as-synchronization — ordering is forced
//! by deterministic fault-plan delays (a "plug" job pins the single
//! dispatch slot while queues are loaded) and observed through dispatch
//! events in the metrics snapshot.

use neurfill::extraction::NUM_CHANNELS;
use neurfill::pipeline::FlowConfig;
use neurfill::{CmpNeuralNetwork, CmpNnConfig, HeightNorm, NeurFillConfig};
use neurfill_cmpsim::ProcessParams;
use neurfill_layout::{DesignKind, DesignSpec, Layout};
use neurfill_nn::{UNet, UNetConfig};
use neurfill_obs::MetricsSnapshot;
use neurfill_optim::SqpConfig;
use neurfill_runtime::{FaultPlan, JobSpec, ModelBundle, PoolOptions, RuntimePool};
use neurfill_serve::{
    CanaryConfig, Client, ClientError, FillService, JobRequest, Priority, Server, ServerConfig,
    ServiceConfig, TenantConfig, WireState,
};
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

fn network(seed: u64) -> CmpNeuralNetwork {
    network_with_scale(seed, HeightNorm::default().scale_nm)
}

fn network_with_scale(seed: u64, scale_nm: f64) -> CmpNeuralNetwork {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let unet = UNet::new(
        UNetConfig { in_channels: NUM_CHANNELS, out_channels: 1, base_channels: 4, depth: 2 },
        &mut rng,
    );
    let norm = HeightNorm { scale_nm, ..HeightNorm::default() };
    CmpNeuralNetwork::new(unet, norm, Default::default(), CmpNnConfig::default())
}

fn bundle(seed: u64) -> Arc<ModelBundle> {
    Arc::new(ModelBundle::from_network(&network(seed)).unwrap())
}

fn flow_config() -> FlowConfig {
    FlowConfig {
        process: ProcessParams::fast(),
        neurfill: NeurFillConfig {
            sqp: SqpConfig { max_iterations: 4, ..SqpConfig::default() },
            ..NeurFillConfig::default()
        },
        beta_time_s: 60.0,
        ..FlowConfig::default()
    }
}

fn layout(seed: u64) -> Layout {
    let kinds = [DesignKind::CmpTest, DesignKind::Fpga, DesignKind::RiscV];
    DesignSpec::new(kinds[seed as usize % kinds.len()], 8, 8, seed).generate()
}

struct Harness {
    server: Server,
    run_thread: Option<std::thread::JoinHandle<()>>,
}

impl Harness {
    /// Boots a service + HTTP front-end on an OS-assigned loopback port.
    fn start(config: ServiceConfig) -> Self {
        let service = FillService::start(bundle(42), config).unwrap();
        let server = Server::bind(service, &ServerConfig::default()).unwrap();
        let run_server = server.clone();
        let run_thread = std::thread::spawn(move || run_server.run().unwrap());
        Self { server, run_thread: Some(run_thread) }
    }

    fn client(&self) -> Client {
        Client::connect(self.server.local_addr().unwrap().to_string())
    }

    /// Drains the service and stops the accept loop (used by tests that
    /// did not already exercise the shutdown endpoint).
    fn stop(mut self) {
        self.server.service().shutdown();
        self.server.stop();
        if let Some(t) = self.run_thread.take() {
            t.join().unwrap();
        }
    }
}

fn config_with(
    tenants: &[(&str, u32, usize)],
    slots: usize,
    live_fault: &str,
    canary: CanaryConfig,
) -> ServiceConfig {
    ServiceConfig {
        tenants: tenants
            .iter()
            .map(|(n, w, c)| TenantConfig { name: (*n).to_string(), weight: *w, capacity: *c })
            .collect(),
        slots,
        drain_timeout: Duration::from_secs(60),
        canary,
        flow: flow_config(),
        pool: PoolOptions {
            workers: 1,
            fault: Arc::new(FaultPlan::parse(live_fault, 0).unwrap()),
            ..PoolOptions::default()
        },
        ..ServiceConfig::default()
    }
}

#[test]
fn lifecycle_submit_status_result_cancel_over_loopback() {
    // The first synthesis is delayed 400 ms so the second submission is
    // deterministically still queued when it gets cancelled.
    let harness = Harness::start(config_with(
        &[("default", 1, 16)],
        1,
        "synthesis=delay400@1",
        CanaryConfig::default(),
    ));
    let mut client = harness.client();

    let plug = client.submit(&JobRequest::new("plug", layout(1))).unwrap();
    let queued = client.submit(&JobRequest::new("victim", layout(2))).unwrap();
    assert_ne!(plug, queued);

    // Cancelling the queued job is deterministic: the only dispatch slot
    // is held by the plug for 400 ms.
    assert!(client.cancel(queued).unwrap());
    let view = client.status(queued, None).unwrap();
    assert_eq!(view.state, WireState::Cancelled);
    match client.result_text(queued, None) {
        Err(ClientError::Http { status: 410, .. }) => {}
        other => panic!("cancelled job's result must be 410, got {other:?}"),
    }
    // Cancelling again reports false; unknown ids are 404.
    assert!(!client.cancel(queued).unwrap());
    match client.status(999_999, None) {
        Err(ClientError::Http { status: 404, .. }) => {}
        other => panic!("unknown job must be 404, got {other:?}"),
    }

    // The plug completes and its report is byte-identical to the same
    // job run straight on a local pool — the wire adds nothing.
    let report = client.result_text(plug, Some(Duration::from_secs(120))).unwrap();
    let view = client.status(plug, None).unwrap();
    assert_eq!(view.state, WireState::Done);
    assert_eq!(view.tenant, "default");

    let pool = RuntimePool::new(
        bundle(42),
        flow_config(),
        PoolOptions { workers: 1, ..PoolOptions::default() },
    )
    .unwrap();
    let local = pool.submit(JobSpec::new("plug", layout(1))).unwrap();
    let local_report = match pool.wait(local) {
        Some(neurfill_runtime::JobStatus::Done(r)) => r.to_text(),
        other => panic!("{other:?}"),
    };
    // `synthesis_s` (and `overall`, which folds in a runtime score) are
    // wall-clock dependent; every numeric synthesis output must match.
    let deterministic = |text: &str| {
        text.lines()
            .filter(|l| !l.starts_with("synthesis_s") && !l.starts_with("overall"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        deterministic(&report),
        deterministic(&local_report),
        "service result must match the in-process pool bit-for-bit"
    );

    // Unknown tenants are refused up front.
    let mut foreign = JobRequest::new("x", layout(3));
    foreign.tenant = Some("nope".to_string());
    match client.submit(&foreign) {
        Err(ClientError::Http { status: 403, .. }) => {}
        other => panic!("unknown tenant must be 403, got {other:?}"),
    }

    harness.stop();
}

#[test]
fn fair_share_dispatch_follows_weights_and_priorities() {
    // Tenants a (weight 3) and b (weight 1). A plug job pins the single
    // slot for 1 s while 6 jobs per tenant are loaded, so the dispatcher
    // sees fully backlogged queues and its order is exactly the smooth-WRR
    // sequence. The order is read back from dispatch events in /metrics.
    let harness = Harness::start(config_with(
        &[("a", 3, 64), ("b", 1, 64)],
        1,
        "synthesis=delay1000@1",
        CanaryConfig::default(),
    ));
    let mut client = harness.client();

    let mut plug = JobRequest::new("plug", layout(1));
    plug.tenant = Some("a".to_string());
    let plug_id = client.submit(&plug).unwrap();

    let mut ids = vec![plug_id];
    let mut b_ids = Vec::new();
    for i in 0..6u64 {
        let mut ja = JobRequest::new(format!("a-{i}"), layout(10 + i));
        ja.tenant = Some("a".to_string());
        ids.push(client.submit(&ja).unwrap());
        let mut jb = JobRequest::new(format!("b-{i}"), layout(20 + i));
        jb.tenant = Some("b".to_string());
        // The last b job is high priority: it must dispatch before every
        // other (normal) b job despite being submitted last.
        if i == 5 {
            jb.priority = Priority::High;
        }
        let id = client.submit(&jb).unwrap();
        ids.push(id);
        b_ids.push(id);
    }

    for id in &ids {
        let view = client.status(*id, Some(Duration::from_secs(120))).unwrap();
        assert_eq!(view.state, WireState::Done, "job {id}: {view:?}");
    }

    let snapshot = MetricsSnapshot::from_jsonl(&client.metrics().unwrap()).unwrap();
    let dispatches: Vec<(String, u64)> = snapshot
        .events
        .iter()
        .filter(|e| e.kind == "serve" && e.name == "dispatch")
        .map(|e| {
            let field = |k: &str| {
                e.fields.iter().find(|(n, _)| n == k).map(|(_, v)| v.clone()).unwrap_or_default()
            };
            (field("tenant"), field("job").parse::<u64>().unwrap())
        })
        .collect();
    assert_eq!(dispatches.len(), 13, "{dispatches:?}");
    assert_eq!(dispatches[0].1, plug_id);

    // With both tenants backlogged, smooth WRR at weights 3:1 dispatches
    // the exact sequence a,a,b,a repeating until a's queue empties.
    let tenants: Vec<&str> = dispatches[1..].iter().map(|(t, _)| t.as_str()).collect();
    assert_eq!(
        tenants,
        vec!["a", "a", "b", "a", "a", "a", "b", "a", "b", "b", "b", "b"],
        "dispatch order must follow smooth WRR"
    );
    // Starvation bound: b's first dispatch happens within the first 3
    // picks even though a has 3x the weight and an equal backlog.
    assert!(tenants[..3].contains(&"b"));

    // The high-priority b job (submitted last) is the first b dispatched.
    let first_b = dispatches[1..].iter().find(|(t, _)| t == "b").unwrap();
    assert_eq!(first_b.1, b_ids[5], "high priority must jump b's queue");

    // Per-tenant SLO metrics made it to the shared registry.
    assert_eq!(snapshot.counters.get("serve.tenant.a.admitted"), Some(&7));
    assert_eq!(snapshot.counters.get("serve.tenant.b.admitted"), Some(&6));
    assert!(snapshot.histograms.contains_key("serve.tenant.a.e2e_ns"));
    assert!(snapshot.histograms.contains_key("serve.tenant.b.queue_wait_ns"));

    harness.stop();
}

#[test]
fn full_queue_answers_429_with_retry_after() {
    // Capacity 3, one slot held by the 800 ms plug: submissions 2..4 fill
    // the queue, the 5th is deterministically rejected.
    let harness =
        Harness::start(config_with(&[("t", 1, 3)], 1, "synthesis=delay800@1", CanaryConfig::default()));
    let mut client = harness.client();

    let submit = |client: &mut Client, i: u64| {
        let mut req = JobRequest::new(format!("j{i}"), layout(i));
        req.tenant = Some("t".to_string());
        client.submit(&req)
    };
    let mut ids = vec![submit(&mut client, 1).unwrap()];
    for i in 2..=4 {
        ids.push(submit(&mut client, i).unwrap());
    }
    match submit(&mut client, 5) {
        Err(ClientError::Http { status: 429, retry_after_s: Some(s), .. }) => {
            assert!(s >= 1, "retry-after must be at least a second, got {s}");
        }
        other => panic!("full queue must answer 429 + Retry-After, got {other:?}"),
    }

    // Backpressure is temporary: once the queue drains, the tenant can
    // submit again.
    for id in &ids {
        let view = client.status(*id, Some(Duration::from_secs(120))).unwrap();
        assert_eq!(view.state, WireState::Done, "{view:?}");
    }
    let late = submit(&mut client, 6).unwrap();
    let view = client.status(late, Some(Duration::from_secs(120))).unwrap();
    assert_eq!(view.state, WireState::Done);

    let snapshot = MetricsSnapshot::from_jsonl(&client.metrics().unwrap()).unwrap();
    assert_eq!(snapshot.counters.get("serve.tenant.t.rejected"), Some(&1));

    harness.stop();
}

#[test]
fn canary_rejects_nan_bundle_while_live_model_keeps_serving() {
    // The canary pool is fault-injected to NaN-poison batched forwards:
    // every canary sample degrades to golden-simulator verification, which
    // must reject the staged bundle. The live pool shares nothing with it.
    let canary = CanaryConfig {
        samples: 2,
        fault: Arc::new(FaultPlan::parse("verify_forward=nan", 0).unwrap()),
        ..CanaryConfig::default()
    };
    let harness = Harness::start(config_with(&[("default", 1, 16)], 1, "", canary));
    let mut client = harness.client();

    // Staging before any live traffic is rejected outright — there is
    // nothing to verify against.
    let staged = ModelBundle::from_network(&network(7)).unwrap();
    let (promoted, report) = client.stage_model(staged.bytes()).unwrap();
    assert!(!promoted, "{report}");
    assert!(report.contains("no live traffic"), "{report}");

    // Serve one job so the sample ring has live traffic.
    let id = client.submit(&JobRequest::new("warm", layout(1))).unwrap();
    assert_eq!(client.status(id, Some(Duration::from_secs(120))).unwrap().state, WireState::Done);
    let (digest_before, generation_before) = client.model_info().unwrap();

    let (promoted, report) = client.stage_model(staged.bytes()).unwrap();
    assert!(!promoted, "NaN-poisoned canary must reject promotion:\n{report}");
    assert!(report.contains("rejected"), "{report}");
    assert!(report.contains("degraded"), "{report}");

    // The live model is untouched and still serving.
    let (digest_after, generation_after) = client.model_info().unwrap();
    assert_eq!(digest_before, digest_after);
    assert_eq!(generation_before, generation_after);
    let id = client.submit(&JobRequest::new("after", layout(2))).unwrap();
    assert_eq!(client.status(id, Some(Duration::from_secs(120))).unwrap().state, WireState::Done);

    harness.stop();
}

#[test]
fn canary_promotes_verified_bundle_and_swaps_the_pool() {
    let canary = CanaryConfig { samples: 1, ..CanaryConfig::default() };
    let harness = Harness::start(config_with(&[("default", 1, 16)], 1, "", canary));
    let mut client = harness.client();

    let id = client.submit(&JobRequest::new("warm", layout(1))).unwrap();
    assert_eq!(client.status(id, Some(Duration::from_secs(120))).unwrap().state, WireState::Done);
    let (digest_before, generation_before) = client.model_info().unwrap();
    assert_eq!(generation_before, 1);

    let staged = ModelBundle::from_network(&network(7)).unwrap();
    let (promoted, report) = client.stage_model(staged.bytes()).unwrap();
    assert!(promoted, "healthy canary must promote:\n{report}");

    let (digest_after, generation_after) = client.model_info().unwrap();
    assert_eq!(generation_after, 2);
    assert_ne!(digest_before, digest_after);
    assert_eq!(digest_after, format!("{:016x}", staged.digest()));

    // The swapped-in pool serves jobs.
    let id = client.submit(&JobRequest::new("post-swap", layout(2))).unwrap();
    assert_eq!(client.status(id, Some(Duration::from_secs(120))).unwrap().state, WireState::Done);

    harness.stop();
}

#[test]
fn canary_sigma_tolerance_rejects_a_mis_scaled_bundle_and_promotes_the_honest_one() {
    // `--canary-sigma-tol`: the golden simulator re-judges every canary
    // fill, and the staged surrogate's predicted σ must agree with it.
    // The test networks are untrained, so "honest" is the height scale at
    // which network 7's σ meets the golden simulator's on the warm layout
    // (relative disagreement 0.012 at 29 nm).
    const HONEST_SCALE_NM: f64 = 29.0;
    const MIS_SCALE_NM: f64 = 10.0 * HONEST_SCALE_NM;
    let canary =
        CanaryConfig { samples: 1, max_rel_sigma_disagreement: Some(0.5), ..CanaryConfig::default() };
    let harness = Harness::start(config_with(&[("default", 1, 16)], 1, "", canary));
    let mut client = harness.client();
    let id = client.submit(&JobRequest::new("warm", layout(1))).unwrap();
    assert_eq!(client.status(id, Some(Duration::from_secs(120))).unwrap().state, WireState::Done);
    let (digest_before, generation_before) = client.model_info().unwrap();

    // Same weights, wrong `HeightNorm.scale_nm`: every predicted height
    // keeps its place in the health band (the band scales with the norm)
    // but σ is off by the square of the factor (~150 here). Only the σ
    // check sees it.
    let mis_scaled = ModelBundle::from_network(&network_with_scale(7, MIS_SCALE_NM)).unwrap();
    let (promoted, report) = client.stage_model(mis_scaled.bytes()).unwrap();
    assert!(!promoted, "mis-scaled bundle must be rejected:\n{report}");
    assert!(report.contains("sigma disagreement"), "{report}");
    assert!(report.contains(" rel_sigma "), "{report}");
    assert_eq!(client.model_info().unwrap(), (digest_before, generation_before));

    // The honest bundle clears the same tolerance and goes live.
    let honest = ModelBundle::from_network(&network_with_scale(7, HONEST_SCALE_NM)).unwrap();
    let (promoted, report) = client.stage_model(honest.bytes()).unwrap();
    assert!(promoted, "honest bundle must promote under the same tolerance:\n{report}");
    assert!(report.contains(" ok rel_sigma "), "{report}");
    assert_eq!(client.model_info().unwrap().1, generation_before + 1);

    harness.stop();
}

#[test]
fn hostile_bundle_header_answers_422_and_staging_stays_usable() {
    let canary = CanaryConfig { samples: 1, ..CanaryConfig::default() };
    let harness = Harness::start(config_with(&[("default", 1, 16)], 1, "", canary));
    let mut client = harness.client();

    // 70 bytes declaring `8 << 70` channels: refused from the header
    // alone, before anything is allocated for the architecture.
    let hostile = format!(
        "neurfill-surrogate v1\nunet {NUM_CHANNELS} 1 8 70\nheight_norm 0 1\nextraction 1 1 1 1"
    );
    assert_eq!(hostile.len(), 70);
    let (promoted, report) = client.stage_model(hostile.as_bytes()).unwrap();
    assert!(!promoted, "{report}");
    assert!(report.contains("bad bundle"), "{report}");

    // Still serving, and the staging slot was released: a valid bundle
    // posted afterwards is canaried and promoted.
    let id = client.submit(&JobRequest::new("warm", layout(1))).unwrap();
    assert_eq!(client.status(id, Some(Duration::from_secs(120))).unwrap().state, WireState::Done);
    let staged = ModelBundle::from_network(&network(7)).unwrap();
    let (promoted, report) = client.stage_model(staged.bytes()).unwrap();
    assert!(promoted, "{report}");

    harness.stop();
}

#[test]
fn full_chip_tile_plans_merge_identically_over_the_wire() {
    use neurfill_chip::{
        merge_tile_plan, synthesize_tiles, tile_job_layout, ChipFillPlan, TileJobOptions,
    };
    use neurfill_layout::{FullChipSpec, Tiling};

    let design = FullChipSpec::new(DesignKind::Fpga, 16, 16, 9).build();
    let tiling = Tiling::square(16, 16, 8, ProcessParams::fast().kernel_radius);
    let pad = TileJobOptions::default().pad_multiple;

    // Reference: the in-process streaming path on an identical pool.
    let pool = RuntimePool::new(
        bundle(42),
        flow_config(),
        PoolOptions { workers: 1, ..PoolOptions::default() },
    )
    .unwrap();
    let reference = synthesize_tiles(&pool, &design, &tiling, &TileJobOptions::default()).unwrap();
    let _ = pool.shutdown();
    assert!(reference.failed.is_empty(), "{:?}", reference.failed);

    // Remote: the same padded tile layouts as HTTP submissions, plans
    // fetched through `GET /v1/jobs/{id}/plan` and merged client-side —
    // the `runfill --connect --full-chip` codepath.
    let harness = Harness::start(config_with(&[("default", 1, 16)], 1, "", CanaryConfig::default()));
    let mut client = harness.client();
    let mut plan = ChipFillPlan::zeros(design.num_layers(), design.rows(), design.cols());
    for tile in tiling.tiles() {
        let sub = tile_job_layout(&design, &tile, pad);
        let name = format!("{}~{}", design.name(), tile.ext.label());
        let id = client.submit(&JobRequest::new(name, sub)).unwrap();
        let amounts = loop {
            match client.result_plan(id, Some(Duration::from_secs(60))) {
                Ok(a) => break a,
                Err(ClientError::Http { status: 202, .. }) => {}
                Err(e) => panic!("tile plan fetch failed: {e}"),
            }
        };
        merge_tile_plan(&mut plan, &tile, &amounts, pad);
    }
    assert_eq!(
        plan.as_slice(),
        reference.plan.as_slice(),
        "plans merged over the wire must match the in-process pool bit-for-bit"
    );

    match client.result_plan(999_999, None) {
        Err(ClientError::Http { status: 404, .. }) => {}
        other => panic!("unknown job's plan must be 404, got {other:?}"),
    }

    harness.stop();
}

#[test]
fn graceful_shutdown_drains_in_flight_work_and_rejects_new_submissions() {
    let harness = Harness::start(config_with(
        &[("default", 1, 16)],
        1,
        "synthesis=delay500@1",
        CanaryConfig::default(),
    ));
    let mut client = harness.client();

    let plug = client.submit(&JobRequest::new("plug", layout(1))).unwrap();
    let queued = client.submit(&JobRequest::new("queued", layout(2))).unwrap();

    client.shutdown_server().unwrap();

    // New submissions are refused the moment the drain begins.
    match client.submit(&JobRequest::new("late", layout(3))) {
        Err(ClientError::Http { status: 503, retry_after_s: Some(_), .. }) => {}
        other => panic!("submissions during drain must be 503 + Retry-After, got {other:?}"),
    }

    // Both accepted jobs still complete, and their results stay readable
    // over the existing connection.
    for id in [plug, queued] {
        let view = client.status(id, Some(Duration::from_secs(120))).unwrap();
        assert_eq!(view.state, WireState::Done, "{view:?}");
        let report = client.result_text(id, None).unwrap();
        assert!(report.contains("quality"), "{report}");
    }

    // The metrics snapshot round-trips through the schema-v1 JSONL parser
    // after shutdown — what `--metrics-out` flushes is this exact text.
    let text = client.metrics().unwrap();
    let snapshot = MetricsSnapshot::from_jsonl(&text).unwrap();
    assert_eq!(snapshot.counters.get("serve.tenant.default.admitted"), Some(&2));
    assert_eq!(snapshot.counters.get("serve.tenant.default.completed"), Some(&2));
    assert!(snapshot.histograms.contains_key("serve.tenant.default.e2e_ns"));
    assert!(
        snapshot.counters.keys().any(|k| k.starts_with("runtime.")),
        "{:?}",
        snapshot.counters.keys().collect::<Vec<_>>()
    );

    // The accept loop exits on its own once the drain completes.
    let mut harness = harness;
    if let Some(t) = harness.run_thread.take() {
        t.join().unwrap();
    }
}
