//! Crash-durable recovery chaos suite.
//!
//! The write-ahead job journal is killed at *every* append ordinal over
//! a multi-tenant job mix; after each kill the service restarts on the
//! same journal directory and every acknowledged job must be present
//! and reach a terminal state — "acknowledged implies journaled" means
//! an accepted job is never lost, whichever record the crash landed on.
//! Crashes are emulated in-process by the fault plan's durable-write
//! faults, which leave exactly the bytes a killed process would have
//! left and fail every later append.
//!
//! Also pinned here: `DELETE /v1/jobs/{id}` idempotency status codes
//! (200 → 204 → 409), cancel surviving a restart, a `done` record in an
//! older plan format re-running its job instead of being parsed, and a
//! finished job's report and plan bodies served byte for byte the same
//! live and after a restart.

use neurfill::extraction::NUM_CHANNELS;
use neurfill::pipeline::FlowConfig;
use neurfill::{CmpNeuralNetwork, CmpNnConfig, HeightNorm, NeurFillConfig};
use neurfill_cmpsim::ProcessParams;
use neurfill_layout::io::{read_plan, PlanShape};
use neurfill_layout::{DesignKind, DesignSpec, Layout};
use neurfill_nn::{UNet, UNetConfig};
use neurfill_optim::SqpConfig;
use neurfill_runtime::fault::sites;
use neurfill_runtime::{FaultPlan, ModelBundle, PoolOptions};
use neurfill_serve::journal::JOURNAL_FILE;
use neurfill_serve::{
    FillService, JobJournal, JobRequest, Priority, RecoveredState, ResultFetch, Server, ServerConfig,
    ServiceConfig, SubmitError, TenantConfig, WireState,
};
use rand::SeedableRng;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
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

fn bundle() -> Arc<ModelBundle> {
    Arc::new(ModelBundle::from_network(&network(42)).unwrap())
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
    let kinds = [DesignKind::CmpTest, DesignKind::Fpga, DesignKind::RiscV];
    DesignSpec::new(kinds[seed as usize % kinds.len()], 8, 8, seed).generate()
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("neurfill-recover-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn service_config(journal: &Path, fault: Arc<FaultPlan>) -> ServiceConfig {
    ServiceConfig {
        tenants: vec![
            TenantConfig { name: "acme".to_string(), weight: 2, capacity: 8 },
            TenantConfig { name: "beta".to_string(), weight: 1, capacity: 8 },
        ],
        slots: 1,
        drain_timeout: Duration::from_secs(60),
        flow: flow_config(),
        pool: PoolOptions { workers: 1, fault, ..PoolOptions::default() },
        journal: Some(journal.to_path_buf()),
        ..ServiceConfig::default()
    }
}

/// The multi-tenant job mix every incarnation submits: two tenants,
/// mixed priorities. Returns the ids that were *acknowledged*.
fn submit_mix(service: &FillService) -> Vec<u64> {
    let mix =
        [("acme", Priority::High, 1u64), ("beta", Priority::Normal, 2), ("acme", Priority::Low, 3)];
    let mut acked = Vec::new();
    for (tenant, priority, seed) in mix {
        let mut req = JobRequest::new(format!("{tenant}-{seed}"), layout(seed));
        req.tenant = Some(tenant.to_string());
        req.priority = priority;
        match service.submit(req) {
            Ok(id) => acked.push(id),
            // A dead journal refuses the ack — the client knows the job
            // was NOT accepted, so it is not owed recovery.
            Err(SubmitError::Journal(_)) => {}
            Err(other) => panic!("unexpected submit refusal: {other:?}"),
        }
    }
    acked
}

#[test]
fn journal_kill_at_every_ordinal_loses_no_acknowledged_job() {
    // Count the journal-append ordinals of a clean pass with a plan
    // that is enabled but can never fire (probability 0).
    let counter = Arc::new(FaultPlan::parse("journal_write=crash@p0", 0).unwrap());
    let dir = tmp_dir("count");
    let service = FillService::start(bundle(), service_config(&dir, Arc::clone(&counter))).unwrap();
    let acked = submit_mix(&service);
    assert_eq!(acked.len(), 3, "the clean pass must ack every submission");
    for &id in &acked {
        let view = service.wait_terminal(id, Duration::from_secs(60)).expect("job must finish");
        assert_eq!(view.state, WireState::Done, "job {id}: {view:?}");
    }
    service.shutdown();
    // 3 admits + 3 dispatches + 3 terminals.
    let total = counter.invocations(sites::JOURNAL_WRITE);
    assert_eq!(total, 9, "the job mix must produce one append per transition");
    let _ = std::fs::remove_dir_all(&dir);

    for k in 1..=total {
        let dir = tmp_dir(&format!("k{k}"));
        let crash = Arc::new(FaultPlan::parse(&format!("journal_write=crash@{k}"), 0).unwrap());
        let service = FillService::start(bundle(), service_config(&dir, crash)).unwrap();
        let acked = submit_mix(&service);
        // Whatever the journal state, acknowledged jobs still run to
        // completion in this incarnation (terminal journaling is
        // best-effort once the log is dead).
        for &id in &acked {
            service.wait_terminal(id, Duration::from_secs(60)).expect("job must finish");
        }
        service.shutdown();

        // "Restart" on the same directory with a clean fault plan:
        // every acknowledged job must exist and be (or become) Done —
        // recovered from the journal, or re-dispatched and re-run.
        let service =
            FillService::start(bundle(), service_config(&dir, Arc::new(FaultPlan::disabled()))).unwrap();
        for &id in &acked {
            let view = service
                .wait_terminal(id, Duration::from_secs(60))
                .unwrap_or_else(|| panic!("kill at ordinal {k}: acked job {id} was lost"));
            assert_eq!(view.state, WireState::Done, "kill at ordinal {k}, job {id}: {view:?}");
            match service.result_text(id) {
                ResultFetch::Done(report) => {
                    assert!(!report.is_empty(), "job {id} must serve a report after restart")
                }
                other => panic!("kill at ordinal {k}: job {id} has no result: {other:?}"),
            }
        }
        // New submissions keep working on the recovered journal.
        let fresh = submit_mix(&service);
        assert_eq!(fresh.len(), 3, "the restarted service must accept new work");
        for &id in &fresh {
            let view = service.wait_terminal(id, Duration::from_secs(60)).expect("job must finish");
            assert_eq!(view.state, WireState::Done);
            assert!(!view.recovered, "fresh jobs are not recovered jobs");
        }
        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Raw HTTP DELETE so the exact status code is pinned (the typed client
/// collapses 204/409).
fn raw_delete(addr: &str, id: u64) -> u16 {
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    write!(stream, "DELETE /v1/jobs/{id} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response.split_whitespace().nth(1).unwrap().parse().unwrap()
}

#[test]
fn delete_is_idempotent_and_cancel_survives_restart() {
    let dir = tmp_dir("cancel");
    // One slot + a deterministic 400 ms delay on the first synthesis:
    // the plug job pins the slot, so the victim is still queued when
    // cancelled.
    let mut config =
        service_config(&dir, Arc::new(FaultPlan::parse("synthesis=delay400@1", 0).unwrap()));
    config.pool.fault = Arc::new(FaultPlan::parse("synthesis=delay400@1", 0).unwrap());
    let service = FillService::start(bundle(), config).unwrap();
    let server = Server::bind(service, &ServerConfig::default()).unwrap();
    let run_server = server.clone();
    let run_thread = std::thread::spawn(move || run_server.run().unwrap());
    let addr = server.local_addr().unwrap().to_string();

    let plug = {
        let mut req = JobRequest::new("plug", layout(1));
        req.tenant = Some("acme".to_string());
        server.service().submit(req).unwrap()
    };
    let victim = {
        let mut req = JobRequest::new("victim", layout(2));
        req.tenant = Some("acme".to_string());
        server.service().submit(req).unwrap()
    };

    // 200 the first time, 204 on the idempotent repeat.
    assert_eq!(raw_delete(&addr, victim), 200, "first cancel");
    assert_eq!(raw_delete(&addr, victim), 204, "repeated cancel is idempotent");
    // A finished job answers 409: nothing left to cancel.
    let view = server.service().wait_terminal(plug, Duration::from_secs(60)).unwrap();
    assert_eq!(view.state, WireState::Done);
    assert_eq!(raw_delete(&addr, plug), 409, "terminal job");
    assert_eq!(raw_delete(&addr, 9999), 404, "unknown job");

    server.service().shutdown();
    server.stop();
    run_thread.join().unwrap();

    // The cancel was journaled: after a restart the victim is still
    // cancelled (not resurrected into the queue) and the repeat still
    // answers "already cancelled".
    let service =
        FillService::start(bundle(), service_config(&dir, Arc::new(FaultPlan::disabled()))).unwrap();
    let view = service.status(victim).expect("cancelled job must survive the restart");
    assert_eq!(view.state, WireState::Cancelled);
    assert!(view.recovered, "the cancelled state must come from the journal");
    assert_eq!(
        service.cancel(victim),
        Some(neurfill_serve::CancelOutcome::AlreadyCancelled),
        "idempotent across restarts"
    );
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_parent_format_done_record_replays_as_pending_and_the_job_re_runs() {
    let dir = tmp_dir("parent-done");
    let clean = || Arc::new(FaultPlan::disabled());
    {
        let (mut journal, _) = JobJournal::open(&dir, clean()).unwrap();
        journal.record_admit(1, "acme", "old", Priority::Normal, None, &layout(1)).unwrap();
        journal.record_dispatch(1).unwrap();
    }
    {
        // The `done` record an older build appended: report, then a
        // `plan_len`/`amounts` body this build has no parser for.
        let (mut log, _) = neurfill_runtime::applog::AppendLog::open(
            dir.join(JOURNAL_FILE),
            sites::JOURNAL_WRITE,
            clean(),
            |_| Ok(()),
        )
        .unwrap();
        log.append(b"done 1\nreport_len 10\n\nquality 1\nplan_len 2\namounts 0.5 1\n").unwrap();
    }
    let (_, recovered) = JobJournal::open(&dir, clean()).unwrap();
    assert_eq!(recovered.len(), 1);
    assert_eq!(recovered[0].state, RecoveredState::Pending { dispatched: true });

    // The restarted service runs it again under its id and serves a plan
    // over the whole journaled layout.
    let service = FillService::start(bundle(), service_config(&dir, clean())).unwrap();
    let view = service.wait_terminal(1, Duration::from_secs(60)).expect("the job must re-run");
    assert_eq!(view.state, WireState::Done, "{view:?}");
    let ResultFetch::Done(body) = service.result_plan(1) else { panic!("no plan after the re-run") };
    let (shape, amounts) = read_plan(body.as_bytes()).unwrap();
    assert_eq!(shape, PlanShape::of(&layout(1)));
    service.shutdown();

    // Its new `done` record is in the current format and replays as done.
    let (_, recovered) = JobJournal::open(&dir, clean()).unwrap();
    match &recovered[0].state {
        RecoveredState::Done { plan, .. } => assert_eq!(plan, &amounts),
        other => panic!("{other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn live_and_recovered_results_are_byte_identical() {
    let dir = tmp_dir("same-bytes");
    // The second job's verification forward is poisoned, so one of the
    // two results carries a `degraded` line.
    let fault = Arc::new(FaultPlan::parse("verify_forward=nan@2", 0).unwrap());
    let service = FillService::start(bundle(), service_config(&dir, fault)).unwrap();
    let ids = submit_mix(&service);
    assert_eq!(ids.len(), 3);
    let mut live = Vec::new();
    for &id in &ids {
        let view = service.wait_terminal(id, Duration::from_secs(60)).expect("job must finish");
        assert_eq!(view.state, WireState::Done, "job {id}: {view:?}");
        let (ResultFetch::Done(report), ResultFetch::Done(plan)) =
            (service.result_text(id), service.result_plan(id))
        else {
            panic!("job {id} serves no live result")
        };
        live.push((view.degraded, report, plan));
    }
    assert_eq!(live.iter().filter(|(degraded, ..)| degraded.is_some()).count(), 1);
    service.shutdown();

    let service =
        FillService::start(bundle(), service_config(&dir, Arc::new(FaultPlan::disabled()))).unwrap();
    for (&id, (degraded, report, plan)) in ids.iter().zip(&live) {
        let view = service.status(id).expect("finished job must survive the restart");
        assert!(view.recovered && view.state == WireState::Done, "job {id}: {view:?}");
        assert_eq!(&view.degraded, degraded, "job {id}");
        let ResultFetch::Done(recovered_report) = service.result_text(id) else { panic!("job {id}") };
        let ResultFetch::Done(recovered_plan) = service.result_plan(id) else { panic!("job {id}") };
        assert_eq!(recovered_report.as_bytes(), report.as_bytes(), "job {id}: report");
        assert_eq!(recovered_plan.as_bytes(), plan.as_bytes(), "job {id}: plan");
    }
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
