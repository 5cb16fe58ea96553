//! `serve_burst`: small jobs through the HTTP service, journal on.
//!
//! An in-process `neurfill-serve` on `127.0.0.1:0` with the write-ahead
//! journal in a scratch directory and one pool worker
//! (`bench::TIMED_WORKERS` says why). Closed loop: `nproc` client
//! connections, each submitting a burst of 8 jobs — in turn, so the
//! admission order repeats — and then collecting all 8, round after round:
//! submits (journal writes) run beside long-poll result reads while the
//! worker computes. Jobs are 8x8x3, mixed A/B/C:
//! small, so the per-job fixed costs stay visible. Verification forwards
//! of different jobs can coalesce on the batch-inference server only when
//! jobs run side by side: the traced run's `nproc`-worker pool pass shows
//! whether they do.

use crate::bench::{self, Ctx, Outcome, Surrogate, TIMED_WORKERS};
use crate::digest;
use crate::probes;
use crate::stats::{median, percentile};
use crate::trace::{Span, Tracer, NO_JOB};
use neurfill_layout::{FillPlan, Layout};
use neurfill_runtime::{JobSpec, JobStatus, ModelBundle, PoolOptions, RuntimePool};
use neurfill_serve::{
    Client, ClientError, FillService, JobRequest, Server, ServerConfig, ServiceConfig,
};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

const JOB_EDGE: usize = 8;
/// Jobs a client submits before it collects them (and under `--smoke`).
const BURST: usize = 8;
const SMOKE_BURST: usize = 2;
/// Reference seconds of one round (every client: one burst) on the
/// 2-core reference host.
const ROUND_S: f64 = 8.0;
/// Served plans compared bit for bit with a direct `FillingFlow::run`.
const SAMPLED_PLANS: usize = 4;
const RESULT_WAIT: Duration = Duration::from_secs(60);
/// Digest of the first two layouts (what every job list starts with).
const PINNED_INPUTS: &str = "18be36d42e375674";

/// One served job as its client saw it.
struct Served {
    index: usize,
    id: Option<u64>,
    job_s: f64,
    quality: Option<f64>,
    degraded: bool,
    refused: bool,
    error: Option<String>,
}

fn report_field(text: &str, key: &str) -> Option<f64> {
    text.lines().find_map(|l| l.strip_prefix(key)?.trim().parse().ok())
}

/// Whose burst is submitted next. Clients take turns in job order, so
/// the service admits jobs in the same order in every run whatever the
/// threads' timing. On one worker a job's place in the queue is most of
/// its latency: with the two clients racing, `job_s.p50` spread by 31 %
/// over ten runs whose `wall_s` spread by 17 %.
#[derive(Default)]
struct Turns {
    next: Mutex<usize>,
    moved: Condvar,
}

impl Turns {
    /// Runs `submit` once every burst before `burst` has been submitted.
    fn in_turn<T>(&self, burst: &[usize], submit: impl FnOnce() -> T) -> T {
        let turn = burst.first().map_or(0, |first| first / burst.len());
        let mut next = self.next.lock().expect("turn lock");
        while *next != turn {
            next = self.moved.wait(next).expect("turn lock");
        }
        let out = submit();
        *next += 1;
        self.moved.notify_all();
        out
    }
}

/// One client: round after round, submit a burst, then collect it.
fn client_loop(
    addr: &str,
    tracer: &Tracer,
    jobs: &[Layout],
    mine: &[Vec<usize>],
    turns: &Turns,
) -> Vec<Served> {
    let mut client = Client::connect(addr);
    let mut served = Vec::new();
    for burst in mine {
        let open: Vec<_> = turns.in_turn(burst, || {
            burst
                .iter()
                .map(|&index| {
                    let request = JobRequest::new(format!("job-{index}"), jobs[index].clone());
                    let t = Instant::now();
                    let id =
                        tracer.time("serve", "serve.submit", index as i64, || client.submit(&request));
                    (index, t, id)
                })
                .collect()
        });
        for (index, t, id) in open {
            let mut s = Served {
                index,
                id: None,
                job_s: 0.0,
                quality: None,
                degraded: false,
                refused: false,
                error: None,
            };
            match id {
                Ok(id) => {
                    s.id = Some(id);
                    let text = tracer.time("serve", "serve.result_wait", index as i64, || {
                        client.result_text(id, Some(RESULT_WAIT))
                    });
                    match text {
                        Ok(text) => {
                            s.quality = report_field(&text, "quality ");
                            s.degraded = text.lines().any(|l| l.starts_with("degraded "));
                        }
                        Err(e) => s.error = Some(e.to_string()),
                    }
                }
                Err(e) => {
                    s.refused = matches!(e, ClientError::Http { status: 429, .. });
                    s.error = Some(e.to_string());
                }
            }
            s.job_s = t.elapsed().as_secs_f64();
            served.push(s);
        }
    }
    served
}

/// Which jobs each client submits in each round.
fn schedule(clients: usize, rounds: usize, burst: usize) -> Vec<Vec<Vec<usize>>> {
    (0..clients)
        .map(|c| {
            (0..rounds)
                .map(|r| ((r * clients + c) * burst..(r * clients + c + 1) * burst).collect())
                .collect()
        })
        .collect()
}

/// The same job list in the same closed-loop shape, straight to a
/// `RuntimePool`: what the service adds is the difference.
struct PoolPass {
    start_ms: f64,
    wall_s: f64,
    submit_us: Vec<f64>,
    job_s: Vec<f64>,
    batches: u64,
    occupancy: f64,
    completed: u64,
}

fn pool_pass(
    bundle: &Arc<ModelBundle>,
    smoke: bool,
    workers: usize,
    jobs: &[Layout],
    bursts: &[Vec<Vec<usize>>],
) -> Result<PoolPass, String> {
    let t = Instant::now();
    let pool = RuntimePool::new(
        Arc::clone(bundle),
        bench::flow_config(smoke),
        PoolOptions { workers, ..PoolOptions::default() },
    )
    .map_err(|e| e.to_string())?;
    let start_ms = t.elapsed().as_secs_f64() * 1e3;
    let turns = Turns::default();
    let t0 = Instant::now();
    let per_client: Vec<(Vec<f64>, Vec<f64>)> = std::thread::scope(|s| {
        let handles: Vec<_> = bursts
            .iter()
            .map(|mine| {
                let (pool, turns) = (&pool, &turns);
                s.spawn(move || {
                    let (mut submit_us, mut job_s) = (Vec::new(), Vec::new());
                    for burst in mine {
                        let open: Vec<_> = turns.in_turn(burst, || {
                            burst
                                .iter()
                                .map(|&index| {
                                    let t = Instant::now();
                                    let id = pool.submit(JobSpec::new(
                                        format!("job-{index}"),
                                        jobs[index].clone(),
                                    ));
                                    submit_us.push(t.elapsed().as_secs_f64() * 1e6);
                                    (t, id)
                                })
                                .collect()
                        });
                        for (t, id) in open {
                            if let Ok(id) = id {
                                if let Some(JobStatus::Done(_)) = pool.wait(id) {
                                    job_s.push(t.elapsed().as_secs_f64());
                                }
                            }
                        }
                    }
                    (submit_us, job_s)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("pool client thread")).collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let stats = pool.shutdown();
    Ok(PoolPass {
        start_ms,
        wall_s,
        submit_us: per_client.iter().flat_map(|(s, _)| s.iter().copied()).collect(),
        job_s: per_client.iter().flat_map(|(_, j)| j.iter().copied()).collect(),
        batches: stats.batches_formed,
        occupancy: stats.mean_batch_occupancy,
        completed: stats.jobs_completed,
    })
}

pub fn run(ctx: &Ctx<'_>) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let tracer = ctx.tracer;
    let seed = ctx.args.seed;
    let clients = ctx.nproc;
    let smoke = ctx.args.smoke;

    let Surrogate { flow, bundle, .. } = bench::prepare_surrogate(ctx, &mut out)?;
    let rounds = ctx.args.units(ROUND_S);
    let burst = if smoke { SMOKE_BURST } else { BURST };
    let bursts = schedule(clients, rounds, burst);
    let jobs: Vec<Layout> =
        (0..clients * rounds * burst).map(|i| bench::job_layout(i, JOB_EDGE)).collect();
    bench::check_pin(&mut out, digest::layouts(jobs.iter().take(SMOKE_BURST)), PINNED_INPUTS);
    // Which served plans are compared with a direct flow run is the one
    // thing `--seed` decides here: it cannot change the timed work.
    let sampled: Vec<usize> =
        bench::shuffled(jobs.len(), seed).into_iter().take(SAMPLED_PLANS).collect();

    let service = FillService::start(
        Arc::clone(&bundle),
        ServiceConfig {
            flow: bench::flow_config(smoke),
            pool: PoolOptions { workers: TIMED_WORKERS, ..PoolOptions::default() },
            slots: TIMED_WORKERS,
            journal: Some(ctx.scratch.join("journal")),
            ..ServiceConfig::default()
        },
    )
    .map_err(|e| format!("service start: {e}"))?;
    let server = Server::bind(service, &ServerConfig::default()).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
    let run_server = server.clone();
    let server_thread = std::thread::spawn(move || run_server.run());
    out.setup_s = ctx.start.elapsed().as_secs_f64();

    let turns = Turns::default();
    let timed = tracer.span("nfbench", crate::trace::TIMED, NO_JOB);
    let t0 = Instant::now();
    let mut served: Vec<Served> = std::thread::scope(|s| {
        let handles: Vec<_> = bursts
            .iter()
            .map(|mine| {
                let (addr, jobs, turns) = (&addr, &jobs, &turns);
                s.spawn(move || client_loop(addr, tracer, jobs, mine, turns))
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    });
    out.wall_s = t0.elapsed().as_secs_f64();
    drop(timed);
    out.peak_rss_mib = bench::peak_rss_mib();
    served.sort_by_key(|s| s.index);

    // Every served plan, read back over the same API, checked against its
    // layout's slack; the first few also against a direct flow run.
    let mut reader = Client::connect(addr.clone());
    let mut fetch_ms = Vec::new();
    let mut sampled_equal = 0;
    out.attempted = served.len();
    for s in &served {
        let layout = &jobs[s.index];
        let plan = s.id.filter(|_| s.error.is_none()).and_then(|id| {
            let t = Instant::now();
            let plan = reader.result_plan(id, None).ok();
            fetch_ms.push(t.elapsed().as_secs_f64() * 1e3);
            plan
        });
        let feasible = plan.as_ref().is_some_and(|p| {
            p.len() == layout.num_windows()
                && FillPlan::from_vec(layout, p.clone()).is_feasible(layout, 1e-9)
        });
        match (s.quality, feasible && !s.degraded) {
            (Some(q), true) if q.is_finite() => {
                out.windows += layout.num_windows();
                out.quality.push(q);
                out.job_s.push(s.job_s);
            }
            _ => out.failed += 1,
        }
        if sampled.contains(&s.index) {
            let direct = flow.run(layout)?;
            let same = plan.as_ref().is_some_and(|p| {
                p.iter().map(|v| v.to_bits()).eq(direct.plan.as_slice().iter().map(|v| v.to_bits()))
            });
            sampled_equal += usize::from(same);
        }
    }
    let refused = served.iter().filter(|s| s.refused).count();
    let first_error = served.iter().find_map(|s| s.error.clone()).unwrap_or_default();
    out.check(
        "every submit is acknowledged 201",
        served.iter().all(|s| s.id.is_some()),
        first_error.clone(),
    );
    out.check(
        "every job is Done and undegraded",
        served.iter().all(|s| s.error.is_none() && !s.degraded),
        first_error,
    );
    out.check(
        "plans feasible against slack and quality finite",
        out.failed == 0,
        format!("{} failed", out.failed),
    );
    out.check(
        "sampled served plans are bit-equal to a direct FillingFlow::run",
        sampled_equal == sampled.len(),
        format!("{sampled_equal} of {}, jobs {sampled:?}", sampled.len()),
    );

    let telemetry = server.service().telemetry().snapshot();
    server.service().shutdown();
    server.stop();
    let _ = server_thread.join().map_err(|_| "server thread panicked".to_string())?;

    out.fact("jobs", jobs.len());
    out.fact("clients", clients);
    out.fact("refused", refused);
    out.fact("batches_formed", telemetry.counter("runtime.batches_formed"));
    out.fact("samples_inferred", telemetry.counter("runtime.samples_inferred"));

    if tracer.enabled() {
        let spans = tracer.spans();
        let submit: Vec<f64> =
            spans.iter().filter(|s| s.name == "serve.submit").map(Span::millis).collect();
        out.set("serve.submit_ms.p50", median(&submit));
        out.set("serve.submit_ms.p90", percentile(&submit, 90.0));
        out.set("serve.result_fetch_ms.p50", median(&fetch_ms));
        // Three samples lie beyond the p90 of 32 jobs, fewer than the ten the
        // percentile rule asks for: a diagnostic, which is why it is not
        // an end-to-end metric.
        out.set("serve.job_s.p90", percentile(&out.job_s, 90.0));
        out.set("serve.refused", refused as f64);
        let batches = telemetry.counter("runtime.batches_formed");
        out.set("runtime.batches", batches as f64);
        out.set(
            "runtime.mean_batch_occupancy",
            if batches == 0 {
                0.0
            } else {
                telemetry.counter("runtime.samples_inferred") as f64 / batches as f64
            },
        );

        let _probes = tracer.span("nfbench", "nfbench.probes", NO_JOB);
        let pass = pool_pass(&bundle, smoke, TIMED_WORKERS, &jobs, &bursts)?;
        out.set("runtime.pool_start_ms", pass.start_ms);
        out.set("runtime.submit_us.p50", median(&pass.submit_us));
        out.set("runtime.job_s.p50", median(&pass.job_s));
        out.set("serve.overhead_share", 1.0 - pass.wall_s / out.wall_s);
        out.fact("pool_pass_batches", pass.batches);
        out.fact("pool_pass_occupancy", pass.occupancy);
        // The same list on nproc workers: what the second worker buys, and
        // the one place where forwards of different jobs can meet on the
        // batch-inference server. A host with one core shows neither.
        if ctx.nproc >= 2 {
            let wide = pool_pass(&bundle, smoke, ctx.nproc, &jobs, &bursts)?;
            if wide.completed == pass.completed {
                out.set("runtime.worker_scaling", pass.wall_s / wide.wall_s);
                out.set("runtime.wide_batch_occupancy", wide.occupancy);
            }
        }
        probes::serve_probes(ctx, &flow, &bundle, &jobs[0], &mut out)?;
    }
    Ok(out)
}
