//! The concurrent fill-synthesis pool: a job queue fanned across worker
//! threads that share one model bundle.
//!
//! Each worker hydrates its own network from the bundle (the autograd
//! substrate is thread-local), assembles a [`FillingFlow`] once, and then
//! processes jobs until the queue closes: synthesis, then one multi-layer
//! forward on that same network scoring the filled layout
//! ([`JobReport::predicted`]). Results are bit-identical to a sequential
//! `FillingFlow::run` over the same bundle and configuration — workers
//! run the same weights, and the multi-layer forward is per-sample
//! identical to single forwards.
//!
//! # Failure model
//!
//! Jobs are isolated: a panic, error, timeout or cancellation fails that
//! job only, never its worker or the pool. A job runs once: it is a
//! deterministic function of its layout, the bundle and the flow
//! configuration, so an attempt that returned an error would return it
//! again, and the job is [`JobStatus::Failed`] with that error the first
//! time. Deadlines are enforced *cooperatively* — a
//! per-job [`CancelToken`] (deadline = submission + timeout) is threaded
//! into the synthesis optimizer's iteration loops, so an expired or
//! [`RuntimePool::cancel`]led job aborts mid-optimization instead of
//! running to completion. When surrogate heights fail the numeric health
//! guard, verification degrades to the golden simulator and the job's
//! report says so. All of it is exercised
//! deterministically through [`crate::fault::FaultPlan`].
//!
//! # Job lifetime
//!
//! The pool keeps live jobs only. A terminal status is moved to the one
//! caller that waits for it ([`RuntimePool::wait`],
//! [`RuntimePool::wait_first`] or [`RuntimePool::wait_timeout`]), and the
//! pool forgets the job: `wait` and [`RuntimePool::cancel`] then answer
//! as for an id it never issued. So
//! a finished job's report and plan live as long as its waiter keeps
//! them, not as long as the pool.

use crate::fault::{sites, FaultPlan};
use crate::job::{JobId, JobReport, JobSpec, JobStatus};
use crate::registry::ModelBundle;
use crate::stats::{RuntimeStats, StatsInner};
use crossbeam::channel::{unbounded, Receiver, Sender};
use neurfill::pipeline::{FillingFlow, FlowConfig};
use neurfill::{CancelToken, HeightNorm, PlanarityMetrics};
use neurfill_cmpsim::ChipProfile;
use neurfill_cmpsim::LayerProfile;
use neurfill_layout::apply_fill;
use neurfill_obs::MetricsSnapshot;
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Pool construction options.
#[derive(Debug, Clone)]
pub struct PoolOptions {
    /// Worker threads; `0` uses [`default_workers`].
    pub workers: usize,
    /// Deadline applied to jobs that don't carry their own.
    pub default_timeout: Option<Duration>,
    /// Fault-injection plan (disabled by default; see [`FaultPlan`]).
    /// With the disabled plan every code path is bit-identical to a
    /// fault-free runtime.
    pub fault: Arc<FaultPlan>,
}

impl Default for PoolOptions {
    fn default() -> Self {
        Self { workers: 0, default_timeout: None, fault: Arc::new(FaultPlan::disabled()) }
    }
}

/// The machine's available parallelism, clamped to at least one worker.
#[must_use]
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get).max(1)
}

/// Applies `f` to every item on `workers` threads, returning results in
/// input order.
///
/// Work is pulled from a shared atomic cursor, so stragglers never idle a
/// thread, and the output position of each result is fixed by its input
/// index — the outcome is identical for any worker count (given a pure
/// `f`), which is what lets callers (e.g. the `neurfill-data` labeling
/// pipeline) promise byte-identical artifacts regardless of parallelism.
/// `workers == 0` uses [`default_workers`]; a single worker runs inline
/// without spawning.
///
/// # Panics
///
/// Propagates panics from `f` (the scope joins all threads first).
// The two `expect`s assert scheduling invariants of the cursor (each index
// claimed exactly once, every slot filled after the scope joins).
#[allow(clippy::expect_used)]
pub fn parallel_map_ordered<T, U, F>(items: Vec<T>, workers: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let workers = if workers == 0 { default_workers() } else { workers };
    if workers <= 1 || items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let n = items.len();
    let slots: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let cursor = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers.min(n) {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed) as usize;
                if i >= n {
                    break;
                }
                let item = work[i].lock().take().expect("each index is claimed once");
                *slots[i].lock() = Some(f(item));
            });
        }
    });
    slots.into_iter().map(|s| s.into_inner().expect("all slots filled")).collect()
}

#[derive(Debug)]
struct Queued {
    id: JobId,
    spec: JobSpec,
    enqueued: Instant,
    cancel: CancelToken,
}

/// Live jobs only: a job enters at submit and leaves when the one caller
/// waiting for it takes its terminal status, so the table stays
/// O(jobs in flight) however long the pool serves.
#[derive(Default)]
struct JobTable {
    jobs: Mutex<HashMap<JobId, (JobStatus, CancelToken)>>,
    changed: Condvar,
}

impl JobTable {
    fn set(&self, id: JobId, status: JobStatus) {
        if let Some(entry) = self.jobs.lock().get_mut(&id) {
            entry.0 = status;
        }
        self.changed.notify_all();
    }
}

/// Removes and returns `id`'s status when it is terminal.
fn take_terminal(jobs: &mut HashMap<JobId, (JobStatus, CancelToken)>, id: JobId) -> Option<JobStatus> {
    if !jobs.get(&id)?.0.is_terminal() {
        return None;
    }
    jobs.remove(&id).map(|(status, _)| status)
}

/// The concurrent batch fill-synthesis runtime.
pub struct RuntimePool {
    tx: Option<Sender<Queued>>,
    workers: Vec<JoinHandle<()>>,
    table: Arc<JobTable>,
    stats: Arc<StatsInner>,
    next_id: AtomicU64,
    default_timeout: Option<Duration>,
    bundle_digest: u64,
}

impl std::fmt::Debug for RuntimePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RuntimePool({} workers)", self.workers.len())
    }
}

impl RuntimePool {
    /// Starts the pool: spawns `options.workers` workers, each hydrating
    /// its own network from `bundle` (on its first job) and binding it
    /// into a flow under `config`.
    ///
    /// `config.telemetry` is the pool's one telemetry handle: the
    /// workers' flows (and through them the simulator and optimizers)
    /// and the pool's spans, events and latency histograms all record
    /// into it. The disabled default changes nothing: the `runtime.*`
    /// counters still count, in a private registry.
    ///
    /// # Errors
    ///
    /// Returns an error when a thread cannot be spawned. Hydration
    /// failures surface per job instead, so a pool is never
    /// half-constructed.
    pub fn new(
        bundle: Arc<ModelBundle>,
        config: FlowConfig,
        options: PoolOptions,
    ) -> std::io::Result<Self> {
        let stats = Arc::new(StatsInner::new(&config.telemetry));
        let table = Arc::new(JobTable::default());
        let (tx, rx) = unbounded::<Queued>();
        let worker_count = if options.workers == 0 { default_workers() } else { options.workers };
        let workers = (0..worker_count)
            .map(|i| {
                let rx = rx.clone();
                let bundle = Arc::clone(&bundle);
                let config = config.clone();
                let table = Arc::clone(&table);
                let stats = Arc::clone(&stats);
                let fault = Arc::clone(&options.fault);
                std::thread::Builder::new()
                    .name(format!("neurfill-worker-{i}"))
                    .spawn(move || worker_loop(&rx, &bundle, &config, &table, &stats, &fault))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(Self {
            tx: Some(tx),
            workers,
            table,
            stats,
            next_id: AtomicU64::new(1),
            default_timeout: options.default_timeout,
            bundle_digest: bundle.digest(),
        })
    }

    /// Digest of the model bundle this pool serves (see
    /// [`ModelBundle::digest`]) — lets a front-end report which model is
    /// live and detect whether a staged bundle would actually change it.
    #[must_use]
    pub fn bundle_digest(&self) -> u64 {
        self.bundle_digest
    }

    /// Enqueues a job and returns its id immediately.
    ///
    /// # Errors
    ///
    /// Returns an error (instead of accepting the job) when the pool has
    /// shut down or every worker is gone.
    pub fn submit(&self, mut spec: JobSpec) -> Result<JobId, String> {
        let Some(tx) = self.tx.as_ref() else {
            return Err("pool is shut down; job not accepted".to_string());
        };
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        spec.timeout = spec.timeout.or(self.default_timeout);
        let enqueued = Instant::now();
        let cancel = CancelToken::with_deadline_opt(spec.timeout.map(|t| enqueued + t));
        self.table.jobs.lock().insert(id, (JobStatus::Queued, cancel.clone()));
        self.stats.jobs_submitted.inc();
        if tx.send(Queued { id, spec, enqueued, cancel }).is_err() {
            // The caller never learns this id, so nothing could take it.
            self.table.jobs.lock().remove(&id);
            self.stats.jobs_failed.inc();
            return Err("pool workers are gone; job not enqueued".to_string());
        }
        Ok(id)
    }

    /// Requests cooperative cancellation of a job. Returns whether the
    /// request landed: `true` for a known, still-active job (it will fail
    /// with a `cancelled` error at its next cancellation point), `false`
    /// for unknown ids and jobs that already finished.
    pub fn cancel(&self, id: JobId) -> bool {
        match self.table.jobs.lock().get(&id) {
            Some((status, token)) if !status.is_terminal() => {
                token.cancel();
                true
            }
            _ => false,
        }
    }

    /// Blocks until the job reaches a terminal status and takes it: the
    /// pool forgets the job, so a later call answers `None`, as for an id
    /// this pool never issued.
    #[must_use]
    pub fn wait(&self, id: JobId) -> Option<JobStatus> {
        self.wait_first(&[id]).map(|(_, status)| status)
    }

    /// Blocks until the job reaches a terminal status or `timeout`
    /// elapses. A terminal status is taken, as by [`RuntimePool::wait`];
    /// on timeout the job's current (non-terminal) status is returned and
    /// the job stays known. `None` for an unknown id.
    ///
    /// This is the bounded-wait primitive front-ends build long-polling
    /// on: unlike [`RuntimePool::wait`], a hung or long-running job cannot
    /// pin the caller forever.
    #[must_use]
    pub fn wait_timeout(&self, id: JobId, timeout: Duration) -> Option<JobStatus> {
        let deadline = Instant::now() + timeout;
        let mut jobs = self.table.jobs.lock();
        loop {
            let (status, _) = jobs.get(&id)?;
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() && !status.is_terminal() {
                return Some(status.clone());
            }
            if let Some(status) = take_terminal(&mut jobs, id) {
                return Some(status);
            }
            let _ = self.table.changed.wait_for(&mut jobs, remaining);
        }
    }

    /// Blocks until *any* of the given jobs reaches a terminal status and
    /// takes the first one found (lowest index in `ids` on ties), as
    /// [`RuntimePool::wait`] takes it. Unknown ids are skipped; returns
    /// `None` when none of the ids are known (including an empty slice).
    ///
    /// This is the streaming primitive the full-chip tile scheduler
    /// uses to keep a bounded number of tile jobs in flight: submit up
    /// to the cap, `wait_first` on the open set, merge, refill.
    #[must_use]
    pub fn wait_first(&self, ids: &[JobId]) -> Option<(JobId, JobStatus)> {
        let mut jobs = self.table.jobs.lock();
        loop {
            if !ids.iter().any(|id| jobs.contains_key(id)) {
                return None;
            }
            for &id in ids {
                if let Some(status) = take_terminal(&mut jobs, id) {
                    return Some((id, status));
                }
            }
            self.table.changed.wait(&mut jobs);
        }
    }

    /// A snapshot of the runtime counters.
    #[must_use]
    pub fn stats(&self) -> RuntimeStats {
        self.stats.snapshot()
    }

    /// A telemetry snapshot of everything recorded in the registry the
    /// pool's counters live in. With an enabled [`FlowConfig::telemetry`]
    /// this is the whole shared registry — `runtime.*` counters, `job.*`
    /// histograms, `sim.*`/`optim.*`/`flow.*` metrics from the workers'
    /// flows, and degradation events. With the default
    /// (disabled) handle it still carries the `runtime.*` counters.
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.stats.registry_snapshot()
    }

    /// Graceful shutdown: closes the queue, lets workers finish everything
    /// already enqueued, and returns final stats.
    #[must_use]
    pub fn shutdown(mut self) -> RuntimeStats {
        self.stop();
        self.stats.snapshot()
    }

    fn stop(&mut self) {
        drop(self.tx.take());
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for RuntimePool {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Hydrates the worker's flow on first use (and again after a failed
/// hydration left the slot empty), so a hydration failure fails the one
/// job that hit it instead of condemning every job the worker ever
/// takes.
fn ensure_flow<'a>(
    slot: &'a mut Option<FillingFlow>,
    bundle: &ModelBundle,
    config: &FlowConfig,
    fault: &FaultPlan,
    stats: &StatsInner,
) -> Result<&'a FillingFlow, String> {
    if slot.is_none() {
        let start = Instant::now();
        fault.inject(sites::HYDRATE)?;
        let network = bundle.hydrate().map_err(|e| format!("failed to hydrate model bundle: {e}"))?;
        let flow = FillingFlow::with_network(Rc::new(network), config.clone())?;
        stats.hydrations.inc();
        stats.hydrate_nanos.add_duration(start.elapsed());
        *slot = Some(flow);
    }
    slot.as_ref().ok_or_else(|| "worker flow initialization failed".to_string())
}

fn worker_loop(
    rx: &Receiver<Queued>,
    bundle: &ModelBundle,
    config: &FlowConfig,
    table: &JobTable,
    stats: &StatsInner,
    fault: &FaultPlan,
) {
    // The flow (one hydration + assembly) is amortized over every job this
    // worker takes, but built lazily so a failed hydration is tried afresh
    // for the next job instead of poisoning the worker.
    let mut flow: Option<FillingFlow> = None;

    while let Ok(job) = rx.recv() {
        stats.queue_wait.record_duration(job.enqueued.elapsed());
        let deadline = job.spec.timeout.map(|t| job.enqueued + t);
        if deadline.is_some_and(|d| Instant::now() > d) {
            fail(table, stats, job.id, format!("job '{}' timed out in queue", job.spec.name));
            continue;
        }
        if job.cancel.cancel_requested() {
            fail(table, stats, job.id, format!("job '{}' cancelled while queued", job.spec.name));
            continue;
        }
        // One span per job: records `job.total_ns` and a span event. Inert
        // when no telemetry is attached.
        let job_span = stats.events.span("job.total_ns");
        table.set(job.id, JobStatus::Running);
        // Panics — the job's own or injected at any site — are caught
        // here: they fail the job, never the worker.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let flow = ensure_flow(&mut flow, bundle, config, fault, stats)?;
            run_job(flow, &job.spec, &job.cancel, fault, stats)
        }));
        let status = match outcome {
            Ok(Ok(report)) => {
                if deadline.is_some_and(|d| Instant::now() > d) {
                    JobStatus::Failed(format!("job '{}' exceeded its timeout", job.spec.name))
                } else {
                    JobStatus::Done(Box::new(report))
                }
            }
            Ok(Err(e)) => JobStatus::Failed(e),
            Err(panic) => JobStatus::Failed(format!(
                "job '{}' panicked: {}",
                job.spec.name,
                panic_message(&*panic)
            )),
        };
        drop(job_span);
        match status {
            JobStatus::Failed(msg) => fail(table, stats, job.id, msg),
            done => {
                stats.jobs_completed.inc();
                table.set(job.id, done);
            }
        }
    }
}

fn fail(table: &JobTable, stats: &StatsInner, id: JobId, msg: String) {
    stats.jobs_failed.inc();
    table.set(id, JobStatus::Failed(msg));
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".into()
    }
}

/// Flags surrogate heights that cannot be trusted: non-finite values, or
/// values implausibly far from the normalization band (|h − offset| >
/// 10⁴ × scale — a trained surrogate predicts within a few scales).
fn heights_health_error(profile: &ChipProfile, norm: HeightNorm) -> Option<String> {
    let band = 1e4 * norm.scale_nm;
    for (layer, layer_profile) in profile.iter().enumerate() {
        for &h in layer_profile.heights() {
            if !h.is_finite() {
                return Some(format!("surrogate returned a non-finite height on layer {layer}"));
            }
            if (h - norm.offset_nm).abs() > band {
                return Some(format!(
                    "surrogate height {h:.3e} nm on layer {layer} is outside the plausible band"
                ));
            }
        }
    }
    None
}

/// `profile` with every height NaN — what the `verify_forward=nan` fault
/// makes of the surrogate's answer.
fn poisoned(profile: &ChipProfile) -> ChipProfile {
    ChipProfile::new(
        profile
            .iter()
            .map(|l| {
                let nan = vec![f64::NAN; l.heights().len()];
                LayerProfile::new(l.rows(), l.cols(), nan, l.dishing().to_vec(), l.erosion().to_vec())
            })
            .collect(),
    )
}

/// One job: synthesis through the worker's own flow (under the job's
/// cancel token), then surrogate verification of the filled layout on the
/// same network — degrading to the golden simulator when the surrogate's
/// heights fail the health guard.
fn run_job(
    flow: &FillingFlow,
    spec: &JobSpec,
    cancel: &CancelToken,
    fault: &FaultPlan,
    stats: &StatsInner,
) -> Result<JobReport, String> {
    fault.inject(sites::SYNTHESIS)?;
    let synth_start = Instant::now();
    let result = flow.run_cancellable(&spec.layout, cancel)?;
    let synth_elapsed = synth_start.elapsed();
    stats.synthesis_nanos.add_duration(synth_elapsed);
    stats.job_synthesis.record_duration(synth_elapsed);

    // Verification: predict the filled layout's post-CMP profile, every
    // layer one window sample of a single multi-sample forward.
    let verify_start = Instant::now();
    let dummy = flow.config().insertion_dummy_spec();
    let filled = apply_fill(&spec.layout, &result.plan, &dummy);
    // Fault site `verify_forward`: a transient or a panic fails this job
    // only, NaN poisons the heights so the health guard below trips.
    let poison = fault.inject(sites::VERIFY_FORWARD)?;
    let mut profile = flow
        .network()
        .predict_profile(&filled)
        .map_err(|e| format!("verification forward failed: {e}"))?;
    stats.samples_inferred.add(filled.num_layers() as u64);
    if poison {
        profile = poisoned(&profile);
    }
    let degraded = heights_health_error(&profile, flow.network().height_norm());
    if let Some(reason) = &degraded {
        // The surrogate's numbers are unusable: verify on the golden
        // simulator and say so in the report.
        stats.jobs_degraded.inc();
        stats.events.event(
            "fault",
            "golden_degraded",
            &[("job", spec.name.clone()), ("reason", reason.clone())],
        );
        profile = flow.simulator().simulate(&filled);
    }
    let predicted = PlanarityMetrics::from_profile(&profile);
    let verify_elapsed = verify_start.elapsed();
    stats.verify_nanos.add_duration(verify_elapsed);
    stats.job_verify.record_duration(verify_elapsed);

    Ok(JobReport {
        name: spec.name.clone(),
        objective_value: result.synthesis.objective_value,
        quality: result.scored.quality,
        overall: result.scored.overall,
        breakdown: result.scored.breakdown,
        predicted,
        synthesis_runtime: result.synthesis.runtime,
        evaluations: result.synthesis.evaluations,
        plan: result.plan,
        degraded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{tiny_layout, tiny_network};
    use neurfill_layout::{DesignKind, DesignSpec};

    #[test]
    fn terminal_jobs_leave_no_cancel_token_behind() {
        let bundle = Arc::new(ModelBundle::from_network(&tiny_network(1)).unwrap());
        let mut config =
            FlowConfig { process: neurfill_cmpsim::ProcessParams::fast(), ..FlowConfig::default() };
        config.neurfill.sqp.max_iterations = 4;
        // The delay holds the first job at the synthesis site while the
        // third, queued behind it on the one worker, is cancelled.
        let options = PoolOptions {
            workers: 1,
            fault: Arc::new(FaultPlan::parse("synthesis=delay200@1", 0).unwrap()),
            ..PoolOptions::default()
        };
        let pool = RuntimePool::new(bundle, config, options).unwrap();
        let done = pool.submit(JobSpec::new("done", tiny_layout(1))).unwrap();
        // 6x6 is not divisible by the depth-2 UNet's factor: synthesis fails.
        let bad = DesignSpec::new(DesignKind::CmpTest, 6, 6, 2).generate();
        let failed = pool.submit(JobSpec::new("failed", bad)).unwrap();
        let cancelled = pool.submit(JobSpec::new("cancelled", tiny_layout(3))).unwrap();
        assert_eq!(pool.table.jobs.lock().len(), 3, "one entry (status + token) per live job");
        assert!(pool.cancel(cancelled));

        assert!(matches!(pool.wait(done), Some(JobStatus::Done(_))));
        let (first, status) = pool.wait_first(&[failed, cancelled]).unwrap();
        let second = if first == failed { cancelled } else { failed };
        for (id, status) in [(first, Some(status)), (second, pool.wait(second))] {
            let expect = if id == failed { "not divisible" } else { "cancelled" };
            assert!(matches!(status, Some(JobStatus::Failed(m)) if m.contains(expect)), "job {id}");
        }
        assert!(pool.table.jobs.lock().is_empty(), "a taken job leaves neither status nor token");
        for id in [done, failed, cancelled] {
            assert!(!pool.cancel(id), "job {id} is terminal");
            assert!(pool.wait(id).is_none(), "job {id} was taken");
            assert!(pool.wait_timeout(id, Duration::ZERO).is_none(), "job {id} was taken");
        }
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<usize> = (0..97).collect();
        let expect: Vec<usize> = items.iter().map(|i| i * i).collect();
        for workers in [1, 2, 4, 7] {
            let got = parallel_map_ordered(items.clone(), workers, |i| i * i);
            assert_eq!(got, expect, "workers = {workers}");
        }
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        assert_eq!(parallel_map_ordered(Vec::<u8>::new(), 4, |x| x), Vec::<u8>::new());
        assert_eq!(parallel_map_ordered(vec![9], 4, |x| x + 1), vec![10]);
    }
}
