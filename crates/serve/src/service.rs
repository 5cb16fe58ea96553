//! The multi-tenant fill service: admission → dispatch → pool, with
//! model hot-swap and graceful drain.
//!
//! # Architecture
//!
//! ```text
//!  HTTP submit ──► Admission (bounded per-tenant priority queues)
//!                     │  smooth WRR pick (one dispatcher thread)
//!                     ▼
//!               RuntimePool (bounded in-flight slots)
//!                     │  one watcher thread per in-flight job
//!                     ▼
//!               terminal status snapshot + per-tenant SLO metrics
//! ```
//!
//! The dispatcher is the only thread that moves work from admission into
//! the pool, which makes dispatch order deterministic given an arrival
//! order — the property the fair-share tests pin. In-flight concurrency
//! is bounded by `slots`; the pool's own queue therefore never grows
//! beyond the slot count and weighted fairness is enforced *before* the
//! pool's FIFO, not after.
//!
//! Model promotion builds a complete new [`RuntimePool`] on the staged
//! bundle (after canary verification — see [`crate::canary`]) and swaps
//! the `Arc` under the state lock: jobs already dispatched keep their
//! handle on the old pool, which is retired in the background once its
//! last job finishes. The service never stops accepting during a swap.

use crate::admission::{Admission, AdmitError, Pending};
use crate::canary::{verify_bundle, CanaryConfig, CanaryReport};
use crate::journal::{JobJournal, RecoveredState};
use crate::tenant::TenantConfig;
use crate::wire::{JobRequest, StatusView, WireState};
use neurfill::pipeline::FlowConfig;
use neurfill_layout::Layout;
use neurfill_obs::{Scope, Telemetry};
use neurfill_runtime::{
    JobId, JobSpec, JobStatus, ModelBundle, ModelRegistry, PoolOptions, RuntimePool,
};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Service construction options.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Tenants admitted to the service. Empty configures a single
    /// `default` tenant.
    pub tenants: Vec<TenantConfig>,
    /// Tenant used when a submission names none; defaults to the first
    /// configured tenant.
    pub default_tenant: Option<String>,
    /// Bound on jobs in flight inside the pool at once; `0` uses the
    /// pool's worker count. Fairness is enforced at dispatch, so keeping
    /// this close to the worker count keeps the WRR decision late (and
    /// therefore fair under bursty arrivals).
    pub slots: usize,
    /// How long a drain waits for queued + in-flight jobs before
    /// cancelling the remainder.
    pub drain_timeout: Duration,
    /// How many recent live layouts are retained as canary samples.
    pub sample_ring: usize,
    /// Canary verification policy for staged bundles.
    pub canary: CanaryConfig,
    /// Flow configuration shared by the live and canary pools.
    pub flow: FlowConfig,
    /// Options for the live pool (telemetry is force-enabled so
    /// `/metrics` always has content).
    pub pool: PoolOptions,
    /// Directory for the write-ahead job journal. `None` (the default)
    /// serves without durability; `Some(dir)` write-ahead-logs every job
    /// transition and recovers jobs from the journal at startup.
    pub journal: Option<std::path::PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            tenants: Vec::new(),
            default_tenant: None,
            slots: 0,
            drain_timeout: Duration::from_secs(30),
            sample_ring: 16,
            canary: CanaryConfig::default(),
            flow: FlowConfig::default(),
            pool: PoolOptions::default(),
            journal: None,
        }
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The named tenant is not configured (→ 403).
    UnknownTenant(String),
    /// The tenant's queue is full (→ 429 + `Retry-After`).
    QueueFull {
        /// Rejecting tenant.
        tenant: String,
        /// Suggested backoff seconds.
        retry_after_s: u64,
    },
    /// The service is draining or stopped (→ 503).
    Draining,
    /// The write-ahead journal refused the admit record, so the
    /// submission cannot be acknowledged (→ 503). "Acknowledged implies
    /// journaled" is what makes restarts lossless.
    Journal(String),
}

/// What a cancel request found (`DELETE /v1/jobs/{id}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The job was dequeued, or cooperative cancellation was requested
    /// on its in-flight pool job (→ 200).
    Cancelled,
    /// The job was already cancelled — the idempotent repeat (→ 204).
    AlreadyCancelled,
    /// The job already finished or failed; there is nothing left to
    /// cancel (→ 409).
    Terminal,
}

/// Why a bundle could not be staged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StageError {
    /// Another staging is in progress (→ 409).
    Busy,
    /// The service is draining or stopped (→ 503).
    Draining,
    /// The bundle bytes or canary machinery are unusable (→ 422).
    Invalid(String),
}

/// What the result endpoint found.
#[derive(Debug, Clone)]
pub enum ResultFetch {
    /// Unknown job id.
    NotFound,
    /// The job is not terminal yet.
    NotDone(StatusView),
    /// The job finished; the report text is ready.
    Done(String),
    /// The job failed or was cancelled.
    Unavailable(StatusView),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Running,
    Draining,
    Stopped,
}

#[derive(Debug)]
enum JobState {
    /// Waiting in the admission queue.
    Queued,
    /// In flight inside `pool`.
    Dispatched { pool: Arc<RuntimePool>, pool_id: JobId },
    /// Terminal pool status, snapshotted by the watcher so the job no
    /// longer pins its pool (which lets replaced pools retire).
    Finished(JobStatus),
    /// Cancelled while still queued.
    Cancelled,
    /// The pool refused the submission.
    FailedLocal(String),
    /// Finished on a *previous* service timeline; the result is served
    /// from the journal (no live pool ever saw this incarnation).
    RecoveredDone { degraded: Option<String>, report: String, plan: Vec<f64> },
}

#[derive(Debug)]
struct ServiceJob {
    tenant: usize,
    state: JobState,
    submitted: Instant,
    /// Whether this job's state came from journal replay after a restart.
    recovered: bool,
}

struct State {
    admission: Admission,
    jobs: HashMap<u64, ServiceJob>,
    next_id: u64,
    pool: Arc<RuntimePool>,
    generation: u64,
    free_slots: usize,
    phase: Phase,
    samples: VecDeque<(String, Layout)>,
    staging: bool,
    journal: Option<JobJournal>,
}

struct Inner {
    state: Mutex<State>,
    /// Wakes the dispatcher (new work, freed slot, phase change) and the
    /// drain waiter.
    work: Condvar,
    /// Wakes long-pollers when a job reaches a terminal state.
    jobs_changed: Condvar,
    telemetry: Telemetry,
    serve: Scope,
    tenant_scopes: Vec<Scope>,
    default_tenant: String,
    slots_total: usize,
    drain_timeout: Duration,
    sample_ring: usize,
    canary: CanaryConfig,
    flow: FlowConfig,
    pool_options: PoolOptions,
    registry: ModelRegistry,
    dispatcher: Mutex<Option<std::thread::JoinHandle<()>>>,
}

/// The multi-tenant fill-synthesis service (cheaply cloneable handle).
#[derive(Clone)]
pub struct FillService {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for FillService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FillService({} tenants)", self.inner.tenant_scopes.len())
    }
}

impl FillService {
    /// Starts the service: builds the live pool on `bundle` and spawns
    /// the dispatcher.
    ///
    /// # Errors
    ///
    /// Propagates pool construction errors.
    pub fn start(bundle: Arc<ModelBundle>, mut config: ServiceConfig) -> io::Result<Self> {
        if config.tenants.is_empty() {
            config.tenants.push(TenantConfig::new("default"));
        }
        let default_name =
            config.default_tenant.clone().unwrap_or_else(|| config.tenants[0].name.clone());
        if !config.tenants.iter().any(|t| t.name == default_name) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("default tenant {default_name:?} is not configured"),
            ));
        }
        // `/metrics` must always have content, so the pool (and the
        // serve layer) record into an enabled registry even when the
        // caller did not pass one.
        let mut pool_options = config.pool.clone();
        pool_options.telemetry = pool_options.telemetry.or_enabled();
        let telemetry = pool_options.telemetry.clone();

        let pool =
            Arc::new(RuntimePool::new(Arc::clone(&bundle), config.flow.clone(), pool_options.clone())?);
        let slots_total =
            if config.slots == 0 { neurfill_runtime::default_workers() } else { config.slots };
        let tenant_root = telemetry.scoped("serve.tenant");
        let tenant_scopes: Vec<Scope> =
            config.tenants.iter().map(|t| tenant_root.scoped(&t.name)).collect();
        let mut admission = Admission::new(config.tenants);
        let registry = ModelRegistry::new();
        registry.insert(format!("live/{:016x}", bundle.digest()), bundle);

        // Replay the journal before the dispatcher exists: recovered
        // pending jobs are re-enqueued (bypassing the capacity bound — an
        // accepted job must never be lost to a restart), terminal jobs
        // become servable snapshots, and ids continue where the previous
        // incarnation stopped.
        let serve_scope = telemetry.scoped("serve");
        let mut jobs: HashMap<u64, ServiceJob> = HashMap::new();
        let mut next_id = 1u64;
        let mut journal = None;
        if let Some(dir) = &config.journal {
            let (j, recovered) = JobJournal::open(dir, Arc::clone(&pool_options.fault))?;
            let mut redispatched = 0u64;
            let mut results = 0u64;
            for job in recovered {
                next_id = next_id.max(job.id + 1);
                let Some(tenant) = admission.tenant_index(&job.tenant) else {
                    serve_scope.inc("recovered_unknown_tenant");
                    continue;
                };
                let state = match job.state {
                    RecoveredState::Pending { .. } => {
                        admission.restore(
                            tenant,
                            Pending {
                                job_id: job.id,
                                name: job.name,
                                layout: job.layout,
                                timeout: job.timeout,
                                priority: job.priority,
                                enqueued: Instant::now(),
                            },
                        );
                        redispatched += 1;
                        JobState::Queued
                    }
                    RecoveredState::Done { degraded, report, plan } => {
                        results += 1;
                        JobState::RecoveredDone { degraded, report, plan }
                    }
                    RecoveredState::Failed { error } => {
                        results += 1;
                        JobState::FailedLocal(error)
                    }
                    RecoveredState::Cancelled => {
                        results += 1;
                        JobState::Cancelled
                    }
                };
                serve_scope.inc("recovered_jobs");
                jobs.insert(
                    job.id,
                    ServiceJob { tenant, state, submitted: Instant::now(), recovered: true },
                );
            }
            serve_scope.counter("recovered_results").add(results);
            serve_scope.counter("redispatched_jobs").add(redispatched);
            telemetry.event(
                "serve",
                "recover",
                &[
                    ("jobs", jobs.len().to_string()),
                    ("redispatched", redispatched.to_string()),
                    ("results", results.to_string()),
                ],
            );
            journal = Some(j);
        }

        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                admission,
                jobs,
                next_id,
                pool,
                generation: 1,
                free_slots: slots_total,
                phase: Phase::Running,
                samples: VecDeque::new(),
                staging: false,
                journal,
            }),
            work: Condvar::new(),
            jobs_changed: Condvar::new(),
            serve: serve_scope,
            telemetry,
            tenant_scopes,
            default_tenant: default_name,
            slots_total,
            drain_timeout: config.drain_timeout,
            sample_ring: config.sample_ring.max(1),
            canary: config.canary,
            flow: config.flow,
            pool_options,
            registry,
            dispatcher: Mutex::new(None),
        });
        let dispatcher = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("neurfill-serve-dispatch".to_string())
                .spawn(move || dispatch_loop(&inner))?
        };
        *inner.dispatcher.lock() = Some(dispatcher);
        Ok(Self { inner })
    }

    /// The service-wide telemetry handle (shared with the pool).
    #[must_use]
    pub fn telemetry(&self) -> Telemetry {
        self.inner.telemetry.clone()
    }

    /// Configured tenant names.
    #[must_use]
    pub fn tenant_names(&self) -> Vec<String> {
        self.inner.state.lock().admission.tenant_names()
    }

    /// Admits a job, returning its service id.
    ///
    /// # Errors
    ///
    /// See [`SubmitError`].
    pub fn submit(&self, req: JobRequest) -> Result<u64, SubmitError> {
        let inner = &*self.inner;
        let mut s = inner.state.lock();
        if s.phase != Phase::Running {
            return Err(SubmitError::Draining);
        }
        let tenant_name = req.tenant.as_deref().unwrap_or(&inner.default_tenant);
        let Some(tenant) = s.admission.tenant_index(tenant_name) else {
            let name = tenant_name.to_string();
            inner.serve.inc("rejected_unknown_tenant");
            return Err(SubmitError::UnknownTenant(name));
        };
        let id = s.next_id;
        // The journal needs the attributes after `pending` is moved into
        // the queue; clone only when journaling is on.
        let journal_copy = s
            .journal
            .is_some()
            .then(|| (req.name.clone(), req.layout.clone(), req.priority, req.timeout));
        let pending = Pending {
            job_id: id,
            name: req.name,
            layout: req.layout,
            timeout: req.timeout,
            priority: req.priority,
            enqueued: Instant::now(),
        };
        match s.admission.enqueue(tenant, pending, inner.slots_total) {
            Ok(()) => {}
            Err(AdmitError::QueueFull { tenant: t, retry_after_s }) => {
                inner.tenant_scopes[tenant].inc("rejected");
                inner.serve.inc("rejected_total");
                return Err(SubmitError::QueueFull { tenant: t, retry_after_s });
            }
            Err(AdmitError::UnknownTenant(t)) => {
                return Err(SubmitError::UnknownTenant(t));
            }
        }
        // Write-ahead: the admit record must be durable before the id is
        // acknowledged. Capacity was checked first so a rejected submit
        // never leaves a journal record to resurrect.
        if let Some((name, layout, priority, timeout)) = journal_copy {
            let tenant_name = s.admission.tenant(tenant).name.clone();
            let append = s
                .journal
                .as_mut()
                .map(|j| j.record_admit(id, &tenant_name, &name, priority, timeout, &layout));
            if let Some(Err(e)) = append {
                s.admission.remove(id);
                inner.serve.inc("journal_errors");
                return Err(SubmitError::Journal(e.to_string()));
            }
        }
        s.next_id += 1;
        s.jobs.insert(
            id,
            ServiceJob { tenant, state: JobState::Queued, submitted: Instant::now(), recovered: false },
        );
        inner.tenant_scopes[tenant].inc("admitted");
        inner.serve.inc("jobs_submitted");
        inner.work.notify_all();
        Ok(id)
    }

    /// The job's current status.
    #[must_use]
    pub fn status(&self, id: u64) -> Option<StatusView> {
        let s = self.inner.state.lock();
        status_locked(&s, id)
    }

    /// Blocks until the job is terminal or `timeout` elapses, returning
    /// the status at that point.
    #[must_use]
    pub fn wait_terminal(&self, id: u64, timeout: Duration) -> Option<StatusView> {
        let deadline = Instant::now() + timeout;
        let mut s = self.inner.state.lock();
        loop {
            let view = status_locked(&s, id)?;
            if view.state.is_terminal() {
                return Some(view);
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Some(view);
            }
            let _ = self.inner.jobs_changed.wait_for(&mut s, remaining);
        }
    }

    /// Fetches a finished job's report text.
    #[must_use]
    pub fn result_text(&self, id: u64) -> ResultFetch {
        let s = self.inner.state.lock();
        let Some(view) = status_locked(&s, id) else { return ResultFetch::NotFound };
        match &view.state {
            WireState::Done => {}
            WireState::Failed | WireState::Cancelled => return ResultFetch::Unavailable(view),
            _ => return ResultFetch::NotDone(view),
        }
        let Some(job) = s.jobs.get(&id) else { return ResultFetch::NotFound };
        let report = match &job.state {
            JobState::Finished(JobStatus::Done(report)) => Some(report.to_text()),
            JobState::RecoveredDone { report, .. } => Some(report.clone()),
            JobState::Dispatched { pool, pool_id } => match pool.status(*pool_id) {
                Some(JobStatus::Done(report)) => Some(report.to_text()),
                _ => None,
            },
            _ => None,
        };
        match report {
            Some(text) => ResultFetch::Done(text),
            None => ResultFetch::Unavailable(view),
        }
    }

    /// Fetches a finished job's fill plan, encoded with
    /// [`crate::wire::encode_plan`] (exact round-trip amounts).
    #[must_use]
    pub fn result_plan(&self, id: u64) -> ResultFetch {
        let s = self.inner.state.lock();
        let Some(view) = status_locked(&s, id) else { return ResultFetch::NotFound };
        match &view.state {
            WireState::Done => {}
            WireState::Failed | WireState::Cancelled => return ResultFetch::Unavailable(view),
            _ => return ResultFetch::NotDone(view),
        }
        let Some(job) = s.jobs.get(&id) else { return ResultFetch::NotFound };
        let plan = match &job.state {
            JobState::Finished(JobStatus::Done(report)) => {
                Some(crate::wire::encode_plan(report.plan.as_slice()))
            }
            JobState::RecoveredDone { plan, .. } => Some(crate::wire::encode_plan(plan)),
            JobState::Dispatched { pool, pool_id } => match pool.status(*pool_id) {
                Some(JobStatus::Done(report)) => Some(crate::wire::encode_plan(report.plan.as_slice())),
                _ => None,
            },
            _ => None,
        };
        match plan {
            Some(text) => ResultFetch::Done(text),
            None => ResultFetch::Unavailable(view),
        }
    }

    /// Cancels a job: removes it from the admission queue, or requests
    /// cooperative cancellation if already dispatched. `None` for an
    /// unknown id. Repeating a cancel is idempotent
    /// ([`CancelOutcome::AlreadyCancelled`]); cancelling a done/failed
    /// job reports [`CancelOutcome::Terminal`]. A queued-side cancel is
    /// journaled, so it survives a restart.
    pub fn cancel(&self, id: u64) -> Option<CancelOutcome> {
        let inner = &*self.inner;
        let mut s = inner.state.lock();
        let job = s.jobs.get(&id)?;
        let tenant = job.tenant;
        match &job.state {
            JobState::Queued => {
                let removed = s.admission.remove(id).is_some();
                if removed {
                    if let Some(job) = s.jobs.get_mut(&id) {
                        job.state = JobState::Cancelled;
                    }
                    if let Some(journal) = s.journal.as_mut() {
                        if journal.record_cancel(id).is_err() {
                            inner.serve.inc("journal_errors");
                        }
                    }
                    inner.tenant_scopes[tenant].inc("cancelled");
                    inner.jobs_changed.notify_all();
                    Some(CancelOutcome::Cancelled)
                } else {
                    // Queued but not in the queue cannot happen on one
                    // timeline; answer as terminal defensively.
                    Some(CancelOutcome::Terminal)
                }
            }
            JobState::Dispatched { pool, pool_id } => {
                let (pool, pool_id) = (Arc::clone(pool), *pool_id);
                if pool.cancel(pool_id) {
                    Some(CancelOutcome::Cancelled)
                } else {
                    Some(CancelOutcome::Terminal)
                }
            }
            JobState::Cancelled => Some(CancelOutcome::AlreadyCancelled),
            JobState::Finished(_) | JobState::FailedLocal(_) | JobState::RecoveredDone { .. } => {
                Some(CancelOutcome::Terminal)
            }
        }
    }

    /// The live model's digest and swap generation.
    #[must_use]
    pub fn model_info(&self) -> (u64, u64) {
        let s = self.inner.state.lock();
        (s.pool.bundle_digest(), s.generation)
    }

    /// Stages a bundle: validates the bytes, canaries them against recent
    /// live traffic, and — when every sample passes — promotes the bundle
    /// by swapping in a fresh pool. Live serving continues throughout.
    ///
    /// # Errors
    ///
    /// See [`StageError`]; a *rejected* canary is an `Ok` report with
    /// `promoted == false`, not an error.
    pub fn stage_model(&self, bytes: Vec<u8>) -> Result<CanaryReport, StageError> {
        let inner = &*self.inner;
        let samples: Vec<(String, Layout)> = {
            let mut s = inner.state.lock();
            if s.phase != Phase::Running {
                return Err(StageError::Draining);
            }
            if s.staging {
                return Err(StageError::Busy);
            }
            s.staging = true;
            s.samples.iter().cloned().collect()
        };
        // From here on every path must clear `staging`.
        let finish = |promote: Option<Arc<ModelBundle>>| -> Result<(u64, u64), ()> {
            let mut s = inner.state.lock();
            s.staging = false;
            if let Some(bundle) = promote {
                if s.phase != Phase::Running {
                    return Err(()); // drained mid-canary: do not swap
                }
                let new_pool = match RuntimePool::new(
                    Arc::clone(&bundle),
                    inner.flow.clone(),
                    inner.pool_options.clone(),
                ) {
                    Ok(pool) => Arc::new(pool),
                    Err(_) => return Err(()),
                };
                let old = std::mem::replace(&mut s.pool, new_pool);
                s.generation += 1;
                let info = (bundle.digest(), s.generation);
                inner.registry.insert(format!("staged/{:016x}", bundle.digest()), bundle);
                drop(s);
                // Retire the replaced pool once its last dispatched job
                // finishes; watchers hold their own handles, so this
                // never blocks live traffic.
                std::thread::spawn(move || {
                    let _ = old.wait_all();
                    drop(old);
                });
                return Ok(info);
            }
            Ok((0, 0))
        };

        let bundle = match ModelBundle::from_bytes(bytes) {
            Ok(b) => Arc::new(b),
            Err(e) => {
                let _ = finish(None);
                return Err(StageError::Invalid(format!("bad bundle: {e}")));
            }
        };
        let report = match verify_bundle(&bundle, &inner.flow, &inner.canary, &samples) {
            Ok(report) => report,
            Err(e) => {
                let _ = finish(None);
                return Err(StageError::Invalid(e));
            }
        };
        if report.promoted {
            match finish(Some(bundle)) {
                Ok((digest, generation)) => inner.telemetry.event(
                    "serve",
                    "promote",
                    &[("digest", format!("{digest:016x}")), ("generation", generation.to_string())],
                ),
                Err(()) => {
                    let _ = finish(None);
                    return Err(StageError::Invalid(
                        "bundle verified but the replacement pool could not start".to_string(),
                    ));
                }
            }
        } else {
            let _ = finish(None);
            inner.telemetry.event("serve", "reject", &[("digest", format!("{:016x}", report.digest))]);
        }
        Ok(report)
    }

    /// The full metrics snapshot (runtime + flow + serve layers) as
    /// schema-v1 JSONL.
    #[must_use]
    pub fn metrics_jsonl(&self) -> String {
        self.inner.telemetry.snapshot().to_jsonl()
    }

    /// Whether new submissions are being refused.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.inner.state.lock().phase != Phase::Running
    }

    /// Flips the service into draining: new submissions are refused with
    /// [`SubmitError::Draining`] immediately; queued and in-flight jobs
    /// keep going. Idempotent.
    pub fn begin_drain(&self) {
        let mut s = self.inner.state.lock();
        if s.phase == Phase::Running {
            s.phase = Phase::Draining;
        }
        self.inner.work.notify_all();
        self.inner.jobs_changed.notify_all();
    }

    /// Waits for queued + in-flight jobs to finish (up to the configured
    /// drain timeout), cancels whatever remains, and stops the
    /// dispatcher. Idempotent; returns once the service is fully stopped.
    pub fn finish_shutdown(&self) {
        let inner = &*self.inner;
        self.begin_drain();
        let deadline = Instant::now() + inner.drain_timeout;
        {
            let mut s = inner.state.lock();
            loop {
                if s.phase == Phase::Stopped {
                    return;
                }
                if s.admission.total_queued() == 0 && s.free_slots == inner.slots_total {
                    break;
                }
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    break;
                }
                let _ = inner.work.wait_for(&mut s, remaining);
            }
            // Deadline expired (or the queue is empty): abandon whatever
            // is still queued and cancel what is still running.
            for (tenant, pending) in s.admission.drain_all() {
                if let Some(job) = s.jobs.get_mut(&pending.job_id) {
                    job.state = JobState::Cancelled;
                }
                inner.tenant_scopes[tenant].inc("cancelled");
            }
            let active: Vec<(Arc<RuntimePool>, JobId)> = s
                .jobs
                .values()
                .filter_map(|j| match &j.state {
                    JobState::Dispatched { pool, pool_id } => Some((Arc::clone(pool), *pool_id)),
                    _ => None,
                })
                .collect();
            for (pool, pool_id) in active {
                let _ = pool.cancel(pool_id);
            }
            inner.jobs_changed.notify_all();
            // Give cooperative cancellation a bounded window to land.
            let grace = Instant::now() + inner.drain_timeout;
            while s.free_slots != inner.slots_total {
                let remaining = grace.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    break;
                }
                let _ = inner.work.wait_for(&mut s, remaining);
            }
            s.phase = Phase::Stopped;
            if let Some(journal) = s.journal.as_mut() {
                let _ = journal.sync();
            }
            inner.work.notify_all();
            inner.jobs_changed.notify_all();
        }
        if let Some(handle) = inner.dispatcher.lock().take() {
            let _ = handle.join();
        }
    }

    /// `begin_drain` + `finish_shutdown` in one call.
    pub fn shutdown(&self) {
        self.begin_drain();
        self.finish_shutdown();
    }
}

fn status_locked(s: &State, id: u64) -> Option<StatusView> {
    let job = s.jobs.get(&id)?;
    let tenant = s.admission.tenant(job.tenant).name.clone();
    let (state, error, degraded) = match &job.state {
        JobState::Queued => (WireState::Queued, None, None),
        JobState::Cancelled => (WireState::Cancelled, None, None),
        JobState::FailedLocal(e) => (WireState::Failed, Some(e.clone()), None),
        JobState::Finished(status) => wire_of_pool_status(Some(status.clone())),
        JobState::RecoveredDone { degraded, .. } => (WireState::Done, None, degraded.clone()),
        JobState::Dispatched { pool, pool_id } => wire_of_pool_status(pool.status(*pool_id)),
    };
    Some(StatusView { id, tenant, state, error, degraded, recovered: job.recovered })
}

fn wire_of_pool_status(status: Option<JobStatus>) -> (WireState, Option<String>, Option<String>) {
    match status {
        Some(JobStatus::Queued | JobStatus::Running) => (WireState::Running, None, None),
        Some(JobStatus::Retrying { attempt }) => (WireState::Retrying(attempt), None, None),
        Some(JobStatus::Done(report)) => (WireState::Done, None, report.degraded.clone()),
        Some(JobStatus::Failed(e)) => (WireState::Failed, Some(e), None),
        None => (WireState::Failed, Some("job unknown to the pool".to_string()), None),
    }
}

fn dispatch_loop(inner: &Arc<Inner>) {
    loop {
        let mut s = inner.state.lock();
        loop {
            if s.phase == Phase::Stopped {
                return;
            }
            if s.free_slots > 0 && s.admission.total_queued() > 0 {
                break;
            }
            inner.work.wait(&mut s);
        }
        let Some((tenant, pending)) = s.admission.dequeue() else { continue };
        s.free_slots -= 1;
        if let Some(journal) = s.journal.as_mut() {
            if journal.record_dispatch(pending.job_id).is_err() {
                inner.serve.inc("journal_errors");
            }
        }
        inner.tenant_scopes[tenant].record("queue_wait_ns", nanos(pending.enqueued.elapsed()));
        inner.telemetry.event(
            "serve",
            "dispatch",
            &[("tenant", s.admission.tenant(tenant).name.clone()), ("job", pending.job_id.to_string())],
        );
        // Retain the layout as live-traffic canary material.
        s.samples.push_back((pending.name.clone(), pending.layout.clone()));
        while s.samples.len() > inner.sample_ring {
            s.samples.pop_front();
        }
        let pool = Arc::clone(&s.pool);
        let mut spec = JobSpec::new(pending.name, pending.layout);
        spec.timeout = pending.timeout;
        let submitted_at = s.jobs.get(&pending.job_id).map_or_else(Instant::now, |j| j.submitted);
        match pool.submit(spec) {
            Ok(pool_id) => {
                // A cancel that landed between dequeue and here already
                // marked the job Cancelled; honor it by cancelling the
                // pool job it just became.
                let was_cancelled =
                    matches!(s.jobs.get(&pending.job_id).map(|j| &j.state), Some(JobState::Cancelled));
                if let Some(job) = s.jobs.get_mut(&pending.job_id) {
                    job.state = JobState::Dispatched { pool: Arc::clone(&pool), pool_id };
                }
                if was_cancelled {
                    let _ = pool.cancel(pool_id);
                }
                let watcher_inner = Arc::clone(inner);
                let watcher_pool = Arc::clone(&pool);
                let job_id = pending.job_id;
                std::thread::spawn(move || {
                    watch_job(&watcher_inner, &watcher_pool, job_id, pool_id, tenant, submitted_at);
                });
            }
            Err(e) => {
                if let Some(job) = s.jobs.get_mut(&pending.job_id) {
                    job.state = JobState::FailedLocal(e);
                }
                s.free_slots += 1;
                inner.tenant_scopes[tenant].inc("failed");
            }
        }
        inner.jobs_changed.notify_all();
    }
}

fn watch_job(
    inner: &Arc<Inner>,
    pool: &Arc<RuntimePool>,
    job_id: u64,
    pool_id: JobId,
    tenant: usize,
    submitted_at: Instant,
) {
    let status = pool.wait(pool_id);
    let mut s = inner.state.lock();
    match &status {
        Some(JobStatus::Done(report)) => {
            inner.tenant_scopes[tenant].inc("completed");
            inner.tenant_scopes[tenant].record("synthesis_ns", nanos(report.synthesis_runtime));
            if report.degraded.is_some() {
                inner.tenant_scopes[tenant].inc("degraded");
            }
        }
        _ => inner.tenant_scopes[tenant].inc("failed"),
    }
    // Journal the terminal transition (best-effort: a journal failure
    // here only costs re-running the job after a restart).
    if let Some(journal) = s.journal.as_mut() {
        let appended = match &status {
            Some(JobStatus::Done(report)) => journal.record_done(
                job_id,
                report.degraded.as_deref(),
                &report.to_text(),
                report.plan.as_slice(),
            ),
            Some(JobStatus::Failed(e)) => journal.record_failed(job_id, e),
            Some(JobStatus::Queued | JobStatus::Running | JobStatus::Retrying { .. }) | None => {
                journal.record_failed(job_id, "job lost by the pool")
            }
        };
        if appended.is_err() {
            inner.serve.inc("journal_errors");
        }
    }
    inner.tenant_scopes[tenant].record("e2e_ns", nanos(submitted_at.elapsed()));
    if let Some(job) = s.jobs.get_mut(&job_id) {
        job.state = match status {
            Some(status) => JobState::Finished(status),
            None => JobState::FailedLocal("job unknown to the pool".to_string()),
        };
    }
    s.free_slots += 1;
    inner.work.notify_all();
    inner.jobs_changed.notify_all();
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
