//! Job descriptions, statuses and per-job reports.

use neurfill::{PlanarityMetrics, ScoreBreakdown};
use neurfill_layout::{FillPlan, Layout};
use std::time::Duration;

/// Identifier of a submitted job, unique within a pool.
pub type JobId = u64;

/// One fill-synthesis job: a layout to fill under the pool's flow
/// configuration.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Display name (used in reports; typically the layout file stem).
    pub name: String,
    /// The layout to synthesize fill for.
    pub layout: Layout,
    /// Per-job deadline measured from submission; `None` falls back to the
    /// pool's default. A job past its deadline is failed — at dequeue
    /// without running, or by discarding its result on completion.
    pub timeout: Option<Duration>,
}

impl JobSpec {
    /// A job with the pool's default timeout.
    #[must_use]
    pub fn new(name: impl Into<String>, layout: Layout) -> Self {
        Self { name: name.into(), layout, timeout: None }
    }
}

/// Lifecycle of a job. Failures carry the error message — a failing job
/// never takes its worker or the pool down.
#[derive(Debug, Clone)]
pub enum JobStatus {
    /// Accepted, not yet picked up by a worker.
    Queued,
    /// A worker is synthesizing.
    Running,
    /// A transient failure occurred; the worker is backing off before
    /// attempt `attempt + 1` (so `attempt: 1` means one retry underway).
    Retrying {
        /// The retry about to run (1-based).
        attempt: u32,
    },
    /// Finished; the report holds the results.
    Done(Box<JobReport>),
    /// Failed with an error (synthesis error, panic, cancellation or
    /// timeout) — see `neurfill_runtime::error::classify` for how the
    /// message maps back to a failure class.
    Failed(String),
}

impl JobStatus {
    /// Whether the job reached a terminal state.
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobStatus::Done(_) | JobStatus::Failed(_))
    }
}

/// Everything a completed job reports.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Job display name.
    pub name: String,
    /// The synthesized (feasible) fill plan.
    pub plan: FillPlan,
    /// Surrogate objective value at the solution.
    pub objective_value: f64,
    /// Golden-simulator "Quality" score of the realized fill.
    pub quality: f64,
    /// Golden-simulator "Overall" score of the realized fill.
    pub overall: f64,
    /// Full per-metric score breakdown.
    pub breakdown: ScoreBreakdown,
    /// Surrogate-predicted planarity metrics of the filled layout (one
    /// multi-layer forward on the worker's own network).
    pub predicted: PlanarityMetrics,
    /// Wall-clock of the synthesis stage for this job.
    pub synthesis_runtime: Duration,
    /// Surrogate forward passes spent in synthesis.
    pub evaluations: usize,
    /// Why the job degraded, when it did: the surrogate's verification
    /// heights failed the numeric health guard and `predicted` was
    /// computed by the golden simulator instead. `None` on the normal
    /// (surrogate-verified) path.
    pub degraded: Option<String>,
}

impl JobReport {
    /// Renders the report as the text block `runfill` writes per job.
    /// A `degraded` line appears only when the job degraded, so reports
    /// from fault-free runs are byte-identical to earlier versions.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut text = format!(
            "job {}\nquality {:.6}\noverall {:.6}\nobjective {:.6}\n\
             fill_total_um2 {:.3}\npredicted_sigma {:.6}\npredicted_sigma_star {:.6}\n\
             synthesis_s {:.3}\nevaluations {}\n",
            self.name,
            self.quality,
            self.overall,
            self.objective_value,
            self.plan.total(),
            self.predicted.sigma,
            self.predicted.sigma_star,
            self.synthesis_runtime.as_secs_f64(),
            self.evaluations,
        );
        if let Some(reason) = &self.degraded {
            text.push_str(&format!("degraded {reason}\n"));
        }
        text
    }
}
