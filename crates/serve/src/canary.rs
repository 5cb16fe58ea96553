//! Canary verification of staged model bundles.
//!
//! Promoting a surrogate the live pool has never run is exactly the
//! failure mode the paper's simulator-vs-network agreement discipline
//! exists to prevent — so before a staged bundle goes live, a sample of
//! *recent live traffic* (layouts the service actually synthesized) is
//! re-run through a single-worker canary pool built on the staged
//! weights. A canary job passes when it completes, clears the numeric
//! health guard (no golden-simulator degradation — NaN or out-of-band
//! surrogate heights fail here), and, when a tolerance is configured,
//! when the surrogate-predicted planarity agrees with the golden
//! simulator on the same filled layout. Any failure rejects the bundle
//! with a per-sample report; the live pool keeps serving throughout.

use neurfill::pipeline::FlowConfig;
use neurfill::PlanarityMetrics;
use neurfill_cmpsim::CmpSimulator;
use neurfill_layout::{apply_fill, Layout};
use neurfill_runtime::{FaultPlan, JobSpec, JobStatus, ModelBundle, PoolOptions, RuntimePool};
use std::sync::Arc;
use std::time::Duration;

/// Canary policy.
#[derive(Debug, Clone)]
pub struct CanaryConfig {
    /// How many recent live layouts to double-run. `0` promotes without
    /// verification (documented escape hatch for bootstrap).
    pub samples: usize,
    /// Per-canary-job deadline.
    pub timeout: Duration,
    /// When set, the relative disagreement between surrogate-predicted
    /// and golden-simulated `σ` on each canary sample must stay at or
    /// under this bound. Meaningful for trained bundles; leave `None`
    /// for health-guard-only verification.
    pub max_rel_sigma_disagreement: Option<f64>,
    /// Fault plan for the canary pool (tests inject NaN-poisoned
    /// forwards here; production leaves it disabled).
    pub fault: Arc<FaultPlan>,
}

impl Default for CanaryConfig {
    fn default() -> Self {
        Self {
            samples: 4,
            timeout: Duration::from_secs(120),
            max_rel_sigma_disagreement: None,
            fault: Arc::new(FaultPlan::disabled()),
        }
    }
}

/// Outcome of one canary sample.
#[derive(Debug, Clone)]
pub struct SampleOutcome {
    /// The sampled job's display name.
    pub name: String,
    /// `None` when the sample passed; the rejection reason otherwise.
    pub rejection: Option<String>,
    /// Relative σ disagreement vs. the golden simulator, when computed.
    pub rel_sigma_disagreement: Option<f64>,
}

/// The verification verdict for a staged bundle.
#[derive(Debug, Clone)]
pub struct CanaryReport {
    /// Digest of the staged bundle.
    pub digest: u64,
    /// Per-sample outcomes.
    pub samples: Vec<SampleOutcome>,
    /// Whether the bundle may be promoted.
    pub promoted: bool,
    /// Summary reason when rejected.
    pub reason: Option<String>,
}

impl CanaryReport {
    /// Renders the report as the `POST /v1/models` response body.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut text = format!(
            "digest {:016x}\nsamples {}\npromoted {}\n",
            self.digest,
            self.samples.len(),
            self.promoted
        );
        if let Some(reason) = &self.reason {
            text.push_str(&format!("reason {}\n", reason.replace('\n', " ")));
        }
        for s in &self.samples {
            let verdict = match &s.rejection {
                None => "ok".to_string(),
                Some(r) => format!("rejected: {}", r.replace('\n', " ")),
            };
            match s.rel_sigma_disagreement {
                Some(d) => text.push_str(&format!("sample {} {verdict} rel_sigma {d:.6}\n", s.name)),
                None => text.push_str(&format!("sample {} {verdict}\n", s.name)),
            }
        }
        text
    }
}

/// Double-runs `samples` through a one-worker pool on the staged bundle
/// and judges the outcomes (see module docs). The caller keeps serving
/// live traffic on its own pool while this runs.
///
/// # Errors
///
/// Returns an error only when the canary pool itself cannot be built
/// (the staged bundle was already validated byte-wise); sample failures
/// are verdicts, not errors.
pub fn verify_bundle(
    staged: &Arc<ModelBundle>,
    flow: &FlowConfig,
    config: &CanaryConfig,
    samples: &[(String, Layout)],
) -> Result<CanaryReport, String> {
    let digest = staged.digest();
    if config.samples == 0 {
        return Ok(CanaryReport { digest, samples: Vec::new(), promoted: true, reason: None });
    }
    let taken: Vec<_> = samples.iter().rev().take(config.samples).cloned().collect();
    if taken.is_empty() {
        return Ok(CanaryReport {
            digest,
            samples: Vec::new(),
            promoted: false,
            reason: Some("no live traffic to canary against".to_string()),
        });
    }

    let options = PoolOptions {
        workers: 1,
        default_timeout: Some(config.timeout),
        fault: Arc::clone(&config.fault),
        ..PoolOptions::default()
    };
    let pool = RuntimePool::new(Arc::clone(staged), flow.clone(), options)
        .map_err(|e| format!("canary pool failed to start: {e}"))?;

    // The golden simulator re-judges each canary fill when a disagreement
    // tolerance is configured.
    let sim = match config.max_rel_sigma_disagreement {
        Some(_) => Some(
            CmpSimulator::new(flow.process.clone())
                .map_err(|e| format!("canary simulator failed to start: {e}"))?,
        ),
        None => None,
    };
    let dummy = flow.insertion_dummy_spec();

    let mut outcomes = Vec::with_capacity(taken.len());
    let ids: Vec<_> = taken
        .iter()
        .map(|(name, layout)| pool.submit(JobSpec::new(name.clone(), layout.clone())))
        .collect();
    for ((name, layout), submitted) in taken.iter().zip(ids) {
        let outcome = match submitted {
            Err(e) => SampleOutcome {
                name: name.clone(),
                rejection: Some(format!("submit failed: {e}")),
                rel_sigma_disagreement: None,
            },
            Ok(id) => match pool.wait_timeout(id, config.timeout + Duration::from_secs(30)) {
                Some(JobStatus::Done(report)) => {
                    let mut rejection = report
                        .degraded
                        .as_ref()
                        .map(|r| format!("health guard degraded to golden sim: {r}"));
                    let mut rel = None;
                    if let (Some(sim), None) = (&sim, &rejection) {
                        let filled = apply_fill(layout, &report.plan, &dummy);
                        let golden = PlanarityMetrics::from_profile(&sim.simulate(&filled));
                        let denom = golden.sigma.abs().max(1e-12);
                        let d = (report.predicted.sigma - golden.sigma).abs() / denom;
                        rel = Some(d);
                        if let Some(tol) = config.max_rel_sigma_disagreement {
                            if !d.is_finite() || d > tol {
                                rejection = Some(format!(
                                    "surrogate/golden sigma disagreement {d:.4} exceeds {tol:.4}"
                                ));
                            }
                        }
                    }
                    SampleOutcome { name: name.clone(), rejection, rel_sigma_disagreement: rel }
                }
                Some(JobStatus::Failed(e)) => SampleOutcome {
                    name: name.clone(),
                    rejection: Some(format!("canary job failed: {e}")),
                    rel_sigma_disagreement: None,
                },
                Some(_) => SampleOutcome {
                    name: name.clone(),
                    rejection: Some("canary job did not finish in time".to_string()),
                    rel_sigma_disagreement: None,
                },
                None => SampleOutcome {
                    name: name.clone(),
                    rejection: Some("canary job vanished".to_string()),
                    rel_sigma_disagreement: None,
                },
            },
        };
        outcomes.push(outcome);
    }
    let _ = pool.shutdown();

    let rejected = outcomes.iter().filter(|o| o.rejection.is_some()).count();
    let promoted = rejected == 0;
    let reason =
        (!promoted).then(|| format!("{rejected} of {} canary samples rejected", outcomes.len()));
    Ok(CanaryReport { digest, samples: outcomes, promoted, reason })
}
