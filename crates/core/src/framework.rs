//! The MSP-SQP NeurFill framework (paper §IV-E, Fig. 7).
//!
//! Starting points come either from the prior-knowledge-based target
//! density search (NeurFill (PKB)) or from the NMMSO multi-modal search
//! (NeurFill (MM)); SQP then maximizes the filling-quality score whose
//! planarity part (score and gradient) is produced by the CMP neural
//! network and whose performance-degradation part is analytic.

use crate::cancel::CancelToken;
use crate::cmp_nn::{CmpNeuralNetwork, PlanarityTape};
use crate::pd::pd_score;
use crate::pkb::{pkb_starting_point, PkbConfig};
use crate::score::Coefficients;
use neurfill_layout::{FillPlan, Layout};
use neurfill_optim::{Bounds, BoxNormalized, Nmmso, NmmsoConfig, Objective, SqpConfig, SqpSolver};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Starting-point strategy.
#[derive(Debug, Clone, PartialEq)]
pub enum StartMode {
    /// NeurFill (PKB): prior-knowledge-based starting point (fast).
    PriorKnowledge(PkbConfig),
    /// NeurFill (MM): multi-modal starting-points search (slow, no prior
    /// knowledge needed).
    ///
    /// The paper runs NMMSO on the full fill space; at this reproduction's
    /// CPU budget the niching search operates on the per-layer
    /// target-density subspace (each point maps through Eq. 18 to a full
    /// plan), and the located modes are then refined by *full-dimensional*
    /// SQP. The multi-modal character of the score (Fig. 6) lives along
    /// exactly this fill-amount axis, so the basins found match.
    MultiModal {
        /// NMMSO settings (budget dominates the runtime).
        nmmso: NmmsoConfig,
        /// How many of the best located modes to refine with SQP.
        top_modes: usize,
    },
}

/// NeurFill configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct NeurFillConfig {
    /// SQP settings.
    pub sqp: SqpConfig,
    /// Starting-point strategy.
    pub mode: StartMode,
    /// Trust-region radius around each starting point, in slack-normalized
    /// units (`0.15` = each window may move by 15 % of its slack range).
    /// A surrogate is only trustworthy near its training distribution;
    /// bounding the SQP excursion prevents the optimizer from climbing
    /// surrogate-error hills far from the (reliable) starting points.
    /// Set to `1.0` to disable.
    pub trust_radius: f64,
    /// RNG seed (used by the multi-modal search).
    pub seed: u64,
}

impl Default for NeurFillConfig {
    fn default() -> Self {
        Self {
            // initial_step is in slack-normalized units: 0.1 of a window's
            // full fill range per trial step keeps SQP inside the region
            // where the surrogate interpolates rather than extrapolates.
            // Nothing converges at this tolerance, so the cap decides the
            // cost: past 40 iterations the surrogate objective still climbs
            // but the golden Quality of the plan stays within 0.25 % of
            // 80 iterations' on A/B/C at 8², 16² and 32² (`ablations`,
            // section 6; DESIGN.md "Iteration cap").
            sqp: SqpConfig {
                max_iterations: 40,
                tolerance: 1e-7,
                initial_step: 0.1,
                ..SqpConfig::default()
            },
            mode: StartMode::PriorKnowledge(PkbConfig::default()),
            trust_radius: 0.15,
            seed: 0,
        }
    }
}

/// Outcome of a NeurFill run.
#[derive(Debug, Clone, PartialEq)]
pub struct FillOutcome {
    /// The synthesized fill plan (feasible).
    pub plan: FillPlan,
    /// The optimizer's objective value `S_plan + S_PD` at the solution
    /// (surrogate-based; report hard scores through `report::evaluate`).
    pub objective_value: f64,
    /// SQP major iterations of the winning run.
    pub sqp_iterations: usize,
    /// Objective value requests, with and without a gradient
    /// ([`FillObjective::forward_count`]).
    pub evaluations: usize,
    /// Objective gradient requests ([`FillObjective::backward_count`]).
    /// Those that reuse the forward of the `value` request before them are
    /// counted by `synth.forwards_reused`.
    pub gradient_evaluations: usize,
    /// Number of SQP starting points used.
    pub starts: usize,
    /// Wall-clock runtime.
    pub runtime: Duration,
}

/// The filling-quality objective `S_qual(x) = S_plan(x) + S_PD(x)` over a
/// fixed layout, implementing [`Objective`] for the solvers.
///
/// `value` keeps the taped surrogate forward of its point until the next
/// request. SQP asks for the gradient at the trial its line search just
/// accepted, so that request runs only the backward; a request at any
/// other point drops the tape and runs a fresh forward. At most one tape
/// is alive at a time.
pub struct FillObjective<'a> {
    network: &'a CmpNeuralNetwork,
    layout: &'a Layout,
    coeffs: &'a Coefficients,
    forward_count: Cell<usize>,
    backward_count: Cell<usize>,
    reused_forwards: Cell<usize>,
    last_forward: RefCell<Option<(Vec<f64>, PlanarityTape)>>,
}

impl std::fmt::Debug for FillObjective<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FillObjective(dim={})", self.layout.num_windows())
    }
}

impl<'a> FillObjective<'a> {
    /// Creates the objective for one layout.
    #[must_use]
    pub fn new(network: &'a CmpNeuralNetwork, layout: &'a Layout, coeffs: &'a Coefficients) -> Self {
        Self {
            network,
            layout,
            coeffs,
            forward_count: Cell::new(0),
            backward_count: Cell::new(0),
            reused_forwards: Cell::new(0),
            last_forward: RefCell::new(None),
        }
    }

    /// Value requests so far, with and without a gradient: `value` and
    /// `value_and_gradient` calls (`gradient` is the latter).
    #[must_use]
    pub fn forward_count(&self) -> usize {
        self.forward_count.get()
    }

    /// Gradient requests so far: `value_and_gradient` calls. Each runs
    /// one surrogate backward; [`FillObjective::reused_forwards`] of them
    /// ran no forward of their own.
    #[must_use]
    pub fn backward_count(&self) -> usize {
        self.backward_count.get()
    }

    /// Gradient requests so far that reused the taped forward of the
    /// `value` call before them, at a bit-equal point.
    #[must_use]
    pub fn reused_forwards(&self) -> usize {
        self.reused_forwards.get()
    }

    /// The taped surrogate forward at `x`.
    // `NeurFill::run*` checks the layout against the network before it
    // constructs the objective.
    #[allow(clippy::expect_used)]
    fn forward(&self, x: &[f64]) -> PlanarityTape {
        self.network
            .planarity_forward(self.layout, x, self.coeffs)
            .expect("layout/network geometry checked at construction")
    }
}

// The `expect` asserts that the backward is seeded from a scalar: each
// layer's loss is one.
#[allow(clippy::expect_used)]
impl Objective for FillObjective<'_> {
    fn dim(&self) -> usize {
        self.layout.num_windows()
    }

    fn value(&self, x: &[f64]) -> f64 {
        self.forward_count.set(self.forward_count.get() + 1);
        // The previous tape goes before the next is built.
        drop(self.last_forward.take());
        let tape = self.forward(x);
        let plan = FillPlan::from_vec(self.layout, x.to_vec());
        let value = tape.score() + pd_score(self.layout, &plan, self.coeffs).score;
        *self.last_forward.borrow_mut() = Some((x.to_vec(), tape));
        value
    }

    fn gradient(&self, x: &[f64]) -> Vec<f64> {
        self.value_and_gradient(x).1
    }

    fn value_and_gradient(&self, x: &[f64]) -> (f64, Vec<f64>) {
        self.forward_count.set(self.forward_count.get() + 1);
        self.backward_count.set(self.backward_count.get() + 1);
        let tape = match self.last_forward.take() {
            Some((at, tape)) if at.iter().map(|v| v.to_bits()).eq(x.iter().map(|v| v.to_bits())) => {
                self.reused_forwards.set(self.reused_forwards.get() + 1);
                tape
            }
            stale => {
                drop(stale);
                self.forward(x)
            }
        };
        let plan = FillPlan::from_vec(self.layout, x.to_vec());
        let pd = pd_score(self.layout, &plan, self.coeffs);
        let score = tape.score();
        let planarity = tape.gradient().expect("the surrogate loss is a scalar");
        let grad = planarity.iter().zip(&pd.gradient).map(|(a, b)| a + b).collect();
        (score + pd.score, grad)
    }
}

/// The NeurFill dummy-filling synthesizer.
///
/// Holds its surrogate behind an [`Rc`] so a trained network can be
/// injected and shared between the synthesizer, the pipeline and
/// evaluation code without serializing a copy; plain
/// [`CmpNeuralNetwork`] values still convert implicitly.
#[derive(Debug)]
pub struct NeurFill {
    network: Rc<CmpNeuralNetwork>,
    config: NeurFillConfig,
    telemetry: neurfill_obs::Telemetry,
}

impl NeurFill {
    /// Creates the framework around a pre-trained CMP neural network.
    #[must_use]
    pub fn new(network: impl Into<Rc<CmpNeuralNetwork>>, config: NeurFillConfig) -> Self {
        Self { network: network.into(), config, telemetry: neurfill_obs::Telemetry::disabled() }
    }

    /// Attaches a telemetry handle; synthesis runs then record
    /// `synth.runs` and `synth.forwards_reused` (gradient requests that
    /// ran only the backward, see [`FillObjective`]) and propagate into the
    /// SQP / NMMSO solvers' `optim.*` metrics.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: neurfill_obs::Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The wrapped CMP neural network.
    #[must_use]
    pub fn network(&self) -> &CmpNeuralNetwork {
        &self.network
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &NeurFillConfig {
        &self.config
    }

    /// Synthesizes a fill plan for `layout` under the given score
    /// coefficients.
    ///
    /// # Errors
    ///
    /// Returns an error when the layout geometry is incompatible with the
    /// surrogate.
    pub fn run(&self, layout: &Layout, coeffs: &Coefficients) -> Result<FillOutcome, String> {
        self.run_cancellable(layout, coeffs, &CancelToken::never())
    }

    /// [`NeurFill::run`] with cooperative cancellation: `cancel` is polled
    /// once per SQP major iteration and per NMMSO main-loop iteration, so
    /// a cancelled (or deadline-expired) synthesis aborts mid-optimization
    /// with a classifiable error instead of running to completion. With a
    /// never-cancelled token the result is bit-identical to
    /// [`NeurFill::run`].
    ///
    /// # Errors
    ///
    /// Returns an error when the layout geometry is incompatible with the
    /// surrogate, or a cancellation/deadline error (see [`crate::cancel`])
    /// when the token fires.
    pub fn run_cancellable(
        &self,
        layout: &Layout,
        coeffs: &Coefficients,
        cancel: &CancelToken,
    ) -> Result<FillOutcome, String> {
        self.network.check_layout(layout).map_err(|e| e.to_string())?;
        cancel.check("synthesis start")?;
        let start = Instant::now();
        let objective = FillObjective::new(&self.network, layout, coeffs);
        let bounds = Bounds::from_slack(layout.slack_vector());

        let starts: Vec<Vec<f64>> = match &self.config.mode {
            StartMode::PriorKnowledge(pkb) => {
                let result = pkb_starting_point(layout, pkb, |plan| objective.value(plan.as_slice()));
                vec![result.plan.as_slice().to_vec()]
            }
            StartMode::MultiModal { nmmso, top_modes } => {
                let mut rng = StdRng::seed_from_u64(self.config.seed);
                // Niching search over per-layer target-density fractions
                // t ∈ [0,1]^L; each point maps through Eq. 18 to a plan.
                let num_layers = layout.num_layers();
                let ranges: Vec<(f64, f64)> =
                    (0..num_layers).map(|l| crate::pkb::target_density_range(layout, l)).collect();
                let to_plan = |t: &[f64]| {
                    let td: Vec<f64> = ranges
                        .iter()
                        .zip(t)
                        .map(|((lo, hi), f)| lo + f.clamp(0.0, 1.0) * (hi - lo))
                        .collect();
                    crate::pkb::plan_for_target_density(layout, &td)
                };
                let reduced = neurfill_optim::FnObjective::new(
                    num_layers,
                    |t: &[f64]| objective.value(to_plan(t).as_slice()),
                    |_| vec![0.0; num_layers],
                );
                let reduced_bounds = Bounds::new(vec![0.0; num_layers], vec![1.0; num_layers]);
                let search = Nmmso::new(nmmso.clone()).with_telemetry(self.telemetry.clone());
                let found = search
                    .maximize_with_stop(&reduced, &reduced_bounds, &mut rng, &|| cancel.is_cancelled());
                let mut starts: Vec<Vec<f64>> = found
                    .modes
                    .into_iter()
                    .take((*top_modes).max(1))
                    .map(|m| to_plan(&m.x).as_slice().to_vec())
                    .collect();
                if starts.is_empty() {
                    starts.push(bounds.random_point(&mut rng));
                }
                starts
            }
        };

        self.optimize_from_starts(layout, &objective, &starts, start, cancel)
    }

    /// Refines a caller-supplied plan (ECO-style incremental filling):
    /// SQP starts from `initial` instead of a PKB/NMMSO search — useful
    /// after a small layout change invalidates part of a previous plan.
    ///
    /// # Errors
    ///
    /// Returns an error when the layout geometry is incompatible with the
    /// surrogate or the plan length disagrees.
    pub fn refine(
        &self,
        layout: &Layout,
        coeffs: &Coefficients,
        initial: &FillPlan,
    ) -> Result<FillOutcome, String> {
        self.network.check_layout(layout).map_err(|e| e.to_string())?;
        if initial.as_slice().len() != layout.num_windows() {
            return Err("initial plan length disagrees with the layout".into());
        }
        let start = Instant::now();
        let objective = FillObjective::new(&self.network, layout, coeffs);
        let starts = vec![initial.as_slice().to_vec()];
        self.optimize_from_starts(layout, &objective, &starts, start, &CancelToken::never())
    }

    /// Shared SQP stage: slack-normalized coordinates, trust region around
    /// each start, best-of-starts selection. `cancel` is polled per SQP
    /// major iteration and between starts.
    fn optimize_from_starts(
        &self,
        layout: &Layout,
        objective: &FillObjective<'_>,
        starts: &[Vec<f64>],
        start_time: Instant,
        cancel: &CancelToken,
    ) -> Result<FillOutcome, String> {
        let bounds = Bounds::from_slack(layout.slack_vector());
        self.telemetry.inc("synth.runs");
        let solver = SqpSolver::new(self.config.sqp.clone()).with_telemetry(self.telemetry.clone());
        // SQP runs in slack-normalized coordinates: fill amounts span four
        // orders of magnitude across windows, which would wreck the
        // quasi-Newton step geometry in raw µm².
        let (normalized, unit_bounds) = BoxNormalized::new(objective, &bounds);
        let radius = self.config.trust_radius.clamp(0.0, 1.0);
        let mut best: Option<neurfill_optim::SqpResult> = None;
        for start in starts {
            let u0 = normalized.to_u(start);
            // Trust region: intersect the unit cube with a box of the
            // configured radius around the start.
            let trust = if radius < 1.0 {
                let lo: Vec<f64> = u0.iter().map(|v| (v - radius).max(0.0)).collect();
                let hi: Vec<f64> = u0.iter().map(|v| (v + radius).min(1.0)).collect();
                Bounds::new(lo, hi)
            } else {
                unit_bounds.clone()
            };
            let run = solver.maximize_with_stop(&normalized, &trust, &u0, &|| cancel.is_cancelled());
            let was_stopped = run.stopped;
            if best.as_ref().is_none_or(|b| run.value > b.value) {
                best = Some(run);
            }
            if was_stopped {
                break;
            }
        }
        self.telemetry.add("synth.forwards_reused", objective.reused_forwards() as u64);
        // A cancelled solve must fail the job rather than hand back the
        // partial iterate as if it were a finished synthesis.
        cancel.check("synthesis")?;
        let best = best.ok_or("no starting points")?;
        let mut plan = FillPlan::from_vec(layout, normalized.to_x(&best.x));
        plan.clamp_to_slack(layout);

        Ok(FillOutcome {
            objective_value: best.value,
            sqp_iterations: best.iterations,
            evaluations: objective.forward_count(),
            gradient_evaluations: objective.backward_count(),
            starts: starts.len(),
            runtime: start_time.elapsed(),
            plan,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cmp_nn::{CmpNnConfig, HeightNorm};
    use crate::extraction::{ExtractionConfig, NUM_CHANNELS};
    use crate::score::Alphas;
    use neurfill_layout::{DesignKind, DesignSpec};
    use neurfill_nn::{UNet, UNetConfig};

    fn network() -> CmpNeuralNetwork {
        let mut rng = StdRng::seed_from_u64(0);
        let unet = UNet::new(
            UNetConfig { in_channels: NUM_CHANNELS, out_channels: 1, base_channels: 4, depth: 2 },
            &mut rng,
        );
        CmpNeuralNetwork::new(
            unet,
            HeightNorm::default(),
            ExtractionConfig::default(),
            CmpNnConfig::default(),
        )
    }

    fn coeffs(layout: &Layout) -> Coefficients {
        let slack: f64 = layout.slack_vector().iter().sum();
        Coefficients {
            alphas: Alphas::default(),
            beta_sigma: 500.0,
            beta_sigma_star: 5000.0,
            beta_ol: 10.0,
            beta_ov: slack,
            beta_fa: slack,
            beta_fs_mb: 30.0,
            beta_time_s: 60.0,
            beta_mem_gb: 8.0,
        }
    }

    fn layout() -> Layout {
        DesignSpec::new(DesignKind::CmpTest, 8, 8, 5).generate()
    }

    #[test]
    fn objective_counts_evaluations() {
        let net = network();
        let l = layout();
        let c = coeffs(&l);
        let obj = FillObjective::new(&net, &l, &c);
        let x = vec![0.0; l.num_windows()];
        let _ = obj.value(&x);
        let _ = obj.value_and_gradient(&x);
        // Requests are counted whether or not the gradient reused a forward.
        assert_eq!(obj.forward_count(), 2);
        assert_eq!(obj.backward_count(), 1);
        assert_eq!(obj.reused_forwards(), 1);
        assert_eq!(obj.dim(), l.num_windows());
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn tape_reuse_answers_bit_for_bit_and_only_at_the_same_point() {
        let net = network();
        for edge in [8, 32] {
            for l in neurfill_layout::benchmark_designs(edge, edge, 5) {
                let c = coeffs(&l);
                let name = format!("{} {edge}", l.name());
                let x: Vec<f64> = l
                    .slack_vector()
                    .iter()
                    .enumerate()
                    .map(|(i, s)| s * ((i * 37 % 101) as f64 / 100.0))
                    .collect();
                let fresh = |at: &[f64]| FillObjective::new(&net, &l, &c).value_and_gradient(at);
                let (want_v, want_g) = fresh(&x);

                // `value` then `gradient` at the same point: backward only.
                let obj = FillObjective::new(&net, &l, &c);
                let v = obj.value(&x);
                let g = obj.gradient(&x);
                assert_eq!(v.to_bits(), want_v.to_bits(), "{name}");
                assert_eq!(bits(&g), bits(&want_g), "{name}");
                assert_eq!(obj.reused_forwards(), 1, "{name}");
                // The tape was consumed: a second request runs a forward.
                assert_eq!(bits(&obj.gradient(&x)), bits(&want_g), "{name}");
                assert_eq!(obj.reused_forwards(), 1, "{name}");

                // Another `value` in between replaces the tape: a miss.
                let obj = FillObjective::new(&net, &l, &c);
                let y: Vec<f64> = x.iter().map(|v| v * 0.5).collect();
                obj.value(&x);
                obj.value(&y);
                let (v, g) = obj.value_and_gradient(&x);
                assert_eq!((v.to_bits(), bits(&g)), (want_v.to_bits(), bits(&want_g)), "{name}");
                assert_eq!(obj.reused_forwards(), 0, "{name}");

                // One ulp away is another point: a miss, answered for it.
                let k = x.iter().position(|v| *v > 0.0).unwrap();
                let mut near = x.clone();
                near[k] = f64::from_bits(near[k].to_bits() + 1);
                let obj = FillObjective::new(&net, &l, &c);
                obj.value(&x);
                let g = obj.gradient(&near);
                assert_eq!(obj.reused_forwards(), 0, "{name}");
                assert_eq!(bits(&g), bits(&fresh(&near).1), "{name}");
                assert_eq!((obj.forward_count(), obj.backward_count()), (2, 1), "{name}");
            }
        }
    }

    #[test]
    fn tape_reuse_once_per_sqp_iteration() {
        for edge in [8, 32] {
            for l in neurfill_layout::benchmark_designs(edge, edge, 5) {
                let c = coeffs(&l);
                let telemetry = neurfill_obs::Telemetry::new();
                let nf = NeurFill::new(network(), NeurFillConfig::default())
                    .with_telemetry(telemetry.clone());
                let outcome = nf.run(&l, &c).unwrap();
                let reused = telemetry.snapshot().counter("synth.forwards_reused");
                assert_eq!(reused, outcome.sqp_iterations as u64, "{} {edge}", l.name());
                assert!(outcome.sqp_iterations > 0, "{} {edge}", l.name());
            }
        }
    }

    #[test]
    fn objective_gradient_dimensions_match() {
        let net = network();
        let l = layout();
        let c = coeffs(&l);
        let obj = FillObjective::new(&net, &l, &c);
        let x = vec![10.0; l.num_windows()];
        let (v, g) = obj.value_and_gradient(&x);
        assert!(v.is_finite());
        assert_eq!(g.len(), l.num_windows());
    }

    #[test]
    fn pkb_mode_improves_on_its_starting_point_and_stays_feasible() {
        let net = network();
        let l = layout();
        let c = coeffs(&l);
        // Reproduce the PKB search's best candidate quality: SQP must not
        // end below its own starting point.
        let pkb_quality = {
            let obj = FillObjective::new(&net, &l, &c);
            crate::pkb::pkb_starting_point(&l, &crate::pkb::PkbConfig::default(), |p| {
                obj.value(p.as_slice())
            })
            .quality
        };
        let nf = NeurFill::new(net, NeurFillConfig::default());
        let outcome = nf.run(&l, &c).unwrap();
        assert!(outcome.plan.is_feasible(&l, 1e-9));
        assert!(
            outcome.objective_value >= pkb_quality - 1e-9,
            "optimized {} vs PKB start {pkb_quality}",
            outcome.objective_value
        );
        assert!(outcome.evaluations > 0);
        assert_eq!(outcome.starts, 1);
    }

    #[test]
    fn multimodal_mode_runs_with_small_budget() {
        let net = network();
        let l = layout();
        let c = coeffs(&l);
        let cfg = NeurFillConfig {
            mode: StartMode::MultiModal {
                nmmso: NmmsoConfig { max_evaluations: 30, swarm_size: 3, ..NmmsoConfig::default() },
                top_modes: 2,
            },
            sqp: SqpConfig { max_iterations: 5, ..SqpConfig::default() },
            seed: 1,
            ..NeurFillConfig::default()
        };
        let nf = NeurFill::new(net, cfg);
        let outcome = nf.run(&l, &c).unwrap();
        assert!(outcome.plan.is_feasible(&l, 1e-9));
        assert!(outcome.starts >= 1 && outcome.starts <= 2);
    }

    #[test]
    fn refine_improves_on_the_supplied_plan() {
        let net = network();
        let l = layout();
        let c = coeffs(&l);
        let nf = NeurFill::new(net, NeurFillConfig::default());
        let initial = FillPlan::zeros(&l);
        let value_before = {
            let obj = FillObjective::new(nf.network(), &l, &c);
            obj.value(initial.as_slice())
        };
        let outcome = nf.refine(&l, &c, &initial).unwrap();
        assert!(outcome.plan.is_feasible(&l, 1e-9));
        assert!(
            outcome.objective_value >= value_before - 1e-9,
            "refine must not regress: {} < {value_before}",
            outcome.objective_value
        );
        assert_eq!(outcome.starts, 1);

        // Wrong-length plans are rejected.
        let short = FillPlan::from_vec(&l, vec![0.0; l.num_windows()]);
        let other = DesignSpec::new(DesignKind::CmpTest, 4, 4, 0).generate();
        assert!(nf.refine(&other, &c, &short).is_err());
    }

    #[test]
    fn cancellation_aborts_synthesis_with_classifiable_errors() {
        let net = network();
        let l = layout();
        let c = coeffs(&l);
        let nf = NeurFill::new(net, NeurFillConfig::default());

        // Pre-cancelled token: aborts before any optimization.
        let token = CancelToken::new();
        token.cancel();
        let err = nf.run_cancellable(&l, &c, &token).unwrap_err();
        assert!(err.contains(crate::cancel::CANCELLED_MARKER), "{err}");

        // Expired deadline: same abort path, deadline-flavored message.
        let expired = CancelToken::with_deadline(Instant::now() - std::time::Duration::from_millis(1));
        let err = nf.run_cancellable(&l, &c, &expired).unwrap_err();
        assert!(err.contains(crate::cancel::DEADLINE_MARKER), "{err}");

        // A never-cancelled token is bit-identical to the plain run.
        let plain = nf.run(&l, &c).unwrap();
        let cancellable = nf.run_cancellable(&l, &c, &CancelToken::never()).unwrap();
        assert_eq!(plain.plan.as_slice(), cancellable.plan.as_slice());
        assert_eq!(plain.objective_value, cancellable.objective_value);
        assert_eq!(plain.evaluations, cancellable.evaluations);
    }

    #[test]
    fn incompatible_layout_is_rejected() {
        let net = network();
        let l = DesignSpec::new(DesignKind::CmpTest, 6, 6, 5).generate();
        let c = coeffs(&l);
        let nf = NeurFill::new(net, NeurFillConfig::default());
        assert!(nf.run(&l, &c).is_err());
    }
}
