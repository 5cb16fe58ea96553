//! `flow_abc`: the paper's flow, job by job on one thread.
//!
//! Set-up trains the surrogate; the timed phase runs rounds of designs
//! A/B/C at 32x32x3 through `FillingFlow::run` (calibrate → PKB → MSP-SQP
//! on the surrogate → insertion → golden verify). The traced run replays
//! each job as the same public stage calls `run_with_coefficients` makes,
//! so stages are separable from outside; a repeated job, run through
//! `FillingFlow::run` after the timed phase, must be bit-equal to the
//! first — which also proves the replay computes what the product does.

use crate::bench::{self, Ctx, Outcome, Surrogate, FLOW_EDGE};
use crate::digest;
use crate::probes;
use crate::stats::{mean, median};
use crate::trace::{Span, Tracer, NO_JOB};
use neurfill::pd::pd_score;
use neurfill::pipeline::FillingFlow;
use neurfill::pkb::pkb_starting_point;
use neurfill::{CmpNeuralNetwork, Coefficients, StartMode};
use neurfill_layout::{apply_fill, realize_fill, FillPlan, Layout};
use neurfill_optim::{Bounds, BoxNormalized, Objective, SqpSolver};
use std::cell::Cell;
use std::time::Instant;

/// Reference seconds of one round (one job each of A, B and C) on the
/// 2-core reference host.
const ROUND_S: f64 = 12.0;
/// Digest of the first round's layouts.
const PINNED_INPUTS: &str = "7d9d020ac70f0ea7";

/// What one job produced, whichever way it ran.
struct JobResult {
    plan: FillPlan,
    quality: f64,
    sqp_iterations: usize,
    forward_evals: usize,
    backward_evals: usize,
}

fn run_product(flow: &FillingFlow, layout: &Layout) -> Result<JobResult, String> {
    let r = flow.run(layout)?;
    Ok(JobResult {
        quality: r.scored.quality,
        sqp_iterations: r.synthesis.sqp_iterations,
        forward_evals: r.synthesis.evaluations,
        backward_evals: r.synthesis.gradient_evaluations,
        plan: r.plan,
    })
}

/// `FillObjective` rebuilt from the same public calls, with a span around
/// each call into the surrogate.
struct SpanObjective<'a> {
    network: &'a CmpNeuralNetwork,
    layout: &'a Layout,
    coeffs: &'a Coefficients,
    tracer: &'a Tracer,
    job: i64,
    forward: Cell<usize>,
    backward: Cell<usize>,
}

impl Objective for SpanObjective<'_> {
    fn dim(&self) -> usize {
        self.layout.num_windows()
    }

    fn value(&self, x: &[f64]) -> f64 {
        self.forward.set(self.forward.get() + 1);
        let _span = self.tracer.span("core", "core.objective_value", self.job);
        let plan = FillPlan::from_vec(self.layout, x.to_vec());
        let score = self
            .tracer
            .time("nn", "nn.planarity_score", self.job, || {
                self.network.planarity_score_f32(self.layout, x, self.coeffs)
            })
            .expect("layout checked against the network before synthesis");
        score + pd_score(self.layout, &plan, self.coeffs).score
    }

    fn gradient(&self, x: &[f64]) -> Vec<f64> {
        self.value_and_gradient(x).1
    }

    fn value_and_gradient(&self, x: &[f64]) -> (f64, Vec<f64>) {
        self.forward.set(self.forward.get() + 1);
        self.backward.set(self.backward.get() + 1);
        let _span = self.tracer.span("core", "core.objective_grad", self.job);
        let plan = FillPlan::from_vec(self.layout, x.to_vec());
        let planarity = self
            .tracer
            .time("nn", "nn.planarity", self.job, || self.network.planarity(self.layout, x, self.coeffs))
            .expect("layout checked against the network before synthesis");
        let pd = pd_score(self.layout, &plan, self.coeffs);
        let grad = planarity.gradient.iter().zip(&pd.gradient).map(|(a, b)| a + b).collect();
        (planarity.score + pd.score, grad)
    }
}

/// One job as the stage calls `FillingFlow::run` makes, each in a span.
fn run_replay(
    flow: &FillingFlow,
    layout: &Layout,
    tracer: &Tracer,
    job: i64,
) -> Result<JobResult, String> {
    let cfg = flow.config();
    let sim = flow.simulator();
    let network = flow.network();
    let _job = tracer.span("nfbench", "nfbench.job", job);

    let coeffs = {
        let _span = tracer.span("core", "flow.calibration_ns", job);
        let unfilled = tracer.time("cmpsim", "sim.simulate", job, || sim.simulate(layout));
        Coefficients::calibrate(layout, &unfilled, cfg.beta_time_s)
    };

    let (plan, sqp_iterations, forward_evals, backward_evals) = {
        let _span = tracer.span("core", "flow.synthesis_ns", job);
        network.check_layout(layout).map_err(|e| e.to_string())?;
        let StartMode::PriorKnowledge(pkb) = &cfg.neurfill.mode else {
            return Err("the replay covers the default PKB start mode only".to_string());
        };
        let objective = SpanObjective {
            network,
            layout,
            coeffs: &coeffs,
            tracer,
            job,
            forward: Cell::new(0),
            backward: Cell::new(0),
        };
        let start = tracer.time("core", "core.pkb", job, || {
            pkb_starting_point(layout, pkb, |plan| objective.value(plan.as_slice()))
        });
        let bounds = Bounds::from_slack(layout.slack_vector());
        let (normalized, unit_bounds) = BoxNormalized::new(&objective, &bounds);
        let u0 = normalized.to_u(start.plan.as_slice());
        let radius = cfg.neurfill.trust_radius.clamp(0.0, 1.0);
        let trust = if radius < 1.0 {
            Bounds::new(
                u0.iter().map(|v| (v - radius).max(0.0)).collect(),
                u0.iter().map(|v| (v + radius).min(1.0)).collect(),
            )
        } else {
            unit_bounds
        };
        let solver = SqpSolver::new(cfg.neurfill.sqp.clone());
        let best = tracer.time("optim", "optim.sqp", job, || solver.maximize(&normalized, &trust, &u0));
        let mut plan = FillPlan::from_vec(layout, normalized.to_x(&best.x));
        plan.clamp_to_slack(layout);
        (plan, best.iterations, objective.forward.get(), objective.backward.get())
    };

    let insertion =
        tracer.time("layout", "flow.insertion_ns", job, || realize_fill(layout, &plan, &cfg.insertion));

    let quality = {
        let _span = tracer.span("core", "flow.verification_ns", job);
        let mut realized = FillPlan::zeros(layout);
        for (slot, w) in realized.as_mut_slice().iter_mut().zip(&insertion.windows) {
            *slot = w.placed;
        }
        let dummy = cfg.insertion_dummy_spec();
        let filled =
            tracer.time("layout", "layout.apply_fill", job, || apply_fill(layout, &realized, &dummy));
        let profile = tracer.time("cmpsim", "sim.simulate", job, || sim.simulate(&filled));
        bench::golden_quality(layout, &realized, &coeffs, &profile, &dummy)
    };
    Ok(JobResult { plan, quality, sqp_iterations, forward_evals, backward_evals })
}

fn bits(plan: &FillPlan) -> Vec<u64> {
    plan.as_slice().iter().map(|v| v.to_bits()).collect()
}

pub fn run(ctx: &Ctx<'_>) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let tracer = ctx.tracer;
    let seed = ctx.args.seed;

    let Surrogate { flow, .. } = bench::prepare_surrogate(ctx, &mut out)?;
    let rounds = ctx.args.units(ROUND_S);
    let mut jobs: Vec<Layout> =
        (0..rounds * bench::DESIGNS.len()).map(|i| bench::job_layout(i, FLOW_EDGE)).collect();
    let first_round = jobs.iter().take(bench::DESIGNS.len());
    bench::check_pin(&mut out, digest::layouts(first_round), PINNED_INPUTS);
    if ctx.args.smoke {
        // Design C alone: the quickest of the three.
        jobs.drain(..bench::DESIGNS.len() - 1);
    }
    out.setup_s = ctx.start.elapsed().as_secs_f64();

    let timed = tracer.span("nfbench", crate::trace::TIMED, NO_JOB);
    let t0 = Instant::now();
    let mut results = Vec::with_capacity(jobs.len());
    for (i, layout) in jobs.iter().enumerate() {
        let t = Instant::now();
        let result = if tracer.enabled() {
            run_replay(&flow, layout, tracer, i as i64)
        } else {
            run_product(&flow, layout)
        };
        out.job_s.push(t.elapsed().as_secs_f64());
        results.push(result);
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    drop(timed);
    out.peak_rss_mib = bench::peak_rss_mib();

    out.attempted = jobs.len();
    let mut done = Vec::new();
    for (layout, result) in jobs.iter().zip(results) {
        match result {
            Ok(r) if r.plan.is_feasible(layout, 1e-9) && r.quality.is_finite() => {
                out.windows += layout.num_windows();
                out.quality.push(r.quality);
                done.push(r);
            }
            Ok(_) => out.failed += 1,
            Err(e) => {
                out.failed += 1;
                out.check("every flow job completes", false, e);
            }
        }
    }
    out.check(
        "plans feasible against slack and quality finite",
        done.len() == jobs.len(),
        format!("{} of {}", done.len(), jobs.len()),
    );

    // One job again — which one is all `--seed` decides here, so it cannot
    // change the timed work — through the product path: same plan and
    // score, bit for bit. In the traced run this compares the replay with
    // the product.
    if done.len() == jobs.len() {
        let pick = (seed % jobs.len() as u64) as usize;
        let first = &done[pick];
        let again = run_product(&flow, &jobs[pick])?;
        let same = bits(&again.plan) == bits(&first.plan)
            && again.quality.to_bits() == first.quality.to_bits()
            && again.sqp_iterations == first.sqp_iterations
            && again.forward_evals == first.forward_evals
            && again.backward_evals == first.backward_evals;
        out.check(
            "a repeated job is bit-equal to its first run",
            same,
            format!("quality {} vs {}", again.quality, first.quality),
        );
    }

    out.fact("jobs", jobs.len());
    out.fact("sqp_iterations", done.iter().map(|r| r.sqp_iterations).sum::<usize>());
    out.fact("forward_evals", done.iter().map(|r| r.forward_evals).sum::<usize>());
    out.fact("backward_evals", done.iter().map(|r| r.backward_evals).sum::<usize>());

    if tracer.enabled() {
        stage_metrics(&mut out, &tracer.spans(), &done);
        probes::flow_probes(ctx, &flow, &jobs[0], &mut out)?;
    }
    Ok(out)
}

/// Per-job stage metrics from the replay's spans.
fn stage_metrics(out: &mut Outcome, spans: &[Span], done: &[JobResult]) {
    let (from, to) = crate::trace::timed_window(spans);
    let timed: Vec<&Span> = spans.iter().filter(|s| s.start_ns >= from && s.end_ns <= to).collect();
    let per = |name: &str, f: fn(&Span) -> f64| -> Vec<f64> {
        timed.iter().filter(|s| s.name == name).map(|s| f(s)).collect()
    };
    let own = crate::trace::self_nanos(spans);

    let calibrate = per("flow.calibration_ns", Span::millis);
    let synthesis = per("flow.synthesis_ns", Span::seconds);
    let insertion = per("flow.insertion_ns", Span::millis);
    let verify = per("flow.verification_ns", Span::millis);
    out.set("core.calibrate_ms", median(&calibrate));
    out.set("core.pkb_ms", median(&per("core.pkb", Span::millis)));
    out.set("core.synthesis_s", median(&synthesis));
    out.set("core.verify_ms", median(&verify));
    out.set("layout.insertion_ms", median(&insertion));
    out.set("cmpsim.simulate_ms", median(&per("sim.simulate", Span::millis)));
    let sqp_self: Vec<f64> =
        timed.iter().filter(|s| s.name == "optim.sqp").map(|s| own[&s.id] as f64 / 1e6).collect();
    out.set("optim.self_ms", median(&sqp_self));

    // The four stages as a share of the median job: what the replay's
    // spans leave unexplained is harness time.
    let stages =
        median(&calibrate) / 1e3 + median(&synthesis) + median(&insertion) / 1e3 + median(&verify) / 1e3;
    out.set("core.stage_share", stages / median(&out.job_s));

    // The surrogate's share of synthesis, measured: every call into the
    // network has its own span.
    let nn_s: f64 = timed.iter().filter(|s| s.layer == "nn").map(|s| s.seconds()).sum();
    out.set("core.nn_share", nn_s / synthesis.iter().sum::<f64>());

    let n = done.len().max(1) as f64;
    out.set("core.forward_evals", done.iter().map(|r| r.forward_evals).sum::<usize>() as f64 / n);
    out.set("core.backward_evals", done.iter().map(|r| r.backward_evals).sum::<usize>() as f64 / n);
    out.set("optim.sqp_iterations", done.iter().map(|r| r.sqp_iterations).sum::<usize>() as f64 / n);

    let sim_s: Vec<f64> = per("sim.simulate", Span::seconds);
    let steps = neurfill_cmpsim::ProcessParams::default().steps as f64;
    out.set(
        "cmpsim.window_steps_per_s",
        (FLOW_EDGE * FLOW_EDGE * 3) as f64 * steps / mean(&sim_s).max(1e-12),
    );
}
