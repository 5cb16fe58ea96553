//! What every workload shares: its arguments, the result it hands back,
//! the set-up all surrogate workloads perform, and small measuring helpers.

use crate::digest;
use crate::json::Value;
use crate::trace::{Tracer, NO_JOB};
use neurfill::pd::estimate;
use neurfill::pipeline::{FillingFlow, FlowConfig};
use neurfill::surrogate::SurrogateConfig;
use neurfill::{Coefficients, PlanarityMetrics, ScoreBreakdown};
use neurfill_cmpsim::ChipProfile;
use neurfill_layout::datagen::DataGenConfig;
use neurfill_layout::{benchmark_designs, DesignKind, DesignSpec, DummySpec, FillPlan, Layout};
use neurfill_runtime::ModelBundle;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Window-grid edge of the flow jobs and of surrogate training: the scale
/// `artifacts/table*_default.txt` use (dim 3 072).
pub const FLOW_EDGE: usize = 32;
/// Layouts the two-step generator labels for surrogate training, and the
/// epochs trained. Counts, not shapes: sized so set-up stays near 10 s.
pub const TRAIN_LAYOUTS: usize = 40;
const SMOKE_TRAIN_LAYOUTS: usize = 8;
const SMOKE_TRAIN_EPOCHS: usize = 2;
/// The seed the three surrogate workloads generate their inputs from,
/// whatever `--seed` says.
///
/// On the surrogate the work of a job is chaotic in its input bits: the
/// objective is evaluated in f32, SQP's backtracking line search decides
/// on differences at noise level, and a 1e-6 relative change of one
/// layout moved a job from 175 to 730 surrogate evaluations (measured).
/// With jobs and training set drawn from `--seed`, `wall_s` spread by
/// 33-39 % across ten seeds in `flow_abc` and 12 % in `serve_burst` and
/// `chip_nn`: the benchmark measured the draw, not the code. So these
/// inputs are fixed and their digests pinned. The timed chip of
/// `chip_golden` is fixed too: its simulation costs the same whatever the
/// chip holds, but the Quality of its plan, an end-to-end metric, moved by
/// 20 % across ten seeds. `--seed` decides what can change neither the
/// work nor a metric: which jobs are re-run for the bit-equality checks,
/// and the sub-chip on which `chip_golden` proves sharding exact. Even the
/// order of `flow_abc`'s jobs is left alone: it moved `VmHWM` between 111
/// and 131 MiB.
pub const INPUT_SEED: u64 = 7;
/// Digest of the three 32x32 source designs the training set is built from.
const PINNED_SOURCES: &str = "ba801ab3778f1fed";
/// Digest of the bundle trained from them at the parent commit.
const PINNED_SURROGATE: &str = "795cc774bf64a7b8";
/// `--seed` when none is given.
pub const DEFAULT_SEED: u64 = 7;
/// Pool workers and simulator workers of every timed phase and of set-up.
///
/// One, so that a timed phase keeps one core busy. The reference host is
/// two virtual cores of a shared machine, and what it gives a second busy
/// thread is not steady: a fixed CPU loop repeated within 3 % on its own
/// and between 0.19 and 0.29 s (from 0.17 s alone) with a copy of itself
/// beside it; `chip_nn` at two pool workers spread (interquartile distance
/// over median, ten runs of identical work) by 32 % and 23 % in the two
/// sets of the acceptance check, whose limit is 25 %; and between two sets
/// taken minutes apart the two-worker workloads' medians moved by 19-24 %
/// while the one-thread workloads' moved by 3-7 %. `nproc` workers appear
/// in the traced run's scaling probes, which no bound hangs on.
pub const TIMED_WORKERS: usize = 1;

pub const DESIGNS: [DesignKind; 3] = [DesignKind::CmpTest, DesignKind::Fpga, DesignKind::RiscV];

/// Arguments of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// How long the timed phase should last on the reference host. Each
    /// workload turns this into a fixed job count (see [`Args::units`]),
    /// so the work of a run is identical from run to run.
    pub seconds: f64,
    pub trace: bool,
    /// Reduced job counts at the same shapes, for `check.sh`.
    pub smoke: bool,
}

impl Args {
    /// How many units of `unit_s` reference seconds fit `--seconds`
    /// (at least one; exactly one under `--smoke`, where workloads also
    /// shrink the unit itself).
    pub fn units(&self, unit_s: f64) -> usize {
        if self.smoke {
            1
        } else {
            ((self.seconds / unit_s).round() as usize).max(1)
        }
    }
}

/// Everything a workload needs from the harness.
pub struct Ctx<'a> {
    pub args: &'a Args,
    pub tracer: &'a Tracer,
    /// When the process started measuring (top of `main`).
    pub start: Instant,
    /// Cores the host offers: `serve_burst`'s client connections (they
    /// wait, they do not compute) and the wide side of the scaling probes.
    /// Workers are [`TIMED_WORKERS`].
    pub nproc: usize,
    /// A directory of this run's own inside the checkout, removed at exit.
    pub scratch: PathBuf,
}

/// One correctness check that gates the exit code.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// What a workload hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub checks: Vec<Check>,
    pub setup_s: f64,
    pub wall_s: f64,
    /// Core windows taken from input to verified plan in the timed phase.
    pub windows: usize,
    /// Submit-to-verified-result seconds per job.
    pub job_s: Vec<f64>,
    /// Golden-scored Quality per produced plan.
    pub quality: Vec<f64>,
    pub peak_rss_mib: f64,
    /// Per-layer metrics this workload measured (traced run only).
    pub layer: BTreeMap<&'static str, f64>,
    /// Exact counts and digests for the record.
    pub facts: Vec<(&'static str, Value)>,
}

impl Outcome {
    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check { name, ok, detail: detail.into() });
    }

    pub fn fact(&mut self, name: &'static str, value: impl Into<Value>) {
        self.facts.push((name, value.into()));
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.layer.insert(name, value);
    }
}

/// `VmHWM` in MiB; 0 where `/proc` does not expose it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_ascii_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median seconds of `f` over `reps` calls after one warm-up call.
pub fn time_median<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    std::hint::black_box(f());
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    crate::stats::median(&samples)
}

/// The shipped flow configuration (`NumericsTier::Exact`, `BackendKind::Cpu`,
/// `ProcessParams::default()`, `NeurFillConfig::default()`, UNet base 8 /
/// depth 2) with the benchmark's input seed and training-set size.
///
/// `smoke` shrinks the training set and the epochs — counts, never shapes —
/// so `check.sh` can run every workload in seconds.
pub fn flow_config(smoke: bool) -> FlowConfig {
    let seed = INPUT_SEED;
    let mut surrogate = SurrogateConfig {
        num_layouts: if smoke { SMOKE_TRAIN_LAYOUTS } else { TRAIN_LAYOUTS },
        datagen: DataGenConfig { rows: FLOW_EDGE, cols: FLOW_EDGE, seed, ..DataGenConfig::default() },
        ..SurrogateConfig::default()
    };
    if smoke {
        surrogate.train.epochs = SMOKE_TRAIN_EPOCHS;
    }
    FlowConfig { surrogate, seed, ..FlowConfig::default() }
}

/// The layout of job `index` of a mixed A/B/C list at `edge` x `edge` x 3.
pub fn job_layout(index: usize, edge: usize) -> Layout {
    let kind = DESIGNS[index % DESIGNS.len()];
    let layout_seed = INPUT_SEED.wrapping_mul(1_000_003).wrapping_add((index / DESIGNS.len()) as u64);
    DesignSpec::new(kind, edge, edge, layout_seed).generate()
}

/// `0..n` in an order drawn from `seed`.
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    order
}

/// The trained surrogate every NN workload sets up, as a flow and as the
/// bundle the pool and the service hydrate from.
pub struct Surrogate {
    pub flow: FillingFlow,
    pub bundle: Arc<ModelBundle>,
}

/// `FillingFlow::prepare` on designs A/B/C at 32x32: labels
/// [`TRAIN_LAYOUTS`] generated layouts on the golden simulator and trains
/// the UNet for the default 8 epochs.
pub fn prepare_surrogate(ctx: &Ctx<'_>, out: &mut Outcome) -> Result<Surrogate, String> {
    let seed = INPUT_SEED;
    let sources = benchmark_designs(FLOW_EDGE, FLOW_EDGE, seed);
    let t = Instant::now();
    let flow = ctx.tracer.time("core", "flow.prepare_ns", NO_JOB, || {
        FillingFlow::prepare(&sources, flow_config(ctx.args.smoke))
    })?;
    let prepare_s = t.elapsed().as_secs_f64();
    let bundle = Arc::new(ModelBundle::from_network(flow.network()).map_err(|e| e.to_string())?);

    let sources_digest = digest::layouts(&sources);
    out.check(
        "training sources match their pinned digest",
        sources_digest == PINNED_SOURCES,
        sources_digest.clone(),
    );
    out.fact("sources_digest", sources_digest);
    // The trained weights are the program's output, not an input: a change
    // to training numerics moves this digest legitimately, so the pin is
    // recorded, not enforced.
    let surrogate_digest = format!("{:016x}", bundle.digest());
    if !ctx.args.smoke {
        out.fact("surrogate_matches_pin", surrogate_digest == PINNED_SURROGATE);
    }
    out.fact("surrogate_digest", surrogate_digest);
    let report = flow.train_report();
    out.fact("train_samples", report.train_samples);
    if ctx.tracer.enabled() {
        let epochs = report.epochs.len();
        out.set("nn.train_samples_per_s", (report.train_samples * epochs) as f64 / prepare_s);
    }
    Ok(Surrogate { flow, bundle })
}

/// The Table III Quality of `plan` given the golden profile of the layout
/// filled with it: what `evaluate_plan` computes, from the same public
/// scoring functions, for callers that ran the simulation themselves.
/// Quality has no runtime or memory term, so those two are left 0.
pub fn golden_quality(
    layout: &Layout,
    plan: &FillPlan,
    coeffs: &Coefficients,
    filled: &ChipProfile,
    dummy: &DummySpec,
) -> f64 {
    let pd = estimate(layout, plan);
    let added_mb = plan.output_file_size_mb(layout, dummy) - layout.file_size_mb();
    let metrics = PlanarityMetrics::from_profile(filled);
    ScoreBreakdown::from_metrics(coeffs, &metrics, pd.overlay, pd.fill_amount, added_mb, 0.0, 0.0)
        .quality(&coeffs.alphas)
}

/// Checks the digest of a workload's generated inputs against its pin.
pub fn check_pin(out: &mut Outcome, digest: String, pinned: &str) {
    out.check(
        "inputs match their pinned digest",
        digest == pinned,
        format!("{digest} vs pinned {pinned}"),
    );
    out.fact("inputs_digest", digest);
}
