//! Layer probes of the traced run: one public function of a layer, called
//! at the shape the workload uses, timed after the timed phase. Each probe
//! belongs to the workload that exercises its layer (README.md has the
//! table); a kernel number only counts at the radius and size the default
//! flow really runs.

use crate::bench::{time_median, Ctx, Outcome, FLOW_EDGE, TIMED_WORKERS};
use crate::stats::median;
use neurfill::extraction::{extract_layer_arrays, NUM_CHANNELS};
use neurfill::pipeline::FillingFlow;
use neurfill::pkb::pkb_starting_point;
use neurfill::{Coefficients, FillObjective, StartMode};
use neurfill_chip::{merge_tile_plan, ChipFillPlan};
use neurfill_cmpsim::contact::solve_reference_plane;
use neurfill_cmpsim::shard::polish_pointwise;
use neurfill_cmpsim::{CmpSimulator, FiniteDifference, NumericsTier, PadKernel, ProcessParams};
use neurfill_data::{generate_labeled_shards, LabelConfig, ShardSet};
use neurfill_layout::datagen::DataGenConfig;
use neurfill_layout::{apply_fill, benchmark_designs, FillPlan, Layout, Tiling};
use neurfill_nn::Module;
use neurfill_optim::{testfns, Bounds, Objective, SqpSolver};
use neurfill_runtime::{BatchConfig, BatchServer, FaultPlan, ModelBundle};
use neurfill_serve::admission::{Admission, Pending};
use neurfill_serve::http::Request;
use neurfill_serve::{JobJournal, JobRequest, Priority, TenantConfig};
use neurfill_tensor::kernels::gemm;
use neurfill_tensor::{NdArray, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;

/// Coordinates the numerical-gradient probe perturbs (Table I's cost per
/// evaluation does not depend on how many there are).
const NUMGRAD_PROBES: usize = 24;
/// Layouts the labeling probe generates.
const LABEL_LAYOUTS: usize = 24;
const JOURNAL_APPENDS: usize = 200;

fn ms(seconds: f64) -> f64 {
    seconds * 1e3
}

fn us(seconds: f64) -> f64 {
    seconds * 1e6
}

fn random_field(n: usize, lo: f64, hi: f64, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(lo..hi)).collect()
}

/// Pad convolution at the default radius on a `rows x cols` board.
pub fn padconv_us(params: &ProcessParams, rows: usize, cols: usize, seed: u64) -> f64 {
    let kernel = PadKernel::exponential(params.character_length, params.kernel_radius);
    let field = random_field(rows * cols, 0.0, 1.0, seed);
    us(time_median(30, || kernel.apply(&field, rows, cols)))
}

/// The reference-plane solve over `n` window heights spread the way a
/// mid-polish board is (a few tens of nm around the initial height).
pub fn contact_solve_us(params: &ProcessParams, n: usize, seed: u64) -> f64 {
    let heights = random_field(n, params.initial_height - 40.0, params.initial_height, seed);
    us(time_median(if n > 10_000 { 9 } else { 30 }, || solve_reference_plane(&heights, params)))
}

fn polish_us(params: &ProcessParams, n: usize, seed: u64) -> f64 {
    let z_up = random_field(n, params.initial_height - 40.0, params.initial_height, seed);
    let z_down: Vec<f64> = z_up.iter().map(|z| z - params.initial_step * 0.5).collect();
    let pressures = random_field(n, 0.5, 1.5, seed + 1);
    let rho = random_field(n, 0.2, 0.9, seed + 2);
    let ones = vec![1.0; n];
    us(time_median(30, || {
        let (mut up, mut down) = (z_up.clone(), z_down.clone());
        polish_pointwise(&mut up, &mut down, &pressures, &rho, &ones, &ones, params);
        up
    }))
}

/// An im2col convolution GEMM: 8 output channels, `k` input taps, one
/// column per output pixel.
fn gemm_us(k: usize, n: usize) -> f64 {
    let m = 8;
    let a: Vec<f32> = random_field(m * k, -1.0, 1.0, 1).into_iter().map(|v| v as f32).collect();
    let b: Vec<f32> = random_field(k * n, -1.0, 1.0, 2).into_iter().map(|v| v as f32).collect();
    let mut out = vec![0.0f32; m * n];
    us(time_median(30, || {
        gemm(&a, &b, &mut out, m, k, n);
        out[0]
    }))
}

fn input_array(batch: usize, edge: usize) -> Result<NdArray, String> {
    let n = batch * NUM_CHANNELS * edge * edge;
    let data: Vec<f32> = random_field(n, 0.0, 1.0, 3).into_iter().map(|v| v as f32).collect();
    NdArray::from_vec(data, &[batch, NUM_CHANNELS, edge, edge]).map_err(|e| e.to_string())
}

/// UNet inference (the graph-free path) on `[batch, C, edge, edge]`.
pub fn unet_infer_ms(flow: &FillingFlow, batch: usize, edge: usize) -> Result<f64, String> {
    let x = input_array(batch, edge)?;
    let unet = flow.network().unet();
    unet.infer(&x).map_err(|e| e.to_string())?;
    Ok(ms(time_median(15, || unet.infer(&x).map(|y| y.shape().to_vec()))))
}

/// Probes of the layers `flow_abc` exercises, at its shapes.
pub fn flow_probes(
    ctx: &Ctx<'_>,
    flow: &FillingFlow,
    layout: &Layout,
    out: &mut Outcome,
) -> Result<(), String> {
    let _span = ctx.tracer.span("nfbench", "nfbench.probes", crate::trace::NO_JOB);
    let seed = ctx.args.seed;
    let params = ProcessParams::default();
    let n = FLOW_EDGE * FLOW_EDGE;
    let sim = flow.simulator();
    let network = flow.network();

    // cmpsim
    let fast = CmpSimulator::new(params.clone())?.with_numerics(NumericsTier::Fast);
    out.set("cmpsim.simulate_fast_ms", ms(time_median(5, || fast.simulate(layout))));
    out.set("cmpsim.padconv_us", padconv_us(&params, FLOW_EDGE, FLOW_EDGE, seed));
    out.set("cmpsim.contact_solve_us", contact_solve_us(&params, n, seed));
    out.set("cmpsim.polish_us", polish_us(&params, n, seed));

    let unfilled = sim.simulate(layout);
    let coeffs = Coefficients::calibrate(layout, &unfilled, flow.config().beta_time_s);
    let StartMode::PriorKnowledge(pkb) = &flow.config().neurfill.mode else {
        return Err("probes cover the default PKB start mode only".to_string());
    };
    let objective = FillObjective::new(network, layout, &coeffs);
    let start = pkb_starting_point(layout, pkb, |plan| objective.value(plan.as_slice()));
    let x = start.plan.as_slice().to_vec();

    // Table I's other column: the golden simulator as the gradient source.
    let dummy = flow.config().insertion_dummy_spec();
    let golden_score = |probe: &[f64]| {
        let mut amounts = x.clone();
        amounts[..probe.len()].copy_from_slice(probe);
        let filled = apply_fill(layout, &FillPlan::from_vec(layout, amounts), &dummy);
        neurfill::PlanarityMetrics::from_profile(&sim.simulate(&filled)).sigma
    };
    let t = Instant::now();
    std::hint::black_box(FiniteDifference::new(1e-3, 1).gradient(&x[..NUMGRAD_PROBES], &golden_score));
    let numgrad_eval_ms =
        ms(t.elapsed().as_secs_f64()) / FiniteDifference::forward_evaluations(NUMGRAD_PROBES) as f64;
    out.set("cmpsim.numgrad_eval_ms", numgrad_eval_ms);

    // tensor: the first convolution at batch 1 (4 extraction channels x
    // 3 x 3 taps, 32 x 32 pixels) — the shape the flow runs — and the
    // 8x54x8192 shape `BENCH_kernels.json` recorded, for continuity.
    let k = NUM_CHANNELS * 9;
    let b1 = gemm_us(k, n);
    out.set("tensor.gemm_b1_us", b1);
    out.set("tensor.gemm_b1_gflops", 2.0 * 8.0 * (k * n) as f64 / (b1 * 1e-6) / 1e9);
    // Computed from the operand sizes (a + b read, out written), not measured.
    out.set("tensor.gemm_b1_computed_bytes", 4.0 * (8 * k + k * n + 8 * n) as f64);
    out.set("tensor.gemm_b8_us", gemm_us(54, 8 * n));

    // nn: autograd forward and backward at batch 1, and the graph-free path.
    let input = input_array(1, FLOW_EDGE)?;
    let unet = network.unet();
    let forward = || unet.forward(&Tensor::parameter(input.clone())).map(|y| y.sum());
    let forward_s = time_median(15, || forward().map(|y| y.item()));
    let both_s = time_median(15, || forward().and_then(|y| y.backward()));
    out.set("nn.unet_forward_ms", ms(forward_s));
    out.set("nn.unet_backward_ms", ms((both_s - forward_s).max(0.0)));
    out.set("nn.unet_infer_b1_ms", unet_infer_ms(flow, 1, FLOW_EDGE)?);

    // core
    out.set(
        "core.extract_ms",
        ms(time_median(15, || extract_layer_arrays(layout, 0, network.extraction()))),
    );
    out.set("core.objective_value_ms", ms(time_median(9, || objective.value(&x))));
    let grad_ms = ms(time_median(9, || objective.value_and_gradient(&x)));
    out.set("core.objective_grad_ms", grad_ms);
    out.set(
        "core.bundle_roundtrip_ms",
        ms(time_median(9, || {
            let mut buf = Vec::new();
            neurfill::persist::save_network(network, &mut buf)
                .and_then(|()| neurfill::persist::load_network(buf.as_slice()))
                .map(|n| n.height_norm())
        })),
    );
    // Table I as a record: what one gradient costs through the simulator
    // (dim + 1 evaluations) over what it costs through the network.
    out.set(
        "core.grad_speedup_vs_numgrad",
        FiniteDifference::forward_evaluations(layout.num_windows()) as f64 * numgrad_eval_ms / grad_ms,
    );

    // optim: the solver alone, on an objective that costs nothing.
    let dim = layout.num_windows();
    let rastrigin = testfns::neg_rastrigin(dim);
    let bounds = Bounds::new(vec![-5.12; dim], vec![5.12; dim]);
    let x0 = random_field(dim, -4.0, 4.0, seed);
    let solver = SqpSolver::new(flow.config().neurfill.sqp.clone());
    out.set(
        "optim.sqp_dim3072_ms",
        ms(time_median(3, || solver.maximize(&rastrigin, &bounds, &x0).value)),
    );

    data_probes(ctx, out)
}

/// Labeling throughput through `neurfill-data` and the read rate of the
/// shards it wrote.
fn data_probes(ctx: &Ctx<'_>, out: &mut Outcome) -> Result<(), String> {
    let seed = ctx.args.seed;
    let dir = ctx.scratch.join("shards");
    let cfg = LabelConfig {
        num_layouts: LABEL_LAYOUTS,
        workers: ctx.nproc,
        datagen: DataGenConfig { rows: FLOW_EDGE, cols: FLOW_EDGE, seed, ..DataGenConfig::default() },
        ..LabelConfig::default()
    };
    let t = Instant::now();
    let report = ctx
        .tracer
        .time("data", "data.label_ns", crate::trace::NO_JOB, || {
            generate_labeled_shards(benchmark_designs(FLOW_EDGE, FLOW_EDGE, seed), &cfg, &dir)
        })
        .map_err(|e| e.to_string())?;
    out.set("data.label_layouts_per_s", report.layouts as f64 / t.elapsed().as_secs_f64());

    let set = ShardSet::open_dir(&dir).map_err(|e| e.to_string())?;
    let bytes: u64 = set.paths().iter().filter_map(|p| std::fs::metadata(p).ok()).map(|m| m.len()).sum();
    let read_s = time_median(5, || set.stream().filter(Result::is_ok).count());
    out.set("data.shard_read_mb_s", bytes as f64 / 1e6 / read_s);
    Ok(())
}

/// Probes of the service's own pieces, without a server: the wire codec,
/// the journal append behind every acknowledged submit, and admission.
pub fn serve_probes(
    ctx: &Ctx<'_>,
    flow: &FillingFlow,
    bundle: &Arc<ModelBundle>,
    layout: &Layout,
    out: &mut Outcome,
) -> Result<(), String> {
    let request = JobRequest::new("probe", layout.clone());
    out.set("serve.wire_encode_us", us(time_median(30, || request.encode())));
    let (headers, body) = request.encode()?;
    let parsed = Request {
        method: "POST".into(),
        path: "/v1/jobs".into(),
        query: Vec::new(),
        headers: headers.into_iter().map(|(k, v)| (k.to_ascii_lowercase(), v)).collect(),
        body,
        keep_alive: true,
    };
    JobRequest::decode(&parsed)?;
    out.set("serve.wire_decode_us", us(time_median(30, || JobRequest::decode(&parsed).map(|r| r.name))));

    let (mut journal, _) =
        JobJournal::open(&ctx.scratch.join("probe-journal"), Arc::new(FaultPlan::disabled()))
            .map_err(|e| e.to_string())?;
    let mut appends = Vec::with_capacity(JOURNAL_APPENDS);
    for id in 0..JOURNAL_APPENDS as u64 {
        let t = Instant::now();
        journal
            .record_admit(id, "default", "probe", Priority::Normal, None, layout)
            .map_err(|e| e.to_string())?;
        appends.push(us(t.elapsed().as_secs_f64()));
    }
    out.set("serve.journal_append_us.p50", median(&appends));

    let mut admission = Admission::new(vec![TenantConfig::new("default")]);
    out.set(
        "serve.admission_us",
        us(time_median(30, || {
            let pending = Pending {
                job_id: 1,
                name: "probe".into(),
                layout: layout.clone(),
                timeout: None,
                priority: Priority::Normal,
                enqueued: Instant::now(),
            };
            admission.enqueue(0, pending, TIMED_WORKERS).is_ok() && admission.dequeue().is_some()
        })),
    );

    // The batch-inference server on its own: two jobs' verification
    // (3 layers each) arriving as one request.
    let samples: Vec<NdArray> = (0..6)
        .map(|i| {
            flow.network()
                .extract_window_sample(layout, i % layout.num_layers())
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;
    let (server, client) =
        BatchServer::spawn(Arc::clone(bundle), BatchConfig::default()).map_err(|e| e.to_string())?;
    let predict = time_median(15, || client.predict_heights(&samples).map(|h| h.len()));
    drop(client);
    server.join();
    out.set("runtime.batch_predict_ms", ms(predict));
    out.set("nn.unet_infer_b6_ms", unet_infer_ms(flow, 6, layout.rows())?);
    Ok(())
}

/// Core-merge of one synthesized tile into the chip plan.
pub fn merge_ms(tiling: &Tiling, layers: usize, pad_multiple: usize) -> f64 {
    let tile = tiling.tile(tiling.grid().0 / 2, tiling.grid().1 / 2);
    let m = pad_multiple.max(1);
    let padded = tile.ext.rows.div_ceil(m) * m * (tile.ext.cols.div_ceil(m) * m);
    let amounts = random_field(layers * padded, 0.0, 1.0, 5);
    let mut plan = ChipFillPlan::zeros(layers, tiling.rows(), tiling.cols());
    ms(time_median(30, || merge_tile_plan(&mut plan, &tile, &amounts, pad_multiple)))
}
