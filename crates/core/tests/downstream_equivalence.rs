//! Certification harness for the Fast numerics tier (downstream layer).
//!
//! The per-kernel bound lives in `neurfill-tensor` (FMA GEMM). This
//! suite certifies the quantities a *user* of the flow actually consumes
//! — surrogate planarity score `S_plan` and its gradient, synthesized
//! fill amounts and post-CMP ΔH on designs A/B/C — agreeing between the
//! Exact and Fast tiers within stated tolerances, at 1 and 8 GEMM
//! threads.
//!
//! The quantized tensor backend is certified the same way: `S_plan`
//! through the score-only inference seam, the untouched f32 gradient
//! path, and flow-level fill totals / ΔH on designs A/B/C, each
//! bit-deterministic across thread counts.
//!
//! The GEMM tier and tensor backend are process-global (they sit behind
//! `NdArray::matmul` / `CmpNeuralNetwork::infer`), so every test that
//! flips either holds [`tier_lock`] and restores `Exact` + `Cpu` on drop
//! — tests in this binary may run concurrently.

use neurfill::extraction::{extract_layer_arrays, ExtractionConfig, NUM_CHANNELS};
use neurfill::pipeline::{FillingFlow, FlowConfig};
use neurfill::surrogate::SurrogateConfig;
use neurfill::{CmpNeuralNetwork, CmpNnConfig, Coefficients, HeightNorm, NumericsTier};
use neurfill_cmpsim::{CmpSimulator, ProcessParams};
use neurfill_layout::datagen::DataGenConfig;
use neurfill_layout::{
    apply_fill, benchmark_designs, DesignKind, DesignSpec, DummySpec, FillPlan, Layout,
};
use neurfill_nn::calibrate;
use neurfill_nn::{TrainConfig, UNet, UNetConfig};
use neurfill_tensor::kernels::set_gemm_threads;
use neurfill_tensor::{set_backend, set_numerics_tier, BackendKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::rc::Rc;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Serializes process-global tier/backend/thread mutation within this
/// binary and restores the Exact tier, the f32 `Cpu` backend and
/// single-threaded GEMM when dropped.
struct TierLock(#[allow(dead_code)] MutexGuard<'static, ()>);

fn tier_lock() -> TierLock {
    static LOCK: Mutex<()> = Mutex::new(());
    TierLock(LOCK.lock().unwrap_or_else(PoisonError::into_inner))
}

impl Drop for TierLock {
    fn drop(&mut self) {
        set_numerics_tier(NumericsTier::Exact);
        set_backend(BackendKind::Cpu);
        set_gemm_threads(1);
    }
}

/// Designs A/B/C of the paper's evaluation.
const DESIGNS: [(DesignKind, u64); 3] =
    [(DesignKind::CmpTest, 11), (DesignKind::Fpga, 12), (DesignKind::RiscV, 13)];

/// The suite's process parameters: a short polish with a wide pad, at
/// the default kernel radius.
fn process() -> ProcessParams {
    ProcessParams { steps: 10, character_length: 3.0, ..ProcessParams::default() }
}

fn untrained_network() -> CmpNeuralNetwork {
    let mut rng = StdRng::seed_from_u64(0xcafe);
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

/// A mid-slack fill vector (30% of every window's capacity).
fn mid_fill(layout: &Layout) -> Vec<f64> {
    layout.slack_vector().into_iter().map(|s| 0.3 * s).collect()
}

/// `S_plan` and `∇S_plan` through the surrogate: the Fast tier (FMA GEMM)
/// agrees with Exact within a stated tolerance, is bit-deterministic
/// across GEMM thread counts, and Exact itself is bitwise thread-stable
/// (its contract, re-pinned here end to end through the network).
///
/// Stated tolerances (f32 forward/backward, tiny UNet):
/// score |Δ| ≤ 1e-4 · (|S_exact| + 1); gradient per element
/// |Δ| ≤ 1e-3 · (‖∇‖∞ + 1e-9).
#[test]
fn s_plan_and_gradient_agree_between_tiers_at_all_thread_counts() {
    let _guard = tier_lock();
    let net = untrained_network();
    let layout = DesignSpec::new(DesignKind::CmpTest, 8, 8, 5).generate();
    let sim = CmpSimulator::new(process()).unwrap();
    let coeffs = Coefficients::calibrate(&layout, &sim.simulate(&layout), 60.0);
    let x = mid_fill(&layout);

    let mut per_tier = Vec::new();
    for tier in [NumericsTier::Exact, NumericsTier::Fast] {
        set_numerics_tier(tier);
        let mut evals = Vec::new();
        for threads in [1usize, 8] {
            set_gemm_threads(threads);
            evals.push(net.planarity(&layout, &x, &coeffs).unwrap());
        }
        let (one, eight) = (&evals[0], &evals[1]);
        assert_eq!(one.score.to_bits(), eight.score.to_bits(), "{tier}: S_plan depends on threads");
        for (a, b) in one.gradient.iter().zip(&eight.gradient) {
            assert_eq!(a.to_bits(), b.to_bits(), "{tier}: ∇S_plan depends on threads");
        }
        per_tier.push(evals.remove(0));
    }
    let (exact, fast) = (&per_tier[0], &per_tier[1]);
    assert!(
        (exact.score - fast.score).abs() <= 1e-4 * (exact.score.abs() + 1.0),
        "S_plan drifted: exact={} fast={}",
        exact.score,
        fast.score
    );
    let ginf = exact.gradient.iter().fold(0.0f64, |m, g| m.max(g.abs()));
    for (i, (a, b)) in exact.gradient.iter().zip(&fast.gradient).enumerate() {
        assert!(
            (a - b).abs() <= 1e-3 * (ginf + 1e-9),
            "∇S_plan[{i}] drifted: exact={a} fast={b} (‖∇‖∞={ginf})"
        );
    }
}

/// End-to-end flow on designs A/B/C with one shared pre-trained network:
/// the Fast tier's synthesized fill amounts and verified post-CMP ΔH
/// track the Exact tier's, and the Fast flow itself is bit-deterministic
/// across GEMM thread counts.
///
/// Stated tolerances (the synthesis optimizer re-converges from perturbed
/// iterates, so these are flow-level, not kernel-level, bounds): total
/// fill within 2% + 1 window-unit; per-design ΔH within 5% + 0.5 nm.
#[test]
fn flow_fill_amounts_and_delta_h_agree_between_tiers_on_designs_abc() {
    let _guard = tier_lock();
    let grid = 8;
    let base = FlowConfig {
        process: process(),
        surrogate: SurrogateConfig {
            unet: UNetConfig { in_channels: NUM_CHANNELS, out_channels: 1, base_channels: 4, depth: 2 },
            train: TrainConfig {
                epochs: 2,
                batch_size: 4,
                lr: 2e-3,
                lr_decay: 1.0,
                ..TrainConfig::default()
            },
            num_layouts: 6,
            datagen: DataGenConfig { rows: grid, cols: grid, seed: 1, ..DataGenConfig::default() },
            ..SurrogateConfig::default()
        },
        beta_time_s: 60.0,
        seed: 1,
        ..FlowConfig::default()
    };
    // Train once, under the Exact tier, and share the network.
    set_numerics_tier(NumericsTier::Exact);
    set_gemm_threads(1);
    let trained = FillingFlow::prepare(&benchmark_designs(grid, grid, 1), base.clone()).unwrap();
    let network = trained.shared_network();

    for (kind, seed) in DESIGNS {
        let layout = DesignSpec::new(kind, grid, grid, seed).generate();
        let mut results = Vec::new();
        for tier in [NumericsTier::Exact, NumericsTier::Fast] {
            set_numerics_tier(tier);
            set_gemm_threads(1);
            let config = FlowConfig { numerics: tier, ..base.clone() };
            let flow = FillingFlow::with_network(network.clone(), config).unwrap();
            let result = flow.run(&layout).unwrap();
            if tier.is_fast() {
                // Fast is bit-deterministic across GEMM thread counts.
                set_gemm_threads(8);
                let redo = flow.run(&layout).unwrap();
                assert_eq!(
                    result.plan.as_slice(),
                    redo.plan.as_slice(),
                    "{kind:?}: Fast flow depends on GEMM threads"
                );
            }
            results.push(result);
        }
        let (exact, fast) = (&results[0], &results[1]);
        let (te, tf) = (exact.plan.total(), fast.plan.total());
        assert!((te - tf).abs() <= 0.02 * te + 1.0, "{kind:?}: fill total drifted: {te} vs {tf}");
        let (he, hf) = (exact.scored.delta_h_angstrom, fast.scored.delta_h_angstrom);
        assert!((he - hf).abs() <= 0.05 * he.abs() + 0.5, "{kind:?}: ΔH drifted: {he} vs {hf}");
    }
}

/// Calibrates a network on the real extraction planes of mid-filled
/// designs A/B/C — the same distribution every quant certification below
/// scores, so the int8 activation rails are in-distribution.
fn with_abc_calibration(net: CmpNeuralNetwork, grid: usize) -> CmpNeuralNetwork {
    let spec = DummySpec::default();
    let mut samples = Vec::new();
    for (kind, seed) in DESIGNS {
        let layout = DesignSpec::new(kind, grid, grid, seed).generate();
        let mut plan = FillPlan::zeros(&layout);
        plan.as_mut_slice().copy_from_slice(&mid_fill(&layout));
        let filled = apply_fill(&layout, &plan, &spec);
        for l in 0..filled.num_layers() {
            let planes = extract_layer_arrays(&filled, l, net.extraction());
            let &[c, h, w] = planes.shape() else { unreachable!("extraction is rank 3") };
            samples.push(planes.reshape(&[1, c, h, w]).unwrap());
        }
    }
    let scales = calibrate(net.unet(), &samples).unwrap();
    net.with_calibration(scales)
}

/// `S_plan` through the score-only inference seam: the int8 `QuantCpu`
/// backend tracks the f32 score within 1e-3 relative on designs A/B/C
/// and is bit-deterministic across GEMM thread counts (stated bound:
/// |Δ| ≤ 1e-3 · (|S_cpu| + 1)).
#[test]
fn quant_backend_s_plan_tracks_f32_on_designs_abc() {
    let _guard = tier_lock();
    let net = with_abc_calibration(untrained_network(), 8);
    let sim = CmpSimulator::new(process()).unwrap();
    for (kind, seed) in DESIGNS {
        let layout = DesignSpec::new(kind, 8, 8, seed).generate();
        let coeffs = Coefficients::calibrate(&layout, &sim.simulate(&layout), 60.0);
        let x = mid_fill(&layout);
        set_backend(BackendKind::Cpu);
        let cpu = net.planarity_score(&layout, &x, &coeffs).unwrap();
        set_backend(BackendKind::QuantCpu);
        let mut scores = Vec::new();
        for threads in [1usize, 8] {
            set_gemm_threads(threads);
            scores.push(net.planarity_score(&layout, &x, &coeffs).unwrap());
        }
        assert_eq!(
            scores[0].to_bits(),
            scores[1].to_bits(),
            "{kind:?}: quant S_plan depends on GEMM threads"
        );
        assert!(
            (cpu - scores[0]).abs() <= 1e-3 * (cpu.abs() + 1.0),
            "{kind:?}: quant S_plan drifted: cpu={cpu} quant={}",
            scores[0]
        );
    }
}

/// The gradient path is *defined* to stay on f32 autograd under every
/// backend — synthesis descends the same surface regardless of how
/// candidates are scored. Certify the strongest form: `planarity` (score
/// + gradient) under `QuantCpu` is bit-identical to `Cpu`.
#[test]
fn quant_backend_leaves_gradient_path_bit_identical() {
    let _guard = tier_lock();
    let net = with_abc_calibration(untrained_network(), 8);
    let layout = DesignSpec::new(DesignKind::CmpTest, 8, 8, 5).generate();
    let sim = CmpSimulator::new(process()).unwrap();
    let coeffs = Coefficients::calibrate(&layout, &sim.simulate(&layout), 60.0);
    let x = mid_fill(&layout);

    set_backend(BackendKind::Cpu);
    let cpu = net.planarity(&layout, &x, &coeffs).unwrap();
    set_backend(BackendKind::QuantCpu);
    let quant = net.planarity(&layout, &x, &coeffs).unwrap();
    assert_eq!(cpu.score.to_bits(), quant.score.to_bits(), "gradient-path score perturbed");
    for (i, (a, b)) in cpu.gradient.iter().zip(&quant.gradient).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "∇S_plan[{i}] perturbed by the quant backend");
    }
}

/// End-to-end flow on designs A/B/C with one shared trained + calibrated
/// network: the `QuantCpu` backend's synthesized fill amounts and
/// verified post-CMP ΔH track the f32 `Cpu` backend's, and the quant
/// flow is bit-deterministic across GEMM thread counts.
///
/// Stated tolerances (flow-level — the optimizer re-converges from
/// perturbed scores): total fill within 2% + 1 window-unit; per-design
/// ΔH within 5% + 0.5 nm — the same bars the Fast tier certifies.
#[test]
fn flow_fill_amounts_and_delta_h_agree_between_backends_on_designs_abc() {
    let _guard = tier_lock();
    let grid = 8;
    let base = FlowConfig {
        process: process(),
        surrogate: SurrogateConfig {
            unet: UNetConfig { in_channels: NUM_CHANNELS, out_channels: 1, base_channels: 4, depth: 2 },
            train: TrainConfig {
                epochs: 2,
                batch_size: 4,
                lr: 2e-3,
                lr_decay: 1.0,
                ..TrainConfig::default()
            },
            num_layouts: 6,
            datagen: DataGenConfig { rows: grid, cols: grid, seed: 1, ..DataGenConfig::default() },
            ..SurrogateConfig::default()
        },
        beta_time_s: 60.0,
        seed: 1,
        ..FlowConfig::default()
    };
    // Train once on the f32 backend, then calibrate the shared network.
    set_numerics_tier(NumericsTier::Exact);
    set_backend(BackendKind::Cpu);
    set_gemm_threads(1);
    let trained = FillingFlow::prepare(&benchmark_designs(grid, grid, 1), base.clone()).unwrap();
    let shared = trained.shared_network();
    drop(trained);
    let owned = Rc::try_unwrap(shared).expect("network is uniquely held after the flow drops");
    let network = Rc::new(with_abc_calibration(owned, grid));

    for (kind, seed) in DESIGNS {
        let layout = DesignSpec::new(kind, grid, grid, seed).generate();
        let mut results = Vec::new();
        for backend in [BackendKind::Cpu, BackendKind::QuantCpu] {
            set_backend(backend);
            set_gemm_threads(1);
            let config = FlowConfig { backend, ..base.clone() };
            let flow = FillingFlow::with_network(Rc::clone(&network), config).unwrap();
            let result = flow.run(&layout).unwrap();
            if backend.is_quant() {
                // Quant is bit-deterministic across GEMM thread counts.
                set_gemm_threads(8);
                let redo = flow.run(&layout).unwrap();
                assert_eq!(
                    result.plan.as_slice(),
                    redo.plan.as_slice(),
                    "{kind:?}: quant flow depends on GEMM threads"
                );
            }
            results.push(result);
        }
        let (cpu, quant) = (&results[0], &results[1]);
        let (tc, tq) = (cpu.plan.total(), quant.plan.total());
        assert!((tc - tq).abs() <= 0.02 * tc + 1.0, "{kind:?}: fill total drifted: {tc} vs {tq}");
        let (hc, hq) = (cpu.scored.delta_h_angstrom, quant.scored.delta_h_angstrom);
        assert!((hc - hq).abs() <= 0.05 * hc.abs() + 0.5, "{kind:?}: ΔH drifted: {hc} vs {hq}");
    }
}
