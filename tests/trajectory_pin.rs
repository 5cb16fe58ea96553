//! Pins the *trajectory* of the fill job, not only its endpoint: plan
//! bytes, objective value, SQP iteration count, the objective value after
//! every major iteration and the realized rectangles of designs A/B/C.
//!
//! A change that promises "the optimizer reads the same bits" (fewer
//! surrogate calls, cheaper kernels, a different blocker scan) must leave
//! every digest here alone; a change that means to alter the call pattern
//! re-records them and says why.

use neurfill::extraction::NUM_CHANNELS;
use neurfill::pipeline::{FillingFlow, FlowConfig};
use neurfill::pkb::pkb_starting_point;
use neurfill::surrogate::SurrogateConfig;
use neurfill::{Coefficients, FillObjective, StartMode};
use neurfill_cmpsim::ProcessParams;
use neurfill_layout::datagen::DataGenConfig;
use neurfill_layout::{benchmark_designs, realize_fill_into, Layout};
use neurfill_nn::{TrainConfig, UNetConfig};
use neurfill_optim::{Bounds, BoxNormalized, Objective, SqpResult, SqpSolver};
use neurfill_runtime::fnv1a;

const GRID: usize = 8;
const SEED: u64 = 3;

/// What one job pins. Floats are recorded by bit pattern; sequences by
/// `fnv1a` over their bit patterns.
#[derive(Debug, PartialEq)]
struct Pin {
    plan: u64,
    objective_value: u64,
    sqp_iterations: usize,
    history: u64,
    rectangles: u64,
}

/// Re-recorded once, on purpose, when the golden simulator's contact solve
/// became a safeguarded Newton iteration and its pressures `k·(√d·d)`
/// (`neurfill_cmpsim::contact`, "The re-baseline"). The surrogate these
/// jobs optimize is trained on golden-simulated labels, which moved in
/// their trailing digits; training carries that into the weights, and the
/// 40 SQP iterations carry the weights into every digest below. The
/// optimizer did not change: the iteration count is still the cap.
///
/// The previous digests were recorded when `NeurFillConfig::default()`
/// lowered the SQP cap from 80 to 40 iterations (at parent commit
/// 6dbca95ed67649d77046924c32af39c7fe639c0c, `fnv` of the first 40 entries
/// of each 80-entry history equalled `history` and the 40th entry
/// `objective_value`) and held through
/// 7c8adcd2f3a1b4487b3a9f9e4d1aec48139fd2a7.
const PINNED: [Pin; 3] = [
    Pin {
        plan: 0x0a0d_407c_51b1_6a71,
        objective_value: 0xbffb_0255_58ac_1163,
        sqp_iterations: 40,
        history: 0x0eb3_4032_5bd2_a9cd,
        rectangles: 0x740e_09e9_289e_e12b,
    },
    Pin {
        plan: 0x8d53_a28e_32dc_5ba1,
        objective_value: 0xbff8_ff11_7430_e07d,
        sqp_iterations: 40,
        history: 0x10e5_4b10_0c22_771e,
        rectangles: 0x86c0_b8ec_f1df_ef92,
    },
    Pin {
        plan: 0x3604_cdfe_0e46_0c2a,
        objective_value: 0x3fc8_dc46_7bb1_f6e5,
        sqp_iterations: 40,
        history: 0xfe60_60ba_75e3_0979,
        rectangles: 0xb3aa_26b5_5629_a893,
    },
];

/// The workspace's checksum over the little-endian bytes of `words`.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    fnv1a(&words.into_iter().flat_map(u64::to_le_bytes).collect::<Vec<u8>>())
}

fn fnv_f64(values: &[f64]) -> u64 {
    fnv(values.iter().map(|v| v.to_bits()))
}

fn flow() -> FillingFlow {
    let config = FlowConfig {
        process: ProcessParams::fast(),
        surrogate: SurrogateConfig {
            unet: UNetConfig { in_channels: NUM_CHANNELS, out_channels: 1, base_channels: 4, depth: 2 },
            train: TrainConfig {
                epochs: 4,
                batch_size: 4,
                lr: 2e-3,
                lr_decay: 0.95,
                ..TrainConfig::default()
            },
            num_layouts: 12,
            datagen: DataGenConfig { rows: GRID, cols: GRID, seed: SEED, ..DataGenConfig::default() },
            ..SurrogateConfig::default()
        },
        beta_time_s: 60.0,
        seed: SEED,
        ..FlowConfig::default()
    };
    FillingFlow::prepare(&benchmark_designs(GRID, GRID, SEED), config).unwrap()
}

/// The synthesis stage as `NeurFill::run` performs it, through the public
/// stage calls, to reach the `SqpResult` (and its history) that
/// `FillingFlow::run` does not hand out.
fn replay_sqp(flow: &FillingFlow, layout: &Layout) -> SqpResult {
    let cfg = &flow.config().neurfill;
    let coeffs =
        Coefficients::calibrate(layout, &flow.simulator().simulate(layout), flow.config().beta_time_s);
    let StartMode::PriorKnowledge(pkb) = &cfg.mode else { panic!("default start mode is PKB") };
    let objective = FillObjective::new(flow.network(), layout, &coeffs);
    let start = pkb_starting_point(layout, pkb, |plan| objective.value(plan.as_slice()));
    let bounds = Bounds::from_slack(layout.slack_vector());
    let (normalized, _) = BoxNormalized::new(&objective, &bounds);
    let u0 = normalized.to_u(start.plan.as_slice());
    let radius = cfg.trust_radius;
    assert!(radius < 1.0, "the replay covers the default trust region");
    let trust = Bounds::new(
        u0.iter().map(|v| (v - radius).max(0.0)).collect(),
        u0.iter().map(|v| (v + radius).min(1.0)).collect(),
    );
    SqpSolver::new(cfg.sqp.clone()).maximize(&normalized, &trust, &u0)
}

#[test]
fn fill_jobs_reproduce_the_pinned_trajectory() {
    let flow = flow();
    let mut pins = Vec::new();
    for layout in benchmark_designs(GRID, GRID, SEED + 1) {
        let result = flow.run(&layout).unwrap();
        let sqp = replay_sqp(&flow, &layout);
        // The replay is the product's synthesis: same endpoint, bit for bit.
        assert_eq!(sqp.value.to_bits(), result.synthesis.objective_value.to_bits(), "{}", layout.name());
        assert_eq!(sqp.iterations, result.synthesis.sqp_iterations, "{}", layout.name());
        assert_eq!(sqp.history.len(), sqp.iterations);

        // The flow keeps no rectangles; realizing its plan again streams
        // them, layer by layer, into the digest.
        let mut rectangles = Vec::new();
        let streamed = realize_fill_into(&layout, &result.plan, &flow.config().insertion, |_, s| {
            rectangles.extend([s.rect.x0, s.rect.y0, s.rect.x1, s.rect.y1].map(f64::to_bits));
        });
        assert_eq!(streamed.windows, result.insertion.windows, "{}", layout.name());
        pins.push(Pin {
            plan: fnv_f64(result.plan.as_slice()),
            objective_value: result.synthesis.objective_value.to_bits(),
            sqp_iterations: result.synthesis.sqp_iterations,
            history: fnv_f64(&sqp.history),
            rectangles: fnv(rectangles),
        });
    }
    assert_eq!(pins, PINNED, "recorded: {pins:#x?}");
}
