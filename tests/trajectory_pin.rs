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

/// Recorded at parent commit 3378e934a04315010da339285081e2fba47c59b8
/// (before the line search skipped non-ascent trials, the surrogate was
/// frozen, im2col copied row spans and insertion filtered blockers by
/// column) by running this test there.
const PINNED: [Pin; 3] = [
    Pin {
        plan: 0x17c0_b845_94dc_dd8d,
        objective_value: 0xbff9_9378_5812_a16e,
        sqp_iterations: 80,
        history: 0x1b93_54a0_b5ab_cde5,
        rectangles: 0xfa27_0d08_1d7f_8b62,
    },
    Pin {
        plan: 0x71f2_1253_55ec_ba9d,
        objective_value: 0xbff6_e31b_3b94_58b1,
        sqp_iterations: 80,
        history: 0x124b_bc28_f15d_2f68,
        rectangles: 0x6adf_35f0_55c4_a441,
    },
    Pin {
        plan: 0x376b_aa83_e2a0_6c76,
        objective_value: 0x3fce_0c7d_fd66_f8a8,
        sqp_iterations: 80,
        history: 0xe3ae_8f87_341d_7aa7,
        rectangles: 0xa982_8319_bc43_b038,
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
