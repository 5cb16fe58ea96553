//! Table III: performance comparison of Lin \[10], Tao \[11], Cai \[12],
//! NeurFill (PKB) and NeurFill (MM) on the three benchmark designs.
//!
//! Every plan is scored end-to-end with the *golden* simulator; runtime is
//! wall clock and memory comes from the documented analytic working-set
//! model. Usage: `table3 [smoke|default|large]`

use neurfill::baselines::{cai_fill, lin_fill, tao_fill, CaiConfig, TaoConfig};
use neurfill::report::{estimate_memory_gb, evaluate_plan, format_rows, MethodKind, MethodResult};
use neurfill::{NeurFill, NeurFillConfig, StartMode};
use neurfill_bench::harness::{prepare, Scale};
use neurfill_cmpsim::FiniteDifference;
use neurfill_layout::DummySpec;
use neurfill_nn::Module;
use neurfill_optim::{NmmsoConfig, SqpConfig};
use std::cmp::Ordering;
use std::time::Instant;

fn main() {
    let scale = Scale::from_arg(std::env::args().nth(1).as_deref());
    eprintln!("[table3] preparing experiment at {scale:?} scale (trains the surrogate once)...");
    let exp = prepare(scale, 7);
    eprintln!("[table3] surrogate trained in {:.1}s", exp.train_seconds);
    let dummy = DummySpec::default();
    let params = exp.surrogate.network.unet().num_parameters();

    let (cai_iters, mm_budget) = match scale {
        Scale::Smoke => (2, 40),
        Scale::Default => (2, 150),
        Scale::Large => (4, 300),
    };

    // Per design: golden Quality of NeurFill (PKB) and of NeurFill (MM).
    let mut pkb_vs_mm: Vec<(String, f64, f64)> = Vec::new();
    for layout in &exp.designs {
        let coeffs = exp.coefficients(layout);
        let mut rows: Vec<MethodResult> = Vec::new();

        // ---- Lin [10]: rule-based closed form. ----
        let t0 = Instant::now();
        let plan = lin_fill(layout);
        let dt = t0.elapsed().as_secs_f64();
        let mem = estimate_memory_gb(MethodKind::Lin, layout, 0);
        rows.push(evaluate_plan(layout, &exp.sim, &coeffs, "Lin [10]", &plan, &dummy, dt, mem));
        eprintln!("[table3] {}: Lin done in {dt:.2}s", layout.name());

        // ---- Tao [11]: rule-based SQP. ----
        let outcome = tao_fill(layout, &coeffs, &TaoConfig::default());
        let dt = outcome.runtime.as_secs_f64();
        let mem = estimate_memory_gb(MethodKind::Tao, layout, 0);
        rows.push(evaluate_plan(layout, &exp.sim, &coeffs, "Tao [11]", &outcome.plan, &dummy, dt, mem));
        eprintln!("[table3] {}: Tao done in {dt:.2}s", layout.name());

        // ---- Cai [12]: model-based SQP with numerical gradients. ----
        let cfg = CaiConfig {
            sqp: SqpConfig { max_iterations: cai_iters, max_backtracks: 6, ..SqpConfig::default() },
            fd: FiniteDifference::new(50.0, 1),
            dummy,
        };
        let outcome = cai_fill(layout, &exp.sim, &coeffs, &cfg);
        let dt = outcome.runtime.as_secs_f64();
        let mem = estimate_memory_gb(MethodKind::Cai { threads: 1 }, layout, 0);
        rows.push(evaluate_plan(layout, &exp.sim, &coeffs, "Cai [12]", &outcome.plan, &dummy, dt, mem));
        eprintln!(
            "[table3] {}: Cai done in {dt:.1}s ({} simulator invocations)",
            layout.name(),
            outcome.simulations
        );

        // ---- NeurFill (PKB). ----
        let nf = NeurFill::new(
            neurfill::CmpNeuralNetwork::new(
                clone_network(&exp.surrogate.network),
                exp.surrogate.network.height_norm(),
                exp.surrogate.network.extraction().clone(),
                neurfill::CmpNnConfig::default(),
            ),
            NeurFillConfig::default(),
        );
        let outcome = nf.run(layout, &coeffs).expect("compatible geometry");
        let dt = outcome.runtime.as_secs_f64();
        let mem = estimate_memory_gb(MethodKind::NeurFillPkb, layout, params);
        rows.push(evaluate_plan(
            layout,
            &exp.sim,
            &coeffs,
            "NeurFill (PKB)",
            &outcome.plan,
            &dummy,
            dt,
            mem,
        ));
        eprintln!("[table3] {}: NeurFill(PKB) done in {dt:.1}s", layout.name());

        // ---- NeurFill (MM). ----
        let nmmso = NmmsoConfig { max_evaluations: mm_budget, swarm_size: 5, ..NmmsoConfig::default() };
        let nf_mm = NeurFill::new(
            neurfill::CmpNeuralNetwork::new(
                clone_network(&exp.surrogate.network),
                exp.surrogate.network.height_norm(),
                exp.surrogate.network.extraction().clone(),
                neurfill::CmpNnConfig::default(),
            ),
            NeurFillConfig {
                mode: StartMode::MultiModal { nmmso: nmmso.clone(), top_modes: 3 },
                seed: 11,
                ..NeurFillConfig::default()
            },
        );
        let outcome = nf_mm.run(layout, &coeffs).expect("compatible geometry");
        let dt = outcome.runtime.as_secs_f64();
        let mem = estimate_memory_gb(
            MethodKind::NeurFillMm { swarm_size: nmmso.swarm_size, max_swarms: nmmso.max_swarms },
            layout,
            params,
        );
        rows.push(evaluate_plan(
            layout,
            &exp.sim,
            &coeffs,
            "NeurFill (MM)",
            &outcome.plan,
            &dummy,
            dt,
            mem,
        ));
        eprintln!("[table3] {}: NeurFill(MM) done in {dt:.1}s", layout.name());

        println!("\n{}", format_rows(layout.name(), &rows));
        // Rows in push order: Lin, Tao, Cai, NeurFill (PKB), NeurFill (MM).
        pkb_vs_mm.push((layout.name().to_string(), rows[3].quality, rows[4].quality));
    }
    println!("Paper shape checks: model-based methods (Cai, NeurFill) beat rule-based on Quality;");
    println!("NeurFill (PKB) ~matches Cai's quality at a fraction of the runtime (58x in the paper);");
    println!("the paper's NeurFill (MM) attains the best Quality. Measured here, PKB vs MM:");
    for (name, pkb, mm) in &pkb_vs_mm {
        let verdict = match mm.total_cmp(pkb) {
            Ordering::Greater => "MM higher",
            Ordering::Less => "PKB higher",
            Ordering::Equal => "tie",
        };
        println!("  {name}: PKB {pkb:.4} vs MM {mm:.4} ({verdict})");
    }
    let wins = pkb_vs_mm.iter().filter(|(_, pkb, mm)| mm > pkb).count();
    println!("NeurFill (MM) scored higher on {wins} of {} designs.", pkb_vs_mm.len());
}

/// The UNet is shared by value inside `CmpNeuralNetwork`; rebuilding a
/// NeurFill instance per mode needs a parameter-identical copy.
fn clone_network(src: &neurfill::CmpNeuralNetwork) -> neurfill_nn::UNet {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let copy = neurfill_nn::UNet::new(src.unet().config().clone(), &mut rng);
    neurfill_nn::serialize::copy_parameters(src.unet(), &copy).expect("same architecture");
    copy.set_training(false);
    copy
}
