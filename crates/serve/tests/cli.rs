//! The `--numerics` and `--backend` flags went away with the fast GEMM
//! tier and the int8 backend, the two batching flags with the batch
//! server, `--retries` with the retry path (a failed job runs once); a
//! script that still passes one must fail loudly (exit 2 and usage,
//! before any file is read), never run on the only path as if it had
//! been honoured.
//! The same goes for a fault plan naming a site that does not exist (or
//! one nothing injects at any more), or one the run never hands to the
//! pool: a drill that injects nothing must not report success, so a
//! plan is refused before any file is read, and with `--connect`, where
//! no local pool runs. And `--full-chip` runs in-process only: asking it
//! to `--connect` to a server must be refused, not quietly ignored.
//!
//! A number a flag cannot honour (a negative, NaN or infinite number of
//! seconds, a chip with zero rows, a NaN canary tolerance) is refused the
//! same way, naming the flag, instead of panicking later or silently
//! turning a check off.
//!
//! What `runfill --out` writes must be enough to re-verify a job from
//! disk: its `<name>.plan`, realized and scored on the golden simulator,
//! gives back the job's quality.

use neurfill::extraction::NUM_CHANNELS;
use neurfill::pipeline::FlowConfig;
use neurfill::report::evaluate_plan;
use neurfill::{CmpNeuralNetwork, CmpNnConfig, Coefficients, HeightNorm};
use neurfill_cmpsim::{CmpSimulator, ProcessParams};
use neurfill_layout::insertion::realize_fill;
use neurfill_layout::io::{self as layout_io, read_plan, write_plan, PlanShape};
use neurfill_layout::{DesignKind, DesignSpec, FillPlan, Layout};
use neurfill_nn::{UNet, UNetConfig};
use neurfill_runtime::{JobSpec, JobStatus, ModelBundle, PoolOptions, RuntimePool};
use rand::SeedableRng;
use std::path::Path;
use std::process::Command;
use std::sync::Arc;

/// A randomly initialized (untrained) surrogate: synthesis, insertion and
/// verification run exactly as they do on a trained one.
fn untrained_network() -> CmpNeuralNetwork {
    let config = UNetConfig { in_channels: NUM_CHANNELS, out_channels: 1, base_channels: 4, depth: 2 };
    let unet = UNet::new(config, &mut rand::rngs::StdRng::seed_from_u64(42));
    CmpNeuralNetwork::new(unet, HeightNorm::default(), Default::default(), CmpNnConfig::default())
}

/// The flow `runfill --fast` runs.
fn fast_flow() -> FlowConfig {
    FlowConfig { process: ProcessParams::fast(), ..FlowConfig::default() }
}

/// Designs A, B and C at 8×8.
fn abc() -> Vec<Layout> {
    [DesignKind::CmpTest, DesignKind::Fpga, DesignKind::RiscV]
        .into_iter()
        .map(|kind| DesignSpec::new(kind, 8, 8, 3).generate())
        .collect()
}

/// Re-verifies a plan file the way `FillingFlow::run`'s phases 2 and 3
/// do: read → `realize_fill` → `evaluate_plan` of the realized amounts.
fn reverified_quality(layout: &Layout, plan_file: &Path, flow: &FlowConfig) -> f64 {
    let (shape, amounts) = read_plan(std::fs::File::open(plan_file).unwrap()).unwrap();
    assert_eq!(shape, PlanShape::of(layout), "{}", plan_file.display());
    let plan = FillPlan::from_vec(layout, amounts);
    let sim = CmpSimulator::new(flow.process.clone()).unwrap();
    let coeffs = Coefficients::calibrate(layout, &sim.simulate(layout), flow.beta_time_s);
    let insertion = realize_fill(layout, &plan, &flow.insertion);
    let mut realized = FillPlan::zeros(layout);
    for (slot, w) in realized.as_mut_slice().iter_mut().zip(&insertion.windows) {
        *slot = w.placed;
    }
    let dummy = flow.insertion_dummy_spec();
    evaluate_plan(layout, &sim, &coeffs, "re-verified", &realized, &dummy, 0.0, 0.0).quality
}

fn assert_rejected(bin: &str, flag: &str, value: &str) {
    let out = Command::new(bin).args(["--model", "m.bundle", flag, value]).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {flag} {value}: {stderr}");
    assert!(stderr.contains(&format!("unknown flag {flag:?}")), "{stderr}");
    assert!(stderr.contains("usage: "), "{stderr}");
    assert_eq!(stderr.matches(flag).count(), 1, "usage must not advertise {flag}: {stderr}");
}

#[test]
fn runfill_rejects_the_removed_flags() {
    assert_rejected(env!("CARGO_BIN_EXE_runfill"), "--numerics", "fast");
    assert_rejected(env!("CARGO_BIN_EXE_runfill"), "--backend", "quant");
    assert_rejected(env!("CARGO_BIN_EXE_runfill"), "--max-batch", "8");
    assert_rejected(env!("CARGO_BIN_EXE_runfill"), "--linger-ms", "5");
    assert_rejected(env!("CARGO_BIN_EXE_runfill"), "--retries", "1");
}

#[test]
fn neurfill_serve_rejects_the_removed_flags() {
    assert_rejected(env!("CARGO_BIN_EXE_neurfill-serve"), "--numerics", "fast");
    assert_rejected(env!("CARGO_BIN_EXE_neurfill-serve"), "--backend", "quant");
    assert_rejected(env!("CARGO_BIN_EXE_neurfill-serve"), "--retries", "1");
}

/// Runs `bin` with a bundle path that does not exist plus `args`, and
/// asserts the refusal: exit 2, the flag named with the bad value, usage,
/// and nothing read or started.
fn assert_refused_value(bin: &str, args: &[&str], flag: &str) {
    let out = Command::new(bin).args(["--model", "missing.bundle"]).args(args).output().unwrap();
    let (stdout, stderr) = (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stdout}{stderr}");
    assert!(stderr.contains(&format!("for {flag}:")), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: "), "{args:?}: {stderr}");
    assert!(stdout.is_empty(), "{args:?}: the run must not have started: {stdout}");
}

#[test]
fn runfill_refuses_numbers_that_would_panic() {
    let bin = env!("CARGO_BIN_EXE_runfill");
    for secs in ["-1", "nan", "inf", "1e300"] {
        assert_refused_value(bin, &["--layouts", "missing", "--timeout-s", secs], "--timeout-s");
    }
    assert_refused_value(bin, &["--full-chip", "--rows", "0", "--cols", "8"], "--rows");
    assert_refused_value(bin, &["--full-chip", "--rows", "8", "--cols", "0"], "--cols");
}

#[test]
fn neurfill_serve_refuses_numbers_that_would_panic_or_disable_the_canary() {
    let bin = env!("CARGO_BIN_EXE_neurfill-serve");
    for secs in ["-1", "nan", "inf"] {
        assert_refused_value(bin, &["--timeout-s", secs], "--timeout-s");
        assert_refused_value(bin, &["--drain-timeout-s", secs], "--drain-timeout-s");
    }
    for tol in ["nan", "-0.5"] {
        assert_refused_value(bin, &["--canary-sigma-tol", tol], "--canary-sigma-tol");
    }
}

#[test]
fn runfill_refuses_a_fault_plan_with_an_unknown_site_before_any_job_starts() {
    let out_dir = std::env::temp_dir().join(format!("neurfill_cli_fault_site_{}", std::process::id()));
    let run = |plan: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_runfill"))
            .args(["--full-chip", "--rows", "8", "--cols", "8", "--tile-size", "8", "--out"])
            .arg(&out_dir)
            .args(["--fault-plan", plan])
            .output()
            .unwrap();
        let (stdout, stderr) =
            (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
        assert_eq!(out.status.code(), Some(1), "{stdout}{stderr}");
        assert!(stderr.contains("unknown fault site"), "{stderr}");
        assert!(stderr.contains("verify_forward") && stderr.contains("synthesis"), "{stderr}");
        assert!(!stdout.contains("full chip"), "the run must not have started: {stdout}");
    };
    run("batch_forward=nan");
    run("synthesys=panic");
    run("tile_dispatch=panic");
    run("conn_drop=transient");
    let _ = std::fs::remove_dir_all(&out_dir);
}

#[test]
fn both_binaries_refuse_a_bad_fault_plan_before_reading_the_model_bundle() {
    let dir = std::env::temp_dir().join(format!("neurfill_cli_plan_first_{}", std::process::id()));
    let layouts = dir.join("layouts");
    std::fs::create_dir_all(&layouts).unwrap();
    let layout = &abc()[0];
    layout_io::save_to_file(layout, layouts.join(format!("{}.layout", layout.name()))).unwrap();
    let model = dir.join("missing.bundle");
    let runfill = Command::new(env!("CARGO_BIN_EXE_runfill"))
        .arg("--model")
        .arg(&model)
        .arg("--layouts")
        .arg(&layouts)
        .arg("--out")
        .arg(dir.join("out"))
        .args(["--fault-plan", "shard_read=crash@1"])
        .output()
        .unwrap();
    let serve = Command::new(env!("CARGO_BIN_EXE_neurfill-serve"))
        .arg("--model")
        .arg(&model)
        .args(["--addr", "127.0.0.1:0", "--fault-plan", "shard_read=crash@1"])
        .output()
        .unwrap();
    for (bin, out) in [("runfill", runfill), ("neurfill-serve", serve)] {
        let (stdout, stderr) =
            (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
        assert_eq!(out.status.code(), Some(1), "{bin}: {stdout}{stderr}");
        assert!(stderr.contains("unknown fault site"), "{bin}: {stderr}");
        assert!(!stdout.contains("model bundle"), "{bin} read the bundle first: {stdout}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn runfill_refuses_full_chip_over_connect() {
    let out = Command::new(env!("CARGO_BIN_EXE_runfill"))
        .args(["--full-chip", "--rows", "8", "--cols", "8", "--connect", "127.0.0.1:1"])
        .output()
        .unwrap();
    let (stdout, stderr) = (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    assert_eq!(out.status.code(), Some(2), "{stdout}{stderr}");
    assert!(stderr.contains("cannot be combined with --connect"), "{stderr}");
    assert!(stdout.is_empty(), "the run must not have started: {stdout}");
    let full_chip_usage = stderr.split("runfill --full-chip").nth(1).expect("usage lists --full-chip");
    assert!(!full_chip_usage.contains("--connect"), "usage must not advertise it: {stderr}");
}

#[test]
fn runfill_refuses_a_fault_plan_over_connect() {
    let out = Command::new(env!("CARGO_BIN_EXE_runfill"))
        .args(["--connect", "127.0.0.1:1", "--layouts", "missing", "--fault-plan", "synthesis=panic"])
        .output()
        .unwrap();
    let (stdout, stderr) = (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
    assert_eq!(out.status.code(), Some(2), "{stdout}{stderr}");
    assert!(stderr.contains("--fault-plan injects in-process"), "{stderr}");
    assert!(stdout.is_empty(), "the run must not have started: {stdout}");
}

#[test]
fn runfill_full_chip_pool_injects_its_fault_plan() {
    let dir = std::env::temp_dir().join(format!("neurfill_cli_chip_fault_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let model = dir.join("m.bundle");
    neurfill::persist::save_to_file(&untrained_network(), &model).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_runfill"))
        .args(["--full-chip", "--rows", "8", "--cols", "8", "--tile-size", "8", "--fast"])
        .args(["--fault-plan", "synthesis=panic", "--model"])
        .arg(&model)
        .arg("--out")
        .arg(&dir)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("tiles_failed 1"), "the drill must reach the tile's synthesis: {stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn runfill_fails_a_transient_faulted_job_once_and_completes_the_rest() {
    let dir = std::env::temp_dir().join(format!("neurfill_cli_transient_{}", std::process::id()));
    let layouts_dir = dir.join("layouts");
    std::fs::create_dir_all(&layouts_dir).unwrap();
    let model = dir.join("m.bundle");
    neurfill::persist::save_to_file(&untrained_network(), &model).unwrap();
    for layout in &abc() {
        layout_io::save_to_file(layout, layouts_dir.join(format!("{}.layout", layout.name()))).unwrap();
    }

    let out = Command::new(env!("CARGO_BIN_EXE_runfill"))
        .args(["--workers", "1", "--fast", "--fault-plan", "synthesis=transient@1", "--model"])
        .arg(&model)
        .arg("--layouts")
        .arg(&layouts_dir)
        .arg("--out")
        .arg(dir.join("out"))
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("jobs: 3 submitted, 2 completed, 1 failed"), "{stdout}");
    assert_eq!(stdout.matches("transient fault injected at 'synthesis'").count(), 2, "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_written_plan_reverifies_to_the_jobs_quality_bit_for_bit() {
    let dir = std::env::temp_dir().join(format!("neurfill_cli_plan_bits_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bundle = Arc::new(ModelBundle::from_network(&untrained_network()).unwrap());
    let pool =
        RuntimePool::new(bundle, fast_flow(), PoolOptions { workers: 1, ..PoolOptions::default() })
            .unwrap();
    for layout in abc() {
        let id = pool.submit(JobSpec::new(layout.name(), layout.clone())).unwrap();
        let Some(JobStatus::Done(report)) = pool.wait(id) else { panic!("{} failed", layout.name()) };
        // What `runfill --out` writes as `<name>.plan`.
        let path = dir.join(format!("{}.plan", layout.name()));
        let mut bytes = Vec::new();
        write_plan(PlanShape::of(&layout), report.plan.as_slice(), &mut bytes).unwrap();
        std::fs::write(&path, bytes).unwrap();
        assert_eq!(
            reverified_quality(&layout, &path, &fast_flow()).to_bits(),
            report.quality.to_bits(),
            "{}",
            layout.name()
        );
    }
    let _ = pool.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn runfill_out_plans_reverify_to_the_reported_quality() {
    let dir = std::env::temp_dir().join(format!("neurfill_cli_plan_out_{}", std::process::id()));
    let (layouts_dir, out_dir) = (dir.join("layouts"), dir.join("out"));
    std::fs::create_dir_all(&layouts_dir).unwrap();
    let model = dir.join("m.bundle");
    neurfill::persist::save_to_file(&untrained_network(), &model).unwrap();
    let layouts = abc();
    for layout in &layouts {
        layout_io::save_to_file(layout, layouts_dir.join(format!("{}.layout", layout.name()))).unwrap();
    }

    let out = Command::new(env!("CARGO_BIN_EXE_runfill"))
        .args(["--workers", "1", "--fast", "--model"])
        .arg(&model)
        .arg("--layouts")
        .arg(&layouts_dir)
        .arg("--out")
        .arg(&out_dir)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}{}", String::from_utf8_lossy(&out.stderr));

    for layout in &layouts {
        let report =
            std::fs::read_to_string(out_dir.join(format!("{}.report.txt", layout.name()))).unwrap();
        let printed = report.lines().find_map(|l| l.strip_prefix("quality ")).expect("a quality line");
        let quality =
            reverified_quality(layout, &out_dir.join(format!("{}.plan", layout.name())), &fast_flow());
        assert_eq!(format!("{quality:.6}"), printed, "{}", layout.name());
    }
    let _ = std::fs::remove_dir_all(&dir);
}
