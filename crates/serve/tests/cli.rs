//! The `--numerics` and `--backend` flags went away with the fast GEMM
//! tier and the int8 backend, the two batching flags with the batch
//! server; a script that still passes one must fail loudly (exit 2
//! and usage), never run on the only path as if it had been honoured.
//! The same goes for a fault plan naming a site that does not exist (or
//! one nothing injects at any more), or one the run never hands to the
//! pool: a drill that injects nothing must not report success. And
//! `--full-chip` runs in-process only: asking it to `--connect` to a
//! server must be refused, not quietly ignored.

use std::process::Command;

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
}

#[test]
fn neurfill_serve_rejects_the_removed_flags() {
    assert_rejected(env!("CARGO_BIN_EXE_neurfill-serve"), "--numerics", "fast");
    assert_rejected(env!("CARGO_BIN_EXE_neurfill-serve"), "--backend", "quant");
}

#[test]
fn runfill_refuses_a_fault_plan_with_an_unknown_site_before_any_job_starts() {
    let out_dir = std::env::temp_dir().join(format!("neurfill_cli_fault_site_{}", std::process::id()));
    let run = |flag: Option<&str>, env: Option<&str>| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_runfill"));
        cmd.args(["--full-chip", "--rows", "8", "--cols", "8", "--tile-size", "8", "--out"])
            .arg(&out_dir)
            .env_remove("NEURFILL_FAULT_PLAN");
        if let Some(plan) = flag {
            cmd.args(["--fault-plan", plan]);
        }
        if let Some(plan) = env {
            cmd.env("NEURFILL_FAULT_PLAN", plan);
        }
        let out = cmd.output().unwrap();
        let (stdout, stderr) =
            (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
        assert_eq!(out.status.code(), Some(1), "{stdout}{stderr}");
        assert!(stderr.contains("unknown fault site"), "{stderr}");
        assert!(stderr.contains("verify_forward") && stderr.contains("synthesis"), "{stderr}");
        assert!(!stdout.contains("full chip"), "the run must not have started: {stdout}");
    };
    run(Some("batch_forward=nan"), None);
    run(None, Some("synthesys=panic"));
    run(Some("tile_dispatch=panic"), None);
    run(None, Some("conn_drop=transient"));
    let _ = std::fs::remove_dir_all(&out_dir);
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
fn runfill_full_chip_pool_injects_its_fault_plan() {
    use neurfill::extraction::NUM_CHANNELS;
    use neurfill::{CmpNeuralNetwork, CmpNnConfig, HeightNorm};
    use neurfill_nn::{UNet, UNetConfig};
    use rand::SeedableRng;

    let dir = std::env::temp_dir().join(format!("neurfill_cli_chip_fault_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let model = dir.join("m.bundle");
    let config = UNetConfig { in_channels: NUM_CHANNELS, out_channels: 1, base_channels: 4, depth: 2 };
    let unet = UNet::new(config, &mut rand::rngs::StdRng::seed_from_u64(42));
    let network =
        CmpNeuralNetwork::new(unet, HeightNorm::default(), Default::default(), CmpNnConfig::default());
    neurfill::persist::save_to_file(&network, &model).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_runfill"))
        .args(["--full-chip", "--rows", "8", "--cols", "8", "--tile-size", "8", "--fast"])
        .args(["--fault-plan", "synthesis=panic", "--model"])
        .arg(&model)
        .arg("--out")
        .arg(&dir)
        .env_remove("NEURFILL_FAULT_PLAN")
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("tiles_failed 1"), "the drill must reach the tile's synthesis: {stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}
