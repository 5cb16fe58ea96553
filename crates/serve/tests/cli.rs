//! The `--numerics` and `--backend` flags went away with the fast GEMM
//! tier and the int8 backend, the two batching flags with the batch
//! server; a script that still passes one must fail loudly (exit 2
//! and usage), never run on the only path as if it had been honoured.
//! The same goes for a fault plan naming a site that does not exist: a
//! drill that injects nothing must not report success.

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
    let _ = std::fs::remove_dir_all(&out_dir);
}
