//! The `--numerics` and `--backend` flags went away with the fast GEMM
//! tier and the int8 backend; a script that still passes one must fail
//! loudly (exit 2 + usage), never run on the only path as if it had been
//! honoured.

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
}

#[test]
fn neurfill_serve_rejects_the_removed_flags() {
    assert_rejected(env!("CARGO_BIN_EXE_neurfill-serve"), "--numerics", "fast");
    assert_rejected(env!("CARGO_BIN_EXE_neurfill-serve"), "--backend", "quant");
}
