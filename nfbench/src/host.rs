//! The `host` block every record carries: what machine and build produced
//! the numbers, so a scaling figure is never read off a host that cannot
//! show scaling.

use crate::json::Value;
use std::process::Command;

/// Load-generating threads and pool workers: the cores the host offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn cpuinfo_field(cpuinfo: &str, key: &str) -> Option<String> {
    cpuinfo
        .lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split(':').nth(1))
        .map(|v| v.trim().to_string())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    // Git must not look for a repository above the checkout.
    let out = Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", checkout_parent())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

fn checkout_parent() -> std::path::PathBuf {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    root.canonicalize().ok().and_then(|r| r.parent().map(std::path::Path::to_path_buf)).unwrap_or(root)
}

/// The checkout's commit, or `unknown` outside a git repository (the
/// acceptance driver runs from a plain directory).
fn git_rev() -> String {
    command_line("git", &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "--short=12", "HEAD"])
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn host_block(seed: u64, pool_workers: usize) -> Value {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let flags = cpuinfo_field(&cpuinfo, "flags").unwrap_or_default();
    let has = |flag: &str| flags.split_ascii_whitespace().any(|f| f == flag);
    Value::obj([
        ("nproc", Value::from(nproc())),
        ("cpu_model", cpuinfo_field(&cpuinfo, "model name").unwrap_or_else(|| "unknown".into()).into()),
        ("avx2", has("avx2").into()),
        ("fma", has("fma").into()),
        ("avx512f", has("avx512f").into()),
        ("numerics_tier", format!("{:?}", neurfill_tensor::numerics_tier()).into()),
        ("backend", format!("{:?}", neurfill_tensor::backend()).into()),
        ("gemm_threads", Value::from(neurfill_tensor::kernels::gemm_threads())),
        ("pool_workers", Value::from(pool_workers)),
        ("rustc", command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()).into()),
        ("git_rev", git_rev().into()),
        ("seed", Value::from(seed)),
    ])
}
