//! `nfbench`: one stage-attributed benchmark for the fill job, the service
//! and the full-chip run.
//!
//! ```text
//! nfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out <file>]
//! nfbench compare <a> <b>
//! nfbench manifest
//! ```
//!
//! A run prints every metric by name and unit, checks its outputs, writes
//! its record (and, traced, its spans) under `nfbench/out/`, and ends with
//! one JSON line `{correct, attempted, failed, metrics}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. It
//! exits non-zero when a correctness check fails. See README.md.

mod bench;
mod compare;
mod digest;
mod host;
mod json;
mod metrics;
mod probes;
mod stats;
mod trace;
mod workloads;

use bench::{Args, Ctx, Outcome};
use json::Value;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

const USAGE: &str = "usage: nfbench --workload <flow_abc|serve_burst|chip_nn|chip_golden> [--seed N] [--seconds S] \
                     [--trace 0|1] [--smoke] [--out FILE]\n       nfbench compare <a> <b>\n       nfbench manifest";

fn parse_args(argv: &[String]) -> Result<(Args, Option<PathBuf>), String> {
    let mut args = Args {
        workload: String::new(),
        seed: bench::DEFAULT_SEED,
        seconds: f64::from(metrics::RUN_SECONDS),
        trace: false,
        smoke: false,
    };
    let mut out = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => {
                args.seed = value()?.parse().map_err(|_| "--seed takes a whole number".to_string())?
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes a number".to_string())?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !metrics::WORKLOADS.iter().any(|w| w.0 == args.workload) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok((args, out))
}

/// Nanoseconds one span costs, measured on a tracer of its own.
fn span_cost_ns() -> f64 {
    const N: u32 = 20_000;
    let tracer = Tracer::new(true);
    let t = Instant::now();
    for _ in 0..N {
        tracer.time("nfbench", "nfbench.cost", trace::NO_JOB, || ());
    }
    t.elapsed().as_nanos() as f64 / f64::from(N)
}

fn metric(value: f64, unit: &str) -> Value {
    Value::obj([("value", Value::Num(value)), ("unit", unit.into())])
}

/// The end-to-end metrics of a run, in table order.
fn end_to_end(out: &Outcome) -> Vec<(&'static str, f64)> {
    metrics::END_TO_END
        .iter()
        .map(|&(name, ..)| {
            let value = match name {
                "setup_s" => out.setup_s,
                "wall_s" => out.wall_s,
                "windows_per_s" => out.windows as f64 / out.wall_s,
                "job_s.p50" => stats::median(&out.job_s),
                "quality_mean" => stats::mean(&out.quality),
                "peak_rss_mib" => out.peak_rss_mib,
                other => unreachable!("end-to-end metric {other} has no source"),
            };
            (name, value)
        })
        .collect()
}

/// The per-layer metrics of a traced run, in table order: what the
/// workload measured, the layers' self times from its spans, and 0 for
/// every layer it does not touch.
fn per_layer(out: &Outcome, spans: &[trace::Span]) -> Vec<(&'static str, f64)> {
    let (from, to) = trace::timed_window(spans);
    let own = trace::layer_self_seconds(spans, from, to);
    let in_window = spans.iter().filter(|s| s.start_ns >= from && s.end_ns <= to).count();
    metrics::PER_LAYER
        .iter()
        .map(|&(name, ..)| {
            let value = match (name, name.strip_suffix(".self_s")) {
                (_, Some(layer)) => own.get(layer).copied().unwrap_or(0.0),
                ("obs.spans", _) => in_window as f64,
                ("obs.trace_overhead_share", _) => in_window as f64 * span_cost_ns() / 1e9 / out.wall_s,
                _ => out.layer.get(name).copied().unwrap_or(0.0),
            };
            (name, value)
        })
        .collect()
}

fn unit_of(name: &str) -> &'static str {
    metrics::END_TO_END
        .iter()
        .map(|m| (m.0, m.1))
        .chain(metrics::PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|m| m.0 == name)
        .map_or("", |m| m.1)
}

fn metrics_object(values: &[(&'static str, f64)]) -> Value {
    Value::obj(values.iter().map(|&(name, v)| (name, metric(v, unit_of(name)))))
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run(args: &Args, append_to: Option<&Path>, start: Instant) -> Result<bool, String> {
    let dir = out_dir();
    let scratch = dir.join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let tracer = Tracer::new(args.trace);
    // One busy thread in set-up too: training's batch GEMMs are the one
    // place the default budget (the host's cores) would start a second
    // thread. Results are bit-identical at every budget, and set-up took
    // the same 13 s at one thread and at two.
    neurfill_tensor::kernels::set_gemm_threads(bench::TIMED_WORKERS);
    let ctx = Ctx { args, tracer: &tracer, start, nproc: host::nproc(), scratch: scratch.clone() };
    let result = match args.workload.as_str() {
        "flow_abc" => workloads::flow_abc::run(&ctx),
        "serve_burst" => workloads::serve_burst::run(&ctx),
        "chip_nn" => workloads::chip::run_nn(&ctx),
        _ => workloads::chip::run_golden(&ctx),
    };
    // The scratch directory goes whether or not the workload succeeded.
    let _ = std::fs::remove_dir_all(&scratch);
    let out = result?;

    let spans = tracer.spans();
    let e2e = end_to_end(&out);
    let layers = if args.trace { per_layer(&out, &spans) } else { Vec::new() };
    let reported = if args.trace { &layers } else { &e2e };
    let finite = reported.iter().all(|(_, v)| v.is_finite());
    let correct = out.failed == 0 && out.checks.iter().all(|c| c.ok) && finite && out.attempted >= 1;

    println!(
        "nfbench {} seed {} seconds {} trace {}{}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.smoke { " smoke" } else { "" }
    );
    for c in &out.checks {
        println!("check {:<4} {} ({})", if c.ok { "ok" } else { "FAIL" }, c.name, c.detail);
    }
    println!(
        "jobs attempted {} failed {} fail_share {}",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    let tail = stats::tail_percentile(out.job_s.len()).map_or("none".to_string(), |p| format!("p{p}"));
    println!("job_s samples {} (highest percentile with 10 samples beyond it: {tail})", out.job_s.len());
    for (name, v) in &e2e {
        println!(
            "{name:<34} {v:>16.6} {}{}",
            unit_of(name),
            if args.trace { "  (traced run: not an end-to-end figure)" } else { "" }
        );
    }
    for (name, v) in &layers {
        println!("{name:<34} {v:>16.6} {}", unit_of(name));
    }

    let stem = format!("{}.seed{}.trace{}", args.workload, args.seed, u8::from(args.trace));
    let mut record = vec![
        ("benchmark", Value::str("nfbench")),
        ("workload", args.workload.as_str().into()),
        ("seconds", Value::Num(args.seconds)),
        ("trace", args.trace.into()),
        ("smoke", args.smoke.into()),
        ("correct", correct.into()),
        ("attempted", out.attempted.into()),
        ("failed", out.failed.into()),
        ("job_samples", out.job_s.len().into()),
        ("host", host::host_block(args.seed, bench::TIMED_WORKERS)),
        (
            "checks",
            Value::Arr(
                out.checks
                    .iter()
                    .map(|c| {
                        Value::obj([
                            ("name", Value::str(c.name)),
                            ("ok", c.ok.into()),
                            ("detail", c.detail.as_str().into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("facts", Value::obj(out.facts.iter().cloned())),
        ("end_to_end", metrics_object(&e2e)),
    ];
    if args.trace {
        record.push(("per_layer", metrics_object(&layers)));
        let path = dir.join(format!("{stem}.spans.jsonl"));
        let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        trace::write_jsonl(&spans, std::io::BufWriter::new(file))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans {} -> {}", spans.len(), path.display());
    }
    let record = Value::obj(record);
    let path = dir.join(format!("{stem}.json"));
    std::fs::write(&path, format!("{record}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("record -> {}", path.display());
    if let Some(path) = append_to {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        writeln!(file, "{record}").map_err(|e| format!("{}: {e}", path.display()))?;
    }

    println!(
        "{}",
        Value::obj([
            ("correct", Value::Bool(correct)),
            ("attempted", out.attempted.into()),
            ("failed", out.failed.into()),
            ("metrics", metrics_object(reported)),
        ])
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("compare") if argv.len() == 3 => compare::run(Path::new(&argv[1]), Path::new(&argv[2])),
        Some("manifest") if argv.len() == 1 => {
            println!("{}", metrics::manifest());
            Ok(true)
        }
        Some("compare" | "manifest") | None => Err(USAGE.to_string()),
        Some(_) => parse_args(&argv).and_then(|(args, out)| run(&args, out.as_deref(), start)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("nfbench: {e}");
            ExitCode::from(2)
        }
    }
}
