//! `neurfill-serve` — the multi-tenant fill-synthesis service.
//!
//! ```text
//! neurfill-serve --model surrogate.bundle [--addr 127.0.0.1:7171]
//!                [--tenant name[:weight[:capacity]]]... [--default-tenant NAME]
//!                [--workers N] [--slots N] [--timeout-s S]
//!                [--canary-samples N] [--canary-sigma-tol T]
//!                [--drain-timeout-s S] [--metrics-out metrics.jsonl]
//!                [--journal DIR] [--fault-plan SPEC] [--fault-seed N] [--fast]
//! ```
//!
//! Runs until `POST /v1/admin/shutdown` drains it; `--metrics-out` then
//! flushes the final metrics snapshot (schema-v1 JSONL) before exit.
//! Tenants default to a single `default:1:64` when none are given.
//!
//! `--journal DIR` turns on the crash-durable write-ahead job journal:
//! every acknowledged submission, dispatch and terminal transition is
//! appended to `DIR/jobs.nflog` before the client sees it, and a
//! restarted server replays the journal — re-queueing interrupted jobs
//! and serving recovered results with a `recovered true` status line.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use neurfill::pipeline::FlowConfig;
use neurfill_cmpsim::ProcessParams;
use neurfill_runtime::{FaultPlan, ModelBundle, PoolOptions};
use neurfill_serve::{CanaryConfig, FillService, Server, ServerConfig, ServiceConfig, TenantConfig};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    model: PathBuf,
    addr: String,
    tenants: Vec<TenantConfig>,
    default_tenant: Option<String>,
    workers: usize,
    slots: usize,
    timeout: Option<Duration>,
    canary_samples: usize,
    canary_sigma_tol: Option<f64>,
    drain_timeout: Duration,
    metrics_out: Option<PathBuf>,
    journal: Option<PathBuf>,
    fault_plan: Option<String>,
    fault_seed: u64,
    fast: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: neurfill-serve --model <bundle> [--addr HOST:PORT]\n\
         \x20      [--tenant name[:weight[:capacity]]]... [--default-tenant NAME]\n\
         \x20      [--workers N] [--slots N] [--timeout-s S]\n\
         \x20      [--canary-samples N] [--canary-sigma-tol T] [--drain-timeout-s S]\n\
         \x20      [--metrics-out <file>] [--journal DIR]\n\
         \x20      [--fault-plan SPEC] [--fault-seed N] [--fast]"
    );
    std::process::exit(2);
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("bad value {s:?} for {flag}");
        usage()
    })
}

/// A duration in seconds, refusing a negative, NaN or infinite value (or
/// one too large for a `Duration`), on which `Duration::from_secs_f64`
/// panics.
fn parse_secs(s: &str, flag: &str) -> Duration {
    Duration::try_from_secs_f64(parse_num(s, flag)).unwrap_or_else(|_| {
        eprintln!("bad value {s:?} for {flag}: expected a finite number of seconds >= 0");
        usage()
    })
}

/// The canary's relative sigma tolerance. A NaN would turn the check off
/// (`d > NaN` is false) and a negative one would refuse every model, so
/// both are refused here.
fn parse_tolerance(s: &str) -> f64 {
    let flag = "--canary-sigma-tol";
    let tol: f64 = parse_num(s, flag);
    if tol.is_nan() || tol < 0.0 {
        eprintln!("bad value {s:?} for {flag}: expected a number >= 0");
        usage()
    }
    tol
}

fn parse_args() -> Args {
    let mut args = Args {
        model: PathBuf::new(),
        addr: "127.0.0.1:7171".to_string(),
        tenants: Vec::new(),
        default_tenant: None,
        workers: 0,
        slots: 0,
        timeout: None,
        canary_samples: 4,
        canary_sigma_tol: None,
        drain_timeout: Duration::from_secs(30),
        metrics_out: None,
        journal: None,
        fault_plan: None,
        fault_seed: 0,
        fast: false,
    };
    let mut it = std::env::args().skip(1);
    let value = |it: &mut dyn Iterator<Item = String>, flag: &str| {
        it.next().unwrap_or_else(|| {
            eprintln!("missing value for {flag}");
            usage()
        })
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--model" => args.model = value(&mut it, "--model").into(),
            "--addr" => args.addr = value(&mut it, "--addr"),
            "--tenant" => {
                let spec = value(&mut it, "--tenant");
                match TenantConfig::parse(&spec) {
                    Ok(t) => args.tenants.push(t),
                    Err(e) => {
                        eprintln!("{e}");
                        usage();
                    }
                }
            }
            "--default-tenant" => args.default_tenant = Some(value(&mut it, "--default-tenant")),
            "--workers" => args.workers = parse_num(&value(&mut it, "--workers"), "--workers"),
            "--slots" => args.slots = parse_num(&value(&mut it, "--slots"), "--slots"),
            "--timeout-s" => {
                args.timeout = Some(parse_secs(&value(&mut it, "--timeout-s"), "--timeout-s"))
            }
            "--canary-samples" => {
                args.canary_samples = parse_num(&value(&mut it, "--canary-samples"), "--canary-samples")
            }
            "--canary-sigma-tol" => {
                args.canary_sigma_tol = Some(parse_tolerance(&value(&mut it, "--canary-sigma-tol")))
            }
            "--drain-timeout-s" => {
                args.drain_timeout =
                    parse_secs(&value(&mut it, "--drain-timeout-s"), "--drain-timeout-s")
            }
            "--metrics-out" => args.metrics_out = Some(value(&mut it, "--metrics-out").into()),
            "--journal" => args.journal = Some(value(&mut it, "--journal").into()),
            "--fault-plan" => args.fault_plan = Some(value(&mut it, "--fault-plan")),
            "--fault-seed" => {
                args.fault_seed = parse_num(&value(&mut it, "--fault-seed"), "--fault-seed")
            }
            "--fast" => args.fast = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
    }
    if args.model.as_os_str().is_empty() {
        usage();
    }
    args
}

fn run() -> Result<(), String> {
    let args = parse_args();

    // A bad fault plan is refused before any file is read.
    let fault = match &args.fault_plan {
        Some(spec) => FaultPlan::parse(spec, args.fault_seed)?,
        None => FaultPlan::disabled(),
    };
    if fault.is_enabled() {
        println!("fault injection enabled (seed {})", args.fault_seed);
    }

    let bundle = ModelBundle::load(&args.model)
        .map(Arc::new)
        .map_err(|e| format!("loading {}: {e}", args.model.display()))?;
    println!("model bundle {} (digest {:016x})", args.model.display(), bundle.digest());

    let process = if args.fast { ProcessParams::fast() } else { ProcessParams::default() };
    let flow = FlowConfig { process, ..FlowConfig::default() };
    let service = FillService::start(
        bundle,
        ServiceConfig {
            tenants: args.tenants.clone(),
            default_tenant: args.default_tenant.clone(),
            slots: args.slots,
            drain_timeout: args.drain_timeout,
            canary: CanaryConfig {
                samples: args.canary_samples,
                max_rel_sigma_disagreement: args.canary_sigma_tol,
                ..CanaryConfig::default()
            },
            flow,
            journal: args.journal.clone(),
            pool: PoolOptions {
                workers: args.workers,
                default_timeout: args.timeout,
                fault: Arc::new(fault),
            },
            ..ServiceConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;

    let server = Server::bind(
        service.clone(),
        &ServerConfig { addr: args.addr.clone(), ..ServerConfig::default() },
    )
    .map_err(|e| format!("binding {}: {e}", args.addr))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    println!("serving tenants [{}] on http://{addr}", service.tenant_names().join(", "));
    println!("POST /v1/admin/shutdown drains and exits");

    server.run().map_err(|e| e.to_string())?;
    // `run` returns only after the shutdown endpoint drained the service.
    if let Some(path) = &args.metrics_out {
        service
            .telemetry()
            .snapshot()
            .write_jsonl_file(path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    println!("drained; bye");
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("neurfill-serve: {e}");
            ExitCode::FAILURE
        }
    }
}
