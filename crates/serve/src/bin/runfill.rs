//! `runfill` — fan a directory of layouts across the concurrent
//! fill-synthesis pool and write one report per layout, either in-process
//! or through a running `neurfill-serve` instance.
//!
//! ```text
//! runfill --model surrogate.bundle --layouts designs/ [--out reports/]
//!         [--workers N] [--timeout-s S] [--retries N]
//!         [--fault-plan SPEC] [--fault-seed N] [--fast] [--init-demo N]
//!         [--metrics-out metrics.jsonl]
//! runfill --connect HOST:PORT --layouts designs/ [--out reports/]
//!         [--tenant NAME] [--priority high|normal|low] [--timeout-s S]
//! runfill --full-chip [--design A|B|C] [--tile-size N] [--rows R] [--cols C]
//!         [--seed S] [--out reports/] [--workers N] [--fast]
//!         [--model surrogate.bundle | --connect HOST:PORT] [--max-in-flight K]
//! ```
//!
//! `--connect` switches to client mode: jobs are submitted to a running
//! `neurfill-serve` over HTTP, sharing the exact wire format the server
//! speaks (the body of a submission *is* the on-disk layout file). The
//! report files written are identical between the two modes.
//!
//! `--full-chip` runs the sharded full-chip flow on a hash-generated
//! design instead of a layout directory. Without a model it is the
//! deterministic golden flow (simulate → model fill → verify, all
//! sharded with halo exchange); with `--model` the halo-padded tiles
//! stream through a local runtime pool as NN synthesis jobs; with
//! `--connect` they stream through a running `neurfill-serve`, each
//! tile's plan fetched over `GET /v1/jobs/{id}/plan` and merged
//! client-side. At most `--max-in-flight` tiles are resident at once.
//!
//! `--metrics-out` enables telemetry and writes the run's metrics snapshot
//! (simulator stage timings, per-job spans, runtime counters, fault
//! events) as JSONL after all jobs finish (in-process mode only).
//!
//! `--init-demo N` bootstraps a working directory: generates `N` benchmark
//! layouts into `--layouts` and, when the `--model` file is missing, trains
//! a small surrogate and saves it there — enough to exercise the full
//! runtime end to end on a fresh checkout.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use neurfill::extraction::NUM_CHANNELS;
use neurfill::pipeline::FlowConfig;
use neurfill::surrogate::{train_surrogate, SurrogateConfig};
use neurfill_chip::{
    chip_run_meta, run_full_chip, synthesize_tiles_checkpointed, ChipFillConfig, ChipFillPlan,
    ChipRunConfig, ChipSimConfig, TileCheckpoint, TileJobOptions,
};
use neurfill_cmpsim::{CmpSimulator, ProcessParams};
use neurfill_layout::datagen::DataGenConfig;
use neurfill_layout::{
    benchmark_designs, io as layout_io, DesignKind, DesignSpec, FullChipDesign, FullChipSpec, Tiling,
};
use neurfill_nn::{TrainConfig, UNetConfig};
use neurfill_runtime::{
    FaultPlan, JobSpec, JobStatus, ModelRegistry, PoolOptions, RetryPolicy, RuntimePool,
};
use neurfill_serve::{
    synthesize_chip_remote, ChipClientOptions, Client, FailoverConfig, JobRequest, Priority,
};
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    model: PathBuf,
    layouts: PathBuf,
    out: Option<PathBuf>,
    connect: Option<String>,
    tenant: Option<String>,
    priority: Priority,
    workers: usize,
    timeout: Option<Duration>,
    retries: u32,
    fault_plan: Option<String>,
    fault_seed: u64,
    fast: bool,
    init_demo: usize,
    metrics_out: Option<PathBuf>,
    full_chip: bool,
    checkpoint: Option<PathBuf>,
    design: DesignKind,
    tile_size: usize,
    rows: usize,
    cols: usize,
    seed: u64,
    explicit_dims: bool,
    max_in_flight: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: runfill --model <bundle> --layouts <dir> [--out <dir>] [--workers N]\n\
         \x20             [--timeout-s S] [--retries N] [--fault-plan SPEC] [--fault-seed N]\n\
         \x20             [--fast] [--init-demo N] [--metrics-out <file>]\n\
         \x20      runfill --connect HOST:PORT --layouts <dir> [--out <dir>]\n\
         \x20             [--tenant NAME] [--priority high|normal|low] [--timeout-s S]\n\
         \x20      runfill --full-chip [--design A|B|C] [--tile-size N] [--rows R]\n\
         \x20             [--cols C] [--seed S] [--out <dir>] [--workers N] [--fast]\n\
         \x20             [--model <bundle> | --connect HOST:PORT] [--max-in-flight K]\n\
         \x20             [--checkpoint <dir>] [--fault-plan SPEC] [--fault-seed N]"
    );
    std::process::exit(2);
}

fn parse_design(s: &str) -> DesignKind {
    match s {
        "A" | "a" => DesignKind::CmpTest,
        "B" | "b" => DesignKind::Fpga,
        "C" | "c" => DesignKind::RiscV,
        other => {
            eprintln!("unknown design {other:?} (expected A, B or C)");
            usage()
        }
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        model: PathBuf::new(),
        layouts: PathBuf::new(),
        out: None,
        connect: None,
        tenant: None,
        priority: Priority::Normal,
        workers: 0,
        timeout: None,
        retries: 0,
        fault_plan: None,
        fault_seed: 0,
        fast: false,
        init_demo: 0,
        metrics_out: None,
        full_chip: false,
        checkpoint: None,
        design: DesignKind::RiscV,
        tile_size: 32,
        rows: 32,
        cols: 32,
        seed: 0,
        explicit_dims: false,
        max_in_flight: 4,
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
            "--layouts" => args.layouts = value(&mut it, "--layouts").into(),
            "--out" => args.out = Some(value(&mut it, "--out").into()),
            "--connect" => args.connect = Some(value(&mut it, "--connect")),
            "--tenant" => args.tenant = Some(value(&mut it, "--tenant")),
            "--priority" => match Priority::parse(&value(&mut it, "--priority")) {
                Ok(p) => args.priority = p,
                Err(e) => {
                    eprintln!("{e}");
                    usage();
                }
            },
            "--workers" => args.workers = parse_num(&value(&mut it, "--workers"), "--workers"),
            "--timeout-s" => {
                args.timeout = Some(Duration::from_secs_f64(parse_num(
                    &value(&mut it, "--timeout-s"),
                    "--timeout-s",
                )))
            }
            "--retries" => args.retries = parse_num(&value(&mut it, "--retries"), "--retries"),
            "--fault-plan" => args.fault_plan = Some(value(&mut it, "--fault-plan")),
            "--fault-seed" => {
                args.fault_seed = parse_num(&value(&mut it, "--fault-seed"), "--fault-seed")
            }
            "--full-chip" => args.full_chip = true,
            "--checkpoint" => args.checkpoint = Some(value(&mut it, "--checkpoint").into()),
            "--design" => args.design = parse_design(&value(&mut it, "--design")),
            "--tile-size" => args.tile_size = parse_num(&value(&mut it, "--tile-size"), "--tile-size"),
            "--rows" => {
                args.rows = parse_num(&value(&mut it, "--rows"), "--rows");
                args.explicit_dims = true;
            }
            "--cols" => {
                args.cols = parse_num(&value(&mut it, "--cols"), "--cols");
                args.explicit_dims = true;
            }
            "--seed" => args.seed = parse_num(&value(&mut it, "--seed"), "--seed"),
            "--max-in-flight" => {
                args.max_in_flight = parse_num(&value(&mut it, "--max-in-flight"), "--max-in-flight")
            }
            "--fast" => args.fast = true,
            "--init-demo" => args.init_demo = parse_num(&value(&mut it, "--init-demo"), "--init-demo"),
            "--metrics-out" => args.metrics_out = Some(value(&mut it, "--metrics-out").into()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
    }
    if args.full_chip {
        return args; // the chip is generated, not loaded; model is optional
    }
    if args.layouts.as_os_str().is_empty() {
        usage();
    }
    if args.connect.is_none() && args.model.as_os_str().is_empty() {
        usage();
    }
    args
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("bad value {s:?} for {flag}");
        usage()
    })
}

fn init_demo(args: &Args) -> Result<(), String> {
    std::fs::create_dir_all(&args.layouts).map_err(|e| e.to_string())?;
    let kinds = [DesignKind::CmpTest, DesignKind::Fpga, DesignKind::RiscV];
    for i in 0..args.init_demo {
        let kind = kinds[i % kinds.len()];
        let layout = DesignSpec::new(kind, 8, 8, i as u64).generate();
        let path = args.layouts.join(format!("demo_{i:02}_{}.layout", layout.name()));
        layout_io::save_to_file(&layout, &path).map_err(|e| e.to_string())?;
        println!("wrote {}", path.display());
    }
    if !args.model.as_os_str().is_empty() && !args.model.exists() {
        println!("training demo surrogate (small budget)...");
        let sim = CmpSimulator::new(process_params(args))?;
        let sources = benchmark_designs(8, 8, 1);
        let config = SurrogateConfig {
            unet: UNetConfig { in_channels: NUM_CHANNELS, out_channels: 1, base_channels: 4, depth: 2 },
            train: TrainConfig {
                epochs: 2,
                batch_size: 4,
                lr: 2e-3,
                lr_decay: 1.0,
                ..TrainConfig::default()
            },
            num_layouts: 6,
            datagen: DataGenConfig { rows: 8, cols: 8, seed: 1, ..DataGenConfig::default() },
            ..SurrogateConfig::default()
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let trained = train_surrogate(&sources, &sim, &config, &mut rng).map_err(|e| e.to_string())?;
        neurfill::persist::save_to_file(&trained.network, &args.model).map_err(|e| e.to_string())?;
        println!("wrote {}", args.model.display());
    }
    Ok(())
}

fn process_params(args: &Args) -> ProcessParams {
    if args.fast {
        ProcessParams::fast()
    } else {
        ProcessParams::default()
    }
}

fn load_layouts(dir: &Path) -> Result<Vec<(String, neurfill_layout::Layout)>, String> {
    let mut layouts = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if !path.is_file() {
            continue;
        }
        match layout_io::load_from_file(&path) {
            Ok(layout) => {
                let stem = path
                    .file_stem()
                    .map_or_else(|| layout.name().to_string(), |s| s.to_string_lossy().into_owned());
                layouts.push((stem, layout));
            }
            Err(e) => eprintln!("skipping {}: {e}", path.display()),
        }
    }
    // Stable job order regardless of directory iteration order.
    layouts.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(layouts)
}

/// Client mode: submit every layout to a running `neurfill-serve` and
/// collect the reports over HTTP. Same report files as in-process mode.
fn run_remote(
    args: &Args,
    addr: &str,
    layouts: Vec<(String, neurfill_layout::Layout)>,
    out_dir: &Path,
) -> Result<bool, String> {
    let mut client = Client::connect(addr);
    let mut ids = Vec::new();
    for (name, layout) in layouts {
        let mut req = JobRequest::new(name.clone(), layout);
        req.tenant = args.tenant.clone();
        req.priority = args.priority;
        req.timeout = args.timeout;
        let id = client.submit(&req).map_err(|e| format!("submitting {name}: {e}"))?;
        ids.push((name, id));
    }
    println!("submitted {} jobs to {addr}", ids.len());

    let total = ids.len();
    let wait = Some(Duration::from_secs(60));
    let mut failed: Vec<(String, String)> = Vec::new();
    for (name, id) in &ids {
        // Long-poll until terminal; a 202 just means "not yet", so poll on.
        let report = loop {
            match client.result_text(*id, wait) {
                Ok(text) => break Some(text),
                Err(neurfill_serve::ClientError::Http { status: 202, .. }) => {}
                Err(e) => {
                    failed.push((name.clone(), e.to_string()));
                    break None;
                }
            }
        };
        if let Some(text) = report {
            let path = out_dir.join(format!("{name}.report.txt"));
            std::fs::write(&path, text).map_err(|e| e.to_string())?;
            println!("done  {name} -> {}", path.display());
        } else {
            println!("FAIL  {name}");
        }
    }
    if !failed.is_empty() {
        println!("failed {} of {total} jobs:", failed.len());
        for (name, error) in &failed {
            println!("  {name}: {error}");
        }
    }
    Ok(failed.is_empty())
}

/// The generated chip named by the `--full-chip` flags (paper-scale
/// dimensions unless `--rows`/`--cols` were given).
fn chip_design(args: &Args) -> FullChipDesign {
    let spec = if args.explicit_dims {
        FullChipSpec::new(args.design, args.rows, args.cols, args.seed)
    } else {
        FullChipSpec::full_scale(args.design, args.seed)
    };
    spec.build()
}

fn chip_telemetry(args: &Args) -> neurfill::telemetry::Telemetry {
    if args.metrics_out.is_some() {
        neurfill::telemetry::Telemetry::new()
    } else {
        neurfill::telemetry::Telemetry::disabled()
    }
}

/// Effective tile edge (`--tile-size 0` means one whole-chip tile).
fn chip_tile(args: &Args, design: &FullChipDesign) -> usize {
    if args.tile_size == 0 {
        design.rows().max(design.cols())
    } else {
        args.tile_size
    }
}

/// `key value` summary of a tile-synthesis chip pass, in the style of
/// the golden-flow [`neurfill_chip::ChipReport`].
#[allow(clippy::too_many_arguments)]
fn synthesis_summary(
    design: &FullChipDesign,
    tiling: &Tiling,
    tile: usize,
    cap: usize,
    peak: usize,
    resumed: usize,
    failed: usize,
    plan: &ChipFillPlan,
    elapsed: Duration,
) -> String {
    format!(
        "chip {}\nwindows {}x{}x{}\ntile {}\ntiles {}\ntiles_resumed {}\nhalo {}\n\
         in_flight_cap {}\npeak_tiles_in_flight {}\ntiles_failed {}\nfill_total_um2 {:.3}\n\
         synthesis_s {:.3}\n",
        design.name(),
        design.num_layers(),
        design.rows(),
        design.cols(),
        tile,
        tiling.num_tiles(),
        resumed,
        tiling.halo(),
        cap,
        peak,
        failed,
        plan.total(),
        elapsed.as_secs_f64(),
    )
}

fn write_chip_report(out_dir: &Path, design: &FullChipDesign, text: &str) -> Result<(), String> {
    let path = out_dir.join(format!("{}.chip.report.txt", design.name()));
    std::fs::write(&path, text).map_err(|e| e.to_string())?;
    print!("{text}");
    println!("wrote {}", path.display());
    Ok(())
}

/// The fault plan for full-chip runs: the flag, else the environment
/// (`NEURFILL_FAULT_PLAN` / `NEURFILL_FAULT_SEED`), else disabled.
fn chip_fault(args: &Args) -> Result<Arc<FaultPlan>, String> {
    let fault = match &args.fault_plan {
        Some(spec) => FaultPlan::parse(spec, args.fault_seed)?,
        None => FaultPlan::from_env()?,
    };
    if fault.is_enabled() {
        println!("fault injection enabled (seed {})", args.fault_seed);
    }
    Ok(Arc::new(fault))
}

/// `--full-chip --connect`: stream halo-padded tiles through a running
/// `neurfill-serve` with a bounded in-flight window, fetching each
/// tile's plan over `GET /v1/jobs/{id}/plan` and merging client-side.
/// `--checkpoint` makes completed tiles durable/resumable, and adding
/// `--model` arms the local-pool failover rung: if the server becomes
/// unreachable mid-chip, the remaining tiles finish in-process.
fn run_full_chip_remote(args: &Args, addr: &str, out_dir: &Path) -> Result<bool, String> {
    let design = chip_design(args);
    let params = process_params(args);
    let tile = chip_tile(args, &design);
    let tiling = Tiling::square(design.rows(), design.cols(), tile, params.kernel_radius);
    let cap = args.max_in_flight.max(1);
    let telemetry = chip_telemetry(args);
    let failover = if args.model.as_os_str().is_empty() {
        None
    } else {
        let registry = ModelRegistry::new();
        let bundle =
            registry.load(&args.model).map_err(|e| format!("loading {}: {e}", args.model.display()))?;
        println!("failover bundle {} (digest {:016x})", args.model.display(), bundle.digest());
        Some(FailoverConfig {
            bundle,
            flow: FlowConfig { process: params.clone(), ..FlowConfig::default() },
            pool: PoolOptions {
                workers: args.workers,
                default_timeout: args.timeout,
                retry: RetryPolicy::with_retries(args.retries),
                telemetry: telemetry.clone(),
                ..PoolOptions::default()
            },
        })
    };
    let opts = ChipClientOptions {
        max_in_flight: cap,
        tenant: args.tenant.clone(),
        priority: args.priority,
        timeout: args.timeout,
        checkpoint: args.checkpoint.clone(),
        fault: chip_fault(args)?,
        failover,
        telemetry: telemetry.clone(),
        ..ChipClientOptions::default()
    };
    println!(
        "full chip {} ({}x{} windows, {} tiles of {tile}, halo {}) via {addr}",
        design.name(),
        design.rows(),
        design.cols(),
        tiling.num_tiles(),
        tiling.halo()
    );

    let started = Instant::now();
    let out = synthesize_chip_remote(addr, &design, &tiling, &opts)?;
    for (name, e) in &out.failed {
        println!("FAIL  {name}: {e}");
    }
    if out.circuit_opened {
        println!("circuit opened: {} tiles finished on the local failover pool", out.failed_over);
    }

    let mut summary = synthesis_summary(
        &design,
        &tiling,
        tile,
        cap,
        out.peak_in_flight,
        out.resumed,
        out.failed.len(),
        &out.plan,
        started.elapsed(),
    );
    summary.push_str(&format!("tiles_failed_over {}\n", out.failed_over));
    write_chip_report(out_dir, &design, &summary)?;
    if let Some(path) = &args.metrics_out {
        telemetry
            .snapshot()
            .write_jsonl_file(path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(out.failed.is_empty())
}

/// `--full-chip --model`: stream halo-padded tiles through an
/// in-process runtime pool as NN synthesis jobs.
fn run_full_chip_pool(args: &Args, out_dir: &Path) -> Result<bool, String> {
    let design = chip_design(args);
    let params = process_params(args);
    let tile = chip_tile(args, &design);
    let tiling = Tiling::square(design.rows(), design.cols(), tile, params.kernel_radius);
    let cap = args.max_in_flight.max(1);

    let registry = ModelRegistry::new();
    let bundle =
        registry.load(&args.model).map_err(|e| format!("loading {}: {e}", args.model.display()))?;
    println!("model bundle {} (digest {:016x})", args.model.display(), bundle.digest());
    let telemetry = chip_telemetry(args);
    neurfill_tensor::telemetry::install(telemetry.clone());
    let flow = FlowConfig { process: params, ..FlowConfig::default() };
    let options = PoolOptions {
        workers: args.workers,
        default_timeout: args.timeout,
        retry: RetryPolicy::with_retries(args.retries),
        telemetry: telemetry.clone(),
        ..PoolOptions::default()
    };
    let pool = RuntimePool::new(bundle, flow, options).map_err(|e| e.to_string())?;
    let fault = chip_fault(args)?;
    let checkpoint = match &args.checkpoint {
        Some(dir) => Some(TileCheckpoint::open(
            dir,
            &chip_run_meta(&design, &tiling, "pool"),
            Arc::clone(&fault),
        )?),
        None => None,
    };
    println!(
        "full chip {} ({}x{} windows, {} tiles of {tile}, halo {}, cap {cap})",
        design.name(),
        design.rows(),
        design.cols(),
        tiling.num_tiles(),
        tiling.halo()
    );

    let started = Instant::now();
    let out = synthesize_tiles_checkpointed(
        &pool,
        &design,
        &tiling,
        &TileJobOptions {
            max_in_flight: cap,
            telemetry: telemetry.clone(),
            ..TileJobOptions::default()
        },
        checkpoint.as_ref(),
    )?;
    let elapsed = started.elapsed();
    if let Some(path) = &args.metrics_out {
        pool.metrics_snapshot()
            .write_jsonl_file(path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    let _ = pool.shutdown();
    for (name, e) in &out.failed {
        println!("FAIL  {name}: {e}");
    }

    let summary = synthesis_summary(
        &design,
        &tiling,
        tile,
        cap,
        out.peak_in_flight,
        out.resumed,
        out.failed.len(),
        &out.plan,
        elapsed,
    );
    write_chip_report(out_dir, &design, &summary)?;
    Ok(out.failed.is_empty())
}

/// `--full-chip` without a model: the deterministic sharded golden flow
/// (simulate → model fill → verify), byte-identical to a monolithic run
/// at any tile size and worker count.
fn run_full_chip_golden(args: &Args, out_dir: &Path) -> Result<bool, String> {
    let design = chip_design(args);
    let telemetry = chip_telemetry(args);
    let cfg = ChipRunConfig {
        sim: ChipSimConfig {
            params: process_params(args),
            telemetry: telemetry.clone(),
            ..ChipSimConfig::fast(args.tile_size, args.workers)
        },
        fill: ChipFillConfig::default(),
        checkpoint: args.checkpoint.clone(),
        fault: chip_fault(args)?,
    };
    println!(
        "full chip {} ({}x{} windows, tile {}, golden sharded flow)",
        design.name(),
        design.rows(),
        design.cols(),
        args.tile_size
    );
    let result = run_full_chip(&design, &cfg)?;
    write_chip_report(out_dir, &design, &result.report.to_text())?;
    if let Some(path) = &args.metrics_out {
        telemetry
            .snapshot()
            .write_jsonl_file(path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(true)
}

fn run() -> Result<bool, String> {
    let args = parse_args();
    if args.full_chip {
        let out_dir = args.out.clone().unwrap_or_else(|| PathBuf::from("chip-reports"));
        std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
        return match (args.connect.clone(), args.model.as_os_str().is_empty()) {
            (Some(addr), _) => run_full_chip_remote(&args, &addr, &out_dir),
            (None, false) => run_full_chip_pool(&args, &out_dir),
            (None, true) => run_full_chip_golden(&args, &out_dir),
        };
    }
    if args.init_demo > 0 {
        init_demo(&args)?;
    }

    let layouts = load_layouts(&args.layouts)?;
    if layouts.is_empty() {
        return Err(format!("no readable layouts in {}", args.layouts.display()));
    }
    let out_dir = args.out.clone().unwrap_or_else(|| args.layouts.join("reports"));
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;

    if let Some(addr) = args.connect.clone() {
        return run_remote(&args, &addr, layouts, &out_dir);
    }

    let registry = ModelRegistry::new();
    let bundle =
        registry.load(&args.model).map_err(|e| format!("loading {}: {e}", args.model.display()))?;
    println!("model bundle {} (digest {:016x})", args.model.display(), bundle.digest());

    // The fault plan comes from the flag, else the environment
    // (NEURFILL_FAULT_PLAN / NEURFILL_FAULT_SEED), else stays disabled.
    let fault = match &args.fault_plan {
        Some(spec) => FaultPlan::parse(spec, args.fault_seed)?,
        None => FaultPlan::from_env()?,
    };
    if fault.is_enabled() {
        println!("fault injection enabled (seed {})", args.fault_seed);
    }

    let telemetry = if args.metrics_out.is_some() {
        neurfill::telemetry::Telemetry::new()
    } else {
        neurfill::telemetry::Telemetry::disabled()
    };
    // Route GEMM counters/timers (`tensor.gemm*`) into the same snapshot.
    neurfill_tensor::telemetry::install(telemetry.clone());
    let flow = FlowConfig { process: process_params(&args), ..FlowConfig::default() };
    let options = PoolOptions {
        workers: args.workers,
        default_timeout: args.timeout,
        retry: RetryPolicy::with_retries(args.retries),
        fault: Arc::new(fault),
        telemetry: telemetry.clone(),
    };
    let pool = RuntimePool::new(bundle, flow, options).map_err(|e| e.to_string())?;

    let mut ids = Vec::new();
    for (name, layout) in layouts {
        let id = pool.submit(JobSpec::new(name.clone(), layout))?;
        ids.push((name, id));
    }
    println!("submitted {} jobs", ids.len());

    let total = ids.len();
    let mut failed: Vec<(String, String)> = Vec::new();
    let mut degraded: Vec<(String, String)> = Vec::new();
    for (name, id) in &ids {
        match pool.wait(*id) {
            Some(JobStatus::Done(report)) => {
                let path = out_dir.join(format!("{name}.report.txt"));
                std::fs::write(&path, report.to_text()).map_err(|e| e.to_string())?;
                println!(
                    "done  {name}: quality {:.4} overall {:.4} fill {:.0} um2 -> {}",
                    report.quality,
                    report.overall,
                    report.plan.total(),
                    path.display()
                );
                if let Some(reason) = &report.degraded {
                    degraded.push((name.clone(), reason.clone()));
                }
            }
            Some(JobStatus::Failed(e)) => {
                println!("FAIL  {name}: {e}");
                failed.push((name.clone(), e));
            }
            Some(JobStatus::Queued | JobStatus::Running | JobStatus::Retrying { .. }) => {
                unreachable!("wait returns terminal states")
            }
            None => {
                let e = "job id unknown to the pool".to_string();
                println!("FAIL  {name}: {e}");
                failed.push((name.clone(), e));
            }
        }
    }

    if let Some(path) = &args.metrics_out {
        pool.metrics_snapshot()
            .write_jsonl_file(path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    let stats = pool.shutdown();
    println!("{stats}");
    println!("model cache: {} hits, {} misses", registry.cache_hits(), registry.cache_misses());
    if !degraded.is_empty() {
        println!("degraded {} of {total} jobs (golden-simulator verification):", degraded.len());
        for (name, reason) in &degraded {
            println!("  {name}: {reason}");
        }
    }
    if !failed.is_empty() {
        println!("failed {} of {total} jobs:", failed.len());
        for (name, error) in &failed {
            println!("  {name}: {error}");
        }
    }
    Ok(failed.is_empty())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("runfill: {e}");
            ExitCode::FAILURE
        }
    }
}
