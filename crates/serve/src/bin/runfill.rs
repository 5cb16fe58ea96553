//! `runfill` — fan a directory of layouts across the concurrent
//! fill-synthesis pool and write one report per layout, either in-process
//! or through a running `neurfill-serve` instance.
//!
//! ```text
//! runfill --model surrogate.bundle --layouts designs/ [--out reports/]
//!         [--workers N] [--timeout-s S]
//!         [--fault-plan SPEC] [--fault-seed N] [--fast] [--init-demo N]
//!         [--metrics-out metrics.jsonl]
//! runfill --connect HOST:PORT --layouts designs/ [--out reports/]
//!         [--tenant NAME] [--priority high|normal|low] [--timeout-s S]
//! runfill --full-chip [--design A|B|C] [--tile-size N] [--rows R] [--cols C]
//!         [--seed S] [--out reports/] [--workers N] [--fast]
//!         [--model surrogate.bundle] [--max-in-flight K]
//! ```
//!
//! Each completed layout leaves two files in `--out`: `<name>.report.txt`
//! and `<name>.plan`, the synthesized fill amounts in the one plan format
//! (`neurfill_layout::io::write_plan`), from which the job's quality can
//! be re-verified (read → `realize_fill` → `evaluate_plan`).
//!
//! `--connect` switches to client mode: jobs are submitted to a running
//! `neurfill-serve` over HTTP, sharing the exact wire format the server
//! speaks (the body of a submission *is* the on-disk layout file). The
//! files written are identical between the two modes (up to the
//! wall-clock `synthesis_s`/`overall` report lines).
//!
//! `--full-chip` runs the full-chip flow on a hash-generated design
//! instead of a layout directory, always in-process (`--connect` is
//! refused). Without a model it is the deterministic golden flow
//! (simulate → model fill → verify, each materialising the chip tile at
//! a time); with `--model` the halo-padded tiles stream through a local
//! runtime pool as NN synthesis jobs, at most `--max-in-flight` resident
//! at once.
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
    chip_run_meta, run_full_chip, synthesize_tiles_checkpointed, ChipFillConfig, ChipRunConfig,
    ChipSimConfig, TileCheckpoint, TileJobOptions, TileSynthesis,
};
use neurfill_cmpsim::{CmpSimulator, ProcessParams};
use neurfill_layout::datagen::DataGenConfig;
use neurfill_layout::io::{self as layout_io, PlanShape};
use neurfill_layout::{benchmark_designs, DesignKind, DesignSpec, FullChipDesign, FullChipSpec, Tiling};
use neurfill_nn::{TrainConfig, UNetConfig};
use neurfill_runtime::{FaultPlan, JobSpec, JobStatus, ModelBundle, PoolOptions, RuntimePool};
use neurfill_serve::{Client, JobRequest, Priority};
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
         \x20             [--timeout-s S] [--fault-plan SPEC] [--fault-seed N]\n\
         \x20             [--fast] [--init-demo N] [--metrics-out <file>]\n\
         \x20      runfill --connect HOST:PORT --layouts <dir> [--out <dir>]\n\
         \x20             [--tenant NAME] [--priority high|normal|low] [--timeout-s S]\n\
         \x20      runfill --full-chip [--design A|B|C] [--tile-size N] [--rows R]\n\
         \x20             [--cols C] [--seed S] [--out <dir>] [--workers N] [--fast]\n\
         \x20             [--model <bundle>] [--max-in-flight K]\n\
         \x20             [--checkpoint <dir>] [--fault-plan SPEC] [--fault-seed N]"
    );
    std::process::exit(2);
}

fn parse_design(s: &str) -> DesignKind {
    DesignKind::from_letter(s).unwrap_or_else(|| {
        eprintln!("unknown design {s:?} (expected A, B or C)");
        usage()
    })
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
                args.timeout = Some(parse_secs(&value(&mut it, "--timeout-s"), "--timeout-s"))
            }
            "--fault-plan" => args.fault_plan = Some(value(&mut it, "--fault-plan")),
            "--fault-seed" => {
                args.fault_seed = parse_num(&value(&mut it, "--fault-seed"), "--fault-seed")
            }
            "--full-chip" => args.full_chip = true,
            "--checkpoint" => args.checkpoint = Some(value(&mut it, "--checkpoint").into()),
            "--design" => args.design = parse_design(&value(&mut it, "--design")),
            "--tile-size" => args.tile_size = parse_num(&value(&mut it, "--tile-size"), "--tile-size"),
            "--rows" => {
                args.rows = parse_dim(&value(&mut it, "--rows"), "--rows");
                args.explicit_dims = true;
            }
            "--cols" => {
                args.cols = parse_dim(&value(&mut it, "--cols"), "--cols");
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
    if args.connect.is_some() && args.fault_plan.is_some() {
        eprintln!("--fault-plan injects in-process; it cannot be combined with --connect");
        usage();
    }
    if args.full_chip {
        if args.connect.is_some() {
            eprintln!("--full-chip runs in-process; it cannot be combined with --connect");
            usage();
        }
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

/// A duration in seconds, refusing a negative, NaN or infinite value (or
/// one too large for a `Duration`), on which `Duration::from_secs_f64`
/// panics.
fn parse_secs(s: &str, flag: &str) -> Duration {
    Duration::try_from_secs_f64(parse_num(s, flag)).unwrap_or_else(|_| {
        eprintln!("bad value {s:?} for {flag}: expected a finite number of seconds >= 0");
        usage()
    })
}

/// A chip or layout dimension: zero windows is refused here rather than
/// left to panic where the design is built.
fn parse_dim(s: &str, flag: &str) -> usize {
    match parse_num(s, flag) {
        0 => {
            eprintln!("bad value {s:?} for {flag}: expected at least 1");
            usage()
        }
        n => n,
    }
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

/// Every readable layout in `dir` under its file stem, in path order.
fn load_layouts(dir: &Path) -> Result<Vec<(String, neurfill_layout::Layout)>, String> {
    let loaded = layout_io::load_dir(dir, |path, e| eprintln!("skipping {}: {e}", path.display()))
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(loaded
        .into_iter()
        .map(|(path, layout)| {
            let stem = path
                .file_stem()
                .map_or_else(|| layout.name().to_string(), |s| s.to_string_lossy().into_owned());
            (stem, layout)
        })
        .collect())
}

/// Writes one finished job's `<name>.report.txt` and `<name>.plan` into
/// `out_dir`, returning the report's path.
fn write_job_files(
    out_dir: &Path,
    name: &str,
    report: &str,
    shape: PlanShape,
    plan: &[f64],
) -> Result<PathBuf, String> {
    let mut plan_bytes = Vec::new();
    layout_io::write_plan(shape, plan, &mut plan_bytes).map_err(|e| format!("{name}: {e}"))?;
    let plan_path = out_dir.join(format!("{name}.plan"));
    std::fs::write(&plan_path, plan_bytes).map_err(|e| format!("{}: {e}", plan_path.display()))?;
    let path = out_dir.join(format!("{name}.report.txt"));
    std::fs::write(&path, report).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// Client mode: submit every layout to a running `neurfill-serve` and
/// collect the reports and plans over HTTP. Same files as in-process mode.
fn run_remote(
    args: &Args,
    addr: &str,
    layouts: Vec<(String, neurfill_layout::Layout)>,
    out_dir: &Path,
) -> Result<bool, String> {
    let mut client = Client::connect(addr);
    let mut ids = Vec::new();
    for (name, layout) in layouts {
        let shape = PlanShape::of(&layout);
        let mut req = JobRequest::new(name.clone(), layout);
        req.tenant = args.tenant.clone();
        req.priority = args.priority;
        req.timeout = args.timeout;
        let id = client.submit(&req).map_err(|e| format!("submitting {name}: {e}"))?;
        ids.push((name, id, shape));
    }
    println!("submitted {} jobs to {addr}", ids.len());

    let total = ids.len();
    let wait = Some(Duration::from_secs(60));
    let mut failed: Vec<(String, String)> = Vec::new();
    for (name, id, shape) in &ids {
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
        let Some(text) = report else {
            println!("FAIL  {name}");
            continue;
        };
        // The job is terminal now, so its plan is ready too.
        match client.result_plan(*id, None) {
            Ok(plan) => {
                let path = write_job_files(out_dir, name, &text, *shape, &plan)?;
                println!("done  {name} -> {}", path.display());
            }
            Err(e) => {
                println!("FAIL  {name}");
                failed.push((name.clone(), format!("fetching the plan: {e}")));
            }
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

/// Telemetry for the run: enabled only when `--metrics-out` will write it.
fn telemetry(args: &Args) -> neurfill::telemetry::Telemetry {
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
fn synthesis_summary(
    design: &FullChipDesign,
    tiling: &Tiling,
    tile: usize,
    cap: usize,
    out: &TileSynthesis,
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
        out.resumed,
        tiling.halo(),
        cap,
        out.peak_in_flight,
        out.failed.len(),
        out.plan.total(),
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

/// The fault plan: the `--fault-plan` flag, else disabled.
fn fault_plan(args: &Args) -> Result<Arc<FaultPlan>, String> {
    let fault = match &args.fault_plan {
        Some(spec) => FaultPlan::parse(spec, args.fault_seed)?,
        None => FaultPlan::disabled(),
    };
    if fault.is_enabled() {
        println!("fault injection enabled (seed {})", args.fault_seed);
    }
    Ok(Arc::new(fault))
}

/// `--full-chip --model`: stream halo-padded tiles through an
/// in-process runtime pool as NN synthesis jobs.
fn run_full_chip_pool(args: &Args, out_dir: &Path, fault: Arc<FaultPlan>) -> Result<bool, String> {
    let design = chip_design(args);
    let params = process_params(args);
    let tile = chip_tile(args, &design);
    let tiling = Tiling::square(design.rows(), design.cols(), tile, params.kernel_radius);
    let cap = args.max_in_flight.max(1);

    let bundle = ModelBundle::load(&args.model)
        .map(Arc::new)
        .map_err(|e| format!("loading {}: {e}", args.model.display()))?;
    println!("model bundle {} (digest {:016x})", args.model.display(), bundle.digest());
    let telemetry = telemetry(args);
    let flow = FlowConfig { process: params, telemetry: telemetry.clone(), ..FlowConfig::default() };
    let options =
        PoolOptions { workers: args.workers, default_timeout: args.timeout, fault: Arc::clone(&fault) };
    let pool = RuntimePool::new(bundle, flow, options).map_err(|e| e.to_string())?;
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

    let summary = synthesis_summary(&design, &tiling, tile, cap, &out, elapsed);
    write_chip_report(out_dir, &design, &summary)?;
    Ok(out.failed.is_empty())
}

/// `--full-chip` without a model: the deterministic golden flow
/// (simulate → model fill → verify), byte-identical to a monolithic run
/// at any tile size and worker count.
fn run_full_chip_golden(args: &Args, out_dir: &Path, fault: Arc<FaultPlan>) -> Result<bool, String> {
    let design = chip_design(args);
    let telemetry = telemetry(args);
    let cfg = ChipRunConfig {
        sim: ChipSimConfig {
            params: process_params(args),
            telemetry: telemetry.clone(),
            ..ChipSimConfig::fast(args.tile_size, args.workers)
        },
        fill: ChipFillConfig::default(),
        checkpoint: args.checkpoint.clone(),
        fault,
    };
    println!(
        "full chip {} ({}x{} windows, tile {}, golden flow)",
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
    // A bad fault plan is refused before any file is read.
    let fault = fault_plan(&args)?;
    if args.full_chip {
        let out_dir = args.out.clone().unwrap_or_else(|| PathBuf::from("chip-reports"));
        std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
        return if args.model.as_os_str().is_empty() {
            run_full_chip_golden(&args, &out_dir, fault)
        } else {
            run_full_chip_pool(&args, &out_dir, fault)
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

    let bundle = ModelBundle::load(&args.model)
        .map(Arc::new)
        .map_err(|e| format!("loading {}: {e}", args.model.display()))?;
    println!("model bundle {} (digest {:016x})", args.model.display(), bundle.digest());

    let flow = FlowConfig {
        process: process_params(&args),
        telemetry: telemetry(&args),
        ..FlowConfig::default()
    };
    let options = PoolOptions { workers: args.workers, default_timeout: args.timeout, fault };
    let pool = RuntimePool::new(bundle, flow, options).map_err(|e| e.to_string())?;

    let mut ids = Vec::new();
    for (name, layout) in layouts {
        let shape = PlanShape::of(&layout);
        let id = pool.submit(JobSpec::new(name.clone(), layout))?;
        ids.push((name, id, shape));
    }
    println!("submitted {} jobs", ids.len());

    let total = ids.len();
    let mut failed: Vec<(String, String)> = Vec::new();
    let mut degraded: Vec<(String, String)> = Vec::new();
    for (name, id, shape) in &ids {
        match pool.wait(*id) {
            Some(JobStatus::Done(report)) => {
                let path =
                    write_job_files(&out_dir, name, &report.to_text(), *shape, report.plan.as_slice())?;
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
            Some(JobStatus::Queued | JobStatus::Running) => {
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
