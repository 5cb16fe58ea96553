//! `gendata` — generate a labeled training corpus: random layouts from
//! the two-step procedure, golden-simulator height labels, checksummed
//! shards plus a manifest.
//!
//! ```text
//! gendata --out corpus/ [--num N] [--rows R] [--cols C] [--seed S]
//!         [--workers W] [--samples-per-shard K] [--sources dir/] [--fast]
//!         [--metrics-out metrics.jsonl]
//! gendata --out corpus/ --full-chip [--design A|B|C] [--tile-size N]
//!         [--rows R] [--cols C] [--seed S] [--workers W] [--fast] ...
//! ```
//!
//! `--full-chip` labels one hash-generated full-chip design
//! tile-at-a-time through the chip simulator instead of random
//! small layouts; `--rows`/`--cols` set the chip dimensions (omit both
//! for the design's paper-scale size) and `--tile-size` the per-sample
//! tile edge.
//!
//! `--metrics-out` enables telemetry and writes the run's metrics
//! snapshot (simulator stage timings, labeling counts, shard writes) as
//! JSONL; the shard bytes are identical with or without it.
//!
//! Output bytes depend only on the configuration (notably `--seed`), never
//! on `--workers` — rerunning with more threads reproduces the identical
//! corpus, only faster.

use neurfill_cmpsim::ProcessParams;
use neurfill_data::{generate_labeled_shards, label_full_chip, ChipLabelConfig, LabelConfig};
use neurfill_layout::datagen::DataGenConfig;
use neurfill_layout::{benchmark_designs, io as layout_io, DesignKind, FullChipSpec, Layout};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    out: PathBuf,
    num: usize,
    rows: usize,
    cols: usize,
    seed: u64,
    workers: usize,
    samples_per_shard: u64,
    sources: Option<PathBuf>,
    fast: bool,
    metrics_out: Option<PathBuf>,
    full_chip: bool,
    design: DesignKind,
    tile_size: usize,
    explicit_dims: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: gendata --out <dir> [--num N] [--rows R] [--cols C] [--seed S]\n\
         \x20             [--workers W] [--samples-per-shard K] [--sources <dir>] [--fast]\n\
         \x20             [--metrics-out <file>]\n\
         \x20      gendata --out <dir> --full-chip [--design A|B|C] [--tile-size N]\n\
         \x20             [--rows R] [--cols C] [--seed S] [--workers W] [--fast] ..."
    );
    std::process::exit(2);
}

fn parse_design(s: &str) -> DesignKind {
    DesignKind::from_letter(s).unwrap_or_else(|| {
        eprintln!("unknown design {s:?} (expected A, B or C)");
        usage()
    })
}

fn parse_num<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("bad value {s:?} for {flag}");
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

fn parse_args() -> Args {
    let mut args = Args {
        out: PathBuf::new(),
        num: 64,
        rows: 32,
        cols: 32,
        seed: 0,
        workers: 0,
        samples_per_shard: 64,
        sources: None,
        fast: false,
        metrics_out: None,
        full_chip: false,
        design: DesignKind::RiscV,
        tile_size: 32,
        explicit_dims: false,
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
            "--out" => args.out = value(&mut it, "--out").into(),
            "--num" => args.num = parse_num(&value(&mut it, "--num"), "--num"),
            "--rows" => {
                args.rows = parse_dim(&value(&mut it, "--rows"), "--rows");
                args.explicit_dims = true;
            }
            "--cols" => {
                args.cols = parse_dim(&value(&mut it, "--cols"), "--cols");
                args.explicit_dims = true;
            }
            "--seed" => args.seed = parse_num(&value(&mut it, "--seed"), "--seed"),
            "--workers" => args.workers = parse_num(&value(&mut it, "--workers"), "--workers"),
            "--samples-per-shard" => {
                args.samples_per_shard =
                    parse_num(&value(&mut it, "--samples-per-shard"), "--samples-per-shard")
            }
            "--sources" => args.sources = Some(value(&mut it, "--sources").into()),
            "--full-chip" => args.full_chip = true,
            "--design" => args.design = parse_design(&value(&mut it, "--design")),
            "--tile-size" => args.tile_size = parse_num(&value(&mut it, "--tile-size"), "--tile-size"),
            "--fast" => args.fast = true,
            "--metrics-out" => args.metrics_out = Some(value(&mut it, "--metrics-out").into()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
    }
    if args.out.as_os_str().is_empty() {
        usage();
    }
    args
}

fn load_sources(dir: &Path) -> Result<Vec<Layout>, String> {
    // Path order: the corpus seed contract includes the source pool order.
    let loaded = layout_io::load_dir(dir, |path, e| eprintln!("skipping {}: {e}", path.display()))
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    if loaded.is_empty() {
        return Err(format!("no readable layouts in {}", dir.display()));
    }
    Ok(loaded.into_iter().map(|(_, l)| l).collect())
}

fn run_full_chip(args: &Args) -> Result<(), String> {
    let spec = if args.explicit_dims {
        FullChipSpec::new(args.design, args.rows, args.cols, args.seed)
    } else {
        FullChipSpec::full_scale(args.design, args.seed)
    };
    let design = spec.build();
    println!(
        "labeling full chip {} ({}x{} windows, tile {})",
        design.name(),
        design.rows(),
        design.cols(),
        args.tile_size
    );
    let cfg = ChipLabelConfig {
        tile: args.tile_size,
        workers: args.workers,
        samples_per_shard: args.samples_per_shard,
        process: if args.fast { ProcessParams::fast() } else { ProcessParams::default() },
        seed: args.seed,
        telemetry: if args.metrics_out.is_some() {
            neurfill::telemetry::Telemetry::new()
        } else {
            neurfill::telemetry::Telemetry::disabled()
        },
        ..ChipLabelConfig::default()
    };
    let report = label_full_chip(&design, &cfg, &args.out).map_err(|e| e.to_string())?;
    for (path, n) in &report.shards {
        println!("wrote {} ({n} samples)", path.display());
    }
    let secs = report.sim_elapsed.as_secs_f64();
    println!("{} samples from {} tiles in {:.2}s simulation", report.samples, report.tiles, secs);
    println!(
        "height norm: offset {:.3} nm, scale {:.3} nm",
        report.norm.offset_nm, report.norm.scale_nm
    );
    if let Some(path) = &args.metrics_out {
        cfg.telemetry
            .snapshot()
            .write_jsonl_file(path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let args = parse_args();
    if args.full_chip {
        return run_full_chip(&args);
    }
    let sources = match &args.sources {
        Some(dir) => load_sources(dir)?,
        None => benchmark_designs(args.rows.max(8), args.cols.max(8), 1),
    };
    println!("labeling {} layouts ({} source designs, seed {})", args.num, sources.len(), args.seed);

    let cfg = LabelConfig {
        num_layouts: args.num,
        samples_per_shard: args.samples_per_shard,
        workers: args.workers,
        datagen: DataGenConfig {
            rows: args.rows,
            cols: args.cols,
            seed: args.seed,
            ..DataGenConfig::default()
        },
        process: if args.fast { ProcessParams::fast() } else { ProcessParams::default() },
        telemetry: if args.metrics_out.is_some() {
            neurfill::telemetry::Telemetry::new()
        } else {
            neurfill::telemetry::Telemetry::disabled()
        },
        ..LabelConfig::default()
    };
    let report = generate_labeled_shards(sources, &cfg, &args.out).map_err(|e| e.to_string())?;

    for (path, n) in &report.shards {
        println!("wrote {} ({n} samples)", path.display());
    }
    let secs = report.sim_elapsed.as_secs_f64();
    println!(
        "{} samples from {} layouts in {:.2}s simulation ({} workers, {:.1} layouts/s)",
        report.samples,
        report.layouts,
        secs,
        report.workers,
        report.layouts as f64 / secs.max(1e-9)
    );
    println!(
        "height norm: offset {:.3} nm, scale {:.3} nm",
        report.norm.offset_nm, report.norm.scale_nm
    );
    if let Some(path) = &args.metrics_out {
        cfg.telemetry
            .snapshot()
            .write_jsonl_file(path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("gendata: {e}");
            ExitCode::FAILURE
        }
    }
}
