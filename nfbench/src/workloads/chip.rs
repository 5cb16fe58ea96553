//! `chip_nn` and `chip_golden`: full-chip runs on design C.
//!
//! `chip_nn` is the surrogate at chip scale: a sharded golden simulation
//! of the unfilled chip, `synthesize_tiles` over a `RuntimePool`
//! (halo-padded tile jobs, `max_in_flight` 4), and a sharded golden
//! simulation of the merged plan through `FilledChipSource`. Pool and
//! simulators have one worker each (`bench::TIMED_WORKERS` says why).
//! `chip_golden` is `run_full_chip`: simulate → deterministic fill rule →
//! verify, no network anywhere — the workload every `tensor`/`nn`/`optim`
//! change must leave unmoved, and the one that stresses `cmpsim` the way
//! the flow jobs do not (halo-exchanging shards, a chip-global contact
//! solve far larger than cache).

use crate::bench::{self, Ctx, Outcome, Surrogate, TIMED_WORKERS};
use crate::digest;
use crate::probes;
use crate::stats::median;
use crate::trace::{Span, Tracer, NO_JOB};
use neurfill::Coefficients;
use neurfill_chip::{
    run_full_chip, synthesize_tiles, ChipFillPlan, ChipRunConfig, ChipSimConfig, ChipSimulator,
    ChipSource, FilledChipSource, TileJobOptions,
};
use neurfill_cmpsim::{ChipProfile, CmpSimulator, ContactSolve, NumericsTier, ProcessParams};
use neurfill_layout::{DesignKind, DummySpec, FullChipDesign, FullChipSpec, Layout, TileRect};
use neurfill_obs::Telemetry;
use neurfill_runtime::{PoolOptions, RuntimePool};
use std::time::Instant;

/// `chip_nn`: chip edge and tile edge in windows (halo 4: the four tile
/// jobs are 36x36x3, one after the other on the pool's one worker), and
/// reference seconds of one chip run.
const NN_EDGE: usize = 64;
/// Rows of the `--smoke` chip: one row of two tiles.
const NN_SMOKE_ROWS: usize = 32;
const NN_TILE: usize = 32;
const NN_RUN_S: f64 = 14.0;
const NN_PINNED_INPUTS: &str = "c1d2558ffae185f6";

/// `chip_golden`: chip edge, tile edge, reference seconds of one chip run.
const GOLDEN_EDGE: usize = 256;
const GOLDEN_SMOKE_EDGE: usize = 128;
const GOLDEN_TILE: usize = 64;
const GOLDEN_RUN_S: f64 = 12.0;
const GOLDEN_PINNED_INPUTS: &str = "a7d3f63060c42aa0";

/// Sub-chip on which the sharded simulator must reproduce the monolithic
/// one byte for byte, and its tile edge.
const IDENTITY_EDGE: usize = 64;
const IDENTITY_TILE: usize = 32;
/// Sub-chip of the worker-scaling probe.
const SCALING_EDGE: usize = 128;
/// Runtime budget β of the chip-level Quality score (the flow default).
const BETA_TIME_S: f64 = 120.0;

/// A chip source that records a span around every tile materialisation.
struct SpanSource<'a> {
    inner: &'a FullChipDesign,
    tracer: &'a Tracer,
}

impl ChipSource for SpanSource<'_> {
    fn name(&self) -> String {
        ChipSource::name(self.inner)
    }
    fn rows(&self) -> usize {
        ChipSource::rows(self.inner)
    }
    fn cols(&self) -> usize {
        ChipSource::cols(self.inner)
    }
    fn num_layers(&self) -> usize {
        ChipSource::num_layers(self.inner)
    }
    fn window_um(&self) -> f64 {
        ChipSource::window_um(self.inner)
    }
    fn tile_layout(&self, rect: TileRect) -> Layout {
        self.tracer.time("layout", "layout.tile_layout", NO_JOB, || self.inner.tile_layout(rect))
    }
}

fn design_c(edge: usize, seed: u64) -> FullChipDesign {
    FullChipSpec::new(DesignKind::RiscV, edge, edge, seed).build()
}

/// The shipped sharded-simulation settings at the default process
/// parameters (`kernel_radius` 4, 50 steps).
fn sim_config(tile: usize, workers: usize) -> ChipSimConfig {
    ChipSimConfig {
        params: ProcessParams::default(),
        tile,
        workers,
        contact_solve: ContactSolve::Exact,
        numerics: NumericsTier::Exact,
        telemetry: Telemetry::disabled(),
    }
}

/// Hashes a chip through its tiles, the way the run materialises it.
fn chip_digest(design: &FullChipDesign, tile: usize) -> String {
    let tiling = neurfill_layout::Tiling::square(design.rows(), design.cols(), tile, 0);
    digest::layouts(tiling.tiles().map(|t| design.generate_tile(t.core)))
}

fn height_range_gain(unfilled: &ChipProfile, filled: &ChipProfile) -> f64 {
    let before = unfilled.max_height_range();
    (before - filled.max_height_range()) / before
}

/// A finished chip run, as both workloads hand it to the shared checks.
struct ChipRun<'a> {
    design: &'a FullChipDesign,
    plan: &'a ChipFillPlan,
    unfilled: &'a ChipProfile,
    filled: &'a ChipProfile,
    dummy: DummySpec,
}

/// Scores and checks a chip-level plan: its Table III Quality, its
/// feasibility against slack, and the height-range gain it bought (returned).
fn score_chip(out: &mut Outcome, run: &ChipRun<'_>) -> f64 {
    let layout = run.design.generate();
    let coeffs = Coefficients::calibrate(&layout, run.unfilled, BETA_TIME_S);
    let plan = run.plan.to_fill_plan(&layout);
    let quality = bench::golden_quality(&layout, &plan, &coeffs, run.filled, &run.dummy);
    let gain = height_range_gain(run.unfilled, run.filled);
    out.check(
        "plan feasible against slack and quality finite",
        plan.is_feasible(&layout, 1e-9) && quality.is_finite(),
        format!("quality {quality}"),
    );
    out.check("height_range_gain > 0", gain > 0.0, format!("{gain}"));
    out.quality.push(quality);
    out.fact("height_range_gain", gain);
    out.fact("fill_total_um2", run.plan.total());
    gain
}

fn tile_materialize_ms(spans: &[Span]) -> f64 {
    median(
        &spans.iter().filter(|s| s.name == "layout.tile_layout").map(Span::millis).collect::<Vec<_>>(),
    )
}

pub fn run_nn(ctx: &Ctx<'_>) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let tracer = ctx.tracer;

    let Surrogate { flow, bundle, .. } = bench::prepare_surrogate(ctx, &mut out)?;
    // The chip is the same for every seed: its tiles are surrogate jobs
    // (see `bench::INPUT_SEED`), and the tile order is `synthesize_tiles`'
    // own, so `--seed` is only recorded here.
    let rows = if ctx.args.smoke { NN_SMOKE_ROWS } else { NN_EDGE };
    let design = FullChipSpec::new(DesignKind::RiscV, rows, NN_EDGE, bench::INPUT_SEED).build();
    if !ctx.args.smoke {
        bench::check_pin(&mut out, chip_digest(&design, NN_TILE), NN_PINNED_INPUTS);
    }
    let source = SpanSource { inner: &design, tracer };
    let sim = ChipSimulator::new(sim_config(NN_TILE, TIMED_WORKERS))?;
    let tiling = sim.tiling_for(&source);
    let t = Instant::now();
    let pool = RuntimePool::new(
        bundle,
        bench::flow_config(ctx.args.smoke),
        PoolOptions { workers: TIMED_WORKERS, ..PoolOptions::default() },
    )
    .map_err(|e| e.to_string())?;
    let pool_start_ms = t.elapsed().as_secs_f64() * 1e3;
    let options = TileJobOptions::default();
    let dummy = flow.config().insertion_dummy_spec();
    let runs = ctx.args.units(NN_RUN_S);
    out.setup_s = ctx.start.elapsed().as_secs_f64();

    let timed = tracer.span("nfbench", crate::trace::TIMED, NO_JOB);
    let t0 = Instant::now();
    let mut last = None;
    for job in 0..runs as i64 {
        let t = Instant::now();
        let (unfilled, stats0) = tracer.time("chip", "chip.simulate", job, || sim.simulate(&source))?;
        let synth = tracer.time("chip", "chip.synthesize_tiles", job, || {
            synthesize_tiles(&pool, &source, &tiling, &options)
        })?;
        let (filled, stats1) = tracer.time("chip", "chip.verify", job, || {
            FilledChipSource::new(&source, &synth.plan, dummy).and_then(|filled| sim.simulate(&filled))
        })?;
        out.job_s.push(t.elapsed().as_secs_f64());
        out.attempted += synth.tiles;
        out.failed += synth.failed.len();
        last = Some((unfilled, synth, filled, [stats0, stats1]));
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    drop(timed);
    out.peak_rss_mib = bench::peak_rss_mib();
    let stats = pool.shutdown();
    let (unfilled, synth, filled, sim_stats) = last.ok_or("no chip run")?;

    out.windows = runs * design.num_layers() * design.rows() * design.cols();
    out.check(
        "zero failed tiles",
        out.failed == 0,
        synth.failed.first().map(|(n, e)| format!("{n}: {e}")).unwrap_or_default(),
    );
    out.check(
        "expected tile count",
        synth.tiles == tiling.num_tiles() && stats.jobs_completed as usize == runs * tiling.num_tiles(),
        format!("{} tiles, {} jobs completed", synth.tiles, stats.jobs_completed),
    );
    out.check(
        "no tile job degraded",
        stats.jobs_degraded == 0,
        format!("{} degraded", stats.jobs_degraded),
    );
    let gain = score_chip(
        &mut out,
        &ChipRun { design: &design, plan: &synth.plan, unfilled: &unfilled, filled: &filled, dummy },
    );
    out.fact("tiles", synth.tiles);
    out.fact("peak_in_flight", synth.peak_in_flight);
    out.fact("batches_formed", stats.batches_formed);
    out.fact("samples_inferred", stats.samples_inferred);

    if tracer.enabled() {
        let spans = tracer.spans();
        let stage = |name: &str| {
            median(&spans.iter().filter(|s| s.name == name).map(Span::seconds).collect::<Vec<_>>())
        };
        out.set("chip.simulate_s", stage("chip.simulate"));
        out.set("chip.synthesize_s", stage("chip.synthesize_tiles"));
        out.set("chip.verify_s", stage("chip.verify"));
        out.set("chip.sim_share", (stage("chip.simulate") + stage("chip.verify")) / median(&out.job_s));
        out.set("chip.height_range_gain", gain);
        out.set(
            "chip.tile_job_s.mean",
            (stats.synthesis + stats.verify).as_secs_f64() / stats.jobs_completed.max(1) as f64,
        );
        out.set("chip.merge_ms", probes::merge_ms(&tiling, design.num_layers(), options.pad_multiple));
        out.set("layout.tile_materialize_ms", tile_materialize_ms(&spans));
        out.set("runtime.pool_start_ms", pool_start_ms);
        out.set("runtime.batches", stats.batches_formed as f64);
        out.set("runtime.mean_batch_occupancy", stats.mean_batch_occupancy);
        out.set("chip.tiles", tiling.num_tiles() as f64);
        out.set("chip.halo_bytes", sim_stats.iter().map(|s| s.halo_bytes).sum::<u64>() as f64);
        out.set(
            "chip.peak_tiles_in_flight",
            sim_stats.iter().map(|s| s.peak_tiles_in_flight).max().unwrap_or(0) as f64,
        );
    }
    Ok(out)
}

fn profile_bits(profile: &ChipProfile) -> Vec<u64> {
    profile
        .iter()
        .flat_map(|l| l.heights().iter().chain(l.dishing()).chain(l.erosion()))
        .map(|v| v.to_bits())
        .collect()
}

/// Sharded against monolithic on the identity sub-chip: the two profiles
/// and how long each took.
fn identity_runs(seed: u64, workers: usize) -> Result<(bool, f64, f64), String> {
    let sub = design_c(IDENTITY_EDGE, seed);
    let layout = sub.generate();
    let mono = CmpSimulator::new(ProcessParams::default())?;
    let sharded = ChipSimulator::new(sim_config(IDENTITY_TILE, workers))?;
    let t = Instant::now();
    let reference = mono.simulate(&layout);
    let mono_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let (profile, _) = sharded.simulate(&sub)?;
    let sharded_s = t.elapsed().as_secs_f64();
    Ok((profile_bits(&profile) == profile_bits(&reference), mono_s, sharded_s))
}

pub fn run_golden(ctx: &Ctx<'_>) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let tracer = ctx.tracer;
    let seed = ctx.args.seed;

    // Set-up is short here, so it is done three times and the median
    // reported: build the design, and prove on a sub-chip that sharding
    // does not change a byte of the simulator's output. The sub-chip is
    // what `--seed` generates: the simulator costs the same whatever it
    // simulates. The timed chip is the same for every seed, because the
    // Quality of its plan is an end-to-end metric and moved by 20 % across
    // ten seeds.
    let mut setups = Vec::new();
    let mut identical = true;
    let edge = if ctx.args.smoke { GOLDEN_SMOKE_EDGE } else { GOLDEN_EDGE };
    let mut design = design_c(edge, bench::INPUT_SEED);
    for rep in 0..if ctx.args.smoke { 1 } else { 3 } {
        let t = if rep == 0 { ctx.start } else { Instant::now() };
        design = design_c(edge, bench::INPUT_SEED);
        identical &= identity_runs(seed, TIMED_WORKERS)?.0;
        setups.push(t.elapsed().as_secs_f64());
    }
    out.setup_s = median(&setups);
    out.check(
        "sharded profile is byte-identical to the monolithic simulator",
        identical,
        format!("{IDENTITY_EDGE}x{IDENTITY_EDGE} sub-chip, tile {IDENTITY_TILE}"),
    );
    if !ctx.args.smoke {
        bench::check_pin(&mut out, chip_digest(&design, GOLDEN_TILE), GOLDEN_PINNED_INPUTS);
    }

    let source = SpanSource { inner: &design, tracer };
    let cfg = ChipRunConfig {
        sim: sim_config(GOLDEN_TILE, TIMED_WORKERS),
        ..ChipRunConfig::fast(GOLDEN_TILE, TIMED_WORKERS)
    };
    let runs = ctx.args.units(GOLDEN_RUN_S);

    let timed = tracer.span("nfbench", crate::trace::TIMED, NO_JOB);
    let t0 = Instant::now();
    let mut last = None;
    for job in 0..runs as i64 {
        let t = Instant::now();
        let result = tracer.time("chip", "chip.run_full_chip", job, || run_full_chip(&source, &cfg));
        out.job_s.push(t.elapsed().as_secs_f64());
        out.attempted += 1;
        match result {
            Ok(r) => last = Some(r),
            Err(e) => {
                out.failed += 1;
                out.check("every chip run completes", false, e);
            }
        }
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    drop(timed);
    out.peak_rss_mib = bench::peak_rss_mib();
    let result = last.ok_or("no chip run completed")?;

    out.windows = (runs - out.failed) * design.num_layers() * design.rows() * design.cols();
    let report = &result.report;
    let gain = score_chip(
        &mut out,
        &ChipRun {
            design: &design,
            plan: &result.plan,
            unfilled: &result.unfilled,
            filled: &result.filled,
            dummy: cfg.fill.dummy,
        },
    );
    out.fact("tiles", report.tiles);
    out.fact("halo_bytes", report.halo_bytes);
    out.fact("peak_tiles_in_flight", report.peak_tiles_in_flight);

    if tracer.enabled() {
        let (simulate_s, verify_s) =
            (report.simulate_time.as_secs_f64(), report.verify_time.as_secs_f64());
        out.set("chip.tiles", report.tiles as f64);
        out.set("chip.halo_bytes", report.halo_bytes as f64);
        out.set("chip.peak_tiles_in_flight", report.peak_tiles_in_flight as f64);
        out.set("chip.simulate_s", simulate_s);
        out.set("chip.fill_rule_s", report.fill_time.as_secs_f64());
        out.set("chip.verify_s", verify_s);
        out.set(
            "chip.sim_share",
            (simulate_s + verify_s) / out.job_s.last().copied().unwrap_or(f64::NAN),
        );
        out.set("chip.height_range_gain", gain);
        out.set("layout.tile_materialize_ms", tile_materialize_ms(&tracer.spans()));
        let windows = (design.num_layers() * design.rows() * design.cols()) as f64;
        out.set(
            "cmpsim.window_steps_per_s",
            2.0 * windows * cfg.sim.params.steps as f64 / (simulate_s + verify_s),
        );

        let _probes = tracer.span("nfbench", "nfbench.probes", NO_JOB);
        let ext = GOLDEN_TILE + 2 * cfg.sim.params.kernel_radius;
        out.set("cmpsim.padconv_tile_us", probes::padconv_us(&cfg.sim.params, ext, ext, seed));
        out.set(
            "cmpsim.contact_solve_chip_us",
            probes::contact_solve_us(&cfg.sim.params, design.rows() * design.cols(), seed),
        );
        let (_, mono_s, sharded_s) = identity_runs(seed, 1)?;
        out.set("chip.sharded_overhead", sharded_s / mono_s);
        // One worker against nproc on a sub-chip. A host with one core
        // cannot show scaling, so it reports none.
        if ctx.nproc >= 2 {
            let sub = design_c(if ctx.args.smoke { IDENTITY_EDGE } else { SCALING_EDGE }, seed);
            let seconds = |workers: usize| -> Result<f64, String> {
                let sim = ChipSimulator::new(sim_config(IDENTITY_TILE, workers))?;
                let t = Instant::now();
                sim.simulate(&sub)?;
                Ok(t.elapsed().as_secs_f64())
            };
            out.set("chip.worker_scaling", seconds(1)? / seconds(ctx.nproc)?);
        }
    }
    Ok(out)
}
