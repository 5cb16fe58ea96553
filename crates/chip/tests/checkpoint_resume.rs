//! Tile-granular checkpoint/resume chaos suite: a full-chip run killed
//! at *every* `checkpoint_write` ordinal must resume from its completed
//! tiles and produce a plan byte-identical to an uninterrupted run, in
//! both the golden flow and the pool tile-synthesis flow.
//! Crashes are emulated in-process by the fault plan's durable-write
//! faults, which leave exactly the on-disk state of a process killed at
//! that write.

use neurfill::extraction::NUM_CHANNELS;
use neurfill::pipeline::FlowConfig;
use neurfill::{CmpNeuralNetwork, CmpNnConfig, HeightNorm, NeurFillConfig};
use neurfill_chip::{
    chip_run_meta, run_full_chip, synthesize_tiles_checkpointed, ChipFillPlan, ChipRunConfig,
    TileCheckpoint, TileJobOptions,
};
use neurfill_cmpsim::ProcessParams;
use neurfill_layout::{DesignKind, FullChipDesign, FullChipSpec, Tiling};
use neurfill_nn::{UNet, UNetConfig};
use neurfill_optim::SqpConfig;
use neurfill_runtime::fault::sites;
use neurfill_runtime::{FaultPlan, ModelBundle, PoolOptions, RuntimePool};
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::Arc;

fn design() -> FullChipDesign {
    FullChipSpec::new(DesignKind::CmpTest, 16, 16, 7).build()
}

fn bits(plan: &ChipFillPlan) -> Vec<u64> {
    plan.as_slice().iter().map(|a| a.to_bits()).collect()
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("neurfill-ckpt-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn golden_cfg(fault: Arc<FaultPlan>, checkpoint: Option<PathBuf>) -> ChipRunConfig {
    let mut cfg = ChipRunConfig::fast(8, 2);
    cfg.checkpoint = checkpoint;
    cfg.fault = fault;
    cfg
}

#[test]
fn golden_kill_at_every_checkpoint_ordinal_resumes_bit_identical() {
    let design = design();
    let scratch = run_full_chip(&design, &golden_cfg(Arc::new(FaultPlan::disabled()), None)).unwrap();
    assert!(scratch.plan.total() > 0.0, "the fill plan must place some fill");

    // Count the checkpoint-write ordinals with a plan that is enabled
    // but can never fire (probability 0), then kill at each one.
    let counter = Arc::new(FaultPlan::parse("checkpoint_write=crash@p0", 0).unwrap());
    let dir = tmp_dir("golden-count");
    let counted = run_full_chip(&design, &golden_cfg(Arc::clone(&counter), Some(dir.clone()))).unwrap();
    assert_eq!(bits(&counted.plan), bits(&scratch.plan), "checkpointing must not change the plan");
    let total = counter.invocations(sites::CHECKPOINT_WRITE);
    assert_eq!(total, 4, "16x16 at tile 8 stores a 2x2 tile grid");
    let _ = std::fs::remove_dir_all(&dir);

    for k in 1..=total {
        let dir = tmp_dir(&format!("golden-k{k}"));
        let crash = Arc::new(FaultPlan::parse(&format!("checkpoint_write=crash@{k}"), 0).unwrap());
        let err = run_full_chip(&design, &golden_cfg(crash, Some(dir.clone())))
            .expect_err("a crashed checkpoint write must abort the run");
        assert!(err.contains("fault"), "the failure must name the injected fault: {err}");

        // Restart with a clean plan on the same directory: the run must
        // resume exactly the tiles finalized before the crash and end
        // byte-identical to the uninterrupted run.
        let resumed =
            run_full_chip(&design, &golden_cfg(Arc::new(FaultPlan::disabled()), Some(dir.clone())))
                .unwrap();
        assert_eq!(
            resumed.report.tiles_resumed,
            (k - 1) as usize,
            "kill at ordinal {k} leaves {} durable tiles",
            k - 1
        );
        assert_eq!(
            bits(&resumed.plan),
            bits(&scratch.plan),
            "resume at ordinal {k} must be bit-identical"
        );

        // A third run resumes everything and recomputes nothing.
        let full =
            run_full_chip(&design, &golden_cfg(Arc::new(FaultPlan::disabled()), Some(dir.clone())))
                .unwrap();
        assert_eq!(full.report.tiles_resumed, total as usize);
        assert_eq!(bits(&full.plan), bits(&scratch.plan));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn golden_torn_and_short_writes_recover() {
    let design = design();
    let scratch = run_full_chip(&design, &golden_cfg(Arc::new(FaultPlan::disabled()), None)).unwrap();

    // A torn final record reports failure and lands a corrupt file; the
    // rerun must detect it (checksum), discard it and recompute.
    let dir = tmp_dir("golden-torn");
    let torn = Arc::new(FaultPlan::parse("checkpoint_write=torn_record@1", 0).unwrap());
    run_full_chip(&design, &golden_cfg(torn, Some(dir.clone())))
        .expect_err("a torn checkpoint write must abort the run");
    let resumed =
        run_full_chip(&design, &golden_cfg(Arc::new(FaultPlan::disabled()), Some(dir.clone()))).unwrap();
    assert_eq!(resumed.report.tiles_resumed, 0, "the torn tile must not be trusted");
    assert_eq!(bits(&resumed.plan), bits(&scratch.plan));
    let _ = std::fs::remove_dir_all(&dir);

    // A short write self-heals: the interrupted staging write is redone
    // and the run completes with every tile durable.
    let dir = tmp_dir("golden-short");
    let short = Arc::new(FaultPlan::parse("checkpoint_write=short_write@1", 0).unwrap());
    let healed = run_full_chip(&design, &golden_cfg(short, Some(dir.clone()))).unwrap();
    assert_eq!(bits(&healed.plan), bits(&scratch.plan));
    let full =
        run_full_chip(&design, &golden_cfg(Arc::new(FaultPlan::disabled()), Some(dir.clone()))).unwrap();
    assert_eq!(full.report.tiles_resumed, 4, "all tiles must have survived the short write");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_rejects_a_different_run_configuration() {
    let design = design();
    let dir = tmp_dir("golden-meta");
    run_full_chip(&design, &golden_cfg(Arc::new(FaultPlan::disabled()), Some(dir.clone()))).unwrap();

    // Same directory, different tile size: the fingerprint must refuse
    // rather than silently mixing geometries.
    let mut other = ChipRunConfig::fast(16, 2);
    other.checkpoint = Some(dir.clone());
    let err = run_full_chip(&design, &other).expect_err("meta mismatch must refuse");
    assert!(err.contains("different run configuration"), "got: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- pool mode ----------------------------------------------------------

fn bundle() -> Arc<ModelBundle> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let unet = UNet::new(
        UNetConfig { in_channels: NUM_CHANNELS, out_channels: 1, base_channels: 4, depth: 2 },
        &mut rng,
    );
    let net =
        CmpNeuralNetwork::new(unet, HeightNorm::default(), Default::default(), CmpNnConfig::default());
    Arc::new(ModelBundle::from_network(&net).unwrap())
}

fn flow_config() -> FlowConfig {
    FlowConfig {
        process: ProcessParams::fast(),
        neurfill: NeurFillConfig {
            sqp: SqpConfig { max_iterations: 4, ..SqpConfig::default() },
            ..NeurFillConfig::default()
        },
        beta_time_s: 60.0,
        ..FlowConfig::default()
    }
}

fn pool() -> RuntimePool {
    RuntimePool::new(bundle(), flow_config(), PoolOptions { workers: 2, ..PoolOptions::default() })
        .unwrap()
}

fn pool_synthesize(checkpoint: Option<&TileCheckpoint>) -> (ChipFillPlan, usize) {
    let design = design();
    let tiling = Tiling::square(16, 16, 8, ProcessParams::fast().kernel_radius);
    let pool = pool();
    let out =
        synthesize_tiles_checkpointed(&pool, &design, &tiling, &TileJobOptions::default(), checkpoint)
            .unwrap();
    let _ = pool.shutdown();
    assert!(out.failed.is_empty(), "no tile may fail: {:?}", out.failed);
    (out.plan, out.resumed)
}

#[test]
fn pool_crash_mid_pass_resumes_bit_identical() {
    let design = design();
    let tiling = Tiling::square(16, 16, 8, ProcessParams::fast().kernel_radius);
    let meta = chip_run_meta(&design, &tiling, "pool");
    let (scratch, _) = pool_synthesize(None);
    assert!(scratch.total() > 0.0);

    let dir = tmp_dir("pool-crash");
    {
        // Second finalize crashes: the pass aborts with one durable tile.
        let fault = Arc::new(FaultPlan::parse("checkpoint_write=crash@2", 0).unwrap());
        let cp = TileCheckpoint::open(&dir, &meta, Arc::clone(&fault)).unwrap();
        let p = pool();
        let err =
            synthesize_tiles_checkpointed(&p, &design, &tiling, &TileJobOptions::default(), Some(&cp))
                .expect_err("a crashed finalize must abort the pass");
        assert!(err.contains("fault"), "got: {err}");
        let _ = p.shutdown();
    }

    // Resume with a clean plan: exactly one tile restores, the merged
    // plan is byte-identical to the uninterrupted pass.
    let cp = TileCheckpoint::open(&dir, &meta, Arc::new(FaultPlan::disabled())).unwrap();
    assert_eq!(cp.resumed(), 1, "one tile was finalized before the crash");
    let (resumed_plan, resumed) = pool_synthesize(Some(&cp));
    assert_eq!(resumed, 1);
    assert_eq!(bits(&resumed_plan), bits(&scratch));

    // A fully-checkpointed pass restores everything.
    let cp = TileCheckpoint::open(&dir, &meta, Arc::new(FaultPlan::disabled())).unwrap();
    let (full_plan, resumed) = pool_synthesize(Some(&cp));
    assert_eq!(resumed, 4, "16x16 at tile 8 is a 2x2 grid");
    assert_eq!(bits(&full_plan), bits(&scratch));
    let _ = std::fs::remove_dir_all(&dir);
}
