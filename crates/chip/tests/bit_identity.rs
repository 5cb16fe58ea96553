//! The chip bit-identity suite: the sharded full-chip flow must be
//! byte-identical to the monolithic one at any tile size and worker
//! count — for the unfilled simulation, the model-based fill plan, and
//! the post-fill verification simulation.

use neurfill_chip::{
    model_fill_monolithic, model_fill_sharded, run_full_chip, ChipFillConfig, ChipRunConfig,
    ChipSimConfig, ChipSimulator,
};
use neurfill_cmpsim::{ChipProfile, CmpSimulator, NumericsTier, ProcessParams};
use neurfill_layout::{apply_fill, DesignKind, DesignSpec, FullChipSpec, Layout, Tiling};

const TILES: [usize; 3] = [0, 8, 4]; // whole chip, 2x2 grid, 4x4 grid on 16x16
const WORKERS: [usize; 3] = [1, 2, 8];

/// A pad kernel whose halo (radius 8) is as large as the 2×2 grid's tile
/// edge and twice the 4×4 grid's: every tile's extension reaches across
/// its neighbours.
fn wide_halo_params() -> ProcessParams {
    ProcessParams { steps: 10, kernel_radius: 8, character_length: 3.0, ..ProcessParams::default() }
}

fn sharded(params: ProcessParams, layout: &Layout, tile: usize, workers: usize) -> ChipProfile {
    let cfg = ChipSimConfig { params, ..ChipSimConfig::fast(tile, workers) };
    let sim = ChipSimulator::new(cfg).unwrap();
    let (profile, stats) = sim.simulate(layout).unwrap();
    assert_eq!(stats.tiles, sim.tiling_for(layout).num_tiles());
    profile
}

fn assert_bits_identical(a: &ChipProfile, b: &ChipProfile, label: &str) {
    assert_eq!(a.num_layers(), b.num_layers(), "{label}: layer count");
    for l in 0..a.num_layers() {
        for (i, (x, y)) in a.layer(l).heights().iter().zip(b.layer(l).heights()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{label}: layer {l} window {i}: {x} vs {y}");
        }
    }
}

#[test]
fn sharded_simulation_matches_monolithic_at_every_tile_size_and_worker_count() {
    for params in [ProcessParams::fast(), wide_halo_params()] {
        let mono_sim = CmpSimulator::new(params.clone()).unwrap();
        for kind in [DesignKind::CmpTest, DesignKind::Fpga, DesignKind::RiscV] {
            let layout = DesignSpec::new(kind, 16, 16, 7).generate();
            let mono = mono_sim.simulate(&layout);
            for tile in TILES {
                for workers in WORKERS {
                    let profile = sharded(params.clone(), &layout, tile, workers);
                    let radius = params.kernel_radius;
                    assert_eq!(profile, mono, "{kind:?} r={radius} tile={tile} workers={workers}");
                }
            }
        }
    }
}

/// The golden simulator has one numeric path: the tier arguments the
/// frozen benchmark still passes select nothing, monolithic or sharded,
/// even at a radius where a tiered kernel used to switch algorithms.
#[test]
fn numerics_tier_does_not_change_a_bit_of_the_golden_simulator() {
    let params = wide_halo_params();
    let default_sim = CmpSimulator::new(params.clone()).unwrap();
    let fast_sim = default_sim.clone().with_numerics(NumericsTier::Fast);
    let fast_chip = ChipSimulator::new(ChipSimConfig {
        params,
        numerics: NumericsTier::Fast,
        ..ChipSimConfig::fast(8, 2)
    })
    .unwrap();
    for kind in [DesignKind::CmpTest, DesignKind::Fpga, DesignKind::RiscV] {
        let layout = DesignSpec::new(kind, 16, 16, 7).generate();
        let want = default_sim.simulate(&layout);
        assert_bits_identical(&fast_sim.simulate(&layout), &want, &format!("{kind:?} monolithic"));
        let (sharded, _) = fast_chip.simulate(&layout).unwrap();
        assert_bits_identical(&sharded, &want, &format!("{kind:?} sharded"));
    }
}

#[test]
fn full_chip_design_source_matches_its_materialized_layout() {
    let params = ProcessParams::fast();
    let mono_sim = CmpSimulator::new(params).unwrap();
    for kind in [DesignKind::CmpTest, DesignKind::Fpga, DesignKind::RiscV] {
        let design = FullChipSpec::new(kind, 16, 16, 11).build();
        let mono = mono_sim.simulate(&design.generate());
        let sim = ChipSimulator::new(ChipSimConfig::fast(5, 2)).unwrap();
        let (profile, _) = sim.simulate(&design).unwrap();
        assert_eq!(profile, mono, "design {kind:?}");
    }
}

#[test]
fn sharded_fill_plan_matches_monolithic() {
    let params = ProcessParams::fast();
    let cfg = ChipFillConfig::default();
    let layout = DesignSpec::new(DesignKind::RiscV, 16, 16, 3).generate();
    let profile = CmpSimulator::new(params.clone()).unwrap().simulate(&layout);
    let mono = model_fill_monolithic(&layout, &profile, &params, &cfg);
    for tile in [16, 8, 4, 5] {
        let tiling = Tiling::square(16, 16, tile, params.kernel_radius);
        for workers in WORKERS {
            let plan = model_fill_sharded(&layout, &profile, &tiling, &params, &cfg, workers);
            assert_eq!(plan, mono, "tile={tile} workers={workers}");
        }
    }
}

#[test]
fn end_to_end_run_is_invariant_across_tile_size_and_worker_count() {
    let design = FullChipSpec::new(DesignKind::RiscV, 16, 16, 5).build();
    // Monolithic reference flow: simulate, fill, apply, re-simulate.
    let params = ProcessParams::fast();
    let fill_cfg = ChipFillConfig::default();
    let mono_sim = CmpSimulator::new(params.clone()).unwrap();
    let chip = design.generate();
    let unfilled = mono_sim.simulate(&chip);
    let plan = model_fill_monolithic(&chip, &unfilled, &params, &fill_cfg);
    let filled_layout = apply_fill(&chip, &plan.to_fill_plan(&chip), &fill_cfg.dummy);
    let filled = mono_sim.simulate(&filled_layout);

    for tile in TILES {
        for workers in WORKERS {
            let result = run_full_chip(&design, &ChipRunConfig::fast(tile, workers)).unwrap();
            let label = format!("tile={tile} workers={workers}");
            assert_eq!(result.unfilled, unfilled, "unfilled {label}");
            assert_eq!(result.plan, plan, "plan {label}");
            assert_eq!(result.filled, filled, "filled {label}");
            assert_eq!(result.report.tiles, {
                let sim = ChipSimulator::new(ChipSimConfig::fast(tile, workers)).unwrap();
                sim.tiling_for(&design).num_tiles()
            });
            assert!(result.report.filled_height_range <= result.report.unfilled_height_range);
        }
    }
}

#[test]
fn degenerate_chips_smaller_than_one_tile_still_run() {
    let layout = DesignSpec::new(DesignKind::CmpTest, 3, 5, 2).generate();
    let mono = CmpSimulator::new(ProcessParams::fast()).unwrap().simulate(&layout);
    for tile in [0, 1, 4, 64] {
        let profile = sharded(ProcessParams::fast(), &layout, tile, 2);
        assert_eq!(profile, mono, "tile={tile}");
    }
}

#[test]
fn halo_accounting_is_reported() {
    let design = FullChipSpec::new(DesignKind::CmpTest, 16, 16, 1).build();
    let sim = ChipSimulator::new(ChipSimConfig::fast(4, 2)).unwrap();
    let (_, stats) = sim.simulate(&design).unwrap();
    assert_eq!(stats.layers, design.num_layers());
    assert!(stats.halo_bytes > 0, "a 4x4 grid must exchange halos");
    assert!(stats.force_evals > 0);
    assert!(stats.peak_tiles_in_flight >= 1);
    // A single whole-chip tile exchanges nothing.
    let solo = ChipSimulator::new(ChipSimConfig::fast(0, 2)).unwrap();
    let (_, solo_stats) = solo.simulate(&design).unwrap();
    assert_eq!(solo_stats.halo_bytes, 0);
}
