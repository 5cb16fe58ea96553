//! Halo-aware tile sharding of the polish loop — the simulator-side
//! half of the full-chip decomposition in `neurfill-chip`.
//!
//! The per-step physics splits into a *local* part (pad-kernel
//! smoothing, whose support is the kernel radius, plus the pointwise
//! DSH/Preston update) and one irreducibly *global* part (the
//! contact-mechanics reference-plane solve, a force balance over every
//! window). A [`TileShard`] owns the core region of one tile and
//! exchanges halos through chip-sized boards:
//!
//! 1. every shard scatters its core envelope into the shared board,
//! 2. every shard gathers its halo-extended region back (this is the
//!    halo exchange; the non-core cells are the bytes a distributed
//!    deployment would ship between neighbors) and smooths its core
//!    window of it,
//! 3. the smoothed cores are scattered back in chip order and the
//!    reference plane is solved on the assembled chip board — exactly
//!    the monolithic force sum, in the same row-major order,
//! 4. every shard updates its core pointwise from `z_ref`.
//!
//! Because the pad kernel's clip handling depends only on each cell's
//! distance to the field boundary per side, and a halo of at least the
//! kernel radius makes those distances identical between the extended
//! field and the full chip for every core cell (each side is either the
//! chip boundary itself or at least `radius` away), the smoothed core
//! of a tile is *bitwise* equal to the corresponding region of a
//! monolithic smooth. All remaining arithmetic is pointwise or runs in
//! chip order, so the sharded layer result is byte-identical to
//! [`CmpSimulator::simulate_layer`](crate::CmpSimulator) at any tile
//! size — the property `crates/chip` pins across worker counts.

use crate::contact::{solve_reference_plane_stats, window_pressures_into, ContactSolveStats};
use crate::dsh::split_pressure;
use crate::kernel::PadKernel;
use crate::params::ProcessParams;
use crate::profile::LayerProfile;
use crate::simulator::LayerInput;
use neurfill_layout::tiling::Tile;

/// Width/perimeter pressure modifiers of the DSH stage, shared between
/// the monolithic and the sharded path.
#[must_use]
pub fn dish_erosion_factors(
    avg_width: &[f64],
    perimeter: &[f64],
    p: &ProcessParams,
) -> (Vec<f64>, Vec<f64>) {
    let dish = avg_width
        .iter()
        .map(|&w| 1.0 + p.dishing_coefficient * w / (w + p.dishing_reference_width))
        .collect();
    let erosion =
        perimeter.iter().map(|&per| 1.0 + p.erosion_coefficient * per / p.perimeter_scale).collect();
    (dish, erosion)
}

/// One DSH-split + Preston-removal update (paper steps 3–4), pointwise
/// over whatever region the slices cover.
///
/// # Panics
///
/// Panics when the slices disagree in length.
pub fn polish_pointwise(
    z_up: &mut [f64],
    z_down: &mut [f64],
    pressures: &[f64],
    rho_eff: &[f64],
    dish_factor: &[f64],
    erosion_factor: &[f64],
    p: &ProcessParams,
) {
    let n = z_up.len();
    assert!(
        [z_down.len(), pressures.len(), rho_eff.len(), dish_factor.len(), erosion_factor.len()]
            .iter()
            .all(|&l| l == n),
        "polish slice lengths disagree"
    );
    for i in 0..n {
        let step = (z_up[i] - z_down[i]).max(0.0);
        let split = split_pressure(pressures[i], rho_eff[i], step, p);
        let up_rate = split.up * erosion_factor[i];
        let down_rate = split.down * dish_factor[i];
        z_up[i] -= p.removal_per_step * up_rate;
        z_down[i] -= p.removal_per_step * down_rate;
        if z_down[i] > z_up[i] {
            z_down[i] = z_up[i];
        }
    }
}

/// Builds the layer profile from final heights. The erosion reference
/// (`max z_up`) is folded in row-major input order — the fold the
/// sharded path must reproduce on the merged chip board, since float
/// `max` with NaN-free inputs is order-independent but the simulator
/// pins the exact monolithic traversal anyway.
///
/// # Panics
///
/// Panics when slice lengths disagree with `rows * cols`.
#[must_use]
pub fn finalize_layer(
    rows: usize,
    cols: usize,
    density: &[f64],
    z_up: &[f64],
    z_down: &[f64],
) -> LayerProfile {
    let n = rows * cols;
    assert!(
        density.len() == n && z_up.len() == n && z_down.len() == n,
        "finalize slice lengths disagree"
    );
    let z_up_max = z_up.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut avg_height = vec![0.0; n];
    let mut dishing = vec![0.0; n];
    let mut erosion = vec![0.0; n];
    for i in 0..n {
        let rho = density[i];
        avg_height[i] = rho * z_up[i] + (1.0 - rho) * z_down[i];
        dishing[i] = (z_up[i] - z_down[i]).max(0.0);
        erosion[i] = z_up_max - z_up[i];
    }
    LayerProfile::new(rows, cols, avg_height, dishing, erosion)
}

/// Smooths only the core of a halo-extended row-major field into `out`
/// (core-sized, row-major). With a halo of at least the kernel radius
/// this is bitwise the core of a monolithic smooth (module docs).
///
/// # Panics
///
/// Panics when `ext_field` is not extension-sized or `out` not
/// core-sized.
pub fn smooth_core_into(kernel: &PadKernel, tile: &Tile, ext_field: &[f64], out: &mut [f64]) {
    let (dr, dc) = tile.core_in_ext();
    let (ext, core) = (tile.ext, tile.core);
    kernel.apply_window_into(ext_field, ext.rows, ext.cols, dr..dr + core.rows, dc..dc + core.cols, out);
}

/// Copies the core region out of a halo-extended row-major field.
fn core_of_ext(tile: &Tile, ext_field: &[f64]) -> Vec<f64> {
    let (dr, dc) = tile.core_in_ext();
    let mut out = Vec::with_capacity(tile.core.len());
    for r in 0..tile.core.rows {
        let start = (dr + r) * tile.ext.cols + dc;
        out.extend_from_slice(&ext_field[start..start + tile.core.cols]);
    }
    out
}

/// Per-tile polish state: core-region heights plus the scratch that
/// gathers the halo-extended envelope each step.
#[derive(Debug, Clone)]
pub struct TileShard {
    tile: Tile,
    density: Vec<f64>,
    rho_eff: Vec<f64>,
    dish_factor: Vec<f64>,
    erosion_factor: Vec<f64>,
    z_up: Vec<f64>,
    z_down: Vec<f64>,
    smoothed_core: Vec<f64>,
    pressures: Vec<f64>,
    ext_buf: Vec<f64>,
    halo_cells_exchanged: u64,
}

impl TileShard {
    /// Builds the shard from the tile's halo-extended layer input. The
    /// effective density of the core is smoothed once (it does not
    /// change during the polish); everything kept lives on the core.
    ///
    /// # Errors
    ///
    /// Returns a message when the input fails validation or does not
    /// match the tile's extended region.
    pub fn new(
        tile: Tile,
        ext_input: &LayerInput,
        kernel: &PadKernel,
        params: &ProcessParams,
    ) -> Result<Self, String> {
        ext_input.validate()?;
        if ext_input.rows != tile.ext.rows || ext_input.cols != tile.ext.cols {
            return Err(format!(
                "tile input is {}x{}, extended region is {}x{}",
                ext_input.rows, ext_input.cols, tile.ext.rows, tile.ext.cols
            ));
        }
        let core_len = tile.core.len();
        let mut rho_eff = vec![0.0; core_len];
        smooth_core_into(kernel, &tile, &ext_input.density, &mut rho_eff);
        let (dish_ext, erosion_ext) =
            dish_erosion_factors(&ext_input.avg_width, &ext_input.perimeter, params);
        let z_up = vec![params.initial_height; core_len];
        let z_down: Vec<f64> = z_up.iter().map(|z| z - params.initial_step).collect();
        Ok(Self {
            tile,
            density: core_of_ext(&tile, &ext_input.density),
            rho_eff,
            dish_factor: core_of_ext(&tile, &dish_ext),
            erosion_factor: core_of_ext(&tile, &erosion_ext),
            z_up,
            z_down,
            smoothed_core: vec![0.0; core_len],
            pressures: vec![0.0; core_len],
            ext_buf: vec![0.0; tile.ext.len()],
            halo_cells_exchanged: 0,
        })
    }

    /// The tile this shard owns.
    #[must_use]
    pub fn tile(&self) -> &Tile {
        &self.tile
    }

    /// Halo cells gathered over the shard's lifetime (the exchange
    /// volume; multiply by 8 for bytes).
    #[must_use]
    pub fn halo_cells_exchanged(&self) -> u64 {
        self.halo_cells_exchanged
    }

    /// Writes the core envelope (`z_up`) into the chip board.
    pub fn scatter_envelope(&self, board: &mut [f64], chip_cols: usize) {
        self.scatter_core(&self.z_up, board, chip_cols);
    }

    /// Writes the smoothed core into the chip board (for the global
    /// contact solve).
    pub fn scatter_smoothed(&self, board: &mut [f64], chip_cols: usize) {
        self.scatter_core(&self.smoothed_core, board, chip_cols);
    }

    fn scatter_core(&self, field: &[f64], board: &mut [f64], chip_cols: usize) {
        let core = &self.tile.core;
        for r in 0..core.rows {
            let src = r * core.cols;
            let dst = (core.row0 + r) * chip_cols + core.col0;
            board[dst..dst + core.cols].copy_from_slice(&field[src..src + core.cols]);
        }
    }

    /// Gathers the halo-extended envelope from the chip board and
    /// smooths its core window into this step's smoothed heights.
    /// Counts the halo (non-core) cells gathered.
    pub fn smooth_from(&mut self, kernel: &PadKernel, board: &[f64], chip_cols: usize) {
        let ext = self.tile.ext;
        for r in 0..ext.rows {
            let src = (ext.row0 + r) * chip_cols + ext.col0;
            let dst = r * ext.cols;
            self.ext_buf[dst..dst + ext.cols].copy_from_slice(&board[src..src + ext.cols]);
        }
        self.halo_cells_exchanged += self.tile.halo_cells() as u64;
        smooth_core_into(kernel, &self.tile, &self.ext_buf, &mut self.smoothed_core);
    }

    /// Pointwise DSH/Preston update of the core from the global
    /// reference plane.
    pub fn update(&mut self, z_ref: f64, params: &ProcessParams) {
        window_pressures_into(&self.smoothed_core, z_ref, params, &mut self.pressures);
        polish_pointwise(
            &mut self.z_up,
            &mut self.z_down,
            &self.pressures,
            &self.rho_eff,
            &self.dish_factor,
            &self.erosion_factor,
            params,
        );
    }

    /// Scatters the final core state into the chip-level result boards.
    pub fn finalize_into(
        &self,
        z_up: &mut [f64],
        z_down: &mut [f64],
        density: &mut [f64],
        chip_cols: usize,
    ) {
        self.scatter_core(&self.z_up, z_up, chip_cols);
        self.scatter_core(&self.z_down, z_down, chip_cols);
        self.scatter_core(&self.density, density, chip_cols);
    }
}

/// Exchange statistics of one sharded layer simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Number of tiles.
    pub tiles: usize,
    /// Polish steps run.
    pub steps: usize,
    /// Halo cells gathered across all tiles and steps (×8 for bytes).
    pub halo_cells_exchanged: u64,
    /// The global contact solves' stats, summed over the steps (the
    /// monolithic run's, since the solve sees the same chip board).
    pub contact: ContactSolveStats,
}

/// A shard-mapping strategy: applies `f` to every shard, returning them
/// in the same order. The sequential reference is
/// [`map_sequential`]; `neurfill-chip` supplies a pool-backed parallel
/// mapper. `f` only touches one shard's state, so any execution order
/// (or interleaving) yields the same result.
pub type ShardMap<'a> =
    &'a (dyn Fn(Vec<TileShard>, &(dyn Fn(TileShard) -> TileShard + Sync)) -> Vec<TileShard> + 'a);

/// The trivial in-order shard mapper.
#[must_use]
pub fn map_sequential(
    shards: Vec<TileShard>,
    f: &(dyn Fn(TileShard) -> TileShard + Sync),
) -> Vec<TileShard> {
    shards.into_iter().map(f).collect()
}

/// Runs the full polish loop over tile shards, exchanging halos through
/// chip-sized boards each step and solving the reference plane globally
/// on the assembled chip — byte-identical to the monolithic
/// [`CmpSimulator::simulate_layer`](crate::CmpSimulator) when every
/// shard's halo is at least the kernel radius.
///
/// # Panics
///
/// Panics when shard cores do not tile the `chip_rows × chip_cols`
/// board (mismatched construction).
#[must_use]
pub fn simulate_layer_sharded(
    mut shards: Vec<TileShard>,
    chip_rows: usize,
    chip_cols: usize,
    params: &ProcessParams,
    kernel: &PadKernel,
    map: ShardMap<'_>,
) -> (LayerProfile, ShardStats, Vec<TileShard>) {
    let n = chip_rows * chip_cols;
    assert_eq!(
        shards.iter().map(|s| s.tile.core.len()).sum::<usize>(),
        n,
        "shard cores must tile the chip"
    );
    let mut envelope = vec![0.0; n];
    let mut smoothed = vec![0.0; n];
    let mut stats = ShardStats { tiles: shards.len(), steps: params.steps, ..ShardStats::default() };
    for _ in 0..params.steps {
        for s in &shards {
            s.scatter_envelope(&mut envelope, chip_cols);
        }
        {
            let board = &envelope;
            shards = map(shards, &move |mut s: TileShard| {
                s.smooth_from(kernel, board, chip_cols);
                s
            });
        }
        for s in &shards {
            s.scatter_smoothed(&mut smoothed, chip_cols);
        }
        let (z_ref, solve_stats) = solve_reference_plane_stats(&smoothed, params);
        stats.contact += solve_stats;
        shards = map(shards, &move |mut s: TileShard| {
            s.update(z_ref, params);
            s
        });
    }
    let mut z_up = vec![0.0; n];
    let mut z_down = vec![0.0; n];
    let mut density = vec![0.0; n];
    for s in &shards {
        s.finalize_into(&mut z_up, &mut z_down, &mut density, chip_cols);
    }
    let profile = finalize_layer(chip_rows, chip_cols, &density, &z_up, &z_down);
    stats.halo_cells_exchanged = shards.iter().map(TileShard::halo_cells_exchanged).sum();
    (profile, stats, shards)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::CmpSimulator;
    use neurfill_layout::{DesignKind, DesignSpec, Tiling};

    fn sharded_layer(
        layout: &neurfill_layout::Layout,
        layer: usize,
        tiling: &Tiling,
        params: &ProcessParams,
    ) -> (LayerProfile, ShardStats) {
        let kernel = PadKernel::exponential(params.character_length, params.kernel_radius);
        let shards: Vec<TileShard> = tiling
            .tiles()
            .map(|t| {
                let sub = layout.crop(t.ext);
                TileShard::new(t, &LayerInput::from_layout(&sub, layer), &kernel, params).unwrap()
            })
            .collect();
        let (profile, stats, _) = simulate_layer_sharded(
            shards,
            layout.rows(),
            layout.cols(),
            params,
            &kernel,
            &map_sequential,
        );
        (profile, stats)
    }

    #[test]
    fn sharded_layer_is_bit_identical_to_monolithic() {
        let params = ProcessParams::fast();
        let sim = CmpSimulator::new(params.clone()).unwrap();
        for kind in [DesignKind::CmpTest, DesignKind::Fpga, DesignKind::RiscV] {
            let layout = DesignSpec::new(kind, 12, 18, 5).generate();
            let mono = sim.simulate_layer(&LayerInput::from_layout(&layout, 0));
            for tile in [1, 3, 5, 18] {
                let tiling = Tiling::square(layout.rows(), layout.cols(), tile, params.kernel_radius);
                let (sharded, stats) = sharded_layer(&layout, 0, &tiling, &params);
                assert_eq!(sharded, mono, "{kind:?} tile={tile}");
                assert_eq!(stats.tiles, tiling.num_tiles());
                assert_eq!(stats.steps, params.steps);
            }
        }
    }

    #[test]
    fn contact_stats_match_the_monolithic_counters() {
        // The global solve sees the same chip board either way, so the
        // sharded run must report the monolithic run's pass counts.
        let params = ProcessParams::fast();
        let telemetry = neurfill_obs::Telemetry::new();
        let sim = CmpSimulator::new(params.clone()).unwrap().with_telemetry(telemetry.clone());
        let layout = DesignSpec::new(DesignKind::Fpga, 12, 18, 5).generate();
        let _ = sim.simulate_layer(&LayerInput::from_layout(&layout, 0));
        let snap = telemetry.snapshot();
        let tiling = Tiling::square(layout.rows(), layout.cols(), 5, params.kernel_radius);
        let (_, stats) = sharded_layer(&layout, 0, &tiling, &params);
        let mono = |name: &str| snap.counter(&format!("sim.contact.{name}"));
        let monolithic =
            ContactSolveStats { newton_passes: mono("newton_passes"), fallbacks: mono("fallbacks") };
        assert_eq!(stats.contact, monolithic);
        assert!(stats.contact.newton_passes > 0, "the equality above must not be 0 == 0");
    }

    #[test]
    fn oversized_halo_is_also_bit_identical() {
        let params = ProcessParams::fast();
        let sim = CmpSimulator::new(params.clone()).unwrap();
        let layout = DesignSpec::new(DesignKind::RiscV, 10, 10, 3).generate();
        let mono = sim.simulate_layer(&LayerInput::from_layout(&layout, 1));
        let tiling = Tiling::square(10, 10, 4, params.kernel_radius + 3);
        let (sharded, _) = sharded_layer(&layout, 1, &tiling, &params);
        assert_eq!(sharded, mono);
    }

    #[test]
    fn halo_exchange_volume_is_counted() {
        let params = ProcessParams::fast();
        let layout = DesignSpec::new(DesignKind::CmpTest, 8, 8, 1).generate();
        let tiling = Tiling::square(8, 8, 4, params.kernel_radius);
        let (_, stats) = sharded_layer(&layout, 0, &tiling, &params);
        let per_step: u64 = tiling.tiles().map(|t| t.halo_cells() as u64).sum();
        assert_eq!(stats.halo_cells_exchanged, per_step * params.steps as u64);
        assert!(stats.halo_cells_exchanged > 0);
        // Single-tile runs exchange nothing.
        let whole = Tiling::square(8, 8, 8, params.kernel_radius);
        let (_, stats1) = sharded_layer(&layout, 0, &whole, &params);
        assert_eq!(stats1.halo_cells_exchanged, 0);
    }

    #[test]
    fn undersized_halo_diverges_from_monolithic() {
        // With halo < kernel radius the smoothing support is clipped at
        // tile boundaries — the decomposition soundness argument needs
        // halo >= radius, and this pins that the test above is not
        // vacuous.
        let params = ProcessParams::fast();
        assert!(params.kernel_radius >= 1);
        let sim = CmpSimulator::new(params.clone()).unwrap();
        let layout = DesignSpec::new(DesignKind::CmpTest, 12, 12, 2).generate();
        let mono = sim.simulate_layer(&LayerInput::from_layout(&layout, 0));
        let tiling = Tiling::square(12, 12, 4, 0);
        let (sharded, _) = sharded_layer(&layout, 0, &tiling, &params);
        assert_ne!(sharded, mono);
    }

    #[test]
    fn shard_rejects_mismatched_input() {
        let params = ProcessParams::fast();
        let kernel = PadKernel::exponential(params.character_length, params.kernel_radius);
        let layout = DesignSpec::new(DesignKind::CmpTest, 8, 8, 1).generate();
        let tiling = Tiling::square(8, 8, 4, params.kernel_radius);
        let tile = tiling.tile(0, 0);
        // Core-sized input where the extended region is expected.
        let sub = layout.crop(tile.core);
        let err = TileShard::new(tile, &LayerInput::from_layout(&sub, 0), &kernel, &params);
        assert!(err.is_err());
    }
}
