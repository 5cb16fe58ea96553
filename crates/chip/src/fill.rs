//! Chip-level fill plans and the deterministic model-based fill rule.
//!
//! The window-level NN/SQP synthesis ([`crate::pool`]) is a global
//! optimization and therefore not decomposable bit-exactly; the rule
//! here is its deterministic, kernel-local counterpart, built straight
//! from the golden simulator's chip height map: each window's height
//! deficit below the chip's highest window is smoothed by the pad
//! kernel (matching the length scale over which added metal actually
//! changes polish), converted to a fill area through a fixed
//! density-sensitivity, and clamped to the window's slack. The deficit
//! map is smoothed once per layer over the whole chip; only the slack
//! is read tile at a time, so the plan is the same at any tiling and
//! worker count, and a tile is the unit of the run's checkpoint.

use crate::checkpoint::TileCheckpoint;
use crate::source::{region_layout, ChipSource};
use neurfill_cmpsim::{ChipProfile, PadKernel, ProcessParams};
use neurfill_layout::{DummySpec, FillPlan, Layout, Tile, TileRect, Tiling};
use neurfill_runtime::parallel_map_ordered;

/// Parameters of the model-based fill rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipFillConfig {
    /// Fraction of the smoothed deficit to compensate (0..=1].
    pub gain: f64,
    /// Height response per unit pattern density (nm): a smoothed
    /// deficit of `d` nm requests `gain · area · d / nm_per_density`
    /// µm² of fill.
    pub nm_per_density: f64,
    /// Dummy-shape model used when applying the plan.
    pub dummy: DummySpec,
}

impl Default for ChipFillConfig {
    fn default() -> Self {
        Self { gain: 1.0, nm_per_density: 250.0, dummy: DummySpec::default() }
    }
}

/// A chip-sized fill plan: `layers × rows × cols` amounts (µm²) in the
/// flat order `l·(N·M) + r·M + c`.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipFillPlan {
    layers: usize,
    rows: usize,
    cols: usize,
    amounts: Vec<f64>,
}

impl ChipFillPlan {
    /// An all-zero plan.
    ///
    /// # Panics
    ///
    /// Panics when any dimension is zero.
    #[must_use]
    pub fn zeros(layers: usize, rows: usize, cols: usize) -> Self {
        assert!(layers > 0 && rows > 0 && cols > 0, "plan dimensions must be positive");
        Self { layers, rows, cols, amounts: vec![0.0; layers * rows * cols] }
    }

    /// Number of layers.
    #[must_use]
    pub fn layers(&self) -> usize {
        self.layers
    }

    /// Chip rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Chip columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Flat offset of `(layer, r, c)`.
    ///
    /// # Panics
    ///
    /// Panics when the position is out of range.
    #[must_use]
    pub fn idx(&self, layer: usize, r: usize, c: usize) -> usize {
        assert!(layer < self.layers && r < self.rows && c < self.cols, "position out of range");
        layer * self.rows * self.cols + r * self.cols + c
    }

    /// All amounts in flat order.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.amounts
    }

    /// Mutable amounts in flat order.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.amounts
    }

    /// Total fill area (µm²), folded in flat chip order.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.amounts.iter().sum()
    }

    /// Writes one tile's core amounts (layer-major, then row, then
    /// column — the order every tile path produces and the checkpoint
    /// stores) into the tile's owned chip region.
    ///
    /// # Panics
    ///
    /// Panics when `core` does not match the tile's core geometry times
    /// the plan's layer count, or the tile lies outside the plan.
    pub fn merge_core(&mut self, tile: &Tile, core: &[f64]) {
        assert_eq!(core.len(), self.layers * tile.core.len(), "core amounts/tile mismatch");
        let mut k = 0;
        for l in 0..self.layers {
            for r in 0..tile.core.rows {
                let dst = self.idx(l, tile.core.row0 + r, tile.core.col0);
                self.amounts[dst..dst + tile.core.cols].copy_from_slice(&core[k..k + tile.core.cols]);
                k += tile.core.cols;
            }
        }
    }

    /// The plan restricted to a region, as a [`FillPlan`] for the
    /// region's layout (`sub` must be the layout of `rect`).
    ///
    /// # Panics
    ///
    /// Panics when `sub`'s dimensions disagree with `rect` or `rect`
    /// exceeds the chip.
    #[must_use]
    pub fn crop_for(&self, sub: &Layout, rect: TileRect) -> FillPlan {
        assert_eq!((sub.rows(), sub.cols()), (rect.rows, rect.cols), "layout/region mismatch");
        assert_eq!(sub.num_layers(), self.layers, "layer count mismatch");
        assert!(rect.row_end() <= self.rows && rect.col_end() <= self.cols, "region exceeds the chip");
        let mut amounts = Vec::with_capacity(self.layers * rect.len());
        for l in 0..self.layers {
            for r in rect.row0..rect.row_end() {
                let start = self.idx(l, r, rect.col0);
                amounts.extend_from_slice(&self.amounts[start..start + rect.cols]);
            }
        }
        FillPlan::from_vec(sub, amounts)
    }

    /// The whole plan as a [`FillPlan`] for the monolithic chip layout.
    ///
    /// # Panics
    ///
    /// Panics when `chip`'s dimensions disagree with the plan.
    #[must_use]
    pub fn to_fill_plan(&self, chip: &Layout) -> FillPlan {
        assert_eq!(
            (chip.num_layers(), chip.rows(), chip.cols()),
            (self.layers, self.rows, self.cols),
            "layout/plan dimension mismatch"
        );
        FillPlan::from_vec(chip, self.amounts.clone())
    }
}

/// Per-window fill amount from a smoothed deficit and the window's
/// slack.
#[inline]
fn rule(smoothed_deficit: f64, slack: f64, area: f64, cfg: &ChipFillConfig) -> f64 {
    (cfg.gain * area * smoothed_deficit / cfg.nm_per_density).clamp(0.0, slack)
}

/// Height deficits of one layer below its highest window (chip-order
/// max fold).
fn deficits(heights: &[f64]) -> Vec<f64> {
    let h_max = heights.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    heights.iter().map(|&h| h_max - h).collect()
}

/// The model-based fill rule on a chip source and its unfilled height
/// profile: each layer's deficit map is smoothed once over the whole
/// chip, then every tile of `tiling` reads its core's slack and turns
/// the smoothed deficits of its core into amounts. Tiles write disjoint
/// cores, so the plan is the same at any tiling and worker count; a
/// [`Layout`] source with a single whole-chip tile is the monolithic
/// evaluation.
///
/// With a `checkpoint`, tiles already stored there are merged from
/// their stored core amounts (a bit-exact decimal round-trip) instead
/// of being recomputed, and every freshly computed tile is stored — in
/// row-major tile order, so checkpoint-write fault ordinals are
/// deterministic — before it is merged. Returns the plan and the number
/// of tiles resumed.
///
/// # Errors
///
/// Returns a message when a tile's layout does not have its core's
/// dimensions, or a checkpoint store fails (I/O or injected fault);
/// completed tiles remain durable for the next attempt.
///
/// # Panics
///
/// Panics when the profile or tiling dimensions disagree with the
/// source.
pub fn model_fill(
    source: &dyn ChipSource,
    profile: &ChipProfile,
    tiling: &Tiling,
    params: &ProcessParams,
    cfg: &ChipFillConfig,
    workers: usize,
    checkpoint: Option<&TileCheckpoint>,
) -> Result<(ChipFillPlan, usize), String> {
    let (rows, cols) = (source.rows(), source.cols());
    assert_eq!((tiling.rows(), tiling.cols()), (rows, cols), "tiling/source mismatch");
    let layers = source.num_layers();
    let kernel = PadKernel::exponential(params.character_length, params.kernel_radius);
    let area = source.window_area();
    let smoothed: Vec<Vec<f64>> = (0..layers)
        .map(|l| {
            let layer = profile.layer(l);
            assert_eq!((layer.rows(), layer.cols()), (rows, cols), "profile/source mismatch");
            kernel.apply(&deficits(layer.heights()), rows, cols)
        })
        .collect();
    let mut plan = ChipFillPlan::zeros(layers, rows, cols);
    let mut resumed = 0usize;
    let mut todo = Vec::new();
    for t in tiling.tiles() {
        if let Some(amounts) = checkpoint.and_then(|cp| cp.amounts(&t, layers)) {
            plan.merge_core(&t, amounts);
            resumed += 1;
        } else {
            todo.push(t);
        }
    }
    let results = parallel_map_ordered(todo, workers, |t| -> Result<(Tile, Vec<f64>), String> {
        let core = t.core;
        let sub = region_layout(source, core)?;
        let mut core_amounts = Vec::with_capacity(layers * core.len());
        for (l, sm) in smoothed.iter().enumerate() {
            for (i, w) in sub.layer(l).iter().enumerate() {
                let k = (core.row0 + i / core.cols) * cols + core.col0 + i % core.cols;
                core_amounts.push(rule(sm[k], w.slack, area, cfg));
            }
        }
        Ok((t, core_amounts))
    });
    for result in results {
        let (t, core_amounts) = result?;
        if let Some(cp) = checkpoint {
            cp.store(&t, layers, &core_amounts)?;
        }
        plan.merge_core(&t, &core_amounts);
    }
    Ok((plan, resumed))
}
