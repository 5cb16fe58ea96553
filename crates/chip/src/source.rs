//! Tile-at-a-time chip geometry: the abstraction that keeps the full
//! chip's window list out of memory.

use crate::fill::ChipFillPlan;
use neurfill_layout::{apply_fill, DummySpec, FullChipDesign, Layout, TileRect};

/// A full-chip design that can materialize any window region on
/// demand. Implementations must be *position-deterministic*: the
/// windows of a region do not depend on which other regions were (or
/// were not) generated, so `tile_layout(rect)` always agrees with the
/// corresponding region of `tile_layout(whole chip)`.
pub trait ChipSource: Sync {
    /// Design name for reports and job labels.
    fn name(&self) -> String;
    /// Chip window rows `N`.
    fn rows(&self) -> usize;
    /// Chip window columns `M`.
    fn cols(&self) -> usize;
    /// Number of metal layers `L`.
    fn num_layers(&self) -> usize;
    /// Window edge length in µm.
    fn window_um(&self) -> f64;
    /// Materializes the windows of one region as a standalone layout.
    fn tile_layout(&self, rect: TileRect) -> Layout;

    /// Window area in µm².
    fn window_area(&self) -> f64 {
        self.window_um() * self.window_um()
    }

    /// The whole chip as a region.
    fn whole(&self) -> TileRect {
        TileRect { row0: 0, col0: 0, rows: self.rows(), cols: self.cols() }
    }
}

/// Materializes the windows of `rect`, refusing a layout whose layer
/// count or dimensions are not the chip's and the region's.
pub(crate) fn region_layout(source: &dyn ChipSource, rect: TileRect) -> Result<Layout, String> {
    let sub = source.tile_layout(rect);
    let got = (sub.num_layers(), sub.rows(), sub.cols());
    let want = (source.num_layers(), rect.rows, rect.cols);
    if got == want {
        return Ok(sub);
    }
    Err(format!(
        "tile at ({}, {}) is {}x{}x{}, its region is {}x{}x{}",
        rect.row0, rect.col0, got.0, got.1, got.2, want.0, want.1, want.2
    ))
}

/// An already-materialized layout as a chip source (small chips,
/// tests). Cropping is position-deterministic by construction.
impl ChipSource for Layout {
    fn name(&self) -> String {
        Layout::name(self).to_string()
    }

    fn rows(&self) -> usize {
        Layout::rows(self)
    }

    fn cols(&self) -> usize {
        Layout::cols(self)
    }

    fn num_layers(&self) -> usize {
        Layout::num_layers(self)
    }

    fn window_um(&self) -> f64 {
        Layout::window_um(self)
    }

    fn tile_layout(&self, rect: TileRect) -> Layout {
        self.crop(rect)
    }
}

/// A hash-generated full-scale design as a chip source; tiles are
/// generated directly, never the whole chip.
impl ChipSource for FullChipDesign {
    fn name(&self) -> String {
        FullChipDesign::name(self)
    }

    fn rows(&self) -> usize {
        FullChipDesign::rows(self)
    }

    fn cols(&self) -> usize {
        FullChipDesign::cols(self)
    }

    fn num_layers(&self) -> usize {
        FullChipDesign::num_layers(self)
    }

    fn window_um(&self) -> f64 {
        100.0
    }

    fn tile_layout(&self, rect: TileRect) -> Layout {
        self.generate_tile(rect)
    }
}

/// A chip source with a chip-level fill plan applied tile-at-a-time.
/// Because [`apply_fill`] is pointwise per window, a filled tile is
/// bitwise equal to the same region of the filled monolithic chip —
/// which is what lets the post-fill verification assemble the filled
/// chip tile at a time.
#[derive(Clone, Copy)]
pub struct FilledChipSource<'a> {
    source: &'a dyn ChipSource,
    plan: &'a ChipFillPlan,
    dummy: DummySpec,
}

impl std::fmt::Debug for FilledChipSource<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FilledChipSource")
            .field("source", &self.source.name())
            .field("dummy", &self.dummy)
            .finish_non_exhaustive()
    }
}

impl<'a> FilledChipSource<'a> {
    /// Wraps `source` with `plan`; `dummy` sets the fill-shape model
    /// used when applying amounts.
    ///
    /// # Errors
    ///
    /// Returns a message when the plan's dimensions disagree with the
    /// source.
    pub fn new(
        source: &'a dyn ChipSource,
        plan: &'a ChipFillPlan,
        dummy: DummySpec,
    ) -> Result<Self, String> {
        if (plan.layers(), plan.rows(), plan.cols())
            != (source.num_layers(), source.rows(), source.cols())
        {
            return Err(format!(
                "plan is {}x{}x{}, chip is {}x{}x{}",
                plan.layers(),
                plan.rows(),
                plan.cols(),
                source.num_layers(),
                source.rows(),
                source.cols()
            ));
        }
        Ok(Self { source, plan, dummy })
    }
}

impl ChipSource for FilledChipSource<'_> {
    fn name(&self) -> String {
        format!("{}+fill", self.source.name())
    }

    fn rows(&self) -> usize {
        self.source.rows()
    }

    fn cols(&self) -> usize {
        self.source.cols()
    }

    fn num_layers(&self) -> usize {
        self.source.num_layers()
    }

    fn window_um(&self) -> f64 {
        self.source.window_um()
    }

    fn tile_layout(&self, rect: TileRect) -> Layout {
        let sub = self.source.tile_layout(rect);
        let plan = self.plan.crop_for(&sub, rect);
        apply_fill(&sub, &plan, &self.dummy)
    }
}
