//! Position-deterministic full-chip design generators.
//!
//! The [`DesignSpec`](crate::design::DesignSpec) generators draw their
//! jitter from one sequential RNG stream, so a window's value depends on
//! how many windows were generated before it — fine for whole layouts,
//! useless for tiling, where a tile must be generated without touching
//! the rest of the chip. The [`FullChipSpec`] generators reproduce the
//! same design characters (density ladders, FPGA fabric, SoC macros)
//! but derive every window from a *hash* of `(seed, layer, row, col)`:
//! [`FullChipDesign::generate_tile`] over any region is bitwise equal
//! to cropping [`FullChipDesign::generate`], which is what lets the
//! chip paths stream tiles without materializing the chip.
//!
//! Full-scale grids use the paper's chip dimensions at 100 µm windows:
//! A 5×5 cm → 500×500, B 6.7×6.3 cm → 670×630, C 10×10 cm → 1000×1000.

use crate::design::DesignKind;
use crate::grid::Grid;
use crate::layout::Layout;
use crate::tiling::TileRect;
use crate::window::WindowPattern;

/// Parameters of a position-deterministic full-chip design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FullChipSpec {
    /// Which benchmark class to generate.
    pub kind: DesignKind,
    /// Chip window rows `N`.
    pub rows: usize,
    /// Chip window columns `M`.
    pub cols: usize,
    /// Hash seed; every window is a pure function of `(spec, l, r, c)`.
    pub seed: u64,
}

impl FullChipSpec {
    /// A spec at an explicit grid size.
    #[must_use]
    pub fn new(kind: DesignKind, rows: usize, cols: usize, seed: u64) -> Self {
        Self { kind, rows, cols, seed }
    }

    /// The paper-scale chip for a design class (100 µm windows).
    #[must_use]
    pub fn full_scale(kind: DesignKind, seed: u64) -> Self {
        let (rows, cols) = match kind {
            DesignKind::CmpTest => (500, 500),
            DesignKind::Fpga => (670, 630),
            DesignKind::RiscV => (1000, 1000),
        };
        Self { kind, rows, cols, seed }
    }

    /// Precomputes the floorplan (macro placement for design C) and
    /// returns a generator handle.
    ///
    /// # Panics
    ///
    /// Panics when `rows` or `cols` is zero.
    #[must_use]
    pub fn build(&self) -> FullChipDesign {
        assert!(self.rows > 0 && self.cols > 0, "chip must be non-empty");
        let macros = match self.kind {
            DesignKind::RiscV => riscv_macros(self),
            _ => Vec::new(),
        };
        FullChipDesign { spec: *self, macros }
    }
}

/// A rectangular macro of the design-C floorplan.
#[derive(Debug, Clone, Copy)]
struct MacroBlock {
    r0: usize,
    c0: usize,
    h: usize,
    w: usize,
    density: f64,
    wmul: f64,
    fillable: f64,
}

/// A buildable full-chip design: the spec plus its precomputed
/// floorplan. Windows are pure functions of position, so tiles can be
/// generated independently and bitwise-consistently.
#[derive(Debug, Clone)]
pub struct FullChipDesign {
    spec: FullChipSpec,
    macros: Vec<MacroBlock>,
}

impl FullChipDesign {
    /// The spec this design was built from.
    #[must_use]
    pub fn spec(&self) -> &FullChipSpec {
        &self.spec
    }

    /// Chip window rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.spec.rows
    }

    /// Chip window columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.spec.cols
    }

    /// Number of metal layers (the paper's three).
    #[must_use]
    pub fn num_layers(&self) -> usize {
        3
    }

    /// The design's name, e.g. `"C-chip"`.
    #[must_use]
    pub fn name(&self) -> String {
        format!("{}-chip", self.spec.kind.letter())
    }

    /// The window at `(layer, r, c)` — a pure function of position.
    ///
    /// # Panics
    ///
    /// Panics when the position is out of range.
    #[must_use]
    pub fn window(&self, layer: usize, r: usize, c: usize) -> WindowPattern {
        assert!(layer < 3 && r < self.spec.rows && c < self.spec.cols, "position out of range");
        let area = 100.0 * 100.0;
        match self.spec.kind {
            DesignKind::CmpTest => self.cmp_test_window(layer, r, c, area),
            DesignKind::Fpga => self.fpga_window(layer, r, c, area),
            DesignKind::RiscV => self.riscv_window(layer, r, c, area),
        }
    }

    /// Generates the whole chip as one layout.
    #[must_use]
    pub fn generate(&self) -> Layout {
        self.generate_rect(TileRect { row0: 0, col0: 0, rows: self.spec.rows, cols: self.spec.cols })
    }

    /// Generates only the windows of `rect`, named and sized exactly as
    /// [`Layout::crop`] of the monolithic chip would produce.
    ///
    /// # Panics
    ///
    /// Panics when `rect` is empty or exceeds the chip.
    #[must_use]
    pub fn generate_tile(&self, rect: TileRect) -> Layout {
        assert!(!rect.is_empty(), "tile region must be non-empty");
        assert!(
            rect.row_end() <= self.spec.rows && rect.col_end() <= self.spec.cols,
            "tile region {rect:?} exceeds {}x{} chip",
            self.spec.rows,
            self.spec.cols
        );
        let frac = rect.len() as f64 / (self.spec.rows * self.spec.cols) as f64;
        Layout::new(
            format!("{}~{}", self.name(), rect.label()),
            100.0,
            self.rect_layers(rect),
            self.spec.kind.file_size_mb() * frac,
        )
    }

    fn generate_rect(&self, rect: TileRect) -> Layout {
        Layout::new(self.name(), 100.0, self.rect_layers(rect), self.spec.kind.file_size_mb())
    }

    fn rect_layers(&self, rect: TileRect) -> Vec<Grid<WindowPattern>> {
        (0..3)
            .map(|l| {
                Grid::from_fn(rect.rows, rect.cols, |r, c| self.window(l, rect.row0 + r, rect.col0 + c))
            })
            .collect()
    }

    fn jitter(&self, layer: usize, r: usize, c: usize, amount: f64) -> f64 {
        let h = hash4(self.spec.seed ^ chip_salt(self.spec.kind), layer as u64, r as u64, c as u64);
        (unit(h) * 2.0 - 1.0) * amount
    }

    /// Design A: density ladder × linewidth ladder × fill-exclusion
    /// blocks — the same character as
    /// [`design::gen_cmp_test`](crate::design), position-hashed.
    fn cmp_test_window(&self, l: usize, r: usize, c: usize, area: f64) -> WindowPattern {
        let (rows, cols) = (self.spec.rows, self.spec.cols);
        let base_widths = [0.2, 0.25, 0.32];
        let (t, u) = match l {
            0 => (c as f64 / cols as f64, r as f64 / rows as f64),
            1 => (r as f64 / rows as f64, c as f64 / cols as f64),
            _ => (
                ((r + c) % cols.max(1)) as f64 / cols as f64,
                ((r + rows - c % rows) % rows) as f64 / rows as f64,
            ),
        };
        let step = (t * 9.0).floor() / 9.0;
        let density = 0.1 + 0.8 * step + self.jitter(l, r, c, 0.02);
        let wstep = (u * 5.0).floor() / 5.0;
        let width = base_widths[l] * (0.5 + 3.5 * wstep);
        let fillable = match (r / 4 + c / 4) % 3 {
            0 => 0.3,
            1 => 0.6,
            _ => 0.85,
        };
        window(density, width, area, fillable)
    }

    /// Design B: FPGA fabric — logic tiles, routing channels every 8
    /// windows, fill-blocked RAM columns every 16.
    fn fpga_window(&self, l: usize, r: usize, c: usize, area: f64) -> WindowPattern {
        let layer_scale = [1.0, 1.15, 0.8];
        let widths = [0.18, 0.22, 0.4];
        let (base, wmul, fillable) = if c % 16 == 7 || c % 16 == 8 {
            (0.72, 0.7, 0.03)
        } else if r.is_multiple_of(8) || c.is_multiple_of(8) {
            (0.30, 3.0, 0.8)
        } else {
            (0.55, 1.0, 0.12)
        };
        let density = base * layer_scale[l] + self.jitter(l, r, c, 0.03);
        window(density, widths[l] * wmul, area, fillable)
    }

    /// Design C: heterogeneous macros (from the precomputed floorplan)
    /// over a sparse background.
    fn riscv_window(&self, l: usize, r: usize, c: usize, area: f64) -> WindowPattern {
        let layer_scale = [1.0, 1.1, 0.65];
        let widths = [0.16, 0.2, 0.45];
        let mut density: f64 = 0.18;
        let mut wmul: f64 = 4.0;
        let mut fillable: f64 = 0.85;
        for m in &self.macros {
            if r >= m.r0 && r < m.r0 + m.h && c >= m.c0 && c < m.c0 + m.w && m.density > density {
                density = m.density;
                wmul = m.wmul;
                fillable = m.fillable;
            }
        }
        let density = density * layer_scale[l] + self.jitter(l, r, c, 0.04);
        window(density, widths[l] * wmul, area, fillable)
    }
}

/// Same floorplan statistics as the sequential design-C generator, but
/// each macro's geometry is hashed from its index alone.
fn riscv_macros(spec: &FullChipSpec) -> Vec<MacroBlock> {
    let (rows, cols) = (spec.rows, spec.cols);
    let seed = spec.seed ^ chip_salt(spec.kind);
    let n_macros = ((rows * cols) / 64).clamp(3, 24);
    (0..n_macros as u64)
        .map(|k| {
            let h = hash_range(seed, 1, k, rows.max(4) / 4, rows.max(4) / 2);
            let w = hash_range(seed, 2, k, cols.max(4) / 4, cols.max(4) / 2);
            let r0 = hash_range(seed, 3, k, 0, rows.saturating_sub(h).max(1) - 1);
            let c0 = hash_range(seed, 4, k, 0, cols.saturating_sub(w).max(1) - 1);
            let (density, wmul, fillable) = match k % 3 {
                0 => (0.75, 0.8, 0.04),
                1 => (0.55, 1.5, 0.15),
                _ => (0.35, 3.0, 0.6),
            };
            MacroBlock { r0, c0, h, w, density, wmul, fillable }
        })
        .collect()
}

fn chip_salt(kind: DesignKind) -> u64 {
    match kind {
        DesignKind::CmpTest => 0xC41A_11CE,
        DesignKind::Fpga => 0xC41F_96A0,
        DesignKind::RiscV => 0xC415_C0FF,
    }
}

fn window(density: f64, width: f64, area: f64, fillable: f64) -> WindowPattern {
    WindowPattern::from_line_model(density.clamp(0.02, 0.95), width, area, fillable)
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn hash4(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    splitmix64(splitmix64(splitmix64(splitmix64(seed) ^ a) ^ b) ^ c)
}

fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

fn hash_range(seed: u64, tag: u64, k: u64, lo: usize, hi: usize) -> usize {
    debug_assert!(lo <= hi);
    let span = (hi - lo + 1) as u64;
    lo + (hash4(seed, 0x4AC0, tag, k) % span) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_generation_matches_crop_bitwise() {
        for kind in [DesignKind::CmpTest, DesignKind::Fpga, DesignKind::RiscV] {
            let design = FullChipSpec::new(kind, 24, 20, 9).build();
            let chip = design.generate();
            for rect in [
                TileRect { row0: 0, col0: 0, rows: 24, cols: 20 },
                TileRect { row0: 5, col0: 7, rows: 8, cols: 6 },
                TileRect { row0: 23, col0: 19, rows: 1, cols: 1 },
            ] {
                assert_eq!(design.generate_tile(rect), chip.crop(rect), "{kind:?} {rect:?}");
            }
        }
    }

    #[test]
    fn generation_is_deterministic_and_valid() {
        let d = FullChipSpec::new(DesignKind::RiscV, 16, 16, 3).build();
        assert_eq!(d.generate(), d.generate());
        assert!(d.generate().is_valid());
        assert_eq!(d.generate().num_layers(), 3);
    }

    #[test]
    fn seeds_change_the_chip() {
        let a = FullChipSpec::new(DesignKind::Fpga, 12, 12, 1).build().generate();
        let b = FullChipSpec::new(DesignKind::Fpga, 12, 12, 2).build().generate();
        assert_ne!(a, b);
    }

    #[test]
    fn full_scale_dims_match_paper() {
        assert_eq!(
            (FullChipSpec::full_scale(DesignKind::CmpTest, 0).rows, 500),
            (500, FullChipSpec::full_scale(DesignKind::CmpTest, 0).cols)
        );
        let b = FullChipSpec::full_scale(DesignKind::Fpga, 0);
        assert_eq!((b.rows, b.cols), (670, 630));
        let c = FullChipSpec::full_scale(DesignKind::RiscV, 0);
        assert_eq!((c.rows, c.cols), (1000, 1000));
    }

    #[test]
    fn design_characters_hold_at_chip_scale() {
        let a = FullChipSpec::new(DesignKind::CmpTest, 64, 64, 1).build().generate();
        let dens = a.density_map(0);
        let min = dens.iter().copied().fold(f64::INFINITY, f64::min);
        let max = dens.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(min < 0.2 && max > 0.8, "A range [{min}, {max}]");
        let c = FullChipSpec::new(DesignKind::RiscV, 64, 64, 1).build().generate();
        let d = c.density_map(0);
        let cmin = d.iter().copied().fold(f64::INFINITY, f64::min);
        let cmax = d.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(cmin < 0.3 && cmax > 0.6, "C range [{cmin}, {cmax}]");
    }
}
