//! Synthetic design generators standing in for the paper's three test
//! layouts (§V): A — a CMP test design, B — an FPGA, C — a RISC-V CPU.
//!
//! The generators reproduce the *character* of each design class (density
//! ranges, spatial statistics, repetitiveness) rather than any specific
//! netlist; filling-synthesis difficulty depends only on the density/slack
//! topography. Nominal chip and file sizes are taken from the paper so that
//! the benchmark-related score coefficients (Table II) stay meaningful.

use crate::grid::Grid;
use crate::layout::Layout;
use crate::window::WindowPattern;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The three benchmark design classes of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DesignKind {
    /// Design A: CMP test design (5 cm × 5 cm, 16.4 MB) — regular
    /// density-ladder test structures.
    CmpTest,
    /// Design B: FPGA (6.7 cm × 6.3 cm, 948.7 MB) — tiled repetitive
    /// fabric with routing channels and RAM columns.
    Fpga,
    /// Design C: RISC-V CPU (10 cm × 10 cm, 80.6 MB) — heterogeneous macro
    /// blocks over a sparse background.
    RiscV,
}

impl DesignKind {
    /// Single-letter name used in the paper's tables.
    #[must_use]
    pub fn letter(self) -> &'static str {
        match self {
            DesignKind::CmpTest => "A",
            DesignKind::Fpga => "B",
            DesignKind::RiscV => "C",
        }
    }

    /// The design named by its table letter, `A`, `B` or `C` in either
    /// case (the `--design` value of `runfill` and `gendata`).
    #[must_use]
    pub fn from_letter(s: &str) -> Option<Self> {
        [DesignKind::CmpTest, DesignKind::Fpga, DesignKind::RiscV]
            .into_iter()
            .find(|k| k.letter().eq_ignore_ascii_case(s))
    }

    /// Nominal input file size in MB (paper §V).
    #[must_use]
    pub fn file_size_mb(self) -> f64 {
        match self {
            DesignKind::CmpTest => 16.4,
            DesignKind::Fpga => 948.7,
            DesignKind::RiscV => 80.6,
        }
    }
}

/// Parameters of a synthetic design instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignSpec {
    /// Which benchmark class to generate.
    pub kind: DesignKind,
    /// Number of window rows `N`.
    pub rows: usize,
    /// Number of window columns `M`.
    pub cols: usize,
    /// RNG seed (generation is fully deterministic given the spec).
    pub seed: u64,
}

impl DesignSpec {
    /// A spec with the paper's three metal layers and 100 µm windows.
    #[must_use]
    pub fn new(kind: DesignKind, rows: usize, cols: usize, seed: u64) -> Self {
        Self { kind, rows, cols, seed }
    }

    /// Generates the layout.
    ///
    /// # Panics
    ///
    /// Panics when `rows` or `cols` is zero.
    #[must_use]
    pub fn generate(&self) -> Layout {
        assert!(self.rows > 0 && self.cols > 0);
        let mut rng = StdRng::seed_from_u64(self.seed ^ design_salt(self.kind));
        let window_um = 100.0;
        let area = window_um * window_um;
        let layers = match self.kind {
            DesignKind::CmpTest => gen_cmp_test(self.rows, self.cols, area, &mut rng),
            DesignKind::Fpga => gen_fpga(self.rows, self.cols, area, &mut rng),
            DesignKind::RiscV => gen_riscv(self.rows, self.cols, area, &mut rng),
        };
        Layout::new(self.kind.letter(), window_um, layers, self.kind.file_size_mb())
    }
}

fn design_salt(kind: DesignKind) -> u64 {
    match kind {
        DesignKind::CmpTest => 0xA11C_E0DE,
        DesignKind::Fpga => 0xF9_6A00,
        DesignKind::RiscV => 0x5C_0FFE,
    }
}

fn jitter(rng: &mut StdRng, amount: f64) -> f64 {
    rng.gen_range(-amount..=amount)
}

fn window(density: f64, width: f64, area: f64, fillable: f64) -> WindowPattern {
    WindowPattern::from_line_model(density.clamp(0.02, 0.95), width, area, fillable)
}

/// Design A: vertical density-ladder stripes (0.1 → 0.9), orientation
/// rotating per layer, crossed with an orthogonal feature-width ladder —
/// the classic CMP characterization pattern (density × linewidth matrix).
///
/// The width ladder matters: dishing depends on feature width, so windows
/// of equal density but different width polish to different heights. That
/// heterogeneity is what model-based filling can compensate and rule-based
/// filling cannot (the paper's Table III gap).
fn gen_cmp_test(rows: usize, cols: usize, area: f64, rng: &mut StdRng) -> Vec<Grid<WindowPattern>> {
    let base_widths = [0.2, 0.25, 0.32];
    (0..3)
        .map(|l| {
            Grid::from_fn(rows, cols, |r, c| {
                // Stripe index along the layer-dependent orientation.
                let (t, u) = match l {
                    0 => (c as f64 / cols as f64, r as f64 / rows as f64),
                    1 => (r as f64 / rows as f64, c as f64 / cols as f64),
                    _ => (
                        ((r + c) % cols.max(1)) as f64 / cols as f64,
                        ((r + rows - c % rows) % rows) as f64 / rows as f64,
                    ),
                };
                let step = (t * 9.0).floor() / 9.0;
                let density = 0.1 + 0.8 * step + jitter(rng, 0.02);
                // Orthogonal linewidth ladder: 0.5x .. 4x the layer width.
                let wstep = (u * 5.0).floor() / 5.0;
                let width = base_widths[l] * (0.5 + 3.5 * wstep);
                // Fill-exclusion ladder: alternating blocks of the test
                // matrix forbid filling (scribe/measurement structures).
                let fillable = match (r / 4 + c / 4) % 3 {
                    0 => 0.3,
                    1 => 0.6,
                    _ => 0.85,
                };
                window(density, width, area, fillable)
            })
        })
        .collect()
}

/// Design B: tiled FPGA fabric — logic tiles, routing channels every 8
/// windows, RAM columns every 16, highly repetitive.
fn gen_fpga(rows: usize, cols: usize, area: f64, rng: &mut StdRng) -> Vec<Grid<WindowPattern>> {
    let layer_scale = [1.0, 1.15, 0.8];
    let widths = [0.18, 0.22, 0.4];
    (0..3)
        .map(|l| {
            Grid::from_fn(rows, cols, |r, c| {
                // (density, width multiplier, fillable) per tile type: RAM
                // arrays are fill-blocked, congested logic nearly so,
                // routing channels are where fill can actually go.
                let (base, wmul, fillable) = if c % 16 == 7 || c % 16 == 8 {
                    (0.72, 0.7, 0.03) // RAM column (fill-blocked)
                } else if r % 8 == 0 || c % 8 == 0 {
                    (0.30, 3.0, 0.8) // routing channel
                } else {
                    (0.55, 1.0, 0.12) // logic tile (congested)
                };
                let density = base * layer_scale[l] + jitter(rng, 0.03);
                window(density, widths[l] * wmul, area, fillable)
            })
        })
        .collect()
}

/// Design C: heterogeneous SoC floorplan — cache macros, datapath blocks
/// and sparse periphery over a low-density background.
fn gen_riscv(rows: usize, cols: usize, area: f64, rng: &mut StdRng) -> Vec<Grid<WindowPattern>> {
    // Shared floorplan across layers: rectangular macros.
    #[derive(Clone, Copy)]
    struct Macro {
        r0: usize,
        c0: usize,
        h: usize,
        w: usize,
        density: f64,
        wmul: f64,
        fillable: f64,
    }
    let n_macros = ((rows * cols) / 64).clamp(3, 24);
    let mut macros = Vec::with_capacity(n_macros);
    for k in 0..n_macros {
        let h = rng.gen_range(rows.max(4) / 4..=rows.max(4) / 2);
        let w = rng.gen_range(cols.max(4) / 4..=cols.max(4) / 2);
        let r0 = rng.gen_range(0..rows.saturating_sub(h).max(1));
        let c0 = rng.gen_range(0..cols.saturating_sub(w).max(1));
        // (density, width multiplier, fillable): caches dense, narrow and
        // fill-blocked; datapath mid; periphery sparse with wide power
        // routing and plenty of fill room.
        let (density, wmul, fillable) = match k % 3 {
            0 => (0.75, 0.8, 0.04), // cache array (fill-blocked)
            1 => (0.55, 1.5, 0.15), // datapath
            _ => (0.35, 3.0, 0.6),  // control / periphery
        };
        macros.push(Macro { r0, c0, h, w, density, wmul, fillable });
    }
    let layer_scale = [1.0, 1.1, 0.65];
    let widths = [0.16, 0.2, 0.45];
    (0..3)
        .map(|l| {
            Grid::from_fn(rows, cols, |r, c| {
                let mut density: f64 = 0.18; // sparse background
                let mut wmul: f64 = 4.0; // background carries wide power mesh
                let mut fillable: f64 = 0.85; // open background
                for m in &macros {
                    if r >= m.r0 && r < m.r0 + m.h && c >= m.c0 && c < m.c0 + m.w && m.density > density
                    {
                        density = m.density;
                        wmul = m.wmul;
                        fillable = m.fillable;
                    }
                }
                let density = density * layer_scale[l] + jitter(rng, 0.04);
                window(density, widths[l] * wmul, area, fillable)
            })
        })
        .collect()
}

/// Convenience constructors for the three benchmark designs at a given grid
/// size.
#[must_use]
pub fn benchmark_designs(rows: usize, cols: usize, seed: u64) -> Vec<Layout> {
    [DesignKind::CmpTest, DesignKind::Fpga, DesignKind::RiscV]
        .into_iter()
        .map(|kind| DesignSpec::new(kind, rows, cols, seed).generate())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_designs_generate_valid_layouts() {
        for l in benchmark_designs(16, 16, 42) {
            assert!(l.is_valid(), "design {} invalid", l.name());
            assert_eq!(l.num_layers(), 3);
            assert_eq!(l.rows(), 16);
            assert_eq!(l.cols(), 16);
        }
    }

    #[test]
    fn design_letters_parse_in_either_case() {
        for kind in [DesignKind::CmpTest, DesignKind::Fpga, DesignKind::RiscV] {
            assert_eq!(DesignKind::from_letter(kind.letter()), Some(kind));
            assert_eq!(DesignKind::from_letter(&kind.letter().to_lowercase()), Some(kind));
        }
        for bad in ["", "D", "AB", " A"] {
            assert_eq!(DesignKind::from_letter(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = DesignSpec::new(DesignKind::Fpga, 12, 12, 7).generate();
        let b = DesignSpec::new(DesignKind::Fpga, 12, 12, 7).generate();
        assert_eq!(a, b);
    }

    #[test]
    fn designs_differ_from_each_other() {
        let d = benchmark_designs(12, 12, 7);
        assert_ne!(d[0].density_map(0), d[1].density_map(0));
        assert_ne!(d[1].density_map(0), d[2].density_map(0));
    }

    #[test]
    fn cmp_test_has_wide_density_range() {
        let a = DesignSpec::new(DesignKind::CmpTest, 32, 32, 1).generate();
        let dens = a.density_map(0);
        let min = dens.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = dens.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(min < 0.2, "min {min}");
        assert!(max > 0.8, "max {max}");
    }

    #[test]
    fn fpga_is_repetitive_across_tiles() {
        let b = DesignSpec::new(DesignKind::Fpga, 32, 32, 1).generate();
        let d = b.density_map(0);
        // Logic windows (away from channels) share the same base density.
        let v1 = d[3 * 32 + 3];
        let v2 = d[11 * 32 + 11];
        assert!((v1 - v2).abs() < 0.1, "{v1} vs {v2}");
    }

    #[test]
    fn riscv_has_dense_macros_and_sparse_background() {
        let c = DesignSpec::new(DesignKind::RiscV, 32, 32, 1).generate();
        let d = c.density_map(0);
        let min = d.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = d.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(min < 0.3, "background min {min}");
        assert!(max > 0.6, "macro max {max}");
    }

    #[test]
    fn file_sizes_match_paper() {
        assert_eq!(DesignKind::CmpTest.file_size_mb(), 16.4);
        assert_eq!(DesignKind::Fpga.file_size_mb(), 948.7);
        assert_eq!(DesignKind::RiscV.file_size_mb(), 80.6);
    }
}
