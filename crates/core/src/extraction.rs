//! The extraction layer (paper §IV-A, Fig. 4): maps a layout and a fill
//! vector `x` to the layout-parameter matrix `L` consumed by the UNet,
//! *differentiably* in `x`.
//!
//! Pattern-related parameters are updated from `x` exactly as
//! [`neurfill_layout::apply_fill`] updates the layout, so the surrogate
//! sees identical inputs at training time (extracted from filled layouts)
//! and at optimization time (computed from the base layout plus `x`):
//!
//! | channel | content | dependence on `x` |
//! |---------|---------|-------------------|
//! | 0 | metal density | `ρ + x/area` (linear) |
//! | 1 | copper perimeter (scaled) | `(per + 4x/edge)/scale` (linear) |
//! | 2 | average feature width (scaled) | `(w·m + edge·x)/(m + x)` (rational) |
//! | 3 | remaining slack fraction | `(slack − x)/area` (linear) |

use neurfill_layout::{DummySpec, Layout, TileRect, WindowPattern};
use neurfill_tensor::{NdArray, Result, Tensor};

/// Number of layout-parameter channels.
pub const NUM_CHANNELS: usize = 4;

/// Normalization and dummy-geometry constants of the extraction layer.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractionConfig {
    /// Divisor bringing per-window perimeter (µm) to O(1).
    pub perimeter_scale: f64,
    /// Divisor bringing feature width (µm) to O(1).
    pub width_scale: f64,
    /// Dummy geometry (must match the insertion step).
    pub dummy: DummySpec,
}

impl Default for ExtractionConfig {
    fn default() -> Self {
        Self { perimeter_scale: 100_000.0, width_scale: 2.0, dummy: DummySpec::default() }
    }
}

/// Extracts the `[C, N, M]` parameter planes of one layer of an
/// already-filled layout (training-time path; no autodiff): the
/// whole-layer region of [`extract_region_arrays`].
///
/// # Panics
///
/// Panics when `layer` is out of range.
#[must_use]
pub fn extract_layer_arrays(layout: &Layout, layer: usize, cfg: &ExtractionConfig) -> NdArray {
    let whole = TileRect { row0: 0, col0: 0, rows: layout.rows(), cols: layout.cols() };
    extract_region_arrays(layout, layer, whole, cfg)
}

/// Extracts the `[C, rows, cols]` parameter planes of one *region* of a
/// layer, reading only the windows inside `rect` — the building block of
/// bounded streaming extraction ([`ExtractionStream`]): nothing
/// proportional to the full layer is allocated. Extraction is pointwise
/// per window, so the planes are bitwise equal to the corresponding
/// region of [`extract_layer_arrays`].
///
/// # Panics
///
/// Panics when `layer` is out of range or `rect` exceeds the layer.
// The `expect` asserts the vec length computed from the same dims.
#[allow(clippy::expect_used)]
#[must_use]
pub fn extract_region_arrays(
    layout: &Layout,
    layer: usize,
    rect: TileRect,
    cfg: &ExtractionConfig,
) -> NdArray {
    let g = layout.layer(layer);
    assert!(
        rect.row_end() <= g.rows() && rect.col_end() <= g.cols() && !rect.is_empty(),
        "region exceeds the layer"
    );
    let area = layout.window_area();
    let mut data = Vec::with_capacity(NUM_CHANNELS * rect.len());
    // One channel plane: `f` of the region's windows, row by row.
    let mut plane = |f: fn(&WindowPattern, &ExtractionConfig, f64) -> f32| {
        for r in rect.row0..rect.row_end() {
            let row = &g.as_slice()[g.offset(r, rect.col0)..][..rect.cols];
            data.extend(row.iter().map(|w| f(w, cfg, area)));
        }
    };
    plane(|w, _, _| w.density as f32);
    plane(|w, cfg, _| (w.perimeter / cfg.perimeter_scale) as f32);
    plane(|w, cfg, _| (w.avg_width / cfg.width_scale) as f32);
    plane(|w, _, area| (w.slack / area) as f32);
    NdArray::from_vec(data, &[NUM_CHANNELS, rect.rows, rect.cols]).expect("sized from dims")
}

/// Bounded streaming extraction over a sequence of tile regions: each
/// `next()` materializes *one* tile's layout (via the injected
/// `materialize` closure) and extracts its planes, so peak memory is one
/// tile's windows plus one tile's planes — never the whole chip's.
///
/// For chip-scale sources the closure is typically
/// `|rect| source.tile_layout(rect)`; for an already-materialized layout,
/// `|rect| layout.crop(rect)`.
pub struct ExtractionStream<'a, I, F>
where
    I: Iterator<Item = TileRect>,
    F: FnMut(TileRect) -> Layout,
{
    rects: I,
    materialize: F,
    layer: usize,
    cfg: &'a ExtractionConfig,
}

impl<I, F> std::fmt::Debug for ExtractionStream<'_, I, F>
where
    I: Iterator<Item = TileRect>,
    F: FnMut(TileRect) -> Layout,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExtractionStream").field("layer", &self.layer).finish_non_exhaustive()
    }
}

impl<'a, I, F> ExtractionStream<'a, I, F>
where
    I: Iterator<Item = TileRect>,
    F: FnMut(TileRect) -> Layout,
{
    /// A stream over `rects`, materializing each tile's layout with
    /// `materialize` (which must return a layout of exactly the rect's
    /// dimensions).
    pub fn new(rects: I, materialize: F, layer: usize, cfg: &'a ExtractionConfig) -> Self {
        Self { rects, materialize, layer, cfg }
    }
}

impl<I, F> Iterator for ExtractionStream<'_, I, F>
where
    I: Iterator<Item = TileRect>,
    F: FnMut(TileRect) -> Layout,
{
    type Item = (TileRect, NdArray);

    fn next(&mut self) -> Option<Self::Item> {
        let rect = self.rects.next()?;
        let sub = (self.materialize)(rect);
        assert_eq!(
            (sub.rows(), sub.cols()),
            (rect.rows, rect.cols),
            "materialized tile disagrees with its rect"
        );
        let whole = TileRect { row0: 0, col0: 0, rows: rect.rows, cols: rect.cols };
        Some((rect, extract_region_arrays(&sub, self.layer, whole, self.cfg)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.rects.size_hint()
    }
}

/// Builds the differentiable `[1, C, N, M]` parameter tensor of one layer
/// from the *base* (unfilled) layout and the fill tensor `x_layer` of shape
/// `[1, 1, N, M]` (µm² per window).
///
/// Gradients flow from the result back into `x_layer`; this is the
/// `∂L/∂x` edge of the paper's Eq. 11.
///
/// # Errors
///
/// Returns an error when `x_layer` has the wrong shape.
///
/// # Panics
///
/// Panics when `layer` is out of range.
// The `expect` inside `plane` asserts the vec length computed from the
// same grid dims.
#[allow(clippy::expect_used)]
pub fn extract_layer_tensor(
    layout: &Layout,
    layer: usize,
    x_layer: &Tensor,
    cfg: &ExtractionConfig,
) -> Result<Tensor> {
    let g = layout.layer(layer);
    let (rows, cols) = (g.rows(), g.cols());
    if x_layer.shape() != [1, 1, rows, cols] {
        return Err(neurfill_tensor::TensorError::ShapeMismatch {
            lhs: x_layer.shape(),
            rhs: vec![1, 1, rows, cols],
            op: "extract_layer_tensor",
        });
    }
    let area = layout.window_area() as f32;
    let plane = |f: &dyn Fn(&neurfill_layout::WindowPattern) -> f32| -> Tensor {
        let data: Vec<f32> = g.iter().map(f).collect();
        Tensor::constant(NdArray::from_vec(data, &[1, 1, rows, cols]).expect("sized"))
    };

    // Channel 0: density = ρ + x/area.
    let density = plane(&|w| w.density as f32).add(&x_layer.scale(1.0 / area))?;

    // Channel 1: perimeter = (per + 4x/edge)/scale.
    let per_scale = cfg.perimeter_scale as f32;
    let edge = cfg.dummy.edge_um as f32;
    let perimeter = plane(&|w| (w.perimeter / cfg.perimeter_scale) as f32)
        .add(&x_layer.scale(4.0 / (edge * per_scale)))?;

    // Channel 2: width = (w·m + edge·x)/(m + x)/width_scale, m = ρ·area.
    let metal = plane(&|w| (w.density as f32) * area);
    let w_metal = plane(&|w| (w.avg_width as f32) * (w.density as f32) * area);
    let numerator = w_metal.add(&x_layer.scale(edge))?;
    let denominator = metal.add(x_layer)?.clamp_min(1e-3);
    let width = numerator.div(&denominator)?.scale(1.0 / cfg.width_scale as f32);

    // Channel 3: slack fraction = (slack − x)/area.
    let slack = plane(&|w| (w.slack / layout.window_area()) as f32).sub(&x_layer.scale(1.0 / area))?;

    Tensor::concat(&[density, perimeter, width, slack], 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurfill_layout::{apply_fill, DesignKind, DesignSpec, FillPlan};

    fn layout() -> Layout {
        DesignSpec::new(DesignKind::Fpga, 6, 6, 3).generate()
    }

    fn x_tensor(layout: &Layout, plan: &FillPlan, layer: usize) -> Tensor {
        let (rows, cols) = (layout.rows(), layout.cols());
        let start = layer * rows * cols;
        let data: Vec<f32> =
            plan.as_slice()[start..start + rows * cols].iter().map(|v| *v as f32).collect();
        Tensor::parameter(NdArray::from_vec(data, &[1, 1, rows, cols]).unwrap())
    }

    #[test]
    fn zero_fill_tensor_matches_array_extraction() {
        let l = layout();
        let cfg = ExtractionConfig::default();
        let plan = FillPlan::zeros(&l);
        for layer in 0..l.num_layers() {
            let arrays = extract_layer_arrays(&l, layer, &cfg);
            let tensor = extract_layer_tensor(&l, layer, &x_tensor(&l, &plan, layer), &cfg).unwrap();
            let t = tensor.value().reshape(&[NUM_CHANNELS, 6, 6]).unwrap();
            for (a, b) in arrays.as_slice().iter().zip(t.as_slice()) {
                assert!((a - b).abs() < 1e-5, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn filled_tensor_matches_array_extraction_of_filled_layout() {
        let l = layout();
        let cfg = ExtractionConfig::default();
        let mut plan = FillPlan::zeros(&l);
        for (i, (x, s)) in plan.as_mut_slice().iter_mut().zip(l.slack_vector()).enumerate() {
            *x = (i % 5) as f64 / 5.0 * s;
        }
        let filled = apply_fill(&l, &plan, &cfg.dummy);
        for layer in 0..l.num_layers() {
            let arrays = extract_layer_arrays(&filled, layer, &cfg);
            let tensor = extract_layer_tensor(&l, layer, &x_tensor(&l, &plan, layer), &cfg).unwrap();
            let t = tensor.value().reshape(&[NUM_CHANNELS, 6, 6]).unwrap();
            for (k, (a, b)) in arrays.as_slice().iter().zip(t.as_slice()).enumerate() {
                assert!((a - b).abs() < 2e-4, "channel element {k}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn extraction_is_differentiable_in_x() {
        let l = layout();
        let cfg = ExtractionConfig::default();
        let plan = FillPlan::zeros(&l);
        let x = x_tensor(&l, &plan, 0);
        let out = extract_layer_tensor(&l, 0, &x, &cfg).unwrap();
        out.sum().backward().unwrap();
        let g = x.grad().expect("gradient flows to x");
        // Density (1/area) + perimeter (4/(edge·scale)) + width + slack
        // (−1/area) sensitivities all contribute.
        assert!(g.as_slice().iter().all(|v| v.is_finite()));
        assert!(g.as_slice().iter().any(|v| *v != 0.0));
    }

    #[test]
    fn density_sensitivity_is_one_over_area() {
        let l = layout();
        let cfg = ExtractionConfig::default();
        let plan = FillPlan::zeros(&l);
        let x = x_tensor(&l, &plan, 0);
        let out = extract_layer_tensor(&l, 0, &x, &cfg).unwrap();
        // Sum only the density channel.
        let channels = out.reshape(&[NUM_CHANNELS, 36]).unwrap();
        let mask = {
            let mut m = vec![0.0f32; NUM_CHANNELS * 36];
            m[..36].fill(1.0);
            Tensor::constant(NdArray::from_vec(m, &[NUM_CHANNELS, 36]).unwrap())
        };
        channels.mul(&mask).unwrap().sum().backward().unwrap();
        let g = x.grad().unwrap();
        let expect = 1.0 / l.window_area() as f32;
        for v in g.as_slice() {
            assert!((v - expect).abs() < 1e-9, "{v} vs {expect}");
        }
    }

    #[test]
    fn region_extraction_matches_full_layer_slice() {
        let l = layout();
        let cfg = ExtractionConfig::default();
        let full = extract_layer_arrays(&l, 1, &cfg);
        let rect = TileRect { row0: 1, col0: 2, rows: 3, cols: 4 };
        let region = extract_region_arrays(&l, 1, rect, &cfg);
        assert_eq!(region.shape(), &[NUM_CHANNELS, 3, 4]);
        for ch in 0..NUM_CHANNELS {
            for r in 0..rect.rows {
                for c in 0..rect.cols {
                    let a = region.as_slice()[(ch * rect.rows + r) * rect.cols + c];
                    let b = full.as_slice()[(ch * 6 + rect.row0 + r) * 6 + rect.col0 + c];
                    assert_eq!(a, b, "channel {ch} ({r},{c})");
                }
            }
        }
    }

    #[test]
    fn streaming_extraction_covers_a_tiling_lazily() {
        let l = layout();
        let cfg = ExtractionConfig::default();
        let full = extract_layer_arrays(&l, 0, &cfg);
        let tiling = neurfill_layout::Tiling::square(6, 6, 3, 0);
        let mut materialized = 0usize;
        let stream = ExtractionStream::new(
            tiling.tiles().map(|t| t.core),
            |rect| {
                materialized += 1;
                l.crop(rect)
            },
            0,
            &cfg,
        );
        let mut seen = 0usize;
        for (rect, planes) in stream {
            assert_eq!(planes.shape(), &[NUM_CHANNELS, rect.rows, rect.cols]);
            for ch in 0..NUM_CHANNELS {
                for r in 0..rect.rows {
                    for c in 0..rect.cols {
                        let a = planes.as_slice()[(ch * rect.rows + r) * rect.cols + c];
                        let b = full.as_slice()[(ch * 6 + rect.row0 + r) * 6 + rect.col0 + c];
                        assert_eq!(a, b);
                    }
                }
            }
            seen += rect.len();
        }
        assert_eq!(seen, 36, "tiles must cover the layer exactly");
        // One materialization per tile: the stream held one tile at a time.
        assert_eq!(materialized, tiling.num_tiles());

        // Laziness: nothing is materialized until the stream is polled.
        let mut count = 0usize;
        let stream = ExtractionStream::new(
            tiling.tiles().map(|t| t.core),
            |rect| {
                count += 1;
                l.crop(rect)
            },
            0,
            &cfg,
        );
        drop(stream);
        assert_eq!(count, 0);
    }

    #[test]
    fn rejects_wrong_x_shape() {
        let l = layout();
        let cfg = ExtractionConfig::default();
        let x = Tensor::constant(NdArray::zeros(&[1, 1, 3, 3]));
        assert!(extract_layer_tensor(&l, 0, &x, &cfg).is_err());
    }
}
