//! The pad-deformation weighting kernel.
//!
//! The rough polishing pad averages topography and pattern density over a
//! neighbourhood set by its character length (paper §III-B: 20–100 µm),
//! which is what makes the CMP model *local* and therefore learnable by a
//! convolutional network. The kernel is an exponentially decaying radial
//! weight, truncated at a configurable radius and renormalized at chip
//! edges.
//!
//! [`PadKernel::apply`] is split into two paths that together reproduce
//! the straightforward bounds-checked loop (kept as
//! [`PadKernel::apply_reference`]) bit for bit:
//!
//! * an **interior fast path** for pixels at least `radius` away from
//!   every edge — no bounds checks, contiguous weight·field row dots,
//!   and one precomputed full-kernel renormalization sum shared by all
//!   interior pixels;
//! * a **border path** whose renormalization sums are looked up from a
//!   small per-clip-class table (at most `(radius+1)⁴` entries, each
//!   computed once in the reference accumulation order) instead of being
//!   re-summed per pixel.
//!
//! Both paths accumulate weight·field products in the exact dy-major,
//! dx-ascending order of the reference loop, so the split changes no
//! output bit — only the per-pixel bounds checks and the O(r²) `wsum`
//! recomputation are gone.

/// A truncated radial exponential kernel over window grids.
#[derive(Debug, Clone, PartialEq)]
pub struct PadKernel {
    radius: usize,
    weights: Vec<f64>, // (2r+1)² window of weights
    full_wsum: f64,    // row-major sum of all weights (interior renormalizer)
}

impl PadKernel {
    /// Builds a kernel `w(d) = exp(−d / character_length)` truncated at
    /// `radius` windows.
    ///
    /// # Panics
    ///
    /// Panics when `character_length` is not positive.
    #[must_use]
    pub fn exponential(character_length: f64, radius: usize) -> Self {
        assert!(character_length > 0.0, "character length must be positive");
        let size = 2 * radius + 1;
        let mut weights = vec![0.0; size * size];
        for dy in 0..size {
            for dx in 0..size {
                let y = dy as f64 - radius as f64;
                let x = dx as f64 - radius as f64;
                let d = (x * x + y * y).sqrt();
                weights[dy * size + dx] = (-d / character_length).exp();
            }
        }
        // Row-major order: the same addition sequence the reference loop
        // uses for an unclipped window, so the shared interior
        // renormalizer is bit-identical to the per-pixel recomputation.
        let full_wsum = weights.iter().sum();
        Self { radius, weights, full_wsum }
    }

    /// Kernel truncation radius in windows.
    #[must_use]
    pub fn radius(&self) -> usize {
        self.radius
    }

    /// Applies the kernel to a row-major `rows × cols` field with
    /// edge renormalization (weights falling outside the chip are dropped
    /// and the remainder rescaled, so a constant field stays constant).
    ///
    /// Bit-identical to [`PadKernel::apply_reference`] (see module docs).
    ///
    /// # Panics
    ///
    /// Panics when `field.len() != rows * cols`.
    #[must_use]
    pub fn apply(&self, field: &[f64], rows: usize, cols: usize) -> Vec<f64> {
        let mut out = vec![0.0; rows * cols];
        self.apply_into(field, rows, cols, &mut out);
        out
    }

    /// [`PadKernel::apply`] into a caller-provided buffer (every element
    /// is overwritten) — lets per-step simulator loops reuse scratch
    /// space instead of allocating per application.
    ///
    /// # Panics
    ///
    /// Panics when `field` or `out` do not have `rows * cols` elements.
    pub fn apply_into(&self, field: &[f64], rows: usize, cols: usize, out: &mut [f64]) {
        assert_eq!(field.len(), rows * cols, "field length mismatch");
        assert_eq!(out.len(), rows * cols, "output length mismatch");
        if rows == 0 || cols == 0 {
            return;
        }
        let r = self.radius;
        let size = 2 * r + 1;

        // Interior fast path: the kernel window never clips, so no
        // bounds checks and one shared renormalizer.
        if rows > 2 * r && cols > 2 * r {
            for i in r..rows - r {
                for j in r..cols - r {
                    let mut acc = 0.0;
                    for dy in 0..size {
                        let wrow = &self.weights[dy * size..(dy + 1) * size];
                        let f0 = (i + dy - r) * cols + (j - r);
                        let frow = &field[f0..f0 + size];
                        for t in 0..size {
                            acc += wrow[t] * frow[t];
                        }
                    }
                    out[i * cols + j] = acc / self.full_wsum;
                }
            }
        }

        // Border path: pixels within `r` of an edge. The renormalization
        // sum depends only on how many kernel rows/columns are clipped on
        // each side — a (top, bottom, left, right) clip class — so it is
        // computed once per class (in reference order) and looked up.
        let cls = r + 1;
        // Weights are strictly positive, so a negative entry means "not
        // yet computed".
        let mut wsum_tbl = vec![-1.0f64; cls * cls * cls * cls];
        for i in 0..rows {
            let interior_row = i >= r && i + r < rows;
            let ty = r - i.min(r);
            let by = r - (rows - 1 - i).min(r);
            let mut j = 0;
            while j < cols {
                if interior_row && j == r && cols > 2 * r {
                    // Interior pixels of this row were handled above.
                    j = cols - r;
                    continue;
                }
                let tx = r - j.min(r);
                let bx = r - (cols - 1 - j).min(r);
                let slot = ((ty * cls + by) * cls + tx) * cls + bx;
                let mut wsum = wsum_tbl[slot];
                if wsum < 0.0 {
                    wsum = 0.0;
                    for dy in ty..size - by {
                        let wrow = &self.weights[dy * size..(dy + 1) * size];
                        for &w in &wrow[tx..size - bx] {
                            wsum += w;
                        }
                    }
                    wsum_tbl[slot] = wsum;
                }
                let mut acc = 0.0;
                let width = size - bx - tx;
                for dy in ty..size - by {
                    let wrow = &self.weights[dy * size + tx..dy * size + tx + width];
                    let f0 = (i + dy - r) * cols + (j + tx - r);
                    let frow = &field[f0..f0 + width];
                    for t in 0..width {
                        acc += wrow[t] * frow[t];
                    }
                }
                out[i * cols + j] = acc / wsum;
                j += 1;
            }
        }
    }

    /// The pre-optimization bounds-checked loop, kept verbatim as the
    /// bit-exactness oracle for [`PadKernel::apply`] (and as the
    /// before-side of the kernels bench).
    ///
    /// # Panics
    ///
    /// Panics when `field.len() != rows * cols`.
    #[must_use]
    pub fn apply_reference(&self, field: &[f64], rows: usize, cols: usize) -> Vec<f64> {
        assert_eq!(field.len(), rows * cols, "field length mismatch");
        let r = self.radius as isize;
        let size = 2 * self.radius + 1;
        let mut out = vec![0.0; rows * cols];
        for i in 0..rows as isize {
            for j in 0..cols as isize {
                let mut acc = 0.0;
                let mut wsum = 0.0;
                for dy in -r..=r {
                    let y = i + dy;
                    if y < 0 || y >= rows as isize {
                        continue;
                    }
                    let wrow = ((dy + r) as usize) * size;
                    let frow = y as usize * cols;
                    for dx in -r..=r {
                        let x = j + dx;
                        if x < 0 || x >= cols as isize {
                            continue;
                        }
                        let w = self.weights[wrow + (dx + r) as usize];
                        acc += w * field[frow + x as usize];
                        wsum += w;
                    }
                }
                out[(i as usize) * cols + j as usize] = acc / wsum;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_field_is_preserved() {
        let k = PadKernel::exponential(1.5, 3);
        let field = vec![0.42; 8 * 8];
        let out = k.apply(&field, 8, 8);
        assert!(out.iter().all(|v| (v - 0.42).abs() < 1e-12));
    }

    #[test]
    fn smoothing_reduces_contrast() {
        let k = PadKernel::exponential(1.5, 3);
        let mut field = vec![0.0; 9 * 9];
        field[4 * 9 + 4] = 1.0;
        let out = k.apply(&field, 9, 9);
        let peak = out[4 * 9 + 4];
        assert!(peak < 1.0 && peak > 0.0);
        // Neighbours received some of the mass.
        assert!(out[4 * 9 + 5] > 0.0);
        // Monotone decay away from the impulse.
        assert!(out[4 * 9 + 5] > out[4 * 9 + 7]);
    }

    #[test]
    fn kernel_is_isotropic() {
        let k = PadKernel::exponential(2.0, 3);
        let mut field = vec![0.0; 11 * 11];
        field[5 * 11 + 5] = 1.0;
        let out = k.apply(&field, 11, 11);
        assert!((out[5 * 11 + 7] - out[7 * 11 + 5]).abs() < 1e-12);
        assert!((out[5 * 11 + 3] - out[5 * 11 + 7]).abs() < 1e-12);
    }

    #[test]
    fn edge_renormalization_keeps_mean_sane() {
        // A constant field must stay constant even at corners.
        let k = PadKernel::exponential(1.0, 2);
        let field = vec![1.0; 4 * 4];
        let out = k.apply(&field, 4, 4);
        assert!((out[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn longer_character_length_smooths_more() {
        let short = PadKernel::exponential(0.5, 4);
        let long = PadKernel::exponential(3.0, 4);
        let mut field = vec![0.0; 9 * 9];
        field[4 * 9 + 4] = 1.0;
        let ps = short.apply(&field, 9, 9)[4 * 9 + 4];
        let pl = long.apply(&field, 9, 9)[4 * 9 + 4];
        assert!(ps > pl, "short {ps} vs long {pl}");
    }

    #[test]
    fn split_paths_match_reference_bitwise_on_a_smoke_grid() {
        let k = PadKernel::exponential(1.7, 3);
        let field: Vec<f64> = (0..12 * 10).map(|v| ((v * 37) % 101) as f64 / 13.0).collect();
        let fast = k.apply(&field, 12, 10);
        let slow = k.apply_reference(&field, 12, 10);
        for (a, b) in fast.iter().zip(&slow) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
