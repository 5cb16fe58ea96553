//! The pad-deformation weighting kernel.
//!
//! The rough polishing pad averages topography and pattern density over a
//! neighbourhood set by its character length (paper §III-B: 20–100 µm),
//! which is what makes the CMP model *local* and therefore learnable by a
//! convolutional network. The kernel is an exponentially decaying radial
//! weight, truncated at a configurable radius and renormalized at chip
//! edges.
//!
//! [`PadKernel::apply_window_into`] (and [`PadKernel::apply`] /
//! [`PadKernel::apply_into`], its full-board window) reproduces the
//! straightforward bounds-checked loop, kept as
//! [`PadKernel::apply_reference`], bit for bit on every pixel it
//! computes:
//!
//! * **row-accumulated columns**: on each output row, the pixels whose
//!   kernel window does not clip horizontally are accumulated together,
//!   one weight × field-row slice at a time, into their output slots.
//!   Each pixel still starts at `0.0` and adds `w·f` in dy-major,
//!   dx-ascending order over the same clipped dy range, then divides by
//!   the same renormalizer — the arithmetic of the reference, pixel by
//!   pixel, while the loop over pixels vectorizes;
//! * **register blocks** (AVX2 build): the unclipped pixels of a row go
//!   16 at a time through four `__m256d` accumulators that stay in
//!   registers across every tap of the clipped dy range — a multiply,
//!   then an add, never a fused multiply-add — and are divided by the
//!   renormalizer and stored once, instead of loading, adding to and
//!   storing every output slot at each of the `(2r + 1)²` taps. The
//!   pixels left over at the row's end keep the row-accumulated loop;
//! * **edge columns**: the at most `2·radius` pixels per row whose
//!   window clips left or right keep a scalar loop.
//!
//! Renormalization sums come from a small per-clip-class table (one
//! entry per row class × column class the field has, at most
//! `(2·radius + 1)²`, each summed once in the reference's row-major
//! order) instead of being re-summed per pixel.
//!
//! Every path gives each pixel the reference's operations: start at
//! `0.0`, add `w·f` in dy-major, dx-ascending order, divide by the same
//! renormalizer. Nothing is reassociated and rustc never contracts
//! `mul + add` into a fused multiply-add, so the AVX2 build (picked at
//! run time) changes speed only. A window smooths only the cells a
//! caller keeps: a pixel's value depends only on the field, never on
//! which window asked for it.

use std::ops::Range;

/// A truncated radial exponential kernel over window grids.
#[derive(Debug, Clone, PartialEq)]
pub struct PadKernel {
    radius: usize,
    weights: Vec<f64>, // (2r+1)² window of weights
}

impl PadKernel {
    /// The largest truncation radius: a 129 × 129-window kernel, far past
    /// the pad's reach (paper §III-B: a 20–100 µm character length, O(1)
    /// windows). [`ProcessParams::validate`](crate::ProcessParams::validate)
    /// refuses larger radii.
    pub const MAX_RADIUS: usize = 64;

    /// Builds a kernel `w(d) = exp(−d / character_length)` truncated at
    /// `radius` windows.
    ///
    /// # Panics
    ///
    /// Panics when `character_length` is not positive or `radius`
    /// exceeds [`PadKernel::MAX_RADIUS`].
    #[must_use]
    pub fn exponential(character_length: f64, radius: usize) -> Self {
        assert!(character_length > 0.0, "character length must be positive");
        assert!(radius <= Self::MAX_RADIUS, "kernel radius {radius} exceeds {}", Self::MAX_RADIUS);
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
        Self { radius, weights }
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
    /// space instead of allocating per application. The full-board
    /// [`PadKernel::apply_window_into`].
    ///
    /// # Panics
    ///
    /// Panics when `field` or `out` do not have `rows * cols` elements.
    pub fn apply_into(&self, field: &[f64], rows: usize, cols: usize, out: &mut [f64]) {
        self.apply_window_into(field, rows, cols, 0..rows, 0..cols, out);
    }

    /// Smooths only the window `row_range × col_range` of a row-major
    /// `rows × cols` field into `out`, row-major over the window (every
    /// element is overwritten). Each output pixel is bit-identical to
    /// the same pixel of [`PadKernel::apply_reference`] on the whole
    /// field: the window decides which pixels are computed, never how.
    ///
    /// # Panics
    ///
    /// Panics when `field` does not have `rows * cols` elements, a range
    /// is reversed or reaches past the field, or `out` does not have
    /// one element per window cell.
    pub fn apply_window_into(
        &self,
        field: &[f64],
        rows: usize,
        cols: usize,
        row_range: Range<usize>,
        col_range: Range<usize>,
        out: &mut [f64],
    ) {
        assert_eq!(field.len(), rows * cols, "field length mismatch");
        assert!(row_range.start <= row_range.end && row_range.end <= rows, "row window out of bounds");
        assert!(
            col_range.start <= col_range.end && col_range.end <= cols,
            "column window out of bounds"
        );
        assert_eq!(out.len(), row_range.len() * col_range.len(), "output length mismatch");
        if out.is_empty() {
            return;
        }
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: the host supports AVX2.
                unsafe { self.window_avx2(field, rows, cols, row_range, col_range, out) };
                return;
            }
        }
        self.window_body(field, rows, cols, row_range, col_range, out, |inner| {
            self.inner_body(inner);
        });
    }

    /// [`PadKernel::window_body`] compiled with AVX2 codegen, the inner
    /// columns in register blocks ([`PadKernel::inner_avx2`]): the same
    /// operations in the same order, so the same bits.
    ///
    /// # Safety
    ///
    /// The host must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn window_avx2(
        &self,
        field: &[f64],
        rows: usize,
        cols: usize,
        row_range: Range<usize>,
        col_range: Range<usize>,
        out: &mut [f64],
    ) {
        self.window_body(field, rows, cols, row_range, col_range, out, |inner| {
            // SAFETY: this function runs only on hosts with AVX2.
            unsafe { self.inner_avx2(inner) };
        });
    }

    /// The window loop (see module docs); arguments as
    /// [`PadKernel::apply_window_into`], already checked. `inner_row`
    /// smooths one output row's unclipped columns.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn window_body(
        &self,
        field: &[f64],
        rows: usize,
        cols: usize,
        row_range: Range<usize>,
        col_range: Range<usize>,
        out: &mut [f64],
        inner_row: impl Fn(InnerRow<'_>),
    ) {
        let r = self.radius;
        let size = 2 * r + 1;
        let width = col_range.len();
        // Window columns whose kernel window never clips horizontally,
        // `lo..hi`; when there are none, the whole window is edge columns.
        let (lo, hi) = if cols > 2 * r {
            (col_range.start.max(r), col_range.end.min(cols - r))
        } else {
            (col_range.end, col_range.end)
        };
        let (lo, hi) = if lo < hi { (lo, hi) } else { (col_range.end, col_range.end) };
        let mut wsums = ClassSums::new(r, rows, cols);
        for (oi, i) in row_range.enumerate() {
            // Kernel rows clipped at the top and bottom edges.
            let ty = r - i.min(r);
            let by = r - (rows - 1 - i).min(r);
            let orow = &mut out[oi * width..(oi + 1) * width];
            let (left, rest) = orow.split_at_mut(lo - col_range.start);
            let (inner, right) = rest.split_at_mut(hi - lo);
            if !inner.is_empty() {
                let wsum = wsums.get(self, ty, by, 0, 0);
                let dys = ty..size - by;
                inner_row(InnerRow { field, cols, row: i, dys, col: lo, out: inner, wsum });
            }
            let edges =
                left.iter_mut().zip(col_range.start..lo).chain(right.iter_mut().zip(hi..col_range.end));
            for (o, j) in edges {
                let tx = r - j.min(r);
                let bx = r - (cols - 1 - j).min(r);
                let wsum = wsums.get(self, ty, by, tx, bx);
                let clipped = size - bx - tx;
                let mut acc = 0.0;
                for dy in ty..size - by {
                    let wrow = &self.weights[dy * size + tx..dy * size + tx + clipped];
                    let f0 = (i + dy - r) * cols + (j + tx - r);
                    let frow = &field[f0..f0 + clipped];
                    for t in 0..clipped {
                        acc += wrow[t] * frow[t];
                    }
                }
                *o = acc / wsum;
            }
        }
    }

    /// One row's unclipped columns, accumulated a weight × field-row
    /// slice at a time into the output slots (module docs).
    #[inline(always)]
    fn inner_body(&self, row: InnerRow<'_>) {
        let InnerRow { field, cols, row: i, dys, col, out, wsum } = row;
        let r = self.radius;
        let size = 2 * r + 1;
        out.fill(0.0);
        for dy in dys {
            let f0 = (i + dy - r) * cols + col - r;
            for (t, &w) in self.weights[dy * size..(dy + 1) * size].iter().enumerate() {
                let frow = &field[f0 + t..f0 + t + out.len()];
                for (acc, &f) in out.iter_mut().zip(frow) {
                    *acc += w * f;
                }
            }
        }
        for acc in out.iter_mut() {
            *acc /= wsum;
        }
    }

    /// [`PadKernel::inner_body`] with the columns in register blocks of
    /// [`BLOCK`] pixels: four `__m256d` accumulators start at `0.0`, take
    /// every tap of the clipped dy range in dy-major, dx-ascending order
    /// (a multiply, then an add — never a fused multiply-add), are
    /// divided by the class sum and stored once. The pixels left over at
    /// the row's end take [`PadKernel::inner_body`].
    ///
    /// # Safety
    ///
    /// The host must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn inner_avx2(&self, row: InnerRow<'_>) {
        use std::arch::x86_64::{
            _mm256_add_pd, _mm256_div_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_set1_pd,
            _mm256_setzero_pd, _mm256_storeu_pd,
        };
        let InnerRow { field, cols, row: i, dys, col, out, wsum } = row;
        let r = self.radius;
        let size = 2 * r + 1;
        let blocked = out.len() / BLOCK * BLOCK;
        let (head, tail) = out.split_at_mut(blocked);
        for (b, block) in head.chunks_exact_mut(BLOCK).enumerate() {
            let mut acc = [_mm256_setzero_pd(); 4];
            for dy in dys.clone() {
                let f0 = (i + dy - r) * cols + col + b * BLOCK - r;
                // The block's taps on this kernel row read these cells
                // and no others.
                let frow = &field[f0..f0 + BLOCK + 2 * r];
                for (t, &w) in self.weights[dy * size..(dy + 1) * size].iter().enumerate() {
                    let w = _mm256_set1_pd(w);
                    for (lane, a) in acc.iter_mut().enumerate() {
                        // SAFETY: t + 4·lane + 3 < 2r + BLOCK = frow.len().
                        let f = unsafe { _mm256_loadu_pd(frow.as_ptr().add(t + 4 * lane)) };
                        *a = _mm256_add_pd(*a, _mm256_mul_pd(w, f));
                    }
                }
            }
            let wsum = _mm256_set1_pd(wsum);
            for (lane, a) in acc.into_iter().enumerate() {
                // SAFETY: 4·lane + 3 < BLOCK = block.len().
                unsafe { _mm256_storeu_pd(block.as_mut_ptr().add(4 * lane), _mm256_div_pd(a, wsum)) };
            }
        }
        if !tail.is_empty() {
            self.inner_body(InnerRow { field, cols, row: i, dys, col: col + blocked, out: tail, wsum });
        }
    }

    /// The pre-optimization bounds-checked loop, kept verbatim as the
    /// bit-exactness oracle for [`PadKernel::apply_window_into`] and its
    /// full-board forms (and as the before-side of the kernels bench).
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

/// Pixels per register block of [`PadKernel::inner_avx2`]: four
/// `__m256d`.
#[cfg(target_arch = "x86_64")]
const BLOCK: usize = 16;

/// One output row's unclipped columns, as [`PadKernel::window_body`]
/// hands them to its inner-row step: output row `row` of the field,
/// columns `col..col + out.len()`, summed over the kernel rows `dys`
/// (the clipped dy range) and divided by `wsum`.
struct InnerRow<'a> {
    field: &'a [f64],
    cols: usize,
    row: usize,
    dys: Range<usize>,
    col: usize,
    out: &'a mut [f64],
    wsum: f64,
}

/// Renormalization sums by clip class: a pixel's sum depends only on how
/// many kernel rows/columns are clipped on each side, `(top, bottom,
/// left, right)`, so each class is summed once, in the reference's
/// row-major order, and looked up after.
///
/// On a field of `n` rows a non-zero top clip fixes the row, and so does
/// a non-zero bottom clip, so the rows fall into at most
/// `min(n, 2r + 1)` classes ([`axis_class`]); likewise the columns. The
/// table holds one slot per row class × column class — at most
/// `(2r + 1)²` — not one per clip quadruple, `(r + 1)⁴`.
struct ClassSums {
    radius: usize,
    row_classes: usize,
    col_classes: usize,
    // Every class keeps the centre weight, 1, so a sum is at least 1 and
    // a negative entry means "not yet computed".
    sums: Vec<f64>,
}

/// The index, among the `classes = min(n, 2r + 1)` row classes of an
/// `n`-row field, of the rows clipped by `top` and `bottom`: `0..r` for
/// the top-clipped rows (row `r − top`), `r` for the unclipped ones and
/// the rest for rows clipped at the bottom alone (on a field of at most
/// `2r + 1` rows, each class's row itself). Columns likewise.
fn axis_class(radius: usize, classes: usize, top: usize, bottom: usize) -> usize {
    if top > 0 {
        radius - top
    } else if bottom > 0 {
        classes + bottom - 1 - radius
    } else {
        radius
    }
}

impl ClassSums {
    fn new(radius: usize, rows: usize, cols: usize) -> Self {
        let row_classes = rows.min(2 * radius + 1);
        let col_classes = cols.min(2 * radius + 1);
        Self { radius, row_classes, col_classes, sums: vec![-1.0; row_classes * col_classes] }
    }

    fn get(&mut self, kernel: &PadKernel, ty: usize, by: usize, tx: usize, bx: usize) -> f64 {
        let row = axis_class(self.radius, self.row_classes, ty, by);
        let slot = row * self.col_classes + axis_class(self.radius, self.col_classes, tx, bx);
        if self.sums[slot] < 0.0 {
            let size = 2 * kernel.radius + 1;
            let mut wsum = 0.0;
            for dy in ty..size - by {
                for &w in &kernel.weights[dy * size + tx..(dy + 1) * size - bx] {
                    wsum += w;
                }
            }
            self.sums[slot] = wsum;
        }
        self.sums[slot]
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
    fn row_accumulated_apply_matches_reference_bitwise_on_a_smoke_grid() {
        let k = PadKernel::exponential(1.7, 3);
        let field: Vec<f64> = (0..12 * 10).map(|v| ((v * 37) % 101) as f64 / 13.0).collect();
        let fast = k.apply(&field, 12, 10);
        let slow = k.apply_reference(&field, 12, 10);
        for (a, b) in fast.iter().zip(&slow) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Windows along one axis of length `n` for radius `r`: full, empty
    /// at either end, one cell at each end and in the middle, bands as
    /// narrow as the radius on each edge, and the unclipped middle.
    fn axis_windows(n: usize, r: usize) -> Vec<Range<usize>> {
        let e = r.min(n);
        let mut w = vec![0..n, 0..0, n..n, 0..1, n - 1..n, n / 2..n / 2 + 1, 0..e, n - e..n];
        if n > 2 * r {
            w.push(r..n - r);
        }
        if n >= 2 {
            w.push(1..n - 1);
        }
        w
    }

    /// The plain body and its AVX2 build, each called directly (so a host
    /// without AVX2 still checks the path it runs), against the crop of
    /// the reference, bit for bit — on rows with no register block, with
    /// blocks and leftover pixels, and with blocks only.
    #[test]
    fn plain_and_avx2_window_bodies_match_the_reference_crop_bitwise() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        let mut windows = 0;
        for radius in 0..=6 {
            let k = PadKernel::exponential(rng.gen_range(0.4..4.0), radius);
            let shapes = [
                (1, 1),
                (1, 9),
                (9, 1),
                (2, 13),
                (5, 5),
                (9, 20),
                (13, 13),
                (20, 17),
                (11, 41),
                (3, 56),
            ];
            for (rows, cols, signed_zeros) in
                shapes.into_iter().flat_map(|(r, c)| [(r, c, false), (r, c, true)])
            {
                // A field of −0.0 checks that every pixel starts at +0.0.
                let field: Vec<f64> = (0..rows * cols)
                    .map(|_| if signed_zeros { -0.0 } else { rng.gen_range(-50.0..500.0) })
                    .collect();
                let reference = k.apply_reference(&field, rows, cols);
                for rw in axis_windows(rows, radius) {
                    for cw in axis_windows(cols, radius) {
                        let crop: Vec<u64> = rw
                            .clone()
                            .flat_map(|i| cw.clone().map(move |j| (i, j)))
                            .map(|(i, j)| reference[i * cols + j].to_bits())
                            .collect();
                        let mut out = vec![f64::NAN; crop.len()];
                        k.window_body(&field, rows, cols, rw.clone(), cw.clone(), &mut out, |row| {
                            k.inner_body(row);
                        });
                        let bits: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(bits, crop, "plain {rows}x{cols} r={radius} {rw:?} x {cw:?}");
                        #[cfg(target_arch = "x86_64")]
                        if avx2 {
                            out.fill(f64::NAN);
                            // SAFETY: AVX2 was detected above.
                            unsafe {
                                k.window_avx2(&field, rows, cols, rw.clone(), cw.clone(), &mut out)
                            };
                            let bits: Vec<u64> = out.iter().map(|v| v.to_bits()).collect();
                            assert_eq!(bits, crop, "avx2 {rows}x{cols} r={radius} {rw:?} x {cw:?}");
                        }
                        windows += 1;
                    }
                }
            }
        }
        assert!(windows > 8000, "{windows}");
    }

    #[test]
    fn a_shard_core_window_equals_the_core_of_the_whole_extension() {
        // The shape `chip_golden` smooths per tile and step: the 64×64
        // core of a 72×72 extension, radius 4.
        let k = PadKernel::exponential(1.5, 4);
        let field: Vec<f64> = (0..72 * 72).map(|v| 800.0 - ((v * 7919) % 401) as f64 / 10.0).collect();
        let whole = k.apply(&field, 72, 72);
        let mut core = vec![0.0; 64 * 64];
        k.apply_window_into(&field, 72, 72, 4..68, 4..68, &mut core);
        for (r, row) in core.chunks(64).enumerate() {
            let want = &whole[(r + 4) * 72 + 4..(r + 4) * 72 + 68];
            assert!(row.iter().zip(want).all(|(a, b)| a.to_bits() == b.to_bits()), "core row {r}");
        }
    }

    /// The class table has one slot per row class × column class the
    /// field can have, and at the largest radius a field narrower than
    /// the kernel still smooths to the reference's bits.
    #[test]
    fn the_class_table_is_sized_by_the_field_and_the_largest_radius_matches_the_reference() {
        let r = PadKernel::MAX_RADIUS;
        assert_eq!(ClassSums::new(r, 8, 3).sums.len(), 8 * 3);
        assert_eq!(ClassSums::new(r, 1000, 200).sums.len(), (2 * r + 1) * (2 * r + 1));
        assert_eq!(ClassSums::new(4, 72, 72).sums.len(), 81);
        let k = PadKernel::exponential(2.5, r);
        let (rows, cols) = (7, 150);
        let field: Vec<f64> = (0..rows * cols).map(|v| ((v * 7919) % 401) as f64 / 10.0).collect();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&k.apply(&field, rows, cols)), bits(&k.apply_reference(&field, rows, cols)));
    }

    #[test]
    #[should_panic(expected = "kernel radius 65 exceeds 64")]
    fn a_radius_past_the_cap_is_refused() {
        let _ = PadKernel::exponential(1.5, PadKernel::MAX_RADIUS + 1);
    }

    #[test]
    #[should_panic(expected = "column window out of bounds")]
    fn a_window_past_the_field_is_refused() {
        let k = PadKernel::exponential(1.5, 1);
        let mut out = vec![0.0; 2];
        k.apply_window_into(&[0.0; 4], 2, 2, 0..1, 1..3, &mut out);
    }
}
