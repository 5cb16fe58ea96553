//! Differentiable 2-D convolution, transposed convolution and max pooling
//! (NCHW layout). The convolution forward is direct (`conv_direct`); the
//! backward passes and the transposed convolution use `im2col`/`col2im`
//! + matmul.
//!
//! The convolution's raw [`NdArray`] kernels (`conv2d_forward`,
//! `conv2d_backward`, `im2col_into`) are public for the kernel benches and
//! equivalence suites; everything else is reached through [`Tensor`].

use super::conv_direct::{self, ConvShape};
use crate::array::{gemm_counted, NdArray};
use crate::error::{Result, TensorError};
use crate::tensor::{GradFn, Tensor};
use std::cell::RefCell;

thread_local! {
    /// Per-thread scratch reused across calls: the zero-bordered image of
    /// [`conv2d_forward`] and the patch matrices of the backward passes.
    /// The batched inference path used to allocate a fresh patch matrix
    /// (the largest transient of the whole forward) per convolution; the
    /// steady-state allocation count of `Module::infer` is pinned by the
    /// `infer_allocations` integration test.
    static CONV_SCRATCH: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Spatial output extent of a convolution along one axis; the geometry
/// must have passed [`conv_out_extents`].
#[must_use]
pub(crate) fn conv_out_extent(input: usize, kernel: usize, stride: usize, padding: usize) -> usize {
    (input + 2 * padding - kernel) / stride + 1
}

/// The output columns `ox` of tap column `kx` whose source pixel
/// `ox·stride + kx − pad` lies inside an image row of width `w`; every
/// other column of the `wo`-wide output row reads padding.
fn valid_columns(w: usize, wo: usize, kx: usize, stride: usize, pad: usize) -> std::ops::Range<usize> {
    let lo = pad.saturating_sub(kx).div_ceil(stride).min(wo);
    let hi = (w + pad).saturating_sub(kx).div_ceil(stride).min(wo);
    lo..hi.max(lo)
}

/// Rearranges one image `[C, H, W]` (given as a flat slice) into the
/// `[C·kh·kw, Ho·Wo]` patch matrix used by matmul-based convolution,
/// writing into columns `[col_offset, col_offset + Ho·Wo)` of a
/// `[C·kh·kw, total_cols]` destination, so a whole batch can share one
/// patch matrix (one column block per sample).
///
/// Every element of the column block is written — the pixels of each valid
/// row span as one copy (a `memcpy` at stride 1), the padding fringe around
/// it as zeros — so the destination may hold anything on entry: reused
/// scratch needs no zero-fill.
#[allow(clippy::too_many_arguments)]
pub fn im2col_into(
    x: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    o: &mut [f32],
    total_cols: usize,
    col_offset: usize,
) {
    let ho = conv_out_extent(h, kh, stride, pad);
    let wo = conv_out_extent(w, kw, stride, pad);
    for ci in 0..c {
        let img = &x[ci * h * w..(ci + 1) * h * w];
        for ky in 0..kh {
            for kx in 0..kw {
                let row = ((ci * kh + ky) * kw + kx) * total_cols + col_offset;
                let valid = valid_columns(w, wo, kx, stride, pad);
                for oy in 0..ho {
                    let dst = &mut o[row + oy * wo..row + (oy + 1) * wo];
                    let iy = oy * stride + ky;
                    if iy < pad || iy - pad >= h || valid.is_empty() {
                        dst.fill(0.0);
                        continue;
                    }
                    dst[..valid.start].fill(0.0);
                    dst[valid.end..].fill(0.0);
                    // First source pixel of the span; `valid` keeps it (and
                    // every later one) inside the row.
                    let src = (iy - pad) * w + valid.start * stride + kx - pad;
                    let span = &mut dst[valid.clone()];
                    if stride == 1 {
                        span.copy_from_slice(&img[src..src + span.len()]);
                    } else {
                        for (d, s) in span.iter_mut().zip(img[src..].iter().step_by(stride)) {
                            *d = *s;
                        }
                    }
                }
            }
        }
    }
}

/// Adjoint of [`im2col_into`]: adds a `[C·kh·kw, Ho·Wo]` patch matrix onto
/// an image `[C, H, W]`.
///
/// Each image pixel receives its contributions in `(ky, kx, oy, ox)` order;
/// the row spans only turn the innermost `ox` loop into a slice-wise add.
#[allow(clippy::too_many_arguments)]
fn col2im_add(
    src: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
    img: &mut [f32],
) {
    let ho = conv_out_extent(h, kh, stride, pad);
    let wo = conv_out_extent(w, kw, stride, pad);
    let cols = ho * wo;
    for ci in 0..c {
        let dst = ci * h * w;
        for ky in 0..kh {
            for kx in 0..kw {
                let row = ((ci * kh + ky) * kw + kx) * cols;
                let valid = valid_columns(w, wo, kx, stride, pad);
                if valid.is_empty() {
                    continue;
                }
                for oy in 0..ho {
                    let iy = oy * stride + ky;
                    if iy < pad || iy - pad >= h {
                        continue;
                    }
                    let span = &src[row + oy * wo..][valid.clone()];
                    let first = dst + (iy - pad) * w + valid.start * stride + kx - pad;
                    if stride == 1 {
                        for (d, s) in img[first..first + span.len()].iter_mut().zip(span) {
                            *d += s;
                        }
                    } else {
                        for (d, s) in img[first..].iter_mut().step_by(stride).zip(span) {
                            *d += s;
                        }
                    }
                }
            }
        }
    }
}

/// The thread's convolution scratch, at least `len` elements long, stale
/// contents and all; hand it back with [`return_scratch`]. Its length only
/// grows — to the thread's high-water mark — so callers slice the `len`
/// they asked for, and a call that needs no more than an earlier one
/// writes nothing. (The forward's bordered image is far smaller than the
/// backward's patch matrix: resizing to each in turn would zero the
/// difference on every backward call.)
pub(super) fn take_scratch(len: usize) -> Vec<f32> {
    let mut buf = CONV_SCRATCH.with(|s| std::mem::take(&mut *s.borrow_mut()));
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    buf
}

pub(super) fn return_scratch(buf: Vec<f32>) {
    CONV_SCRATCH.with(|s| *s.borrow_mut() = buf);
}

/// Output extents `(Ho, Wo)` of a convolution of an `h × w` image, or an
/// error when the stride is zero or the kernel is larger than the padded
/// image.
fn conv_out_extents(
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    padding: usize,
) -> Result<(usize, usize)> {
    if stride == 0 {
        return Err(TensorError::InvalidArgument("convolution stride must be at least 1".into()));
    }
    let padded = |extent: usize| padding.checked_mul(2).and_then(|p| p.checked_add(extent));
    match (padded(h), padded(w)) {
        (Some(hp), Some(wp)) if hp >= kh && wp >= kw => {
            Ok((conv_out_extent(h, kh, stride, padding), conv_out_extent(w, kw, stride, padding)))
        }
        _ => Err(TensorError::InvalidArgument(format!(
            "kernel {kh}x{kw} larger than padded input {h}x{w} (pad {padding})"
        ))),
    }
}

/// Output extents `(Ho, Wo)` of a transposed convolution of an `h × w`
/// image, `(H − 1)·stride + kh − 2·padding` per axis, or an error when the
/// input is empty, the stride is zero or the output would be.
fn conv_transpose_out_extents(
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    padding: usize,
) -> Result<(usize, usize)> {
    if stride == 0 {
        return Err(TensorError::InvalidArgument(
            "transposed convolution stride must be at least 1".into(),
        ));
    }
    let extent = |input: usize, kernel: usize| {
        input
            .checked_sub(1)?
            .checked_mul(stride)?
            .checked_add(kernel)?
            .checked_sub(padding.checked_mul(2)?)
            .filter(|&e| e > 0)
    };
    extent(h, kh).zip(extent(w, kw)).ok_or_else(|| {
        TensorError::InvalidArgument(format!(
            "transposed convolution of a {h}x{w} input by a {kh}x{kw} kernel (stride {stride}, \
             pad {padding}) has no output"
        ))
    })
}

/// `acc += a · btᵀ` for `a` of `m × k` and `bt` of `n × k`, the product
/// formed on its own in `product` and then added, so a running sum over
/// samples is `((0 + P₀) + P₁) + …` — the order in which the weight
/// gradients have always been summed.
fn add_product_bt(
    acc: &mut [f32],
    product: &mut [f32],
    a: &[f32],
    bt: &[f32],
    m: usize,
    k: usize,
    n: usize,
) {
    product.fill(0.0);
    gemm_counted::<true>(a, bt, product, m, k, n);
    for (d, s) in acc.iter_mut().zip(product.iter()) {
        *d += s;
    }
}

fn expect_rank4(x: &NdArray, op: &'static str) -> Result<(usize, usize, usize, usize)> {
    if x.rank() != 4 {
        return Err(TensorError::RankMismatch { expected: 4, actual: x.rank(), op });
    }
    Ok((x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]))
}

/// Forward 2-D convolution: `input [N,C,H,W] ⊛ weight [O,C,kh,kw] (+ bias [O])`.
///
/// Computed directly from a zero-bordered copy of each image, bit for bit
/// the im2col + GEMM product it replaced: every output element is `0.0`
/// plus `w·x` over `(ci, ky, kx)` ascending, then the bias. Samples never
/// mix, so a batched call equals single-sample calls bit for bit.
///
/// # Errors
///
/// Returns an error on rank/shape mismatches, a zero stride or a kernel
/// larger than the padded input.
pub fn conv2d_forward(
    input: &NdArray,
    weight: &NdArray,
    bias: Option<&NdArray>,
    stride: usize,
    padding: usize,
) -> Result<NdArray> {
    let (n, c, h, w) = expect_rank4(input, "conv2d(input)")?;
    let (o, cw, kh, kw) = expect_rank4(weight, "conv2d(weight)")?;
    if c != cw {
        return Err(TensorError::ShapeMismatch {
            lhs: input.shape().to_vec(),
            rhs: weight.shape().to_vec(),
            op: "conv2d",
        });
    }
    let (ho, wo) = conv_out_extents(h, w, kh, kw, stride, padding)?;
    if let Some(b) = bias {
        if b.shape() != [o] {
            return Err(TensorError::ShapeMismatch {
                lhs: b.shape().to_vec(),
                rhs: vec![o],
                op: "conv2d(bias)",
            });
        }
    }
    let shape = ConvShape { n, c, o, h, w, kh, kw, stride, pad: padding, ho, wo };
    let mut out = NdArray::zeros(&[n, o, ho, wo]);
    conv_direct::forward(
        input.as_slice(),
        weight.as_slice(),
        bias.map(NdArray::as_slice),
        &shape,
        out.as_mut_slice(),
    );
    Ok(out)
}

/// Gradients of a convolution w.r.t. input, weight and bias; each is
/// `None` when the caller did not ask for it.
pub type ConvGrads = (Option<NdArray>, Option<NdArray>, Option<NdArray>);

/// Gradients of [`conv2d_forward`] w.r.t. input, weight and bias.
///
/// `needs` selects, in that order, which of the three are computed: the
/// input gradient costs a GEMM and a `col2im`, the weight gradient an
/// `im2col` and a GEMM, and a frozen layer (or a constant input) skips
/// its share. What is computed does not depend on what is skipped.
///
/// # Errors
///
/// Returns an error on shape mismatches between the stored forward operands
/// and `grad_out`.
pub fn conv2d_backward(
    input: &NdArray,
    weight: &NdArray,
    grad_out: &NdArray,
    stride: usize,
    padding: usize,
    needs: [bool; 3],
) -> Result<ConvGrads> {
    let (n, c, h, w) = expect_rank4(input, "conv2d_backward(input)")?;
    let (o, _, kh, kw) = expect_rank4(weight, "conv2d_backward(weight)")?;
    let (ho, wo) = conv_out_extents(h, w, kh, kw, stride, padding)?;
    if grad_out.shape() != [n, o, ho, wo] {
        return Err(TensorError::ShapeMismatch {
            lhs: grad_out.shape().to_vec(),
            rhs: vec![n, o, ho, wo],
            op: "conv2d_backward",
        });
    }
    let [need_input, need_weight, need_bias] = needs;
    let (rows, per) = (c * kh * kw, ho * wo);
    let w2 = weight.reshape(&[o, rows])?;
    let w2t = if need_input { Some(w2.transpose2d()?) } else { None };
    let mut dinput = need_input.then(|| NdArray::zeros(&[n, c, h, w]));
    let mut dweight2 = need_weight.then(|| NdArray::zeros(&[o, rows]));
    let mut dbias = need_bias.then(|| NdArray::zeros(&[o]));
    // One sample's patch matrix, then the gradient w.r.t. it.
    let mut scratch = take_scratch(rows * per);
    let patches = &mut scratch[..rows * per];
    let mut dw_sample = vec![0.0f32; if need_weight { o * rows } else { 0 }];
    for ni in 0..n {
        let g = &grad_out.as_slice()[ni * o * per..(ni + 1) * o * per];
        if let Some(dweight2) = dweight2.as_mut() {
            // dW += G · colsᵀ
            let img = &input.as_slice()[ni * c * h * w..(ni + 1) * c * h * w];
            im2col_into(img, c, h, w, kh, kw, stride, padding, patches, per, 0);
            add_product_bt(dweight2.as_mut_slice(), &mut dw_sample, g, patches, o, per, rows);
        }
        if let (Some(dinput), Some(w2t)) = (dinput.as_mut(), w2t.as_ref()) {
            // dInput = col2im(Wᵀ · G)
            patches.fill(0.0);
            gemm_counted::<false>(w2t.as_slice(), g, patches, rows, o, per);
            let dst = &mut dinput.as_mut_slice()[ni * c * h * w..(ni + 1) * c * h * w];
            col2im_add(patches, c, h, w, kh, kw, stride, padding, dst);
        }
        if let Some(dbias) = dbias.as_mut() {
            // dBias += Σ spatial
            for (db, row) in dbias.as_mut_slice().iter_mut().zip(g.chunks(per.max(1))) {
                *db += row.iter().sum::<f32>();
            }
        }
    }
    return_scratch(scratch);
    let dweight = dweight2.map(|d| d.reshape(&[o, c, kh, kw])).transpose()?;
    Ok((dinput, dweight, dbias))
}

/// Forward transposed 2-D convolution (a.k.a. up-convolution):
/// `input [N,C,H,W]`, `weight [C,O,kh,kw]`, output `[N,O,Ho,Wo]` with
/// `Ho = (H-1)·stride − 2·padding + kh`.
///
/// # Errors
///
/// Returns an error on rank/shape mismatches, an empty input, a zero
/// stride or a padding that leaves no output.
pub(crate) fn conv_transpose2d_forward(
    input: &NdArray,
    weight: &NdArray,
    bias: Option<&NdArray>,
    stride: usize,
    padding: usize,
) -> Result<NdArray> {
    let (n, c, h, w) = expect_rank4(input, "conv_transpose2d(input)")?;
    let (cw, o, kh, kw) = expect_rank4(weight, "conv_transpose2d(weight)")?;
    if c != cw {
        return Err(TensorError::ShapeMismatch {
            lhs: input.shape().to_vec(),
            rhs: weight.shape().to_vec(),
            op: "conv_transpose2d",
        });
    }
    let (ho, wo) = conv_transpose_out_extents(h, w, kh, kw, stride, padding)?;
    // weightᵀ as [O·kh·kw, C]
    let w2 = weight.reshape(&[c, o * kh * kw])?.transpose2d()?;
    let mut out = NdArray::zeros(&[n, o, ho, wo]);
    for ni in 0..n {
        let x = NdArray::from_vec(
            input.as_slice()[ni * c * h * w..(ni + 1) * c * h * w].to_vec(),
            &[c, h * w],
        )?;
        let cols = w2.matmul(&x)?; // [O·kh·kw, H·W]
        let dst = &mut out.as_mut_slice()[ni * o * ho * wo..(ni + 1) * o * ho * wo];
        col2im_add(cols.as_slice(), o, ho, wo, kh, kw, stride, padding, dst);
    }
    if let Some(b) = bias {
        if b.shape() != [o] {
            return Err(TensorError::ShapeMismatch {
                lhs: b.shape().to_vec(),
                rhs: vec![o],
                op: "conv_transpose2d(bias)",
            });
        }
        let bs = b.as_slice();
        let data = out.as_mut_slice();
        for ni in 0..n {
            for (oi, bv) in bs.iter().enumerate() {
                let base = (ni * o + oi) * ho * wo;
                for v in &mut data[base..base + ho * wo] {
                    *v += bv;
                }
            }
        }
    }
    Ok(out)
}

/// Gradients of [`conv_transpose2d_forward`] w.r.t. input, weight and
/// bias, selected by `needs` as in [`conv2d_backward`].
///
/// # Errors
///
/// Returns an error on shape mismatches and on the geometry errors of
/// [`conv_transpose2d_forward`].
pub(crate) fn conv_transpose2d_backward(
    input: &NdArray,
    weight: &NdArray,
    grad_out: &NdArray,
    stride: usize,
    padding: usize,
    needs: [bool; 3],
) -> Result<ConvGrads> {
    let (n, c, h, w) = expect_rank4(input, "conv_transpose2d_backward(input)")?;
    let (_, o, kh, kw) = expect_rank4(weight, "conv_transpose2d_backward(weight)")?;
    let (ho, wo) = conv_transpose_out_extents(h, w, kh, kw, stride, padding)?;
    if grad_out.shape() != [n, o, ho, wo] {
        return Err(TensorError::ShapeMismatch {
            lhs: grad_out.shape().to_vec(),
            rhs: vec![n, o, ho, wo],
            op: "conv_transpose2d_backward",
        });
    }
    let [need_input, need_weight, need_bias] = needs;
    let (rows, per) = (o * kh * kw, h * w);
    let w2 = weight.reshape(&[c, rows])?;
    let mut dinput = need_input.then(|| NdArray::zeros(&[n, c, h, w]));
    let mut dweight2 = need_weight.then(|| NdArray::zeros(&[c, rows]));
    let mut dbias = need_bias.then(|| NdArray::zeros(&[o]));
    // One sample's patch matrix of the output gradient, [O·kh·kw, H·W].
    let mut scratch = take_scratch(rows * per);
    let gcols = &mut scratch[..rows * per];
    let mut dw_sample = vec![0.0f32; if need_weight { c * rows } else { 0 }];
    for ni in 0..n {
        let g = &grad_out.as_slice()[ni * o * ho * wo..(ni + 1) * o * ho * wo];
        if need_input || need_weight {
            im2col_into(g, o, ho, wo, kh, kw, stride, padding, gcols, per, 0);
        }
        if let Some(dinput) = dinput.as_mut() {
            // dinput = "conv" of grad_out with the same kernel.
            let dst = &mut dinput.as_mut_slice()[ni * c * per..(ni + 1) * c * per];
            gemm_counted::<false>(w2.as_slice(), gcols, dst, c, rows, per);
        }
        if let Some(dweight2) = dweight2.as_mut() {
            // dweight += input · gcolsᵀ
            let x = &input.as_slice()[ni * c * per..(ni + 1) * c * per];
            add_product_bt(dweight2.as_mut_slice(), &mut dw_sample, x, gcols, c, per, rows);
        }
        if let Some(dbias) = dbias.as_mut() {
            for (db, row) in dbias.as_mut_slice().iter_mut().zip(g.chunks(ho * wo)) {
                *db += row.iter().sum::<f32>();
            }
        }
    }
    return_scratch(scratch);
    let dweight = dweight2.map(|d| d.reshape(&[c, o, kh, kw])).transpose()?;
    Ok((dinput, dweight, dbias))
}

/// Forward 2×2-style max pooling; returns the pooled map plus flat argmax
/// offsets (into the input) used by the backward pass.
///
/// # Errors
///
/// Returns an error when the input is not rank 4 or smaller than the
/// kernel, or the stride is zero.
pub(crate) fn max_pool2d_forward(
    input: &NdArray,
    kernel: usize,
    stride: usize,
) -> Result<(NdArray, Vec<usize>)> {
    let (n, c, h, w) = expect_rank4(input, "max_pool2d")?;
    let (ho, wo) = conv_out_extents(h, w, kernel, kernel, stride, 0)?;
    let x = input.as_slice();
    let mut out = NdArray::zeros(&[n, c, ho, wo]);
    let mut arg = vec![0usize; n * c * ho * wo];
    let o = out.as_mut_slice();
    for nc in 0..n * c {
        let base = nc * h * w;
        let obase = nc * ho * wo;
        for oy in 0..ho {
            for ox in 0..wo {
                let mut best = f32::NEG_INFINITY;
                let mut best_at = base;
                for ky in 0..kernel {
                    let row = base + (oy * stride + ky) * w + ox * stride;
                    for kx in 0..kernel {
                        let v = x[row + kx];
                        if v > best {
                            best = v;
                            best_at = row + kx;
                        }
                    }
                }
                o[obase + oy * wo + ox] = best;
                arg[obase + oy * wo + ox] = best_at;
            }
        }
    }
    Ok((out, arg))
}

/// Turns the raw kernels' `needs`-selected gradients into the per-parent
/// list of a convolution node (`[input, weight]` plus `bias` when the
/// layer has one).
fn conv_parent_grads(
    needs: &[bool],
    backward: impl FnOnce([bool; 3]) -> Result<ConvGrads>,
) -> Vec<Option<NdArray>> {
    let has_bias = needs.len() == 3;
    match backward([needs[0], needs[1], has_bias && needs[2]]) {
        Ok((di, dw, db)) if has_bias => vec![di, dw, db],
        Ok((di, dw, _)) => vec![di, dw],
        Err(_) => vec![None; needs.len()],
    }
}

struct Conv2dGrad {
    input: NdArray,
    weight: NdArray,
    stride: usize,
    padding: usize,
}

impl GradFn for Conv2dGrad {
    fn backward(&self, grad: &NdArray, needs: &[bool]) -> Vec<Option<NdArray>> {
        conv_parent_grads(needs, |needs| {
            conv2d_backward(&self.input, &self.weight, grad, self.stride, self.padding, needs)
        })
    }
    fn name(&self) -> &'static str {
        "conv2d"
    }
}

struct ConvTranspose2dGrad {
    input: NdArray,
    weight: NdArray,
    stride: usize,
    padding: usize,
}

impl GradFn for ConvTranspose2dGrad {
    fn backward(&self, grad: &NdArray, needs: &[bool]) -> Vec<Option<NdArray>> {
        conv_parent_grads(needs, |needs| {
            conv_transpose2d_backward(&self.input, &self.weight, grad, self.stride, self.padding, needs)
        })
    }
    fn name(&self) -> &'static str {
        "conv_transpose2d"
    }
}

struct MaxPoolGrad {
    in_shape: Vec<usize>,
    argmax: Vec<usize>,
}

impl GradFn for MaxPoolGrad {
    fn backward(&self, grad: &NdArray, _needs: &[bool]) -> Vec<Option<NdArray>> {
        let mut din = NdArray::zeros(&self.in_shape);
        let d = din.as_mut_slice();
        for (g, &at) in grad.as_slice().iter().zip(&self.argmax) {
            d[at] += g;
        }
        vec![Some(din)]
    }
    fn name(&self) -> &'static str {
        "max_pool2d"
    }
}

impl Tensor {
    /// Differentiable 2-D convolution.
    ///
    /// `self` is the NCHW input; `weight` is `[O, C, kh, kw]`; `bias` (if
    /// any) is `[O]`.
    ///
    /// # Errors
    ///
    /// Returns an error on rank/shape mismatches and invalid geometry.
    pub fn conv2d(
        &self,
        weight: &Tensor,
        bias: Option<&Tensor>,
        stride: usize,
        padding: usize,
    ) -> Result<Tensor> {
        let out = conv2d_forward(
            &self.data(),
            &weight.data(),
            bias.map(|b| b.value()).as_ref(),
            stride,
            padding,
        )?;
        let mut parents = vec![self.clone(), weight.clone()];
        if let Some(b) = bias {
            parents.push(b.clone());
        }
        Ok(Tensor::from_op(
            out,
            parents,
            Box::new(Conv2dGrad { input: self.value(), weight: weight.value(), stride, padding }),
        ))
    }

    /// Differentiable transposed 2-D convolution (UNet up-path).
    ///
    /// `self` is the NCHW input; `weight` is `[C, O, kh, kw]`.
    ///
    /// # Errors
    ///
    /// Returns an error on rank/shape mismatches and invalid geometry.
    pub fn conv_transpose2d(
        &self,
        weight: &Tensor,
        bias: Option<&Tensor>,
        stride: usize,
        padding: usize,
    ) -> Result<Tensor> {
        let out = conv_transpose2d_forward(
            &self.data(),
            &weight.data(),
            bias.map(|b| b.value()).as_ref(),
            stride,
            padding,
        )?;
        let mut parents = vec![self.clone(), weight.clone()];
        if let Some(b) = bias {
            parents.push(b.clone());
        }
        Ok(Tensor::from_op(
            out,
            parents,
            Box::new(ConvTranspose2dGrad {
                input: self.value(),
                weight: weight.value(),
                stride,
                padding,
            }),
        ))
    }

    /// Differentiable max pooling.
    ///
    /// # Errors
    ///
    /// Returns an error when the tensor is not rank 4 or smaller than the
    /// kernel, or the stride is zero.
    pub fn max_pool2d(&self, kernel: usize, stride: usize) -> Result<Tensor> {
        let (out, argmax) = max_pool2d_forward(&self.data(), kernel, stride)?;
        Ok(Tensor::from_op(
            out,
            vec![self.clone()],
            Box::new(MaxPoolGrad { in_shape: self.shape(), argmax }),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The element-at-a-time `im2col_into` the row-span version replaced;
    /// it skips padded positions, so `o` must hold zeros there already.
    #[allow(clippy::too_many_arguments)]
    fn im2col_into_reference(
        x: &[f32],
        c: usize,
        h: usize,
        w: usize,
        kh: usize,
        kw: usize,
        stride: usize,
        pad: usize,
        o: &mut [f32],
        total_cols: usize,
        col_offset: usize,
    ) {
        let ho = conv_out_extent(h, kh, stride, pad);
        let wo = conv_out_extent(w, kw, stride, pad);
        for ci in 0..c {
            let img = &x[ci * h * w..(ci + 1) * h * w];
            for ky in 0..kh {
                for kx in 0..kw {
                    let row = ((ci * kh + ky) * kw + kx) * total_cols + col_offset;
                    for oy in 0..ho {
                        let iy = (oy * stride + ky) as isize - pad as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let src_row = iy as usize * w;
                        let dst_row = row + oy * wo;
                        for ox in 0..wo {
                            let ix = (ox * stride + kx) as isize - pad as isize;
                            if ix >= 0 && ix < w as isize {
                                o[dst_row + ox] = img[src_row + ix as usize];
                            }
                        }
                    }
                }
            }
        }
    }

    /// The element-at-a-time `col2im` the row-span version replaced.
    #[allow(clippy::too_many_arguments)]
    fn col2im_reference(
        src: &[f32],
        c: usize,
        h: usize,
        w: usize,
        kh: usize,
        kw: usize,
        stride: usize,
        pad: usize,
    ) -> Vec<f32> {
        let ho = conv_out_extent(h, kh, stride, pad);
        let wo = conv_out_extent(w, kw, stride, pad);
        let cols = ho * wo;
        let mut img = vec![0.0f32; c * h * w];
        for ci in 0..c {
            let dst = ci * h * w;
            for ky in 0..kh {
                for kx in 0..kw {
                    let row = ((ci * kh + ky) * kw + kx) * cols;
                    for oy in 0..ho {
                        let iy = (oy * stride + ky) as isize - pad as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let dst_row = dst + iy as usize * w;
                        let src_row = row + oy * wo;
                        for ox in 0..wo {
                            let ix = (ox * stride + kx) as isize - pad as isize;
                            if ix >= 0 && ix < w as isize {
                                img[dst_row + ix as usize] += src[src_row + ox];
                            }
                        }
                    }
                }
            }
        }
        img
    }

    /// One image's patch matrix in an array of its own.
    #[allow(clippy::too_many_arguments)]
    fn im2col(
        x: &[f32],
        c: usize,
        h: usize,
        w: usize,
        kh: usize,
        kw: usize,
        stride: usize,
        pad: usize,
    ) -> NdArray {
        let cols = conv_out_extent(h, kh, stride, pad) * conv_out_extent(w, kw, stride, pad);
        let mut out = NdArray::zeros(&[c * kh * kw, cols]);
        im2col_into(x, c, h, w, kh, kw, stride, pad, out.as_mut_slice(), cols, 0);
        out
    }

    /// [`col2im_add`] onto a fresh zero image.
    #[allow(clippy::too_many_arguments)]
    fn col2im(
        src: &[f32],
        c: usize,
        h: usize,
        w: usize,
        kh: usize,
        kw: usize,
        stride: usize,
        pad: usize,
    ) -> Vec<f32> {
        let mut img = vec![0.0f32; c * h * w];
        col2im_add(src, c, h, w, kh, kw, stride, pad, &mut img);
        img
    }

    /// The `conv2d_backward` the scratch-reusing one replaced: per sample a
    /// copy of the output gradient, a fresh patch matrix, its materialized
    /// transpose, a fresh `col2im` image added onto the zeroed gradient.
    fn conv2d_backward_reference(
        input: &NdArray,
        weight: &NdArray,
        grad_out: &NdArray,
        stride: usize,
        padding: usize,
        needs: [bool; 3],
    ) -> Result<ConvGrads> {
        let (n, c, h, w) = expect_rank4(input, "conv2d_backward(input)")?;
        let (o, _, kh, kw) = expect_rank4(weight, "conv2d_backward(weight)")?;
        let (_, _, ho, wo) = expect_rank4(grad_out, "conv2d_backward(grad)")?;
        let [need_input, need_weight, need_bias] = needs;
        let w2t = weight.reshape(&[o, c * kh * kw])?.transpose2d()?;
        let mut dinput = need_input.then(|| NdArray::zeros(&[n, c, h, w]));
        let mut dweight2 = need_weight.then(|| NdArray::zeros(&[o, c * kh * kw]));
        let mut dbias = need_bias.then(|| NdArray::zeros(&[o]));
        for ni in 0..n {
            let g = NdArray::from_vec(
                grad_out.as_slice()[ni * o * ho * wo..(ni + 1) * o * ho * wo].to_vec(),
                &[o, ho * wo],
            )?;
            if let Some(dweight2) = dweight2.as_mut() {
                let img = &input.as_slice()[ni * c * h * w..(ni + 1) * c * h * w];
                let cols = im2col(img, c, h, w, kh, kw, stride, padding);
                dweight2.add_assign(&g.matmul(&cols.transpose2d()?)?)?;
            }
            if let Some(dinput) = dinput.as_mut() {
                let dcols = w2t.matmul(&g)?;
                let img_grad = col2im(dcols.as_slice(), c, h, w, kh, kw, stride, padding);
                let dst = &mut dinput.as_mut_slice()[ni * c * h * w..(ni + 1) * c * h * w];
                for (d, s) in dst.iter_mut().zip(&img_grad) {
                    *d += s;
                }
            }
            if let Some(dbias) = dbias.as_mut() {
                for oi in 0..o {
                    let row = &g.as_slice()[oi * ho * wo..(oi + 1) * ho * wo];
                    dbias.as_mut_slice()[oi] += row.iter().sum::<f32>();
                }
            }
        }
        let dweight = dweight2.map(|d| d.reshape(&[o, c, kh, kw])).transpose()?;
        Ok((dinput, dweight, dbias))
    }

    /// The `conv_transpose2d_backward` the scratch-reusing one replaced.
    fn conv_transpose2d_backward_reference(
        input: &NdArray,
        weight: &NdArray,
        grad_out: &NdArray,
        stride: usize,
        padding: usize,
        needs: [bool; 3],
    ) -> Result<ConvGrads> {
        let (n, c, h, w) = expect_rank4(input, "conv_transpose2d_backward(input)")?;
        let (_, o, kh, kw) = expect_rank4(weight, "conv_transpose2d_backward(weight)")?;
        let (_, _, ho, wo) = expect_rank4(grad_out, "conv_transpose2d_backward(grad)")?;
        let [need_input, need_weight, need_bias] = needs;
        let w2 = weight.reshape(&[c, o * kh * kw])?;
        let mut dinput = need_input.then(|| NdArray::zeros(&[n, c, h, w]));
        let mut dweight2 = need_weight.then(|| NdArray::zeros(&[c, o * kh * kw]));
        let mut dbias = need_bias.then(|| NdArray::zeros(&[o]));
        for ni in 0..n {
            let g = &grad_out.as_slice()[ni * o * ho * wo..(ni + 1) * o * ho * wo];
            if need_input || need_weight {
                let gcols = im2col(g, o, ho, wo, kh, kw, stride, padding);
                if let Some(dinput) = dinput.as_mut() {
                    let din = w2.matmul(&gcols)?;
                    let dst = &mut dinput.as_mut_slice()[ni * c * h * w..(ni + 1) * c * h * w];
                    for (d, s) in dst.iter_mut().zip(din.as_slice()) {
                        *d += s;
                    }
                }
                if let Some(dweight2) = dweight2.as_mut() {
                    let x = NdArray::from_vec(
                        input.as_slice()[ni * c * h * w..(ni + 1) * c * h * w].to_vec(),
                        &[c, h * w],
                    )?;
                    dweight2.add_assign(&x.matmul(&gcols.transpose2d()?)?)?;
                }
            }
            if let Some(dbias) = dbias.as_mut() {
                for oi in 0..o {
                    let row = &g[oi * ho * wo..(oi + 1) * ho * wo];
                    dbias.as_mut_slice()[oi] += row.iter().sum::<f32>();
                }
            }
        }
        let dweight = dweight2.map(|d| d.reshape(&[c, o, kh, kw])).transpose()?;
        Ok((dinput, dweight, dbias))
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Values whose sums round differently in different orders, with both
    /// zero signs present.
    fn field(len: usize, seed: usize) -> Vec<f32> {
        (0..len)
            .map(|i| match (i * 31 + seed * 17) % 23 {
                0 => 0.0,
                1 => -0.0,
                r => ((i + seed) as f32 * 0.618).sin() * 10f32.powi(r as i32 % 7 - 3),
            })
            .collect()
    }

    /// `im2col_into` (a batch of `n` column blocks, into scratch pre-filled
    /// with NaN) and `col2im` against the scalar references, byte for byte.
    #[allow(clippy::too_many_arguments)]
    fn check_against_reference(
        n: usize,
        c: usize,
        h: usize,
        w: usize,
        k: usize,
        stride: usize,
        pad: usize,
    ) {
        if h + 2 * pad < k || w + 2 * pad < k {
            return; // no such convolution
        }
        let ctx = format!("n={n} c={c} h={h} w={w} k={k} stride={stride} pad={pad}");
        let per = conv_out_extent(h, k, stride, pad) * conv_out_extent(w, k, stride, pad);
        let total_cols = n * per;
        let rows = c * k * k;
        let mut got = vec![f32::NAN; rows * total_cols];
        let mut want = vec![0.0f32; rows * total_cols];
        for ni in 0..n {
            let x = field(c * h * w, ni + 1);
            im2col_into(&x, c, h, w, k, k, stride, pad, &mut got, total_cols, ni * per);
            im2col_into_reference(&x, c, h, w, k, k, stride, pad, &mut want, total_cols, ni * per);
        }
        assert_eq!(bits(&got), bits(&want), "im2col {ctx}");

        let cols = field(rows * per, 7);
        let got = col2im(&cols, c, h, w, k, k, stride, pad);
        let want = col2im_reference(&cols, c, h, w, k, k, stride, pad);
        assert_eq!(bits(&got), bits(&want), "col2im {ctx}");
    }

    #[test]
    fn row_span_kernels_match_reference_on_small_shapes_exhaustively() {
        for c in [1, 2] {
            for h in 1..=7 {
                for w in 1..=7 {
                    for k in [1, 2, 3, 5] {
                        for stride in [1, 2] {
                            for pad in 0..=2 {
                                check_against_reference(2, c, h, w, k, stride, pad);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn row_span_kernels_match_reference_on_unet_shapes() {
        // The default UNet (8 base channels, depth 2) on a 32×32 tile: the
        // 3×3 convolutions at each resolution, the 1×1 head, and the 2×2
        // stride-2 patch matrix of the transposed convolutions' backward.
        for (c, edge, k, stride, pad) in
            [(4, 32, 3, 1, 1), (8, 32, 3, 1, 1), (16, 16, 3, 1, 1), (32, 8, 3, 1, 1), (8, 32, 1, 1, 0)]
        {
            check_against_reference(1, c, edge, edge, k, stride, pad);
            check_against_reference(3, c, edge, edge, k, stride, pad);
        }
        check_against_reference(1, 16, 16, 16, 2, 2, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        #[test]
        fn row_span_kernels_match_reference(
            n in 1usize..=3,
            c in 1usize..=32,
            h in 1usize..=40,
            w in 1usize..=40,
            k in prop_oneof![Just(1usize), Just(2), Just(3), Just(5)],
            stride in 1usize..=2,
            pad in 0usize..=2,
        ) {
            check_against_reference(n, c, h, w, k, stride, pad);
        }
    }

    fn grad_bits(grads: &ConvGrads) -> [Option<Vec<u32>>; 3] {
        [&grads.0, &grads.1, &grads.2].map(|g| g.as_ref().map(|g| bits(g.as_slice())))
    }

    #[test]
    fn backward_matches_the_allocating_reference_on_unet_shapes() {
        // Every distinct layer of the default UNet (4 input planes, 8 base
        // channels, depth 2) on a 32×32 tile: nine convolutions …
        let convs = [
            (4, 8, 32, 3, 1),
            (8, 8, 32, 3, 1),
            (8, 16, 16, 3, 1),
            (16, 16, 16, 3, 1),
            (16, 32, 8, 3, 1),
            (32, 32, 8, 3, 1),
            (32, 16, 16, 3, 1),
            (16, 8, 32, 3, 1),
            (8, 1, 32, 1, 0),
        ];
        // … and two 2×2 stride-2 up-convolutions.
        let ups = [(32, 16, 8), (16, 8, 16)];
        let all_needs = (0..8u8).map(|m| [m & 1 != 0, m & 2 != 0, m & 4 != 0]);
        for n in [1, 4] {
            for (c, o, edge, k, pad) in convs {
                let input =
                    NdArray::from_vec(field(n * c * edge * edge, 1), &[n, c, edge, edge]).unwrap();
                let weight = NdArray::from_vec(field(o * c * k * k, 2), &[o, c, k, k]).unwrap();
                let gout =
                    NdArray::from_vec(field(n * o * edge * edge, 3), &[n, o, edge, edge]).unwrap();
                for needs in all_needs.clone() {
                    let got = conv2d_backward(&input, &weight, &gout, 1, pad, needs).unwrap();
                    let want = conv2d_backward_reference(&input, &weight, &gout, 1, pad, needs).unwrap();
                    assert_eq!(
                        grad_bits(&got),
                        grad_bits(&want),
                        "conv n={n} {c}->{o}@{edge} {needs:?}"
                    );
                    assert_eq!([got.0.is_some(), got.1.is_some(), got.2.is_some()], needs);
                }
            }
            for (c, o, edge) in ups {
                let input =
                    NdArray::from_vec(field(n * c * edge * edge, 4), &[n, c, edge, edge]).unwrap();
                let weight = NdArray::from_vec(field(c * o * 4, 5), &[c, o, 2, 2]).unwrap();
                let gout =
                    NdArray::from_vec(field(n * o * 4 * edge * edge, 6), &[n, o, 2 * edge, 2 * edge])
                        .unwrap();
                for needs in all_needs.clone() {
                    let got = conv_transpose2d_backward(&input, &weight, &gout, 2, 0, needs).unwrap();
                    let want = conv_transpose2d_backward_reference(&input, &weight, &gout, 2, 0, needs)
                        .unwrap();
                    assert_eq!(grad_bits(&got), grad_bits(&want), "up n={n} {c}->{o}@{edge} {needs:?}");
                    assert_eq!([got.0.is_some(), got.1.is_some(), got.2.is_some()], needs);
                }
            }
        }
    }

    #[test]
    fn backward_rejects_a_mismatched_output_gradient() {
        let input = NdArray::zeros(&[2, 3, 4, 5]);
        let weight = NdArray::zeros(&[6, 3, 3, 3]);
        assert!(
            conv2d_backward(&input, &weight, &NdArray::zeros(&[2, 6, 4, 5]), 1, 1, [true; 3]).is_ok()
        );
        for bad in [[1, 6, 4, 5], [2, 5, 4, 5], [2, 6, 4, 4], [2, 6, 5, 5]] {
            let err = conv2d_backward(&input, &weight, &NdArray::zeros(&bad), 1, 1, [true; 3]);
            assert!(matches!(err, Err(TensorError::ShapeMismatch { .. })), "{bad:?}");
        }
        // Transposed: [2, 3, 4, 5] through a 2×2 stride-2 kernel is [2, 6, 8, 10].
        let tweight = NdArray::zeros(&[3, 6, 2, 2]);
        let ok = NdArray::zeros(&[2, 6, 8, 10]);
        assert!(conv_transpose2d_backward(&input, &tweight, &ok, 2, 0, [true; 3]).is_ok());
        // A wrong batch, channel count or spatial extent — smaller or
        // larger than the forward's output — is an error, not a panic or
        // a silently wrong gradient.
        for bad in
            [[1, 6, 8, 10], [3, 6, 8, 10], [2, 5, 8, 10], [2, 7, 8, 10], [2, 6, 8, 9], [2, 6, 9, 10]]
        {
            for needs in [[true; 3], [false, false, true]] {
                let err =
                    conv_transpose2d_backward(&input, &tweight, &NdArray::zeros(&bad), 2, 0, needs);
                assert!(matches!(err, Err(TensorError::ShapeMismatch { .. })), "{bad:?} {needs:?}");
            }
        }
    }

    #[test]
    fn backward_skips_exactly_what_is_not_needed() {
        let input = NdArray::from_vec(field(2 * 3 * 6 * 5, 1), &[2, 3, 6, 5]).unwrap();
        let weight = NdArray::from_vec(field(4 * 3 * 9, 2), &[4, 3, 3, 3]).unwrap();
        let gout = NdArray::from_vec(field(2 * 4 * 6 * 5, 3), &[2, 4, 6, 5]).unwrap();
        let full = conv2d_backward(&input, &weight, &gout, 1, 1, [true; 3]).unwrap();
        let only_input = conv2d_backward(&input, &weight, &gout, 1, 1, [true, false, false]).unwrap();
        assert_eq!(bits(only_input.0.unwrap().as_slice()), bits(full.0.as_ref().unwrap().as_slice()));
        assert!(only_input.1.is_none() && only_input.2.is_none());
        let no_input = conv2d_backward(&input, &weight, &gout, 1, 1, [false, true, true]).unwrap();
        assert!(no_input.0.is_none());
        assert_eq!(bits(no_input.1.unwrap().as_slice()), bits(full.1.as_ref().unwrap().as_slice()));
        assert_eq!(bits(no_input.2.unwrap().as_slice()), bits(full.2.as_ref().unwrap().as_slice()));

        let tweight = NdArray::from_vec(field(3 * 4 * 4, 4), &[3, 4, 2, 2]).unwrap();
        let tgout = NdArray::from_vec(field(2 * 4 * 12 * 10, 5), &[2, 4, 12, 10]).unwrap();
        let full = conv_transpose2d_backward(&input, &tweight, &tgout, 2, 0, [true; 3]).unwrap();
        let only_input =
            conv_transpose2d_backward(&input, &tweight, &tgout, 2, 0, [true, false, false]).unwrap();
        assert_eq!(bits(only_input.0.unwrap().as_slice()), bits(full.0.as_ref().unwrap().as_slice()));
        assert!(only_input.1.is_none() && only_input.2.is_none());
        let no_input =
            conv_transpose2d_backward(&input, &tweight, &tgout, 2, 0, [false, true, true]).unwrap();
        assert!(no_input.0.is_none());
        assert_eq!(bits(no_input.1.unwrap().as_slice()), bits(full.1.as_ref().unwrap().as_slice()));
        assert_eq!(bits(no_input.2.unwrap().as_slice()), bits(full.2.as_ref().unwrap().as_slice()));
    }

    #[test]
    fn frozen_weights_receive_no_gradient_and_input_gradient_is_unchanged() {
        let xv = NdArray::from_vec(field(3 * 6 * 5, 1), &[1, 3, 6, 5]).unwrap();
        let wv = NdArray::from_vec(field(4 * 3 * 9, 2), &[4, 3, 3, 3]).unwrap();
        let bv = NdArray::from_vec(field(4, 3), &[4]).unwrap();
        let input_grad = |frozen: bool| {
            let x = Tensor::parameter(xv.clone());
            let (w, b) = (Tensor::parameter(wv.clone()), Tensor::parameter(bv.clone()));
            if frozen {
                w.set_requires_grad(false);
                b.set_requires_grad(false);
            }
            x.conv2d(&w, Some(&b), 1, 1).unwrap().square().sum().backward().unwrap();
            assert_eq!(w.grad().is_none(), frozen);
            assert_eq!(b.grad().is_none(), frozen);
            bits(x.grad().unwrap().as_slice())
        };
        assert_eq!(input_grad(true), input_grad(false));
    }

    #[test]
    fn conv2d_identity_kernel() {
        let x = Tensor::parameter(
            NdArray::from_vec((1..=9).map(|v| v as f32).collect(), &[1, 1, 3, 3]).unwrap(),
        );
        // 1x1 kernel of value 2 doubles the image.
        let w = Tensor::parameter(NdArray::from_vec(vec![2.0], &[1, 1, 1, 1]).unwrap());
        let y = x.conv2d(&w, None, 1, 0).unwrap();
        assert_eq!(y.shape(), vec![1, 1, 3, 3]);
        assert_eq!(y.value().as_slice()[0], 2.0);
        assert_eq!(y.value().as_slice()[8], 18.0);
    }

    #[test]
    fn conv2d_known_values_with_padding() {
        // 3x3 all-ones kernel on a 2x2 ones image with pad 1 ⇒ each output
        // counts the overlapping ones.
        let x = Tensor::constant(NdArray::ones(&[1, 1, 2, 2]));
        let w = Tensor::constant(NdArray::ones(&[1, 1, 3, 3]));
        let y = x.conv2d(&w, None, 1, 1).unwrap();
        assert_eq!(y.shape(), vec![1, 1, 2, 2]);
        assert_eq!(y.value().as_slice(), &[4.0, 4.0, 4.0, 4.0]);
    }

    #[test]
    fn conv2d_bias_applied_per_channel() {
        let x = Tensor::constant(NdArray::zeros(&[1, 1, 2, 2]));
        let w = Tensor::constant(NdArray::zeros(&[2, 1, 1, 1]));
        let b = Tensor::constant(NdArray::from_slice(&[1.5, -2.0]));
        let y = x.conv2d(&w, Some(&b), 1, 0).unwrap();
        let v = y.value();
        assert_eq!(v.at(&[0, 0, 0, 0]), 1.5);
        assert_eq!(v.at(&[0, 1, 1, 1]), -2.0);
    }

    #[test]
    fn conv2d_grads_match_finite_difference() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let xv = NdArray::from_fn(&[1, 2, 4, 4], |_| rng.gen_range(-1.0..1.0));
        let wv = NdArray::from_fn(&[3, 2, 3, 3], |_| rng.gen_range(-1.0..1.0));
        let bv = NdArray::from_fn(&[3], |_| rng.gen_range(-1.0..1.0));

        let loss = |xa: &NdArray, wa: &NdArray, ba: &NdArray| -> f32 {
            conv2d_forward(xa, wa, Some(ba), 1, 1).unwrap().as_slice().iter().map(|v| v * v).sum::<f32>()
        };

        let x = Tensor::parameter(xv.clone());
        let w = Tensor::parameter(wv.clone());
        let b = Tensor::parameter(bv.clone());
        let y = x.conv2d(&w, Some(&b), 1, 1).unwrap().square().sum();
        y.backward().unwrap();

        let eps = 1e-2;
        // Spot-check a few coordinates of each gradient.
        for idx in [0usize, 5, 17] {
            let mut xp = xv.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = xv.clone();
            xm.as_mut_slice()[idx] -= eps;
            let fd = (loss(&xp, &wv, &bv) - loss(&xm, &wv, &bv)) / (2.0 * eps);
            let an = x.grad().unwrap().as_slice()[idx];
            assert!((fd - an).abs() < 2e-2 * (1.0 + fd.abs()), "dinput[{idx}] fd={fd} an={an}");
        }
        for idx in [0usize, 10, 40] {
            let mut wp = wv.clone();
            wp.as_mut_slice()[idx] += eps;
            let mut wm = wv.clone();
            wm.as_mut_slice()[idx] -= eps;
            let fd = (loss(&xv, &wp, &bv) - loss(&xv, &wm, &bv)) / (2.0 * eps);
            let an = w.grad().unwrap().as_slice()[idx];
            assert!((fd - an).abs() < 2e-2 * (1.0 + fd.abs()), "dweight[{idx}] fd={fd} an={an}");
        }
        for idx in 0..3usize {
            let mut bp = bv.clone();
            bp.as_mut_slice()[idx] += eps;
            let mut bm = bv.clone();
            bm.as_mut_slice()[idx] -= eps;
            let fd = (loss(&xv, &wv, &bp) - loss(&xv, &wv, &bm)) / (2.0 * eps);
            let an = b.grad().unwrap().as_slice()[idx];
            assert!((fd - an).abs() < 2e-2 * (1.0 + fd.abs()), "dbias[{idx}] fd={fd} an={an}");
        }
    }

    #[test]
    fn conv_transpose_shapes_and_adjointness() {
        // conv_transpose with stride 2 doubles spatial extent for k=2, p=0.
        let x = Tensor::constant(NdArray::ones(&[1, 1, 3, 3]));
        let w = Tensor::constant(NdArray::ones(&[1, 1, 2, 2]));
        let y = x.conv_transpose2d(&w, None, 2, 0).unwrap();
        assert_eq!(y.shape(), vec![1, 1, 6, 6]);
        // Every input pixel writes a 2x2 block of ones ⇒ total = 9 * 4.
        assert_eq!(y.value().sum(), 36.0);
    }

    #[test]
    fn conv_transpose_grads_match_finite_difference() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let xv = NdArray::from_fn(&[1, 2, 3, 3], |_| rng.gen_range(-1.0..1.0));
        let wv = NdArray::from_fn(&[2, 2, 2, 2], |_| rng.gen_range(-1.0..1.0));

        let loss = |xa: &NdArray, wa: &NdArray| -> f32 {
            conv_transpose2d_forward(xa, wa, None, 2, 0)
                .unwrap()
                .as_slice()
                .iter()
                .map(|v| v * v)
                .sum::<f32>()
        };

        let x = Tensor::parameter(xv.clone());
        let w = Tensor::parameter(wv.clone());
        x.conv_transpose2d(&w, None, 2, 0).unwrap().square().sum().backward().unwrap();

        let eps = 1e-2;
        for idx in [0usize, 7, 12] {
            let mut xp = xv.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = xv.clone();
            xm.as_mut_slice()[idx] -= eps;
            let fd = (loss(&xp, &wv) - loss(&xm, &wv)) / (2.0 * eps);
            let an = x.grad().unwrap().as_slice()[idx];
            assert!((fd - an).abs() < 2e-2 * (1.0 + fd.abs()), "dinput[{idx}] fd={fd} an={an}");
        }
        for idx in [0usize, 5, 15] {
            let mut wp = wv.clone();
            wp.as_mut_slice()[idx] += eps;
            let mut wm = wv.clone();
            wm.as_mut_slice()[idx] -= eps;
            let fd = (loss(&xv, &wp) - loss(&xv, &wm)) / (2.0 * eps);
            let an = w.grad().unwrap().as_slice()[idx];
            assert!((fd - an).abs() < 2e-2 * (1.0 + fd.abs()), "dweight[{idx}] fd={fd} an={an}");
        }
    }

    #[test]
    fn max_pool_forward_and_grad() {
        let x = Tensor::parameter(
            NdArray::from_vec(
                vec![1.0, 2.0, 3.0, 4.0, 8.0, 7.0, 6.0, 5.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 9.0, 0.0],
                &[1, 1, 4, 4],
            )
            .unwrap(),
        );
        let y = x.max_pool2d(2, 2).unwrap();
        assert_eq!(y.shape(), vec![1, 1, 2, 2]);
        assert_eq!(y.value().as_slice(), &[8.0, 6.0, 1.0, 9.0]);
        y.sum().backward().unwrap();
        let g = x.grad().unwrap();
        assert_eq!(g.as_slice()[4], 1.0); // the 8.0
        assert_eq!(g.as_slice()[6], 1.0); // the 6.0
        assert_eq!(g.as_slice()[14], 1.0); // the 9.0
        assert_eq!(g.sum(), 4.0);
    }

    #[test]
    fn conv_rejects_channel_mismatch() {
        let x = Tensor::constant(NdArray::zeros(&[1, 2, 4, 4]));
        let w = Tensor::constant(NdArray::zeros(&[1, 3, 3, 3]));
        assert!(x.conv2d(&w, None, 1, 1).is_err());
    }

    #[test]
    fn out_extent_formula() {
        assert_eq!(conv_out_extent(5, 3, 1, 1), 5);
        assert_eq!(conv_out_extent(4, 2, 2, 0), 2);
        assert_eq!(conv_out_extent(7, 3, 2, 1), 4);
    }

    fn is_invalid<T>(r: Result<T>) -> bool {
        matches!(r, Err(TensorError::InvalidArgument(_)))
    }

    #[test]
    fn conv_forward_rejects_a_zero_stride() {
        let x = NdArray::zeros(&[1, 2, 5, 5]);
        let w = NdArray::zeros(&[3, 2, 3, 3]);
        assert!(is_invalid(conv2d_forward(&x, &w, None, 0, 1)));
        assert!(conv2d_forward(&x, &w, None, 1, 1).is_ok());
    }

    #[test]
    fn conv_backward_rejects_a_zero_stride() {
        let x = NdArray::zeros(&[1, 2, 5, 5]);
        let w = NdArray::zeros(&[3, 2, 3, 3]);
        let g = NdArray::zeros(&[1, 3, 5, 5]);
        assert!(is_invalid(conv2d_backward(&x, &w, &g, 0, 1, [true; 3])));
    }

    #[test]
    fn max_pool_rejects_a_zero_stride() {
        let x = Tensor::constant(NdArray::zeros(&[1, 1, 4, 4]));
        assert!(is_invalid(x.max_pool2d(2, 0)));
        assert!(is_invalid(max_pool2d_forward(&NdArray::zeros(&[1, 1, 4, 4]), 2, 0)));
    }

    #[test]
    fn conv_transpose_rejects_an_empty_input() {
        let w = NdArray::zeros(&[2, 3, 2, 2]);
        for shape in [[1, 2, 0, 4], [1, 2, 4, 0]] {
            let x = NdArray::zeros(&shape);
            assert!(is_invalid(conv_transpose2d_forward(&x, &w, None, 2, 0)), "{shape:?}");
            let g = NdArray::zeros(&[1, 3, 2, 2]);
            assert!(is_invalid(conv_transpose2d_backward(&x, &w, &g, 2, 0, [true; 3])), "{shape:?}");
        }
    }

    #[test]
    fn conv_transpose_rejects_padding_that_leaves_no_output() {
        // A 3×3 input through a 2×2 stride-2 kernel is 6×6 before padding:
        // padding 3 leaves nothing, padding 4 or more would wrap.
        let x = NdArray::zeros(&[1, 2, 3, 3]);
        let w = NdArray::zeros(&[2, 3, 2, 2]);
        for pad in [3, 4, 100, usize::MAX / 2] {
            assert!(is_invalid(conv_transpose2d_forward(&x, &w, None, 2, pad)), "pad {pad}");
            let g = NdArray::zeros(&[1, 3, 1, 1]);
            assert!(is_invalid(conv_transpose2d_backward(&x, &w, &g, 2, pad, [true; 3])), "pad {pad}");
        }
        assert_eq!(conv_transpose2d_forward(&x, &w, None, 2, 2).unwrap().shape(), &[1, 3, 2, 2]);
    }

    #[test]
    fn conv_transpose_rejects_a_zero_stride() {
        let x = NdArray::zeros(&[1, 2, 3, 3]);
        let w = NdArray::zeros(&[2, 3, 2, 2]);
        assert!(is_invalid(conv_transpose2d_forward(&x, &w, None, 0, 0)));
        let g = NdArray::zeros(&[1, 3, 2, 2]);
        assert!(is_invalid(conv_transpose2d_backward(&x, &w, &g, 0, 0, [true; 3])));
    }

    #[test]
    fn conv_rejects_padding_whose_border_overflows() {
        let x = NdArray::zeros(&[1, 1, 2, 2]);
        let w = NdArray::zeros(&[1, 1, 3, 3]);
        assert!(is_invalid(conv2d_forward(&x, &w, None, 1, usize::MAX / 2 + 1)));
    }
}
