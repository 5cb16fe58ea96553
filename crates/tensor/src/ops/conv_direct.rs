//! Direct 2-D convolution forward: every output element is read straight
//! from a zero-bordered copy of its image, with no patch matrix between
//! them.
//!
//! The im2col + GEMM forward this replaced computed each output element
//! as `0.0 + w₀·x₀ + w₁·x₁ + …` over `k = (ci, ky, kx)` ascending, with
//! `x` the patch-matrix entry — a pixel, or the `0.0` `im2col` writes at
//! padding — and then added the bias. The kernels below perform exactly
//! that sequence of roundings per output element, reading the pixel (or
//! the border's `0.0`) from the padded image instead, so the results are
//! the same bits, `0·NaN` and `0·∞` at padding included.

use super::conv::{return_scratch, take_scratch};

/// Geometry of one batched convolution: `n` images of `c` channels,
/// `h × w` pixels each, a `kh × kw` kernel over `o` output channels,
/// `stride`, `pad`, and the `ho × wo` output extents those imply.
#[derive(Debug, Clone, Copy)]
pub(super) struct ConvShape {
    pub n: usize,
    pub c: usize,
    pub o: usize,
    pub h: usize,
    pub w: usize,
    pub kh: usize,
    pub kw: usize,
    pub stride: usize,
    pub pad: usize,
    pub ho: usize,
    pub wo: usize,
}

impl ConvShape {
    /// Extents of one zero-bordered image plane.
    fn padded(&self) -> (usize, usize) {
        (self.h + 2 * self.pad, self.w + 2 * self.pad)
    }
}

/// `out [N, O, Ho, Wo] = input [N, C, H, W] ⊛ weight [O, C, kh, kw]
/// (+ bias [O])`, every element of `out` written.
pub(super) fn forward(
    input: &[f32],
    weight: &[f32],
    bias: Option<&[f32]>,
    s: &ConvShape,
    out: &mut [f32],
) {
    let (hp, wp) = s.padded();
    let (per_in, per_out) = (s.c * s.h * s.w, s.o * s.ho * s.wo);
    // The bordered copy lives in the thread-local scratch the backward's
    // patch matrix uses; every element of it is written before it is read.
    let mut scratch = if s.pad > 0 { take_scratch(s.c * hp * wp) } else { Vec::new() };
    for ni in 0..s.n {
        let img = &input[ni * per_in..(ni + 1) * per_in];
        let x = if s.pad > 0 {
            let padded = &mut scratch[..s.c * hp * wp];
            pad_image(img, s, padded);
            padded
        } else {
            img
        };
        convolve_image(x, weight, bias, s, &mut out[ni * per_out..(ni + 1) * per_out]);
    }
    if s.pad > 0 {
        return_scratch(scratch);
    }
}

/// Copies one image `[C, H, W]` into `dst` as `[C, H + 2·pad, W + 2·pad]`
/// with a border of `0.0`.
fn pad_image(img: &[f32], s: &ConvShape, dst: &mut [f32]) {
    let (hp, wp) = s.padded();
    dst.fill(0.0);
    for ci in 0..s.c {
        for y in 0..s.h {
            let at = (ci * hp + s.pad + y) * wp + s.pad;
            dst[at..at + s.w].copy_from_slice(&img[(ci * s.h + y) * s.w..][..s.w]);
        }
    }
}

/// One zero-bordered image `x` into `out [O, Ho, Wo]`, on the widest
/// codegen the host supports. Both builds run the same body; rustc never
/// contracts `mul + add` into an FMA, so the dispatch changes speed only.
fn convolve_image(x: &[f32], weight: &[f32], bias: Option<&[f32]>, s: &ConvShape, out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        if crate::kernels::has_avx2() {
            // SAFETY: has_avx2() verified the required target features.
            unsafe { image_avx2(x, weight, bias, s, out) };
            return;
        }
    }
    image_plain(x, weight, bias, s, out);
}

/// The baseline build: pixel blocks of at most 8.
fn image_plain(x: &[f32], weight: &[f32], bias: Option<&[f32]>, s: &ConvShape, out: &mut [f32]) {
    specialized::<8>(x, weight, bias, s, out);
}

/// The AVX2 build: pixel blocks of up to 16, four output channels × two
/// 256-bit registers of accumulators.
///
/// # Safety
///
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn image_avx2(x: &[f32], weight: &[f32], bias: Option<&[f32]>, s: &ConvShape, out: &mut [f32]) {
    specialized::<16>(x, weight, bias, s, out);
}

/// Compile-time kernel extents and stride for the two shapes `Conv2d`
/// uses; every other geometry runs the same loops with run-time extents.
#[inline(always)]
fn specialized<const NR: usize>(
    x: &[f32],
    weight: &[f32],
    bias: Option<&[f32]>,
    s: &ConvShape,
    out: &mut [f32],
) {
    match (s.kh, s.kw, s.stride) {
        (3, 3, 1) => image_body::<NR, 3, 3, 1>(x, weight, bias, s, out),
        (1, 1, 1) => image_body::<NR, 1, 1, 1>(x, weight, bias, s, out),
        _ => image_body::<NR, 0, 0, 0>(x, weight, bias, s, out),
    }
}

/// `N` when it is fixed at compile time, else the run-time `value`.
#[inline(always)]
fn fixed<const N: usize>(value: usize) -> usize {
    if N == 0 {
        value
    } else {
        N
    }
}

/// Every output row, in register blocks of 4 output channels (then 1)
/// × `NR`, 8 or 4 pixels of one row.
#[inline(always)]
fn image_body<const NR: usize, const KH: usize, const KW: usize, const S: usize>(
    x: &[f32],
    weight: &[f32],
    bias: Option<&[f32]>,
    s: &ConvShape,
    out: &mut [f32],
) {
    let k = s.c * fixed::<KH>(s.kh) * fixed::<KW>(s.kw);
    for oy in 0..s.ho {
        let mut oc = 0;
        while oc + 4 <= s.o {
            let rows: [&[f32]; 4] = core::array::from_fn(|r| &weight[(oc + r) * k..(oc + r + 1) * k]);
            output_row::<4, NR, KH, KW, S>(x, &rows, bias, s, oc, oy, out);
            oc += 4;
        }
        while oc < s.o {
            let rows = [&weight[oc * k..(oc + 1) * k]];
            output_row::<1, NR, KH, KW, S>(x, &rows, bias, s, oc, oy, out);
            oc += 1;
        }
    }
}

/// Output row `oy` of channels `oc..oc + MR`, whose weight rows are `rows`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn output_row<const MR: usize, const NR: usize, const KH: usize, const KW: usize, const S: usize>(
    x: &[f32],
    rows: &[&[f32]; MR],
    bias: Option<&[f32]>,
    s: &ConvShape,
    oc: usize,
    oy: usize,
    out: &mut [f32],
) {
    let mut ox = 0;
    while ox + NR <= s.wo {
        block::<MR, NR, KH, KW, S>(x, rows, bias, s, oc, oy, ox, out);
        ox += NR;
    }
    if NR > 8 && ox + 8 <= s.wo {
        block::<MR, 8, KH, KW, S>(x, rows, bias, s, oc, oy, ox, out);
        ox += 8;
    }
    if NR > 4 && ox + 4 <= s.wo {
        block::<MR, 4, KH, KW, S>(x, rows, bias, s, oc, oy, ox, out);
        ox += 4;
    }
    // The last 1–3 pixels: a 4-wide block ending at the row's end, which
    // writes up to 3 pixels again with the same bits; one-pixel blocks
    // (latency-bound chains, an eighth of the vector rate) only when the
    // whole row is narrower than 4.
    if ox < s.wo && s.wo >= 4 {
        block::<MR, 4, KH, KW, S>(x, rows, bias, s, oc, oy, s.wo - 4, out);
        ox = s.wo;
    }
    while ox < s.wo {
        block::<MR, 1, KH, KW, S>(x, rows, bias, s, oc, oy, ox, out);
        ox += 1;
    }
}

/// The register block: `MR` output channels × `NR` pixels `ox..ox + NR`
/// of output row `oy`. Each accumulator starts at `0.0`, receives
/// `w·x` for `(ci, ky, kx)` ascending — the GEMM's k order — and the bias
/// is added last, as the GEMM path added it to the finished product.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn block<const MR: usize, const NR: usize, const KH: usize, const KW: usize, const S: usize>(
    x: &[f32],
    rows: &[&[f32]; MR],
    bias: Option<&[f32]>,
    s: &ConvShape,
    oc: usize,
    oy: usize,
    ox: usize,
    out: &mut [f32],
) {
    let (kh, kw, stride) = (fixed::<KH>(s.kh), fixed::<KW>(s.kw), fixed::<S>(s.stride));
    let (hp, wp) = s.padded();
    let taps = kh * kw;
    // The padded pixels one tap's `NR` products read.
    let reach = (NR - 1) * stride + 1;
    let mut acc = [[0.0f32; NR]; MR];
    for ci in 0..s.c {
        let plane = &x[ci * hp * wp..(ci + 1) * hp * wp];
        let w: [&[f32]; MR] = core::array::from_fn(|r| &rows[r][ci * taps..(ci + 1) * taps]);
        for ky in 0..kh {
            let row = &plane[(oy * stride + ky) * wp..][..wp];
            for kx in 0..kw {
                // Each tap slices the row on its own. Given the neighbouring
                // taps' vectors as overlapping views of one span, the
                // optimizer rebuilt them from one load with shuffles, which
                // cost the 16-pixel block ~30 % of its speed.
                let start = ox * stride + kx;
                let xs = &row[start..start + reach];
                for (a, wr) in acc.iter_mut().zip(&w) {
                    let wv = wr[ky * kw + kx];
                    for (j, t) in a.iter_mut().enumerate() {
                        *t += wv * xs[j * stride];
                    }
                }
            }
        }
    }
    for (r, a) in acc.iter().enumerate() {
        let at = ((oc + r) * s.ho + oy) * s.wo + ox;
        let dst = &mut out[at..at + NR];
        match bias {
            Some(b) => {
                for (d, t) in dst.iter_mut().zip(a) {
                    *d = t + b[oc + r];
                }
            }
            None => dst.copy_from_slice(a),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::conv::{conv2d_forward, conv_out_extent, im2col_into};
    use crate::NdArray;
    use proptest::prelude::*;

    /// The im2col + GEMM forward the direct kernel replaced, with the same
    /// arithmetic: one patch matrix for the whole batch (zeros at
    /// padding), one matmul from a zeroed product, then the bias added to
    /// each finished element.
    fn conv2d_forward_gemm(
        input: &NdArray,
        weight: &NdArray,
        bias: Option<&NdArray>,
        stride: usize,
        padding: usize,
    ) -> NdArray {
        let [n, c, h, w] = <[usize; 4]>::try_from(input.shape()).unwrap();
        let [o, _, kh, kw] = <[usize; 4]>::try_from(weight.shape()).unwrap();
        let (ho, wo) =
            (conv_out_extent(h, kh, stride, padding), conv_out_extent(w, kw, stride, padding));
        let (per, rows) = (ho * wo, c * kh * kw);
        let mut cols = NdArray::zeros(&[rows, n * per]);
        for ni in 0..n {
            let img = &input.as_slice()[ni * c * h * w..(ni + 1) * c * h * w];
            im2col_into(img, c, h, w, kh, kw, stride, padding, cols.as_mut_slice(), n * per, ni * per);
        }
        let res = weight.reshape(&[o, rows]).unwrap().matmul(&cols).unwrap();
        let mut out = NdArray::zeros(&[n, o, ho, wo]);
        let dst = out.as_mut_slice();
        for ni in 0..n {
            for oi in 0..o {
                let d = (ni * o + oi) * per;
                dst[d..d + per].copy_from_slice(&res.as_slice()[oi * n * per + ni * per..][..per]);
                if let Some(b) = bias {
                    for v in &mut dst[d..d + per] {
                        *v += b.as_slice()[oi];
                    }
                }
            }
        }
        out
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

    fn array(shape: &[usize], seed: usize) -> NdArray {
        NdArray::from_vec(field(shape.iter().product(), seed), shape).unwrap()
    }

    /// `conv2d_forward` against the GEMM forward, bit for bit, with and
    /// without a bias.
    fn check(input: &NdArray, weight: &NdArray, stride: usize, pad: usize, ctx: &str) {
        let bias = array(&[weight.shape()[0]], 9);
        for b in [None, Some(&bias)] {
            let got = conv2d_forward(input, weight, b, stride, pad).unwrap();
            let want = conv2d_forward_gemm(input, weight, b, stride, pad);
            assert_eq!(got.shape(), want.shape(), "{ctx}");
            assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "{ctx} bias={}", b.is_some());
        }
    }

    /// `(C, O, edge divisor, kernel, pad)` of the default UNet's eleven
    /// convolutions (4 input planes, 8 base channels, depth 2), in forward
    /// order: stem, two down blocks, two up blocks, 1×1 head.
    const UNET_LAYERS: [(usize, usize, usize, usize, usize); 11] = [
        (4, 8, 1, 3, 1),
        (8, 8, 1, 3, 1),
        (8, 16, 2, 3, 1),
        (16, 16, 2, 3, 1),
        (16, 32, 4, 3, 1),
        (32, 32, 4, 3, 1),
        (32, 16, 2, 3, 1),
        (16, 16, 2, 3, 1),
        (16, 8, 1, 3, 1),
        (8, 8, 1, 3, 1),
        (8, 1, 1, 1, 0),
    ];

    #[test]
    fn matches_the_gemm_forward_on_unet_layer_shapes() {
        // 32² fill-job tiles, 36² chip tiles and 8² service jobs; batch 4
        // is training.
        for edge in [32, 36, 8] {
            for (c, o, div, k, pad) in UNET_LAYERS {
                let e = edge / div;
                for n in [1, 4] {
                    let input = array(&[n, c, e, e], c + e);
                    let weight = array(&[o, c, k, k], o);
                    check(&input, &weight, 1, pad, &format!("n={n} {c}->{o}@{e} k={k}"));
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn direct_forward_matches_the_gemm_forward(
            n in 1usize..=4,
            c in 1usize..=32,
            o in 1usize..=33,
            h in 1usize..=40,
            w in 1usize..=40,
            k in prop_oneof![Just(1usize), Just(2), Just(3), Just(5)],
            stride in 1usize..=2,
            pad in 0usize..=2,
            seed in 0usize..1000,
        ) {
            if h + 2 * pad >= k && w + 2 * pad >= k {
                let input = array(&[n, c, h, w], seed);
                let weight = array(&[o, c, k, k], seed + 1);
                check(&input, &weight, stride, pad, &format!("{n}x{c}x{h}x{w} o={o} k={k} s={stride} p={pad}"));
            }
        }
    }

    /// Replaces every `every`-th element with NaN, +∞, −∞ or −0.0 in turn.
    fn sprinkle(a: &mut NdArray, every: usize, nan: f32) {
        let specials = [nan, f32::INFINITY, f32::NEG_INFINITY, -0.0];
        for (i, v) in a.as_mut_slice().iter_mut().enumerate().filter(|(i, _)| (i + 1) % every == 0) {
            *v = specials[(i / every) % specials.len()];
        }
    }

    #[test]
    fn nan_infinities_and_negative_zero_propagate_as_in_the_gemm_forward() {
        // IEEE-754 leaves open which NaN operand's payload an operation
        // returns, and the compiler may commute `w·x` and `t + p`. So the
        // bitwise check sprinkles the NaN that `0·∞` produces on this host,
        // which makes every NaN the sums can meet the same bits; a second
        // pass with `f32::NAN` checks NaN positions and every other bit.
        let host_nan = std::hint::black_box(0.0f32) * std::hint::black_box(f32::INFINITY);
        for (n, c, o, e, k, stride, pad) in [
            (2, 4, 8, 9, 3, 1, 1),
            (1, 8, 5, 17, 3, 2, 2),
            (3, 32, 6, 11, 5, 1, 2),
            (2, 16, 9, 12, 1, 1, 0),
            (1, 3, 4, 7, 2, 2, 1),
        ] {
            for nan in [host_nan, f32::NAN] {
                for target in 0..3 {
                    let mut input = array(&[n, c, e, e], 1);
                    let mut weight = array(&[o, c, k, k], 2);
                    let mut bias = array(&[o], 3);
                    match target {
                        0 => sprinkle(&mut input, 7, nan),
                        1 => sprinkle(&mut weight, 5, nan),
                        _ => sprinkle(&mut bias, 2, nan),
                    }
                    let got = conv2d_forward(&input, &weight, Some(&bias), stride, pad).unwrap();
                    let want = conv2d_forward_gemm(&input, &weight, Some(&bias), stride, pad);
                    let ctx = format!("{n}x{c}x{e}² o={o} k={k} s={stride} p={pad} target={target}");
                    assert!(
                        want.as_slice().iter().any(|v| v.is_nan()),
                        "{ctx}: no NaN reached the output"
                    );
                    if nan.to_bits() == host_nan.to_bits() {
                        assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "{ctx}");
                    } else {
                        let canonical = |v: &f32| if v.is_nan() { u32::MAX } else { v.to_bits() };
                        let got: Vec<u32> = got.as_slice().iter().map(canonical).collect();
                        let want: Vec<u32> = want.as_slice().iter().map(canonical).collect();
                        assert_eq!(got, want, "{ctx} (f32::NAN)");
                    }
                }
            }
        }
    }

    #[test]
    fn stale_scratch_contents_are_never_read() {
        // Leave the thread's scratch larger than any image below and full
        // of NaN: the zero border must be written, not assumed.
        let mut stale = take_scratch(64 * 1024);
        stale.fill(f32::NAN);
        return_scratch(stale);
        for (c, e, pad) in [(4, 32, 1), (8, 13, 2), (16, 5, 1)] {
            let input = array(&[2, c, e, e], c);
            let weight = array(&[8, c, 3, 3], e);
            check(&input, &weight, 1, pad, &format!("{c}@{e} p={pad} after NaN scratch"));
            let mut stale = take_scratch(64 * 1024);
            stale.fill(f32::NAN);
            return_scratch(stale);
        }
    }

    /// The plain body and its AVX2 build, each called directly on one
    /// zero-bordered image (so a host without AVX2 still checks the body it
    /// runs), against the GEMM forward, bit for bit.
    #[test]
    fn plain_and_avx2_bodies_match_the_gemm_forward() {
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        let mut shapes: Vec<(usize, usize, usize, usize, usize, usize, usize)> = Vec::new();
        for edge in [32, 36, 8] {
            for (c, o, div, k, pad) in UNET_LAYERS {
                shapes.push((c, o, edge / div, edge / div, k, 1, pad));
            }
        }
        // Widths around the 16/8/4/1 pixel blocks, remainders of the
        // 4-channel blocks, and the run-time-extent loop (2×2, 5×5,
        // stride 2, padded 1×1).
        for w in [1, 3, 4, 5, 7, 8, 12, 15, 16, 17, 20, 23, 28, 29, 31, 40] {
            shapes.push((3, 5, 6, w, 3, 1, 1));
            shapes.push((2, 7, 5, w, 1, 1, 0));
        }
        shapes.extend([(5, 6, 9, 11, 2, 2, 1), (6, 9, 13, 21, 5, 1, 2), (3, 4, 8, 19, 3, 2, 0)]);
        shapes.extend([(4, 4, 7, 9, 1, 1, 2), (9, 2, 10, 10, 5, 2, 2), (36, 3, 6, 6, 3, 1, 1)]);
        for (c, o, h, w, k, stride, pad) in shapes {
            let input = array(&[1, c, h, w], h + w);
            let weight = array(&[o, c, k, k], c + o);
            let bias = array(&[o], k);
            let want = conv2d_forward_gemm(&input, &weight, Some(&bias), stride, pad);
            let (ho, wo) = (want.shape()[2], want.shape()[3]);
            let s = ConvShape { n: 1, c, o, h, w, kh: k, kw: k, stride, pad, ho, wo };
            let (hp, wp) = s.padded();
            let mut x = vec![f32::NAN; c * hp * wp];
            pad_image(input.as_slice(), &s, &mut x);
            let ctx = format!("{c}->{o} {h}x{w} k={k} s={stride} p={pad}");
            let mut out = vec![f32::NAN; o * ho * wo];
            image_plain(&x, weight.as_slice(), Some(bias.as_slice()), &s, &mut out);
            assert_eq!(bits(&out), bits(want.as_slice()), "plain {ctx}");
            #[cfg(target_arch = "x86_64")]
            if avx2 {
                out.fill(f32::NAN);
                // SAFETY: AVX2 was detected above.
                unsafe { image_avx2(&x, weight.as_slice(), Some(bias.as_slice()), &s, &mut out) };
                assert_eq!(bits(&out), bits(want.as_slice()), "avx2 {ctx}");
            }
        }
    }
}
