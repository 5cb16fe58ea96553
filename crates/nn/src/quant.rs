//! Offline calibration and int8 quantization of a trained [`UNet`] for
//! the `QuantCpu` inference backend.
//!
//! The pipeline has two offline steps and one load-time step:
//!
//! 1. **Calibration** ([`calibrate`]): replay the exact f32 inference
//!    traversal over representative samples (training shards), recording
//!    the absolute maximum seen at each convolution input. One symmetric
//!    scale per convolution, in traversal order — [`CalibrationScales`].
//! 2. **Persistence**: the scales serialize as a versioned, checksummed
//!    text section appended to the model bundle. Old loaders ignore it
//!    (they stop after the counted weight blocks); bundles without it
//!    load fine and simply cannot serve the quantized backend.
//! 3. **Compilation** ([`QuantUNet::compile`]): fold each conv + batch
//!    norm + ReLU block into a single [`QConvKernel`] (int8 weights,
//!    fused dequantize/bias/ReLU epilogue). Max-pool, transposed
//!    convolution, concat and the batch dimension stay f32 — they are
//!    cheap and quantization there buys nothing.
//!
//! [`QuantUNet`] implements [`Module`], so the batched inference helpers
//! (`forward_batched`) drive it exactly like the f32 network. It is
//! inference-only: `forward` wraps `infer` in a constant (no gradients),
//! and `parameters()` is empty.

use crate::layers::{BatchNorm2d, Conv2d};
use crate::module::Module;
use crate::unet::{DoubleConv, UNet, UNetConfig};
use neurfill_tensor::quant::{absmax, scale_for, QConvKernel};
use neurfill_tensor::{
    conv_transpose2d_forward, max_pool2d_forward, NdArray, Result, Tensor, TensorError,
};
use std::io::{self, Read, Write};

/// First line of the serialized calibration section.
pub const CALIBRATION_MAGIC: &str = "neurfill-calibration v1";

/// Number of convolution layers (and therefore calibration scales) a UNet
/// of the given depth has, in inference-traversal order: stem (2), each
/// down stage (2), each up stage (2), head (1).
#[must_use]
pub fn expected_scale_count(depth: usize) -> usize {
    4 * depth + 3
}

/// Per-convolution-layer symmetric input quantization scales, in the
/// inference traversal order [`calibrate`] records and
/// [`QuantUNet::compile`] consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationScales {
    scales: Vec<f32>,
}

/// FNV-1a over the serialized scale lines — cheap corruption detection
/// for a section that silently degrading would be expensive to debug.
fn fnv1a(bytes: &[u8]) -> u32 {
    bytes.iter().fold(0x811c_9dc5u32, |h, &b| (h ^ u32::from(b)).wrapping_mul(0x0100_0193))
}

impl CalibrationScales {
    /// Wraps raw per-layer scales (traversal order).
    #[must_use]
    pub fn new(scales: Vec<f32>) -> Self {
        Self { scales }
    }

    /// The per-layer scales, in traversal order.
    #[must_use]
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Number of per-layer scales.
    #[must_use]
    pub fn len(&self) -> usize {
        self.scales.len()
    }

    /// Whether there are no scales.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.scales.is_empty()
    }

    /// The serialized text section: magic, count, one 8-hex-digit f32 bit
    /// pattern per scale, FNV-1a checksum over the scale lines.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut body = String::new();
        for s in &self.scales {
            body.push_str(&format!("{:08x}\n", s.to_bits()));
        }
        format!(
            "{CALIBRATION_MAGIC}\nscales {}\n{body}checksum {:08x}\n",
            self.scales.len(),
            fnv1a(body.as_bytes())
        )
    }

    /// Writes the serialized section.
    ///
    /// # Errors
    ///
    /// Propagates writer I/O errors.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(self.to_text().as_bytes())
    }

    /// Parses a serialized calibration section (anything after its
    /// checksum line is ignored, so future sections can follow it).
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on a wrong magic/version, malformed counts or
    /// scale lines, truncation, or a checksum mismatch.
    pub fn parse(text: &str) -> io::Result<Self> {
        let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let mut lines = text.lines();
        let magic = lines.next().unwrap_or_default();
        if magic != CALIBRATION_MAGIC {
            return Err(bad(format!("bad calibration magic: {magic:?}")));
        }
        let count_line = lines.next().unwrap_or_default();
        let count: usize = count_line
            .strip_prefix("scales ")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad(format!("bad calibration count line: {count_line:?}")))?;
        let mut scales = Vec::with_capacity(count);
        let mut body = String::new();
        for _ in 0..count {
            let line = lines.next().ok_or_else(|| bad("truncated calibration scales".into()))?;
            if line.len() != 8 {
                return Err(bad(format!("bad calibration scale line: {line:?}")));
            }
            let bits = u32::from_str_radix(line, 16)
                .map_err(|_| bad(format!("bad calibration scale line: {line:?}")))?;
            scales.push(f32::from_bits(bits));
            body.push_str(line);
            body.push('\n');
        }
        let sum_line = lines.next().unwrap_or_default();
        let stored = sum_line
            .strip_prefix("checksum ")
            .and_then(|v| u32::from_str_radix(v, 16).ok())
            .ok_or_else(|| bad(format!("bad calibration checksum line: {sum_line:?}")))?;
        let computed = fnv1a(body.as_bytes());
        if stored != computed {
            return Err(bad(format!(
                "calibration checksum mismatch: stored {stored:08x}, computed {computed:08x}"
            )));
        }
        Ok(Self { scales })
    }

    /// Reads and parses a serialized section from a reader.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors and [`CalibrationScales::parse`] failures.
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<Self> {
        let mut text = String::new();
        r.read_to_string(&mut text)?;
        Self::parse(&text)
    }
}

/// Records `absmax(input)` at `maxes[*idx]` and advances the cursor.
fn record(input: &NdArray, maxes: &mut [f32], idx: &mut usize) {
    maxes[*idx] = maxes[*idx].max(absmax(input.as_slice()));
    *idx += 1;
}

/// Runs one [`DoubleConv`] on the f32 inference path, recording the input
/// absmax of each of its two convolutions.
fn record_double(
    dc: &DoubleConv,
    input: &NdArray,
    maxes: &mut [f32],
    idx: &mut usize,
) -> Result<NdArray> {
    record(input, maxes, idx);
    let mut x = dc.bn1.infer(&dc.conv1.infer(input)?)?;
    x.map_inplace(|v| v.max(0.0));
    record(&x, maxes, idx);
    let mut y = dc.bn2.infer(&dc.conv2.infer(&x)?)?;
    y.map_inplace(|v| v.max(0.0));
    Ok(y)
}

/// Computes per-convolution-layer input scales by replaying the exact f32
/// inference traversal of `unet` over `samples` (each `[N, C, H, W]`) and
/// recording the largest magnitude each convolution input reaches.
///
/// # Errors
///
/// Returns an error when `samples` is empty or any sample fails the
/// network's input checks.
pub fn calibrate(unet: &UNet, samples: &[NdArray]) -> Result<CalibrationScales> {
    if samples.is_empty() {
        return Err(TensorError::InvalidArgument("calibration requires at least one sample".into()));
    }
    let count = expected_scale_count(unet.config().depth);
    let mut maxes = vec![0.0f32; count];
    for sample in samples {
        unet.check_input(sample.shape())?;
        let mut idx = 0;
        let mut x = record_double(&unet.stem, sample, &mut maxes, &mut idx)?;
        let mut skips = Vec::with_capacity(unet.config().depth);
        for down in &unet.downs {
            skips.push(x.clone());
            let pooled = max_pool2d_forward(&x, 2, 2)?.0;
            x = record_double(down, &pooled, &mut maxes, &mut idx)?;
        }
        for ((up, up_conv), skip) in unet.ups.iter().zip(&unet.up_convs).zip(skips.into_iter().rev()) {
            let upsampled = up.infer(&x)?;
            let cat = NdArray::concat(&[&skip, &upsampled], 1)?;
            x = record_double(up_conv, &cat, &mut maxes, &mut idx)?;
        }
        record(&x, &mut maxes, &mut idx);
        debug_assert_eq!(idx, count);
    }
    Ok(CalibrationScales::new(maxes.into_iter().map(scale_for).collect()))
}

/// One quantized (conv → BN → ReLU) × 2 block.
#[derive(Debug)]
struct QDouble {
    conv1: QConvKernel,
    conv2: QConvKernel,
}

impl QDouble {
    fn forward(&self, input: &NdArray) -> Result<NdArray> {
        self.conv2.forward(&self.conv1.forward(input)?)
    }
}

/// The decoder's transposed convolutions stay f32 (they are a small
/// fraction of the FLOPs and quantizing them buys little).
#[derive(Debug)]
struct UpStage {
    weight: NdArray,
    bias: NdArray,
    stride: usize,
    padding: usize,
}

/// Folds a convolution and its following evaluation-mode batch norm into
/// one quantized kernel: `W'[o] = W[o] · γ[o] / d[o]`,
/// `b'[o] = (b[o] − μ[o]) · γ[o] / d[o] + β[o]`, `d = (σ² + eps).sqrt()`,
/// with ReLU fused into the dequantize epilogue.
fn fuse_conv_bn(conv: &Conv2d, bn: &BatchNorm2d, in_scale: f32) -> Result<QConvKernel> {
    let w = conv.weight().data();
    let cb = conv.bias().data();
    let (gamma, beta) = (bn.gamma(), bn.beta());
    let (mean, var) = (bn.running_mean(), bn.running_var());
    let o = w.shape()[0];
    let k = w.numel() / o;
    let mut fused_w = w.clone();
    let mut fused_b = vec![0.0f32; o];
    for (oi, fb) in fused_b.iter_mut().enumerate() {
        let d = (var.as_slice()[oi] + bn.eps()).sqrt();
        let s = gamma.as_slice()[oi] / d;
        for v in &mut fused_w.as_mut_slice()[oi * k..(oi + 1) * k] {
            *v *= s;
        }
        *fb = (cb.as_slice()[oi] - mean.as_slice()[oi]) * s + beta.as_slice()[oi];
    }
    QConvKernel::from_f32(&fused_w, &fused_b, in_scale, true, conv.stride(), conv.padding())
}

fn fuse_double(dc: &DoubleConv, scales: &[f32], idx: &mut usize) -> Result<QDouble> {
    let conv1 = fuse_conv_bn(&dc.conv1, &dc.bn1, scales[*idx])?;
    let conv2 = fuse_conv_bn(&dc.conv2, &dc.bn2, scales[*idx + 1])?;
    *idx += 2;
    Ok(QDouble { conv1, conv2 })
}

/// An int8-quantized, inference-only compilation of a trained [`UNet`]:
/// every conv+BN+ReLU block runs the exact-integer `madd` kernel; pool,
/// up-convolution and concat stay f32. Topology and input checks match
/// the f32 network, so it is a drop-in [`Module`] for the batched
/// inference helpers.
#[derive(Debug)]
pub struct QuantUNet {
    config: UNetConfig,
    stem: QDouble,
    downs: Vec<QDouble>,
    ups: Vec<UpStage>,
    up_convs: Vec<QDouble>,
    head: QConvKernel,
}

impl QuantUNet {
    /// Compiles `unet` against per-layer calibration `scales` (traversal
    /// order, [`expected_scale_count`] entries).
    ///
    /// # Errors
    ///
    /// Returns an error when the scale count does not match the network's
    /// depth or any scale is non-positive/non-finite.
    pub fn compile(unet: &UNet, calibration: &CalibrationScales) -> Result<Self> {
        let config = unet.config().clone();
        let want = expected_scale_count(config.depth);
        if calibration.len() != want {
            return Err(TensorError::InvalidArgument(format!(
                "calibration carries {} scales but a depth-{} UNet needs {want}",
                calibration.len(),
                config.depth
            )));
        }
        let scales = calibration.scales();
        let mut idx = 0;
        let stem = fuse_double(&unet.stem, scales, &mut idx)?;
        let mut downs = Vec::with_capacity(config.depth);
        for down in &unet.downs {
            downs.push(fuse_double(down, scales, &mut idx)?);
        }
        let mut ups = Vec::with_capacity(config.depth);
        let mut up_convs = Vec::with_capacity(config.depth);
        for (up, up_conv) in unet.ups.iter().zip(&unet.up_convs) {
            ups.push(UpStage {
                weight: up.weight().data().clone(),
                bias: up.bias().data().clone(),
                stride: up.stride(),
                padding: up.padding(),
            });
            up_convs.push(fuse_double(up_conv, scales, &mut idx)?);
        }
        let head = QConvKernel::from_f32(
            &unet.head.weight().data(),
            unet.head.bias().data().as_slice(),
            scales[idx],
            false,
            unet.head.stride(),
            unet.head.padding(),
        )?;
        Ok(Self { config, stem, downs, ups, up_convs, head })
    }

    /// The configuration of the f32 network this was compiled from.
    #[must_use]
    pub fn config(&self) -> &UNetConfig {
        &self.config
    }

    fn check_input(&self, shape: &[usize]) -> Result<()> {
        if shape.len() != 4 {
            return Err(TensorError::RankMismatch { expected: 4, actual: shape.len(), op: "unet" });
        }
        if shape[1] != self.config.in_channels {
            return Err(TensorError::ShapeMismatch {
                lhs: shape.to_vec(),
                rhs: vec![shape[0], self.config.in_channels, shape[2], shape[3]],
                op: "unet",
            });
        }
        let div = 1usize << self.config.depth;
        if !shape[2].is_multiple_of(div) || !shape[3].is_multiple_of(div) {
            return Err(TensorError::InvalidArgument(format!(
                "UNet depth {} requires spatial extents divisible by {div}, got {}x{}",
                self.config.depth, shape[2], shape[3]
            )));
        }
        Ok(())
    }
}

impl Module for QuantUNet {
    /// Inference-only: evaluates [`Module::infer`] and wraps the result in
    /// a constant — no gradients flow through the quantized network.
    fn forward(&self, input: &Tensor) -> Result<Tensor> {
        Ok(Tensor::constant(self.infer(&input.value())?))
    }

    fn infer(&self, input: &NdArray) -> Result<NdArray> {
        self.check_input(input.shape())?;
        let mut skips = Vec::with_capacity(self.config.depth);
        let mut x = self.stem.forward(input)?;
        for down in &self.downs {
            skips.push(x.clone());
            x = down.forward(&max_pool2d_forward(&x, 2, 2)?.0)?;
        }
        for ((up, up_conv), skip) in self.ups.iter().zip(&self.up_convs).zip(skips.into_iter().rev()) {
            let upsampled =
                conv_transpose2d_forward(&x, &up.weight, Some(&up.bias), up.stride, up.padding)?;
            let cat = NdArray::concat(&[&skip, &upsampled], 1)?;
            x = up_conv.forward(&cat)?;
        }
        self.head.forward(&x)
    }

    fn parameters(&self) -> Vec<Tensor> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn trained_like_unet() -> UNet {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed);
        let unet = UNet::new(
            UNetConfig { in_channels: 3, out_channels: 1, base_channels: 4, depth: 2 },
            &mut rng,
        );
        // Move batch-norm running stats off their init so fusion is
        // non-trivial, then freeze.
        let x = Tensor::constant(NdArray::from_fn(&[2, 3, 16, 16], |i| (i as f32 * 0.19).sin()));
        for _ in 0..5 {
            unet.forward(&x).unwrap();
        }
        unet.set_training(false);
        unet
    }

    fn sample(seed: usize) -> NdArray {
        NdArray::from_fn(&[1, 3, 16, 16], |i| ((i + seed * 131) as f32 * 0.17).sin())
    }

    #[test]
    fn scale_count_matches_architecture() {
        assert_eq!(expected_scale_count(1), 7);
        assert_eq!(expected_scale_count(2), 11);
        let unet = trained_like_unet();
        let cal = calibrate(&unet, &[sample(0), sample(1)]).unwrap();
        assert_eq!(cal.len(), expected_scale_count(2));
        assert!(cal.scales().iter().all(|&s| s > 0.0 && s.is_finite()));
    }

    #[test]
    fn calibration_text_round_trips() {
        let cal = CalibrationScales::new(vec![0.013, 1.5e-3, 2.0, 0.25]);
        let text = cal.to_text();
        let back = CalibrationScales::parse(&text).unwrap();
        assert_eq!(cal, back);
        // A second serialize is byte-identical (fixed point).
        assert_eq!(text, back.to_text());
        // Trailing future sections are ignored.
        let extended = format!("{text}future-section v9\nstuff\n");
        assert_eq!(CalibrationScales::parse(&extended).unwrap(), cal);
    }

    #[test]
    fn corrupt_calibration_is_rejected_cleanly() {
        let cal = CalibrationScales::new(vec![0.013, 0.07]);
        let text = cal.to_text();
        // Flip one hex digit of a scale: checksum must catch it.
        assert!(CalibrationScales::parse(&text).is_ok());
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        let flip = lines[2].replacen(
            lines[2].chars().next().unwrap(),
            if lines[2].starts_with('0') { "1" } else { "0" },
            1,
        );
        lines[2] = flip;
        let corrupted = lines.join("\n");
        let err = CalibrationScales::parse(&corrupted).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "{err}");
        // Truncation and bad magic are also InvalidData.
        assert_eq!(
            CalibrationScales::parse("neurfill-calibration v1\nscales 3\n00000000\n")
                .unwrap_err()
                .kind(),
            std::io::ErrorKind::InvalidData
        );
        assert_eq!(
            CalibrationScales::parse("something-else v1\n").unwrap_err().kind(),
            std::io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn quantized_unet_tracks_f32_infer() {
        let unet = trained_like_unet();
        let samples: Vec<NdArray> = (0..4).map(sample).collect();
        let cal = calibrate(&unet, &samples).unwrap();
        let q = QuantUNet::compile(&unet, &cal).unwrap();
        let x = sample(7); // not in the calibration set
        let f = unet.infer(&x).unwrap();
        let qy = q.infer(&x).unwrap();
        assert_eq!(f.shape(), qy.shape());
        let fmax = absmax(f.as_slice()).max(1e-6);
        for (a, b) in f.as_slice().iter().zip(qy.as_slice()) {
            assert!(
                (a - b).abs() <= 0.08 * fmax,
                "quantized output drifted: f32={a} quant={b} (range {fmax})"
            );
        }
    }

    #[test]
    fn quantized_infer_is_bit_deterministic_and_batch_composable() {
        let unet = trained_like_unet();
        let cal = calibrate(&unet, &[sample(0)]).unwrap();
        let q = QuantUNet::compile(&unet, &cal).unwrap();
        let x = sample(3);
        let a = q.infer(&x).unwrap();
        let b = q.infer(&x).unwrap();
        assert_eq!(a, b);
        // forward == infer (wrapped constant), the Module contract.
        let f = q.forward(&Tensor::constant(x)).unwrap().value();
        assert_eq!(a, f);
        assert!(q.parameters().is_empty());
    }

    #[test]
    fn compile_rejects_wrong_scale_count() {
        let unet = trained_like_unet();
        let cal = CalibrationScales::new(vec![0.1; 5]);
        assert!(QuantUNet::compile(&unet, &cal).is_err());
        let cal = CalibrationScales::new(vec![0.0; expected_scale_count(2)]);
        assert!(QuantUNet::compile(&unet, &cal).is_err()); // non-positive scale
    }

    #[test]
    fn calibrate_rejects_empty_and_bad_samples() {
        let unet = trained_like_unet();
        assert!(calibrate(&unet, &[]).is_err());
        assert!(calibrate(&unet, &[NdArray::zeros(&[1, 2, 16, 16])]).is_err());
    }
}
