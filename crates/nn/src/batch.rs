//! Multi-sample (batched) evaluation of a module.
//!
//! Every conv/norm/pool layer in this crate already treats the leading
//! tensor dimension as a sample axis, so a batch of `B` independent
//! single-sample forwards can be answered by ONE `[B, C, H, W]` forward.
//! Per-sample results are bit-identical to single-sample forwards — the
//! conv kernels process each batch element independently and batch-norm
//! runs on frozen running statistics in eval mode — which is what lets a
//! runtime job score every layer of its filled layout in one forward
//! without perturbing the result.

use crate::module::Module;
#[cfg(test)]
use neurfill_tensor::Tensor;
use neurfill_tensor::{NdArray, Result, TensorError};

/// Stacks rank-3 `[C, H, W]` samples into one rank-4 `[B, C, H, W]` array.
///
/// # Errors
///
/// Returns an error when `samples` is empty, a sample is not rank 3, or
/// shapes disagree.
pub fn stack_samples(samples: &[NdArray]) -> Result<NdArray> {
    let first = samples
        .first()
        .ok_or_else(|| TensorError::InvalidArgument("cannot stack an empty batch".into()))?;
    if first.rank() != 3 {
        return Err(TensorError::RankMismatch { expected: 3, actual: first.rank(), op: "stack" });
    }
    let mut data = Vec::with_capacity(samples.len() * first.numel());
    for s in samples {
        if s.shape() != first.shape() {
            return Err(TensorError::ShapeMismatch {
                lhs: first.shape().to_vec(),
                rhs: s.shape().to_vec(),
                op: "stack",
            });
        }
        data.extend_from_slice(s.as_slice());
    }
    let mut shape = vec![samples.len()];
    shape.extend_from_slice(first.shape());
    NdArray::from_vec(data, &shape)
}

/// Splits a rank-4 `[B, C, H, W]` array back into `B` rank-3 samples.
///
/// # Errors
///
/// Returns an error when `batch` is not rank 4.
pub fn unstack_samples(batch: &NdArray) -> Result<Vec<NdArray>> {
    let shape = batch.shape();
    if shape.len() != 4 {
        return Err(TensorError::RankMismatch { expected: 4, actual: shape.len(), op: "unstack" });
    }
    let (b, per) = (shape[0], shape[1] * shape[2] * shape[3]);
    let sample_shape = &shape[1..];
    (0..b)
        .map(|i| NdArray::from_vec(batch.as_slice()[i * per..(i + 1) * per].to_vec(), sample_shape))
        .collect()
}

/// Evaluates `module` on all `samples` in a single multi-sample forward
/// pass and returns the per-sample outputs.
///
/// This is the batched-eval entry point used by the surrogate's
/// whole-profile prediction and by the batch runtime's inference server.
/// It runs the module's [`Module::infer`] fast path — no autograd graph,
/// fused normalization, and one batched conv GEMM — so for `B` samples it
/// replaces `B` standard forward passes with one cheaper multi-sample
/// evaluation, while staying bit-identical to them.
///
/// # Errors
///
/// Propagates stacking errors and module shape errors.
pub fn forward_batched<M: Module + ?Sized>(module: &M, samples: &[NdArray]) -> Result<Vec<NdArray>> {
    let out = module.infer(&stack_samples(samples)?)?;
    unstack_samples(&out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unet::{UNet, UNetConfig};
    use rand::SeedableRng;

    fn unet() -> UNet {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let net = UNet::new(
            UNetConfig { in_channels: 3, out_channels: 1, base_channels: 4, depth: 2 },
            &mut rng,
        );
        net.set_training(false);
        net
    }

    fn sample(seed: usize) -> NdArray {
        NdArray::from_fn(&[3, 8, 8], |i| ((i * 31 + seed * 97) % 17) as f32 * 0.1 - 0.8)
    }

    #[test]
    fn stack_unstack_roundtrip() {
        let samples: Vec<NdArray> = (0..5).map(sample).collect();
        let batch = stack_samples(&samples).unwrap();
        assert_eq!(batch.shape(), &[5, 3, 8, 8]);
        let back = unstack_samples(&batch).unwrap();
        assert_eq!(back, samples);
    }

    #[test]
    fn stack_rejects_bad_inputs() {
        assert!(stack_samples(&[]).is_err());
        assert!(stack_samples(&[NdArray::zeros(&[3, 8])]).is_err());
        let mixed = [NdArray::zeros(&[3, 8, 8]), NdArray::zeros(&[3, 4, 4])];
        assert!(stack_samples(&mixed).is_err());
    }

    #[test]
    fn batched_forward_is_bit_identical_to_singles() {
        let net = unet();
        let samples: Vec<NdArray> = (0..8).map(sample).collect();
        let batched = forward_batched(&net, &samples).unwrap();
        assert_eq!(batched.len(), 8);
        for (s, b) in samples.iter().zip(&batched) {
            // Against both the batch path at B = 1 and the standard
            // autograd forward: the infer fast path must not change bits.
            let single = forward_batched(&net, std::slice::from_ref(s)).unwrap();
            assert_eq!(&single[0], b, "batched output must match single-sample output");
            let forward = net
                .forward(&Tensor::constant(stack_samples(std::slice::from_ref(s)).unwrap()))
                .unwrap()
                .value();
            assert_eq!(&unstack_samples(&forward).unwrap()[0], b, "infer must match forward");
        }
    }
}
