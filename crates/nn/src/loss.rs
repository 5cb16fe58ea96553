//! Loss functions and regression accuracy metrics.

use neurfill_tensor::{NdArray, Result, Tensor};

/// Mean-squared-error loss: the paper's pre-training objective (Eq. 20)
/// up to the configurable `λ` factor.
///
/// # Errors
///
/// Returns an error when shapes differ.
pub fn mse_loss(pred: &Tensor, target: &Tensor) -> Result<Tensor> {
    Ok(pred.sub(target)?.square().mean())
}

/// Mean relative error `mean(|pred − target| / |target|)`, the accuracy
/// metric of the paper's §V-A (Fig. 9). Entries with `|target| < floor`
/// are compared against `floor` to avoid division blow-ups.
///
/// # Errors
///
/// Returns an error when shapes differ.
pub fn mean_relative_error(pred: &NdArray, target: &NdArray, floor: f32) -> Result<f32> {
    let diff = pred.sub(target)?;
    let mut acc = 0.0;
    for (d, t) in diff.as_slice().iter().zip(target.as_slice()) {
        acc += d.abs() / t.abs().max(floor);
    }
    Ok(acc / diff.numel().max(1) as f32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_of_identical_is_zero() {
        let a = Tensor::constant(NdArray::from_slice(&[1.0, 2.0]));
        assert_eq!(mse_loss(&a, &a).unwrap().item(), 0.0);
    }

    #[test]
    fn mse_known_value() {
        let a = Tensor::constant(NdArray::from_slice(&[0.0, 0.0]));
        let b = Tensor::constant(NdArray::from_slice(&[2.0, 4.0]));
        assert_eq!(mse_loss(&a, &b).unwrap().item(), 10.0);
    }

    #[test]
    fn mse_is_differentiable() {
        let p = Tensor::parameter(NdArray::from_slice(&[1.0, 3.0]));
        let t = Tensor::constant(NdArray::from_slice(&[0.0, 0.0]));
        mse_loss(&p, &t).unwrap().backward().unwrap();
        assert_eq!(p.grad().unwrap().as_slice(), &[1.0, 3.0]); // 2(p−t)/n
    }

    #[test]
    fn relative_error_metric() {
        let pred = NdArray::from_slice(&[1.1, 1.9]);
        let tgt = NdArray::from_slice(&[1.0, 2.0]);
        let e = mean_relative_error(&pred, &tgt, 1e-6).unwrap();
        assert!((e - 0.075).abs() < 1e-5, "{e}");
    }

    #[test]
    fn relative_error_floor_guards_small_targets() {
        let pred = NdArray::from_slice(&[1.0]);
        let tgt = NdArray::from_slice(&[0.0]);
        let e = mean_relative_error(&pred, &tgt, 0.5).unwrap();
        assert_eq!(e, 2.0);
    }
}
