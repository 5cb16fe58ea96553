//! Regression accuracy metrics for surrogate evaluation.

use neurfill_tensor::{NdArray, Result, TensorError};

fn check_shapes(pred: &NdArray, target: &NdArray) -> Result<()> {
    if pred.shape() != target.shape() {
        return Err(TensorError::ShapeMismatch {
            lhs: pred.shape().to_vec(),
            rhs: target.shape().to_vec(),
            op: "metrics",
        });
    }
    if pred.numel() == 0 {
        return Err(TensorError::InvalidArgument("empty arrays".into()));
    }
    Ok(())
}

/// Coefficient of determination `R² = 1 − SS_res/SS_tot`. A constant-mean
/// predictor scores 0, a perfect predictor 1; worse-than-mean predictors go
/// negative. For a constant target the convention here is 1 when exact,
/// otherwise negative infinity would be meaningless, so 0 is returned.
///
/// # Errors
///
/// Returns an error when shapes differ or the arrays are empty.
pub fn r2_score(pred: &NdArray, target: &NdArray) -> Result<f64> {
    check_shapes(pred, target)?;
    let n = target.numel() as f64;
    let mean: f64 = target.as_slice().iter().map(|v| f64::from(*v)).sum::<f64>() / n;
    let ss_tot: f64 = target.as_slice().iter().map(|t| (f64::from(*t) - mean).powi(2)).sum();
    let ss_res: f64 = pred
        .as_slice()
        .iter()
        .zip(target.as_slice())
        .map(|(p, t)| (f64::from(*p) - f64::from(*t)).powi(2))
        .sum();
    if ss_tot == 0.0 {
        return Ok(if ss_res == 0.0 { 1.0 } else { 0.0 });
    }
    Ok(1.0 - ss_res / ss_tot)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_prediction() {
        let t = NdArray::from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(r2_score(&t, &t).unwrap(), 1.0);
    }

    #[test]
    fn known_values() {
        let p = NdArray::from_slice(&[2.0, 2.0]);
        let t = NdArray::from_slice(&[0.0, 4.0]);
        // Predicting the mean ⇒ R² = 0.
        assert_eq!(r2_score(&p, &t).unwrap(), 0.0);
    }

    #[test]
    fn r2_negative_for_bad_predictor() {
        let p = NdArray::from_slice(&[10.0, -10.0]);
        let t = NdArray::from_slice(&[0.0, 1.0]);
        assert!(r2_score(&p, &t).unwrap() < 0.0);
    }

    #[test]
    fn shape_mismatch_is_error() {
        let a = NdArray::from_slice(&[1.0]);
        let b = NdArray::from_slice(&[1.0, 2.0]);
        assert!(r2_score(&a, &b).is_err());
    }

    #[test]
    fn constant_target_convention() {
        let t = NdArray::from_slice(&[5.0, 5.0]);
        let p = NdArray::from_slice(&[5.0, 6.0]);
        assert_eq!(r2_score(&t, &t).unwrap(), 1.0);
        assert_eq!(r2_score(&p, &t).unwrap(), 0.0);
    }
}
