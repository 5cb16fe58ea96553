//! Random weight initialization schemes.

use crate::array::NdArray;
use rand::Rng;

/// Uniform initialization in `[-bound, bound]`.
#[must_use]
pub fn uniform(shape: &[usize], bound: f32, rng: &mut impl Rng) -> NdArray {
    NdArray::from_fn(shape, |_| rng.gen_range(-bound..=bound))
}

/// Kaiming/He uniform initialization for a conv/linear weight.
///
/// `fan_in` is `C·kh·kw` for convolutions and the input width for linear
/// layers. Suitable for ReLU networks such as the UNet surrogate.
#[must_use]
pub fn kaiming_uniform(shape: &[usize], fan_in: usize, rng: &mut impl Rng) -> NdArray {
    let gain = (2.0f32).sqrt();
    let bound = gain * (3.0 / fan_in.max(1) as f32).sqrt();
    uniform(shape, bound, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn kaiming_bound_shrinks_with_fan_in() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let w = kaiming_uniform(&[8, 8, 3, 3], 72, &mut rng);
        let bound = (2.0f32).sqrt() * (3.0 / 72.0f32).sqrt();
        assert!(w.as_slice().iter().all(|v| v.abs() <= bound + 1e-6));
    }

    #[test]
    fn deterministic_under_seed() {
        let mut a = rand::rngs::StdRng::seed_from_u64(3);
        let mut b = rand::rngs::StdRng::seed_from_u64(3);
        assert_eq!(uniform(&[16], 1.0, &mut a), uniform(&[16], 1.0, &mut b));
    }
}
