//! Property-based tests of the tensor engine: algebraic identities of the
//! array ops and gradient correctness of composed expressions.

use neurfill_tensor::gradcheck::check_gradient;
use neurfill_tensor::{NdArray, Tensor};
use proptest::prelude::*;

fn small_vec(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-3.0f32..3.0, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn add_commutes(a in small_vec(12), b in small_vec(12)) {
        let x = NdArray::from_vec(a, &[3, 4]).unwrap();
        let y = NdArray::from_vec(b, &[3, 4]).unwrap();
        prop_assert_eq!(x.add(&y).unwrap(), y.add(&x).unwrap());
    }

    #[test]
    fn mul_distributes_over_add(a in small_vec(8), b in small_vec(8), c in small_vec(8)) {
        let x = NdArray::from_vec(a, &[8]).unwrap();
        let y = NdArray::from_vec(b, &[8]).unwrap();
        let z = NdArray::from_vec(c, &[8]).unwrap();
        let lhs = x.mul(&y.add(&z).unwrap()).unwrap();
        let rhs = x.mul(&y).unwrap().add(&x.mul(&z).unwrap()).unwrap();
        for (l, r) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((l - r).abs() < 1e-4, "{l} vs {r}");
        }
    }

    #[test]
    fn broadcast_row_equals_manual_tile(a in small_vec(6), b in small_vec(3)) {
        let x = NdArray::from_vec(a.clone(), &[2, 3]).unwrap();
        let row = NdArray::from_vec(b.clone(), &[3]).unwrap();
        let sum = x.add(&row).unwrap();
        for r in 0..2 {
            for c in 0..3 {
                prop_assert_eq!(sum.at(&[r, c]), a[r * 3 + c] + b[c]);
            }
        }
    }

    #[test]
    fn matmul_identity_is_noop(a in small_vec(9)) {
        let x = NdArray::from_vec(a, &[3, 3]).unwrap();
        let mut eye = NdArray::zeros(&[3, 3]);
        for i in 0..3 {
            eye.set(&[i, i], 1.0);
        }
        let y = x.matmul(&eye).unwrap();
        for (l, r) in y.as_slice().iter().zip(x.as_slice()) {
            prop_assert!((l - r).abs() < 1e-5);
        }
    }

    #[test]
    fn transpose_is_involutive(a in small_vec(12)) {
        let x = NdArray::from_vec(a, &[3, 4]).unwrap();
        prop_assert_eq!(x.transpose2d().unwrap().transpose2d().unwrap(), x);
    }

    #[test]
    fn concat_split_roundtrip(a in small_vec(6), b in small_vec(9)) {
        let x = NdArray::from_vec(a, &[3, 2]).unwrap();
        let y = NdArray::from_vec(b, &[3, 3]).unwrap();
        let cat = NdArray::concat(&[&x, &y], 1).unwrap();
        let parts = cat.split(1, &[2, 3]).unwrap();
        prop_assert_eq!(&parts[0], &x);
        prop_assert_eq!(&parts[1], &y);
    }

    #[test]
    fn reduce_to_shape_preserves_total(a in small_vec(12)) {
        let x = NdArray::from_vec(a, &[3, 4]).unwrap();
        let total = x.sum();
        for target in [vec![4usize], vec![3, 1], vec![]] {
            let reduced = x.reduce_to_shape(&target).unwrap();
            prop_assert!((reduced.sum() - total).abs() < 1e-4);
        }
    }

    #[test]
    fn var_is_translation_invariant(a in small_vec(10), shift in -5.0f32..5.0) {
        let x = NdArray::from_vec(a, &[10]).unwrap();
        let shifted = x.add_scalar(shift);
        prop_assert!((x.var() - shifted.var()).abs() < 1e-3);
    }

    #[test]
    fn composed_expression_gradcheck(a in small_vec(6)) {
        // f(x) = Σ softplus(x)·x² — smooth, so gradcheck must pass.
        let x0 = NdArray::from_vec(a, &[2, 3]).unwrap();
        let report = check_gradient(&x0, 1e-3, |x| {
            x.softplus().mul(&x.square()).unwrap().sum()
        });
        prop_assert!(report.passes(2e-2), "{report:?}");
    }

    #[test]
    fn mean_axis_consistent_with_full_mean(a in small_vec(12)) {
        let x = NdArray::from_vec(a, &[3, 4]).unwrap();
        // Mean of per-axis means equals the grand mean (equal group sizes).
        let col_means = x.mean_axis(0, false).unwrap();
        prop_assert!((col_means.mean() - x.mean()).abs() < 1e-4);
    }

    #[test]
    fn backward_through_concat_partitions_gradient(a in small_vec(4), b in small_vec(4)) {
        let x = Tensor::parameter(NdArray::from_vec(a, &[2, 2]).unwrap());
        let y = Tensor::parameter(NdArray::from_vec(b, &[2, 2]).unwrap());
        let cat = Tensor::concat(&[x.clone(), y.clone()], 0).unwrap();
        cat.sum().backward().unwrap();
        let gx = x.grad().unwrap();
        let gy = y.grad().unwrap();
        prop_assert_eq!(gx.as_slice(), &[1.0; 4]);
        prop_assert_eq!(gy.as_slice(), &[1.0; 4]);
    }
}
