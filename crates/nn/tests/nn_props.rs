//! Property-based tests of the NN layer stack: shape contracts,
//! serialization round-trips and training-mode invariants under random
//! configurations.

use neurfill_nn::layers::{BatchNorm2d, Conv2d};
use neurfill_nn::{serialize, Module, UNet, UNetConfig};
use neurfill_tensor::{NdArray, Tensor};
use proptest::prelude::*;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn conv_output_shapes_match_formula(
        in_c in 1usize..4,
        out_c in 1usize..5,
        k in prop_oneof![Just(1usize), Just(3), Just(5)],
        seed in 0u64..100,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let pad = k / 2;
        let conv = Conv2d::new(in_c, out_c, k, 1, pad, &mut rng);
        let x = Tensor::constant(NdArray::zeros(&[2, in_c, 8, 8]));
        let y = conv.forward(&x).unwrap();
        // Same-padding convs preserve spatial extent.
        prop_assert_eq!(y.shape(), vec![2, out_c, 8, 8]);
        prop_assert_eq!(conv.num_parameters(), out_c * in_c * k * k + out_c);
    }

    #[test]
    fn unet_roundtrips_through_serialization(
        base in 2usize..5,
        depth in 1usize..3,
        seed in 0u64..50,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cfg = UNetConfig { in_channels: 3, out_channels: 1, base_channels: base, depth };
        let a = UNet::new(cfg.clone(), &mut rng);
        let b = UNet::new(cfg, &mut rng);
        let mut buf = Vec::new();
        serialize::save_parameters(&a, &mut buf).unwrap();
        serialize::load_parameters(&b, buf.as_slice()).unwrap();
        a.set_training(false);
        b.set_training(false);
        let extent = 1usize << (depth + 1);
        let x = Tensor::constant(NdArray::from_fn(&[1, 3, extent, extent], |i| (i % 5) as f32));
        prop_assert_eq!(a.forward(&x).unwrap().value(), b.forward(&x).unwrap().value());
    }

    #[test]
    fn batch_norm_eval_is_affine_in_input(scale in 0.5f32..3.0, seed in 0u64..20) {
        // In eval mode BN is an affine map: f(s·x) − f(0) = s·(f(x) − f(0)).
        let _ = seed;
        let bn = BatchNorm2d::new(1);
        bn.set_training(false);
        let x = Tensor::constant(NdArray::from_fn(&[1, 1, 2, 2], |i| i as f32));
        let zero = Tensor::constant(NdArray::zeros(&[1, 1, 2, 2]));
        let fx = bn.forward(&x).unwrap().value();
        let f0 = bn.forward(&zero).unwrap().value();
        let fsx = bn.forward(&x.scale(scale)).unwrap().value();
        for i in 0..4 {
            let lhs = fsx.as_slice()[i] - f0.as_slice()[i];
            let rhs = scale * (fx.as_slice()[i] - f0.as_slice()[i]);
            prop_assert!((lhs - rhs).abs() < 1e-4, "{lhs} vs {rhs}");
        }
    }
}
