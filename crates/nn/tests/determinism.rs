//! Byte-determinism of one UNet training step across GEMM thread counts.
//!
//! The network's backward linear algebra funnels through the blocked GEMM
//! layer in `neurfill-tensor` (the convolution forward is direct and runs
//! no GEMM); the GEMM's contract is that the thread count never changes a
//! bit. This test drives that contract end to end through a real UNet
//! in training mode with every weight thawed: output, loss, every
//! parameter gradient, and after one Adam step every weight and batch-norm
//! buffer must be byte-identical at 1, 2 and 8 threads. The batch is sized
//! so the larger conv GEMMs cross the threading work threshold and the
//! parallel path genuinely runs.

use neurfill_nn::{Adam, Module, Optimizer, UNet, UNetConfig};
use neurfill_tensor::kernels::set_gemm_threads;
use neurfill_tensor::{NdArray, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn unet_training_step_bytes_identical_across_thread_counts() {
    let cfg = UNetConfig { in_channels: 4, out_channels: 1, base_channels: 8, depth: 2 };
    let (batch, h, w) = (32usize, 16usize, 16usize);

    let run = |threads: usize| -> Vec<u32> {
        set_gemm_threads(threads);
        // Rebuild network and input from the same seed per run so the
        // only varying factor is the GEMM thread count.
        let mut rng = StdRng::seed_from_u64(1234);
        let net = UNet::new(cfg.clone(), &mut rng);
        net.set_training(true);
        let mut opt = Adam::new(net.parameters(), 1e-3);
        let data: Vec<f32> =
            (0..batch * cfg.in_channels * h * w).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let x = Tensor::constant(NdArray::from_vec(data, &[batch, cfg.in_channels, h, w]).unwrap());
        let y = net.forward(&x).unwrap();
        let loss = y.mul(&y).unwrap().mean();
        loss.backward().unwrap();
        let mut bytes: Vec<u32> = y.value().as_slice().iter().map(|v| v.to_bits()).collect();
        bytes.push(loss.item().to_bits());
        for p in net.parameters() {
            let g = p.grad().expect("parameter gradient");
            bytes.extend(g.as_slice().iter().map(|v| v.to_bits()));
        }
        opt.step();
        for p in net.parameters() {
            bytes.extend(p.value().as_slice().iter().map(|v| v.to_bits()));
        }
        for b in net.buffers() {
            bytes.extend(b.borrow().as_slice().iter().map(|v| v.to_bits()));
        }
        bytes
    };

    let t1 = run(1);
    let t2 = run(2);
    let t8 = run(8);
    set_gemm_threads(0);
    assert_eq!(t1, t2, "UNet bytes differ between 1 and 2 GEMM threads");
    assert_eq!(t1, t8, "UNet bytes differ between 1 and 8 GEMM threads");
}
