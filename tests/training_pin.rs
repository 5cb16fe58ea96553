//! Pins the *result of training*, bit for bit: the weights and batch-norm
//! buffers `train_surrogate` ends with, the training loss it reports after
//! every epoch, the height normalization it derives, and the Adam moments a
//! `fit`-shaped loop leaves behind.
//!
//! A change that promises "training reads the same bits" (a fused norm
//! node, a different GEMM operand layout, fewer temporaries in a backward)
//! must leave every digest here alone; a change that means to alter
//! training numerics re-records them and says why.

use neurfill::extraction::NUM_CHANNELS;
use neurfill::surrogate::{train_surrogate, SurrogateConfig};
use neurfill_cmpsim::{CmpSimulator, ProcessParams};
use neurfill_layout::benchmark_designs;
use neurfill_layout::datagen::DataGenConfig;
use neurfill_nn::loss::mse_loss;
use neurfill_nn::{Adam, Dataset, Module, TrainConfig, UNet, UNetConfig};
use neurfill_runtime::fnv1a;
use neurfill_tensor::{NdArray, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 5;

/// The workspace's checksum over the little-endian bytes of `words`.
fn fnv(words: impl IntoIterator<Item = u32>) -> u64 {
    fnv1a(&words.into_iter().flat_map(u32::to_le_bytes).collect::<Vec<u8>>())
}

fn bits(a: &NdArray) -> impl Iterator<Item = u32> + '_ {
    a.as_slice().iter().map(|v| v.to_bits())
}

fn unet_config() -> UNetConfig {
    UNetConfig { in_channels: NUM_CHANNELS, out_channels: 1, base_channels: 8, depth: 2 }
}

/// What one `train_surrogate` run pins. Floats are recorded by bit
/// pattern; sequences by `fnv1a` over their bit patterns.
#[derive(Debug, PartialEq)]
struct Pin {
    train_samples: usize,
    weights: u64,
    buffers: u64,
    train_loss: Vec<u32>,
    height_norm: [u64; 2],
}

/// Recorded at parent commit 39ba2d8fd5e84659840bbec8842a3042309479bd
/// (training-mode batch norm composed of sixteen graph nodes, the
/// convolution backward multiplying by a materialized `cols.transpose2d()`,
/// `derive_norm` simulating its eight layouts a second time) by running
/// this test there.
fn pinned() -> [Pin; 2] {
    [
        Pin {
            train_samples: 27,
            weights: 0x267c_a5e1_e451_3a09,
            buffers: 0x4e3f_6e3d_c563_d3b6,
            train_loss: vec![0x3ffc_8257, 0x3fac_0bcf, 0x3f8f_833b],
            height_norm: [0x4081_bf9d_a89c_e1cb, 0x402c_9087_8276_2643],
        },
        Pin {
            train_samples: 30,
            weights: 0x49f7_0ddd_8169_e36c,
            buffers: 0xdab7_4ab3_fad8_2c72,
            train_loss: vec![0x3fd4_8f0b, 0x3f89_86bf],
            height_norm: [0x4082_0f3c_eadb_d539, 0x402c_0bdb_1655_1ff6],
        },
    ]
}

const PINNED_ADAM: (u32, u64, u64) = (6, 0xab38_fb86_5355_b015, 0xd2c7_61f8_bc66_e1b8);

fn surrogate_pin(grid: usize, num_layouts: usize, epochs: usize) -> Pin {
    let config = SurrogateConfig {
        unet: unet_config(),
        train: TrainConfig { epochs, batch_size: 4, lr: 2e-3, lr_decay: 0.9, ..TrainConfig::default() },
        num_layouts,
        datagen: DataGenConfig { rows: grid, cols: grid, seed: SEED, ..DataGenConfig::default() },
        ..SurrogateConfig::default()
    };
    let sim = CmpSimulator::new(ProcessParams::fast()).unwrap();
    let mut rng = StdRng::seed_from_u64(SEED);
    let trained =
        train_surrogate(&benchmark_designs(grid, grid, SEED), &sim, &config, &mut rng).unwrap();
    let unet = trained.network.unet();
    let report = &trained.report;
    assert_ne!(report.train_samples % 4, 0, "the last batch of an epoch is ragged");
    Pin {
        train_samples: report.train_samples,
        weights: fnv(unet.parameters().iter().flat_map(|p| bits(&p.value()).collect::<Vec<_>>())),
        buffers: fnv(unet.buffers().iter().flat_map(|b| bits(&b.borrow()).collect::<Vec<_>>())),
        train_loss: report.epochs.iter().map(|(t, _)| t.to_bits()).collect(),
        height_norm: [report.height_norm.offset_nm.to_bits(), report.height_norm.scale_nm.to_bits()],
    }
}

#[test]
fn train_surrogate_reproduces_the_pinned_weights_and_losses() {
    let pins = [surrogate_pin(8, 10, 3), surrogate_pin(16, 11, 2)];
    assert_eq!(pins, pinned(), "recorded: {pins:#x?}");
}

/// `fit` owns its optimizer, so the moments are pinned through the same
/// loop written out: ten synthetic samples, batches of 4 + 4 + 2, two
/// epochs on the surrogate's UNet.
#[test]
fn adam_moments_after_two_epochs_are_pinned() {
    let mut rng = StdRng::seed_from_u64(SEED);
    let net = UNet::new(unet_config(), &mut rng);
    let mut data = Dataset::new();
    for _ in 0..10 {
        let x = NdArray::from_fn(&[NUM_CHANNELS, 8, 8], |_| rng.gen_range(0.0f32..1.0));
        let y = NdArray::from_fn(&[1, 8, 8], |i| x.as_slice()[i] - 0.5 * x.as_slice()[64 + i]);
        data.push(x, y).unwrap();
    }
    let mut opt = Adam::new(net.parameters(), 2e-3);
    net.set_training(true);
    for _ in 0..2 {
        for idx in data.shuffled_batches(4, &mut rng) {
            let (x, y) = data.batch(&idx);
            opt.zero_grad();
            let loss =
                mse_loss(&net.forward(&Tensor::constant(x)).unwrap(), &Tensor::constant(y)).unwrap();
            loss.backward().unwrap();
            opt.step();
        }
    }
    let state = opt.export_state();
    let moments = |m: &[Option<NdArray>]| {
        fnv(m
            .iter()
            .flat_map(|a| bits(a.as_ref().expect("every parameter stepped")).collect::<Vec<_>>()))
    };
    let got = (state.t, moments(&state.m), moments(&state.v));
    assert_eq!(got, PINNED_ADAM, "recorded: {got:#x?}");
}
