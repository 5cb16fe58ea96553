//! Shared experiment setup: designs, simulator, surrogate and coefficients
//! at a configurable experiment scale.

use neurfill::surrogate::{train_surrogate, SurrogateConfig, TrainedSurrogate};
use neurfill::Coefficients;
use neurfill_cmpsim::{CmpSimulator, ProcessParams};
use neurfill_layout::datagen::DataGenConfig;
use neurfill_layout::{benchmark_designs, Layout};
use neurfill_nn::{TrainConfig, UNetConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Scale of an experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smoke-test scale: 16×16 windows, tiny surrogate (seconds).
    Smoke,
    /// Default CI scale: 32×32 windows (a few minutes end to end).
    Default,
    /// Paper-shaped scale: 64×64 windows (tens of minutes on one core).
    Large,
}

impl Scale {
    /// Parses a scale from a CLI argument.
    #[must_use]
    pub fn from_arg(arg: Option<&str>) -> Self {
        match arg {
            Some("smoke") => Scale::Smoke,
            Some("large") => Scale::Large,
            _ => Scale::Default,
        }
    }

    /// Window grid edge for the designs at this scale.
    #[must_use]
    pub fn grid(self) -> usize {
        match self {
            Scale::Smoke => 16,
            Scale::Default => 32,
            Scale::Large => 64,
        }
    }

    /// Number of training layouts for the surrogate.
    #[must_use]
    pub fn train_layouts(self) -> usize {
        match self {
            Scale::Smoke => 300,
            Scale::Default => 250,
            Scale::Large => 350,
        }
    }

    /// Training epochs.
    #[must_use]
    pub fn epochs(self) -> usize {
        match self {
            Scale::Smoke => 30,
            Scale::Default => 30,
            Scale::Large => 30,
        }
    }

    /// Runtime β (seconds) for the runtime score at this scale (the
    /// paper's 20 min applies at 100×100-window full-chip scale).
    #[must_use]
    pub fn beta_time_s(self) -> f64 {
        match self {
            Scale::Smoke => 20.0,
            Scale::Default => 120.0,
            Scale::Large => 1200.0,
        }
    }
}

/// A fully prepared experiment context.
#[derive(Debug)]
pub struct Experiment {
    /// The three benchmark designs at the chosen scale.
    pub designs: Vec<Layout>,
    /// Golden simulator.
    pub sim: CmpSimulator,
    /// Trained surrogate (network + report).
    pub surrogate: TrainedSurrogate,
    /// The scale used.
    pub scale: Scale,
    /// Seconds spent training the surrogate.
    pub train_seconds: f64,
}

impl Experiment {
    /// Coefficients for one design at this experiment's scale.
    #[must_use]
    pub fn coefficients(&self, layout: &Layout) -> Coefficients {
        Coefficients::calibrate(layout, &self.sim.simulate(layout), self.scale.beta_time_s())
    }
}

/// Surrogate configuration at a given scale.
#[must_use]
pub fn surrogate_config(scale: Scale, seed: u64) -> SurrogateConfig {
    let grid = scale.grid();
    SurrogateConfig {
        unet: UNetConfig {
            in_channels: neurfill::extraction::NUM_CHANNELS,
            out_channels: 1,
            base_channels: 8,
            depth: 2,
        },
        train: TrainConfig {
            epochs: scale.epochs(),
            batch_size: 4,
            lr: 2e-3,
            lr_decay: 0.92,
            ..TrainConfig::default()
        },
        num_layouts: scale.train_layouts(),
        validation_fraction: 0.1,
        datagen: DataGenConfig { rows: grid, cols: grid, seed, ..DataGenConfig::default() },
        ..SurrogateConfig::default()
    }
}

/// Prepares designs, simulator and a trained surrogate at the given scale.
///
/// # Panics
///
/// Panics when surrogate training fails (configuration bug).
#[must_use]
pub fn prepare(scale: Scale, seed: u64) -> Experiment {
    let grid = scale.grid();
    let designs = benchmark_designs(grid, grid, seed);
    let sim = CmpSimulator::new(ProcessParams::default()).expect("default params are valid");
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = surrogate_config(scale, seed);
    let t0 = std::time::Instant::now();
    let surrogate = train_surrogate(&designs, &sim, &cfg, &mut rng).expect("training succeeds");
    let train_seconds = t0.elapsed().as_secs_f64();
    Experiment { designs, sim, surrogate, scale, train_seconds }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_scale_prepares_quickly() {
        let exp = prepare(Scale::Smoke, 3);
        assert_eq!(exp.designs.len(), 3);
        assert_eq!(exp.designs[0].rows(), 16);
        let coeffs = exp.coefficients(&exp.designs[0]);
        assert!(coeffs.beta_sigma > 0.0);
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::from_arg(Some("smoke")), Scale::Smoke);
        assert_eq!(Scale::from_arg(Some("large")), Scale::Large);
        assert_eq!(Scale::from_arg(None), Scale::Default);
        assert_eq!(Scale::from_arg(Some("bogus")), Scale::Default);
    }
}
