//! Learning-rate schedules.

/// A learning-rate schedule mapping epoch index to a multiplier of the
/// base learning rate.
#[derive(Debug, Clone, PartialEq)]
pub enum LrSchedule {
    /// Constant learning rate.
    Constant,
    /// Multiply by `factor` every `every` epochs.
    StepDecay {
        /// Epoch interval between decays.
        every: usize,
        /// Multiplicative factor applied at each decay (usually < 1).
        factor: f64,
    },
    /// Linear warmup to the base rate over `epochs`, then the inner
    /// schedule (shifted so its epoch 0 is the first post-warmup epoch).
    ///
    /// Epoch `e < epochs` runs at `base · (e + 1) / epochs`, so the first
    /// epoch is already non-zero and the ramp reaches the full base rate on
    /// the first epoch after warmup.
    Warmup {
        /// Number of warmup epochs.
        epochs: usize,
        /// Schedule applied after the warmup.
        then: Box<LrSchedule>,
    },
}

impl LrSchedule {
    /// Learning rate at `epoch` given the base rate.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when schedule parameters are degenerate.
    #[must_use]
    pub fn lr_at(&self, epoch: usize, base_lr: f64) -> f64 {
        match self {
            LrSchedule::Constant => base_lr,
            LrSchedule::StepDecay { every, factor } => {
                debug_assert!(*every > 0);
                base_lr * factor.powi((epoch / every.max(&1)) as i32)
            }
            LrSchedule::Warmup { epochs, then } => {
                debug_assert!(*epochs > 0);
                if epoch < *epochs {
                    base_lr * (epoch + 1) as f64 / (*epochs).max(1) as f64
                } else {
                    then.lr_at(epoch - epochs, base_lr)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_never_changes() {
        let s = LrSchedule::Constant;
        assert_eq!(s.lr_at(0, 0.1), 0.1);
        assert_eq!(s.lr_at(100, 0.1), 0.1);
    }

    #[test]
    fn step_decay_halves_on_schedule() {
        let s = LrSchedule::StepDecay { every: 10, factor: 0.5 };
        assert_eq!(s.lr_at(0, 1.0), 1.0);
        assert_eq!(s.lr_at(9, 1.0), 1.0);
        assert_eq!(s.lr_at(10, 1.0), 0.5);
        assert_eq!(s.lr_at(25, 1.0), 0.25);
    }

    #[test]
    fn warmup_ramps_then_delegates() {
        let s = LrSchedule::Warmup {
            epochs: 4,
            then: Box::new(LrSchedule::StepDecay { every: 2, factor: 0.5 }),
        };
        assert!((s.lr_at(0, 1.0) - 0.25).abs() < 1e-12);
        assert!((s.lr_at(3, 1.0) - 1.0).abs() < 1e-12);
        // Post-warmup epochs re-index the inner schedule from zero.
        assert!((s.lr_at(4, 1.0) - 1.0).abs() < 1e-12);
        assert!((s.lr_at(6, 1.0) - 0.5).abs() < 1e-12);
    }
}
