//! # neurfill-cmpsim
//!
//! A physics-based full-chip CMP simulator — the "golden model" the
//! NeurFill paper migrates onto a neural network. It implements the
//! four-step iterative loop of the paper's §II-A / Fig. 2:
//!
//! 1. window envelope heights (smoothed by the pad-deformation
//!    [`kernel::PadKernel`]),
//! 2. contact-mechanics pressure solve by global force balance
//!    ([`contact`]),
//! 3. density-step-height removal-rate split ([`dsh`]),
//! 4. Preston-equation material removal, iterated over polish time
//!    ([`CmpSimulator`]; the law's constants are folded into
//!    [`ProcessParams::removal_per_step`]).
//!
//! The crate also provides the finite-difference gradient machinery
//! ([`FiniteDifference`]) that conventional model-based filling uses —
//! thousands of simulator invocations per gradient — which is precisely
//! the bottleneck NeurFill's backward propagation removes (Table I).
//!
//! # Example
//!
//! ```
//! use neurfill_cmpsim::{CmpSimulator, ProcessParams};
//! use neurfill_layout::{DesignKind, DesignSpec};
//!
//! let layout = DesignSpec::new(DesignKind::RiscV, 16, 16, 0).generate();
//! let sim = CmpSimulator::new(ProcessParams::fast())?;
//! let profile = sim.simulate(&layout);
//! println!("ΔH = {:.1} nm", profile.max_height_range());
//! # Ok::<(), String>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod contact;
pub mod dsh;
pub mod kernel;
mod numgrad;
mod params;
mod profile;
mod simulator;

pub use contact::{ContactCounters, ContactSolveStats};
pub use kernel::PadKernel;
pub use numgrad::FiniteDifference;
pub use params::ProcessParams;
pub use profile::{ChipProfile, LayerProfile};
pub use simulator::{dish_erosion_factors, polish_pointwise, CmpSimulator, LayerInput};

// Inert names the frozen benchmark still compiles against
// (`nfbench/src/probes.rs:122` calls `with_numerics(NumericsTier::Fast)`;
// `nfbench/src/workloads/chip.rs:24,94-95` names `ContactSolve::Exact`
// and `NumericsTier::Exact` in a `ChipSimConfig` literal). The golden
// simulator has one numeric path, so none of them selects anything; the
// next benchmark PR drops them together with `cmpsim.simulate_fast_ms`.
#[doc(hidden)]
pub use neurfill_tensor::NumericsTier;

#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ContactSolve {
    #[default]
    Exact,
}

// The path the frozen benchmark imports the pointwise polish update from
// (`nfbench/src/probes.rs:15`); the update itself is
// [`polish_pointwise`], next to the loop that runs it.
#[doc(hidden)]
pub mod shard {
    pub use crate::simulator::polish_pointwise;
}

impl CmpSimulator {
    #[doc(hidden)]
    #[must_use]
    pub fn with_numerics(self, _tier: NumericsTier) -> Self {
        self
    }
}
