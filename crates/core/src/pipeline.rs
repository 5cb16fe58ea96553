//! High-level orchestration of the full dummy-fill flow (paper Fig. 1):
//! surrogate pre-training → filling synthesis → filling insertion →
//! golden-simulator verification, behind one builder-style API.
//!
//! This is the entry point a downstream user adopts; the lower-level
//! modules stay available for custom flows.

use crate::cancel::CancelToken;
use crate::cmp_nn::CmpNeuralNetwork;
use crate::framework::{FillOutcome, NeurFill, NeurFillConfig};
use crate::report::{evaluate_plan, MethodResult};
use crate::score::Coefficients;
use crate::surrogate::{train_surrogate, SurrogateConfig, TrainReport};
use neurfill_cmpsim::{CmpSimulator, ProcessParams};
use neurfill_layout::insertion::{realize_fill, InsertionReport, InsertionRules};
use neurfill_layout::{FillPlan, Layout};
use neurfill_obs::Telemetry;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::rc::Rc;

/// Configuration of the end-to-end flow.
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// Process parameters of the golden simulator.
    pub process: ProcessParams,
    /// Surrogate pre-training settings.
    pub surrogate: SurrogateConfig,
    /// Synthesis (MSP-SQP) settings.
    pub neurfill: NeurFillConfig,
    /// Insertion design rules.
    pub insertion: InsertionRules,
    /// Runtime budget β (seconds) for the runtime score.
    pub beta_time_s: f64,
    /// Master seed.
    pub seed: u64,
    /// Telemetry handle; the default (disabled) handle records nothing and
    /// leaves every output byte-identical. An enabled handle propagates to
    /// the golden simulator, the synthesis optimizers and the flow's own
    /// phase spans (`flow.*_ns`).
    pub telemetry: Telemetry,
}

impl Default for FlowConfig {
    fn default() -> Self {
        Self {
            process: ProcessParams::default(),
            surrogate: SurrogateConfig::default(),
            neurfill: NeurFillConfig::default(),
            insertion: InsertionRules::default(),
            beta_time_s: 120.0,
            seed: 0,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// Everything the flow produces for one layout.
#[derive(Debug)]
pub struct FlowResult {
    /// Synthesized fill plan.
    pub plan: FillPlan,
    /// Synthesis statistics.
    pub synthesis: FillOutcome,
    /// Per-window insertion bookkeeping (requested / placed area, dummy
    /// count). The rectangles are not kept: stream them from `plan` with
    /// [`neurfill_layout::insertion::realize_fill_into`].
    pub insertion: InsertionReport,
    /// Golden-simulator scoring of the *realized* fill.
    pub scored: MethodResult,
}

/// The assembled flow: a trained surrogate bound to a simulator.
///
/// The network lives behind an [`Rc`]: synthesis injects the same trained
/// instance into [`NeurFill`] instead of rebuilding or copying it, and
/// callers holding a shared network (e.g. the batch runtime's model
/// registry) can assemble many flows around one surrogate.
#[derive(Debug)]
pub struct FillingFlow {
    sim: CmpSimulator,
    network: Rc<CmpNeuralNetwork>,
    config: FlowConfig,
    train_report: TrainReport,
}

impl FillingFlow {
    /// Trains the surrogate from `sources` and assembles the flow.
    ///
    /// # Errors
    ///
    /// Returns a message when the process parameters are invalid or
    /// training fails (geometry misconfiguration).
    pub fn prepare(sources: &[Layout], config: FlowConfig) -> Result<Self, String> {
        let _prepare_span = config.telemetry.span("flow.prepare_ns");
        let sim = CmpSimulator::new(config.process.clone())?.with_telemetry(config.telemetry.clone());
        let mut rng = StdRng::seed_from_u64(config.seed);
        let trained =
            train_surrogate(sources, &sim, &config.surrogate, &mut rng).map_err(|e| e.to_string())?;
        Ok(Self { sim, network: Rc::new(trained.network), train_report: trained.report, config })
    }

    /// Assembles a flow around an already-trained network (e.g. loaded via
    /// [`crate::persist`], or shared via [`FillingFlow::shared_network`]).
    ///
    /// # Errors
    ///
    /// Returns a message when the process parameters are invalid.
    pub fn with_network(
        network: impl Into<Rc<CmpNeuralNetwork>>,
        config: FlowConfig,
    ) -> Result<Self, String> {
        let sim = CmpSimulator::new(config.process.clone())?.with_telemetry(config.telemetry.clone());
        Ok(Self {
            sim,
            network: network.into(),
            train_report: TrainReport {
                epochs: Vec::new(),
                train_samples: 0,
                height_norm: Default::default(),
            },
            config,
        })
    }

    /// The golden simulator.
    #[must_use]
    pub fn simulator(&self) -> &CmpSimulator {
        &self.sim
    }

    /// The flow configuration in use.
    #[must_use]
    pub fn config(&self) -> &FlowConfig {
        &self.config
    }

    /// The trained CMP neural network.
    #[must_use]
    pub fn network(&self) -> &CmpNeuralNetwork {
        &self.network
    }

    /// A shared handle to the trained network — inject it into another
    /// [`FillingFlow`] or a [`NeurFill`] without copying parameters.
    #[must_use]
    pub fn shared_network(&self) -> Rc<CmpNeuralNetwork> {
        Rc::clone(&self.network)
    }

    /// The surrogate training report (empty when the network was supplied
    /// pre-trained).
    #[must_use]
    pub fn train_report(&self) -> &TrainReport {
        &self.train_report
    }

    /// Runs synthesis + insertion + verification on one layout.
    ///
    /// # Errors
    ///
    /// Returns a message when the layout geometry is incompatible with the
    /// surrogate.
    pub fn run(&self, layout: &Layout) -> Result<FlowResult, String> {
        self.run_cancellable(layout, &CancelToken::never())
    }

    /// [`FillingFlow::run`] with cooperative cancellation: the token is
    /// checked between phases and polled inside the synthesis optimizer's
    /// iteration loops, so a job whose deadline expires (or that is
    /// cancelled explicitly) aborts mid-optimization. With a
    /// never-cancelled token the result is bit-identical to
    /// [`FillingFlow::run`].
    ///
    /// # Errors
    ///
    /// Returns a message when the layout geometry is incompatible with the
    /// surrogate, or a cancellation/deadline error (see [`crate::cancel`])
    /// when the token fires.
    pub fn run_cancellable(&self, layout: &Layout, cancel: &CancelToken) -> Result<FlowResult, String> {
        cancel.check("score calibration")?;
        let coeffs = {
            let _calibration_span = self.config.telemetry.span("flow.calibration_ns");
            Coefficients::calibrate(layout, &self.sim.simulate(layout), self.config.beta_time_s)
        };
        self.run_with_coefficients_cancellable(layout, &coeffs, cancel)
    }

    /// [`FillingFlow::run`] with caller-supplied score coefficients.
    ///
    /// # Errors
    ///
    /// Returns a message when the layout geometry is incompatible with the
    /// surrogate.
    pub fn run_with_coefficients(
        &self,
        layout: &Layout,
        coeffs: &Coefficients,
    ) -> Result<FlowResult, String> {
        self.run_with_coefficients_cancellable(layout, coeffs, &CancelToken::never())
    }

    /// [`FillingFlow::run_with_coefficients`] with cooperative
    /// cancellation (see [`FillingFlow::run_cancellable`]).
    ///
    /// # Errors
    ///
    /// Returns a message when the layout geometry is incompatible with the
    /// surrogate, or a cancellation/deadline error when the token fires.
    pub fn run_with_coefficients_cancellable(
        &self,
        layout: &Layout,
        coeffs: &Coefficients,
        cancel: &CancelToken,
    ) -> Result<FlowResult, String> {
        // Phase 1: synthesis, on the flow's own network instance.
        let synthesis = {
            let _synthesis_span = self.config.telemetry.span("flow.synthesis_ns");
            let nf = NeurFill::new(Rc::clone(&self.network), self.config.neurfill.clone())
                .with_telemetry(self.config.telemetry.clone());
            nf.run_cancellable(layout, coeffs, cancel)?
        };

        // Phase 2: insertion.
        cancel.check("insertion")?;
        let insertion = {
            let _insertion_span = self.config.telemetry.span("flow.insertion_ns");
            realize_fill(layout, &synthesis.plan, &self.config.insertion)
        };

        // Phase 3: verification on the *realized* amounts.
        cancel.check("verification")?;
        let _verification_span = self.config.telemetry.span("flow.verification_ns");
        let mut realized = FillPlan::zeros(layout);
        for (slot, w) in realized.as_mut_slice().iter_mut().zip(&insertion.windows) {
            *slot = w.placed;
        }
        let dummy = self.config.insertion_dummy_spec();
        let scored = evaluate_plan(
            layout,
            &self.sim,
            coeffs,
            "NeurFill flow",
            &realized,
            &dummy,
            synthesis.runtime.as_secs_f64(),
            crate::report::estimate_memory_gb(
                crate::report::MethodKind::NeurFillPkb,
                layout,
                neurfill_nn::Module::num_parameters(self.network.unet()),
            ),
        );
        Ok(FlowResult { plan: synthesis.plan.clone(), synthesis, insertion, scored })
    }
}

impl FlowConfig {
    /// The dummy geometry implied by the insertion rules (used when scoring
    /// realized fill).
    #[must_use]
    pub fn insertion_dummy_spec(&self) -> neurfill_layout::DummySpec {
        neurfill_layout::DummySpec::new(self.insertion.edge_um)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extraction::NUM_CHANNELS;
    use neurfill_layout::datagen::DataGenConfig;
    use neurfill_layout::{benchmark_designs, DesignKind, DesignSpec};
    use neurfill_nn::{TrainConfig, UNetConfig};

    fn tiny_config(grid: usize) -> FlowConfig {
        FlowConfig {
            process: ProcessParams::fast(),
            surrogate: SurrogateConfig {
                unet: UNetConfig {
                    in_channels: NUM_CHANNELS,
                    out_channels: 1,
                    base_channels: 4,
                    depth: 2,
                },
                train: TrainConfig {
                    epochs: 2,
                    batch_size: 4,
                    lr: 2e-3,
                    lr_decay: 1.0,
                    ..TrainConfig::default()
                },
                num_layouts: 6,
                datagen: DataGenConfig { rows: grid, cols: grid, seed: 1, ..DataGenConfig::default() },
                ..SurrogateConfig::default()
            },
            beta_time_s: 60.0,
            seed: 1,
            ..FlowConfig::default()
        }
    }

    #[test]
    fn end_to_end_flow_produces_consistent_result() {
        let grid = 8;
        let sources = benchmark_designs(grid, grid, 1);
        let flow = FillingFlow::prepare(&sources, tiny_config(grid)).unwrap();
        let layout = DesignSpec::new(DesignKind::CmpTest, grid, grid, 1).generate();
        let result = flow.run(&layout).unwrap();
        assert!(result.plan.is_feasible(&layout, 1e-9));
        assert!(result.insertion.total_placed() <= result.plan.total() + 16.0);
        assert!(result.scored.quality.is_finite());
        assert!(result.scored.overall >= 0.0);
    }

    #[test]
    fn flow_accepts_pretrained_network() {
        let grid = 8;
        let sources = benchmark_designs(grid, grid, 2);
        let cfg = tiny_config(grid);
        let flow = FillingFlow::prepare(&sources, cfg.clone()).unwrap();
        // Persist + reload the network into a fresh flow.
        let mut buf = Vec::new();
        crate::persist::save_network(flow.network(), &mut buf).unwrap();
        let net = crate::persist::load_network(buf.as_slice()).unwrap();
        let flow2 = FillingFlow::with_network(net, cfg).unwrap();
        assert_eq!(flow2.train_report().train_samples, 0);
        let layout = DesignSpec::new(DesignKind::Fpga, grid, grid, 2).generate();
        let result = flow2.run(&layout).unwrap();
        assert!(result.plan.is_feasible(&layout, 1e-9));
    }
}
