//! The full-chip CMP simulator: the four-step iterative loop of paper
//! §II-A / Fig. 2.
//!
//! Per unit polish time: (1) window envelope heights are smoothed by the
//! pad kernel; (2) the contact-mechanics force balance yields per-window
//! pressures; (3) the DSH model splits each window pressure between up and
//! down areas (with width-dependent dishing and perimeter-dependent erosion
//! modifiers); (4) the Preston equation removes material. The loop runs
//! until the configured total polish time.

use crate::contact::{solve_reference_plane_stats, window_pressures_into};
use crate::kernel::PadKernel;
use crate::params::ProcessParams;
use crate::profile::{ChipProfile, LayerProfile};
use neurfill_layout::Layout;
use neurfill_obs::Telemetry;

/// Extracted per-layer simulator input: the pattern maps of one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerInput {
    /// Number of window rows.
    pub rows: usize,
    /// Number of window columns.
    pub cols: usize,
    /// Row-major metal density map.
    pub density: Vec<f64>,
    /// Row-major copper perimeter map (µm per window).
    pub perimeter: Vec<f64>,
    /// Row-major average feature width map (µm).
    pub avg_width: Vec<f64>,
}

impl LayerInput {
    /// Extracts one layer of a layout.
    ///
    /// # Panics
    ///
    /// Panics when `layer` is out of range.
    #[must_use]
    pub fn from_layout(layout: &Layout, layer: usize) -> Self {
        let g = layout.layer(layer);
        Self {
            rows: g.rows(),
            cols: g.cols(),
            density: g.iter().map(|w| w.density).collect(),
            perimeter: g.iter().map(|w| w.perimeter).collect(),
            avg_width: g.iter().map(|w| w.avg_width).collect(),
        }
    }

    /// Validates map lengths and value ranges.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.rows * self.cols;
        if n == 0 {
            return Err("empty layer".into());
        }
        if self.density.len() != n || self.perimeter.len() != n || self.avg_width.len() != n {
            return Err("map length mismatch".into());
        }
        if self.density.iter().any(|d| !(0.0..=1.0).contains(d)) {
            return Err("density out of [0,1]".into());
        }
        if self.avg_width.iter().any(|w| *w <= 0.0) {
            return Err("non-positive feature width".into());
        }
        Ok(())
    }
}

/// One recorded step of a simulation trace (all values in nm).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceStep {
    /// Mean up-area height after this step.
    pub mean_height: f64,
    /// Mean step height (up − down) after this step.
    pub mean_step: f64,
    /// Up-area peak-to-valley range after this step.
    pub height_range: f64,
}

/// The full-chip CMP simulator (golden model).
///
/// # Examples
///
/// ```
/// use neurfill_cmpsim::{CmpSimulator, ProcessParams};
/// use neurfill_layout::{DesignKind, DesignSpec};
///
/// let layout = DesignSpec::new(DesignKind::CmpTest, 16, 16, 1).generate();
/// let sim = CmpSimulator::new(ProcessParams::fast())?;
/// let profile = sim.simulate(&layout);
/// assert_eq!(profile.num_layers(), 3);
/// assert!(profile.max_height_range() > 0.0); // unfilled layouts are rough
/// # Ok::<(), String>(())
/// ```
#[derive(Debug, Clone)]
pub struct CmpSimulator {
    params: ProcessParams,
    kernel: PadKernel,
    telemetry: Telemetry,
}

impl CmpSimulator {
    /// Creates a simulator after validating the parameters.
    ///
    /// # Errors
    ///
    /// Returns the parameter-validation message on invalid input.
    pub fn new(params: ProcessParams) -> Result<Self, String> {
        params.validate()?;
        let kernel = PadKernel::exponential(params.character_length, params.kernel_radius);
        Ok(Self { params, kernel, telemetry: Telemetry::disabled() })
    }

    /// Attaches a telemetry handle; per-stage timings (`sim.*` histograms)
    /// and per-layer spans are recorded into it when it is enabled.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Replaces the telemetry handle in place.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The parameters this simulator runs with.
    #[must_use]
    pub fn params(&self) -> &ProcessParams {
        &self.params
    }

    /// Simulates one layer, recording the mean height, mean step height
    /// and height range after every unit polish step — the time-evolution
    /// view used to study step clearing and planarization dynamics.
    ///
    /// # Panics
    ///
    /// Panics when `input` fails validation.
    #[must_use]
    pub fn simulate_layer_trace(&self, input: &LayerInput) -> (LayerProfile, Vec<TraceStep>) {
        self.simulate_layer_impl(input, true)
    }

    /// Simulates one layer.
    ///
    /// # Panics
    ///
    /// Panics when `input` fails validation (programmer error — inputs
    /// extracted from a valid [`Layout`] always validate).
    #[must_use]
    pub fn simulate_layer(&self, input: &LayerInput) -> LayerProfile {
        self.simulate_layer_impl(input, false).0
    }

    #[allow(clippy::expect_used)] // validation failure is a documented panic (programmer error)
    fn simulate_layer_impl(&self, input: &LayerInput, record: bool) -> (LayerProfile, Vec<TraceStep>) {
        input.validate().expect("valid layer input");
        let _layer_span = self.telemetry.span("sim.layer_ns");
        // Pre-registered per-stage histograms and kernel counters: inside
        // the polish loop the only telemetry cost is clock reads + atomics
        // (none when disabled).
        let stage_timers = self.telemetry.is_enabled().then(|| {
            self.telemetry.inc("sim.layers");
            (
                self.telemetry.histogram("sim.envelope_ns"),
                self.telemetry.histogram("sim.contact_ns"),
                self.telemetry.histogram("sim.dsh_preston_ns"),
                self.telemetry.histogram("sim.polish_step_ns"),
            )
        });
        let kernel_meters = self.telemetry.is_enabled().then(|| {
            (
                self.telemetry.histogram("sim.kernel_ns"),
                self.telemetry.counter("sim.kernel.applies"),
                self.telemetry.counter("sim.kernel.windows"),
                self.telemetry.counter("sim.contact.force_evals"),
                self.telemetry.counter("sim.contact.hint_passes"),
                self.telemetry.counter("sim.contact.anchored_probes"),
            )
        });
        let p = &self.params;
        let n = input.rows * input.cols;

        // Effective (kernel-averaged) pattern density is constant over the
        // polish since the pattern does not change.
        let rho_eff = self.kernel.apply(&input.density, input.rows, input.cols);
        if let Some((_, applies, windows, ..)) = &kernel_meters {
            applies.inc();
            windows.add(n as u64);
        }

        // Pressure modifiers from micro-scale pattern parameters.
        let (dish_factor, erosion_factor) =
            crate::shard::dish_erosion_factors(&input.avg_width, &input.perimeter, p);

        let mut z_up = vec![p.initial_height; n];
        let mut z_down: Vec<f64> = z_up.iter().map(|z| z - p.initial_step).collect();

        let mut trace = Vec::new();
        let mut smoothed = vec![0.0; n];
        let mut pressures = vec![0.0; n];
        for _ in 0..p.steps {
            let t0 = self.telemetry.now_ns();
            // (1) Envelope heights, smoothed by the pad (scratch buffers
            // reused across steps).
            self.kernel.apply_into(&z_up, input.rows, input.cols, &mut smoothed);
            let t1 = self.telemetry.now_ns();
            // (2) Contact-mechanics pressure solve.
            let (z_ref, solve_stats) = solve_reference_plane_stats(&smoothed, p);
            window_pressures_into(&smoothed, z_ref, p, &mut pressures);
            let t2 = self.telemetry.now_ns();
            if let Some((kernel_h, applies, windows, force_evals, hint_passes, anchored_probes)) =
                &kernel_meters
            {
                kernel_h.record(t1.saturating_sub(t0));
                applies.inc();
                windows.add(n as u64);
                force_evals.add(solve_stats.force_evals);
                hint_passes.add(solve_stats.hint_passes);
                anchored_probes.add(solve_stats.anchored_probes);
            }
            // (3) DSH split + (4) Preston removal.
            crate::shard::polish_pointwise(
                &mut z_up,
                &mut z_down,
                &pressures,
                &rho_eff,
                &dish_factor,
                &erosion_factor,
                p,
            );
            if let Some((envelope_h, contact_h, dsh_h, step_h)) = &stage_timers {
                let t3 = self.telemetry.now_ns();
                envelope_h.record(t1.saturating_sub(t0));
                contact_h.record(t2.saturating_sub(t1));
                dsh_h.record(t3.saturating_sub(t2));
                step_h.record(t3.saturating_sub(t0));
            }
            if record {
                let mean_up = z_up.iter().sum::<f64>() / n as f64;
                let mean_step = z_up.iter().zip(&z_down).map(|(u, d)| u - d).sum::<f64>() / n as f64;
                let max = z_up.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let min = z_up.iter().cloned().fold(f64::INFINITY, f64::min);
                trace.push(TraceStep { mean_height: mean_up, mean_step, height_range: max - min });
            }
        }

        let profile =
            crate::shard::finalize_layer(input.rows, input.cols, &input.density, &z_up, &z_down);
        (profile, trace)
    }

    /// Simulates every layer of a layout.
    #[must_use]
    pub fn simulate(&self, layout: &Layout) -> ChipProfile {
        let layers = (0..layout.num_layers())
            .map(|l| self.simulate_layer(&LayerInput::from_layout(layout, l)))
            .collect();
        ChipProfile::new(layers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurfill_layout::{DesignKind, DesignSpec, Grid, Layout, WindowPattern};

    fn uniform_layer(rows: usize, cols: usize, density: f64) -> LayerInput {
        LayerInput {
            rows,
            cols,
            density: vec![density; rows * cols],
            perimeter: vec![2.0 * 10_000.0 * density / 0.2; rows * cols],
            avg_width: vec![0.2; rows * cols],
        }
    }

    #[test]
    fn uniform_layer_polishes_flat() {
        let sim = CmpSimulator::new(ProcessParams::fast()).unwrap();
        let out = sim.simulate_layer(&uniform_layer(8, 8, 0.5));
        assert!(out.height_range() < 1e-9, "range {}", out.height_range());
    }

    #[test]
    fn denser_regions_end_up_higher() {
        // Dense half removes slower (pressure spread over more metal).
        let sim = CmpSimulator::new(ProcessParams::fast()).unwrap();
        let rows = 8;
        let cols = 16;
        let mut input = uniform_layer(rows, cols, 0.3);
        for r in 0..rows {
            for c in 8..cols {
                input.density[r * cols + c] = 0.8;
                input.perimeter[r * cols + c] = 2.0 * 10_000.0 * 0.8 / 0.2;
            }
        }
        let out = sim.simulate_layer(&input);
        let sparse = out.height(4, 2);
        let dense = out.height(4, 13);
        assert!(dense > sparse, "dense {dense} vs sparse {sparse}");
    }

    #[test]
    fn density_contrast_creates_roughness() {
        let sim = CmpSimulator::new(ProcessParams::fast()).unwrap();
        let uniform = sim.simulate_layer(&uniform_layer(8, 8, 0.5));
        let mut contrast = uniform_layer(8, 8, 0.5);
        for i in 0..32 {
            contrast.density[i] = 0.15;
        }
        let rough = sim.simulate_layer(&contrast);
        assert!(rough.height_variance() > uniform.height_variance());
    }

    #[test]
    fn steps_shrink_dishing_over_time() {
        let mut fast = ProcessParams::fast();
        fast.steps = 5;
        let short = CmpSimulator::new(fast.clone()).unwrap();
        fast.steps = 60;
        let long = CmpSimulator::new(fast).unwrap();
        let input = uniform_layer(6, 6, 0.5);
        let d_short = short.simulate_layer(&input).dishing()[0];
        let d_long = long.simulate_layer(&input).dishing()[0];
        assert!(d_long <= d_short + 1e-9, "dishing should not grow: {d_short} -> {d_long}");
    }

    #[test]
    fn wider_features_dish_more() {
        let sim = CmpSimulator::new(ProcessParams::fast()).unwrap();
        let mut narrow = uniform_layer(6, 6, 0.5);
        narrow.avg_width = vec![0.1; 36];
        let mut wide = uniform_layer(6, 6, 0.5);
        wide.avg_width = vec![5.0; 36];
        let dn = sim.simulate_layer(&narrow).dishing()[18];
        let dw = sim.simulate_layer(&wide).dishing()[18];
        assert!(dw > dn, "wide {dw} vs narrow {dn}");
    }

    #[test]
    fn trace_records_monotone_removal_and_step_clearing() {
        let sim = CmpSimulator::new(ProcessParams::fast()).unwrap();
        let input = uniform_layer(6, 6, 0.5);
        let (profile, trace) = sim.simulate_layer_trace(&input);
        assert_eq!(trace.len(), sim.params().steps);
        // Heights fall monotonically; the step height never grows.
        for w in trace.windows(2) {
            assert!(w[1].mean_height < w[0].mean_height);
            assert!(w[1].mean_step <= w[0].mean_step + 1e-9);
        }
        // The trace endpoint agrees with the plain simulation.
        let plain = sim.simulate_layer(&input);
        assert_eq!(profile, plain);
        // The initial step eventually falls below the critical height.
        assert!(trace.last().unwrap().mean_step < sim.params().critical_step);
    }

    #[test]
    fn simulation_is_deterministic() {
        let layout = DesignSpec::new(DesignKind::Fpga, 10, 10, 2).generate();
        let sim = CmpSimulator::new(ProcessParams::fast()).unwrap();
        assert_eq!(sim.simulate(&layout), sim.simulate(&layout));
    }

    #[test]
    fn filling_improves_planarity() {
        use neurfill_layout::{apply_fill, DummySpec, FillPlan};
        let layout = DesignSpec::new(DesignKind::CmpTest, 12, 12, 7).generate();
        let sim = CmpSimulator::new(ProcessParams::fast()).unwrap();
        let before = sim.simulate(&layout);

        // Fill every window toward the max density uniformly.
        let mut plan = FillPlan::zeros(&layout);
        let area = layout.window_area();
        for id in layout.window_ids() {
            let w = layout.window(id);
            let target = 0.85f64;
            let need = ((target - w.density) * area).clamp(0.0, w.slack);
            plan.as_mut_slice()[layout.flat_index(id)] = need;
        }
        let filled = apply_fill(&layout, &plan, &DummySpec::default());
        let after = sim.simulate(&filled);
        assert!(
            after.max_height_range() < before.max_height_range(),
            "fill should flatten: {} -> {}",
            before.max_height_range(),
            after.max_height_range()
        );
    }

    #[test]
    fn telemetry_records_stages_without_changing_output() {
        use neurfill_obs::{FakeClock, Telemetry};
        let layout = DesignSpec::new(DesignKind::CmpTest, 8, 8, 1).generate();
        let plain = CmpSimulator::new(ProcessParams::fast()).unwrap();
        let t = Telemetry::with_clock(std::sync::Arc::new(FakeClock::at(0)));
        let instrumented = plain.clone().with_telemetry(t.clone());
        assert_eq!(plain.simulate(&layout), instrumented.simulate(&layout));
        let snap = t.snapshot();
        let layers = layout.num_layers() as u64;
        let steps = plain.params().steps as u64;
        assert_eq!(snap.counter("sim.layers"), layers);
        for h in ["sim.envelope_ns", "sim.contact_ns", "sim.dsh_preston_ns", "sim.polish_step_ns"] {
            assert_eq!(snap.histogram(h).unwrap().count, layers * steps, "{h}");
        }
        assert_eq!(snap.histogram("sim.layer_ns").unwrap().count, layers);
        assert_eq!(snap.events_of_kind("span").len(), layers as usize);
    }

    #[test]
    fn rejects_invalid_params() {
        let bad = ProcessParams { steps: 0, ..ProcessParams::default() };
        assert!(CmpSimulator::new(bad).is_err());
    }

    #[test]
    fn layer_input_validation() {
        let mut input = uniform_layer(4, 4, 0.5);
        assert!(input.validate().is_ok());
        input.density[0] = 1.5;
        assert!(input.validate().is_err());
        let mut input2 = uniform_layer(4, 4, 0.5);
        input2.avg_width[3] = 0.0;
        assert!(input2.validate().is_err());
        let mut input3 = uniform_layer(4, 4, 0.5);
        input3.perimeter.pop();
        assert!(input3.validate().is_err());
    }

    #[test]
    fn from_layout_extracts_matching_maps() {
        let g = Grid::filled(3, 3, WindowPattern::from_line_model(0.4, 0.2, 10_000.0, 0.8));
        let layout = Layout::new("x", 100.0, vec![g], 1.0);
        let input = LayerInput::from_layout(&layout, 0);
        assert_eq!(input.density, layout.density_map(0));
        assert!(input.validate().is_ok());
    }
}
