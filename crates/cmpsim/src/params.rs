//! Process parameters of the full-chip CMP simulator.

/// Physical/process parameters of the simulator (paper §II-A, Fig. 2).
///
/// Lengths are in nm unless noted; lateral window distances are in window
/// units. Defaults approximate a 45 nm oxide/copper CMP step and are the
/// values the reproduction's experiments are calibrated against.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessParams {
    /// Initial oxide height over metal (up areas), nm.
    pub initial_height: f64,
    /// Initial step height between up and down areas (trench replication),
    /// nm.
    pub initial_step: f64,
    /// Nominal applied pad pressure (normalized units; the contact solver
    /// balances window contact forces against this).
    pub applied_pressure: f64,
    /// Pad asperity contact exponent (Greenwood–Williamson-like, ~1.5).
    pub contact_exponent: f64,
    /// Penetration (nm) at which a flat chip carries exactly the applied
    /// pressure; sets the contact stiffness.
    pub reference_penetration: f64,
    /// Pad deformation character length in *window units* (paper §III-B:
    /// 20–100 µm character length; with 100 µm windows this is O(1)).
    pub character_length: f64,
    /// Kernel truncation radius in windows.
    pub kernel_radius: usize,
    /// Critical step height of the DSH model (nm): below this the pad
    /// touches down areas too.
    pub critical_step: f64,
    /// Blanket removal per time step at unit pressure (nm): the Preston
    /// law `dH/dt = −K_p·P·V` with `K_p·V·Δt` folded into one constant.
    pub removal_per_step: f64,
    /// Number of unit polish-time iterations (paper: iterate until the
    /// total polish time is reached).
    pub steps: usize,
    /// Minimum effective density used in the pressure split (guards the
    /// division in `P/ρ_eff`).
    pub min_effective_density: f64,
    /// Dishing enhancement vs feature width: down-area pressure is scaled
    /// by `1 + c·w/(w + w_ref)`.
    pub dishing_coefficient: f64,
    /// Reference feature width (µm) of the dishing law.
    pub dishing_reference_width: f64,
    /// Erosion enhancement vs copper perimeter: up-area pressure is scaled
    /// by `1 + c·perimeter/perimeter_scale`.
    pub erosion_coefficient: f64,
    /// Perimeter normalization (µm per window) of the erosion law.
    pub perimeter_scale: f64,
}

impl Default for ProcessParams {
    fn default() -> Self {
        Self {
            initial_height: 800.0,
            initial_step: 120.0,
            applied_pressure: 1.0,
            contact_exponent: 1.5,
            reference_penetration: 20.0,
            character_length: 1.5,
            kernel_radius: 4,
            critical_step: 60.0,
            removal_per_step: 8.0,
            steps: 50,
            min_effective_density: 0.05,
            dishing_coefficient: 0.5,
            dishing_reference_width: 1.0,
            erosion_coefficient: 0.015,
            perimeter_scale: 200_000.0,
        }
    }
}

impl ProcessParams {
    /// A faster, coarser parameter set for unit tests and CI-scale runs.
    #[must_use]
    pub fn fast() -> Self {
        Self { steps: 20, kernel_radius: 2, ..Self::default() }
    }

    /// Contact stiffness `k` such that penetration
    /// `reference_penetration` produces `applied_pressure`.
    #[must_use]
    pub fn contact_stiffness(&self) -> f64 {
        self.applied_pressure / self.reference_penetration.powf(self.contact_exponent)
    }

    /// Validates parameter ranges. Every float must be finite, which is
    /// checked first, so no range check below ever sees a NaN.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        let floats = [
            ("initial_height", self.initial_height),
            ("initial_step", self.initial_step),
            ("applied_pressure", self.applied_pressure),
            ("contact_exponent", self.contact_exponent),
            ("reference_penetration", self.reference_penetration),
            ("character_length", self.character_length),
            ("critical_step", self.critical_step),
            ("removal_per_step", self.removal_per_step),
            ("min_effective_density", self.min_effective_density),
            ("dishing_coefficient", self.dishing_coefficient),
            ("dishing_reference_width", self.dishing_reference_width),
            ("erosion_coefficient", self.erosion_coefficient),
            ("perimeter_scale", self.perimeter_scale),
        ];
        if let Some((name, _)) = floats.iter().find(|(_, v)| !v.is_finite()) {
            return Err(format!("{name} must be finite"));
        }
        if self.initial_height <= 0.0 {
            return Err("initial_height must be positive".into());
        }
        if self.initial_step < 0.0 {
            return Err("initial_step must be non-negative".into());
        }
        if self.initial_step >= self.initial_height {
            return Err("initial_step must be below initial_height".into());
        }
        if self.applied_pressure <= 0.0 {
            return Err("applied_pressure must be positive".into());
        }
        if self.contact_exponent <= 0.0 {
            return Err("contact_exponent must be positive".into());
        }
        if self.reference_penetration <= 0.0 {
            return Err("reference_penetration must be positive".into());
        }
        if self.character_length <= 0.0 {
            return Err("character_length must be positive".into());
        }
        if self.critical_step <= 0.0 {
            return Err("critical_step must be positive".into());
        }
        if self.removal_per_step <= 0.0 {
            return Err("removal_per_step must be positive".into());
        }
        if self.steps == 0 {
            return Err("steps must be at least 1".into());
        }
        if self.kernel_radius > crate::PadKernel::MAX_RADIUS {
            return Err(format!("kernel_radius must be at most {}", crate::PadKernel::MAX_RADIUS));
        }
        if self.min_effective_density <= 0.0 || self.min_effective_density >= 1.0 {
            return Err("min_effective_density must be in (0, 1)".into());
        }
        if self.dishing_reference_width < 0.0 {
            return Err("dishing_reference_width must be non-negative".into());
        }
        if self.perimeter_scale <= 0.0 {
            return Err("perimeter_scale must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_params_validate() {
        assert!(ProcessParams::default().validate().is_ok());
        assert!(ProcessParams::fast().validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_values() {
        let bad = ProcessParams { steps: 0, ..ProcessParams::default() };
        assert!(bad.validate().is_err());
        let bad = ProcessParams { initial_step: 900.0, ..ProcessParams::default() };
        assert!(bad.validate().is_err());
        let bad = ProcessParams { min_effective_density: 0.0, ..ProcessParams::default() };
        assert!(bad.validate().is_err());
    }

    /// Every float field set to NaN, +∞ and −∞, the two ranges the
    /// erosion and dishing laws need, and a kernel radius past the cap,
    /// refused by `validate` and by `CmpSimulator::new` (which used to
    /// panic on a NaN `character_length` inside the pad kernel's assert).
    #[test]
    fn validation_rejects_non_finite_floats_and_degenerate_laws() {
        type Field = fn(&mut ProcessParams) -> &mut f64;
        let fields: [(&str, Field); 13] = [
            ("initial_height", |p| &mut p.initial_height),
            ("initial_step", |p| &mut p.initial_step),
            ("applied_pressure", |p| &mut p.applied_pressure),
            ("contact_exponent", |p| &mut p.contact_exponent),
            ("reference_penetration", |p| &mut p.reference_penetration),
            ("character_length", |p| &mut p.character_length),
            ("critical_step", |p| &mut p.critical_step),
            ("removal_per_step", |p| &mut p.removal_per_step),
            ("min_effective_density", |p| &mut p.min_effective_density),
            ("dishing_coefficient", |p| &mut p.dishing_coefficient),
            ("dishing_reference_width", |p| &mut p.dishing_reference_width),
            ("erosion_coefficient", |p| &mut p.erosion_coefficient),
            ("perimeter_scale", |p| &mut p.perimeter_scale),
        ];
        let refused = |p: &ProcessParams, what: &str| {
            let err = p.validate().expect_err(what);
            assert_eq!(crate::CmpSimulator::new(p.clone()).err(), Some(err.clone()), "{what}");
            err
        };
        for (name, field) in fields {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut p = ProcessParams::default();
                *field(&mut p) = bad;
                assert_eq!(refused(&p, &format!("{name} = {bad}")), format!("{name} must be finite"));
            }
        }
        let mut p = ProcessParams { perimeter_scale: 0.0, ..ProcessParams::default() };
        assert_eq!(refused(&p, "perimeter_scale 0"), "perimeter_scale must be positive");
        p.perimeter_scale = -1.0;
        refused(&p, "perimeter_scale < 0");
        let p = ProcessParams { dishing_reference_width: -0.5, ..ProcessParams::default() };
        assert_eq!(
            refused(&p, "dishing_reference_width < 0"),
            "dishing_reference_width must be non-negative"
        );
        // A radius past the cap used to validate and then abort the
        // process allocating the kernel (100 000: 320 GB) or overflow its
        // size (`usize::MAX`).
        for radius in [crate::PadKernel::MAX_RADIUS + 1, 100_000, usize::MAX] {
            let p = ProcessParams { kernel_radius: radius, ..ProcessParams::default() };
            assert_eq!(
                refused(&p, &format!("kernel_radius {radius}")),
                "kernel_radius must be at most 64"
            );
        }
        // The boundary values stay valid.
        let p = ProcessParams { dishing_reference_width: 0.0, ..ProcessParams::default() };
        assert!(p.validate().is_ok() && crate::CmpSimulator::new(p).is_ok());
        let p = ProcessParams { kernel_radius: crate::PadKernel::MAX_RADIUS, ..ProcessParams::fast() };
        assert!(p.validate().is_ok() && crate::CmpSimulator::new(p).is_ok());
    }

    #[test]
    fn contact_stiffness_reproduces_reference_point() {
        let p = ProcessParams::default();
        let k = p.contact_stiffness();
        let f = k * p.reference_penetration.powf(p.contact_exponent);
        assert!((f - p.applied_pressure).abs() < 1e-12);
    }
}
