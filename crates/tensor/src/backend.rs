//! Tensor backends: which engine the surrogate's inference runs on.
//!
//! * [`BackendKind::Cpu`] (the default) — the reference scalar/AVX2 f32
//!   kernels this crate has always used. All bitwise reproducibility
//!   contracts are stated against this backend.
//! * [`BackendKind::QuantCpu`] — inference-only: routes network-level
//!   inference onto the certified int8 weight-quantized convolution
//!   engine (see [`crate::quant`]) compiled from offline calibration
//!   scales. Its pooling, concat, transposed convolution and batch-norm
//!   stay the f32 kernels. The quantized path is certified against `Cpu`
//!   by the downstream-equivalence suite and is bit-deterministic across
//!   thread counts (integer accumulation is exact).
//!
//! The kind is an enum the network layer branches on, not a trait: the
//! int8 engine needs per-layer calibration state that lives with the
//! network. Like [`crate::numerics`], it reaches per-call-free code
//! through a process-wide global; structured callers (the runtime pool,
//! the serve front-ends) carry the kind in their configs and install the
//! global at startup.

use std::sync::atomic::{AtomicU8, Ordering};

/// Which inference kernels the process runs: the f32 reference backend
/// (default) or the certified int8 quantized backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// The f32 scalar/AVX2 reference kernels — byte-identical outputs at
    /// every thread count.
    #[default]
    Cpu,
    /// Inference-only int8 weight quantization with exact integer
    /// accumulation, certified against `Cpu` to documented tolerances.
    /// Requires calibration scales in the model bundle.
    QuantCpu,
}

impl BackendKind {
    /// `true` for [`BackendKind::QuantCpu`].
    #[must_use]
    pub fn is_quant(self) -> bool {
        matches!(self, Self::QuantCpu)
    }

    /// The CLI spelling of the backend (`"cpu"` / `"quant"`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Cpu => "cpu",
            Self::QuantCpu => "quant",
        }
    }

    /// Parses the `--backend` flag value (`cpu` | `quant`).
    ///
    /// # Errors
    ///
    /// Returns a usage message naming the accepted values.
    pub fn parse(s: &str) -> std::result::Result<Self, String> {
        match s {
            "cpu" => Ok(Self::Cpu),
            "quant" => Ok(Self::QuantCpu),
            other => Err(format!("unknown backend '{other}' (expected 'cpu' or 'quant')")),
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Process-wide backend consulted by network-level inference
/// (0 = Cpu, 1 = QuantCpu).
static BACKEND: AtomicU8 = AtomicU8::new(0);

/// Sets the process-wide tensor backend consulted by inference code
/// without a per-call backend argument. The default is
/// [`BackendKind::Cpu`].
pub fn set_backend(kind: BackendKind) {
    BACKEND.store(kind.is_quant().into(), Ordering::Relaxed);
}

/// The process-wide backend last set by [`set_backend`] (Cpu until set
/// otherwise).
#[must_use]
pub fn backend() -> BackendKind {
    if BACKEND.load(Ordering::Relaxed) == 1 {
        BackendKind::QuantCpu
    } else {
        BackendKind::Cpu
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        assert_eq!(BackendKind::parse("cpu").unwrap(), BackendKind::Cpu);
        assert_eq!(BackendKind::parse("quant").unwrap(), BackendKind::QuantCpu);
        assert!(BackendKind::parse("Quant").is_err());
        for kind in [BackendKind::Cpu, BackendKind::QuantCpu] {
            assert_eq!(BackendKind::parse(kind.as_str()).unwrap(), kind);
            assert_eq!(format!("{kind}"), kind.as_str());
        }
    }

    #[test]
    fn default_is_cpu() {
        assert_eq!(BackendKind::default(), BackendKind::Cpu);
        assert!(!BackendKind::Cpu.is_quant());
        assert!(BackendKind::QuantCpu.is_quant());
    }

    #[test]
    fn global_backend_round_trips() {
        // Restore the default even on panic-free exit: other tests in this
        // binary read the global.
        set_backend(BackendKind::QuantCpu);
        assert_eq!(backend(), BackendKind::QuantCpu);
        set_backend(BackendKind::Cpu);
        assert_eq!(backend(), BackendKind::Cpu);
    }
}
