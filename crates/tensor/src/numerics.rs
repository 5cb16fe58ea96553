//! Numerics tiers: the switch between the bit-exact and the
//! certified-fast GEMM.
//!
//! The GEMM runs in one of two tiers:
//!
//! * [`NumericsTier::Exact`] (the default) — bit-identical to
//!   `gemm_reference` at every thread count. This is the tier all
//!   byte-identical reproducibility contracts (checkpoints, golden
//!   outputs, chaos-recovery resume) are stated against.
//! * [`NumericsTier::Fast`] — the FMA-contracted GEMM twin, a
//!   mathematically equivalent but differently-rounded kernel whose
//!   outputs are certified against the exact tier by the GEMM- and
//!   downstream-equivalence test suites to documented tolerances.
//!   Within the fast tier results are still deterministic for a fixed
//!   host: thread count never changes a bit, only the tier switch does.
//!
//! The GEMM is the only kernel with a fast twin: the golden CMP
//! simulator has one numeric path under either tier.
//!
//! The tier reaches the GEMM dispatch through a process-wide global
//! (mirroring [`crate::kernels::set_gemm_threads`]) because `NdArray`
//! arithmetic has no per-call configuration surface; structured callers
//! (flows, pools) carry the tier explicitly in their configs and install
//! the global at startup.

use std::sync::atomic::{AtomicU8, Ordering};

/// Which GEMM the process runs: bit-exact (default) or certified-fast.
/// See the module docs for the contract of each tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NumericsTier {
    /// Bit-identical to the reference kernels at every thread count.
    #[default]
    Exact,
    /// The FMA-contracted GEMM, certified against `Exact` to a
    /// documented tolerance.
    Fast,
}

impl NumericsTier {
    /// `true` for [`NumericsTier::Fast`].
    #[must_use]
    pub fn is_fast(self) -> bool {
        matches!(self, Self::Fast)
    }

    /// The CLI spelling of the tier (`"exact"` / `"fast"`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Exact => "exact",
            Self::Fast => "fast",
        }
    }

    /// Parses the `--numerics` flag value (`exact` | `fast`).
    ///
    /// # Errors
    ///
    /// Returns a usage message naming the accepted values.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "exact" => Ok(Self::Exact),
            "fast" => Ok(Self::Fast),
            other => Err(format!("unknown numerics tier '{other}' (expected 'exact' or 'fast')")),
        }
    }
}

impl std::fmt::Display for NumericsTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Process-wide tier used by [`crate::kernels::gemm`] dispatch
/// (0 = Exact, 1 = Fast).
static TIER: AtomicU8 = AtomicU8::new(0);

/// Sets the process-wide numerics tier consulted by kernels without a
/// per-call tier argument (`NdArray::matmul` and everything above it).
/// The default is [`NumericsTier::Exact`].
pub fn set_numerics_tier(tier: NumericsTier) {
    TIER.store(tier.is_fast().into(), Ordering::Relaxed);
}

/// The process-wide numerics tier last set by [`set_numerics_tier`]
/// (Exact until set otherwise).
#[must_use]
pub fn numerics_tier() -> NumericsTier {
    if TIER.load(Ordering::Relaxed) == 1 {
        NumericsTier::Fast
    } else {
        NumericsTier::Exact
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        assert_eq!(NumericsTier::parse("exact").unwrap(), NumericsTier::Exact);
        assert_eq!(NumericsTier::parse("fast").unwrap(), NumericsTier::Fast);
        assert!(NumericsTier::parse("Fast").is_err());
        for tier in [NumericsTier::Exact, NumericsTier::Fast] {
            assert_eq!(NumericsTier::parse(tier.as_str()).unwrap(), tier);
            assert_eq!(format!("{tier}"), tier.as_str());
        }
    }

    #[test]
    fn default_is_exact() {
        assert_eq!(NumericsTier::default(), NumericsTier::Exact);
        assert!(!NumericsTier::Exact.is_fast());
        assert!(NumericsTier::Fast.is_fast());
    }
}
