//! Runtime counters, shared lock-free between workers and the caller.
//!
//! The counters are telemetry [`Counter`] handles registered under
//! `runtime.*` names. They always count — when the caller attached no
//! telemetry they live in a private registry — so [`RuntimeStats`] (and
//! the stats line every CLI prints) reads identically whether or not
//! telemetry export is on. Spans, events and latency histograms, by
//! contrast, go through the caller's own handle ([`StatsInner::events`])
//! and cost nothing when that handle is disabled.

use neurfill_obs::{Counter, Histogram, MetricsSnapshot, Telemetry};
use std::fmt;
use std::time::Duration;

/// Internal shared handles; snapshot through [`RuntimeStats`].
#[derive(Debug)]
pub(crate) struct StatsInner {
    /// The registry the `runtime.*` counters are registered in (always
    /// enabled; private unless the caller attached their own handle).
    registry: Telemetry,
    /// The caller's telemetry handle for spans, events and latency
    /// histograms — disabled (free) unless explicitly attached.
    pub events: Telemetry,
    pub jobs_submitted: Counter,
    pub jobs_completed: Counter,
    pub jobs_failed: Counter,
    pub jobs_degraded: Counter,
    pub samples_inferred: Counter,
    pub hydrations: Counter,
    pub hydrate_nanos: Counter,
    pub synthesis_nanos: Counter,
    pub verify_nanos: Counter,
    pub queue_wait: Histogram,
    pub job_synthesis: Histogram,
    pub job_verify: Histogram,
}

impl StatsInner {
    /// Registers the runtime's counters. `telemetry` may be disabled: the
    /// counters then live in a private enabled registry (so stats always
    /// count) while histograms and events stay no-ops.
    pub fn new(telemetry: &Telemetry) -> Self {
        let registry = telemetry.or_enabled();
        Self {
            jobs_submitted: registry.counter("runtime.jobs_submitted"),
            jobs_completed: registry.counter("runtime.jobs_completed"),
            jobs_failed: registry.counter("runtime.jobs_failed"),
            jobs_degraded: registry.counter("runtime.jobs_degraded"),
            samples_inferred: registry.counter("runtime.samples_inferred"),
            hydrations: registry.counter("runtime.hydrations"),
            hydrate_nanos: registry.counter("runtime.hydrate_ns"),
            synthesis_nanos: registry.counter("runtime.synthesis_ns"),
            verify_nanos: registry.counter("runtime.verify_ns"),
            queue_wait: telemetry.histogram("job.queue_wait_ns"),
            job_synthesis: telemetry.histogram("job.synthesis_ns"),
            job_verify: telemetry.histogram("job.verify_ns"),
            events: telemetry.clone(),
            registry,
        }
    }

    /// Everything recorded in the registry the counters live in — the
    /// whole shared registry when the caller attached one (simulator,
    /// optimizer and flow metrics included), just the `runtime.*` counters
    /// otherwise.
    pub fn registry_snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }

    pub fn snapshot(&self) -> RuntimeStats {
        RuntimeStats {
            jobs_submitted: self.jobs_submitted.get(),
            jobs_completed: self.jobs_completed.get(),
            jobs_failed: self.jobs_failed.get(),
            jobs_degraded: self.jobs_degraded.get(),
            samples_inferred: self.samples_inferred.get(),
            batches_formed: 0,
            mean_batch_occupancy: 0.0,
            hydrations: self.hydrations.get(),
            hydrate: Duration::from_nanos(self.hydrate_nanos.get()),
            synthesis: Duration::from_nanos(self.synthesis_nanos.get()),
            verify: Duration::from_nanos(self.verify_nanos.get()),
        }
    }
}

impl Default for StatsInner {
    fn default() -> Self {
        Self::new(&Telemetry::disabled())
    }
}

/// A point-in-time snapshot of the runtime's counters.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeStats {
    /// Jobs accepted into the queue.
    pub jobs_submitted: u64,
    /// Jobs that finished with a report.
    pub jobs_completed: u64,
    /// Jobs that failed (error, panic or timeout).
    pub jobs_failed: u64,
    /// Jobs that completed but fell back to golden-simulator verification
    /// because the surrogate heights failed the numeric health guard.
    pub jobs_degraded: u64,
    /// Window samples (one per layer of a filled layout) scored by the
    /// surrogate during verification.
    pub samples_inferred: u64,
    /// Networks hydrated from bundle bytes (once per worker).
    pub hydrations: u64,
    /// Wall-clock spent hydrating networks (summed across threads).
    pub hydrate: Duration,
    /// Wall-clock spent in fill synthesis (summed across workers).
    pub synthesis: Duration,
    /// Wall-clock spent in surrogate verification (summed across workers).
    pub verify: Duration,
    /// Inert: always 0. Kept only because the frozen benchmark reads it
    /// (`nfbench/src/workloads/serve_burst.rs:224`, `chip.rs:220,240`);
    /// the `benchmark` PR of ROADMAP 1(a) drops it.
    #[doc(hidden)]
    pub batches_formed: u64,
    /// Inert: always 0.0 (`nfbench/src/workloads/serve_burst.rs:225`,
    /// `chip.rs:241`); dropped with `batches_formed`.
    #[doc(hidden)]
    pub mean_batch_occupancy: f64,
}

impl fmt::Display for RuntimeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "jobs: {} submitted, {} completed, {} failed",
            self.jobs_submitted, self.jobs_completed, self.jobs_failed
        )?;
        writeln!(f, "inference: {} samples", self.samples_inferred)?;
        writeln!(f, "degraded: {}", self.jobs_degraded)?;
        write!(
            f,
            "stages: hydrate {:.3}s x{}, synthesis {:.3}s, verify {:.3}s",
            self.hydrate.as_secs_f64(),
            self.hydrations,
            self.synthesis.as_secs_f64(),
            self.verify.as_secs_f64()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_every_headline_number() {
        let inner = StatsInner::default();
        inner.jobs_submitted.add(7);
        inner.samples_inferred.add(21);
        inner.jobs_degraded.add(1);
        let text = inner.snapshot().to_string();
        assert!(text.contains("7 submitted"));
        assert!(text.contains("21 samples"));
        assert!(text.contains("degraded: 1"));
    }

    #[test]
    fn counters_land_in_an_attached_registry_under_runtime_names() {
        let t = Telemetry::new();
        let inner = StatsInner::new(&t);
        inner.jobs_submitted.inc();
        inner.jobs_degraded.add(3);
        let snap = t.snapshot();
        assert_eq!(snap.counter("runtime.jobs_submitted"), 1);
        assert_eq!(snap.counter("runtime.jobs_degraded"), 3);
        // The registry snapshot is the same registry.
        assert_eq!(inner.registry_snapshot().counter("runtime.jobs_degraded"), 3);
    }

    #[test]
    fn detached_stats_still_count_but_record_no_events() {
        let inner = StatsInner::default();
        inner.jobs_completed.add(2);
        assert_eq!(inner.snapshot().jobs_completed, 2);
        assert!(!inner.events.is_enabled());
        // The private registry still exposes the counters.
        assert_eq!(inner.registry_snapshot().counter("runtime.jobs_completed"), 2);
        assert!(inner.registry_snapshot().events.is_empty());
    }
}
