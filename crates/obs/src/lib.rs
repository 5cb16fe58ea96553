//! Dependency-free structured telemetry for the NeurFill workspace.
//!
//! This crate sits below every other workspace crate (it depends on
//! nothing but `std`) so the simulator, optimizers, runtime and data
//! pipeline can all report into one registry. It provides:
//!
//! - **Metric handles** — [`Counter`], [`Gauge`] and fixed-bucket
//!   [`Histogram`]s whose hot-path operations are single relaxed atomics
//!   on pre-registered cells.
//! - **Hierarchical span timing** — RAII [`Timer`] guards from
//!   [`Telemetry::span`] / [`Telemetry::time`], driven by an injectable
//!   [`Clock`] so tests use a [`FakeClock`] instead of sleeping.
//! - **Mergeable snapshots** — [`MetricsSnapshot`] merges associatively,
//!   so per-worker or per-phase snapshots combine in any grouping.
//! - **JSONL export** — [`MetricsSnapshot::write_jsonl`] writes a stable
//!   line schema (`--metrics-out`, `GET /metrics`), and
//!   [`MetricsSnapshot::summary`] renders a human-readable table.
//!
//! The disabled handle ([`Telemetry::disabled`]) is the default
//! everywhere: every operation on it reduces to a branch on a `None` —
//! no clock reads, no allocation, no atomics — so instrumentation left
//! in hot paths costs nothing and changes no output when telemetry is
//! off.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod clock;
mod jsonl;
mod metrics;
mod registry;

pub use clock::{Clock, FakeClock, MonotonicClock};
pub use jsonl::SCHEMA_VERSION;
pub use metrics::{
    format_ns, Counter, Event, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, NUM_BUCKETS,
};
pub use registry::{Scope, Telemetry, Timer, DEFAULT_MAX_EVENTS};
