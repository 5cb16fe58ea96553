//! # neurfill-serve
//!
//! Multi-tenant fill-synthesis service over the NeurFill runtime pool:
//! a long-running, dependency-free HTTP/1.1 front-end
//! (`std::net::TcpListener`, hand-rolled parser with hard limits) that
//! turns the batch runtime into a shared service.
//!
//! * **Job lifecycle** — `POST /v1/jobs` (layout body + `x-*` attribute
//!   headers), `GET /v1/jobs/{id}` (status incl. degraded, with
//!   `?wait_ms=` long-poll), `GET /v1/jobs/{id}/result`,
//!   `GET /v1/jobs/{id}/plan` (the fill amounts, exact to the bit, in
//!   the one plan format of `neurfill_layout::io` — the same bytes the
//!   journal's `done` record keeps),
//!   `DELETE /v1/jobs/{id}`.
//! * **Fair-share admission** — bounded per-tenant queues with priority
//!   classes, smooth weighted-round-robin dispatch, and backpressure via
//!   `429` + `Retry-After`; the service never buffers without bound.
//! * **Model hot-swap** — `POST /v1/models` stages a bundle, double-runs
//!   recent live traffic through a canary pool (golden-simulator health
//!   guard), and promotes or rejects with a per-sample report while the
//!   live pool keeps serving.
//! * **Observability** — `GET /metrics` exports the shared
//!   `neurfill-obs` registry (runtime + flow + per-tenant SLO metrics)
//!   as schema-v1 JSONL.
//! * **Graceful shutdown** — `POST /v1/admin/shutdown` drains in-flight
//!   work under a deadline, answers new submissions with `503`, then
//!   lets the binary flush metrics and exit. No signal handling needed.

#![warn(missing_docs)]
// The service must never panic on client input or a recoverable
// condition; unwrap/expect are banned outside tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod admission;
pub mod canary;
pub mod client;
pub mod http;
pub mod journal;
pub mod router;
pub mod server;
pub mod service;
pub mod tenant;
pub mod wire;

pub use canary::{CanaryConfig, CanaryReport};
pub use client::{Client, ClientError};
pub use journal::{JobJournal, RecoveredJob, RecoveredState};
pub use server::{Server, ServerConfig};
pub use service::{CancelOutcome, FillService, ResultFetch, ServiceConfig, StageError, SubmitError};
pub use tenant::TenantConfig;
pub use wire::{JobRequest, Priority, StatusView, WireState};
