//! The four workloads. Each returns an [`crate::bench::Outcome`]; none
//! shares mutable state with another.

pub mod chip;
pub mod flow_abc;
pub mod serve_burst;
