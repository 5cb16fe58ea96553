//! # neurfill-runtime
//!
//! Concurrent fill-synthesis runtime for the NeurFill reproduction:
//! turn a directory of layouts plus one trained surrogate bundle into a
//! stream of per-layout fill reports, using every core without giving up
//! the sequential flow's bit-exact results.
//!
//! Three pieces cooperate:
//!
//! * [`ModelBundle`] — a surrogate bundle loaded once and shared as
//!   validated serialized bytes (the autograd substrate is thread-local,
//!   so networks themselves never cross threads; every thread hydrates
//!   its own instance from the same bytes).
//! * [`RuntimePool`] — the job queue and worker pool: per-job waits,
//!   cooperative deadlines and cancellation, graceful shutdown, and
//!   failures that never poison the pool. A job runs once: it is
//!   deterministic, so an attempt that failed would fail again. A job
//!   is synthesis plus one multi-layer forward scoring its filled layout,
//!   both on the worker's own network. The pool keeps live jobs only: a
//!   terminal status goes to the one caller that waits for it.
//! * [`FaultPlan`] — a deterministic fault-injection harness (panics,
//!   delays, injected errors, NaN-poisoned outputs at named sites) that
//!   drives the failure model's tests and stays inert in production.
//!
//! Beside them sits [`AppendLog`] ([`applog`]), the crash-tolerant record
//! log whose appends pass the fault plan's write sites, with [`Records`],
//! the one reader of its framing: the serve job journal, the full-chip
//! tile checkpoint and the training corpus's shards are all built on it.
//!
//! ```no_run
//! use neurfill::pipeline::FlowConfig;
//! use neurfill_runtime::{JobSpec, ModelBundle, PoolOptions, RuntimePool};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let bundle = Arc::new(ModelBundle::load("surrogate.bundle")?);
//! let pool = RuntimePool::new(bundle, FlowConfig::default(), PoolOptions::default())?;
//! let layout = neurfill_layout::io::load_from_file("design_a.layout")?;
//! let id = pool.submit(JobSpec::new("design_a", layout))?;
//! println!("{:?}", pool.wait(id));
//! println!("{}", pool.shutdown());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
// The supervision layer must never panic on a recoverable condition;
// unwrap/expect are banned outside tests (construction-time invariants
// carry local, justified `allow`s).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod applog;
pub mod fault;
pub mod job;
pub mod pool;
pub mod registry;
mod stats;

pub use applog::{AppendLog, Records, Replay};
pub use fault::FaultPlan;
pub use job::{JobId, JobReport, JobSpec, JobStatus};
pub use neurfill::CancelToken;
/// The workspace's one checksum, defined in `neurfill-layout`.
pub use neurfill_layout::io::fnv1a;
pub use pool::{default_workers, parallel_map_ordered, PoolOptions, RuntimePool};
pub use registry::ModelBundle;
pub use stats::RuntimeStats;

#[cfg(test)]
pub(crate) mod test_util {
    use neurfill::extraction::NUM_CHANNELS;
    use neurfill::{CmpNeuralNetwork, CmpNnConfig, HeightNorm};
    use neurfill_layout::{DesignKind, DesignSpec, Layout};
    use neurfill_nn::{UNet, UNetConfig};
    use rand::SeedableRng;

    /// A small randomly-initialized (untrained) network — synthesis and
    /// inference paths behave identically to a trained one.
    pub fn tiny_network(seed: u64) -> CmpNeuralNetwork {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let unet = UNet::new(
            UNetConfig { in_channels: NUM_CHANNELS, out_channels: 1, base_channels: 4, depth: 2 },
            &mut rng,
        );
        CmpNeuralNetwork::new(unet, HeightNorm::default(), Default::default(), CmpNnConfig::default())
    }

    /// An 8×8, 3-layer layout (compatible with depth-2 UNets).
    pub fn tiny_layout(seed: u64) -> Layout {
        DesignSpec::new(DesignKind::CmpTest, 8, 8, seed).generate()
    }
}

// Inert shims for the frozen benchmark, which times "a 6-sample request
// through the batch server" (`nfbench/src/probes.rs:22,299-302`). There is
// no server: `spawn` hydrates on the calling thread and `predict_heights`
// is the inline forward a pool job makes. `RuntimeStats::{batches_formed,
// mean_batch_occupancy}` (`stats.rs`) are the other two pinned names. All
// six go with the `benchmark` PR of ROADMAP 1(a).
// Braces, not a unit struct: the benchmark builds it with `::default()` and
// its clippy gate denies `default_constructed_unit_structs`.
#[doc(hidden)]
#[derive(Debug, Clone, Default)]
pub struct BatchConfig {}

#[doc(hidden)]
#[derive(Debug)]
pub struct BatchServer;

#[doc(hidden)]
#[derive(Debug)]
pub struct BatchClient(neurfill::CmpNeuralNetwork);

#[doc(hidden)]
impl BatchServer {
    pub fn spawn(
        bundle: std::sync::Arc<ModelBundle>,
        _config: BatchConfig,
    ) -> std::io::Result<(Self, BatchClient)> {
        Ok((Self, BatchClient(bundle.hydrate()?)))
    }

    pub fn join(self) {}
}

#[doc(hidden)]
impl BatchClient {
    pub fn predict_heights(
        &self,
        samples: &[neurfill_tensor::NdArray],
    ) -> neurfill_tensor::Result<Vec<Vec<f64>>> {
        self.0.predict_heights_batch(samples)
    }
}
