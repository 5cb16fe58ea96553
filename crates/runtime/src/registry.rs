//! Surrogate bundles, shared across threads as validated bytes.
//!
//! The tensor substrate is single-threaded (`Rc`-based autograd graphs), so
//! a hydrated [`CmpNeuralNetwork`] cannot cross threads. What CAN be shared
//! is the *serialized* bundle: a pool holds its bundle's bytes behind an
//! `Arc`, and each worker thread hydrates its own network from them once
//! at startup — N jobs on a worker pay for one hydration, and every thread
//! is guaranteed to run bit-identical weights.

use neurfill::persist;
use neurfill::CmpNeuralNetwork;
use neurfill_layout::io::fnv1a;
use std::io;
use std::path::Path;

/// A validated, serialized surrogate bundle (weights + normalization +
/// extraction config), shareable across threads.
#[derive(Debug, Clone)]
pub struct ModelBundle {
    bytes: Vec<u8>,
    digest: u64,
}

impl ModelBundle {
    /// Wraps raw bundle bytes, validating them by a trial hydration so a
    /// corrupt bundle is rejected once, at load, instead of inside every
    /// worker thread.
    ///
    /// # Errors
    ///
    /// Returns the hydration error for malformed bytes.
    pub fn from_bytes(bytes: Vec<u8>) -> io::Result<Self> {
        persist::load_network(bytes.as_slice())?;
        let digest = fnv1a(&bytes);
        Ok(Self { bytes, digest })
    }

    /// Reads and validates the bundle file at `path` (see
    /// [`ModelBundle::from_bytes`]).
    ///
    /// # Errors
    ///
    /// Propagates file-system and bundle-format errors.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        Self::from_bytes(std::fs::read(path)?)
    }

    /// Serializes an in-memory network into a bundle.
    ///
    /// # Errors
    ///
    /// Propagates serialization errors.
    pub fn from_network(network: &CmpNeuralNetwork) -> io::Result<Self> {
        let mut bytes = Vec::new();
        persist::save_network(network, &mut bytes)?;
        let digest = fnv1a(&bytes);
        Ok(Self { bytes, digest })
    }

    /// FNV-1a hash over the full bundle — weights *and* configuration
    /// lines — so two bundles with equal digests produce bit-identical
    /// predictions.
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The serialized bundle.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Deserializes a fresh network instance for the calling thread.
    ///
    /// # Errors
    ///
    /// Propagates format errors (none for bytes validated at
    /// construction).
    pub fn hydrate(&self) -> io::Result<CmpNeuralNetwork> {
        persist::load_network(self.bytes.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::tiny_network;

    #[test]
    fn bundle_roundtrips_through_bytes() {
        let net = tiny_network(3);
        let bundle = ModelBundle::from_network(&net).unwrap();
        let again = ModelBundle::from_bytes(bundle.bytes().to_vec()).unwrap();
        assert_eq!(bundle.digest(), again.digest());
        let hydrated = bundle.hydrate().unwrap();
        assert_eq!(
            neurfill_nn::Module::num_parameters(hydrated.unet()),
            neurfill_nn::Module::num_parameters(net.unet()),
        );
    }

    #[test]
    fn corrupt_bytes_are_rejected_at_registration() {
        assert!(ModelBundle::from_bytes(b"not a bundle".to_vec()).is_err());
    }

    #[test]
    fn load_reads_and_validates_a_bundle_file() {
        let dir = std::env::temp_dir().join(format!("neurfill_bundle_load_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.bundle");
        let net = tiny_network(5);
        persist::save_to_file(&net, &path).unwrap();
        let loaded = ModelBundle::load(&path).unwrap();
        assert_eq!(loaded.digest(), ModelBundle::from_network(&net).unwrap().digest());
        std::fs::write(&path, b"not a bundle").unwrap();
        assert!(ModelBundle::load(&path).is_err());
        assert!(ModelBundle::load(dir.join("missing.bundle")).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
