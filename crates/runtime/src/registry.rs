//! Model registry: shared, cached access to surrogate bundles.
//!
//! The tensor substrate is single-threaded (`Rc`-based autograd graphs), so
//! a hydrated [`CmpNeuralNetwork`] cannot cross threads. What CAN be shared
//! is the *serialized* bundle: the registry caches bundle bytes behind an
//! [`Arc`], and each worker thread hydrates its own network from them once
//! at startup — N jobs on a worker pay for one hydration, and every thread
//! is guaranteed to run bit-identical weights.

use neurfill::persist;
use neurfill::CmpNeuralNetwork;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A validated, serialized surrogate bundle (weights + normalization +
/// extraction config), shareable across threads.
#[derive(Debug, Clone)]
pub struct ModelBundle {
    bytes: Vec<u8>,
    digest: u64,
}

impl ModelBundle {
    /// Wraps raw bundle bytes, validating them by a trial hydration so a
    /// corrupt bundle is rejected at registration instead of inside every
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
    /// predictions. Used as the cache identity alongside the path.
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

/// Path-keyed cache of [`ModelBundle`]s.
#[derive(Debug, Default)]
pub struct ModelRegistry {
    cache: Mutex<HashMap<PathBuf, Arc<ModelBundle>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ModelRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads (or returns the cached) bundle at `path`. The cache key is the
    /// canonicalized path; [`ModelBundle::digest`] identifies the cached
    /// content.
    ///
    /// # Errors
    ///
    /// Propagates file-system and bundle-format errors.
    pub fn load(&self, path: impl AsRef<Path>) -> io::Result<Arc<ModelBundle>> {
        let key = std::fs::canonicalize(path.as_ref())?;
        if let Some(bundle) = self.cache.lock().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(bundle));
        }
        // Read + validate outside the lock; a racing load of the same path
        // does redundant work but both arrive at equivalent bundles.
        let bundle = Arc::new(ModelBundle::from_bytes(std::fs::read(&key)?)?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        Ok(Arc::clone(self.cache.lock().entry(key).or_insert(bundle)))
    }

    /// Registers an in-memory bundle under a caller-chosen key (used by
    /// tests and by flows that train rather than load).
    pub fn insert(&self, key: impl Into<PathBuf>, bundle: Arc<ModelBundle>) {
        self.cache.lock().insert(key.into(), bundle);
    }

    /// Cache hits served so far.
    #[must_use]
    pub fn cache_hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (loads from disk) so far.
    #[must_use]
    pub fn cache_misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// FNV-1a 64-bit over `bytes` — the workspace's one cheap,
/// dependency-free checksum: bundle digests here, fault-site hashing,
/// tile checkpoints in `neurfill-chip`, shard and append-log records in
/// `neurfill-data`.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
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
    fn registry_counts_hits_and_misses() {
        let dir = std::env::temp_dir().join("neurfill_registry_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.bundle");
        persist::save_to_file(&tiny_network(5), &path).unwrap();

        let reg = ModelRegistry::new();
        let a = reg.load(&path).unwrap();
        let b = reg.load(&path).unwrap();
        assert_eq!(a.digest(), b.digest());
        assert_eq!(reg.cache_misses(), 1);
        assert_eq!(reg.cache_hits(), 1);
        let _ = std::fs::remove_file(&path);
    }
}
