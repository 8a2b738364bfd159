//! The serving layer for RePaGer (`rpg-service`).
//!
//! [`CorpusRegistry`] is the cached way to run a reading-path request:
//!
//! * **Arc-shared artifacts** — each tenant's corpus, engine index, PageRank
//!   and node weights are built once into an
//!   [`rpg_repager::artifacts::CorpusArtifacts`] and shared by every thread;
//! * **result caching** — one bounded LRU, keyed by tenant, epoch and
//!   [`RequestFingerprint`], serves repeated identical requests without
//!   recomputation;
//! * **tenant lifecycle** — manifests ([`manifest`]), refresh, and versioned
//!   corpus snapshots ([`snapshot`]).
//!
//! A miss runs [`CorpusArtifacts::generate`](rpg_repager::CorpusArtifacts::generate),
//! the one uncached way, on this thread's pipeline workspace
//! ([`with_thread_scratch`]).
//!
//! ```no_run
//! use rpg_repager::system::PathRequest;
//! use rpg_service::CorpusRegistry;
//!
//! let corpus = rpg_corpus::generate(&rpg_corpus::CorpusConfig::small());
//! let registry = CorpusRegistry::new();
//! registry.register("default", corpus).unwrap();
//! let request = PathRequest::new("graph neural networks", 20);
//! let served = registry.generate("default", &request).unwrap();
//! assert!(served.output.reading_list.len() <= 20);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod fingerprint;
pub mod manifest;
pub mod parallel;
pub mod registry;
pub mod snapshot;

pub use cache::LruCache;
pub use fingerprint::RequestFingerprint;
pub use manifest::{
    valid_tenant_name, CorpusSpec, Manifest, ManifestDiff, ManifestError, TenantConfig,
};
pub use registry::{CachedResult, CorpusRegistry, RegistryError, Served, TenantOverview};
pub use snapshot::{spec_fingerprint, SnapshotError, SnapshotInfo};

use rpg_repager::scratch::PipelineScratch;
use std::cell::RefCell;

/// Default number of results the LRU cache retains.
pub const DEFAULT_CACHE_CAPACITY: usize = 256;

/// Cache hit/miss counters and occupancy of a registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered from the cache.
    pub hits: u64,
    /// Requests that had to run the pipeline.
    pub misses: u64,
    /// Entries currently cached.
    pub entries: usize,
    /// Maximum number of entries.
    pub capacity: usize,
}

thread_local! {
    // One pipeline workspace per thread: sequential single-request callers
    // (e.g. the evaluation loop) reuse it across every request they make.
    static THREAD_SCRATCH: RefCell<PipelineScratch> = RefCell::new(PipelineScratch::new());
}

/// Runs `f` with this thread's shared pipeline workspace (the one the
/// registry's miss path and the evaluation loop reuse across every request
/// a thread serves).
pub fn with_thread_scratch<T>(f: impl FnOnce(&mut PipelineScratch) -> T) -> T {
    THREAD_SCRATCH.with(|scratch| f(&mut scratch.borrow_mut()))
}

/// Default worker-thread count (server workers, parallel tenant builds):
/// one per available CPU, capped at 16.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(16)
}
