//! The concurrent serving layer for RePaGer (`rpg-service`).
//!
//! [`PathService`] is an owned, thread-shareable handle over the staged
//! query pipeline of `rpg-repager`:
//!
//! * **Arc-shared artifacts** — corpus, engine index, PageRank and node
//!   weights are built once into an
//!   [`rpg_repager::artifacts::CorpusArtifacts`] and shared by every thread;
//! * **batch execution** — [`PathService::generate_batch`] fans a slice of
//!   requests out over scoped worker threads, each worker reusing one
//!   [`DijkstraScratch`] across its whole chunk;
//! * **result caching** — a bounded LRU keyed by [`RequestFingerprint`]
//!   serves repeated identical requests without recomputation.
//!
//! ```no_run
//! use rpg_repager::system::PathRequest;
//! use rpg_service::PathService;
//!
//! let corpus = rpg_corpus::generate(&rpg_corpus::CorpusConfig::small());
//! let service = PathService::build(corpus).unwrap();
//! let output = service.generate(&PathRequest::new("graph neural networks", 20)).unwrap();
//! assert!(output.reading_list.len() <= 20);
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

use rpg_corpus::Corpus;
use rpg_engines::ScholarEngine;
use rpg_graph::GraphError;
use rpg_repager::artifacts::CorpusArtifacts;
use rpg_repager::scratch::PipelineScratch;
use rpg_repager::stages::serve_request;
use rpg_repager::system::{PathRequest, RepagerError, RepagerOutput};
use rpg_repager::weights::NodeWeights;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default number of results the LRU cache retains.
pub const DEFAULT_CACHE_CAPACITY: usize = 256;

/// Cache hit/miss counters and occupancy of a service.
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

/// An owned, `Send + Sync` reading-path service over one corpus.
///
/// Cloning the service is cheap: clones share the same artifacts **and** the
/// same result cache.
pub struct PathService {
    artifacts: Arc<CorpusArtifacts>,
    cache: Arc<Mutex<LruCache<RequestFingerprint, Arc<RepagerOutput>>>>,
    hits: Arc<AtomicU64>,
    misses: Arc<AtomicU64>,
}

impl Clone for PathService {
    fn clone(&self) -> Self {
        PathService {
            artifacts: self.artifacts.clone(),
            cache: self.cache.clone(),
            hits: self.hits.clone(),
            misses: self.misses.clone(),
        }
    }
}

thread_local! {
    // One pipeline workspace per thread: sequential single-request callers
    // (e.g. the evaluation loop) reuse it across every request they make.
    static THREAD_SCRATCH: RefCell<PipelineScratch> = RefCell::new(PipelineScratch::new());
}

/// Runs `f` with this thread's shared pipeline workspace (the one
/// [`PathService::generate`] and the registry's request path reuse across
/// every request a thread serves).
pub(crate) fn with_thread_scratch<T>(f: impl FnOnce(&mut PipelineScratch) -> T) -> T {
    THREAD_SCRATCH.with(|scratch| f(&mut scratch.borrow_mut()))
}

impl PathService {
    /// Builds the service and all shared artifacts from a corpus.
    pub fn build(corpus: impl Into<Arc<Corpus>>) -> Result<Self, GraphError> {
        Ok(Self::with_artifacts(CorpusArtifacts::build(corpus)?))
    }

    /// Wraps pre-built artifacts with the default cache capacity.
    pub fn with_artifacts(artifacts: Arc<CorpusArtifacts>) -> Self {
        Self::with_cache_capacity(artifacts, DEFAULT_CACHE_CAPACITY)
    }

    /// Wraps pre-built artifacts with an explicit cache capacity
    /// (0 disables result caching).
    pub fn with_cache_capacity(artifacts: Arc<CorpusArtifacts>, capacity: usize) -> Self {
        PathService {
            artifacts,
            cache: Arc::new(Mutex::new(LruCache::new(capacity))),
            hits: Arc::new(AtomicU64::new(0)),
            misses: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The shared artifacts.
    pub fn artifacts(&self) -> &Arc<CorpusArtifacts> {
        &self.artifacts
    }

    /// The corpus being served.
    pub fn corpus(&self) -> &Corpus {
        self.artifacts.corpus()
    }

    /// The seed search engine.
    pub fn scholar(&self) -> &ScholarEngine {
        self.artifacts.scholar()
    }

    /// The Eq. (3) node-weight table.
    pub fn node_weights(&self) -> &NodeWeights {
        self.artifacts.node_weights()
    }

    /// Serves one request, consulting the result cache first.
    ///
    /// A cache hit returns a clone of the original output, so its
    /// `timings` describe the run that populated the cache, not the hit.
    pub fn generate(&self, request: &PathRequest<'_>) -> Result<RepagerOutput, RepagerError> {
        THREAD_SCRATCH
            .with(|scratch| self.generate_cached_with_scratch(request, &mut scratch.borrow_mut()))
    }

    /// Serves one request, always running the pipeline (no cache read or
    /// write). Benchmarks use this to measure true per-query cost.
    pub fn generate_uncached(
        &self,
        request: &PathRequest<'_>,
    ) -> Result<RepagerOutput, RepagerError> {
        THREAD_SCRATCH.with(|scratch| self.run_request(request, &mut scratch.borrow_mut()))
    }

    fn generate_cached_with_scratch(
        &self,
        request: &PathRequest<'_>,
        scratch: &mut PipelineScratch,
    ) -> Result<RepagerOutput, RepagerError> {
        let fingerprint = RequestFingerprint::of(request);
        if let Some(hit) = self.cache.lock().unwrap().get(&fingerprint) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((*hit).clone());
        }
        let output = self.run_request(request, scratch)?;
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.cache
            .lock()
            .unwrap()
            .insert(fingerprint, Arc::new(output.clone()));
        Ok(output)
    }

    fn run_request(
        &self,
        request: &PathRequest<'_>,
        scratch: &mut PipelineScratch,
    ) -> Result<RepagerOutput, RepagerError> {
        serve_request(
            self.artifacts.corpus(),
            self.artifacts.scholar(),
            self.artifacts.node_weights(),
            request,
            scratch,
        )
    }

    /// Serves a batch of requests concurrently, preserving order.
    ///
    /// Uses one worker thread per available CPU (capped at the batch size).
    pub fn generate_batch(
        &self,
        requests: &[PathRequest<'_>],
    ) -> Vec<Result<RepagerOutput, RepagerError>> {
        self.generate_batch_with_threads(requests, default_threads())
    }

    /// Serves a batch over an explicit number of worker threads. Each worker
    /// owns one [`PipelineScratch`] for its whole chunk of requests, and all
    /// workers share the service's result cache.
    pub fn generate_batch_with_threads(
        &self,
        requests: &[PathRequest<'_>],
        threads: usize,
    ) -> Vec<Result<RepagerOutput, RepagerError>> {
        parallel::fan_out(
            requests.len(),
            threads,
            PipelineScratch::new,
            |scratch, i| self.generate_cached_with_scratch(&requests[i], scratch),
        )
    }

    /// Cache occupancy and hit/miss counters.
    pub fn cache_stats(&self) -> CacheStats {
        let cache = self.cache.lock().unwrap();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: cache.len(),
            capacity: cache.capacity(),
        }
    }

    /// Drops all cached results (counters are kept).
    pub fn clear_cache(&self) {
        self.cache.lock().unwrap().clear();
    }
}

/// Default worker-thread count for batch execution.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpg_corpus::{generate, CorpusConfig};
    use rpg_repager::{RepagerConfig, Variant};

    fn service() -> PathService {
        let corpus = generate(&CorpusConfig {
            seed: 0xDE40,
            ..CorpusConfig::small()
        });
        PathService::build(corpus).unwrap()
    }

    fn survey_requests(service: &PathService, count: usize) -> Vec<(String, u16)> {
        service
            .corpus()
            .survey_bank()
            .iter()
            .take(count)
            .map(|s| (s.query.clone(), s.year))
            .collect()
    }

    #[test]
    fn single_requests_match_the_borrowing_facade() {
        let corpus = generate(&CorpusConfig {
            seed: 0xDE40,
            ..CorpusConfig::small()
        });
        let facade = rpg_repager::RePaGer::build(&corpus).unwrap();
        let service = PathService::build(corpus.clone()).unwrap();
        for (query, year) in survey_requests(&service, 4) {
            let request = PathRequest {
                max_year: Some(year),
                ..PathRequest::new(&query, 25)
            };
            let via_service = service.generate(&request).unwrap();
            let via_facade = facade.generate(&request).unwrap();
            assert!(
                via_service.same_result(&via_facade),
                "mismatch for query {query:?}"
            );
        }
    }

    #[test]
    fn repeated_request_is_served_from_the_cache() {
        let service = service();
        let (query, year) = survey_requests(&service, 1).remove(0);
        let request = PathRequest {
            max_year: Some(year),
            ..PathRequest::new(&query, 20)
        };
        let first = service.generate(&request).unwrap();
        let stats = service.cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 1));
        let second = service.generate(&request).unwrap();
        let stats = service.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(first.reading_list, second.reading_list);
        assert!(first.same_result(&second));
    }

    #[test]
    fn differing_fingerprint_fields_miss_the_cache() {
        let service = service();
        let (query, year) = survey_requests(&service, 1).remove(0);
        let request = PathRequest {
            max_year: Some(year),
            ..PathRequest::new(&query, 20)
        };
        service.generate(&request).unwrap();
        // Same query, different K / variant / config: all must recompute.
        service
            .generate(&PathRequest {
                top_k: 21,
                ..request.clone()
            })
            .unwrap();
        service
            .generate(&PathRequest {
                variant: Variant::CandidatesOnly,
                ..request.clone()
            })
            .unwrap();
        service
            .generate(&PathRequest {
                config: RepagerConfig::default().with_seed_count(10),
                ..request.clone()
            })
            .unwrap();
        let stats = service.cache_stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.entries, 4);
    }

    #[test]
    fn uncached_requests_do_not_touch_the_cache() {
        let service = service();
        let (query, year) = survey_requests(&service, 1).remove(0);
        let request = PathRequest {
            max_year: Some(year),
            ..PathRequest::new(&query, 20)
        };
        service.generate_uncached(&request).unwrap();
        let stats = service.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));
    }

    #[test]
    fn batch_results_match_serial_results_in_order() {
        let service = service();
        let surveys = survey_requests(&service, 6);
        let requests: Vec<PathRequest<'_>> = surveys
            .iter()
            .map(|(query, year)| PathRequest {
                max_year: Some(*year),
                ..PathRequest::new(query, 20)
            })
            .collect();
        let serial: Vec<RepagerOutput> = requests
            .iter()
            .map(|r| service.generate_uncached(r).unwrap())
            .collect();
        service.clear_cache();
        let batched = service.generate_batch_with_threads(&requests, 4);
        assert_eq!(batched.len(), serial.len());
        for (b, s) in batched.iter().zip(&serial) {
            assert!(b.as_ref().unwrap().same_result(s));
        }
    }

    #[test]
    fn concurrent_shared_service_yields_identical_outputs() {
        let service = service();
        let surveys = survey_requests(&service, 4);
        // Serial reference outputs, computed without caching so the threaded
        // runs below genuinely exercise the pipeline on cache misses.
        let reference: Vec<RepagerOutput> = surveys
            .iter()
            .map(|(query, year)| {
                service
                    .generate_uncached(&PathRequest {
                        max_year: Some(*year),
                        ..PathRequest::new(query, 20)
                    })
                    .unwrap()
            })
            .collect();
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    for ((query, year), expected) in surveys.iter().zip(&reference) {
                        let output = service
                            .generate(&PathRequest {
                                max_year: Some(*year),
                                ..PathRequest::new(query, 20)
                            })
                            .unwrap();
                        assert!(output.same_result(expected));
                    }
                });
            }
        });
    }

    #[test]
    fn invalid_requests_error_and_are_not_cached() {
        let service = service();
        let bad = PathRequest {
            config: RepagerConfig {
                seed_count: 0,
                ..Default::default()
            },
            ..PathRequest::new("anything", 10)
        };
        // The typed configuration error survives through the service layer.
        assert!(matches!(
            service.generate(&bad),
            Err(RepagerError::Config(_))
        ));
        assert_eq!(service.cache_stats().entries, 0);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let service = service();
        assert!(service.generate_batch(&[]).is_empty());
    }

    #[test]
    fn timings_are_populated_and_consistent() {
        let service = service();
        let (query, year) = survey_requests(&service, 1).remove(0);
        let request = PathRequest {
            max_year: Some(year),
            ..PathRequest::new(&query, 20)
        };
        let output = service.generate(&request).unwrap();
        let timings = output.timings;
        assert!(timings.total > std::time::Duration::ZERO);
        assert!(timings.stage_sum() <= timings.total);
        // The five stages cover the total minus bounded pipeline
        // bookkeeping. A strict ratio is flaky on loaded CI runners (a
        // scheduler stall between stages counts toward the total but no
        // stage), so allow a generous absolute gap.
        let gap = timings.total - timings.stage_sum();
        assert!(
            gap < std::time::Duration::from_millis(250),
            "non-stage overhead {gap:?} is too large for {:?} total",
            timings.total
        );
        for (name, duration) in timings.stages() {
            assert!(
                duration > std::time::Duration::ZERO,
                "stage {name} unrecorded"
            );
        }
    }
}
