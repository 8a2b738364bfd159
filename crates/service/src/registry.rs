//! Multi-tenant corpus sharding: many named [`CorpusArtifacts`] behind one
//! `Send + Sync` handle.
//!
//! A [`CorpusRegistry`] routes requests to a tenant by corpus name, shares
//! one bounded result cache across all tenants (keys carry the tenant name,
//! so identical queries against different corpora never collide), and
//! supports **refresh**: swapping in a rebuilt corpus for one tenant bumps
//! that tenant's *epoch* — which participates in every cache key via
//! [`RequestFingerprint::with_epoch`] — and actively evicts exactly that
//! tenant's cached results, leaving every other tenant's entries intact.

use crate::cache::LruCache;
use crate::fingerprint::RequestFingerprint;
use crate::manifest::{CorpusSpec, Manifest, ManifestDiff, ManifestError, TenantConfig};
use crate::{CacheStats, DEFAULT_CACHE_CAPACITY};
use rpg_corpus::Corpus;
use rpg_graph::GraphError;
use rpg_obs::trace::StageTrace;
use rpg_repager::artifacts::CorpusArtifacts;
use rpg_repager::system::{PathRequest, RepagerError, RepagerOutput};
use rpg_repager::Variant;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

/// An error serving a request through the registry.
#[derive(Debug, Clone, PartialEq)]
pub enum RegistryError {
    /// The named corpus is not registered.
    UnknownCorpus(String),
    /// The tenant was found but the request itself failed.
    Request(RepagerError),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::UnknownCorpus(name) => write!(f, "unknown corpus {name:?}"),
            RegistryError::Request(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RegistryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RegistryError::UnknownCorpus(_) => None,
            RegistryError::Request(e) => Some(e),
        }
    }
}

impl From<RepagerError> for RegistryError {
    fn from(e: RepagerError) -> Self {
        RegistryError::Request(e)
    }
}

/// A served result plus whether it came from the cache.
#[derive(Debug, Clone)]
pub struct Served {
    /// The (shared) output of the pipeline run that answered the request.
    pub output: Arc<RepagerOutput>,
    /// Whether the result was answered from the cache. A cached output's
    /// `timings` describe the run that populated the cache, not this hit.
    pub cached: bool,
    /// The cache entry that answered a hit (`None` for a fresh run).
    hit: Option<Arc<CachedResult>>,
}

impl Served {
    /// The cache entry that answered this request, when it was a hit — a
    /// front end renders the hit's response from its
    /// [`CachedResult::hit_body`] slot instead of re-encoding the output.
    pub fn hit(&self) -> Option<&Arc<CachedResult>> {
        self.hit.as_ref()
    }
}

/// One entry of the registry's shared result cache: the pipeline output
/// plus a slot for the encoded response body a front end answers every hit
/// on this entry with. The slot is filled at most once and lives exactly as
/// long as the entry — eviction, a refresh sweep or a tenant removal drops
/// the bytes with it — so the encoded bodies never form a second cache.
#[derive(Debug)]
pub struct CachedResult {
    output: Arc<RepagerOutput>,
    hit_body: OnceLock<Arc<[u8]>>,
}

impl CachedResult {
    fn new(output: Arc<RepagerOutput>) -> CachedResult {
        CachedResult {
            output,
            hit_body: OnceLock::new(),
        }
    }

    /// The encoded hit body: rendered by `encode` on the entry's first hit
    /// and shared by every later one. Concurrent first hits encode once;
    /// the others wait for that encoding and reuse it.
    pub fn hit_body(&self, encode: impl FnOnce(&RepagerOutput) -> Vec<u8>) -> Arc<[u8]> {
        self.hit_body
            .get_or_init(|| encode(&self.output).into())
            .clone()
    }
}

struct Tenant {
    artifacts: Arc<CorpusArtifacts>,
    epoch: u64,
    /// The declarative recipe the corpus was built from, when the tenant
    /// came from a manifest or a wire-side corpus spec — what
    /// [`CorpusRegistry::apply_manifest`] diffs against. `None` for tenants
    /// registered from a raw corpus.
    spec: Option<CorpusSpec>,
    /// Maximum shared-cache entries this tenant may occupy (`None` =
    /// limited only by global LRU pressure).
    cache_share: Option<usize>,
    /// Model variant served when a request omits one.
    default_variant: Option<Variant>,
}

/// One row of [`CorpusRegistry::overview`]: the control-plane view of a
/// tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantOverview {
    /// The tenant name.
    pub name: String,
    /// Current corpus epoch (bumps on every refresh/replace).
    pub epoch: u64,
    /// The corpus spec, when the tenant was built from one.
    pub spec: Option<CorpusSpec>,
    /// Cached results currently held for this tenant.
    pub cached_entries: usize,
    /// The tenant's cache share, when bounded.
    pub cache_share: Option<usize>,
}

/// The cache key: tenant name plus the epoch-bound request fingerprint.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct TenantKey {
    corpus: String,
    fingerprint: RequestFingerprint,
}

impl TenantKey {
    fn new(corpus: &str, request: &PathRequest<'_>, epoch: u64) -> TenantKey {
        TenantKey {
            corpus: corpus.to_string(),
            fingerprint: RequestFingerprint::of(request).with_epoch(epoch),
        }
    }
}

/// Builds a tenant's artifacts from its spec, preferring the spec's
/// configured snapshot when one loads and its embedded fingerprint matches
/// the spec. An unusable snapshot — missing file, corruption, or a
/// fingerprint from a different spec — degrades to the full build with one
/// warning; it can never serve stale or wrong data because
/// [`crate::snapshot::decode`] refuses any fingerprint mismatch.
fn artifacts_for_spec(
    name: &str,
    spec: &CorpusSpec,
) -> Result<Arc<CorpusArtifacts>, ManifestError> {
    if let Some(path) = &spec.snapshot {
        match crate::snapshot::try_load(path, crate::snapshot::spec_fingerprint(spec)) {
            Ok(artifacts) => return Ok(artifacts),
            Err(e) => rpg_obs::log::warn(
                "registry",
                "snapshot unusable; rebuilding from spec",
                &[
                    ("tenant", name),
                    ("snapshot", path),
                    ("cause", &e.to_string()),
                ],
            ),
        }
    }
    let corpus = spec.build_corpus()?;
    CorpusArtifacts::build(corpus)
        .map_err(|e| ManifestError::new(format!("artifact build failed: {e}")))
}

/// A thread-shareable registry of named corpora with one shared result
/// cache.
pub struct CorpusRegistry {
    tenants: RwLock<HashMap<String, Tenant>>,
    cache: Mutex<LruCache<TenantKey, Arc<CachedResult>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl CorpusRegistry {
    /// An empty registry with the default cache capacity.
    pub fn new() -> Self {
        Self::with_cache_capacity(DEFAULT_CACHE_CAPACITY)
    }

    /// An empty registry with an explicit shared-cache capacity
    /// (0 disables result caching for every tenant).
    pub fn with_cache_capacity(capacity: usize) -> Self {
        CorpusRegistry {
            tenants: RwLock::new(HashMap::new()),
            cache: Mutex::new(LruCache::new(capacity)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Registers (or replaces) a corpus under a name, building its
    /// artifacts. Replacing an existing tenant behaves like
    /// [`CorpusRegistry::refresh`]: the epoch advances and the tenant's
    /// cached results are evicted.
    pub fn register(
        &self,
        name: impl Into<String>,
        corpus: impl Into<Arc<Corpus>>,
    ) -> Result<(), GraphError> {
        let artifacts = CorpusArtifacts::build(corpus)?;
        self.install(name.into(), artifacts, None);
        Ok(())
    }

    /// Registers (or replaces) a tenant from pre-built artifacts.
    pub fn register_artifacts(&self, name: impl Into<String>, artifacts: Arc<CorpusArtifacts>) {
        self.install(name.into(), artifacts, None);
    }

    /// Registers (or replaces) a tenant from a declarative
    /// [`TenantConfig`]: the corpus is generated from the config's spec,
    /// artifacts are built, and the spec plus tuning fields (cache share,
    /// default variant) are recorded on the tenant — the building block of
    /// both [`CorpusRegistry::apply_manifest`] and the wire-side
    /// `PUT /v1/corpora/:name`. Replacement semantics match
    /// [`CorpusRegistry::refresh`]: epoch bump and exact-tenant cache
    /// eviction.
    ///
    /// The corpus generation and artifact build are CPU-heavy and run
    /// without holding any registry lock, so concurrent serving continues
    /// until the final atomic swap.
    pub fn register_spec(
        &self,
        name: impl Into<String>,
        config: &TenantConfig,
    ) -> Result<u64, ManifestError> {
        let name = name.into();
        let spec = config.corpus_spec()?.clone();
        let default_variant = config.default_variant()?;
        let artifacts = artifacts_for_spec(&name, &spec)?;
        self.install(name.clone(), artifacts, Some(spec));
        {
            let mut tenants = self.tenants.write().unwrap();
            if let Some(tenant) = tenants.get_mut(&name) {
                tenant.cache_share = config.cache_share;
                tenant.default_variant = default_variant;
            }
        }
        Ok(self.epoch(&name).unwrap_or(0))
    }

    /// Applies a validated [`Manifest`] with a diff against the current
    /// tenant set: tenants new to the manifest are built and registered,
    /// tenants whose [`CorpusSpec`] changed are rebuilt and atomically
    /// swapped (epoch bump, exact-tenant cache eviction), tenants absent
    /// from the manifest are removed, and tenants with an unchanged spec
    /// keep their artifacts and cache while their tuning fields are
    /// re-applied. The manifest is authoritative: tenants registered
    /// outside it (including via `PUT`) are removed by the next apply.
    ///
    /// All corpus/artifact builds happen before anything is swapped, with
    /// no registry lock held — a failing build leaves the registry exactly
    /// as it was, and the event loops of a server sharing this registry
    /// never block on the builds.
    pub fn apply_manifest(&self, manifest: &Manifest) -> Result<ManifestDiff, ManifestError> {
        manifest.validate()?;
        // Phase 1: classify every manifest tenant against the current spec
        // snapshot.
        let current: HashMap<String, Option<CorpusSpec>> = {
            let tenants = self.tenants.read().unwrap();
            tenants
                .iter()
                .map(|(name, tenant)| (name.clone(), tenant.spec.clone()))
                .collect()
        };
        let mut diff = ManifestDiff::default();
        for (name, config) in manifest.tenants_sorted() {
            let spec = config.corpus_spec()?;
            match current.get(name) {
                Some(Some(existing)) if existing == spec => diff.unchanged.push(name.to_string()),
                Some(_) => diff.replaced.push(name.to_string()),
                None => diff.created.push(name.to_string()),
            }
        }
        diff.removed = current
            .keys()
            .filter(|name| manifest.tenant(name).is_none())
            .cloned()
            .collect();
        diff.removed.sort();
        // Phase 2: build everything that changed, before touching the
        // registry — an error here leaves the tenant set untouched. The
        // per-tenant builds are independent (corpus generation plus index
        // construction, the expensive part of a reload), so they fan out
        // over a worker pool; results come back in index order, keeping the
        // first-error report deterministic.
        let to_build: Vec<&String> = diff.created.iter().chain(&diff.replaced).collect();
        let built: Vec<(String, Arc<CorpusArtifacts>)> = crate::parallel::fan_out(
            to_build.len(),
            crate::default_threads().min(to_build.len().max(1)),
            || (),
            |(), i| {
                let name = to_build[i];
                let config = manifest.tenant(name).expect("classified tenant is listed");
                let artifacts = artifacts_for_spec(name, config.corpus_spec()?)
                    .map_err(|e| ManifestError::new(format!("tenant {name:?}: {e}")))?;
                Ok((name.clone(), artifacts))
            },
        )
        .into_iter()
        .collect::<Result<_, ManifestError>>()?;
        // Phase 3: commit under one write lock — epochs bump before the
        // cache sweep below, so the epoch-guarded insert in `generate`
        // cannot resurrect a pre-swap result.
        let mut vanished_unchanged: Vec<String> = Vec::new();
        {
            let mut tenants = self.tenants.write().unwrap();
            for (name, artifacts) in built {
                let config = manifest.tenant(&name).expect("built tenant is listed");
                let spec = Some(config.corpus_spec()?.clone());
                let default_variant = config.default_variant()?;
                match tenants.get_mut(&name) {
                    Some(tenant) => {
                        tenant.artifacts = artifacts;
                        tenant.epoch += 1;
                        tenant.spec = spec;
                        tenant.cache_share = config.cache_share;
                        tenant.default_variant = default_variant;
                    }
                    None => {
                        tenants.insert(
                            name,
                            Tenant {
                                artifacts,
                                epoch: 0,
                                spec,
                                cache_share: config.cache_share,
                                default_variant,
                            },
                        );
                    }
                }
            }
            for name in &diff.unchanged {
                let config = manifest.tenant(name).expect("unchanged tenant is listed");
                match tenants.get_mut(name) {
                    Some(tenant) => {
                        tenant.cache_share = config.cache_share;
                        tenant.default_variant = config.default_variant()?;
                    }
                    // Removed concurrently (a DELETE raced the unlocked
                    // builds of phase 2): the manifest still lists it, so
                    // it must come back — rebuilt below, after the lock.
                    None => vanished_unchanged.push(name.clone()),
                }
            }
            for name in &diff.removed {
                tenants.remove(name);
            }
        }
        // Phase 4: evict exactly the cache entries of tenants whose corpus
        // went away or changed.
        let swept: HashSet<&String> = diff.replaced.iter().chain(&diff.removed).collect();
        if !swept.is_empty() {
            self.cache
                .lock()
                .unwrap()
                .retain(|key, _| !swept.contains(&key.corpus));
        }
        // Phase 5: re-create manifest tenants that a concurrent removal
        // made vanish between the phase-1 snapshot and the commit; the
        // manifest is authoritative, so they are rebuilt rather than
        // silently skipped.
        for name in vanished_unchanged {
            let config = manifest.tenant(&name).expect("unchanged tenant is listed");
            self.register_spec(&name, config)
                .map_err(|e| ManifestError::new(format!("tenant {name:?}: {e}")))?;
            diff.unchanged.retain(|n| n != &name);
            diff.created.push(name);
        }
        diff.created.sort();
        Ok(diff)
    }

    /// Swaps in a rebuilt corpus for an existing tenant: bumps the tenant's
    /// epoch and evicts exactly that tenant's cached results.
    ///
    /// Errors with [`RegistryError::UnknownCorpus`] if the tenant does not
    /// exist (use [`CorpusRegistry::register`] to add tenants), and
    /// propagates artifact-build failures.
    pub fn refresh(&self, name: &str, corpus: impl Into<Arc<Corpus>>) -> Result<(), RegistryError> {
        if !self.contains(name) {
            return Err(RegistryError::UnknownCorpus(name.to_string()));
        }
        let artifacts = CorpusArtifacts::build(corpus)
            .map_err(|e| RegistryError::Request(RepagerError::Graph(e)))?;
        self.install(name.to_string(), artifacts, None);
        Ok(())
    }

    /// Starts a new epoch for a tenant that keeps serving its corpus — what
    /// the HTTP `POST /v1/corpora/:name/refresh` endpoint rides on when no
    /// replacement corpus is shipped. The tenant's artifacts are a pure
    /// function of its corpus, so a rebuild would only reproduce them: the
    /// refresh bumps the epoch under the tenants lock (every cache key
    /// carries it) and then sweeps the tenant's cached results, exactly as
    /// [`CorpusRegistry::refresh`] does after its swap. The artifacts `Arc`
    /// is untouched. Returns the new epoch.
    pub fn refresh_in_place(&self, name: &str) -> Result<u64, RegistryError> {
        let epoch = {
            let mut tenants = self.tenants.write().unwrap();
            let tenant = tenants
                .get_mut(name)
                .ok_or_else(|| RegistryError::UnknownCorpus(name.to_string()))?;
            tenant.epoch += 1;
            tenant.epoch
        };
        self.sweep(name);
        Ok(epoch)
    }

    /// Evicts every cached result of one tenant. Callers bump the epoch (or
    /// remove the tenant) first, so a pipeline run racing the sweep cannot
    /// re-insert a result under the old epoch afterwards.
    fn sweep(&self, name: &str) {
        self.cache
            .lock()
            .unwrap()
            .retain(|key, _| key.corpus != name);
    }

    fn install(&self, name: String, artifacts: Arc<CorpusArtifacts>, spec: Option<CorpusSpec>) {
        let replaced = {
            let mut tenants = self.tenants.write().unwrap();
            match tenants.get_mut(&name) {
                Some(tenant) => {
                    tenant.artifacts = artifacts;
                    tenant.epoch += 1;
                    // The corpus is whatever was just swapped in: a stale
                    // spec must not make a later manifest apply believe the
                    // old recipe still serves.
                    tenant.spec = spec;
                    true
                }
                None => {
                    tenants.insert(
                        name.clone(),
                        Tenant {
                            artifacts,
                            epoch: 0,
                            spec,
                            cache_share: None,
                            default_variant: None,
                        },
                    );
                    false
                }
            }
        };
        if replaced {
            // The epoch bump already makes the old entries unreachable;
            // evicting them keeps the shared cache from carrying dead
            // weight until LRU pressure gets around to them.
            self.sweep(&name);
        }
    }

    /// Removes a tenant and evicts its cached results. Returns whether the
    /// tenant existed.
    pub fn remove(&self, name: &str) -> bool {
        let existed = self.tenants.write().unwrap().remove(name).is_some();
        if existed {
            self.sweep(name);
        }
        existed
    }

    /// Whether a tenant with this name is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.tenants.read().unwrap().contains_key(name)
    }

    /// The registered tenant names, sorted.
    pub fn tenants(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tenants.read().unwrap().keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.tenants.read().unwrap().len()
    }

    /// Whether the registry has no tenants.
    pub fn is_empty(&self) -> bool {
        self.tenants.read().unwrap().is_empty()
    }

    /// The current epoch of a tenant (0 until the first refresh).
    pub fn epoch(&self, name: &str) -> Option<u64> {
        self.tenants.read().unwrap().get(name).map(|t| t.epoch)
    }

    /// The artifacts currently serving a tenant.
    pub fn artifacts(&self, name: &str) -> Option<Arc<CorpusArtifacts>> {
        self.tenants
            .read()
            .unwrap()
            .get(name)
            .map(|t| t.artifacts.clone())
    }

    /// The corpus spec a tenant was built from, when it has one.
    pub fn spec(&self, name: &str) -> Option<CorpusSpec> {
        self.tenants
            .read()
            .unwrap()
            .get(name)
            .and_then(|t| t.spec.clone())
    }

    /// The model variant served when a request against this tenant omits
    /// one (`None` = the service-wide default).
    pub fn default_variant(&self, name: &str) -> Option<Variant> {
        self.tenants
            .read()
            .unwrap()
            .get(name)
            .and_then(|t| t.default_variant)
    }

    /// The control-plane view of every tenant, sorted by name — what
    /// `GET /v1/corpora` serves.
    pub fn overview(&self) -> Vec<TenantOverview> {
        let mut rows: Vec<TenantOverview> = {
            let tenants = self.tenants.read().unwrap();
            tenants
                .iter()
                .map(|(name, tenant)| TenantOverview {
                    name: name.clone(),
                    epoch: tenant.epoch,
                    spec: tenant.spec.clone(),
                    cached_entries: 0,
                    cache_share: tenant.cache_share,
                })
                .collect()
        };
        {
            let cache = self.cache.lock().unwrap();
            for row in &mut rows {
                row.cached_entries = cache.keys().filter(|key| key.corpus == row.name).count();
            }
        }
        rows.sort_by(|a, b| a.name.cmp(&b.name));
        rows
    }

    /// Serves one request against a named corpus, consulting the shared
    /// cache first.
    pub fn generate(
        &self,
        corpus: &str,
        request: &PathRequest<'_>,
    ) -> Result<Served, RegistryError> {
        self.generate_with_deadline(corpus, request, None)
    }

    /// As [`CorpusRegistry::generate`], with a cooperative wall-clock
    /// deadline the pipeline checks *between stages*: once it passes, the
    /// remaining stages are shed and the request fails with
    /// [`RepagerError::DeadlineExceeded`]. A cache hit is free and is
    /// served even past the deadline.
    pub fn generate_with_deadline(
        &self,
        corpus: &str,
        request: &PathRequest<'_>,
        deadline: Option<std::time::Instant>,
    ) -> Result<Served, RegistryError> {
        self.generate_observed(corpus, request, deadline, None)
    }

    /// As [`CorpusRegistry::generate_with_deadline`], additionally arming
    /// the pipeline's span recorder: a fresh run records one span per
    /// stage into `trace`, a cache hit records a single `cache_hit` span.
    pub fn generate_observed(
        &self,
        corpus: &str,
        request: &PathRequest<'_>,
        deadline: Option<std::time::Instant>,
        trace: Option<rpg_obs::trace::StageTrace>,
    ) -> Result<Served, RegistryError> {
        let lookup_started = Instant::now();
        let (artifacts, epoch) = {
            let tenants = self.tenants.read().unwrap();
            let tenant = tenants
                .get(corpus)
                .ok_or_else(|| RegistryError::UnknownCorpus(corpus.to_string()))?;
            (tenant.artifacts.clone(), tenant.epoch)
        };
        let key = TenantKey::new(corpus, request, epoch);
        if let Some(hit) = self.lookup(&key, lookup_started, trace.as_ref()) {
            return Ok(Served {
                output: hit.output.clone(),
                cached: true,
                hit: Some(hit),
            });
        }
        let output = crate::with_thread_scratch(|scratch| {
            scratch.set_deadline(deadline);
            scratch.set_trace(trace);
            let output = artifacts.generate(request, scratch);
            // Disarm before the scratch outlives this request — the
            // thread-local scratch serves unrelated (deadline-less,
            // untraced) requests next.
            scratch.set_deadline(None);
            scratch.set_trace(None);
            output
        })?;
        self.misses.fetch_add(1, Ordering::Relaxed);
        let output = Arc::new(output);
        // A refresh may have raced the pipeline run: its sweep runs before
        // this insert, so a result keyed under the old epoch would sit in
        // the cache unreachable until LRU pressure evicts it. Insert only
        // if the tenant still serves the epoch the result was computed for,
        // holding the tenants lock across the insert so a concurrent
        // refresh cannot slip between the check and the insert (refresh
        // bumps the epoch under the write lock before it sweeps).
        {
            let tenants = self.tenants.read().unwrap();
            if let Some(tenant) = tenants.get(corpus).filter(|t| t.epoch == epoch) {
                let mut cache = self.cache.lock().unwrap();
                cache.insert(key, Arc::new(CachedResult::new(output.clone())));
                // A bounded cache share caps how much of the shared cache
                // one tenant may occupy: past it, the tenant evicts its
                // *own* least-recently-used entry instead of squeezing the
                // others.
                if let Some(share) = tenant.cache_share {
                    while cache.keys().filter(|key| key.corpus == corpus).count() > share {
                        if cache.evict_lru_where(|key| key.corpus == corpus).is_none() {
                            break;
                        }
                    }
                }
            }
        }
        Ok(Served {
            output,
            cached: false,
            hit: None,
        })
    }

    /// Probes the shared cache for `request` against a named corpus without
    /// running anything — the key and epoch are exactly those
    /// [`CorpusRegistry::generate_observed`] uses, so a front end can answer
    /// hits before handing misses to a compute pool. A hit counts exactly
    /// like one inside `generate_observed` (the hit counter, a `cache_hit`
    /// span into `trace`). A miss, or an unknown corpus, counts nothing:
    /// the run that follows counts (or reports) it.
    pub fn probe(
        &self,
        corpus: &str,
        request: &PathRequest<'_>,
        trace: Option<&StageTrace>,
    ) -> Option<Arc<CachedResult>> {
        let started = Instant::now();
        let epoch = self.epoch(corpus)?;
        self.lookup(&TenantKey::new(corpus, request, epoch), started, trace)
    }

    /// The one cache lookup behind [`CorpusRegistry::probe`] and
    /// [`CorpusRegistry::generate_observed`]: a hit bumps the hit counter
    /// and records a `cache_hit` span starting at `started`.
    fn lookup(
        &self,
        key: &TenantKey,
        started: Instant,
        trace: Option<&StageTrace>,
    ) -> Option<Arc<CachedResult>> {
        let hit = self.cache.lock().unwrap().get(key)?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        if let Some(trace) = trace {
            trace.record("cache_hit", started);
        }
        Some(hit)
    }

    /// Cache occupancy and hit/miss counters across all tenants.
    pub fn cache_stats(&self) -> CacheStats {
        let cache = self.cache.lock().unwrap();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: cache.len(),
            capacity: cache.capacity(),
        }
    }

    /// Number of cached results belonging to one tenant.
    pub fn cached_entries_for(&self, name: &str) -> usize {
        self.cache
            .lock()
            .unwrap()
            .keys()
            .filter(|key| key.corpus == name)
            .count()
    }
}

impl Default for CorpusRegistry {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpg_corpus::{generate, CorpusConfig};

    fn corpus(seed: u64) -> Corpus {
        generate(&CorpusConfig {
            seed,
            ..CorpusConfig::small()
        })
    }

    fn registry_with_two_tenants() -> CorpusRegistry {
        let registry = CorpusRegistry::new();
        registry.register("alpha", corpus(0xA)).unwrap();
        registry.register("beta", corpus(0xB)).unwrap();
        registry
    }

    fn first_query(registry: &CorpusRegistry, tenant: &str) -> (String, u16) {
        let artifacts = registry.artifacts(tenant).unwrap();
        let survey = artifacts.corpus().survey_bank().iter().next().unwrap();
        (survey.query.clone(), survey.year)
    }

    #[test]
    fn routes_requests_to_the_named_tenant() {
        let registry = registry_with_two_tenants();
        assert_eq!(registry.tenants(), ["alpha", "beta"]);
        let (query, year) = first_query(&registry, "alpha");
        let request = PathRequest {
            max_year: Some(year),
            ..PathRequest::new(&query, 20)
        };
        let via_alpha = registry.generate("alpha", &request).unwrap();
        let via_beta = registry.generate("beta", &request).unwrap();
        // Same request, different corpora: the alpha corpus knows the
        // query's topic, and whatever beta returns is computed against its
        // own graph, not alpha's cached result.
        assert!(!via_alpha.output.reading_list.is_empty());
        assert!(!via_alpha.output.same_result(&via_beta.output));
        assert!(!via_beta.cached);
    }

    #[test]
    fn an_expired_deadline_sheds_the_pipeline_mid_compute() {
        let registry = registry_with_two_tenants();
        let (query, year) = first_query(&registry, "alpha");
        let request = PathRequest {
            max_year: Some(year),
            ..PathRequest::new(&query, 20)
        };
        // A deadline captured before the pipeline starts is guaranteed
        // expired by the first inter-stage gate.
        let err = registry
            .generate_with_deadline("alpha", &request, Some(std::time::Instant::now()))
            .unwrap_err();
        assert_eq!(err, RegistryError::Request(RepagerError::DeadlineExceeded));
        // The shed run cached nothing, and the armed deadline does not
        // leak into the next (deadline-less) request on the same thread's
        // scratch.
        assert_eq!(registry.cache_stats().entries, 0);
        let served = registry.generate("alpha", &request).unwrap();
        assert!(!served.cached);
        assert!(!served.output.reading_list.is_empty());
    }

    #[test]
    fn a_cache_hit_is_served_even_past_its_deadline() {
        let registry = registry_with_two_tenants();
        let (query, year) = first_query(&registry, "alpha");
        let request = PathRequest {
            max_year: Some(year),
            ..PathRequest::new(&query, 20)
        };
        registry.generate("alpha", &request).unwrap();
        let served = registry
            .generate_with_deadline("alpha", &request, Some(std::time::Instant::now()))
            .unwrap();
        assert!(served.cached, "a hit costs no compute, so nothing to shed");
    }

    #[test]
    fn invalid_requests_error_and_are_not_cached() {
        let registry = CorpusRegistry::new();
        registry.register("alpha", corpus(0xA)).unwrap();
        let bad = PathRequest {
            config: rpg_repager::RepagerConfig {
                seed_count: 0,
                ..Default::default()
            },
            ..PathRequest::new("anything", 10)
        };
        // The typed configuration error survives through the registry, and
        // the failed request counts neither a hit nor a miss.
        assert!(matches!(
            registry.generate("alpha", &bad),
            Err(RegistryError::Request(RepagerError::Config(_)))
        ));
        let stats = registry.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));
    }

    #[test]
    fn identical_queries_against_different_tenants_do_not_collide() {
        let registry = registry_with_two_tenants();
        let (query, year) = first_query(&registry, "alpha");
        let request = PathRequest {
            max_year: Some(year),
            ..PathRequest::new(&query, 20)
        };
        registry.generate("alpha", &request).unwrap();
        registry.generate("beta", &request).unwrap();
        let stats = registry.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 2, 2));
        // Repeats hit per tenant.
        assert!(registry.generate("alpha", &request).unwrap().cached);
        assert!(registry.generate("beta", &request).unwrap().cached);
        assert_eq!(registry.cache_stats().hits, 2);
    }

    #[test]
    fn probe_counts_only_hits_and_shares_the_entry_with_generate() {
        let registry = registry_with_two_tenants();
        let (query, year) = first_query(&registry, "alpha");
        let request = PathRequest {
            max_year: Some(year),
            ..PathRequest::new(&query, 20)
        };
        // A miss (or an unknown tenant) counts nothing: the run that
        // follows is what counts the miss.
        assert!(registry.probe("alpha", &request, None).is_none());
        assert!(registry.probe("ghost", &request, None).is_none());
        let stats = registry.cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 0));

        registry.generate("alpha", &request).unwrap();
        let entry = registry
            .probe("alpha", &request, None)
            .expect("warm key hits");
        let body = entry.hit_body(|_| b"encoded once".to_vec());
        // A hit inside `generate` lands on the same entry and replays the
        // same bytes without encoding again.
        let served = registry.generate("alpha", &request).unwrap();
        let hit = served.hit().expect("a cached answer carries its entry");
        assert!(served.cached && Arc::ptr_eq(hit, &entry));
        assert!(Arc::ptr_eq(
            &hit.hit_body(|_| unreachable!("the slot is already filled")),
            &body
        ));
        let stats = registry.cache_stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));

        // The bytes live and die with their entry: a refresh sweep drops
        // them along with the output.
        drop((served, entry));
        assert_eq!(Arc::strong_count(&body), 2, "the entry's slot and ours");
        registry.refresh_in_place("alpha").unwrap();
        assert_eq!(Arc::strong_count(&body), 1, "swept with the entry");
        assert!(registry.probe("alpha", &request, None).is_none());
    }

    #[test]
    fn refresh_evicts_only_that_tenants_entries() {
        let registry = registry_with_two_tenants();
        let (alpha_query, alpha_year) = first_query(&registry, "alpha");
        let (beta_query, beta_year) = first_query(&registry, "beta");
        let alpha_request = PathRequest {
            max_year: Some(alpha_year),
            ..PathRequest::new(&alpha_query, 20)
        };
        let beta_request = PathRequest {
            max_year: Some(beta_year),
            ..PathRequest::new(&beta_query, 20)
        };
        registry.generate("alpha", &alpha_request).unwrap();
        registry.generate("beta", &beta_request).unwrap();
        assert_eq!(registry.cached_entries_for("alpha"), 1);
        assert_eq!(registry.cached_entries_for("beta"), 1);

        registry.refresh("alpha", corpus(0xA2)).unwrap();
        assert_eq!(registry.epoch("alpha"), Some(1));
        assert_eq!(registry.epoch("beta"), Some(0));
        assert_eq!(registry.cached_entries_for("alpha"), 0);
        assert_eq!(registry.cached_entries_for("beta"), 1);

        // Beta still hits; alpha recomputes against the refreshed corpus.
        assert!(registry.generate("beta", &beta_request).unwrap().cached);
        assert!(!registry.generate("alpha", &alpha_request).unwrap().cached);
    }

    #[test]
    fn refresh_in_place_bumps_the_epoch_and_evicts_only_that_tenant() {
        let registry = registry_with_two_tenants();
        let (alpha_query, alpha_year) = first_query(&registry, "alpha");
        let (beta_query, beta_year) = first_query(&registry, "beta");
        let alpha_request = PathRequest {
            max_year: Some(alpha_year),
            ..PathRequest::new(&alpha_query, 20)
        };
        let beta_request = PathRequest {
            max_year: Some(beta_year),
            ..PathRequest::new(&beta_query, 20)
        };
        let before = registry.generate("alpha", &alpha_request).unwrap();
        registry.generate("beta", &beta_request).unwrap();
        let artifacts = registry.artifacts("alpha").unwrap();

        assert_eq!(registry.refresh_in_place("alpha").unwrap(), 1);
        assert_eq!(registry.epoch("alpha"), Some(1));
        assert_eq!(registry.cached_entries_for("alpha"), 0);
        assert_eq!(registry.cached_entries_for("beta"), 1);
        assert!(
            Arc::ptr_eq(&artifacts, &registry.artifacts("alpha").unwrap()),
            "a refresh rebuilds nothing: the tenant keeps its artifacts"
        );

        // The same artifacts serve, so the recomputed answer matches the
        // pre-refresh one — but it is a recomputation.
        let after = registry.generate("alpha", &alpha_request).unwrap();
        assert!(!after.cached);
        assert!(after.output.same_result(&before.output));

        assert!(matches!(
            registry.refresh_in_place("ghost"),
            Err(RegistryError::UnknownCorpus(name)) if name == "ghost"
        ));
    }

    #[test]
    fn refresh_of_unknown_tenant_is_an_error() {
        let registry = CorpusRegistry::new();
        assert!(matches!(
            registry.refresh("ghost", corpus(1)),
            Err(RegistryError::UnknownCorpus(name)) if name == "ghost"
        ));
        assert!(matches!(
            registry.generate("ghost", &PathRequest::new("anything", 5)),
            Err(RegistryError::UnknownCorpus(_))
        ));
    }

    #[test]
    fn reregistering_a_tenant_bumps_the_epoch_and_sweeps() {
        let registry = CorpusRegistry::new();
        registry.register("solo", corpus(7)).unwrap();
        let (query, year) = first_query(&registry, "solo");
        let request = PathRequest {
            max_year: Some(year),
            ..PathRequest::new(&query, 20)
        };
        registry.generate("solo", &request).unwrap();
        assert_eq!(registry.cached_entries_for("solo"), 1);
        registry.register("solo", corpus(8)).unwrap();
        assert_eq!(registry.epoch("solo"), Some(1));
        assert_eq!(registry.cached_entries_for("solo"), 0);
    }

    #[test]
    fn remove_drops_tenant_and_its_cache_entries() {
        let registry = registry_with_two_tenants();
        let (query, year) = first_query(&registry, "alpha");
        let request = PathRequest {
            max_year: Some(year),
            ..PathRequest::new(&query, 20)
        };
        registry.generate("alpha", &request).unwrap();
        assert!(registry.remove("alpha"));
        assert!(!registry.remove("alpha"));
        assert_eq!(registry.cached_entries_for("alpha"), 0);
        assert!(!registry.contains("alpha"));
        assert_eq!(registry.len(), 1);
        assert!(matches!(
            registry.generate("alpha", &request),
            Err(RegistryError::UnknownCorpus(_))
        ));
    }

    fn spec_manifest(tenants: &[(&str, u64)]) -> Manifest {
        let map: HashMap<String, TenantConfig> = tenants
            .iter()
            .map(|&(name, seed)| {
                (
                    name.to_string(),
                    TenantConfig::for_spec(CorpusSpec {
                        papers_per_topic: Some(20),
                        ..CorpusSpec::small(seed)
                    }),
                )
            })
            .collect();
        Manifest {
            admin_key_hashes: None,
            log_level: None,
            tenants: Some(map),
        }
    }

    fn cache_one(registry: &CorpusRegistry, tenant: &str) {
        let (query, year) = first_query(registry, tenant);
        let request = PathRequest {
            max_year: Some(year),
            ..PathRequest::new(&query, 10)
        };
        registry.generate(tenant, &request).unwrap();
    }

    #[test]
    fn apply_manifest_creates_replaces_and_removes_by_spec_diff() {
        let registry = CorpusRegistry::new();
        let diff = registry
            .apply_manifest(&spec_manifest(&[("alpha", 1), ("beta", 2)]))
            .unwrap();
        assert_eq!(diff.created, ["alpha", "beta"]);
        assert!(!diff.is_noop());
        assert_eq!(registry.tenants(), ["alpha", "beta"]);
        assert_eq!(registry.spec("alpha").unwrap().seed, 1);

        cache_one(&registry, "alpha");
        cache_one(&registry, "beta");

        // Same manifest again: nothing rebuilt, cache intact.
        let diff = registry
            .apply_manifest(&spec_manifest(&[("alpha", 1), ("beta", 2)]))
            .unwrap();
        assert!(diff.is_noop(), "{diff:?}");
        assert_eq!(diff.unchanged, ["alpha", "beta"]);
        assert_eq!(registry.cached_entries_for("alpha"), 1);
        assert_eq!(registry.cached_entries_for("beta"), 1);

        // New seed for alpha: replaced, epoch bumped, only alpha's cache
        // swept; beta untouched.
        let diff = registry
            .apply_manifest(&spec_manifest(&[("alpha", 9), ("beta", 2)]))
            .unwrap();
        assert_eq!(diff.replaced, ["alpha"]);
        assert_eq!(diff.unchanged, ["beta"]);
        assert_eq!(registry.epoch("alpha"), Some(1));
        assert_eq!(registry.epoch("beta"), Some(0));
        assert_eq!(registry.cached_entries_for("alpha"), 0);
        assert_eq!(registry.cached_entries_for("beta"), 1);

        // Beta dropped from the manifest: removed with its cache entries.
        let diff = registry
            .apply_manifest(&spec_manifest(&[("alpha", 9)]))
            .unwrap();
        assert_eq!(diff.removed, ["beta"]);
        assert!(!registry.contains("beta"));
        assert_eq!(registry.cached_entries_for("beta"), 0);
        assert_eq!(registry.tenants(), ["alpha"]);
    }

    #[test]
    fn apply_manifest_replaces_tenants_registered_without_a_spec() {
        let registry = CorpusRegistry::new();
        registry.register("alpha", corpus(0xA)).unwrap();
        cache_one(&registry, "alpha");
        // A raw-registered tenant has no spec, so a manifest naming it must
        // rebuild it (the recipes cannot be proven equal).
        let diff = registry
            .apply_manifest(&spec_manifest(&[("alpha", 1)]))
            .unwrap();
        assert_eq!(diff.replaced, ["alpha"]);
        assert_eq!(registry.epoch("alpha"), Some(1));
        assert_eq!(registry.cached_entries_for("alpha"), 0);
        assert_eq!(registry.spec("alpha").unwrap().seed, 1);
    }

    #[test]
    fn apply_manifest_rejects_invalid_manifests_without_touching_tenants() {
        let registry = CorpusRegistry::new();
        registry.register("keep", corpus(3)).unwrap();
        let mut manifest = spec_manifest(&[("bad", 1)]);
        manifest
            .tenants
            .as_mut()
            .unwrap()
            .get_mut("bad")
            .unwrap()
            .weight = Some(0);
        assert!(registry.apply_manifest(&manifest).is_err());
        assert_eq!(registry.tenants(), ["keep"], "failed apply must be atomic");
    }

    #[test]
    fn register_spec_records_tuning_and_replaces_like_refresh() {
        let registry = CorpusRegistry::new();
        let mut config = TenantConfig::for_spec(CorpusSpec {
            papers_per_topic: Some(20),
            ..CorpusSpec::small(5)
        });
        config.variant = Some("NEWST-C".to_string());
        config.cache_share = Some(1);
        assert_eq!(registry.register_spec("solo", &config).unwrap(), 0);
        assert_eq!(
            registry.default_variant("solo"),
            Some(Variant::CandidatesOnly)
        );
        assert_eq!(registry.spec("solo").unwrap().seed, 5);
        // Replacing via a new spec bumps the epoch.
        config.corpus.as_mut().unwrap().seed = 6;
        assert_eq!(registry.register_spec("solo", &config).unwrap(), 1);
        let overview = registry.overview();
        assert_eq!(overview.len(), 1);
        assert_eq!(overview[0].name, "solo");
        assert_eq!(overview[0].epoch, 1);
        assert_eq!(overview[0].cache_share, Some(1));
        assert_eq!(overview[0].spec.as_ref().unwrap().seed, 6);
    }

    #[test]
    fn cache_share_caps_one_tenants_entries_only() {
        let registry = CorpusRegistry::new();
        let alpha = TenantConfig {
            cache_share: Some(1),
            ..TenantConfig::for_spec(CorpusSpec::small(0xA))
        };
        registry.register_spec("alpha", &alpha).unwrap();
        registry.register("beta", corpus(0xB)).unwrap();
        let artifacts = registry.artifacts("alpha").unwrap();
        let queries: Vec<(String, u16)> = artifacts
            .corpus()
            .survey_bank()
            .iter()
            .take(3)
            .map(|s| (s.query.clone(), s.year))
            .collect();
        for (query, year) in &queries {
            let request = PathRequest {
                max_year: Some(*year),
                ..PathRequest::new(query, 10)
            };
            registry.generate("alpha", &request).unwrap();
        }
        cache_one(&registry, "beta");
        assert_eq!(
            registry.cached_entries_for("alpha"),
            1,
            "share of 1 keeps only the most recent entry"
        );
        assert_eq!(registry.cached_entries_for("beta"), 1);
        // The survivor is the most recent query: it still hits.
        let (query, year) = &queries[2];
        let request = PathRequest {
            max_year: Some(*year),
            ..PathRequest::new(query, 10)
        };
        assert!(registry.generate("alpha", &request).unwrap().cached);
    }

    #[test]
    fn spec_with_snapshot_loads_from_it() {
        let path = std::env::temp_dir().join(format!(
            "rpg-registry-snap-good-{}.rpgsnap",
            std::process::id()
        ));
        let spec = CorpusSpec {
            papers_per_topic: Some(20),
            ..CorpusSpec::small(777)
        };
        let artifacts = CorpusArtifacts::build(spec.build_corpus().unwrap()).unwrap();
        let bytes =
            crate::snapshot::encode(&artifacts, crate::snapshot::spec_fingerprint(&spec)).unwrap();
        std::fs::write(&path, &bytes).unwrap();

        let registry = CorpusRegistry::new();
        let snap_spec = CorpusSpec {
            snapshot: Some(path.to_string_lossy().into_owned()),
            ..spec.clone()
        };
        registry
            .register_spec("from-snap", &TenantConfig::for_spec(snap_spec.clone()))
            .unwrap();
        registry
            .register_spec("from-spec", &TenantConfig::for_spec(spec))
            .unwrap();
        // Snapshot-loaded and spec-built tenants serve identical results.
        let (query, year) = first_query(&registry, "from-snap");
        let request = PathRequest {
            max_year: Some(year),
            ..PathRequest::new(&query, 15)
        };
        let a = registry.generate("from-snap", &request).unwrap();
        let b = registry.generate("from-spec", &request).unwrap();
        assert!(a.output.same_result(&b.output));
        // Refreshing in place bumps the epoch and sweeps the cache; the
        // snapshot-loaded artifacts keep serving.
        assert_eq!(registry.refresh_in_place("from-snap").unwrap(), 1);
        let refreshed = registry.generate("from-snap", &request).unwrap();
        assert!(!refreshed.cached, "refresh must evict the tenant's cache");
        assert!(refreshed.output.same_result(&b.output));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unusable_snapshots_fall_back_to_a_full_build() {
        let spec = CorpusSpec {
            papers_per_topic: Some(20),
            ..CorpusSpec::small(778)
        };
        let artifacts = CorpusArtifacts::build(spec.build_corpus().unwrap()).unwrap();
        // A snapshot whose fingerprint belongs to a *different* spec.
        let stale = std::env::temp_dir().join(format!(
            "rpg-registry-snap-stale-{}.rpgsnap",
            std::process::id()
        ));
        let wrong = crate::snapshot::spec_fingerprint(&CorpusSpec::small(1));
        std::fs::write(&stale, crate::snapshot::encode(&artifacts, wrong).unwrap()).unwrap();

        let registry = CorpusRegistry::new();
        for (tenant, path) in [
            ("stale-snap", stale.to_string_lossy().into_owned()),
            ("missing-snap", "/nonexistent/rpg.rpgsnap".to_string()),
        ] {
            let config = TenantConfig::for_spec(CorpusSpec {
                snapshot: Some(path),
                ..spec.clone()
            });
            registry.register_spec(tenant, &config).unwrap();
        }
        registry
            .register_spec("reference", &TenantConfig::for_spec(spec))
            .unwrap();
        let (query, year) = first_query(&registry, "reference");
        let request = PathRequest {
            max_year: Some(year),
            ..PathRequest::new(&query, 15)
        };
        let expected = registry.generate("reference", &request).unwrap();
        for tenant in ["stale-snap", "missing-snap"] {
            let served = registry.generate(tenant, &request).unwrap();
            assert!(
                served.output.same_result(&expected.output),
                "tenant {tenant} must have been rebuilt from its spec"
            );
        }
        std::fs::remove_file(&stale).ok();
    }

    #[test]
    fn zero_cache_shares_are_rejected() {
        let registry = registry_with_two_tenants();
        let mut manifest = spec_manifest(&[("alpha", 0xA)]);
        let alpha = manifest.tenants.as_mut().unwrap().get_mut("alpha");
        alpha.unwrap().cache_share = Some(0);
        assert!(registry.apply_manifest(&manifest).is_err());
        assert_eq!(registry.tenants(), ["alpha", "beta"], "nothing applied");
    }

    #[test]
    fn registry_is_shareable_across_threads() {
        let registry = Arc::new(CorpusRegistry::new());
        registry.register("shared", corpus(3)).unwrap();
        let (query, year) = first_query(&registry, "shared");
        let request = PathRequest {
            max_year: Some(year),
            ..PathRequest::new(&query, 15)
        };
        let reference = registry.generate("shared", &request).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let registry = registry.clone();
                let request = request.clone();
                let expected = reference.output.clone();
                scope.spawn(move || {
                    let served = registry.generate("shared", &request).unwrap();
                    assert!(served.output.same_result(&expected));
                });
            }
        });
    }
}
