//! Declarative tenant manifests: the control-plane description of *which*
//! corpora a multi-tenant server serves and *how* each tenant is treated.
//!
//! A [`Manifest`] is parsed from a JSON file and maps tenant names to a
//! [`TenantConfig`]: the corpus recipe ([`CorpusSpec`] — seed, scale and
//! optional size override, enough to rebuild the corpus deterministically),
//! a default model variant, the tenant's fair-queue bound and DRR weight,
//! an optional cache share, and the salted digests (`rpg hash-key`) of the
//! bearer keys that authenticate as this tenant. The server-side pieces
//! (queue weights, auth keys) are consumed by `rpg-server`; the corpus
//! lifecycle lives here: [`CorpusRegistry::apply_manifest`] diffs the
//! manifest against the registry's current tenants and creates, replaces
//! or removes exactly the tenants whose corpus spec changed — replacement
//! bumps the tenant's epoch and evicts exactly that tenant's cache
//! entries, and tenants whose spec is unchanged are left serving their
//! existing artifacts.
//!
//! ```json
//! {
//!   "admin_key_hashes": ["9f0c…:5e1a…"],
//!   "tenants": {
//!     "alpha": {
//!       "corpus": {"seed": 10, "scale": "small"},
//!       "weight": 2,
//!       "queue": 16,
//!       "key_hashes": ["03d2…:a4b7…"]
//!     },
//!     "beta": {
//!       "corpus": {"seed": 11, "scale": "small", "papers_per_topic": 40},
//!       "variant": "NEWST-C",
//!       "cache_share": 32,
//!       "key_hashes": ["77e1…:0c9d…"]
//!     }
//!   }
//! }
//! ```
//!
//! [`CorpusRegistry::apply_manifest`]: crate::CorpusRegistry::apply_manifest

use crate::digest::StoredKey;
use rpg_corpus::{generate, Corpus, CorpusConfig};
use rpg_repager::Variant;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::HashMap;

/// The corpus scale a [`CorpusSpec`] starts from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorpusScale {
    /// `CorpusConfig::small()` — the ~1.2k-paper demo corpus.
    Small,
    /// `CorpusConfig::default()` — the ~5k-paper benchmark corpus.
    Full,
}

impl CorpusScale {
    /// Parses the manifest spelling (`"small"` / `"full"`, with
    /// `"default"` accepted as an alias for full).
    pub fn from_name(name: &str) -> Option<CorpusScale> {
        match name.to_ascii_lowercase().as_str() {
            "small" => Some(CorpusScale::Small),
            "full" | "default" => Some(CorpusScale::Full),
            _ => None,
        }
    }

    /// The canonical manifest spelling.
    pub fn name(&self) -> &'static str {
        match self {
            CorpusScale::Small => "small",
            CorpusScale::Full => "full",
        }
    }
}

/// A deterministic corpus recipe: everything needed to (re)build one
/// tenant's corpus. Two tenants with equal specs serve identical corpora,
/// which is what lets [`CorpusRegistry::apply_manifest`] skip rebuilding
/// tenants whose spec did not change.
///
/// [`CorpusRegistry::apply_manifest`]: crate::CorpusRegistry::apply_manifest
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CorpusSpec {
    /// RNG seed; the corpus is a pure function of the spec.
    pub seed: u64,
    /// Corpus scale (`"small"` or `"full"`); small when omitted.
    pub scale: Option<String>,
    /// Overrides the base number of papers per topic.
    pub papers_per_topic: Option<usize>,
    /// Path of a snapshot file to load instead of building from the spec.
    /// The snapshot is used only when its embedded fingerprint matches this
    /// spec's generator fields (see [`crate::snapshot::spec_fingerprint`]);
    /// on any mismatch or read/decode error the corpus is rebuilt from the
    /// spec with a warning — a snapshot can speed a boot up but never
    /// change what is served.
    pub snapshot: Option<String>,
}

impl CorpusSpec {
    /// A small-scale spec with just a seed.
    pub fn small(seed: u64) -> CorpusSpec {
        CorpusSpec {
            seed,
            scale: None,
            papers_per_topic: None,
            snapshot: None,
        }
    }

    /// The parsed scale; errors on an unknown spelling.
    pub fn corpus_scale(&self) -> Result<CorpusScale, ManifestError> {
        match &self.scale {
            None => Ok(CorpusScale::Small),
            Some(name) => CorpusScale::from_name(name).ok_or_else(|| {
                ManifestError::new(format!(
                    "unknown corpus scale {name:?}; expected \"small\" or \"full\""
                ))
            }),
        }
    }

    /// The full generator configuration this spec describes.
    pub fn corpus_config(&self) -> Result<CorpusConfig, ManifestError> {
        let base = match self.corpus_scale()? {
            CorpusScale::Small => CorpusConfig::small(),
            CorpusScale::Full => CorpusConfig::default(),
        };
        let mut config = CorpusConfig {
            seed: self.seed,
            ..base
        };
        if let Some(papers) = self.papers_per_topic {
            if papers == 0 {
                return Err(ManifestError::new("papers_per_topic must be at least 1"));
            }
            config.papers_per_topic = papers;
        }
        Ok(config)
    }

    /// Generates the corpus this spec describes (CPU-heavy; callers run it
    /// off any latency-sensitive thread).
    pub fn build_corpus(&self) -> Result<Corpus, ManifestError> {
        Ok(generate(&self.corpus_config()?))
    }
}

/// Everything a manifest says about one tenant (the tenant's name is the
/// key it sits under in [`Manifest::tenants`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct TenantConfig {
    /// The corpus this tenant serves. Required.
    pub corpus: Option<CorpusSpec>,
    /// Default model variant for requests that omit one (paper-table name,
    /// e.g. `"NEWST-C"`); the service default when omitted.
    pub variant: Option<String>,
    /// Deficit-round-robin weight (≥ 1); 1 when omitted.
    pub weight: Option<u64>,
    /// Per-tenant admission-queue bound (≥ 1); the server default when
    /// omitted.
    pub queue: Option<usize>,
    /// Maximum result-cache entries this tenant may occupy in the shared
    /// cache; unlimited (plain LRU pressure) when omitted.
    pub cache_share: Option<usize>,
    /// Salted digests of bearer keys (`"<salt-hex>:<sha256-hex>"`, as
    /// printed by `rpg hash-key`) — the manifest never stores the secret
    /// itself.
    pub key_hashes: Option<Vec<String>>,
    /// Maximum requests of this tenant computing concurrently (≥ 1); when
    /// omitted the server derives the tenant's weighted share of its
    /// worker pool.
    pub inflight: Option<usize>,
    /// Deadline budget in milliseconds (≥ 1): work of this tenant still
    /// queued past it is shed instead of computed.
    pub deadline_ms: Option<u64>,
    /// Slow-request threshold in milliseconds for the trace exemplar ring:
    /// only requests at least this slow are retained for
    /// `GET /v1/debug/requests`. `0` retains every traced request; when
    /// omitted the server default applies.
    pub trace_slow_ms: Option<u64>,
    /// Marks this tenant as the one requests without a `corpus` field
    /// route to. At most one tenant may set it.
    pub default: Option<bool>,
}

impl TenantConfig {
    /// A minimal config serving `spec` with no keys and default tuning.
    pub fn for_spec(spec: CorpusSpec) -> TenantConfig {
        TenantConfig {
            corpus: Some(spec),
            ..TenantConfig::default()
        }
    }

    /// The corpus spec; errors when the manifest omitted it.
    pub fn corpus_spec(&self) -> Result<&CorpusSpec, ManifestError> {
        self.corpus
            .as_ref()
            .ok_or_else(|| ManifestError::new("tenant is missing its \"corpus\" spec"))
    }

    /// The parsed default variant, if configured.
    pub fn default_variant(&self) -> Result<Option<Variant>, ManifestError> {
        match self.variant.as_deref() {
            None => Ok(None),
            Some(name) => Variant::from_name(name).map(Some).ok_or_else(|| {
                let known: Vec<&str> = Variant::ALL.iter().map(|v| v.name()).collect();
                ManifestError::new(format!(
                    "unknown variant {name:?}; expected one of {}",
                    known.join(", ")
                ))
            }),
        }
    }

    /// The bearer keys of a validated config, parsed from `key_hashes`.
    ///
    /// # Panics
    ///
    /// On an entry [`StoredKey::parse`] refuses, which
    /// [`TenantConfig::validate`] rules out.
    pub fn stored_keys(&self) -> Vec<StoredKey> {
        parse_key_hashes("key_hashes", &self.key_hashes).expect("validated key hashes parse")
    }

    /// Parses and validates a `PUT /v1/corpora/:name` body by the rules a
    /// manifest entry meets.
    pub fn from_json(text: &str) -> Result<TenantConfig, ManifestError> {
        let value: Value = serde_json::from_str(text).map_err(ManifestError::json)?;
        refuse_plaintext_keys(&value, "api_keys", "key_hashes")?;
        let config = TenantConfig::from_value(&value).map_err(ManifestError::json)?;
        config.validate()?;
        Ok(config)
    }

    /// Whether this tenant is flagged as the default-corpus target.
    pub fn is_default(&self) -> bool {
        self.default == Some(true)
    }

    /// Checks the rules one tenant's config must meet on its own, wherever
    /// it comes from (a manifest entry or a `PUT /v1/corpora/:name` body):
    /// the corpus spec is present and parses, the variant is known, every
    /// count-valued knob is at least 1, and every key hash parses. Rules
    /// spanning tenants are [`Manifest::validate`]'s.
    pub fn validate(&self) -> Result<(), ManifestError> {
        self.corpus_spec()?.corpus_config()?;
        self.default_variant()?;
        // A zero share would make the eviction loop self-evict the tenant's
        // entry on every insert — rejected like the other zero knobs
        // instead of silently serving uncached.
        let zero = [
            ("weight", self.weight == Some(0)),
            ("queue", self.queue == Some(0)),
            ("inflight", self.inflight == Some(0)),
            ("deadline_ms", self.deadline_ms == Some(0)),
            ("cache_share", self.cache_share == Some(0)),
        ];
        if let Some((field, _)) = zero.iter().find(|(_, zero)| *zero) {
            return Err(ManifestError::new(format!("{field} must be at least 1")));
        }
        parse_key_hashes("key_hashes", &self.key_hashes)?;
        Ok(())
    }
}

/// A parsed, validated tenant manifest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Manifest {
    /// Salted-SHA-256 admin keys in `"<salt-hex>:<digest-hex>"` form, as
    /// minted by `rpg hash-key`; the manifest never holds the secret.
    pub admin_key_hashes: Option<Vec<String>>,
    /// Structured-log level (`error`/`warn`/`info`/`debug`/`trace`);
    /// applied at load and on every SIGHUP re-apply, so operators can swap
    /// verbosity without a restart. The process default (or the
    /// `--log-level` flag) applies when omitted.
    pub log_level: Option<String>,
    /// Tenant name → tenant configuration.
    pub tenants: Option<HashMap<String, TenantConfig>>,
}

impl Manifest {
    /// Parses and validates a manifest from JSON text.
    pub fn from_json(text: &str) -> Result<Manifest, ManifestError> {
        let value: Value = serde_json::from_str(text).map_err(ManifestError::json)?;
        refuse_plaintext_keys(&value, "admin_keys", "admin_key_hashes")?;
        if let Some(Value::Object(tenants)) = value.get("tenants") {
            for (name, tenant) in tenants {
                refuse_plaintext_keys(tenant, "api_keys", "key_hashes")
                    .map_err(|e| e.for_tenant(name))?;
            }
        }
        let manifest = Manifest::from_value(&value).map_err(ManifestError::json)?;
        manifest.validate()?;
        Ok(manifest)
    }

    /// The admin keys of a validated manifest, parsed from
    /// `admin_key_hashes`.
    ///
    /// # Panics
    ///
    /// On an entry [`StoredKey::parse`] refuses, which
    /// [`Manifest::validate`] rules out.
    pub fn admin_stored_keys(&self) -> Vec<StoredKey> {
        parse_key_hashes("admin_key_hashes", &self.admin_key_hashes)
            .expect("validated key hashes parse")
    }

    /// Tenant name → config, sorted by name so application order (and any
    /// error reported out of it) is deterministic.
    pub fn tenants_sorted(&self) -> Vec<(&str, &TenantConfig)> {
        let mut tenants: Vec<(&str, &TenantConfig)> = self
            .tenants
            .iter()
            .flatten()
            .map(|(name, config)| (name.as_str(), config))
            .collect();
        tenants.sort_by_key(|&(name, _)| name);
        tenants
    }

    /// The configuration of one tenant.
    pub fn tenant(&self, name: &str) -> Option<&TenantConfig> {
        self.tenants.as_ref()?.get(name)
    }

    /// The tenant flagged `"default": true`, if any (validation guarantees
    /// at most one).
    pub fn default_tenant(&self) -> Option<&str> {
        self.tenants_sorted()
            .into_iter()
            .find(|(_, config)| config.is_default())
            .map(|(name, _)| name)
    }

    /// Checks every cross-field rule a JSON-shaped manifest can still get
    /// wrong: tenant names must be usable in URLs and queue lanes, each
    /// tenant must pass [`TenantConfig::validate`], at most one tenant may
    /// be the default, and no bearer key may be ambiguous (shared between
    /// tenants, or between a tenant and the admin set). Keys are compared
    /// parsed, so two spellings of one hash are one key.
    pub fn validate(&self) -> Result<(), ManifestError> {
        let mut seen_keys: HashMap<StoredKey, String> = HashMap::new();
        let mut default_tenant: Option<String> = None;
        if let Some(level) = self.log_level.as_deref() {
            if rpg_obs::log::Level::parse(level).is_none() {
                return Err(ManifestError::new(format!(
                    "unknown log_level {level:?}; expected one of error, warn, \
                     info, debug, trace"
                )));
            }
        }
        for key in parse_key_hashes("admin_key_hashes", &self.admin_key_hashes)? {
            seen_keys.insert(key, "admin".to_string());
        }
        for (name, config) in self.tenants_sorted() {
            if !valid_tenant_name(name) {
                return Err(ManifestError::new(format!(
                    "invalid tenant name {name:?}: names are non-empty, contain no \
                     whitespace or '/', and may not start with \"__\""
                )));
            }
            config.validate().map_err(|e| e.for_tenant(name))?;
            if config.is_default() {
                match &default_tenant {
                    None => default_tenant = Some(name.to_string()),
                    Some(first) => {
                        return Err(ManifestError::new(format!(
                            "tenants {first:?} and {name:?} both claim \"default\": true"
                        )));
                    }
                }
            }
            for key in config.stored_keys() {
                let hash = key.encode();
                if let Some(owner) = seen_keys.insert(key, name.to_string()) {
                    return Err(ManifestError::new(format!(
                        "key hash {hash:?} is claimed by both {owner:?} and {name:?}"
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Parses each entry of a `field` key-hash list with [`StoredKey::parse`];
/// the error names the first malformed entry and `rpg hash-key`.
fn parse_key_hashes(
    field: &str,
    hashes: &Option<Vec<String>>,
) -> Result<Vec<StoredKey>, ManifestError> {
    hashes
        .iter()
        .flatten()
        .map(|hash| {
            StoredKey::parse(hash).ok_or_else(|| {
                ManifestError::new(format!(
                    "malformed \"{field}\" entry {hash:?}: expected \"<salt-hex>:<digest-hex>\" \
                     as `rpg hash-key <KEY>` prints it"
                ))
            })
        })
        .collect()
}

/// Refuses `field`, a plaintext key list older manifests used, naming
/// `hashed`, which replaced it: the JSON reader ignores unknown fields, so
/// those keys would otherwise vanish and every request bearing one be a 401.
fn refuse_plaintext_keys(object: &Value, field: &str, hashed: &str) -> Result<(), ManifestError> {
    match object.get(field) {
        None => Ok(()),
        Some(_) => Err(ManifestError::new(format!(
            "plaintext \"{field}\" is not accepted: list each key's salted digest \
             in \"{hashed}\" instead, minted with `rpg hash-key <KEY>`"
        ))),
    }
}

/// Whether `name` may name a tenant: non-empty, no whitespace, `/` or
/// control characters (names appear in URL paths and queue lanes), and not
/// the reserved `__` prefix (internal admission lanes). The same rule
/// gates manifest tenants and wire-side `PUT /v1/corpora/:name`.
pub fn valid_tenant_name(name: &str) -> bool {
    !name.is_empty()
        && !name.starts_with("__")
        && !name
            .chars()
            .any(|c| c.is_ascii_whitespace() || c == '/' || c.is_ascii_control())
}

/// What [`CorpusRegistry::apply_manifest`] did to each tenant, sorted by
/// name within each bucket.
///
/// [`CorpusRegistry::apply_manifest`]: crate::CorpusRegistry::apply_manifest
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ManifestDiff {
    /// Tenants that did not exist and were built and registered.
    pub created: Vec<String>,
    /// Tenants whose corpus spec changed: rebuilt, epoch-bumped, and their
    /// cache entries evicted.
    pub replaced: Vec<String>,
    /// Tenants present in the registry but absent from the manifest:
    /// removed, cache entries evicted.
    pub removed: Vec<String>,
    /// Tenants whose corpus spec matched; artifacts and cache untouched
    /// (tuning fields like `cache_share` are still re-applied).
    pub unchanged: Vec<String>,
}

impl ManifestDiff {
    /// Whether the apply changed any tenant's artifacts or membership.
    pub fn is_noop(&self) -> bool {
        self.created.is_empty() && self.replaced.is_empty() && self.removed.is_empty()
    }
}

/// A manifest that does not describe a servable tenant set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestError {
    message: String,
}

impl ManifestError {
    pub(crate) fn new(message: impl Into<String>) -> ManifestError {
        ManifestError {
            message: message.into(),
        }
    }

    fn json(e: impl std::fmt::Display) -> ManifestError {
        ManifestError::new(format!("invalid JSON: {e}"))
    }

    fn for_tenant(self, name: &str) -> ManifestError {
        ManifestError::new(format!("tenant {name:?}: {}", self.message))
    }
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ManifestError {}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fixture key at rest under a fixed salt.
    fn stored(key: &str) -> StoredKey {
        StoredKey::with_salt(key, b"fixture")
    }

    /// The stored form of a fixture key, as `rpg hash-key` prints it.
    fn hashed(key: &str) -> String {
        stored(key).encode()
    }

    fn demo_json() -> String {
        let [admin, alpha, beta1, beta2] = ["root", "alpha", "beta-1", "beta-2"].map(hashed);
        format!(
            r#"{{
            "admin_key_hashes": [{admin:?}],
            "tenants": {{
                "alpha": {{
                    "corpus": {{"seed": 10, "scale": "small"}},
                    "weight": 2,
                    "queue": 16,
                    "key_hashes": [{alpha:?}]
                }},
                "beta": {{
                    "corpus": {{"seed": 11, "papers_per_topic": 30}},
                    "variant": "NEWST-C",
                    "cache_share": 4,
                    "key_hashes": [{beta1:?}, {beta2:?}]
                }}
            }}
        }}"#
        )
    }

    #[test]
    fn parses_and_round_trips() {
        let manifest = Manifest::from_json(&demo_json()).unwrap();
        assert_eq!(manifest.admin_stored_keys(), [stored("root")]);
        let names: Vec<&str> = manifest
            .tenants_sorted()
            .iter()
            .map(|&(name, _)| name)
            .collect();
        assert_eq!(names, ["alpha", "beta"]);
        let alpha = manifest.tenant("alpha").unwrap();
        assert_eq!(alpha.corpus_spec().unwrap().seed, 10);
        assert_eq!(alpha.weight, Some(2));
        assert_eq!(alpha.queue, Some(16));
        let beta = manifest.tenant("beta").unwrap();
        assert_eq!(
            beta.default_variant().unwrap(),
            Some(Variant::CandidatesOnly)
        );
        assert_eq!(beta.cache_share, Some(4));
        assert_eq!(beta.stored_keys(), [stored("beta-1"), stored("beta-2")]);
        // Serialise → parse yields the same manifest.
        let text = serde_json::to_string(&manifest).unwrap();
        assert_eq!(Manifest::from_json(&text).unwrap(), manifest);
    }

    #[test]
    fn corpus_spec_builds_the_configured_scale() {
        let spec = CorpusSpec {
            seed: 7,
            scale: Some("full".to_string()),
            papers_per_topic: Some(33),
            snapshot: None,
        };
        let config = spec.corpus_config().unwrap();
        assert_eq!(config.seed, 7);
        assert_eq!(config.papers_per_topic, 33);
        assert_eq!(
            CorpusSpec::small(7)
                .corpus_config()
                .unwrap()
                .papers_per_topic,
            CorpusConfig::small().papers_per_topic
        );
        // "default" is an accepted alias for full.
        assert_eq!(CorpusScale::from_name("default"), Some(CorpusScale::Full));
        assert!(CorpusSpec {
            scale: Some("tiny".to_string()),
            ..CorpusSpec::small(1)
        }
        .corpus_config()
        .is_err());
    }

    #[test]
    fn identical_specs_build_identical_corpora() {
        let a = CorpusSpec::small(0xA11CE).build_corpus().unwrap();
        let b = CorpusSpec::small(0xA11CE).build_corpus().unwrap();
        assert_eq!(a.papers().len(), b.papers().len());
        assert_eq!(
            a.survey_bank().iter().next().unwrap().query,
            b.survey_bank().iter().next().unwrap().query
        );
    }

    #[test]
    fn validation_rejects_broken_manifests() {
        let key = hashed("k");
        let upper = key.to_uppercase();
        let keyed = [
            (
                format!(
                    r#"{{"tenants": {{
                    "a": {{"corpus": {{"seed": 1}}, "key_hashes": [{key:?}]}},
                    "b": {{"corpus": {{"seed": 2}}, "key_hashes": [{key:?}]}}}}}}"#
                ),
                "duplicate key hash across tenants",
            ),
            (
                format!(
                    r#"{{"tenants": {{
                    "a": {{"corpus": {{"seed": 1}}, "key_hashes": [{key:?}]}},
                    "b": {{"corpus": {{"seed": 2}}, "key_hashes": [{upper:?}]}}}}}}"#
                ),
                "one key hash spelled in two cases",
            ),
            (
                format!(
                    r#"{{"admin_key_hashes": [{upper:?}],
                    "tenants": {{"a": {{"corpus": {{"seed": 1}}, "key_hashes": [{key:?}]}}}}}}"#
                ),
                "key hash shared with admin",
            ),
        ];
        for (json, what) in &keyed {
            assert!(Manifest::from_json(json).is_err(), "accepted: {what}");
        }
        for (json, what) in [
            (r#"{"tenants": {"a": {}}}"#, "missing corpus spec"),
            (
                r#"{"tenants": {"a": {"corpus": {"seed": 1, "scale": "huge"}}}}"#,
                "unknown scale",
            ),
            (
                r#"{"tenants": {"a": {"corpus": {"seed": 1}, "weight": 0}}}"#,
                "zero weight",
            ),
            (
                r#"{"tenants": {"a": {"corpus": {"seed": 1}, "queue": 0}}}"#,
                "zero queue bound",
            ),
            (
                r#"{"tenants": {"a": {"corpus": {"seed": 1}, "variant": "bogus"}}}"#,
                "unknown variant",
            ),
            (
                r#"{"tenants": {"a": {"corpus": {"seed": 1}, "inflight": 0}}}"#,
                "zero inflight cap",
            ),
            (
                r#"{"tenants": {"a": {"corpus": {"seed": 1}, "deadline_ms": 0}}}"#,
                "zero deadline",
            ),
            (
                r#"{"tenants": {"a": {"corpus": {"seed": 1}, "cache_share": 0}}}"#,
                "zero cache share",
            ),
            (
                r#"{"tenants": {
                    "a": {"corpus": {"seed": 1}, "default": true},
                    "b": {"corpus": {"seed": 2}, "default": true}}}"#,
                "two default tenants",
            ),
            (
                r#"{"tenants": {"a": {"corpus": {"seed": 1}, "key_hashes": [""]}}}"#,
                "empty key hash",
            ),
            (r#"{"admin_key_hashes": [""]}"#, "empty admin key hash"),
            (
                r#"{"tenants": {"a": {"corpus": {"seed": 1}, "key_hashes": ["0a:a0"]}}}"#,
                "malformed key hash",
            ),
            (
                r#"{"admin_key_hashes": ["0a:a0"]}"#,
                "malformed admin key hash",
            ),
            (
                r#"{"tenants": {"__x": {"corpus": {"seed": 1}}}}"#,
                "reserved name",
            ),
            (
                r#"{"tenants": {"a b": {"corpus": {"seed": 1}}}}"#,
                "whitespace in name",
            ),
            (
                r#"{"tenants": {"a/b": {"corpus": {"seed": 1}}}}"#,
                "slash in name",
            ),
            ("not json", "syntax error"),
        ] {
            assert!(Manifest::from_json(json).is_err(), "accepted: {what}");
        }
        // A malformed hash is refused naming its tenant, the entry and the
        // command that mints well-formed ones.
        let json = r#"{"tenants": {"a": {"corpus": {"seed": 1}, "key_hashes": ["0a:a0"]}}}"#;
        let message = Manifest::from_json(json).unwrap_err().to_string();
        for part in [
            "tenant \"a\"",
            "\"key_hashes\"",
            "\"0a:a0\"",
            "rpg hash-key",
        ] {
            assert!(message.contains(part), "{part} missing from {message}");
        }
    }

    #[test]
    fn empty_manifest_is_valid() {
        let manifest = Manifest::from_json("{}").unwrap();
        assert!(manifest.tenants_sorted().is_empty());
        assert!(manifest.admin_stored_keys().is_empty());
        assert_eq!(manifest.default_tenant(), None);
    }

    #[test]
    fn plaintext_key_fields_are_refused_naming_their_hashed_form() {
        let manifests = [
            (r#"{"admin_keys": ["k"]}"#, "admin_key_hashes"),
            (
                r#"{"tenants": {"a": {"corpus": {"seed": 1}, "api_keys": ["k"]}}}"#,
                "key_hashes",
            ),
            (
                r#"{"tenants": {"a": {"corpus": {"seed": 1}, "api_keys": []}}}"#,
                "key_hashes",
            ),
        ];
        for (json, hashed) in manifests {
            let message = Manifest::from_json(json).unwrap_err().to_string();
            assert!(
                message.contains(&format!("\"{hashed}\"")) && message.contains("rpg hash-key"),
                "{json}: {message}"
            );
        }
        let body = r#"{"corpus": {"seed": 1}, "api_keys": ["k"]}"#;
        let message = TenantConfig::from_json(body).unwrap_err().to_string();
        assert!(
            message.contains("\"key_hashes\"") && message.contains("rpg hash-key"),
            "{message}"
        );
    }

    #[test]
    fn a_put_body_parses_like_a_manifest_entry() {
        let key = hashed("d");
        let body = &format!(r#"{{"corpus": {{"seed": 4}}, "weight": 2, "key_hashes": [{key:?}]}}"#);
        let config = TenantConfig::from_json(body).unwrap();
        let manifest = Manifest::from_json(&format!(r#"{{"tenants": {{"t": {body}}}}}"#)).unwrap();
        assert_eq!(manifest.tenant("t"), Some(&config));
        for bad in [r#"{"corpus": {"seed": 4}, "weight": 0}"#, "{", "[]"] {
            assert!(TenantConfig::from_json(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn overload_and_default_fields_parse_and_round_trip() {
        let key = hashed("alpha");
        let manifest = Manifest::from_json(&format!(
            r#"{{
                "tenants": {{
                    "alpha": {{
                        "corpus": {{"seed": 1}},
                        "inflight": 3,
                        "deadline_ms": 250,
                        "key_hashes": [{key:?}]
                    }},
                    "beta": {{"corpus": {{"seed": 2}}, "default": true}}
                }}
            }}"#
        ))
        .unwrap();
        let alpha = manifest.tenant("alpha").unwrap();
        assert_eq!(alpha.inflight, Some(3));
        assert_eq!(alpha.deadline_ms, Some(250));
        assert_eq!(alpha.stored_keys(), [stored("alpha")]);
        assert!(!alpha.is_default());
        assert_eq!(manifest.default_tenant(), Some("beta"));
        let text = serde_json::to_string(&manifest).unwrap();
        assert_eq!(Manifest::from_json(&text).unwrap(), manifest);
    }
}
