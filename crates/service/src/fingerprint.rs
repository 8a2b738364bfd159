//! Cache keys for reading-path requests.
//!
//! Two requests that cannot produce different outputs must map to the same
//! fingerprint: the query text is whitespace-normalised and lowercased (the
//! tokenizer downstream is case-insensitive), the exclusion set is sorted and
//! deduplicated, and every configuration field — including the f64 cost
//! constants, captured by bit pattern — participates in equality and
//! hashing.
//!
//! Fingerprints also carry a **corpus epoch**: a counter the multi-tenant
//! [`crate::registry::CorpusRegistry`] bumps whenever a tenant's corpus is
//! refreshed. Identical requests against different corpus generations get
//! different fingerprints, so a stale cached result can never be served for
//! a refreshed corpus. [`RequestFingerprint::of`] starts at epoch 0; the
//! registry binds the tenant's epoch with [`RequestFingerprint::with_epoch`].

use rpg_corpus::PaperId;
use rpg_repager::system::PathRequest;
use rpg_repager::{RepagerConfig, Variant};

/// A hashable identity of a [`PathRequest`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RequestFingerprint {
    query: String,
    top_k: usize,
    max_year: Option<u16>,
    exclude: Vec<PaperId>,
    variant: Variant,
    /// Every `RepagerConfig` field, widened to bit-exact `u64`s.
    config: [u64; 11],
    /// Corpus generation the request is bound to (0 outside a registry).
    epoch: u64,
}

fn config_bits(config: &RepagerConfig) -> [u64; 11] {
    [
        config.alpha.to_bits(),
        config.beta.to_bits(),
        config.gamma.to_bits(),
        config.a.to_bits(),
        config.b.to_bits(),
        config.seed_count as u64,
        u64::from(config.expansion_hops),
        config.cooccurrence_threshold as u64,
        config.max_terminals as u64,
        u64::from(config.use_node_weights),
        u64::from(config.use_edge_weights),
    ]
}

impl RequestFingerprint {
    /// Computes the fingerprint of a request.
    pub fn of(request: &PathRequest<'_>) -> Self {
        let mut normalized = String::with_capacity(request.query.len());
        for token in request.query.split_whitespace() {
            if !normalized.is_empty() {
                normalized.push(' ');
            }
            normalized.extend(token.chars().flat_map(char::to_lowercase));
        }
        let mut exclude: Vec<PaperId> = request.exclude.to_vec();
        exclude.sort_unstable();
        exclude.dedup();
        RequestFingerprint {
            query: normalized,
            top_k: request.top_k,
            max_year: request.max_year,
            exclude,
            variant: request.variant,
            config: config_bits(&request.config),
            epoch: 0,
        }
    }

    /// Binds the fingerprint to a corpus generation: the same request under
    /// a different epoch is a different cache key.
    pub fn with_epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }

    /// The corpus generation this fingerprint is bound to.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The normalised query text.
    pub fn query(&self) -> &str {
        &self.query
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_request() -> PathRequest<'static> {
        PathRequest::new("Graph Neural Networks", 20)
    }

    #[test]
    fn query_normalisation_folds_case_and_whitespace() {
        let a = RequestFingerprint::of(&base_request());
        let b = RequestFingerprint::of(&PathRequest::new("  graph   neural\tnetworks ", 20));
        assert_eq!(a, b);
        assert_eq!(a.query(), "graph neural networks");
    }

    #[test]
    fn query_normalisation_handles_mixed_case_and_newlines() {
        let a = RequestFingerprint::of(&PathRequest::new("GRAPH\nNeural\r\n NETWORKS", 20));
        let b = RequestFingerprint::of(&base_request());
        assert_eq!(a, b);
        // Multi-char lowercase expansions must not merge adjacent tokens.
        let c = RequestFingerprint::of(&PathRequest::new("İstanbul GRAPHS", 20));
        assert_eq!(c.query().split(' ').count(), 2);
    }

    #[test]
    fn max_year_none_and_some_are_distinct() {
        let none = RequestFingerprint::of(&base_request());
        let some = RequestFingerprint::of(&PathRequest {
            max_year: Some(2020),
            ..base_request()
        });
        let other = RequestFingerprint::of(&PathRequest {
            max_year: Some(2021),
            ..base_request()
        });
        assert_ne!(none, some);
        assert_ne!(some, other);
        assert_eq!(
            some,
            RequestFingerprint::of(&PathRequest {
                max_year: Some(2020),
                ..base_request()
            })
        );
    }

    #[test]
    fn epoch_bump_invalidates_the_fingerprint() {
        let base = RequestFingerprint::of(&base_request());
        assert_eq!(base.epoch(), 0);
        let gen1 = RequestFingerprint::of(&base_request()).with_epoch(1);
        let gen2 = RequestFingerprint::of(&base_request()).with_epoch(2);
        assert_ne!(base, gen1);
        assert_ne!(gen1, gen2);
        assert_eq!(gen1, RequestFingerprint::of(&base_request()).with_epoch(1));
        assert_eq!(gen2.epoch(), 2);
        // Epoch participates in hashing too, not just equality.
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let hash = |f: &RequestFingerprint| {
            let mut h = DefaultHasher::new();
            f.hash(&mut h);
            h.finish()
        };
        assert_ne!(hash(&gen1), hash(&gen2));
    }

    #[test]
    fn exclude_order_and_duplicates_do_not_matter() {
        let e1 = [PaperId(3), PaperId(1), PaperId(3)];
        let e2 = [PaperId(1), PaperId(3)];
        let a = RequestFingerprint::of(&PathRequest {
            exclude: &e1,
            ..base_request()
        });
        let b = RequestFingerprint::of(&PathRequest {
            exclude: &e2,
            ..base_request()
        });
        assert_eq!(a, b);
    }

    #[test]
    fn every_distinguishing_field_changes_the_fingerprint() {
        let base = RequestFingerprint::of(&base_request());
        let variants = [
            RequestFingerprint::of(&PathRequest {
                top_k: 21,
                ..base_request()
            }),
            RequestFingerprint::of(&PathRequest {
                max_year: Some(2010),
                ..base_request()
            }),
            RequestFingerprint::of(&PathRequest {
                variant: Variant::Union,
                ..base_request()
            }),
            RequestFingerprint::of(&PathRequest {
                exclude: &[PaperId(7)],
                ..base_request()
            }),
            RequestFingerprint::of(&PathRequest {
                config: RepagerConfig {
                    alpha: 4.0,
                    ..Default::default()
                },
                ..base_request()
            }),
            RequestFingerprint::of(&PathRequest {
                config: RepagerConfig {
                    use_edge_weights: false,
                    ..Default::default()
                },
                ..base_request()
            }),
            RequestFingerprint::of(&PathRequest::new("other query", 20)),
        ];
        for other in &variants {
            assert_ne!(&base, other);
        }
    }
}
