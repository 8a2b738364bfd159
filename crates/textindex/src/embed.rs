//! Hashed bag-of-features embeddings with cosine similarity.
//!
//! This is the offline stand-in for the paper's SciBERT matching baseline
//! (see the README's "Stand-ins for the paper's data and services"
//! section).  Each document (or query) is embedded into a fixed-size
//! dense vector by hashing its word unigrams, word bigrams and character
//! trigrams into buckets, weighting word features by inverse document
//! frequency learned from a fitting corpus.  Cosine similarity between query
//! and document embeddings then plays the role of the trained matching
//! model's score: it captures lexical-semantic overlap (shared vocabulary and
//! sub-word units) but — exactly like the baseline in the paper — knows
//! nothing about citation structure, which is why it under-performs NEWST on
//! prerequisite coverage.

use crate::similarity::cosine;
use crate::tokenize::tokenize;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Parameters of the embedding model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EmbeddingParams {
    /// Dimensionality of the embedding vectors (number of hash buckets).
    pub dimensions: usize,
    /// Weight of word-unigram features.
    pub unigram_weight: f64,
    /// Weight of word-bigram features.
    pub bigram_weight: f64,
    /// Weight of character-trigram features (sub-word robustness).
    pub char_trigram_weight: f64,
}

impl Default for EmbeddingParams {
    fn default() -> Self {
        EmbeddingParams {
            dimensions: 256,
            unigram_weight: 1.0,
            bigram_weight: 0.75,
            char_trigram_weight: 0.25,
        }
    }
}

/// FNV-1a hash, fixed so embeddings are stable across runs and platforms.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A deterministic text-embedding model.
///
/// Call [`EmbeddingModel::fit`] on a corpus to learn IDF weights, then
/// [`EmbeddingModel::embed`] / [`EmbeddingModel::similarity`] at query time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EmbeddingModel {
    params: EmbeddingParams,
    idf: HashMap<String, f64>,
    fitted_docs: usize,
}

impl EmbeddingModel {
    /// Creates an unfitted model (all IDF weights default to 1).
    pub fn new(params: EmbeddingParams) -> Self {
        EmbeddingModel {
            params,
            idf: HashMap::new(),
            fitted_docs: 0,
        }
    }

    /// Creates a model with default parameters.
    pub fn with_defaults() -> Self {
        Self::new(EmbeddingParams::default())
    }

    /// Number of documents the model was fitted on.
    pub fn fitted_docs(&self) -> usize {
        self.fitted_docs
    }

    /// Learns IDF weights from a corpus of documents.
    pub fn fit<'a, I: IntoIterator<Item = &'a str>>(&mut self, corpus: I) {
        let mut df: HashMap<String, usize> = HashMap::new();
        let mut n = 0usize;
        for doc in corpus {
            n += 1;
            let mut seen = std::collections::HashSet::new();
            for token in tokenize(doc) {
                if seen.insert(token.term.clone()) {
                    *df.entry(token.term).or_insert(0) += 1;
                }
            }
        }
        self.fitted_docs = n;
        self.idf = df
            .into_iter()
            .map(|(term, d)| {
                let idf = ((n as f64 + 1.0) / (d as f64 + 1.0)).ln() + 1.0;
                (term, idf)
            })
            .collect();
    }

    fn idf_of(&self, term: &str) -> f64 {
        self.idf.get(term).copied().unwrap_or_else(|| {
            // Unknown terms get the maximum possible IDF for the fitted size.
            ((self.fitted_docs as f64 + 1.0) / 1.0).ln() + 1.0
        })
    }

    fn bucket(&self, feature: &str) -> usize {
        (fnv1a(feature.as_bytes()) % self.params.dimensions as u64) as usize
    }

    /// Embeds `text` into an L2-normalised vector of `params.dimensions`
    /// components.  The zero vector is returned for texts with no usable
    /// tokens.
    pub fn embed(&self, text: &str) -> Vec<f64> {
        let mut vector = vec![0.0; self.params.dimensions];
        let tokens = tokenize(text);
        if tokens.is_empty() {
            return vector;
        }

        for token in &tokens {
            let weight = self.params.unigram_weight * self.idf_of(&token.term);
            vector[self.bucket(&token.term)] += weight;
            if self.params.char_trigram_weight > 0.0 && token.term.len() >= 3 {
                let chars: Vec<char> = token.term.chars().collect();
                for window in chars.windows(3) {
                    let tri: String = window.iter().collect();
                    vector[self.bucket(&format!("#{tri}"))] += self.params.char_trigram_weight;
                }
            }
        }
        if self.params.bigram_weight > 0.0 {
            for pair in tokens.windows(2) {
                let bigram = format!("{}_{}", pair[0].term, pair[1].term);
                vector[self.bucket(&bigram)] += self.params.bigram_weight;
            }
        }

        let norm: f64 = vector.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm > 0.0 {
            for x in &mut vector {
                *x /= norm;
            }
        }
        vector
    }

    /// Cosine similarity between the embeddings of two texts, in `[-1, 1]`
    /// (practically `[0, 1]` because all features are non-negative).
    pub fn similarity(&self, a: &str, b: &str) -> f64 {
        cosine(&self.embed(a), &self.embed(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fitted_model() -> EmbeddingModel {
        let corpus = [
            "hate speech detection in social media",
            "pretrained language models for text classification",
            "graph neural networks for molecules",
            "reinforcement learning for robotics",
            "survey of hate speech datasets",
        ];
        let mut m = EmbeddingModel::with_defaults();
        m.fit(corpus.iter().copied());
        m
    }

    #[test]
    fn embeddings_are_normalized() {
        let m = fitted_model();
        let v = m.embed("hate speech detection");
        let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-9);
        assert_eq!(v.len(), 256);
    }

    #[test]
    fn empty_text_embeds_to_zero_vector() {
        let m = fitted_model();
        let v = m.embed("");
        assert!(v.iter().all(|&x| x == 0.0));
        assert_eq!(m.similarity("", "hate speech"), 0.0);
    }

    #[test]
    fn identical_texts_have_similarity_one() {
        let m = fitted_model();
        let s = m.similarity("hate speech detection", "hate speech detection");
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn related_texts_score_higher_than_unrelated() {
        let m = fitted_model();
        let related = m.similarity("hate speech detection", "detecting hate speech on twitter");
        let unrelated = m.similarity(
            "hate speech detection",
            "graph neural networks for molecules",
        );
        assert!(
            related > unrelated,
            "related={related}, unrelated={unrelated}"
        );
    }

    #[test]
    fn embeddings_are_deterministic() {
        let m = fitted_model();
        assert_eq!(m.embed("language models"), m.embed("language models"));
    }

    #[test]
    fn fitting_records_corpus_size() {
        let m = fitted_model();
        assert_eq!(m.fitted_docs(), 5);
        let unfitted = EmbeddingModel::with_defaults();
        assert_eq!(unfitted.fitted_docs(), 0);
    }

    #[test]
    fn subword_features_give_partial_credit_for_morphological_variants() {
        let m = fitted_model();
        let variant = m.similarity("classification of documents", "document classifiers");
        let unrelated = m.similarity(
            "classification of documents",
            "quantum chromodynamics plasma",
        );
        assert!(variant > unrelated);
    }
}

#[cfg(all(test, feature = "proptests"))]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Similarity is symmetric and bounded.
        #[test]
        fn similarity_is_symmetric_and_bounded(a in "[a-z ]{0,60}", b in "[a-z ]{0,60}") {
            let m = EmbeddingModel::with_defaults();
            let ab = m.similarity(&a, &b);
            let ba = m.similarity(&b, &a);
            prop_assert!((ab - ba).abs() < 1e-12);
            prop_assert!((-1.0001..=1.0001).contains(&ab));
        }

        /// Every embedding is either the zero vector or unit length.
        #[test]
        fn embeddings_unit_or_zero(text in "[a-z ]{0,80}") {
            let m = EmbeddingModel::with_defaults();
            let v = m.embed(&text);
            let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            prop_assert!(norm.abs() < 1e-9 || (norm - 1.0).abs() < 1e-9);
        }
    }
}
