//! Lexical substrate for the Reading Path Generation reproduction.
//!
//! The paper's pipeline needs three text-level capabilities:
//!
//! 1. **Keyword retrieval** — the academic search engines it compares against
//!    (Google Scholar, Microsoft Academic, AMiner) "solely return the paper
//!    whose title contains query phrases".  [`inverted`], [`tfidf`] and
//!    [`bm25`] provide the inverted index and the ranking functions the
//!    simulated engines in `rpg-engines` are built on.
//! 2. **Keyphrase extraction** — SurveyBank's queries are key phrases
//!    extracted from survey titles with the TopicRank algorithm.
//!    [`keyphrase`] implements a TopicRank-style graph ranking over candidate
//!    phrases.
//! 3. **Semantic matching** — the SciBERT baseline scores query/paper
//!    similarity.  [`embed`] provides a deterministic hashed bag-of-features
//!    embedding with cosine similarity that plays the same role offline (see
//!    the README's "Stand-ins for the paper's data and services" section for
//!    the substitution rationale).
//!
//! Everything here is corpus-agnostic: documents are just `(id, text fields)`
//! pairs, so the module is reusable for any document collection.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bm25;
pub mod embed;
pub mod inverted;
pub mod keyphrase;
pub mod similarity;
pub mod tfidf;
pub mod tokenize;
pub mod vocab;

pub use bm25::{Bm25Index, Bm25Params};
pub use embed::{EmbeddingModel, EmbeddingParams};
pub use inverted::InvertedIndex;
pub use keyphrase::{extract_keyphrases, KeyphraseConfig};
pub use tfidf::TfIdfIndex;
pub use tokenize::{tokenize, Token};
pub use vocab::Vocabulary;

/// A document identifier inside a text index.  This mirrors the dense paper
/// ids used by `rpg-corpus`, but the index layer does not depend on the
/// corpus layer.
pub type DocId = u32;
