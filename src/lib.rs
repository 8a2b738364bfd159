//! Workspace-level prelude for the Reading Path Generation reproduction.
//!
//! The examples and integration tests of the repository use this tiny crate
//! as a single import surface over the workspace: corpus generation, the
//! simulated search engines, the RePaGer system, and the evaluation harness.
//! Library users should depend on the individual crates (`rpg-corpus`,
//! `rpg-repager`, ...) directly; this crate only exists so that
//! `examples/*.rs` and `tests/*.rs` at the repository root stay short.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use rpg_corpus as corpus;
pub use rpg_engines as engines;
pub use rpg_eval as eval;
pub use rpg_graph as graph;
pub use rpg_repager as repager;
pub use rpg_service as service;
pub use rpg_textindex as textindex;

use rpg_corpus::{generate, Corpus, CorpusConfig};
use rpg_repager::CorpusArtifacts;
use std::sync::Arc;

/// Generates the small demonstration corpus used by the examples and the
/// integration tests (about 1.2k papers, 50 surveys; deterministic).
/// Returned behind an `Arc` so artifacts, registries and experiment
/// contexts share it without copying.
pub fn demo_corpus() -> Arc<Corpus> {
    Arc::new(generate(&CorpusConfig {
        seed: 0xDE40,
        ..CorpusConfig::small()
    }))
}

/// Generates the full-scale corpus used by the benchmark harness (about 5k
/// papers, 80+ surveys; deterministic).
pub fn full_corpus() -> Arc<Corpus> {
    Arc::new(generate(&CorpusConfig::default()))
}

/// Builds the [`CorpusArtifacts`] of the demonstration corpus: the one-line
/// way to run queries from examples and tests.
pub fn demo_artifacts() -> Arc<CorpusArtifacts> {
    CorpusArtifacts::build(demo_corpus()).expect("demo corpus artifacts build")
}
