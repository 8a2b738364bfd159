//! Owned, shareable per-corpus artifacts.
//!
//! Everything the query pipeline needs that is a pure function of the corpus
//! — the engine index, the seed engine, global PageRank, and the Eq. (3)
//! node-weight table — is built once into a [`CorpusArtifacts`] and shared
//! across threads behind an `Arc`. The borrowing [`crate::system::RePaGer`]
//! facade recomputes these per instance; the serving layer
//! (`rpg-service::PathService`) holds an `Arc<CorpusArtifacts>` so concurrent
//! requests pay the build cost exactly once.

use crate::weights::NodeWeights;
use rpg_corpus::Corpus;
use rpg_engines::{EngineIndex, ScholarEngine};
use rpg_graph::pagerank::{pagerank_default, PageRankScores};
use rpg_graph::GraphError;
use std::sync::Arc;

/// The immutable per-corpus state shared by every request.
#[derive(Debug)]
pub struct CorpusArtifacts {
    corpus: Arc<Corpus>,
    index: Arc<EngineIndex>,
    scholar: ScholarEngine,
    pagerank: PageRankScores,
    node_weights: NodeWeights,
}

impl CorpusArtifacts {
    /// Builds all artifacts for a corpus: engine index, seed engine, global
    /// PageRank, and node weights.
    ///
    /// PageRank runs on a scoped thread named `rpg-pagerank` while the
    /// calling thread builds the text index; the two read the corpus and
    /// nothing else, so the result is bit-identical to
    /// [`CorpusArtifacts::with_index`] over [`EngineIndex::build`]. If the
    /// thread cannot be spawned, PageRank runs after the index instead.
    ///
    /// Errors if the corpus graph rejects the PageRank computation.
    pub fn build(corpus: impl Into<Arc<Corpus>>) -> Result<Arc<Self>, GraphError> {
        let corpus = corpus.into();
        let (index, pagerank) = std::thread::scope(|scope| {
            let pagerank = std::thread::Builder::new()
                .name("rpg-pagerank".to_string())
                .spawn_scoped(scope, || pagerank_default(corpus.graph()));
            let index = EngineIndex::build(&corpus);
            let pagerank = match pagerank {
                Ok(thread) => thread
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
                Err(_) => pagerank_default(corpus.graph()),
            };
            (index, pagerank)
        });
        Ok(Self::assemble(corpus, index, pagerank?))
    }

    /// Builds the artifacts reusing an existing shared engine index (avoids
    /// re-indexing when baselines share the same corpus).
    pub fn with_index(
        corpus: Arc<Corpus>,
        index: Arc<EngineIndex>,
    ) -> Result<Arc<Self>, GraphError> {
        let pagerank = pagerank_default(corpus.graph())?;
        Ok(Self::assemble(corpus, index, pagerank))
    }

    /// Reassembles the artifacts from persisted parts (e.g. a decoded
    /// snapshot): the corpus, the engine index, and the PageRank scores are
    /// taken as-is; only the cheap derivations (seed engine, node weights)
    /// are recomputed.
    ///
    /// Errors if the score vector does not cover the corpus — the one
    /// cross-part invariant this layer can check cheaply.
    pub fn from_parts(
        corpus: Arc<Corpus>,
        index: Arc<EngineIndex>,
        pagerank: PageRankScores,
    ) -> Result<Arc<Self>, GraphError> {
        if pagerank.scores.len() != corpus.len() {
            return Err(GraphError::InvalidWeight {
                what: format!(
                    "{} PageRank scores for {} papers",
                    pagerank.scores.len(),
                    corpus.len()
                ),
            });
        }
        Ok(Self::assemble(corpus, index, pagerank))
    }

    /// The one assembly every constructor ends in: derives the seed engine
    /// and the node weights from the index and the scores.
    fn assemble(
        corpus: Arc<Corpus>,
        index: Arc<EngineIndex>,
        pagerank: PageRankScores,
    ) -> Arc<Self> {
        let scholar = ScholarEngine::from_index(index.clone());
        let node_weights = NodeWeights::build(&corpus, &pagerank);
        Arc::new(CorpusArtifacts {
            corpus,
            index,
            scholar,
            pagerank,
            node_weights,
        })
    }

    /// The corpus the artifacts were built from.
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// The corpus as a shareable handle.
    pub fn corpus_arc(&self) -> Arc<Corpus> {
        self.corpus.clone()
    }

    /// The shared lexical engine index.
    pub fn index(&self) -> &Arc<EngineIndex> {
        &self.index
    }

    /// The seed search engine (Step 1).
    pub fn scholar(&self) -> &ScholarEngine {
        &self.scholar
    }

    /// Global PageRank scores (Step 2).
    pub fn pagerank(&self) -> &PageRankScores {
        &self.pagerank
    }

    /// The Eq. (3) node-weight table.
    pub fn node_weights(&self) -> &NodeWeights {
        &self.node_weights
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpg_corpus::{generate, CorpusConfig};

    #[test]
    fn artifacts_are_shareable_and_complete() {
        let corpus = generate(&CorpusConfig {
            seed: 31,
            ..CorpusConfig::small()
        });
        let n = corpus.len();
        let artifacts = CorpusArtifacts::build(corpus).unwrap();
        assert_eq!(artifacts.corpus().len(), n);
        assert_eq!(artifacts.index().len(), n);
        assert_eq!(artifacts.node_weights().len(), n);
        assert!(artifacts.pagerank().scores.len() == n);
        // Sharing across threads only needs the Arc to be Send + Sync.
        fn assert_send_sync<T: Send + Sync>(_: &T) {}
        assert_send_sync(&artifacts);
        let clone = artifacts.clone();
        std::thread::spawn(move || clone.corpus().len())
            .join()
            .unwrap();
    }

    #[test]
    fn the_threaded_build_equals_the_sequential_one() {
        // The demonstration corpus (`rpg_repro::demo_corpus`).
        let corpus = Arc::new(generate(&CorpusConfig {
            seed: 0xDE40,
            ..CorpusConfig::small()
        }));
        let threaded = CorpusArtifacts::build(corpus.clone()).unwrap();
        let sequential =
            CorpusArtifacts::with_index(corpus.clone(), EngineIndex::build(&corpus)).unwrap();
        let bits = |scores: &[f64]| scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&threaded.pagerank().scores),
            bits(&sequential.pagerank().scores)
        );
        assert_eq!(
            threaded.pagerank().iterations,
            sequential.pagerank().iterations
        );
        assert_eq!(
            threaded.pagerank().delta.to_bits(),
            sequential.pagerank().delta.to_bits()
        );
        let (a, b) = (threaded.node_weights(), sequential.node_weights());
        assert_eq!(a.len(), corpus.len());
        assert_eq!(b.len(), corpus.len());
        for i in 0..corpus.len() {
            let id = rpg_corpus::PaperId(i as u32);
            assert_eq!(a.pagerank(id).to_bits(), b.pagerank(id).to_bits(), "{i}");
            assert_eq!(a.venue(id).to_bits(), b.venue(id).to_bits(), "{i}");
        }
    }

    #[test]
    fn from_parts_matches_a_full_build() {
        let corpus = generate(&CorpusConfig {
            seed: 31,
            ..CorpusConfig::small()
        });
        let built = CorpusArtifacts::build(corpus).unwrap();
        let rebuilt = CorpusArtifacts::from_parts(
            built.corpus_arc(),
            built.index().clone(),
            built.pagerank().clone(),
        )
        .unwrap();
        assert_eq!(rebuilt.pagerank(), built.pagerank());
        assert_eq!(rebuilt.node_weights().len(), built.node_weights().len());
        for i in 0..built.corpus().len() {
            let id = rpg_corpus::PaperId(i as u32);
            assert_eq!(
                rebuilt.node_weights().pagerank(id),
                built.node_weights().pagerank(id)
            );
            assert_eq!(
                rebuilt.node_weights().venue(id),
                built.node_weights().venue(id)
            );
        }
    }

    #[test]
    fn from_parts_rejects_mismatched_scores() {
        let corpus = generate(&CorpusConfig {
            seed: 31,
            ..CorpusConfig::small()
        });
        let built = CorpusArtifacts::build(corpus).unwrap();
        let mut pagerank = built.pagerank().clone();
        pagerank.scores.pop();
        let err = CorpusArtifacts::from_parts(built.corpus_arc(), built.index().clone(), pagerank)
            .unwrap_err();
        assert!(matches!(err, GraphError::InvalidWeight { .. }));
    }
}
