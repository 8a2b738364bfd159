//! Owned, shareable per-corpus artifacts.
//!
//! Everything the query pipeline needs that is a pure function of the corpus
//! — the engine index, the seed engine, global PageRank, and the Eq. (3)
//! node-weight table — is built once into a [`CorpusArtifacts`] and shared
//! across threads behind an `Arc`, so concurrent requests pay the build cost
//! exactly once. [`CorpusArtifacts::generate`] runs one request over them;
//! the serving layer (`rpg-service::CorpusRegistry`) adds the result cache.
//!
//! The text index is not built here: it belongs to the corpus, which built
//! it when it was generated or decoded, and the engine index shares it. A
//! build is PageRank plus cheap per-paper columns.

use crate::scratch::PipelineScratch;
use crate::stages::{run_pipeline, StageContext};
use crate::system::{PathRequest, RepagerError, RepagerOutput};
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
    /// Builds all artifacts for a corpus: engine index (over the corpus's
    /// own text index), seed engine, global PageRank, and node weights.
    ///
    /// Errors if the corpus graph rejects the PageRank computation.
    pub fn build(corpus: impl Into<Arc<Corpus>>) -> Result<Arc<Self>, GraphError> {
        let corpus = corpus.into();
        let pagerank = pagerank_default(corpus.graph())?;
        Ok(Self::assemble(corpus, pagerank))
    }

    /// Reassembles the artifacts from persisted parts (e.g. a decoded
    /// snapshot): the corpus (with its text index) and the PageRank scores
    /// are taken as-is; only the cheap derivations (engine metadata
    /// columns, seed engine, node weights) are recomputed.
    ///
    /// Errors if the score vector does not cover the corpus — the one
    /// cross-part invariant this layer can check cheaply.
    pub fn from_parts(
        corpus: Arc<Corpus>,
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
        Ok(Self::assemble(corpus, pagerank))
    }

    /// The one assembly every constructor ends in: derives the engine
    /// index, the seed engine and the node weights from the corpus and the
    /// scores.
    fn assemble(corpus: Arc<Corpus>, pagerank: PageRankScores) -> Arc<Self> {
        let index = EngineIndex::build(&corpus);
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

    /// Generates a reading path and reading list for one request, uncached:
    /// validates the configuration, applies the variant and drives the five
    /// stages, reusing the caller's pipeline workspace.
    pub fn generate(
        &self,
        request: &PathRequest<'_>,
        scratch: &mut PipelineScratch,
    ) -> Result<RepagerOutput, RepagerError> {
        request.config.validate()?;
        let mut cx = StageContext {
            corpus: &self.corpus,
            scholar: &self.scholar,
            node_weights: &self.node_weights,
            request,
            config: request.variant.apply(request.config),
            scratch,
        };
        run_pipeline(&mut cx)
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
    fn from_parts_matches_a_full_build() {
        let corpus = generate(&CorpusConfig {
            seed: 31,
            ..CorpusConfig::small()
        });
        let built = CorpusArtifacts::build(corpus).unwrap();
        let rebuilt =
            CorpusArtifacts::from_parts(built.corpus_arc(), built.pagerank().clone()).unwrap();
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
        let err = CorpusArtifacts::from_parts(built.corpus_arc(), pagerank).unwrap_err();
        assert!(matches!(err, GraphError::InvalidWeight { .. }));
    }
}
