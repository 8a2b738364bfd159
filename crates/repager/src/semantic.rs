//! Semantic augmentation of the NEWST cost functions (the paper's stated
//! future-work extension).
//!
//! Section IV-B notes that the cost functions "can be revised … to
//! incorporate more valuable information", explicitly suggesting "the
//! semantic information of the main text" as future work.  This module
//! implements that extension: a deterministic text-embedding model scores the
//! semantic similarity between two papers, and the Eq. (2) edge cost is
//! divided by `1 + blend · sim(i, j)` so that citation edges between papers
//! that also *talk about the same things* become cheaper.  The pipeline is
//! otherwise unchanged, so the extension can be compared against plain NEWST
//! with the same evaluation harness (see the `semantic_blend` ablation in
//! the repository's examples).

use crate::artifacts::CorpusArtifacts;
use crate::config::RepagerConfig;
use crate::newst::{self, NewstForest};
use crate::path::{self, ReadingPath};
use crate::seeds::{reallocate, TerminalSelection};
use crate::subgraph::SubGraph;
use crate::system::{PathRequest, RepagerError};
use rpg_corpus::{Corpus, PaperId};
use rpg_engines::Query;
use rpg_graph::GraphError;
use rpg_textindex::embed::{EmbeddingModel, EmbeddingParams};
use rpg_textindex::similarity::cosine;

/// Pre-computed semantic similarities between corpus papers.
#[derive(Debug, Clone)]
pub struct SemanticSimilarity {
    embeddings: Vec<Vec<f64>>,
}

impl SemanticSimilarity {
    /// Fits the embedding model on every paper's title + abstract and
    /// pre-computes the document embeddings.
    pub fn build(corpus: &Corpus) -> Self {
        Self::build_with_params(corpus, EmbeddingParams::default())
    }

    /// Builds with explicit embedding parameters.
    pub fn build_with_params(corpus: &Corpus, params: EmbeddingParams) -> Self {
        let mut model = EmbeddingModel::new(params);
        let texts: Vec<String> = corpus.papers().iter().map(|p| p.indexed_text()).collect();
        model.fit(texts.iter().map(String::as_str));
        let embeddings = texts.iter().map(|t| model.embed(t)).collect();
        SemanticSimilarity { embeddings }
    }

    /// Semantic similarity between two papers, in `[0, 1]` for practical
    /// inputs (cosine of non-negative feature vectors).
    pub fn similarity(&self, a: PaperId, b: PaperId) -> f64 {
        match (
            self.embeddings.get(a.index()),
            self.embeddings.get(b.index()),
        ) {
            (Some(ea), Some(eb)) => cosine(ea, eb).max(0.0),
            _ => 0.0,
        }
    }

    /// Number of embedded papers.
    pub fn len(&self) -> usize {
        self.embeddings.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.embeddings.is_empty()
    }
}

/// Rescales every edge cost of a sub-graph by `1 / (1 + blend · sim)`, making
/// semantically related papers cheaper to connect.  `blend = 0` leaves the
/// graph unchanged; the useful range is roughly `0.5 – 4`.
pub fn apply_semantic_blend(
    subgraph: &mut SubGraph,
    semantic: &SemanticSimilarity,
    blend: f64,
) -> Result<(), GraphError> {
    if blend == 0.0 {
        return Ok(());
    }
    if !(blend.is_finite() && blend >= 0.0) {
        return Err(GraphError::InvalidWeight {
            what: format!("semantic blend {blend}"),
        });
    }
    let edges: Vec<(rpg_graph::NodeId, rpg_graph::NodeId, f64)> =
        subgraph.weighted.edges().collect();
    for (a, b, cost) in edges {
        let sim = semantic.similarity(subgraph.paper_of(a), subgraph.paper_of(b));
        subgraph
            .weighted
            .set_edge_cost(a, b, cost / (1.0 + blend * sim))?;
    }
    Ok(())
}

/// The output of a semantically augmented run (a subset of
/// [`crate::system::RepagerOutput`]).
#[derive(Debug, Clone)]
pub struct SemanticOutput {
    /// The flattened reading list (tree papers, most co-cited first).
    pub reading_list: Vec<PaperId>,
    /// The structured reading path.
    pub path: ReadingPath,
    /// The Steiner forest behind the path.
    pub forest: NewstForest,
    /// Sub-graph size after augmentation.
    pub subgraph_nodes: usize,
}

/// Runs the RePaGer pipeline with semantically blended edge costs.
///
/// The stages are identical to [`CorpusArtifacts::generate`] except that the
/// sub-graph's edge costs are rescaled by the semantic similarity before the
/// Steiner stage.  Only the full-NEWST variant is supported (the extension
/// targets the model, not its ablations).
pub fn generate_with_semantics(
    system: &CorpusArtifacts,
    request: &PathRequest<'_>,
    semantic: &SemanticSimilarity,
    blend: f64,
) -> Result<SemanticOutput, RepagerError> {
    request.config.validate()?;
    let config: RepagerConfig = request.config;
    let corpus = system.corpus();

    let seeds = system.scholar().seed_papers(&Query {
        text: request.query,
        top_k: config.seed_count,
        max_year: request.max_year,
        exclude: request.exclude,
    });
    if seeds.is_empty() {
        return Ok(SemanticOutput {
            reading_list: Vec::new(),
            path: ReadingPath::default(),
            forest: NewstForest::default(),
            subgraph_nodes: 0,
        });
    }

    let mut subgraph = SubGraph::build(
        corpus,
        system.node_weights(),
        &seeds,
        &config,
        request.max_year,
        request.exclude,
    )?;
    apply_semantic_blend(&mut subgraph, semantic, blend)?;

    let allocation = reallocate(corpus, &subgraph, &seeds, &config);
    let terminals = allocation.terminals(TerminalSelection::Reallocated, &config);
    let forest = newst::solve(&subgraph, &terminals)?;
    let reading_path = path::assemble(corpus, &forest);

    // Reading list: tree papers ranked by co-occurrence (ties by paper id),
    // truncated to the requested length.
    let mut reading_list = forest.papers();
    reading_list.sort_by_key(|p| {
        (
            std::cmp::Reverse(allocation.cooccurrence.get(p).copied().unwrap_or(0)),
            *p,
        )
    });
    reading_list.truncate(request.top_k);

    Ok(SemanticOutput {
        reading_list,
        path: reading_path,
        forest,
        subgraph_nodes: subgraph.node_count(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variants::Variant;
    use crate::weights::NodeWeights;
    use rpg_corpus::{generate, CorpusConfig};
    use rpg_graph::pagerank::pagerank_default;

    fn corpus() -> Corpus {
        generate(&CorpusConfig {
            seed: 141,
            ..CorpusConfig::small()
        })
    }

    #[test]
    fn similarity_is_high_for_same_topic_papers() {
        let c = corpus();
        let sem = SemanticSimilarity::build(&c);
        assert_eq!(sem.len(), c.len());
        assert!(!sem.is_empty());
        // Two papers of the same topic should be more similar than two papers
        // of unrelated topics, on average over a few samples.
        let by_topic = |topic: rpg_corpus::TopicId| -> Vec<PaperId> {
            c.research_papers()
                .iter()
                .filter(|p| p.topic == topic)
                .take(3)
                .map(|p| p.id)
                .collect()
        };
        let t0 = c.papers()[0].topic;
        let other = c
            .papers()
            .iter()
            .find(|p| p.topic != t0)
            .map(|p| p.topic)
            .unwrap();
        let same = by_topic(t0);
        let different = by_topic(other);
        if same.len() >= 2 && !different.is_empty() {
            let within = sem.similarity(same[0], same[1]);
            let across = sem.similarity(same[0], different[0]);
            assert!(
                within >= across,
                "within-topic {within} < across-topic {across}"
            );
        }
        assert_eq!(sem.similarity(PaperId(u32::MAX), PaperId(0)), 0.0);
    }

    #[test]
    fn blending_never_increases_edge_costs() {
        let c = corpus();
        let sem = SemanticSimilarity::build(&c);
        let pr = pagerank_default(c.graph()).unwrap();
        let nw = NodeWeights::build(&c, &pr);
        let seeds: Vec<PaperId> = c.research_papers().iter().take(10).map(|p| p.id).collect();
        let config = RepagerConfig::default();
        let mut blended = SubGraph::build(&c, &nw, &seeds, &config, None, &[]).unwrap();
        let original = blended.clone();
        apply_semantic_blend(&mut blended, &sem, 2.0).unwrap();
        let mut checked = 0;
        for (a, b, cost) in original.weighted.edges().take(200) {
            let new_cost = blended.weighted.edge_cost(a, b).unwrap();
            assert!(new_cost <= cost + 1e-12);
            checked += 1;
        }
        assert!(checked > 0);
    }

    #[test]
    fn zero_blend_is_identity_and_invalid_blend_errors() {
        let c = corpus();
        let sem = SemanticSimilarity::build(&c);
        let pr = pagerank_default(c.graph()).unwrap();
        let nw = NodeWeights::build(&c, &pr);
        let seeds: Vec<PaperId> = c.research_papers().iter().take(8).map(|p| p.id).collect();
        let config = RepagerConfig::default();
        let mut sg = SubGraph::build(&c, &nw, &seeds, &config, None, &[]).unwrap();
        let before: Vec<_> = sg.weighted.edges().collect();
        apply_semantic_blend(&mut sg, &sem, 0.0).unwrap();
        let after: Vec<_> = sg.weighted.edges().collect();
        assert_eq!(before.len(), after.len());
        for (x, y) in before.iter().zip(after.iter()) {
            assert!((x.2 - y.2).abs() < 1e-12);
        }
        assert!(apply_semantic_blend(&mut sg, &sem, f64::NAN).is_err());
        assert!(apply_semantic_blend(&mut sg, &sem, -1.0).is_err());
    }

    #[test]
    fn semantic_generation_produces_a_consistent_path() {
        let system = CorpusArtifacts::build(corpus()).unwrap();
        let c = system.corpus();
        let sem = SemanticSimilarity::build(c);
        let survey = c.survey_bank().iter().next().unwrap();
        let exclude = [survey.paper];
        let request = PathRequest {
            query: &survey.query,
            top_k: 25,
            max_year: Some(survey.year),
            exclude: &exclude,
            config: RepagerConfig::default(),
            variant: Variant::Newst,
        };
        let output = generate_with_semantics(&system, &request, &sem, 2.0).unwrap();
        assert!(!output.reading_list.is_empty());
        assert!(output.path.is_consistent());
        assert!(output.subgraph_nodes > 0);
        assert!(!output.reading_list.contains(&survey.paper));
    }

    #[test]
    fn empty_query_yields_empty_semantic_output() {
        let system = CorpusArtifacts::build(corpus()).unwrap();
        let sem = SemanticSimilarity::build(system.corpus());
        let request = PathRequest::new("zzz qqq", 10);
        let output = generate_with_semantics(&system, &request, &sem, 1.0).unwrap();
        assert!(output.reading_list.is_empty());
        assert!(output.path.is_empty());
    }
}
