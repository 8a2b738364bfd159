//! The end-to-end RePaGer system (Fig. 6 of the paper).
//!
//! [`RePaGer`] is the borrowing facade over the staged pipeline of
//! [`crate::stages`]: seed retrieval, weighted citation graph, sub-graph
//! construction, seed reallocation, and NEWST.  Its output carries the
//! structured [`ReadingPath`] (what the web UI of Section V renders), a
//! flattened ranked *reading list* (what the overlap-metric evaluation of
//! Section VI consumes), and per-stage [`StageTimings`].
//!
//! For an owned, thread-shareable handle over the same pipeline (plus batch
//! execution and result caching), see `rpg-service::PathService`.

use crate::config::RepagerConfig;
use crate::newst::NewstForest;
use crate::path::ReadingPath;
use crate::scratch::PipelineScratch;
use crate::seeds::SeedAllocation;
use crate::stages::StageTimings;
use crate::variants::Variant;
use crate::weights::NodeWeights;
use rpg_corpus::{Corpus, PaperId};
use rpg_engines::{EngineIndex, ScholarEngine};
use rpg_graph::pagerank::pagerank_default;
use rpg_graph::GraphError;

/// An error serving a reading-path request: either the request's
/// configuration failed validation, or a graph construction/algorithm step
/// failed.
#[derive(Debug, Clone, PartialEq)]
pub enum RepagerError {
    /// The request's [`RepagerConfig`] is invalid.
    Config(crate::config::ConfigError),
    /// A graph-layer failure (sub-graph construction, Steiner solve, ...).
    Graph(GraphError),
    /// The request's cooperative wall-clock budget (armed via
    /// [`PipelineScratch::set_deadline`](crate::scratch::PipelineScratch::set_deadline))
    /// expired between pipeline stages; the remaining stages were shed.
    DeadlineExceeded,
}

impl std::fmt::Display for RepagerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RepagerError::Config(e) => write!(f, "invalid configuration: {e}"),
            RepagerError::Graph(e) => write!(f, "graph error: {e}"),
            RepagerError::DeadlineExceeded => {
                write!(f, "deadline exceeded between pipeline stages")
            }
        }
    }
}

impl std::error::Error for RepagerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RepagerError::Config(e) => Some(e),
            RepagerError::Graph(e) => Some(e),
            RepagerError::DeadlineExceeded => None,
        }
    }
}

impl From<crate::config::ConfigError> for RepagerError {
    fn from(e: crate::config::ConfigError) -> Self {
        RepagerError::Config(e)
    }
}

impl From<GraphError> for RepagerError {
    fn from(e: GraphError) -> Self {
        RepagerError::Graph(e)
    }
}

/// A reading-path generation request.
#[derive(Debug, Clone)]
pub struct PathRequest<'a> {
    /// The query (key phrases joined by spaces).
    pub query: &'a str,
    /// Number of papers wanted in the flattened reading list.
    pub top_k: usize,
    /// Only papers published in or before this year are considered.
    pub max_year: Option<u16>,
    /// Papers excluded from every stage (e.g. the originating survey).
    pub exclude: &'a [PaperId],
    /// Model parameters.
    pub config: RepagerConfig,
    /// Which model variant to run.
    pub variant: Variant,
}

impl<'a> PathRequest<'a> {
    /// A request with default configuration and the full NEWST model.
    pub fn new(query: &'a str, top_k: usize) -> Self {
        PathRequest {
            query,
            top_k,
            max_year: None,
            exclude: &[],
            config: RepagerConfig::default(),
            variant: Variant::Newst,
        }
    }
}

/// The output of a RePaGer run.
#[derive(Debug, Clone)]
pub struct RepagerOutput {
    /// The flattened, ranked reading list (up to `top_k` papers).
    pub reading_list: Vec<PaperId>,
    /// The structured reading path (empty for the NEWST-C variant, which
    /// cannot generate one).
    pub path: ReadingPath,
    /// The Steiner forest behind the path.
    pub forest: NewstForest,
    /// Seed allocation details (initial seeds, reallocated seeds,
    /// co-occurrence counts).
    pub seeds: SeedAllocation,
    /// Number of nodes in the sub-citation graph.
    pub subgraph_nodes: usize,
    /// Number of edges in the sub-citation graph.
    pub subgraph_edges: usize,
    /// Per-stage and total wall-clock time spent generating the result.
    pub timings: StageTimings,
}

impl RepagerOutput {
    /// Total wall-clock time of the request (shorthand for
    /// `timings.total`).
    pub fn elapsed(&self) -> std::time::Duration {
        self.timings.total
    }

    /// Whether two outputs carry the same result (everything except the
    /// wall-clock timings, which never repeat exactly).
    pub fn same_result(&self, other: &RepagerOutput) -> bool {
        self.reading_list == other.reading_list
            && self.path == other.path
            && self.forest == other.forest
            && self.seeds == other.seeds
            && self.subgraph_nodes == other.subgraph_nodes
            && self.subgraph_edges == other.subgraph_edges
    }
}

/// The RePaGer system bound to a corpus.
pub struct RePaGer<'c> {
    corpus: &'c Corpus,
    scholar: ScholarEngine,
    node_weights: NodeWeights,
}

impl<'c> RePaGer<'c> {
    /// Builds the system: computes global PageRank (Step 2's node weights)
    /// and the seed search engine over the corpus's text index.
    ///
    /// Errors if the corpus graph rejects the PageRank computation.
    pub fn build(corpus: &'c Corpus) -> Result<Self, GraphError> {
        let index = EngineIndex::build(corpus);
        Self::with_engine(corpus, ScholarEngine::from_index(index))
    }

    /// Builds the system around a given seed engine (e.g. one whose engine
    /// index the baselines share).
    ///
    /// Errors if the corpus graph rejects the PageRank computation.
    pub fn with_engine(corpus: &'c Corpus, scholar: ScholarEngine) -> Result<Self, GraphError> {
        let pagerank = pagerank_default(corpus.graph())?;
        let node_weights = NodeWeights::build(corpus, &pagerank);
        Ok(RePaGer {
            corpus,
            scholar,
            node_weights,
        })
    }

    /// The corpus the system is bound to.
    pub fn corpus(&self) -> &Corpus {
        self.corpus
    }

    /// The node-weight table (exposed for diagnostics and rendering).
    pub fn node_weights(&self) -> &NodeWeights {
        &self.node_weights
    }

    /// The seed engine.
    pub fn scholar(&self) -> &ScholarEngine {
        &self.scholar
    }

    /// Generates a reading path and reading list for a request with a fresh
    /// pipeline workspace.
    pub fn generate(&self, request: &PathRequest<'_>) -> Result<RepagerOutput, RepagerError> {
        let mut scratch = PipelineScratch::new();
        self.generate_with_scratch(request, &mut scratch)
    }

    /// Generates a reading path reusing a caller-provided pipeline workspace
    /// (the serving layer holds one per worker thread).
    pub fn generate_with_scratch(
        &self,
        request: &PathRequest<'_>,
        scratch: &mut PipelineScratch,
    ) -> Result<RepagerOutput, RepagerError> {
        crate::stages::serve_request(
            self.corpus,
            &self.scholar,
            &self.node_weights,
            request,
            scratch,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpg_corpus::{generate, CorpusConfig, LabelLevel};
    use std::time::Duration;

    fn corpus() -> Corpus {
        generate(&CorpusConfig {
            seed: 101,
            ..CorpusConfig::small()
        })
    }

    fn first_survey_request<'a>(
        _corpus: &'a Corpus,
        query: &'a str,
        exclude: &'a [PaperId],
        year: u16,
    ) -> PathRequest<'a> {
        PathRequest {
            query,
            top_k: 30,
            max_year: Some(year),
            exclude,
            config: RepagerConfig::default(),
            variant: Variant::Newst,
        }
    }

    #[test]
    fn generates_a_consistent_reading_path() {
        let c = corpus();
        let system = RePaGer::build(&c).unwrap();
        let survey = c.survey_bank().iter().next().unwrap();
        let exclude = [survey.paper];
        let request = first_survey_request(&c, &survey.query, &exclude, survey.year);
        let output = system.generate(&request).unwrap();
        assert!(!output.reading_list.is_empty());
        assert!(output.reading_list.len() <= 30);
        assert!(output.path.is_consistent());
        assert!(!output.reading_list.contains(&survey.paper));
        assert!(output.subgraph_nodes > 0 && output.subgraph_edges > 0);
        for &p in &output.reading_list {
            assert!(c.year(p) <= survey.year);
        }
    }

    #[test]
    fn reading_list_overlaps_ground_truth_better_than_chance() {
        let c = corpus();
        let system = RePaGer::build(&c).unwrap();
        let mut hits = 0usize;
        let mut evaluated = 0usize;
        for survey in c.survey_bank().iter().take(6) {
            let exclude = [survey.paper];
            let request = first_survey_request(&c, &survey.query, &exclude, survey.year);
            let output = system.generate(&request).unwrap();
            let truth: std::collections::HashSet<_> =
                survey.label(LabelLevel::AtLeastOne).into_iter().collect();
            hits += output
                .reading_list
                .iter()
                .filter(|p| truth.contains(p))
                .count();
            evaluated += 1;
        }
        assert!(evaluated > 0);
        assert!(hits > 0, "NEWST never hit a single ground-truth reference");
    }

    #[test]
    fn variants_produce_different_lists() {
        let c = corpus();
        let system = RePaGer::build(&c).unwrap();
        let survey = c.survey_bank().iter().next().unwrap();
        let exclude = [survey.paper];
        let mut lists = Vec::new();
        for variant in [
            Variant::Newst,
            Variant::NoReallocation,
            Variant::CandidatesOnly,
        ] {
            let request = PathRequest {
                variant,
                ..first_survey_request(&c, &survey.query, &exclude, survey.year)
            };
            lists.push(system.generate(&request).unwrap().reading_list);
        }
        assert!(lists.iter().any(|l| l != &lists[0]) || !lists[0].is_empty());
        // NEWST-C never produces a path.
        let request = PathRequest {
            variant: Variant::CandidatesOnly,
            ..first_survey_request(&c, &survey.query, &exclude, survey.year)
        };
        let output = system.generate(&request).unwrap();
        assert!(output.path.is_empty());
        assert!(output.forest.is_empty());
    }

    #[test]
    fn top_k_controls_list_length() {
        let c = corpus();
        let system = RePaGer::build(&c).unwrap();
        let survey = c.survey_bank().iter().next().unwrap();
        let exclude = [survey.paper];
        for k in [5usize, 20, 50] {
            let request = PathRequest {
                top_k: k,
                ..first_survey_request(&c, &survey.query, &exclude, survey.year)
            };
            let output = system.generate(&request).unwrap();
            assert!(output.reading_list.len() <= k);
            if output.subgraph_nodes >= k {
                assert_eq!(
                    output.reading_list.len(),
                    k,
                    "list should be padded up to K"
                );
            }
        }
    }

    #[test]
    fn nonsense_query_yields_empty_output() {
        let c = corpus();
        let system = RePaGer::build(&c).unwrap();
        let request = PathRequest::new("zzzzz qqqqq xxxxx", 20);
        let output = system.generate(&request).unwrap();
        assert!(output.reading_list.is_empty());
        assert!(output.path.is_empty());
    }

    #[test]
    fn invalid_config_is_rejected() {
        let c = corpus();
        let system = RePaGer::build(&c).unwrap();
        let survey = c.survey_bank().iter().next().unwrap();
        let request = PathRequest {
            config: RepagerConfig {
                seed_count: 0,
                ..Default::default()
            },
            ..PathRequest::new(&survey.query, 20)
        };
        // The typed configuration error survives to the caller.
        assert!(matches!(
            system.generate(&request),
            Err(RepagerError::Config(
                crate::config::ConfigError::ZeroCount { name: "seed_count" }
            ))
        ));
    }

    #[test]
    fn stage_timings_are_recorded() {
        let c = corpus();
        let system = RePaGer::build(&c).unwrap();
        let survey = c.survey_bank().iter().next().unwrap();
        let output = system
            .generate(&PathRequest::new(&survey.query, 20))
            .unwrap();
        assert!(output.timings.total > Duration::ZERO);
        assert_eq!(output.elapsed(), output.timings.total);
        // Every stage that ran must have a recorded duration, and the stages
        // must account for (almost) all of the total.
        assert!(output.timings.stage_sum() <= output.timings.total);
        for (name, duration) in output.timings.stages() {
            assert!(
                duration > Duration::ZERO,
                "stage {name} has no recorded time"
            );
        }
    }

    #[test]
    fn larger_seed_count_does_not_shrink_the_subgraph() {
        let c = corpus();
        let system = RePaGer::build(&c).unwrap();
        let survey = c.survey_bank().iter().next().unwrap();
        let small = system
            .generate(&PathRequest {
                config: RepagerConfig::default().with_seed_count(10),
                ..PathRequest::new(&survey.query, 20)
            })
            .unwrap();
        let large = system
            .generate(&PathRequest {
                config: RepagerConfig::default().with_seed_count(40),
                ..PathRequest::new(&survey.query, 20)
            })
            .unwrap();
        assert!(large.subgraph_nodes >= small.subgraph_nodes);
    }
}
