//! The end-to-end RePaGer system (Fig. 6 of the paper): its request, output
//! and error types.
//!
//! [`CorpusArtifacts::generate`](crate::artifacts::CorpusArtifacts::generate)
//! runs a [`PathRequest`] through the staged pipeline of [`crate::stages`]:
//! seed retrieval, weighted citation graph, sub-graph construction, seed
//! reallocation, and NEWST.  Its [`RepagerOutput`] carries the structured
//! [`ReadingPath`] (what the web UI of Section V renders), a flattened ranked
//! *reading list* (what the overlap-metric evaluation of Section VI
//! consumes), and per-stage [`StageTimings`].

use crate::config::RepagerConfig;
use crate::newst::NewstForest;
use crate::path::ReadingPath;
use crate::seeds::SeedAllocation;
use crate::stages::StageTimings;
use crate::variants::Variant;
use rpg_corpus::PaperId;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifacts::CorpusArtifacts;
    use crate::scratch::PipelineScratch;
    use rpg_corpus::{generate, CorpusConfig, LabelLevel};
    use std::sync::Arc;
    use std::time::Duration;

    fn system() -> Arc<CorpusArtifacts> {
        CorpusArtifacts::build(generate(&CorpusConfig {
            seed: 101,
            ..CorpusConfig::small()
        }))
        .unwrap()
    }

    fn run(
        system: &CorpusArtifacts,
        request: &PathRequest<'_>,
    ) -> Result<RepagerOutput, RepagerError> {
        system.generate(request, &mut PipelineScratch::new())
    }

    fn first_survey_request<'a>(
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
        let system = system();
        let c = system.corpus();
        let survey = c.survey_bank().iter().next().unwrap();
        let exclude = [survey.paper];
        let request = first_survey_request(&survey.query, &exclude, survey.year);
        let output = run(&system, &request).unwrap();
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
        let system = system();
        let c = system.corpus();
        let mut hits = 0usize;
        let mut evaluated = 0usize;
        for survey in c.survey_bank().iter().take(6) {
            let exclude = [survey.paper];
            let request = first_survey_request(&survey.query, &exclude, survey.year);
            let output = run(&system, &request).unwrap();
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
        let system = system();
        let c = system.corpus();
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
                ..first_survey_request(&survey.query, &exclude, survey.year)
            };
            lists.push(run(&system, &request).unwrap().reading_list);
        }
        assert!(lists.iter().any(|l| l != &lists[0]) || !lists[0].is_empty());
        // NEWST-C never produces a path.
        let request = PathRequest {
            variant: Variant::CandidatesOnly,
            ..first_survey_request(&survey.query, &exclude, survey.year)
        };
        let output = run(&system, &request).unwrap();
        assert!(output.path.is_empty());
        assert!(output.forest.is_empty());
    }

    #[test]
    fn top_k_controls_list_length() {
        let system = system();
        let c = system.corpus();
        let survey = c.survey_bank().iter().next().unwrap();
        let exclude = [survey.paper];
        for k in [5usize, 20, 50] {
            let request = PathRequest {
                top_k: k,
                ..first_survey_request(&survey.query, &exclude, survey.year)
            };
            let output = run(&system, &request).unwrap();
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
        let system = system();
        let request = PathRequest::new("zzzzz qqqqq xxxxx", 20);
        let output = run(&system, &request).unwrap();
        assert!(output.reading_list.is_empty());
        assert!(output.path.is_empty());
    }

    #[test]
    fn invalid_config_is_rejected() {
        let system = system();
        let c = system.corpus();
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
            run(&system, &request),
            Err(RepagerError::Config(
                crate::config::ConfigError::ZeroCount { name: "seed_count" }
            ))
        ));
    }

    #[test]
    fn stage_timings_are_recorded() {
        let system = system();
        let c = system.corpus();
        let survey = c.survey_bank().iter().next().unwrap();
        let output = run(&system, &PathRequest::new(&survey.query, 20)).unwrap();
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
        let system = system();
        let c = system.corpus();
        let survey = c.survey_bank().iter().next().unwrap();
        let small = run(
            &system,
            &PathRequest {
                config: RepagerConfig::default().with_seed_count(10),
                ..PathRequest::new(&survey.query, 20)
            },
        )
        .unwrap();
        let large = run(
            &system,
            &PathRequest {
                config: RepagerConfig::default().with_seed_count(40),
                ..PathRequest::new(&survey.query, 20)
            },
        )
        .unwrap();
        assert!(large.subgraph_nodes >= small.subgraph_nodes);
    }
}
