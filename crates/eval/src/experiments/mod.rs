//! One module per table/figure of the paper's evaluation section.
//!
//! | Module | Paper artefact |
//! |---|---|
//! | [`fig2_overlap`] | Fig. 2 — overlap ratio of 0th/1st/2nd-order neighbours of the engine's top-30/50 results |
//! | [`fig4_statistics`] | Fig. 4(a–c) + Table I — SurveyBank statistics and topic distribution |
//! | [`fig8_main`] | Fig. 8 — F1@K / P@K of NEWST vs. the five baselines |
//! | [`table2_seed_count`] | Table II — sensitivity to the number of initial seed papers |
//! | [`table3_ablation`] | Table III — seed-reallocation and weight ablations |
//! | [`table4_runtime`] | Table IV — running time vs. sub-graph size |
//! | [`table5_human`] | Table V — human evaluation (proxy judges) |
//! | [`fig9_case_study`] | Fig. 9 — qualitative reading path for a dense topic |
//!
//! Every module exposes `run(...) -> Report` returning a serialisable report
//! plus a `format(...)` helper that prints the same rows/series the paper
//! reports.  The Criterion benches in `rpg-bench` call these functions.

pub mod fig2_overlap;
pub mod fig4_statistics;
pub mod fig8_main;
pub mod fig9_case_study;
pub mod table2_seed_count;
pub mod table3_ablation;
pub mod table4_runtime;
pub mod table5_human;

use crate::benchmark::EvaluationSet;
use rpg_corpus::Corpus;
use rpg_engines::EngineIndex;
use rpg_repager::artifacts::CorpusArtifacts;
use std::sync::Arc;

/// Shared state for experiment runs: the evaluation set, the corpus
/// artifacts, and the shared engine index, built once per corpus.
pub struct ExperimentContext<'c> {
    /// The corpus under evaluation.
    pub corpus: &'c Corpus,
    /// The evaluation surveys.
    pub set: EvaluationSet,
    /// The corpus artifacts the reading paths run over (engine index,
    /// PageRank and node weights computed once, shared across the
    /// evaluation worker threads).
    pub system: Arc<CorpusArtifacts>,
    /// Shared lexical index for building the engine baselines.
    pub index: Arc<EngineIndex>,
    /// Number of worker threads used by the evaluation loops.
    pub threads: usize,
}

impl<'c> ExperimentContext<'c> {
    /// Builds a context evaluating on at most `max_surveys` surveys with at
    /// least `min_references` references.
    pub fn new(
        corpus: &'c Arc<Corpus>,
        min_references: usize,
        max_surveys: usize,
        threads: usize,
    ) -> Self {
        let set = EvaluationSet::select(corpus, min_references, max_surveys);
        let system = CorpusArtifacts::build(Arc::clone(corpus))
            .expect("corpus artifacts build on a valid corpus");
        let index = system.index().clone();
        ExperimentContext {
            corpus: corpus.as_ref(),
            set,
            system,
            index,
            threads: threads.max(1),
        }
    }

    /// A small context suitable for unit tests (few surveys, two threads).
    pub fn for_tests(corpus: &'c Arc<Corpus>) -> Self {
        Self::new(corpus, 10, 6, 2)
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use rpg_corpus::{generate, Corpus, CorpusConfig};

    /// A shared small corpus for experiment tests (regenerated per call; the
    /// generator is fast at this scale).
    pub fn test_corpus() -> std::sync::Arc<Corpus> {
        std::sync::Arc::new(generate(&CorpusConfig {
            seed: 2024,
            ..CorpusConfig::small()
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use test_support::test_corpus;

    #[test]
    fn context_builds_evaluation_set_and_system() {
        let corpus = test_corpus();
        let ctx = ExperimentContext::for_tests(&corpus);
        assert!(!ctx.set.is_empty());
        assert!(ctx.threads >= 1);
        assert_eq!(ctx.index.len(), corpus.len());
        // The system is usable.
        let survey = &ctx.set.surveys[0];
        let output = ctx
            .system
            .generate(
                &rpg_repager::system::PathRequest::new(&survey.query, 10),
                &mut rpg_repager::PipelineScratch::new(),
            )
            .unwrap();
        assert!(output.reading_list.len() <= 10);
    }
}
