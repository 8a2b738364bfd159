//! The per-survey evaluation loop.
//!
//! Every method under comparison — the three simulated search engines, the
//! PageRank and semantic baselines, and every NEWST variant — is wrapped in
//! the [`ListMethod`] trait: *given a survey's query, produce a ranked paper
//! list of a requested length, restricted to papers published before the
//! survey and excluding the survey itself*.  The evaluation loop runs each
//! method once per survey at the maximum K and derives the metrics for every
//! smaller K by truncation (the ranking does not depend on K), exactly as the
//! Fig. 8 sweep requires.

use crate::metrics::{mean, overlap};
use rpg_corpus::{Corpus, LabelLevel, PaperId, Survey};
use rpg_engines::{Query, SearchEngine};
use rpg_repager::system::PathRequest;
use rpg_repager::{CorpusArtifacts, RepagerConfig, Variant};
use rpg_service::with_thread_scratch;
use serde::{Deserialize, Serialize};

/// A method that produces a ranked reading list for a survey's query.
pub trait ListMethod: Sync {
    /// Display name (as used in the paper's figures/tables).
    fn name(&self) -> String;

    /// Generates a ranked list of up to `k` papers for the survey's query,
    /// restricted to papers published no later than the survey and excluding
    /// the survey itself.
    fn list_for(&self, corpus: &Corpus, survey: &Survey, k: usize) -> Vec<PaperId>;
}

/// Wraps any [`SearchEngine`] as a [`ListMethod`].
pub struct EngineMethod<E: SearchEngine + Sync> {
    engine: E,
}

impl<E: SearchEngine + Sync> EngineMethod<E> {
    /// Wraps an engine.
    pub fn new(engine: E) -> Self {
        EngineMethod { engine }
    }
}

impl<E: SearchEngine + Sync> ListMethod for EngineMethod<E> {
    fn name(&self) -> String {
        self.engine.name().to_string()
    }

    fn list_for(&self, _corpus: &Corpus, survey: &Survey, k: usize) -> Vec<PaperId> {
        let exclude = [survey.paper];
        self.engine.search(&Query {
            text: &survey.query,
            top_k: k,
            max_year: Some(survey.year),
            exclude: &exclude,
        })
    }
}

/// Wraps a corpus's [`CorpusArtifacts`] (with a variant and configuration)
/// as a [`ListMethod`].
pub struct RepagerMethod<'c> {
    system: &'c CorpusArtifacts,
    /// The model variant being evaluated.
    pub variant: Variant,
    /// The configuration used for every query.
    pub config: RepagerConfig,
}

impl<'c> RepagerMethod<'c> {
    /// The full NEWST model with the paper's default parameters.
    pub fn newst(system: &'c CorpusArtifacts) -> Self {
        RepagerMethod {
            system,
            variant: Variant::Newst,
            config: RepagerConfig::default(),
        }
    }

    /// A specific variant with a specific configuration.
    pub fn variant(system: &'c CorpusArtifacts, variant: Variant, config: RepagerConfig) -> Self {
        RepagerMethod {
            system,
            variant,
            config,
        }
    }
}

impl<'c> ListMethod for RepagerMethod<'c> {
    fn name(&self) -> String {
        if self.config.seed_count != RepagerConfig::default().seed_count {
            format!("{} (seeds={})", self.variant.name(), self.config.seed_count)
        } else {
            self.variant.name().to_string()
        }
    }

    fn list_for(&self, _corpus: &Corpus, survey: &Survey, k: usize) -> Vec<PaperId> {
        let exclude = [survey.paper];
        let request = PathRequest {
            query: &survey.query,
            top_k: k,
            max_year: Some(survey.year),
            exclude: &exclude,
            config: self.config,
            variant: self.variant,
        };
        match with_thread_scratch(|scratch| self.system.generate(&request, scratch)) {
            Ok(output) => output.reading_list,
            Err(_) => Vec::new(),
        }
    }
}

/// The surveys a benchmark run evaluates on.
#[derive(Debug, Clone)]
pub struct EvaluationSet {
    /// Indices into the corpus survey bank.
    pub surveys: Vec<Survey>,
}

impl EvaluationSet {
    /// Selects the evaluation surveys: every SurveyBank survey with at least
    /// `min_references` references (the paper only sweeps K from 20 because
    /// "each survey at least cites 20 papers"), capped at `max_surveys` by
    /// descending selection score to bound evaluation time.
    pub fn select(corpus: &Corpus, min_references: usize, max_surveys: usize) -> Self {
        let reference_year = corpus.papers().iter().map(|p| p.year).max().unwrap_or(2020);
        let mut surveys: Vec<Survey> = corpus
            .survey_bank()
            .iter()
            .filter(|s| s.reference_count() >= min_references)
            .cloned()
            .collect();
        surveys.sort_by(|a, b| {
            b.selection_score(reference_year)
                .partial_cmp(&a.selection_score(reference_year))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.paper.cmp(&b.paper))
        });
        surveys.truncate(max_surveys);
        EvaluationSet { surveys }
    }

    /// Number of surveys in the set.
    pub fn len(&self) -> usize {
        self.surveys.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.surveys.is_empty()
    }
}

/// Average precision/F1 of one method at one K and one label level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct MethodScores {
    /// Mean precision over the evaluation set.
    pub precision: f64,
    /// Mean recall over the evaluation set.
    pub recall: f64,
    /// Mean F1 over the evaluation set.
    pub f1: f64,
}

/// The per-survey ranked lists of one method (at the maximum K), so that
/// scores at smaller K can be derived without re-running the method.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MethodLists {
    /// Method display name.
    pub method: String,
    /// One ranked list per evaluation survey, parallel to the set order.
    pub lists: Vec<Vec<PaperId>>,
}

impl MethodLists {
    /// Computes average scores at a given K and label level by truncating the
    /// stored lists.
    pub fn scores_at(&self, set: &EvaluationSet, k: usize, level: LabelLevel) -> MethodScores {
        let mut precisions = Vec::with_capacity(set.len());
        let mut recalls = Vec::with_capacity(set.len());
        let mut f1s = Vec::with_capacity(set.len());
        for (survey, list) in set.surveys.iter().zip(&self.lists) {
            let truncated: Vec<PaperId> = list.iter().copied().take(k).collect();
            let truth = survey.label(level);
            let m = overlap(&truncated, &truth);
            precisions.push(m.precision);
            recalls.push(m.recall);
            f1s.push(m.f1);
        }
        MethodScores {
            precision: mean(&precisions),
            recall: mean(&recalls),
            f1: mean(&f1s),
        }
    }
}

/// Runs a method over the whole evaluation set at `max_k`, producing the
/// per-survey ranked lists.  Surveys are processed in parallel with a simple
/// fork-join over `threads` worker threads (the lists are independent).
pub fn collect_lists<M: ListMethod + ?Sized>(
    corpus: &Corpus,
    set: &EvaluationSet,
    method: &M,
    max_k: usize,
    threads: usize,
) -> MethodLists {
    let lists = rpg_service::parallel::fan_out(
        set.len(),
        threads,
        || (),
        |(), i| method.list_for(corpus, &set.surveys[i], max_k),
    );
    MethodLists {
        method: method.name(),
        lists,
    }
}

/// Convenience: runs a method and immediately scores it at one (K, level).
pub fn evaluate_method<M: ListMethod + ?Sized>(
    corpus: &Corpus,
    set: &EvaluationSet,
    method: &M,
    k: usize,
    level: LabelLevel,
    threads: usize,
) -> MethodScores {
    let lists = collect_lists(corpus, set, method, k, threads);
    lists.scores_at(set, k, level)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpg_corpus::{generate, CorpusConfig};
    use rpg_engines::ScholarEngine;

    fn corpus() -> Corpus {
        generate(&CorpusConfig {
            seed: 121,
            ..CorpusConfig::small()
        })
    }

    #[test]
    fn evaluation_set_filters_and_caps() {
        let c = corpus();
        let all = EvaluationSet::select(&c, 0, usize::MAX);
        assert_eq!(all.len(), c.survey_bank().len());
        let filtered = EvaluationSet::select(&c, 20, usize::MAX);
        assert!(filtered.len() <= all.len());
        for s in &filtered.surveys {
            assert!(s.reference_count() >= 20);
        }
        let capped = EvaluationSet::select(&c, 0, 5);
        assert_eq!(capped.len(), 5);
        assert!(!capped.is_empty());
    }

    #[test]
    fn engine_method_produces_scored_lists() {
        let c = corpus();
        let set = EvaluationSet::select(&c, 15, 10);
        let method = EngineMethod::new(ScholarEngine::build(&c));
        let lists = collect_lists(&c, &set, &method, 30, 2);
        assert_eq!(lists.lists.len(), set.len());
        assert!(lists.method.contains("Scholar"));
        let scores = lists.scores_at(&set, 30, LabelLevel::AtLeastOne);
        assert!(scores.precision >= 0.0 && scores.precision <= 1.0);
        assert!(scores.f1 >= 0.0 && scores.f1 <= 1.0);
        assert!(scores.recall >= 0.0 && scores.recall <= 1.0);
    }

    #[test]
    fn truncation_scores_match_direct_evaluation() {
        let c = corpus();
        let set = EvaluationSet::select(&c, 15, 6);
        let method = EngineMethod::new(ScholarEngine::build(&c));
        let lists = collect_lists(&c, &set, &method, 30, 2);
        let truncated = lists.scores_at(&set, 10, LabelLevel::AtLeastOne);
        let direct = evaluate_method(&c, &set, &method, 10, LabelLevel::AtLeastOne, 2);
        assert!((truncated.precision - direct.precision).abs() < 1e-9);
        assert!((truncated.f1 - direct.f1).abs() < 1e-9);
    }

    #[test]
    fn repager_method_runs_over_the_set() {
        let c = corpus();
        let set = EvaluationSet::select(&c, 15, 4);
        let system = CorpusArtifacts::build(c.clone()).unwrap();
        let method = RepagerMethod::newst(&system);
        assert_eq!(method.name(), "NEWST");
        let lists = collect_lists(&c, &set, &method, 30, 2);
        assert_eq!(lists.lists.len(), set.len());
        let non_empty = lists.lists.iter().filter(|l| !l.is_empty()).count();
        assert!(non_empty > 0, "NEWST returned empty lists for every survey");
        for (survey, list) in set.surveys.iter().zip(&lists.lists) {
            assert!(!list.contains(&survey.paper), "leaked the survey itself");
        }
    }

    #[test]
    fn repager_method_name_reflects_seed_count() {
        let c = corpus();
        let system = CorpusArtifacts::build(c.clone()).unwrap();
        let method = RepagerMethod::variant(
            &system,
            Variant::Newst,
            RepagerConfig::default().with_seed_count(10),
        );
        assert_eq!(method.name(), "NEWST (seeds=10)");
    }

    #[test]
    fn parallel_and_serial_collection_agree() {
        let c = corpus();
        let set = EvaluationSet::select(&c, 15, 6);
        let method = EngineMethod::new(ScholarEngine::build(&c));
        let serial = collect_lists(&c, &set, &method, 20, 1);
        let parallel = collect_lists(&c, &set, &method, 20, 4);
        assert_eq!(serial.lists, parallel.lists);
    }

    #[test]
    fn empty_evaluation_set_is_handled() {
        let c = corpus();
        let set = EvaluationSet {
            surveys: Vec::new(),
        };
        let method = EngineMethod::new(ScholarEngine::build(&c));
        let lists = collect_lists(&c, &set, &method, 20, 2);
        assert!(lists.lists.is_empty());
        let scores = lists.scores_at(&set, 20, LabelLevel::AtLeastTwo);
        assert_eq!(scores.f1, 0.0);
    }
}
