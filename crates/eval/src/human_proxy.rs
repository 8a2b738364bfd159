//! Programmatic stand-ins for the human evaluation of Table V.
//!
//! The paper recruits 16 graduate students who compare, per query, the
//! Google Scholar result list against the RePaGer reading path along three
//! criteria — *prerequisite*, *relevance*, and *completeness* — and state a
//! preference (system A, system B, or "same").  Offline, the three criteria
//! are operationalised as measurable scores of an output (see
//! the README's "Stand-ins for the paper's data and services" section) and
//! a panel of deterministic judges with different indifference thresholds
//! votes on each query:
//!
//! * **prerequisite** — how much prerequisite structure the output exposes:
//!   the fraction of output papers that are cited by at least two other
//!   output papers (a flat, unstructured list of fringe papers scores low; a
//!   path that pulls in the foundational papers its members build on scores
//!   high).
//! * **relevance** — mean lexical similarity between the query and the output
//!   papers' titles.
//! * **completeness** — recall of the survey's full reference list (L1).

use crate::metrics::recall;
use rpg_corpus::{Corpus, LabelLevel, PaperId, Survey};
use rpg_textindex::tokenize::tokenize;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// The three questionnaire criteria of Table V.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Criterion {
    /// Does the output contain prerequisite relationships ("how to read")?
    Prerequisite,
    /// Is the output consistent with the query ("what to read")?
    Relevance,
    /// Does the output cover the query domain comprehensively?
    Completeness,
}

impl Criterion {
    /// All criteria in Table V order.
    pub const ALL: [Criterion; 3] = [
        Criterion::Prerequisite,
        Criterion::Relevance,
        Criterion::Completeness,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Criterion::Prerequisite => "Prerequisite",
            Criterion::Relevance => "Relevance",
            Criterion::Completeness => "Completeness",
        }
    }
}

/// A judge's verdict for one query and criterion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Preference {
    /// Prefer system A (the engine list).
    SystemA,
    /// No preference.
    Same,
    /// Prefer system B (the reading path).
    SystemB,
}

/// Aggregated preferences for one criterion, as percentages.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PreferenceShares {
    /// Share preferring system A.
    pub prefer_a: f64,
    /// Share with no preference.
    pub same: f64,
    /// Share preferring system B.
    pub prefer_b: f64,
}

/// The prerequisite-structure score of an output list: the fraction of its
/// papers cited by at least two other papers of the same output.
pub fn prerequisite_score(corpus: &Corpus, output: &[PaperId]) -> f64 {
    if output.is_empty() {
        return 0.0;
    }
    let in_output: HashSet<PaperId> = output.iter().copied().collect();
    let supported = output
        .iter()
        .filter(|&&p| {
            let citers_inside = corpus
                .graph()
                .cited_by(p.node())
                .iter()
                .filter(|&&c| in_output.contains(&PaperId::from_node(c)))
                .count();
            citers_inside >= 2
        })
        .count();
    supported as f64 / output.len() as f64
}

/// The relevance score: mean token-overlap similarity between the query and
/// each output paper's title.
pub fn relevance_score(corpus: &Corpus, query: &str, output: &[PaperId]) -> f64 {
    if output.is_empty() {
        return 0.0;
    }
    let query_terms: HashSet<String> = tokenize(query).into_iter().map(|t| t.term).collect();
    if query_terms.is_empty() {
        return 0.0;
    }
    let mut total = 0.0;
    for &p in output {
        let title = corpus.paper(p).map(|x| x.title.clone()).unwrap_or_default();
        let title_terms: HashSet<String> = tokenize(&title).into_iter().map(|t| t.term).collect();
        let hits = query_terms.intersection(&title_terms).count();
        total += hits as f64 / query_terms.len() as f64;
    }
    total / output.len() as f64
}

/// The completeness score: recall of the survey's L1 reference list.
pub fn completeness_score(survey: &Survey, output: &[PaperId]) -> f64 {
    recall(output, &survey.label(LabelLevel::AtLeastOne))
}

/// Scores an output on one criterion.
pub fn criterion_score(
    corpus: &Corpus,
    survey: &Survey,
    output: &[PaperId],
    criterion: Criterion,
) -> f64 {
    match criterion {
        Criterion::Prerequisite => prerequisite_score(corpus, output),
        Criterion::Relevance => relevance_score(corpus, &survey.query, output),
        Criterion::Completeness => completeness_score(survey, output),
    }
}

/// A panel of deterministic judges.  Each judge has an indifference band: if
/// the two systems' scores differ by less than the band, the judge answers
/// "same"; otherwise they prefer the higher-scoring system.
#[derive(Debug, Clone)]
pub struct JudgePanel {
    bands: Vec<f64>,
}

impl JudgePanel {
    /// Creates a panel of `size` judges with indifference bands spread over
    /// `[min_band, max_band]` (deterministic, so results are reproducible).
    pub fn new(size: usize, min_band: f64, max_band: f64) -> Self {
        assert!(size > 0, "a panel needs at least one judge");
        let bands = (0..size)
            .map(|i| {
                if size == 1 {
                    min_band
                } else {
                    min_band + (max_band - min_band) * i as f64 / (size - 1) as f64
                }
            })
            .collect();
        JudgePanel { bands }
    }

    /// The default panel: 8 judges per domain, as in the paper's setup.
    pub fn paper_default() -> Self {
        Self::new(8, 0.02, 0.16)
    }

    /// Number of judges.
    pub fn len(&self) -> usize {
        self.bands.len()
    }

    /// Whether the panel is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.bands.is_empty()
    }

    /// Each judge's verdict comparing system A's and system B's scores.
    pub fn vote(&self, score_a: f64, score_b: f64) -> Vec<Preference> {
        self.bands
            .iter()
            .map(|&band| {
                if (score_b - score_a).abs() <= band {
                    Preference::Same
                } else if score_b > score_a {
                    Preference::SystemB
                } else {
                    Preference::SystemA
                }
            })
            .collect()
    }
}

/// Aggregates verdicts into percentage shares.
pub fn aggregate(verdicts: &[Preference]) -> PreferenceShares {
    if verdicts.is_empty() {
        return PreferenceShares::default();
    }
    let n = verdicts.len() as f64;
    let count = |wanted: Preference| verdicts.iter().filter(|&&v| v == wanted).count() as f64 / n;
    PreferenceShares {
        prefer_a: count(Preference::SystemA),
        same: count(Preference::Same),
        prefer_b: count(Preference::SystemB),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpg_corpus::{generate, CorpusConfig};

    fn corpus() -> Corpus {
        generate(&CorpusConfig {
            seed: 131,
            ..CorpusConfig::small()
        })
    }

    #[test]
    fn prerequisite_score_rewards_internally_cited_papers() {
        let c = corpus();
        // Build an output containing a paper plus two papers citing it.
        let target = c
            .papers()
            .iter()
            .find(|p| c.graph().in_degree(p.id.node()) >= 2)
            .unwrap()
            .id;
        let citers: Vec<PaperId> = c
            .graph()
            .cited_by(target.node())
            .iter()
            .take(2)
            .map(|&n| PaperId::from_node(n))
            .collect();
        let with_structure = vec![target, citers[0], citers[1]];
        let score = prerequisite_score(&c, &with_structure);
        assert!(score > 0.0);
        // A set of mutually unrelated isolated papers scores 0.
        assert_eq!(prerequisite_score(&c, &[]), 0.0);
    }

    #[test]
    fn relevance_score_rewards_query_terms_in_titles() {
        let c = corpus();
        let survey = c.survey_bank().iter().next().unwrap();
        let survey_topic = c.paper(survey.paper).unwrap().topic;
        let on_topic: Vec<PaperId> = c
            .research_papers()
            .iter()
            .filter(|p| p.topic == survey_topic)
            .take(10)
            .map(|p| p.id)
            .collect();
        let off_topic: Vec<PaperId> = c
            .research_papers()
            .iter()
            .filter(|p| p.topic != survey_topic)
            .take(10)
            .map(|p| p.id)
            .collect();
        let on = relevance_score(&c, &survey.query, &on_topic);
        let off = relevance_score(&c, &survey.query, &off_topic);
        assert!(on > off, "on-topic {on} should beat off-topic {off}");
        assert_eq!(relevance_score(&c, "", &on_topic), 0.0);
    }

    #[test]
    fn completeness_score_is_recall_of_l1() {
        let c = corpus();
        let survey = c.survey_bank().iter().next().unwrap();
        let full: Vec<PaperId> = survey.label(LabelLevel::AtLeastOne);
        assert!((completeness_score(survey, &full) - 1.0).abs() < 1e-12);
        assert_eq!(completeness_score(survey, &[]), 0.0);
    }

    #[test]
    fn judges_vote_by_score_difference() {
        let panel = JudgePanel::new(5, 0.05, 0.25);
        let votes = panel.vote(0.3, 0.5);
        // Difference 0.2: judges with band < 0.2 prefer B, others say same.
        assert!(votes.contains(&Preference::SystemB));
        assert!(votes.contains(&Preference::Same));
        assert!(!votes.contains(&Preference::SystemA));
        let reversed = panel.vote(0.5, 0.3);
        assert!(reversed.contains(&Preference::SystemA));
    }

    #[test]
    fn aggregate_sums_to_one() {
        let panel = JudgePanel::paper_default();
        assert_eq!(panel.len(), 8);
        assert!(!panel.is_empty());
        let shares = aggregate(&panel.vote(0.2, 0.6));
        assert!((shares.prefer_a + shares.same + shares.prefer_b - 1.0).abs() < 1e-12);
        assert!(shares.prefer_b > shares.prefer_a);
        assert_eq!(aggregate(&[]).same, 0.0);
    }

    #[test]
    fn criterion_dispatch_covers_all() {
        let c = corpus();
        let survey = c.survey_bank().iter().next().unwrap();
        let output: Vec<PaperId> = survey.label(LabelLevel::AtLeastOne);
        for criterion in Criterion::ALL {
            let score = criterion_score(&c, survey, &output, criterion);
            assert!(
                (0.0..=1.0).contains(&score),
                "{criterion:?} score {score} out of range"
            );
            assert!(!criterion.name().is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "at least one judge")]
    fn empty_panel_is_rejected() {
        let _ = JudgePanel::new(0, 0.1, 0.2);
    }
}
