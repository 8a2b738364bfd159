//! Survey records and ground-truth labels.
//!
//! In SurveyBank every survey contributes one evaluation sample: the key
//! phrases extracted from its title form the query, and its reference list —
//! stratified by how many times each reference is cited *inside* the survey's
//! text — forms the ground truth.  The paper defines three label sets
//! `V = {L1, L2, L3}` where `Li` contains the references cited at least `i`
//! times (Section II-B).

use crate::paper::PaperId;
use serde::{Deserialize, Serialize};

/// One reference of a survey, with its in-text occurrence count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SurveyReference {
    /// The referenced paper.
    pub paper: PaperId,
    /// How many times the reference is cited inside the survey's text
    /// (at least 1).
    pub occurrences: u8,
}

/// The occurrence-count threshold identifying a ground-truth label set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum LabelLevel {
    /// References cited at least once (the full reference list), `L1`.
    AtLeastOne,
    /// References cited at least twice, `L2`.
    AtLeastTwo,
    /// References cited at least three times, `L3`.
    AtLeastThree,
}

impl LabelLevel {
    /// All levels in increasing strictness.
    pub const ALL: [LabelLevel; 3] = [
        LabelLevel::AtLeastOne,
        LabelLevel::AtLeastTwo,
        LabelLevel::AtLeastThree,
    ];

    /// The minimum occurrence count for the level.
    pub fn threshold(self) -> u8 {
        match self {
            LabelLevel::AtLeastOne => 1,
            LabelLevel::AtLeastTwo => 2,
            LabelLevel::AtLeastThree => 3,
        }
    }

    /// Short name used in reports ("#occ >= 1" style).
    pub fn name(self) -> &'static str {
        match self {
            LabelLevel::AtLeastOne => "#occurrences >= 1",
            LabelLevel::AtLeastTwo => "#occurrences >= 2",
            LabelLevel::AtLeastThree => "#occurrences >= 3",
        }
    }
}

/// A survey together with its RPG evaluation sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Survey {
    /// The survey's own paper id.
    pub paper: PaperId,
    /// Key phrases extracted from the survey title (the query terms).
    pub key_phrases: Vec<String>,
    /// The query string (key phrases joined by a space), as fed to engines.
    pub query: String,
    /// The survey's reference list with in-text occurrence counts.
    pub references: Vec<SurveyReference>,
    /// Publication year of the survey (used to restrict candidate papers and
    /// to compute the selection score of Section II-A).
    pub year: u16,
    /// Number of papers citing the survey in the corpus.
    pub citation_count: u32,
}

impl Survey {
    /// The ground-truth paper list for a label level.
    pub fn label(&self, level: LabelLevel) -> Vec<PaperId> {
        let threshold = level.threshold();
        self.references
            .iter()
            .filter(|r| r.occurrences >= threshold)
            .map(|r| r.paper)
            .collect()
    }

    /// Number of references.
    pub fn reference_count(&self) -> usize {
        self.references.len()
    }

    /// The selection score of Section II-A: `citation / (reference_year - year + 1)`
    /// with the paper's 2020 reference year.
    pub fn selection_score(&self, reference_year: u16) -> f64 {
        let age = f64::from(reference_year.saturating_sub(self.year)) + 1.0;
        f64::from(self.citation_count) / age
    }

    /// The in-text occurrence count of a reference, 0 if not referenced.
    pub fn occurrences_of(&self, paper: PaperId) -> u8 {
        self.references
            .iter()
            .find(|r| r.paper == paper)
            .map(|r| r.occurrences)
            .unwrap_or(0)
    }
}

/// The full SurveyBank benchmark: the surveys that survived the
/// dataset-construction pipeline.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SurveyBank {
    /// All surveys, in paper-id order.
    pub surveys: Vec<Survey>,
}

impl SurveyBank {
    /// Number of surveys in the benchmark.
    pub fn len(&self) -> usize {
        self.surveys.len()
    }

    /// Whether the benchmark is empty.
    pub fn is_empty(&self) -> bool {
        self.surveys.is_empty()
    }

    /// Iterates over the surveys.
    pub fn iter(&self) -> impl Iterator<Item = &Survey> {
        self.surveys.iter()
    }

    /// Looks up the survey whose own paper id is `paper`.
    pub fn by_paper(&self, paper: PaperId) -> Option<&Survey> {
        self.surveys.iter().find(|s| s.paper == paper)
    }

    /// Average number of references per survey.
    pub fn average_reference_count(&self) -> f64 {
        if self.surveys.is_empty() {
            return 0.0;
        }
        let total: usize = self.surveys.iter().map(Survey::reference_count).sum();
        total as f64 / self.surveys.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Survey {
        Survey {
            paper: PaperId(100),
            key_phrases: vec![
                "hate speech detection".into(),
                "natural language processing".into(),
            ],
            query: "hate speech detection natural language processing".into(),
            references: vec![
                SurveyReference {
                    paper: PaperId(1),
                    occurrences: 1,
                },
                SurveyReference {
                    paper: PaperId(2),
                    occurrences: 2,
                },
                SurveyReference {
                    paper: PaperId(3),
                    occurrences: 3,
                },
                SurveyReference {
                    paper: PaperId(4),
                    occurrences: 5,
                },
            ],
            year: 2017,
            citation_count: 120,
        }
    }

    #[test]
    fn labels_are_nested_by_threshold() {
        let s = sample();
        let l1 = s.label(LabelLevel::AtLeastOne);
        let l2 = s.label(LabelLevel::AtLeastTwo);
        let l3 = s.label(LabelLevel::AtLeastThree);
        assert_eq!(l1.len(), 4);
        assert_eq!(l2.len(), 3);
        assert_eq!(l3.len(), 2);
        for p in &l3 {
            assert!(l2.contains(p));
        }
        for p in &l2 {
            assert!(l1.contains(p));
        }
    }

    #[test]
    fn selection_score_matches_formula() {
        let s = sample();
        // citation 120, 2020 - 2017 + 1 = 4.
        assert!((s.selection_score(2020) - 30.0).abs() < 1e-12);
    }

    #[test]
    fn occurrences_lookup() {
        let s = sample();
        assert_eq!(s.occurrences_of(PaperId(4)), 5);
        assert_eq!(s.occurrences_of(PaperId(99)), 0);
    }

    #[test]
    fn label_level_metadata() {
        assert_eq!(LabelLevel::AtLeastOne.threshold(), 1);
        assert_eq!(LabelLevel::AtLeastThree.threshold(), 3);
        assert_eq!(LabelLevel::ALL.len(), 3);
        assert!(LabelLevel::AtLeastTwo.name().contains(">= 2"));
    }

    #[test]
    fn bank_lookup_and_scores() {
        let mut other = sample();
        other.paper = PaperId(200);
        other.citation_count = 10;
        other.year = 2019;
        let bank = SurveyBank {
            surveys: vec![sample(), other],
        };
        assert_eq!(bank.len(), 2);
        assert!(bank.by_paper(PaperId(200)).is_some());
        assert!(bank.by_paper(PaperId(42)).is_none());
        assert!((bank.average_reference_count() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_bank_behaves() {
        let bank = SurveyBank::default();
        assert!(bank.is_empty());
        assert_eq!(bank.average_reference_count(), 0.0);
    }
}
