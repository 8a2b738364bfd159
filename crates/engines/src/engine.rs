//! The common retrieval interface and the shared corpus index.
//!
//! Every baseline (and the seed-paper stage of RePaGer itself) answers the
//! same question: *given a query string, return a ranked list of papers
//! published no later than a cut-off year*.  [`SearchEngine`] is that
//! interface; [`EngineIndex`] is the shared, pre-built index over a corpus
//! that the concrete engines borrow; [`LexicalEngine`] is the configurable
//! keyword-retrieval core that the three simulated academic search engines
//! are thin wrappers around.
//!
//! [`EngineIndex`] tokenises nothing: its text index is the corpus's own
//! ([`Corpus::text_index`]), shared by `Arc`, and it adds only the per-paper
//! metadata columns the engines filter and rank by.

use rpg_corpus::{Corpus, PaperId};
use rpg_textindex::bm25::{Bm25Index, Bm25Params};
use rpg_textindex::inverted::InvertedIndex;
use rpg_textindex::tfidf::{sort_ranking, ScoredDoc, TfIdfIndex};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A retrieval request.
#[derive(Debug, Clone, Copy)]
pub struct Query<'a> {
    /// The query text (key phrases joined by spaces).
    pub text: &'a str,
    /// Number of papers to return.
    pub top_k: usize,
    /// Only papers published in or before this year are eligible (the
    /// evaluation restricts candidates to papers published before the survey,
    /// Section VI-A).  `None` disables the restriction.
    pub max_year: Option<u16>,
    /// Papers that must never be returned (e.g. the survey the query was
    /// derived from, to avoid data leakage).
    pub exclude: &'a [PaperId],
}

impl<'a> Query<'a> {
    /// A query with no year restriction and no exclusions.
    pub fn simple(text: &'a str, top_k: usize) -> Self {
        Query {
            text,
            top_k,
            max_year: None,
            exclude: &[],
        }
    }

    /// Whether a paper passes the year and exclusion filters.
    pub fn admits(&self, paper: PaperId, year: u16) -> bool {
        if self.exclude.contains(&paper) {
            return false;
        }
        match self.max_year {
            Some(cutoff) => year <= cutoff,
            None => true,
        }
    }
}

/// A retrieval method returning a ranked paper list for a query.
pub trait SearchEngine {
    /// Human-readable method name, as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Returns up to `query.top_k` papers ranked by decreasing relevance.
    fn search(&self, query: &Query<'_>) -> Vec<PaperId>;
}

/// The shared per-corpus index: the corpus's text index plus the
/// per-paper metadata the engines need for filtering and ranking priors.
#[derive(Debug)]
pub struct EngineIndex {
    inverted: Arc<InvertedIndex>,
    years: Vec<u16>,
    citation_counts: Vec<u32>,
    is_survey: Vec<bool>,
}

impl EngineIndex {
    /// Builds the index over every paper of the corpus: shares the corpus's
    /// text index (titles + abstracts) and copies the metadata columns.
    pub fn build(corpus: &Corpus) -> Arc<Self> {
        let mut years = Vec::with_capacity(corpus.len());
        let mut citation_counts = Vec::with_capacity(corpus.len());
        let mut is_survey = Vec::with_capacity(corpus.len());
        for paper in corpus.papers() {
            years.push(paper.year);
            citation_counts.push(corpus.citation_count(paper.id) as u32);
            is_survey.push(paper.is_survey());
        }
        Arc::new(EngineIndex {
            inverted: Arc::clone(corpus.text_index()),
            years,
            citation_counts,
            is_survey,
        })
    }

    /// Number of indexed papers.
    pub fn len(&self) -> usize {
        self.years.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.years.is_empty()
    }

    /// The underlying inverted index: the corpus's text index.
    pub fn inverted(&self) -> &Arc<InvertedIndex> {
        &self.inverted
    }

    /// Publication year of a paper (0 if unknown).
    pub fn year(&self, paper: PaperId) -> u16 {
        self.years.get(paper.index()).copied().unwrap_or(0)
    }

    /// Citation count of a paper at index-build time.
    pub fn citation_count(&self, paper: PaperId) -> u32 {
        self.citation_counts
            .get(paper.index())
            .copied()
            .unwrap_or(0)
    }

    /// Whether a paper is a survey.
    pub fn is_survey(&self, paper: PaperId) -> bool {
        self.is_survey.get(paper.index()).copied().unwrap_or(false)
    }
}

/// Which lexical scoring function a [`LexicalEngine`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LexicalScoring {
    /// Okapi BM25 over title + abstract.
    Bm25,
    /// Log-TF-IDF over title + abstract.
    TfIdf,
}

/// Configuration of a lexical retrieval engine.  The three simulated academic
/// search engines differ only in these knobs, mirroring how real engines rank
/// with the same lexical core but different priors.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LexicalConfig {
    /// Scoring function.
    pub scoring: LexicalScoring,
    /// Boost applied to title matches relative to abstract matches.
    pub title_boost: f64,
    /// Weight of the `ln(1 + citations)` prior added to the lexical score.
    pub citation_weight: f64,
    /// Weight of the recency prior `(year - 1990) / 30` added to the score.
    pub recency_weight: f64,
}

/// A keyword retrieval engine over an [`EngineIndex`].
#[derive(Debug, Clone)]
pub struct LexicalEngine {
    index: Arc<EngineIndex>,
    config: LexicalConfig,
    name: &'static str,
}

impl LexicalEngine {
    /// Creates a lexical engine with an explicit name and configuration.
    pub fn new(index: Arc<EngineIndex>, name: &'static str, config: LexicalConfig) -> Self {
        LexicalEngine {
            index,
            config,
            name,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> LexicalConfig {
        self.config
    }

    /// Scores all candidate papers for the query (before truncation), with
    /// filters applied.  Exposed so the RePaGer seed stage can reuse it.
    pub fn ranked_candidates(&self, query: &Query<'_>) -> Vec<ScoredDoc> {
        let lexical: Vec<ScoredDoc> = match self.config.scoring {
            LexicalScoring::Bm25 => {
                let bm25 = Bm25Index::new(
                    self.index.inverted(),
                    Bm25Params {
                        title_boost: self.config.title_boost,
                        ..Default::default()
                    },
                );
                bm25.search(query.text, usize::MAX)
            }
            LexicalScoring::TfIdf => {
                let tfidf = TfIdfIndex::new(self.index.inverted(), self.config.title_boost);
                tfidf.search(query.text, usize::MAX)
            }
        };
        let mut scored: Vec<ScoredDoc> = lexical
            .into_iter()
            .filter(|s| query.admits(PaperId(s.doc), self.index.year(PaperId(s.doc))))
            .map(|s| {
                let paper = PaperId(s.doc);
                let citation_prior = self.config.citation_weight
                    * f64::from(self.index.citation_count(paper)).ln_1p();
                let recency_prior = self.config.recency_weight
                    * (f64::from(self.index.year(paper).saturating_sub(1990)) / 30.0);
                ScoredDoc {
                    doc: s.doc,
                    score: s.score + citation_prior + recency_prior,
                }
            })
            .collect();
        sort_ranking(&mut scored);
        scored
    }
}

impl SearchEngine for LexicalEngine {
    fn name(&self) -> &'static str {
        self.name
    }

    fn search(&self, query: &Query<'_>) -> Vec<PaperId> {
        self.ranked_candidates(query)
            .into_iter()
            .take(query.top_k)
            .map(|s| PaperId(s.doc))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpg_corpus::{generate, CorpusConfig};

    fn corpus() -> Corpus {
        generate(&CorpusConfig {
            seed: 21,
            ..CorpusConfig::small()
        })
    }

    fn engine(corpus: &Corpus) -> LexicalEngine {
        LexicalEngine::new(
            EngineIndex::build(corpus),
            "test-engine",
            LexicalConfig {
                scoring: LexicalScoring::Bm25,
                title_boost: 3.0,
                citation_weight: 0.2,
                recency_weight: 0.0,
            },
        )
    }

    #[test]
    fn index_covers_every_paper() {
        let c = corpus();
        let idx = EngineIndex::build(&c);
        assert_eq!(idx.len(), c.len());
        assert!(!idx.is_empty());
        let any_survey = c.survey_bank().iter().next().unwrap().paper;
        assert!(idx.is_survey(any_survey));
        assert_eq!(idx.year(any_survey), c.year(any_survey));
    }

    #[test]
    fn query_filters_apply() {
        let q = Query {
            text: "x",
            top_k: 5,
            max_year: Some(2000),
            exclude: &[PaperId(3)],
        };
        assert!(q.admits(PaperId(1), 1999));
        assert!(!q.admits(PaperId(1), 2001));
        assert!(!q.admits(PaperId(3), 1999));
        let open = Query::simple("x", 5);
        assert!(open.admits(PaperId(3), 2030));
    }

    #[test]
    fn search_returns_topically_relevant_papers() {
        let c = corpus();
        let e = engine(&c);
        let survey = c
            .survey_bank()
            .iter()
            .find(|s| s.query.contains("hate"))
            .or_else(|| c.survey_bank().iter().next())
            .unwrap();
        let results = e.search(&Query::simple(&survey.query, 20));
        assert!(!results.is_empty());
        // The survey's own topic should dominate the top results.
        let survey_topic = c.paper(survey.paper).unwrap().topic;
        let same_topic = results
            .iter()
            .filter(|&&p| c.paper(p).map(|x| x.topic == survey_topic).unwrap_or(false))
            .count();
        assert!(
            same_topic * 2 >= results.len(),
            "only {same_topic}/{} results on topic for query '{}'",
            results.len(),
            survey.query
        );
    }

    #[test]
    fn year_cutoff_excludes_recent_papers() {
        let c = corpus();
        let e = engine(&c);
        let survey = c.survey_bank().iter().next().unwrap();
        let results = e.search(&Query {
            text: &survey.query,
            top_k: 30,
            max_year: Some(2005),
            exclude: &[],
        });
        for p in results {
            assert!(c.year(p) <= 2005);
        }
    }

    #[test]
    fn exclusion_removes_the_survey_itself() {
        let c = corpus();
        let e = engine(&c);
        let survey = c.survey_bank().iter().next().unwrap();
        let exclude = [survey.paper];
        let results = e.search(&Query {
            text: &survey.query,
            top_k: 50,
            max_year: None,
            exclude: &exclude,
        });
        assert!(!results.contains(&survey.paper));
    }

    #[test]
    fn top_k_truncates() {
        let c = corpus();
        let e = engine(&c);
        let survey = c.survey_bank().iter().next().unwrap();
        assert!(e.search(&Query::simple(&survey.query, 7)).len() <= 7);
    }

    #[test]
    fn citation_prior_changes_ranking() {
        let c = corpus();
        let idx = EngineIndex::build(&c);
        let survey = c.survey_bank().iter().next().unwrap();
        let flat = LexicalEngine::new(
            idx.clone(),
            "flat",
            LexicalConfig {
                scoring: LexicalScoring::Bm25,
                title_boost: 3.0,
                citation_weight: 0.0,
                recency_weight: 0.0,
            },
        );
        let cite_heavy = LexicalEngine::new(
            idx,
            "cite-heavy",
            LexicalConfig {
                scoring: LexicalScoring::Bm25,
                title_boost: 3.0,
                citation_weight: 5.0,
                recency_weight: 0.0,
            },
        );
        let a = flat.search(&Query::simple(&survey.query, 20));
        let b = cite_heavy.search(&Query::simple(&survey.query, 20));
        assert_ne!(a, b, "a large citation prior should reorder results");
    }
}
