//! Okapi BM25 ranking over an [`InvertedIndex`].
//!
//! The Google-Scholar-like and Microsoft-Academic-like simulated engines rank
//! with BM25 over a weighted combination of the title and body fields.

use crate::inverted::{Field, InvertedIndex};
use crate::tfidf::{rank_admitted, ScoredDoc};
use crate::tokenize::tokenize;
use crate::DocId;
use serde::{Deserialize, Serialize};

/// BM25 hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Bm25Params {
    /// Term-frequency saturation parameter (`k1`).
    pub k1: f64,
    /// Length-normalisation parameter (`b`).
    pub b: f64,
    /// Multiplier applied to title-field term frequencies before saturation.
    pub title_boost: f64,
}

impl Default for Bm25Params {
    fn default() -> Self {
        Bm25Params {
            k1: 1.2,
            b: 0.75,
            title_boost: 2.5,
        }
    }
}

/// BM25 scorer over an inverted index.
#[derive(Debug, Clone)]
pub struct Bm25Index<'a> {
    index: &'a InvertedIndex,
    params: Bm25Params,
}

impl<'a> Bm25Index<'a> {
    /// Wraps an inverted index with the given parameters.
    pub fn new(index: &'a InvertedIndex, params: Bm25Params) -> Self {
        Bm25Index { index, params }
    }

    /// BM25 inverse document frequency (with the usual +0.5 smoothing,
    /// floored at a small positive value so very common terms still count a
    /// little rather than negatively).
    pub fn idf(&self, term: &str) -> f64 {
        let n = self.index.doc_count() as f64;
        let df = self.index.combined_document_frequency(term) as f64;
        let raw = ((n - df + 0.5) / (df + 0.5) + 1.0).ln();
        raw.max(0.01)
    }

    /// BM25 score of `doc` for `query`.
    pub fn score(&self, query: &str, doc: DocId) -> f64 {
        let Some(stats) = self.index.doc_stats(doc) else {
            return 0.0;
        };
        let avg_len = self.index.average_body_len()
            + self.params.title_boost * self.index.average_title_len();
        let doc_len =
            f64::from(stats.body_len) + self.params.title_boost * f64::from(stats.title_len);
        let mut total = 0.0;
        for token in tokenize(query) {
            let tf_title = f64::from(self.index.term_frequency(Field::Title, &token.term, doc));
            let tf_body = f64::from(self.index.term_frequency(Field::Body, &token.term, doc));
            let tf = self.params.title_boost * tf_title + tf_body;
            if tf <= 0.0 {
                continue;
            }
            let norm = if avg_len > 0.0 {
                1.0 - self.params.b + self.params.b * doc_len / avg_len
            } else {
                1.0
            };
            let saturated = tf * (self.params.k1 + 1.0) / (tf + self.params.k1 * norm);
            total += self.idf(&token.term) * saturated;
        }
        total
    }

    /// Ranks the documents that contain at least one query term and that
    /// `admit` accepts, returning the top `limit` results.
    ///
    /// `admit` filters the candidates before any of them is scored. An
    /// admitted document's score does not depend on which others are
    /// admitted, since `idf` and the average field lengths are taken over
    /// the whole index.
    pub fn search(
        &self,
        query: &str,
        limit: usize,
        admit: impl Fn(DocId) -> bool,
    ) -> Vec<ScoredDoc> {
        rank_admitted(self.index, query, limit, admit, |doc| {
            self.score(query, doc)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index() -> InvertedIndex {
        let mut idx = InvertedIndex::new();
        idx.add_document(
            0,
            "hate speech detection using natural language processing",
            "a survey of hate speech detection methods",
        );
        idx.add_document(
            1,
            "sentiment analysis of tweets",
            "classifiers for social media sentiment",
        );
        idx.add_document(
            2,
            "language models",
            "large pretrained language models for text",
        );
        idx.add_document(
            3,
            "hate crime statistics",
            "reports about hate crime trends over years",
        );
        idx
    }

    #[test]
    fn exact_topic_match_wins() {
        let idx = index();
        let bm25 = Bm25Index::new(&idx, Bm25Params::default());
        let results = bm25.search("hate speech detection", 10, |_| true);
        assert_eq!(results[0].doc, 0);
    }

    #[test]
    fn scores_are_monotone_in_matched_terms() {
        let idx = index();
        let bm25 = Bm25Index::new(&idx, Bm25Params::default());
        let one_term = bm25.score("hate", 0);
        let two_terms = bm25.score("hate speech", 0);
        assert!(two_terms > one_term);
    }

    #[test]
    fn unknown_document_scores_zero() {
        let idx = index();
        let bm25 = Bm25Index::new(&idx, Bm25Params::default());
        assert_eq!(bm25.score("hate", 999), 0.0);
    }

    #[test]
    fn idf_is_positive_even_for_ubiquitous_terms() {
        let mut idx = InvertedIndex::new();
        for i in 0..5 {
            idx.add_document(i, "common term everywhere", "common term again");
        }
        let bm25 = Bm25Index::new(&idx, Bm25Params::default());
        assert!(bm25.idf("common") > 0.0);
    }

    #[test]
    fn limit_and_empty_query_behave() {
        let idx = index();
        let bm25 = Bm25Index::new(&idx, Bm25Params::default());
        assert_eq!(bm25.search("hate", 1, |_| true).len(), 1);
        assert!(bm25.search("", 5, |_| true).is_empty());
    }

    #[test]
    fn title_boost_changes_ranking() {
        let mut idx = InvertedIndex::new();
        // Doc 0 mentions the query only in its body, doc 1 only in its title.
        idx.add_document(
            0,
            "something unrelated entirely",
            "transformer architectures analysis",
        );
        idx.add_document(
            1,
            "transformer architectures analysis",
            "something unrelated entirely",
        );
        let no_boost = Bm25Index::new(
            &idx,
            Bm25Params {
                title_boost: 1.0,
                ..Default::default()
            },
        );
        let boosted = Bm25Index::new(
            &idx,
            Bm25Params {
                title_boost: 5.0,
                ..Default::default()
            },
        );
        let plain_order: Vec<_> = no_boost
            .search("transformer architectures", 2, |_| true)
            .iter()
            .map(|s| s.doc)
            .collect();
        let boosted_results = boosted.search("transformer architectures", 2, |_| true);
        assert_eq!(boosted_results[0].doc, 1, "title match must win with boost");
        // Without boost both have identical field-combined tf; ranking falls
        // back to the deterministic tie-break.
        assert_eq!(plain_order[0], 0);
    }
}

#[cfg(all(test, feature = "proptests"))]
mod proptests {
    use super::*;
    use crate::tfidf::TfIdfIndex;
    use proptest::prelude::*;

    /// Each result's doc id and score bits, in rank order.
    fn bits(ranking: &[ScoredDoc]) -> Vec<(DocId, u64)> {
        ranking.iter().map(|s| (s.doc, s.score.to_bits())).collect()
    }

    proptest! {
        /// BM25 scores are finite, non-negative, and the search results are
        /// sorted in non-increasing score order.
        #[test]
        fn scores_and_order_are_sane(
            titles in prop::collection::vec("[a-z]{3,7}( [a-z]{3,7}){0,4}", 1..15),
            query in "[a-z]{3,7}( [a-z]{3,7}){0,2}",
        ) {
            let mut idx = InvertedIndex::new();
            for (i, t) in titles.iter().enumerate() {
                idx.add_document(i as DocId, t, t);
            }
            let bm25 = Bm25Index::new(&idx, Bm25Params::default());
            let results = bm25.search(&query, 50, |_| true);
            for pair in results.windows(2) {
                prop_assert!(pair[0].score >= pair[1].score);
            }
            for r in &results {
                prop_assert!(r.score.is_finite() && r.score > 0.0);
            }
        }

        /// For both scorers, a search that admits only some documents
        /// returns exactly the admitted documents of the unfiltered ranking,
        /// in the same order and with bit-identical scores.
        #[test]
        fn admitting_before_scoring_keeps_the_admitted_ranking(
            docs in prop::collection::vec(
                ("[a-c]{3}( [a-c]{3}){0,4}", "[a-c]{3}( [a-c]{3}){0,9}"),
                1..20,
            ),
            query in "[a-c]{3}( [a-c]{3}){0,3}",
            mask in 0u32..(1 << 20),
            limit in 0usize..25,
        ) {
            let mut idx = InvertedIndex::new();
            for (i, (title, body)) in docs.iter().enumerate() {
                idx.add_document(i as DocId, title, body);
            }
            let admit = |doc: DocId| mask >> doc & 1 == 1;
            let admitted = |all: Vec<ScoredDoc>| -> Vec<ScoredDoc> {
                all.into_iter().filter(|s| admit(s.doc)).take(limit).collect()
            };
            let bm25 = Bm25Index::new(&idx, Bm25Params::default());
            prop_assert_eq!(
                bits(&bm25.search(&query, limit, admit)),
                bits(&admitted(bm25.search(&query, usize::MAX, |_| true)))
            );
            let tfidf = TfIdfIndex::new(&idx, 2.0);
            prop_assert_eq!(
                bits(&tfidf.search(&query, limit, admit)),
                bits(&admitted(tfidf.search(&query, usize::MAX, |_| true)))
            );
        }
    }
}
