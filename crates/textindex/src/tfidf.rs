//! TF-IDF scoring over an [`InvertedIndex`].
//!
//! Used by the AMiner-like simulated engine and as the document-weighting
//! basis for the embedding model in [`crate::embed`].

use crate::inverted::{Field, InvertedIndex};
use crate::tokenize::tokenize;
use crate::DocId;

/// A scored document.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredDoc {
    /// The document id.
    pub doc: DocId,
    /// Relevance score (higher is better).
    pub score: f64,
}

/// Sorts scored documents by descending score, breaking ties by ascending doc
/// id so rankings are deterministic.
pub fn sort_ranking(scores: &mut [ScoredDoc]) {
    scores.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.doc.cmp(&b.doc))
    });
}

/// TF-IDF ranking over an inverted index.
///
/// The score of a document for a query is the sum over query terms of
/// `tf_weight * idf`, where title occurrences can be boosted relative to body
/// occurrences with `title_boost`.
#[derive(Debug, Clone)]
pub struct TfIdfIndex<'a> {
    index: &'a InvertedIndex,
    /// Multiplier applied to title term frequencies.
    pub title_boost: f64,
}

impl<'a> TfIdfIndex<'a> {
    /// Wraps an inverted index with a given title boost (1.0 = no boost).
    pub fn new(index: &'a InvertedIndex, title_boost: f64) -> Self {
        TfIdfIndex { index, title_boost }
    }

    /// Inverse document frequency of a term with add-one smoothing.
    pub fn idf(&self, term: &str) -> f64 {
        let n = self.index.doc_count() as f64;
        let df = self.index.combined_document_frequency(term) as f64;
        ((n + 1.0) / (df + 1.0)).ln() + 1.0
    }

    /// TF-IDF score of a single document for `query`.
    pub fn score(&self, query: &str, doc: DocId) -> f64 {
        let mut total = 0.0;
        for token in tokenize(query) {
            let tf_title = f64::from(self.index.term_frequency(Field::Title, &token.term, doc));
            let tf_body = f64::from(self.index.term_frequency(Field::Body, &token.term, doc));
            let tf = self.title_boost * tf_title + tf_body;
            if tf > 0.0 {
                total += (1.0 + tf.ln()) * self.idf(&token.term);
            }
        }
        total
    }

    /// Ranks the documents that contain at least one query term and that
    /// `admit` accepts, returning the top `limit` results.
    ///
    /// `admit` filters the candidates before any of them is scored. An
    /// admitted document's score does not depend on which others are
    /// admitted, since `idf` counts document frequencies over the whole
    /// index.
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

/// The search both scorers run: scores the documents containing at least
/// one query term that `admit` accepts, keeps those scoring above zero and
/// returns the best `limit`, ranked by [`sort_ranking`].
pub(crate) fn rank_admitted(
    index: &InvertedIndex,
    query: &str,
    limit: usize,
    admit: impl Fn(DocId) -> bool,
    score: impl Fn(DocId) -> f64,
) -> Vec<ScoredDoc> {
    let mut scored: Vec<ScoredDoc> = index
        .disjunctive_candidates(query)
        .into_iter()
        .filter(|&doc| admit(doc))
        .map(|doc| ScoredDoc {
            doc,
            score: score(doc),
        })
        .filter(|s| s.score > 0.0)
        .collect();
    sort_ranking(&mut scored);
    scored.truncate(limit);
    scored
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index() -> InvertedIndex {
        let mut idx = InvertedIndex::new();
        idx.add_document(
            0,
            "hate speech detection survey",
            "methods for hate speech detection",
        );
        idx.add_document(
            1,
            "image classification",
            "deep networks for images and speech",
        );
        idx.add_document(
            2,
            "speech recognition",
            "acoustic models for speech and audio",
        );
        idx.add_document(3, "graph databases", "storage engines for graphs");
        idx
    }

    #[test]
    fn idf_decreases_with_document_frequency() {
        let idx = index();
        let tfidf = TfIdfIndex::new(&idx, 1.0);
        // "speech" appears in 3 documents, "hate" in 1.
        assert!(tfidf.idf("hate") > tfidf.idf("speech"));
        // Unknown terms have the highest idf.
        assert!(tfidf.idf("quantum") >= tfidf.idf("hate"));
    }

    #[test]
    fn relevant_documents_rank_higher() {
        let idx = index();
        let tfidf = TfIdfIndex::new(&idx, 1.0);
        let results = tfidf.search("hate speech detection", 10, |_| true);
        assert_eq!(results[0].doc, 0);
        assert!(results[0].score > results.last().unwrap().score);
    }

    #[test]
    fn title_boost_prefers_title_matches() {
        let idx = index();
        let plain = TfIdfIndex::new(&idx, 1.0);
        let boosted = TfIdfIndex::new(&idx, 3.0);
        // Doc 2 has "speech" in its title, doc 1 only in its body.
        let plain_gap = plain.score("speech", 2) - plain.score("speech", 1);
        let boosted_gap = boosted.score("speech", 2) - boosted.score("speech", 1);
        assert!(boosted_gap > plain_gap);
    }

    #[test]
    fn limit_truncates_results() {
        let idx = index();
        let tfidf = TfIdfIndex::new(&idx, 1.0);
        let results = tfidf.search("speech", 1, |_| true);
        assert_eq!(results.len(), 1);
    }

    #[test]
    fn irrelevant_query_returns_nothing() {
        let idx = index();
        let tfidf = TfIdfIndex::new(&idx, 1.0);
        assert!(tfidf
            .search("quantum chromodynamics", 10, |_| true)
            .is_empty());
        assert!(tfidf.search("", 10, |_| true).is_empty());
    }

    #[test]
    fn ranking_is_deterministic_on_ties() {
        let mut idx = InvertedIndex::new();
        idx.add_document(5, "same title words", "");
        idx.add_document(3, "same title words", "");
        let tfidf = TfIdfIndex::new(&idx, 1.0);
        let results = tfidf.search("same title", 10, |_| true);
        assert_eq!(results[0].doc, 3);
        assert_eq!(results[1].doc, 5);
    }
}
