//! Inverted index over document fields.
//!
//! Documents are added as `(doc id, title, body)` pairs; the index keeps
//! separate per-field postings because the simulated search engines weight
//! title matches much more heavily than body matches (mirroring the paper's
//! observation that existing engines "solely return the paper whose title
//! contains query phrases").
//!
//! The layout is dense and matches the snapshot's index section: each
//! field's postings are a `Vec` indexed by [`TermId`] (an empty list for a
//! term that occurs only in the other field), and per-document statistics
//! are a `Vec` indexed by [`DocId`].  Ids may be added sparsely and in any
//! order; a slot whose id was never added holds `None` and does not count
//! as a document.  The index also keeps the document count and each field's
//! total length as documents come in, so the averages BM25 asks for once
//! per candidate cost a division, not a pass over every document.

use crate::tokenize::{tokenize, walk_terms, TokenizeOptions};
use crate::vocab::{TermId, Vocabulary};
use crate::DocId;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// Which document field a posting refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Field {
    /// The paper title.
    Title,
    /// The paper abstract / body text.
    Body,
}

/// A single posting: a document and the in-field term frequency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Posting {
    /// The document containing the term.
    pub doc: DocId,
    /// Number of occurrences of the term in the field.
    pub term_frequency: u32,
}

/// Per-document statistics kept by the index.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DocStats {
    /// Number of (post-tokenisation) terms in the title field.
    pub title_len: u32,
    /// Number of (post-tokenisation) terms in the body field.
    pub body_len: u32,
}

/// An inverted index with separate title and body postings.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct InvertedIndex {
    vocab: Vocabulary,
    /// Title postings by [`TermId`], in the order documents were added.
    title_postings: Vec<Vec<Posting>>,
    /// Body postings by [`TermId`]; always as long as `title_postings`.
    body_postings: Vec<Vec<Posting>>,
    /// Statistics by [`DocId`]; `None` for an id never added.
    doc_stats: Vec<Option<DocStats>>,
    /// Number of `Some` entries in `doc_stats`.
    doc_count: usize,
    /// Sum of `title_len` over `doc_stats`.
    title_len_total: u64,
    /// Sum of `body_len` over `doc_stats`.
    body_len_total: u64,
}

thread_local! {
    /// Scratch for [`InvertedIndex::add_document`], reused across documents.
    /// It lives outside the index so the index stays plain data to clone
    /// and serialise.
    static SCRATCH: RefCell<FieldScratch> = RefCell::default();
}

/// What indexing one field needs besides the index itself.
#[derive(Default)]
struct FieldScratch {
    /// The tokenizer's lowercase buffer.
    buf: String,
    /// Occurrences of each [`TermId`] in the field being indexed; zero
    /// between fields.
    tf: Vec<u32>,
    /// The ids with a non-zero `tf`, in first-occurrence order.
    touched: Vec<TermId>,
}

impl InvertedIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of indexed documents.
    pub fn doc_count(&self) -> usize {
        self.doc_count
    }

    /// Number of distinct terms across both fields.
    pub fn term_count(&self) -> usize {
        self.vocab.len()
    }

    /// The vocabulary used by this index.
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Per-document length statistics, if the document was indexed.
    pub fn doc_stats(&self, doc: DocId) -> Option<DocStats> {
        self.doc_stats.get(doc as usize).copied().flatten()
    }

    /// Average body length over all indexed documents (used by BM25).
    pub fn average_body_len(&self) -> f64 {
        self.average_len(self.body_len_total)
    }

    /// Average title length over all indexed documents.
    pub fn average_title_len(&self) -> f64 {
        self.average_len(self.title_len_total)
    }

    fn average_len(&self, total: u64) -> f64 {
        if self.doc_count == 0 {
            return 0.0;
        }
        total as f64 / self.doc_count as f64
    }

    /// Indexes a document.  Re-adding an existing `doc` id appends postings
    /// (callers are expected to use unique ids).  Memory grows with the
    /// largest id added, so ids should be dense.
    pub fn add_document(&mut self, doc: DocId, title: &str, body: &str) {
        let (title_len, body_len) = SCRATCH.with_borrow_mut(|scratch| {
            (
                self.index_field(Field::Title, doc, title, scratch),
                self.index_field(Field::Body, doc, body, scratch),
            )
        });
        let slot = doc as usize;
        if slot >= self.doc_stats.len() {
            self.doc_stats.resize(slot + 1, None);
        }
        let stats = self.doc_stats[slot].get_or_insert_with(|| {
            self.doc_count += 1;
            DocStats::default()
        });
        stats.title_len += title_len;
        stats.body_len += body_len;
        self.title_len_total += u64::from(title_len);
        self.body_len_total += u64::from(body_len);
    }

    /// Interns the terms of one field of `doc` and appends one posting per
    /// distinct term; returns the number of terms the field kept.
    fn index_field(
        &mut self,
        field: Field,
        doc: DocId,
        text: &str,
        scratch: &mut FieldScratch,
    ) -> u32 {
        let FieldScratch { buf, tf, touched } = scratch;
        let mut len = 0;
        walk_terms(text, TokenizeOptions::default(), buf, |term, _| {
            let id = self.vocab.intern(term);
            let slot = id as usize;
            if slot == self.title_postings.len() {
                self.title_postings.push(Vec::new());
                self.body_postings.push(Vec::new());
            }
            if slot >= tf.len() {
                tf.resize(slot + 1, 0);
            }
            if tf[slot] == 0 {
                touched.push(id);
            }
            tf[slot] += 1;
            len += 1;
        });
        let lists = match field {
            Field::Title => &mut self.title_postings,
            Field::Body => &mut self.body_postings,
        };
        for id in touched.drain(..) {
            lists[id as usize].push(Posting {
                doc,
                term_frequency: std::mem::take(&mut tf[id as usize]),
            });
        }
        len
    }

    /// Rebuilds an index from previously extracted parts (e.g. a decoded
    /// snapshot section) without re-tokenising any text.
    ///
    /// `terms` lists the vocabulary in id order; `title_postings` and
    /// `body_postings` are indexed by [`TermId`] and must have one (possibly
    /// empty) postings list per term; `doc_stats` lists the per-document
    /// length statistics.  The postings lists are moved in as they are.
    /// Returns a human-readable error when the parts are structurally
    /// inconsistent (duplicate terms, postings for unknown documents,
    /// mismatched lengths).
    pub fn from_parts(
        terms: Vec<String>,
        title_postings: Vec<Vec<Posting>>,
        body_postings: Vec<Vec<Posting>>,
        doc_stats: Vec<(DocId, DocStats)>,
    ) -> Result<Self, String> {
        if title_postings.len() != terms.len() || body_postings.len() != terms.len() {
            return Err(format!(
                "postings tables have {}/{} entries for {} terms",
                title_postings.len(),
                body_postings.len(),
                terms.len()
            ));
        }
        let mut vocab = Vocabulary::new();
        for (i, term) in terms.iter().enumerate() {
            let id = vocab.intern(term);
            if id as usize != i {
                return Err(format!("duplicate vocabulary term {term:?}"));
            }
        }
        let slots = doc_stats.iter().map(|&(doc, _)| doc as usize + 1).max();
        let mut stats = vec![None; slots.unwrap_or(0)];
        for &(doc, s) in &doc_stats {
            if stats[doc as usize].replace(s).is_some() {
                return Err("duplicate document in doc stats".to_string());
            }
        }
        let known = |doc: DocId| matches!(stats.get(doc as usize), Some(Some(_)));
        for lists in [&title_postings, &body_postings] {
            for (term, postings) in terms.iter().zip(lists) {
                if let Some(p) = postings.iter().find(|p| !known(p.doc)) {
                    return Err(format!(
                        "postings for term {term:?} reference unknown document {}",
                        p.doc
                    ));
                }
            }
        }
        let total =
            |len: fn(&DocStats) -> u32| doc_stats.iter().map(|(_, s)| u64::from(len(s))).sum();
        Ok(InvertedIndex {
            vocab,
            title_postings,
            body_postings,
            doc_count: doc_stats.len(),
            title_len_total: total(|s| s.title_len),
            body_len_total: total(|s| s.body_len),
            doc_stats: stats,
        })
    }

    /// The postings list of `term` in `field`, empty if the term is unknown.
    pub fn postings(&self, field: Field, term: &str) -> &[Posting] {
        let Some(id) = self.vocab.get(term) else {
            return &[];
        };
        let lists = match field {
            Field::Title => &self.title_postings,
            Field::Body => &self.body_postings,
        };
        &lists[id as usize]
    }

    /// Document frequency of `term` across both fields (a document counts
    /// once even if the term appears in both its title and body).
    pub fn combined_document_frequency(&self, term: &str) -> usize {
        let title = self.postings(Field::Title, term);
        let body = self.postings(Field::Body, term);
        // Sized for the worst case up front: growing the set rehashes every
        // doc id inserted so far, and BM25 runs this per candidate and term.
        let mut docs = std::collections::HashSet::with_capacity(title.len() + body.len());
        docs.extend(title.iter().chain(body).map(|p| p.doc));
        docs.len()
    }

    /// Term frequency of `term` in the given field of `doc`.
    pub fn term_frequency(&self, field: Field, term: &str, doc: DocId) -> u32 {
        self.postings(field, term)
            .iter()
            .find(|p| p.doc == doc)
            .map(|p| p.term_frequency)
            .unwrap_or(0)
    }

    /// Documents containing *any* query term (boolean OR retrieval).
    pub fn disjunctive_candidates(&self, query: &str) -> Vec<DocId> {
        let terms: Vec<String> = tokenize(query).into_iter().map(|t| t.term).collect();
        let mut docs: std::collections::HashSet<DocId> = std::collections::HashSet::new();
        for term in &terms {
            docs.extend(self.postings(Field::Title, term).iter().map(|p| p.doc));
            docs.extend(self.postings(Field::Body, term).iter().map(|p| p.doc));
        }
        let mut result: Vec<DocId> = docs.into_iter().collect();
        result.sort_unstable();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_index() -> InvertedIndex {
        let mut idx = InvertedIndex::new();
        idx.add_document(
            0,
            "A survey on hate speech detection",
            "hate speech detection on social media platforms",
        );
        idx.add_document(
            1,
            "Deep learning for image classification",
            "convolutional networks for images",
        );
        idx.add_document(
            2,
            "Hate speech and abusive language",
            "annotation of abusive language corpora",
        );
        idx
    }

    #[test]
    fn doc_and_term_counts() {
        let idx = sample_index();
        assert_eq!(idx.doc_count(), 3);
        assert!(idx.term_count() > 5);
    }

    #[test]
    fn title_postings_find_documents() {
        let idx = sample_index();
        let docs: Vec<_> = idx
            .postings(Field::Title, "hate")
            .iter()
            .map(|p| p.doc)
            .collect();
        assert_eq!(docs, vec![0, 2]);
    }

    #[test]
    fn term_frequencies_are_per_field() {
        let idx = sample_index();
        assert_eq!(idx.term_frequency(Field::Title, "speech", 0), 1);
        assert_eq!(idx.term_frequency(Field::Body, "speech", 0), 1);
        assert_eq!(idx.term_frequency(Field::Body, "speech", 1), 0);
    }

    #[test]
    fn combined_document_frequency_deduplicates() {
        let idx = sample_index();
        // "speech" appears in both title and body of doc 0, and title of doc 2.
        assert_eq!(idx.combined_document_frequency("speech"), 2);
    }

    #[test]
    fn disjunctive_retrieval_takes_union() {
        let idx = sample_index();
        assert_eq!(idx.disjunctive_candidates("hate image"), vec![0, 1, 2]);
        assert!(idx.disjunctive_candidates("").is_empty());
    }

    #[test]
    fn doc_stats_track_lengths() {
        let idx = sample_index();
        let stats = idx.doc_stats(0).unwrap();
        assert!(stats.title_len >= 3);
        assert!(stats.body_len >= 4);
        assert!(idx.doc_stats(99).is_none());
        assert!(idx.average_body_len() > 0.0);
        assert!(idx.average_title_len() > 0.0);
    }

    /// Rebuilds `idx` through [`InvertedIndex::from_parts`] from what its
    /// public accessors report for the documents `docs`, and checks that the
    /// rebuilt index reports the same.
    fn assert_round_trips(idx: &InvertedIndex, docs: &[DocId]) {
        let terms: Vec<String> = idx
            .vocabulary()
            .iter()
            .map(|(_, t)| t.to_string())
            .collect();
        let extract = |field: Field| -> Vec<Vec<Posting>> {
            terms
                .iter()
                .map(|t| idx.postings(field, t).to_vec())
                .collect()
        };
        let stats: Vec<(DocId, DocStats)> = docs
            .iter()
            .map(|&d| (d, idx.doc_stats(d).unwrap()))
            .collect();
        let rebuilt = InvertedIndex::from_parts(
            terms.clone(),
            extract(Field::Title),
            extract(Field::Body),
            stats,
        )
        .unwrap();
        assert_eq!(rebuilt.doc_count(), idx.doc_count());
        assert_eq!(rebuilt.term_count(), idx.term_count());
        for term in &terms {
            assert_eq!(
                rebuilt.postings(Field::Title, term),
                idx.postings(Field::Title, term)
            );
            assert_eq!(
                rebuilt.postings(Field::Body, term),
                idx.postings(Field::Body, term)
            );
        }
        let last = docs.iter().max().map_or(0, |&d| d + 1);
        for doc in 0..=last {
            assert_eq!(rebuilt.doc_stats(doc), idx.doc_stats(doc));
        }
        assert_eq!(rebuilt.average_body_len(), idx.average_body_len());
        assert_eq!(rebuilt.average_title_len(), idx.average_title_len());
    }

    #[test]
    fn from_parts_round_trips_an_index() {
        assert_round_trips(&sample_index(), &[0, 1, 2]);
    }

    #[test]
    fn sparse_unordered_ids_count_only_added_documents() {
        let mut idx = InvertedIndex::new();
        idx.add_document(5, "graph neural networks", "message passing on graphs");
        idx.add_document(3, "graph databases", "storage");
        assert_eq!(idx.doc_count(), 2);
        assert!(idx.doc_stats(4).is_none());
        assert!(idx.doc_stats(0).is_none());
        let (five, three) = (idx.doc_stats(5).unwrap(), idx.doc_stats(3).unwrap());
        assert_eq!(
            idx.average_title_len(),
            f64::from(five.title_len + three.title_len) / 2.0
        );
        assert_eq!(
            idx.average_body_len(),
            f64::from(five.body_len + three.body_len) / 2.0
        );
        let docs: Vec<_> = idx
            .postings(Field::Title, "graph")
            .iter()
            .map(|p| p.doc)
            .collect();
        assert_eq!(
            docs,
            vec![5, 3],
            "postings keep the order documents came in"
        );
        assert_round_trips(&idx, &[5, 3]);
    }

    #[test]
    fn readding_a_document_appends() {
        let mut idx = InvertedIndex::new();
        idx.add_document(1, "graph graph", "");
        idx.add_document(1, "graph", "");
        assert_eq!(idx.doc_count(), 1);
        assert_eq!(
            idx.postings(Field::Title, "graph"),
            [
                Posting {
                    doc: 1,
                    term_frequency: 2
                },
                Posting {
                    doc: 1,
                    term_frequency: 1
                },
            ]
        );
        assert_eq!(idx.doc_stats(1).unwrap().title_len, 3);
        assert_eq!(idx.average_title_len(), 3.0);
        assert_round_trips(&idx, &[1]);
    }

    #[test]
    fn from_parts_rejects_inconsistent_parts() {
        // Mismatched postings-table length.
        assert!(
            InvertedIndex::from_parts(vec!["a".to_string()], vec![], vec![vec![]], vec![]).is_err()
        );
        // Duplicate vocabulary term.
        assert!(InvertedIndex::from_parts(
            vec!["a".to_string(), "a".to_string()],
            vec![vec![], vec![]],
            vec![vec![], vec![]],
            vec![],
        )
        .is_err());
        // Posting referencing a document with no stats.
        assert!(InvertedIndex::from_parts(
            vec!["a".to_string()],
            vec![vec![Posting {
                doc: 7,
                term_frequency: 1
            }]],
            vec![vec![]],
            vec![],
        )
        .is_err());
        // Posting whose document lies past the last doc-stats entry.
        assert!(InvertedIndex::from_parts(
            vec!["a".to_string()],
            vec![vec![]],
            vec![vec![Posting {
                doc: 1,
                term_frequency: 1
            }]],
            vec![(0, DocStats::default())],
        )
        .is_err());
        // Duplicate doc-stats entry.
        assert!(InvertedIndex::from_parts(
            vec![],
            vec![],
            vec![],
            vec![(0, DocStats::default()), (0, DocStats::default())],
        )
        .is_err());
    }

    #[test]
    fn empty_index_averages_are_zero() {
        let idx = InvertedIndex::new();
        assert_eq!(idx.average_body_len(), 0.0);
        assert_eq!(idx.average_title_len(), 0.0);
    }
}

#[cfg(all(test, feature = "proptests"))]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Every document that contains a term lexically is discoverable
        /// through the postings of that term.
        #[test]
        fn postings_cover_documents(titles in prop::collection::vec("[a-z]{3,8}( [a-z]{3,8}){0,5}", 1..20)) {
            let mut idx = InvertedIndex::new();
            for (i, title) in titles.iter().enumerate() {
                idx.add_document(i as DocId, title, "");
            }
            for (i, title) in titles.iter().enumerate() {
                for token in tokenize(title) {
                    let docs: Vec<_> = idx
                        .postings(Field::Title, &token.term)
                        .iter()
                        .map(|p| p.doc)
                        .collect();
                    prop_assert!(docs.contains(&(i as DocId)));
                }
            }
        }

        /// The averages BM25 reads equal the doc stats summed afresh, for
        /// sparse, unordered and repeated ids.
        #[test]
        fn averages_match_doc_stats(
            docs in prop::collection::vec(
                (0u32..8, "[a-z]{3,6}( [a-z]{3,6}){0,4}", "[a-z]{3,6}( [a-z]{3,6}){0,6}"),
                1..12,
            ),
        ) {
            let mut idx = InvertedIndex::new();
            for (doc, title, body) in &docs {
                idx.add_document(*doc, title, body);
            }
            let stats: Vec<DocStats> = (0..8).filter_map(|d| idx.doc_stats(d)).collect();
            prop_assert_eq!(idx.doc_count(), stats.len());
            let n = stats.len() as f64;
            let title: u32 = stats.iter().map(|s| s.title_len).sum();
            let body: u32 = stats.iter().map(|s| s.body_len).sum();
            prop_assert_eq!(idx.average_title_len(), f64::from(title) / n);
            prop_assert_eq!(idx.average_body_len(), f64::from(body) / n);
        }
    }
}
