//! Term vocabulary: interning of normalised terms to dense ids.
//!
//! All indexes in this crate share the pattern of mapping terms to dense
//! `u32` ids so that postings and per-term statistics can live in flat
//! vectors.  [`Vocabulary`] provides that interning: ids are handed out in
//! first-seen order, and [`crate::InvertedIndex`] indexes its per-field
//! postings `Vec`s by them directly, in the same order the snapshot's index
//! section stores its string table.  Interning a term already present
//! allocates nothing.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A dense identifier for an interned term.
pub type TermId = u32;

/// A bidirectional term ↔ id mapping.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Vocabulary {
    term_to_id: HashMap<String, TermId>,
    id_to_term: Vec<String>,
}

impl Vocabulary {
    /// Creates an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.id_to_term.len()
    }

    /// Whether the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.id_to_term.is_empty()
    }

    /// Interns `term`, returning its id (existing or freshly assigned).
    pub fn intern(&mut self, term: &str) -> TermId {
        if let Some(&id) = self.term_to_id.get(term) {
            return id;
        }
        let id = self.id_to_term.len() as TermId;
        self.id_to_term.push(term.to_string());
        self.term_to_id.insert(term.to_string(), id);
        id
    }

    /// Looks up an already-interned term.
    pub fn get(&self, term: &str) -> Option<TermId> {
        self.term_to_id.get(term).copied()
    }

    /// The surface form of an interned id.
    pub fn term(&self, id: TermId) -> Option<&str> {
        self.id_to_term.get(id as usize).map(String::as_str)
    }

    /// Iterates over `(id, term)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &str)> {
        self.id_to_term
            .iter()
            .enumerate()
            .map(|(i, t)| (i as TermId, t.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut v = Vocabulary::new();
        let a = v.intern("graph");
        let b = v.intern("graph");
        assert_eq!(a, b);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut v = Vocabulary::new();
        assert_eq!(v.intern("a"), 0);
        assert_eq!(v.intern("b"), 1);
        assert_eq!(v.intern("c"), 2);
        assert_eq!(v.term(1), Some("b"));
        assert_eq!(v.term(9), None);
    }

    #[test]
    fn lookup_of_unknown_term_is_none() {
        let v = Vocabulary::new();
        assert!(v.get("missing").is_none());
        assert!(v.is_empty());
    }

    #[test]
    fn iter_covers_all_terms() {
        let mut v = Vocabulary::new();
        for t in ["x", "y", "z"] {
            v.intern(t);
        }
        let collected: Vec<_> = v.iter().map(|(_, t)| t.to_string()).collect();
        assert_eq!(collected, vec!["x", "y", "z"]);
    }
}

#[cfg(all(test, feature = "proptests"))]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Every interned term round-trips through its id, and ids stay dense.
        #[test]
        fn round_trip(terms in prop::collection::vec("[a-z]{1,8}", 0..100)) {
            let mut v = Vocabulary::new();
            let ids: Vec<TermId> = terms.iter().map(|t| v.intern(t)).collect();
            for (term, id) in terms.iter().zip(&ids) {
                prop_assert_eq!(v.term(*id), Some(term.as_str()));
                prop_assert_eq!(v.get(term), Some(*id));
            }
            let distinct: std::collections::HashSet<_> = terms.iter().collect();
            prop_assert_eq!(v.len(), distinct.len());
        }
    }
}
