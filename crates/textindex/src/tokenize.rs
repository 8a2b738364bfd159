//! Tokenisation and stop-word filtering.
//!
//! A small, deterministic tokenizer adequate for scholarly titles and
//! abstracts: lowercase, split on non-alphanumeric characters, drop pure
//! numbers shorter than 4 digits (page numbers, etc.), and optionally drop
//! English stop words.  A light suffix-stripping stemmer folds trivial
//! plural/inflection variants together so that "networks" matches "network".
//!
//! `walk_terms` is the one tokenizer walk: [`tokenize_with`] collects what
//! it visits, and the inverted index interns it directly, so indexing ASCII
//! text allocates only for terms the vocabulary has not seen.

use serde::{Deserialize, Serialize};

/// A single token produced by [`tokenize`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Token {
    /// Normalised (lowercased, stemmed) form used for indexing.
    pub term: String,
    /// Position of the token in the source text (0-based token offset).
    pub position: usize,
}

/// English stop words that carry no topical signal in scholarly titles,
/// bucketed by byte length: `STOP_WORDS[n]` holds the stop words of `n`
/// bytes, so [`is_stop_word`] compares a term only with words of its own
/// length and hashes nothing.
pub const STOP_WORDS: [&[&str]; 9] = [
    &[],
    &["a"],
    &[
        "an", "or", "of", "in", "on", "to", "by", "at", "as", "is", "be", "it", "we", "do", "no",
    ],
    &[
        "the", "and", "for", "are", "was", "its", "our", "his", "her", "via", "can", "may", "not",
        "new",
    ],
    &[
        "with", "from", "were", "been", "this", "that", "your", "into", "over", "does",
    ],
    &[
        "being", "these", "those", "their", "using", "based", "under", "among", "about", "novel",
        "paper", "study",
    ],
    &["toward", "method"],
    &["towards", "between", "methods"],
    &["approach"],
];

/// Returns `true` if `term` is a stop word.
pub fn is_stop_word(term: &str) -> bool {
    STOP_WORDS
        .get(term.len())
        .is_some_and(|words| words.contains(&term))
}

/// A light stemmer: strips a handful of common English suffixes so that
/// surface variants of the same technical term collapse together.  This is
/// intentionally conservative (no Porter rules that mangle short technical
/// terms).
pub fn stem(term: &str) -> String {
    stem_slice(term).to_string()
}

/// [`stem`] as a slice of `term`.
fn stem_slice(term: &str) -> &str {
    // Order matters: longest suffixes first.
    for (suffix, min_len) in [
        ("ization", 9),
        ("ational", 9),
        ("ments", 7),
        ("ingly", 8),
        ("ities", 7),
        ("ing", 6),
        ("ions", 6),
        ("ies", 5),
        ("ers", 5),
        ("ed", 5),
        ("es", 5),
        ("s", 4),
    ] {
        if term.len() >= min_len {
            if let Some(stem) = term.strip_suffix(suffix) {
                return stem;
            }
        }
    }
    term
}

/// Options controlling [`tokenize_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenizeOptions {
    /// Drop stop words.
    pub remove_stop_words: bool,
    /// Apply the light stemmer.
    pub stem: bool,
    /// Minimum length (in UTF-8 bytes, after lowercasing) of a kept token.
    pub min_len: usize,
}

impl Default for TokenizeOptions {
    fn default() -> Self {
        TokenizeOptions {
            remove_stop_words: true,
            stem: true,
            min_len: 2,
        }
    }
}

/// Tokenises `text` with the default options (stop-word removal + stemming).
pub fn tokenize(text: &str) -> Vec<Token> {
    tokenize_with(text, TokenizeOptions::default())
}

/// Tokenises `text` without dropping stop words or stemming; used by the
/// keyphrase extractor, which needs the full surface sequence.
pub fn tokenize_surface(text: &str) -> Vec<Token> {
    tokenize_with(
        text,
        TokenizeOptions {
            remove_stop_words: false,
            stem: false,
            min_len: 1,
        },
    )
}

/// Tokenises `text` with explicit options.
pub fn tokenize_with(text: &str, options: TokenizeOptions) -> Vec<Token> {
    let mut tokens = Vec::new();
    walk_terms(text, options, &mut String::new(), |term, position| {
        tokens.push(Token {
            term: term.to_string(),
            position,
        });
    });
    tokens
}

/// Calls `visit(term, position)` for every token of `text` that `options`
/// keep, in text order.  `buf` is scratch the caller may reuse across calls;
/// `term` borrows it, so ASCII tokens are lowercased and stemmed without
/// allocating.
pub(crate) fn walk_terms(
    text: &str,
    options: TokenizeOptions,
    buf: &mut String,
    mut visit: impl FnMut(&str, usize),
) {
    let raw_tokens = text
        .split(|c: char| !c.is_alphanumeric())
        .filter(|raw| !raw.is_empty());
    for (position, raw) in raw_tokens.enumerate() {
        buf.clear();
        if raw.is_ascii() {
            buf.push_str(raw);
            buf.make_ascii_lowercase();
        } else {
            // `str::to_lowercase` applies the final-sigma rule (a word-final
            // `Σ` becomes `ς`), which depends on context a per-`char`
            // mapping cannot see.
            buf.push_str(&raw.to_lowercase());
        }
        if buf.len() < options.min_len {
            continue;
        }
        if buf.len() < 4 && buf.bytes().all(|b| b.is_ascii_digit()) {
            continue;
        }
        if options.remove_stop_words && is_stop_word(buf) {
            continue;
        }
        visit(if options.stem { stem_slice(buf) } else { buf }, position);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inverted::{Field, InvertedIndex};

    /// A direct, allocating implementation of the tokenizer's rules: the
    /// oracle [`walk_terms`] must match term for term and position for
    /// position.
    fn reference_tokenize_with(text: &str, options: TokenizeOptions) -> Vec<Token> {
        let mut tokens = Vec::new();
        let mut position = 0usize;
        for raw in text.split(|c: char| !c.is_alphanumeric()) {
            if raw.is_empty() {
                continue;
            }
            let lower = raw.to_lowercase();
            let current_position = position;
            position += 1;
            if lower.len() < options.min_len {
                continue;
            }
            if lower.chars().all(|c| c.is_ascii_digit()) && lower.len() < 4 {
                continue;
            }
            if options.remove_stop_words && STOP_WORDS.concat().contains(&lower.as_str()) {
                continue;
            }
            let term = if options.stem {
                reference_stem(&lower)
            } else {
                lower
            };
            tokens.push(Token {
                term,
                position: current_position,
            });
        }
        tokens
    }

    /// A direct, truncating implementation of the stemmer's rules.
    fn reference_stem(term: &str) -> String {
        let mut t = term.to_string();
        for (suffix, min_len) in [
            ("ization", 9),
            ("ational", 9),
            ("ments", 7),
            ("ingly", 8),
            ("ities", 7),
            ("ing", 6),
            ("ions", 6),
            ("ies", 5),
            ("ers", 5),
            ("ed", 5),
            ("es", 5),
            ("s", 4),
        ] {
            if t.len() >= min_len && t.ends_with(suffix) {
                t.truncate(t.len() - suffix.len());
                break;
            }
        }
        t
    }

    const SURFACE: TokenizeOptions = TokenizeOptions {
        remove_stop_words: false,
        stem: false,
        min_len: 1,
    };

    /// Checks `text` against the reference tokenizer, with the default and
    /// the surface options, and checks what indexing it records: the
    /// vocabulary in first-seen order, each term's frequency and the field
    /// lengths.
    pub(super) fn assert_walk_matches_reference(text: &str) {
        for options in [TokenizeOptions::default(), SURFACE] {
            assert_eq!(
                tokenize_with(text, options),
                reference_tokenize_with(text, options),
                "{text:?} with {options:?}"
            );
        }
        let reference = reference_tokenize_with(text, TokenizeOptions::default());
        let mut distinct: Vec<&str> = Vec::new();
        for token in &reference {
            if !distinct.contains(&token.term.as_str()) {
                distinct.push(&token.term);
            }
        }
        let mut index = InvertedIndex::new();
        index.add_document(0, text, text);
        let recorded: Vec<&str> = index.vocabulary().iter().map(|(_, t)| t).collect();
        assert_eq!(recorded, distinct, "vocabulary of {text:?}");
        for term in &distinct {
            let count = reference.iter().filter(|t| t.term == *term).count() as u32;
            for field in [Field::Title, Field::Body] {
                assert_eq!(index.term_frequency(field, term, 0), count, "{term:?}");
            }
        }
        let stats = index.doc_stats(0).expect("document 0 was added");
        assert_eq!(stats.title_len as usize, reference.len(), "{text:?}");
        assert_eq!(stats.body_len as usize, reference.len(), "{text:?}");
    }

    #[test]
    fn shared_walk_tokenizes_like_the_reference() {
        for text in [
            "",
            "Hate-Speech Detection: A Survey!",
            "MiXeD CaSe,punctuation;(brackets) [x] e-mail@host.org -- ...",
            "7 42 123 2019 12345",
            "this does: a survey of the state of the art, novel methods for the study",
            // Each suffix at its stemmer minimum length, then one byte short.
            "aaization aization aaational aational aaments aments aaaingly aaingly \
             aaities aities aaaing aaing aaions aions aaies aies aaers aers \
             aaaed aaed aaaes aaes aaas aas",
            "ΟΔΟΣ ΣΑΣ Σ",
            "İstanbul",
            "Straße naïve é",
            "Ⅻ ١٢٣",
        ] {
            assert_walk_matches_reference(text);
        }
    }

    #[test]
    fn stop_words_sit_in_their_length_bucket() {
        for (len, words) in STOP_WORDS.iter().enumerate() {
            for word in *words {
                assert_eq!(word.len(), len, "{word:?}");
                assert!(is_stop_word(word), "{word:?}");
            }
        }
        assert_eq!(STOP_WORDS.concat().len(), 58);
        for term in ["", "aa", "approaches", "methodology", "survey", "The"] {
            assert!(!is_stop_word(term), "{term:?}");
        }
    }

    #[test]
    fn lowercases_and_splits_on_punctuation() {
        let tokens = tokenize_surface("Hate-Speech Detection: A Survey!");
        let terms: Vec<_> = tokens.iter().map(|t| t.term.as_str()).collect();
        assert_eq!(terms, vec!["hate", "speech", "detection", "a", "survey"]);
    }

    #[test]
    fn positions_count_all_surface_tokens() {
        let tokens = tokenize("deep learning for the masses");
        // "for" and "the" are stop words but still consume positions.
        let positions: Vec<_> = tokens.iter().map(|t| t.position).collect();
        assert_eq!(positions, vec![0, 1, 4]);
    }

    #[test]
    fn stop_words_are_removed_by_default() {
        let tokens = tokenize("a survey of the state of the art");
        let terms: Vec<_> = tokens.iter().map(|t| t.term.as_str()).collect();
        assert_eq!(terms, vec!["survey", "state", "art"]);
    }

    #[test]
    fn stemming_folds_plurals() {
        assert_eq!(stem("networks"), "network");
        assert_eq!(stem("embeddings"), "embedding");
        assert_eq!(stem("learning"), "learn");
        // Short technical terms are left alone.
        assert_eq!(stem("gan"), "gan");
        assert_eq!(stem("bert"), "bert");
    }

    #[test]
    fn stemmed_variants_collide() {
        let a = tokenize("graph neural networks");
        let b = tokenize("graph neural network");
        let ta: Vec<_> = a.iter().map(|t| &t.term).collect();
        let tb: Vec<_> = b.iter().map(|t| &t.term).collect();
        assert_eq!(ta, tb);
    }

    #[test]
    fn short_numbers_are_dropped_but_years_kept() {
        let tokens = tokenize("volume 7 of 2019 proceedings");
        let terms: Vec<_> = tokens.iter().map(|t| t.term.as_str()).collect();
        assert!(!terms.contains(&"7"));
        assert!(terms.contains(&"2019"));
    }

    #[test]
    fn empty_and_symbol_only_input() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("!!! --- ###").is_empty());
    }

    #[test]
    fn options_disable_stop_word_removal_and_stemming() {
        let tokens = tokenize_with(
            "the networks",
            TokenizeOptions {
                remove_stop_words: false,
                stem: false,
                min_len: 1,
            },
        );
        let terms: Vec<_> = tokens.iter().map(|t| t.term.as_str()).collect();
        assert_eq!(terms, vec!["the", "networks"]);
    }
}

#[cfg(all(test, feature = "proptests"))]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Tokenisation never panics and always produces terms free of ASCII
        /// uppercase with monotonically increasing positions.
        #[test]
        fn tokens_are_normalized(text in ".{0,200}") {
            let tokens = tokenize(&text);
            let mut last = None;
            for t in &tokens {
                prop_assert!(t.term.chars().all(|c| !c.is_ascii_uppercase()));
                prop_assert!(!t.term.is_empty());
                if let Some(prev) = last {
                    prop_assert!(t.position > prev);
                }
                last = Some(t.position);
            }
        }

        /// The shared walk tokenizes and indexes exactly as the reference
        /// does, over the characters of the reference table.
        #[test]
        fn shared_walk_matches_the_reference(
            text in "[a-zA-Z0-9 .,:;!@()ΟΔΣΑσςİıßïéⅫ١٢٣-]{0,60}"
        ) {
            super::tests::assert_walk_matches_reference(&text);
        }

        /// Surface tokenisation (no stemming / stop-word removal) is stable
        /// under re-joining: tokenising the joined terms yields the same
        /// sequence of terms.
        #[test]
        fn retokenizing_terms_is_stable(text in "[a-zA-Z ]{0,120}") {
            let options = TokenizeOptions { remove_stop_words: false, stem: false, min_len: 1 };
            let first: Vec<String> =
                tokenize_with(&text, options).into_iter().map(|t| t.term).collect();
            let joined = first.join(" ");
            let second: Vec<String> =
                tokenize_with(&joined, options).into_iter().map(|t| t.term).collect();
            prop_assert_eq!(first, second);
        }
    }
}
