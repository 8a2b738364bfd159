//! One text index per corpus: the index a corpus carries is the index a
//! sequential `add_document` pass over its papers builds, every engine
//! index and artifact set over the corpus shares that one allocation, and
//! a snapshot round trip gives it back unchanged.
//!
//! Each test runs on the demonstration corpus, the `CorpusConfig::small()`
//! corpus and the default-scale benchmark corpus.

use rpg_corpus::{generate, Corpus, CorpusConfig};
use rpg_engines::{EngineIndex, Query};
use rpg_graph::pagerank::pagerank_default;
use rpg_repager::artifacts::CorpusArtifacts;
use rpg_repager::weights::NodeWeights;
use rpg_service::snapshot::{self, NO_SPEC_FINGERPRINT};
use rpg_textindex::inverted::{Field, InvertedIndex};
use rpg_textindex::tfidf::ScoredDoc;
use std::sync::{Arc, OnceLock};

/// Surveys per corpus whose seed rankings the round-trip test compares.
const RANKED_SURVEYS: usize = 10;

/// The three corpora, generated once for the whole file.
fn corpora() -> &'static [(&'static str, Arc<Corpus>)] {
    static CORPORA: OnceLock<Vec<(&'static str, Arc<Corpus>)>> = OnceLock::new();
    CORPORA.get_or_init(|| {
        vec![
            ("demo", rpg_repro::demo_corpus()),
            ("small", Arc::new(generate(&CorpusConfig::small()))),
            (
                "default scale",
                Arc::new(generate(&rpg_bench::bench_corpus_config())),
            ),
        ]
    })
}

/// `add_document` over every paper's title and abstract, in id order.
fn sequential_index(corpus: &Corpus) -> InvertedIndex {
    let mut index = InvertedIndex::new();
    for paper in corpus.papers() {
        index.add_document(paper.id.0, &paper.title, &paper.abstract_text);
    }
    index
}

/// Asserts that two indexes over `docs` documents hold the same vocabulary
/// in the same id order, the same postings in both fields, the same
/// per-document stats and bit-identical average lengths.
fn assert_same_index(what: &str, a: &InvertedIndex, b: &InvertedIndex, docs: usize) {
    let terms: Vec<(u32, &str)> = a.vocabulary().iter().collect();
    assert_eq!(
        terms,
        b.vocabulary().iter().collect::<Vec<_>>(),
        "{what}: vocabulary"
    );
    for field in [Field::Title, Field::Body] {
        for &(_, term) in &terms {
            assert_eq!(
                a.postings(field, term),
                b.postings(field, term),
                "{what}: {field:?} postings of {term:?}"
            );
        }
    }
    assert_eq!(a.doc_count(), b.doc_count(), "{what}: document count");
    for doc in 0..=docs as u32 {
        assert_eq!(a.doc_stats(doc), b.doc_stats(doc), "{what}: stats of {doc}");
    }
    assert_eq!(
        a.average_title_len().to_bits(),
        b.average_title_len().to_bits(),
        "{what}: average title length"
    );
    assert_eq!(
        a.average_body_len().to_bits(),
        b.average_body_len().to_bits(),
        "{what}: average body length"
    );
}

fn bits(ranking: &[ScoredDoc]) -> Vec<(u32, u64)> {
    ranking.iter().map(|s| (s.doc, s.score.to_bits())).collect()
}

#[test]
fn the_corpus_index_equals_a_sequential_build() {
    for (name, corpus) in corpora() {
        assert_eq!(corpus.text_index().doc_count(), corpus.len(), "{name}");
        assert_same_index(
            name,
            corpus.text_index(),
            &sequential_index(corpus),
            corpus.len(),
        );
    }
}

#[test]
fn engines_and_artifacts_share_the_corpus_index() {
    for (name, corpus) in corpora() {
        let index = EngineIndex::build(corpus);
        assert!(
            Arc::ptr_eq(index.inverted(), corpus.text_index()),
            "{name}: EngineIndex::build copied the index"
        );
        let artifacts = CorpusArtifacts::build(corpus.clone()).expect("artifacts build");
        assert!(
            Arc::ptr_eq(artifacts.index().inverted(), corpus.text_index()),
            "{name}: CorpusArtifacts::build copied the index"
        );

        // PageRank and the node weights equal a plain computation over the
        // graph, bit for bit.
        let pagerank = pagerank_default(corpus.graph()).expect("pagerank");
        let score_bits = |scores: &[f64]| scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            score_bits(&artifacts.pagerank().scores),
            score_bits(&pagerank.scores),
            "{name}: PageRank scores"
        );
        assert_eq!(artifacts.pagerank().iterations, pagerank.iterations);
        assert_eq!(
            artifacts.pagerank().delta.to_bits(),
            pagerank.delta.to_bits()
        );
        let (a, b) = (
            artifacts.node_weights(),
            NodeWeights::build(corpus, &pagerank),
        );
        assert_eq!(a.len(), corpus.len());
        for paper in corpus.papers() {
            assert_eq!(
                a.pagerank(paper.id).to_bits(),
                b.pagerank(paper.id).to_bits()
            );
            assert_eq!(a.venue(paper.id).to_bits(), b.venue(paper.id).to_bits());
        }
    }
}

#[test]
fn a_snapshot_round_trip_keeps_the_index_and_the_rankings() {
    for (name, corpus) in corpora() {
        let built = CorpusArtifacts::build(corpus.clone()).expect("artifacts build");
        let bytes = snapshot::encode(&built, NO_SPEC_FINGERPRINT).expect("encodes");
        let loaded = snapshot::decode(&bytes, NO_SPEC_FINGERPRINT).expect("decodes");
        assert_same_index(
            name,
            loaded.corpus().text_index(),
            corpus.text_index(),
            corpus.len(),
        );
        assert!(
            Arc::ptr_eq(loaded.index().inverted(), loaded.corpus().text_index()),
            "{name}: the loaded engine index copied the decoded index"
        );
        let (a, b) = (loaded.index(), built.index());
        for paper in corpus.papers() {
            assert_eq!(a.year(paper.id), b.year(paper.id));
            assert_eq!(a.citation_count(paper.id), b.citation_count(paper.id));
            assert_eq!(a.is_survey(paper.id), b.is_survey(paper.id));
        }
        // The seed engine over the decoded index ranks every candidate with
        // the same score.
        for survey in corpus.survey_bank().iter().take(RANKED_SURVEYS) {
            let exclude = [survey.paper];
            let query = Query {
                text: &survey.query,
                top_k: 30,
                max_year: Some(survey.year),
                exclude: &exclude,
            };
            let rank = |artifacts: &CorpusArtifacts| {
                bits(&artifacts.scholar().lexical().ranked_candidates(&query))
            };
            assert_eq!(
                rank(&loaded),
                rank(&built),
                "{name}: ranking of {:?}",
                survey.query
            );
        }
    }
}

#[test]
fn from_parts_rejects_an_index_over_other_papers() {
    for (name, corpus) in corpora() {
        let references: Vec<_> = corpus
            .papers()
            .iter()
            .map(|p| corpus.references_of(p.id).to_vec())
            .collect();
        let from_parts = |index: InvertedIndex| {
            Corpus::from_parts(
                corpus.papers().to_vec(),
                references.clone(),
                corpus.graph().clone(),
                index,
                corpus.topics().clone(),
                corpus.venues().clone(),
                corpus.survey_bank().clone(),
            )
        };

        let own = from_parts(InvertedIndex::clone(corpus.text_index())).expect("own index");
        assert_eq!(own.text_index().doc_count(), corpus.len());

        let mut missing_last = InvertedIndex::new();
        for paper in &corpus.papers()[..corpus.len() - 1] {
            missing_last.add_document(paper.id.0, &paper.title, &paper.abstract_text);
        }
        assert!(from_parts(missing_last).is_err(), "{name}: a paper short");

        let mut extra = InvertedIndex::clone(corpus.text_index());
        extra.add_document(corpus.len() as u32, "an extra paper", "");
        assert!(from_parts(extra).is_err(), "{name}: a paper over");

        let mut shifted = InvertedIndex::new();
        for paper in corpus.papers() {
            shifted.add_document(paper.id.0 + 1, &paper.title, &paper.abstract_text);
        }
        assert!(from_parts(shifted).is_err(), "{name}: ids off by one");
    }
}
