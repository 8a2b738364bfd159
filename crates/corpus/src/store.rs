//! The assembled corpus: papers, reference lists, citation graph, text
//! index, and the SurveyBank benchmark derived from it.
//!
//! [`Corpus`] is the object every downstream crate works against: the
//! simulated search engines score its text index, the RePaGer pipeline
//! walks its citation graph and reads its per-edge occurrence counts, and
//! the evaluation harness iterates its surveys.
//!
//! The text index is part of the corpus because it is a pure function of
//! the papers: one loop adds every title and abstract in id order.
//! It is built once per corpus and shared behind an `Arc`, so every engine
//! index, artifact set and snapshot over the corpus reads the same one.
//! The generator builds it on a thread beside its citation wiring;
//! [`Corpus::assemble`] builds it inline; [`Corpus::from_parts`] takes a
//! decoded one and checks that it covers exactly the papers.

use crate::citation::Reference;
use crate::paper::{Paper, PaperId};
use crate::survey::SurveyBank;
use crate::topic::TopicCatalog;
use crate::venue::VenueTable;
use rpg_graph::{CitationGraph, GraphBuilder, NodeId};
use rpg_textindex::InvertedIndex;
use std::sync::Arc;

/// A complete synthetic scholarly corpus.
#[derive(Debug, Clone)]
pub struct Corpus {
    papers: Vec<Paper>,
    references: Vec<Vec<Reference>>,
    graph: CitationGraph,
    index: Arc<InvertedIndex>,
    topics: TopicCatalog,
    venues: VenueTable,
    survey_bank: SurveyBank,
}

/// The text index of `papers`: each paper's title and abstract, added in
/// slice order under its id. The one way a corpus's index is built.
pub(crate) fn text_index(papers: &[Paper]) -> InvertedIndex {
    let mut index = InvertedIndex::new();
    for paper in papers {
        index.add_document(paper.id.0, &paper.title, &paper.abstract_text);
    }
    index
}

impl Corpus {
    /// Assembles a corpus from papers and their reference lists, building the
    /// citation graph and the text index.  The survey bank starts empty; the
    /// dataset pipeline (see [`crate::pipeline`]) fills it in.
    ///
    /// # Panics
    ///
    /// Panics if `references.len() != papers.len()` or if any reference
    /// points outside the paper set — these are programming errors of the
    /// generator, not recoverable conditions.
    pub fn assemble(
        papers: Vec<Paper>,
        references: Vec<Vec<Reference>>,
        topics: TopicCatalog,
        venues: VenueTable,
    ) -> Self {
        let index = text_index(&papers);
        Self::assemble_indexed(papers, references, index, topics, venues)
    }

    /// [`Corpus::assemble`] with the text index already built by
    /// [`text_index`] over the same `papers`.
    pub(crate) fn assemble_indexed(
        papers: Vec<Paper>,
        references: Vec<Vec<Reference>>,
        index: InvertedIndex,
        topics: TopicCatalog,
        venues: VenueTable,
    ) -> Self {
        assert_eq!(
            papers.len(),
            references.len(),
            "one reference list per paper"
        );
        let mut builder =
            GraphBuilder::with_edge_capacity(papers.len(), references.iter().map(Vec::len).sum());
        for (citing, refs) in references.iter().enumerate() {
            for r in refs {
                builder
                    .add_citation(NodeId::from_index(citing), r.cited.node())
                    .expect("generator produced an invalid citation edge");
            }
        }
        let graph = builder.build();
        Corpus {
            papers,
            references,
            graph,
            index: Arc::new(index),
            topics,
            venues,
            survey_bank: SurveyBank::default(),
        }
    }

    /// Reassembles a corpus from previously extracted parts (e.g. a decoded
    /// snapshot), including a pre-built citation graph and text index,
    /// without re-running the graph builder or the tokenizer.
    ///
    /// Unlike [`Corpus::assemble`] this validates instead of panicking,
    /// because the parts come from external bytes rather than the generator:
    /// paper ids must be dense and in order, every reference must stay in
    /// bounds, the graph's node count and per-node reference lists must
    /// agree with `references` exactly, and the index must hold a document
    /// for every paper and no other.
    pub fn from_parts(
        papers: Vec<Paper>,
        references: Vec<Vec<Reference>>,
        graph: CitationGraph,
        index: InvertedIndex,
        topics: TopicCatalog,
        venues: VenueTable,
        survey_bank: SurveyBank,
    ) -> Result<Self, String> {
        if references.len() != papers.len() {
            return Err(format!(
                "{} reference lists for {} papers",
                references.len(),
                papers.len()
            ));
        }
        if graph.node_count() != papers.len() {
            return Err(format!(
                "graph has {} nodes for {} papers",
                graph.node_count(),
                papers.len()
            ));
        }
        for (i, paper) in papers.iter().enumerate() {
            if paper.id.index() != i {
                return Err(format!(
                    "paper ids are not dense: position {i} holds {:?}",
                    paper.id
                ));
            }
        }
        let mut cited = Vec::new();
        for (i, refs) in references.iter().enumerate() {
            cited.clear();
            cited.extend(refs.iter().map(|r| r.cited.node()));
            cited.sort_unstable();
            if cited.windows(2).any(|w| w[0] == w[1]) {
                return Err(format!("paper {i} references the same paper twice"));
            }
            // GraphBuilder emits sorted adjacency slices, so a sorted copy of
            // the reference list must match the graph's slice exactly.
            if cited != graph.references(NodeId::from_index(i)) {
                return Err(format!(
                    "graph adjacency of paper {i} does not match its reference list"
                ));
            }
        }
        // A document for every paper id, and no other.
        if let Some(doc) = (0..papers.len() as u32).find(|&d| index.doc_stats(d).is_none()) {
            return Err(format!("text index has no document for paper {doc}"));
        }
        if index.doc_count() != papers.len() {
            return Err(format!(
                "text index covers {} documents for {} papers",
                index.doc_count(),
                papers.len()
            ));
        }
        Ok(Corpus {
            papers,
            references,
            graph,
            index: Arc::new(index),
            topics,
            venues,
            survey_bank,
        })
    }

    /// Installs the SurveyBank benchmark produced by the dataset pipeline.
    pub fn set_survey_bank(&mut self, bank: SurveyBank) {
        self.survey_bank = bank;
    }

    /// Number of papers.
    pub fn len(&self) -> usize {
        self.papers.len()
    }

    /// Whether the corpus has no papers.
    pub fn is_empty(&self) -> bool {
        self.papers.is_empty()
    }

    /// All papers in id order.
    pub fn papers(&self) -> &[Paper] {
        &self.papers
    }

    /// Looks up a paper.
    pub fn paper(&self, id: PaperId) -> Option<&Paper> {
        self.papers.get(id.index())
    }

    /// The citation graph over all papers (node ids equal paper ids).
    pub fn graph(&self) -> &CitationGraph {
        &self.graph
    }

    /// The text index over every paper's title and abstract (document id =
    /// paper id), shared by everything that searches this corpus.
    pub fn text_index(&self) -> &Arc<InvertedIndex> {
        &self.index
    }

    /// The topic catalogue.
    pub fn topics(&self) -> &TopicCatalog {
        &self.topics
    }

    /// The venue table.
    pub fn venues(&self) -> &VenueTable {
        &self.venues
    }

    /// The SurveyBank benchmark (empty until the pipeline has run).
    pub fn survey_bank(&self) -> &SurveyBank {
        &self.survey_bank
    }

    /// The reference list (with occurrence counts) of a paper.
    pub fn references_of(&self, id: PaperId) -> &[Reference] {
        self.references
            .get(id.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The in-text occurrence count `con(citing, cited)`; 0 if `citing` does
    /// not reference `cited`.
    pub fn occurrences(&self, citing: PaperId, cited: PaperId) -> u8 {
        self.references_of(citing)
            .iter()
            .find(|r| r.cited == cited)
            .map(|r| r.occurrences)
            .unwrap_or(0)
    }

    /// The symmetric relevance count used by Eq. (2): how many times `a`
    /// mentions `b` or `b` mentions `a` (at most one direction is non-zero in
    /// a temporally consistent corpus).
    pub fn connection_strength(&self, a: PaperId, b: PaperId) -> u8 {
        self.occurrences(a, b).max(self.occurrences(b, a))
    }

    /// Number of papers citing `id` (its citation count in the corpus).
    pub fn citation_count(&self, id: PaperId) -> usize {
        self.graph.in_degree(id.node())
    }

    /// The venue score of a paper (Eq. 3's `venue(i)` term).
    pub fn venue_score(&self, id: PaperId) -> f64 {
        match self.paper(id) {
            Some(p) => self.venues.venue_score(p.venue),
            None => 0.0,
        }
    }

    /// Publication year of a paper (0 if unknown).
    pub fn year(&self, id: PaperId) -> u16 {
        self.paper(id).map(|p| p.year).unwrap_or(0)
    }

    /// Whether the paper is a survey.
    pub fn is_survey(&self, id: PaperId) -> bool {
        self.paper(id).map(Paper::is_survey).unwrap_or(false)
    }

    /// All survey papers (whether or not they survived the pipeline filters).
    pub fn survey_papers(&self) -> Vec<&Paper> {
        self.papers.iter().filter(|p| p.is_survey()).collect()
    }

    /// All research (non-survey) papers.
    pub fn research_papers(&self) -> Vec<&Paper> {
        self.papers.iter().filter(|p| !p.is_survey()).collect()
    }

    /// Iterates over `(paper, title + abstract)` pairs, the input to the
    /// search-engine indexes.
    pub fn indexable_documents(&self) -> impl Iterator<Item = (PaperId, String)> + '_ {
        self.papers.iter().map(|p| (p.id, p.indexed_text()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::PaperKind;
    use crate::venue::VenueTier;

    fn tiny_corpus() -> Corpus {
        let mut venues = VenueTable::new();
        let v = venues.add("Test venue", VenueTier::A, 0.8);
        let mut topics = TopicCatalog::new();
        let t = topics.add(
            "test topic",
            crate::topic::Domain::Theory,
            &["alpha", "beta"],
            &[],
            1.0,
        );
        let mk = |i: u32, year: u16, kind: PaperKind| Paper {
            id: PaperId(i),
            title: format!("paper {i} about alpha"),
            abstract_text: "alpha beta gamma".to_string(),
            year,
            venue: v,
            topic: t,
            kind,
            pages: 10,
            parse_ok: true,
        };
        let papers = vec![
            mk(0, 2000, PaperKind::Research),
            mk(1, 2005, PaperKind::Research),
            mk(2, 2010, PaperKind::Research),
            mk(3, 2015, PaperKind::Survey),
        ];
        let references = vec![
            vec![],
            vec![Reference {
                cited: PaperId(0),
                occurrences: 2,
            }],
            vec![
                Reference {
                    cited: PaperId(0),
                    occurrences: 1,
                },
                Reference {
                    cited: PaperId(1),
                    occurrences: 1,
                },
            ],
            vec![
                Reference {
                    cited: PaperId(0),
                    occurrences: 3,
                },
                Reference {
                    cited: PaperId(1),
                    occurrences: 2,
                },
                Reference {
                    cited: PaperId(2),
                    occurrences: 1,
                },
            ],
        ];
        Corpus::assemble(papers, references, topics, venues)
    }

    #[test]
    fn assembly_builds_matching_graph() {
        let c = tiny_corpus();
        assert_eq!(c.len(), 4);
        assert_eq!(c.graph().node_count(), 4);
        assert_eq!(c.graph().edge_count(), 6);
        assert!(c.graph().has_edge(NodeId(3), NodeId(2)));
        assert!(!c.graph().has_edge(NodeId(2), NodeId(3)));
    }

    #[test]
    fn occurrence_lookup_matches_reference_lists() {
        let c = tiny_corpus();
        assert_eq!(c.occurrences(PaperId(3), PaperId(0)), 3);
        assert_eq!(c.occurrences(PaperId(0), PaperId(3)), 0);
        assert_eq!(c.connection_strength(PaperId(0), PaperId(3)), 3);
        assert_eq!(c.connection_strength(PaperId(3), PaperId(0)), 3);
        assert_eq!(c.occurrences(PaperId(1), PaperId(2)), 0);
    }

    #[test]
    fn citation_counts_come_from_the_graph() {
        let c = tiny_corpus();
        assert_eq!(c.citation_count(PaperId(0)), 3);
        assert_eq!(c.citation_count(PaperId(3)), 0);
    }

    #[test]
    fn paper_classification_helpers() {
        let c = tiny_corpus();
        assert!(c.is_survey(PaperId(3)));
        assert!(!c.is_survey(PaperId(0)));
        assert_eq!(c.survey_papers().len(), 1);
        assert_eq!(c.research_papers().len(), 3);
        assert_eq!(c.year(PaperId(2)), 2010);
        assert_eq!(c.year(PaperId(99)), 0);
        assert!(c.venue_score(PaperId(0)) > 0.5);
        assert_eq!(c.venue_score(PaperId(99)), 0.0);
    }

    #[test]
    fn indexable_documents_cover_all_papers() {
        let c = tiny_corpus();
        let docs: Vec<_> = c.indexable_documents().collect();
        assert_eq!(docs.len(), 4);
        assert!(docs[0].1.contains("alpha"));
    }

    #[test]
    fn survey_bank_starts_empty_and_can_be_installed() {
        let mut c = tiny_corpus();
        assert!(c.survey_bank().is_empty());
        c.set_survey_bank(SurveyBank::default());
        assert!(c.survey_bank().is_empty());
    }

    #[test]
    fn from_parts_round_trips_an_assembled_corpus() {
        let c = tiny_corpus();
        let rebuilt = Corpus::from_parts(
            c.papers().to_vec(),
            (0..c.len())
                .map(|i| c.references_of(PaperId(i as u32)).to_vec())
                .collect(),
            c.graph().clone(),
            InvertedIndex::clone(c.text_index()),
            c.topics().clone(),
            c.venues().clone(),
            c.survey_bank().clone(),
        )
        .unwrap();
        assert_eq!(rebuilt.len(), c.len());
        assert_eq!(rebuilt.text_index().doc_count(), c.len());
        assert_eq!(rebuilt.graph().edge_count(), c.graph().edge_count());
        assert_eq!(rebuilt.occurrences(PaperId(3), PaperId(0)), 3);
        assert_eq!(rebuilt.citation_count(PaperId(0)), 3);
    }

    #[test]
    fn from_parts_rejects_inconsistent_parts() {
        let c = tiny_corpus();
        let refs: Vec<Vec<Reference>> = (0..c.len())
            .map(|i| c.references_of(PaperId(i as u32)).to_vec())
            .collect();
        let from_parts = |papers: Vec<Paper>, refs, graph, index| {
            Corpus::from_parts(
                papers,
                refs,
                graph,
                index,
                c.topics().clone(),
                c.venues().clone(),
                c.survey_bank().clone(),
            )
        };
        let index = || InvertedIndex::clone(c.text_index());

        // Wrong number of reference lists.
        assert!(from_parts(c.papers().to_vec(), vec![], c.graph().clone(), index()).is_err());

        // Graph node count disagrees with the paper count.
        assert!(from_parts(
            c.papers().to_vec(),
            refs.clone(),
            CitationGraph::empty(1),
            index()
        )
        .is_err());

        // Non-dense paper ids.
        let mut papers = c.papers().to_vec();
        papers[0].id = PaperId(9);
        assert!(from_parts(papers, refs.clone(), c.graph().clone(), index()).is_err());

        // Reference list that disagrees with the graph adjacency.
        let mut broken = refs.clone();
        broken[0].push(Reference {
            cited: PaperId(1),
            occurrences: 1,
        });
        assert!(from_parts(c.papers().to_vec(), broken, c.graph().clone(), index()).is_err());

        // Text index missing a paper, or holding one too many.
        let short = text_index(&c.papers()[1..]);
        let err = from_parts(c.papers().to_vec(), refs.clone(), c.graph().clone(), short);
        assert_eq!(err.unwrap_err(), "text index has no document for paper 0");
        let mut long = index();
        long.add_document(c.len() as u32, "extra", "");
        let err = from_parts(c.papers().to_vec(), refs, c.graph().clone(), long);
        assert_eq!(
            err.unwrap_err(),
            "text index covers 5 documents for 4 papers"
        );
    }

    #[test]
    #[should_panic(expected = "one reference list per paper")]
    fn mismatched_reference_lists_panic() {
        let c = tiny_corpus();
        let papers = c.papers().to_vec();
        let _ = Corpus::assemble(papers, vec![], TopicCatalog::new(), VenueTable::new());
    }
}
