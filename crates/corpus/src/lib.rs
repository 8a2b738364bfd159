//! Synthetic scholarly corpus and SurveyBank benchmark for the Reading Path
//! Generation reproduction.
//!
//! The paper evaluates on **SurveyBank**: 9,321 computer-science surveys plus
//! a 6-million-paper citation graph extracted from S2ORC.  Neither resource
//! is available offline, so this crate generates a synthetic corpus with the
//! same structural properties (see DESIGN.md for the substitution argument):
//!
//! * [`generator`] — deterministic corpus generation: topics with
//!   prerequisite chains, venues with tiers, papers with titles/abstracts
//!   built from topic vocabulary, temporally consistent citations with
//!   preferential attachment, surveys with occurrence-count-stratified
//!   reference lists.
//! * [`pipeline`] — the SurveyBank dataset-construction pipeline of Fig. 3
//!   (collection → deduplication → filtering → processing), producing the
//!   [`survey::SurveyBank`] benchmark.
//! * [`store`] — the assembled [`Corpus`]: papers, per-edge in-text
//!   occurrence counts, the citation graph, the text index over titles and
//!   abstracts, and the benchmark.
//! * [`stats`] — the statistics of Fig. 4 and Table I.
//!
//! Everything is deterministic given a [`generator::CorpusConfig`] seed, so
//! experiments are reproducible bit-for-bit.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod citation;
pub mod generator;
pub mod paper;
pub mod pipeline;
pub mod stats;
pub mod store;
pub mod survey;
pub mod topic;
pub mod venue;

pub use generator::{generate, CorpusConfig};
pub use paper::{Paper, PaperId, PaperKind};
pub use store::Corpus;
pub use survey::{LabelLevel, Survey, SurveyBank, SurveyReference};
pub use topic::{Domain, TopicCatalog, TopicId};
pub use venue::{VenueId, VenueTable, VenueTier};
