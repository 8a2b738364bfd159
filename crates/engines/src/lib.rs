//! Simulated academic search engines and retrieval baselines.
//!
//! The paper compares RePaGer/NEWST against five retrieval baselines
//! (Section VI-A):
//!
//! * **Google Scholar**, **Microsoft Academic**, **AMiner** — keyword search
//!   engines whose top-K results form the comparison lists (and, for Google
//!   Scholar, the initial seed papers of the RePaGer pipeline).  These are
//!   simulated here as lexical retrieval engines over the synthetic corpus,
//!   each with its own ranking idiosyncrasy ([`scholar`], [`msacademic`],
//!   [`aminer`]).
//! * **PageRank** — expand the Scholar seeds to their citation neighbours and
//!   re-rank everything by global PageRank ([`pagerank_baseline`]).
//! * **SciBERT** — expand the seeds and re-rank by semantic similarity
//!   between the query and each paper's title/abstract; reproduced by the
//!   hashed-embedding matcher in [`semantic`] (see the README's "Stand-ins
//!   for the paper's data and services" section for the substitution
//!   rationale).
//!
//! All methods implement the [`SearchEngine`] trait so the evaluation harness
//! can treat them uniformly.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod aminer;
pub mod engine;
pub mod msacademic;
pub mod pagerank_baseline;
pub mod scholar;
pub mod semantic;

pub use aminer::AminerEngine;
pub use engine::{EngineIndex, LexicalConfig, LexicalEngine, Query, SearchEngine};
pub use msacademic::MsAcademicEngine;
pub use pagerank_baseline::PageRankBaseline;
pub use scholar::ScholarEngine;
pub use semantic::SemanticMatcher;
