//! RePaGer: the Reading Path Generation system (the paper's core
//! contribution).
//!
//! Given a query (key phrases), RePaGer produces a *reading path*: a tree of
//! papers connected by citation relationships, covering both the papers
//! directly relevant to the query and the prerequisite papers needed to
//! understand them, with a reading order from prerequisites to follow-ups.
//! The five stages (Section IV-A of the paper) map to the modules of this
//! crate:
//!
//! 1. **Initial seed nodes** — top-K papers from the (simulated) Google
//!    Scholar engine ([`seeds`]).
//! 2. **Weighted citation graph** — node weights from PageRank + venue score
//!    (Eq. 3) and edge costs from in-text citation counts (Eq. 2)
//!    ([`weights`]).
//! 3. **Sub-citation graph** — the graph induced by the 1st/2nd-order
//!    citation neighbours of the seeds ([`subgraph`]).
//! 4. **Seed reallocation** — papers co-cited by many initial seeds become
//!    the compulsory terminals ([`seeds`]).
//! 5. **NEWST** — a node-edge weighted Steiner tree over the sub-graph
//!    connects the terminals at minimum cost; the tree, ordered by citation
//!    direction and publication year, is the reading path ([`newst`],
//!    [`path`]).
//!
//! [`CorpusArtifacts::generate`] wires the stages together over a corpus's
//! shared artifacts; [`variants`] exposes the ablation variants of Table
//! III; [`render`] produces the textual / DOT artefacts that stand in for the
//! web UI of Section V.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod artifacts;
pub mod config;
pub mod newst;
pub mod path;
pub mod render;
pub mod scratch;
pub mod seeds;
pub mod semantic;
pub mod stages;
pub mod stats;
pub mod subgraph;
pub mod system;
pub mod variants;
pub mod weights;

pub use artifacts::CorpusArtifacts;
pub use config::{ConfigError, RepagerConfig};
pub use path::ReadingPath;
pub use scratch::PipelineScratch;
pub use stages::{Stage, StageContext, StageCounters, StageTimings};
pub use stats::TimingAggregate;
pub use system::{RepagerError, RepagerOutput};
pub use variants::Variant;
