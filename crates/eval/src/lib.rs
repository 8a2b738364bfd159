//! Evaluation harness for the Reading Path Generation reproduction.
//!
//! The paper evaluates RePaGer/NEWST on SurveyBank with overlap metrics
//! (P@K, F1@K) against five baselines, ablations, a runtime study, and a
//! human evaluation.  This crate provides:
//!
//! * [`metrics`] — precision, recall, F1 and overlap-ratio computations;
//! * [`benchmark`] — the per-survey evaluation loop, the [`benchmark::ListMethod`]
//!   abstraction that unifies search engines and NEWST variants, and the
//!   evaluation-set selection;
//! * [`human_proxy`] — programmatic judges standing in for the 16 human
//!   evaluators of Table V (see the README's "Stand-ins for the paper's
//!   data and services" section);
//! * [`report`] — small helpers for printing paper-style tables and series;
//! * [`experiments`] — one module per table/figure of the evaluation section,
//!   each with a `run` function returning a serialisable report and a
//!   formatter that prints the same rows/series the paper reports.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod benchmark;
pub mod experiments;
pub mod human_proxy;
pub mod metrics;
pub mod report;

pub use benchmark::{EvaluationSet, ListMethod, MethodScores};
pub use metrics::{f1_score, overlap_ratio, precision, recall, OverlapMetrics};
