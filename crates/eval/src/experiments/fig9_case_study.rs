//! Fig. 9 — the qualitative case study.
//!
//! The paper shows the reading path generated for the query "pretrained
//! language model": a tree whose nodes include prerequisite papers
//! (attention, contextualised word representations, ...) that never appear in
//! the engine's top-30 list, demonstrating the "how to understand" property.
//! This module regenerates that artefact for a dense topic of the synthetic
//! corpus and reports how many path papers came from outside the engine's
//! results (the green nodes of Fig. 9).

use crate::experiments::ExperimentContext;
use rpg_corpus::PaperId;
use rpg_engines::Query;
use rpg_repager::render::{output_to_text, path_to_dot};
use rpg_repager::system::PathRequest;
use rpg_repager::{RepagerConfig, Variant};
use rpg_service::with_thread_scratch;
use serde::{Deserialize, Serialize};

/// The Fig. 9 report.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CaseStudyReport {
    /// The query used.
    pub query: String,
    /// Papers on the generated reading path, in reading order.
    pub path_papers: Vec<PaperId>,
    /// Path papers that were *not* in the engine's top-30 list (Fig. 9's
    /// green nodes — the prerequisite papers only the citation graph finds).
    pub discovered_papers: Vec<PaperId>,
    /// Titles of the discovered papers (for the narrative).
    pub discovered_titles: Vec<String>,
    /// Text rendering of the full output (diagnostics + navigation list).
    pub rendered_text: String,
    /// Graphviz DOT rendering of the reading path.
    pub rendered_dot: String,
}

/// Picks the case-study query: the evaluation survey whose topic has the most
/// prerequisite topics (the densest chain), preferring the "pretrained
/// language models" topic when present — the same query as the paper's
/// figure.
pub fn pick_query(ctx: &ExperimentContext<'_>) -> Option<String> {
    let corpus = ctx.corpus;
    let preferred = ctx.set.surveys.iter().find(|s| {
        corpus
            .paper(s.paper)
            .and_then(|p| corpus.topics().get(p.topic))
            .map(|t| t.name == "pretrained language models")
            .unwrap_or(false)
    });
    if let Some(s) = preferred {
        return Some(s.query.clone());
    }
    ctx.set
        .surveys
        .iter()
        .max_by_key(|s| {
            corpus
                .paper(s.paper)
                .map(|p| corpus.topics().prerequisite_closure(p.topic).len())
                .unwrap_or(0)
        })
        .map(|s| s.query.clone())
}

/// Runs the case study for the given query (or the automatically chosen one).
pub fn run(ctx: &ExperimentContext<'_>, query: Option<&str>) -> CaseStudyReport {
    let query = match query {
        Some(q) => q.to_string(),
        None => match pick_query(ctx) {
            Some(q) => q,
            None => return CaseStudyReport::default(),
        },
    };
    let request = PathRequest {
        query: &query,
        top_k: 30,
        max_year: None,
        exclude: &[],
        config: RepagerConfig::default(),
        variant: Variant::Newst,
    };
    let Ok(output) = with_thread_scratch(|scratch| ctx.system.generate(&request, scratch)) else {
        return CaseStudyReport {
            query,
            ..Default::default()
        };
    };

    let engine_top: Vec<PaperId> = ctx.system.scholar().seed_papers(&Query {
        text: &query,
        top_k: 30,
        max_year: None,
        exclude: &[],
    });
    let discovered: Vec<PaperId> = output
        .path
        .order
        .iter()
        .copied()
        .filter(|p| !engine_top.contains(p))
        .collect();
    let discovered_titles = discovered
        .iter()
        .filter_map(|&p| ctx.corpus.paper(p).map(|x| x.title.clone()))
        .collect();

    CaseStudyReport {
        query,
        path_papers: output.path.order.clone(),
        discovered_papers: discovered,
        discovered_titles,
        rendered_text: output_to_text(ctx.corpus, &output),
        rendered_dot: path_to_dot(ctx.corpus, &output.path, &engine_top),
    }
}

/// Formats the case study as a narrative plus the rendered path.
pub fn format(report: &CaseStudyReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "=== Fig. 9 — reading path for \"{}\" ===\n",
        report.query
    ));
    out.push_str(&format!(
        "path papers: {}, of which {} are not in the engine's top-30 (prerequisite discoveries)\n",
        report.path_papers.len(),
        report.discovered_papers.len()
    ));
    for title in report.discovered_titles.iter().take(10) {
        out.push_str(&format!("  discovered: {title}\n"));
    }
    out.push('\n');
    out.push_str(&report.rendered_text);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_support::test_corpus;

    #[test]
    fn case_study_generates_a_path_with_discoveries() {
        let corpus = test_corpus();
        let ctx = ExperimentContext::new(&corpus, 10, 40, 2);
        let report = run(&ctx, None);
        assert!(!report.query.is_empty());
        assert!(
            !report.path_papers.is_empty(),
            "the case study produced no path"
        );
        // The headline property of Fig. 9: the path contains papers that the
        // engine's top list does not.
        assert!(
            !report.discovered_papers.is_empty(),
            "the reading path only contains engine results — no prerequisite discovery"
        );
        assert_eq!(
            report.discovered_papers.len(),
            report.discovered_titles.len()
        );
        assert!(report.rendered_dot.starts_with("digraph"));
        assert!(report.rendered_text.contains("reading path"));
    }

    #[test]
    fn explicit_query_is_respected() {
        let corpus = test_corpus();
        let ctx = ExperimentContext::new(&corpus, 10, 40, 2);
        let survey = &ctx.set.surveys[0];
        let report = run(&ctx, Some(&survey.query));
        assert_eq!(report.query, survey.query);
    }

    #[test]
    fn formatting_contains_query_and_discoveries() {
        let corpus = test_corpus();
        let ctx = ExperimentContext::new(&corpus, 10, 40, 2);
        let report = run(&ctx, None);
        let text = format(&report);
        assert!(text.contains(&report.query));
        assert!(text.contains("prerequisite discoveries"));
    }

    #[test]
    fn picked_query_prefers_deep_prerequisite_chains() {
        let corpus = test_corpus();
        let ctx = ExperimentContext::new(&corpus, 10, 40, 2);
        let query = pick_query(&ctx).unwrap();
        assert!(!query.is_empty());
    }
}
