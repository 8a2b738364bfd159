//! Table V — the human evaluation, reproduced with proxy judges.
//!
//! The paper's study: 20 queries each from two domains (Artificial
//! Intelligence and Data Mining), 8 evaluators per domain, each comparing the
//! Google Scholar top list (system A) with the RePaGer reading path (system
//! B) on three criteria.  The reproduction replaces the evaluators with the
//! deterministic judge panel of [`crate::human_proxy`] (see
//! the README's "Stand-ins for the paper's data and services" section) and
//! keeps everything else: the same two domains, the same three criteria, and
//! the same preference-share report.

use crate::experiments::ExperimentContext;
use crate::human_proxy::{aggregate, criterion_score, Criterion, JudgePanel, PreferenceShares};
use crate::report::{fmt_pct, format_table};
use rpg_corpus::{Domain, Survey};
use rpg_engines::{Query, ScholarEngine, SearchEngine};
use rpg_repager::system::PathRequest;
use rpg_repager::{RepagerConfig, Variant};
use rpg_service::with_thread_scratch;
use serde::{Deserialize, Serialize};

/// The preference shares of one domain and criterion.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DomainCriterionRow {
    /// Domain name (as in Table V).
    pub domain: String,
    /// Criterion name.
    pub criterion: String,
    /// Aggregated preferences (A = Google Scholar, B = NEWST).
    pub shares: PreferenceShares,
}

/// The Table V report.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Table5Report {
    /// One row per (domain, criterion).
    pub rows: Vec<DomainCriterionRow>,
    /// Number of queries evaluated per domain.
    pub queries_per_domain: Vec<(String, usize)>,
}

fn surveys_of_domain<'a>(
    ctx: &'a ExperimentContext<'_>,
    domain: Domain,
    limit: usize,
) -> Vec<&'a Survey> {
    ctx.set
        .surveys
        .iter()
        .filter(|s| {
            ctx.corpus
                .paper(s.paper)
                .and_then(|p| ctx.corpus.topics().get(p.topic))
                .map(|t| t.domain == domain)
                .unwrap_or(false)
        })
        .take(limit)
        .collect()
}

/// Runs the proxy human evaluation for the two Table V domains.
pub fn run(
    ctx: &ExperimentContext<'_>,
    queries_per_domain: usize,
    list_length: usize,
) -> Table5Report {
    let domains = [
        ("AI", Domain::ArtificialIntelligence),
        ("DM", Domain::DatabaseDataMiningIr),
    ];
    let panel = JudgePanel::paper_default();
    let scholar = ScholarEngine::from_index(ctx.system.index().clone());

    let mut rows = Vec::new();
    let mut per_domain_counts = Vec::new();
    for (label, domain) in domains {
        let surveys = surveys_of_domain(ctx, domain, queries_per_domain);
        per_domain_counts.push((label.to_string(), surveys.len()));
        // Both lists of a survey are the same for every criterion, so each is
        // computed once and scored three times.
        let mut compared = Vec::new();
        for survey in surveys {
            let exclude = [survey.paper];
            // System A: the engine's flat top list.
            let list_a = scholar.search(&Query {
                text: &survey.query,
                top_k: list_length,
                max_year: Some(survey.year),
                exclude: &exclude,
            });
            // System B: the NEWST reading list.
            let request = PathRequest {
                query: &survey.query,
                top_k: list_length,
                max_year: Some(survey.year),
                exclude: &exclude,
                config: RepagerConfig::default(),
                variant: Variant::Newst,
            };
            let list_b = with_thread_scratch(|scratch| ctx.system.generate(&request, scratch))
                .map(|output| output.reading_list)
                .unwrap_or_default();
            if !(list_a.is_empty() && list_b.is_empty()) {
                compared.push((survey, list_a, list_b));
            }
        }
        for criterion in Criterion::ALL {
            let mut verdicts = Vec::new();
            for (survey, list_a, list_b) in &compared {
                let score_a = criterion_score(ctx.corpus, survey, list_a, criterion);
                let score_b = criterion_score(ctx.corpus, survey, list_b, criterion);
                verdicts.extend(panel.vote(score_a, score_b));
            }
            rows.push(DomainCriterionRow {
                domain: label.to_string(),
                criterion: criterion.name().to_string(),
                shares: aggregate(&verdicts),
            });
        }
    }
    Table5Report {
        rows,
        queries_per_domain: per_domain_counts,
    }
}

/// Formats the report in the layout of Table V.
pub fn format(report: &Table5Report) -> String {
    let rows: Vec<Vec<String>> = report
        .rows
        .iter()
        .map(|r| {
            vec![
                r.domain.clone(),
                r.criterion.clone(),
                fmt_pct(r.shares.prefer_a),
                fmt_pct(r.shares.same),
                fmt_pct(r.shares.prefer_b),
            ]
        })
        .collect();
    let mut out = format_table(
        "Table V — human evaluation proxy (A = Google Scholar, B = NEWST)",
        &[
            "Domain",
            "Criterion",
            "Prefer A (%)",
            "Same (%)",
            "Prefer B (%)",
        ],
        &rows,
    );
    for (domain, count) in &report.queries_per_domain {
        out.push_str(&format!("{domain}: {count} queries\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_support::test_corpus;

    fn report() -> Table5Report {
        let corpus = test_corpus();
        let ctx = ExperimentContext::new(&corpus, 10, 40, 2);
        run(&ctx, 4, 30)
    }

    #[test]
    fn report_covers_both_domains_and_all_criteria() {
        let r = report();
        assert_eq!(r.rows.len(), 6, "2 domains x 3 criteria");
        for row in &r.rows {
            let total = row.shares.prefer_a + row.shares.same + row.shares.prefer_b;
            assert!(
                total == 0.0 || (total - 1.0).abs() < 1e-9,
                "shares must sum to 1: {row:?}"
            );
        }
        assert_eq!(r.queries_per_domain.len(), 2);
    }

    #[test]
    fn newst_wins_the_prerequisite_criterion() {
        // The paper's strongest result: on "prerequisite", nobody prefers the
        // flat engine list.  Require at least a clear advantage for NEWST.
        let r = report();
        let prereq_rows: Vec<_> = r
            .rows
            .iter()
            .filter(|row| row.criterion == "Prerequisite")
            .collect();
        assert!(!prereq_rows.is_empty());
        let b: f64 =
            prereq_rows.iter().map(|r| r.shares.prefer_b).sum::<f64>() / prereq_rows.len() as f64;
        let a: f64 =
            prereq_rows.iter().map(|r| r.shares.prefer_a).sum::<f64>() / prereq_rows.len() as f64;
        assert!(
            b >= a,
            "NEWST should win the prerequisite criterion (B={b:.2} vs A={a:.2})"
        );
    }

    #[test]
    fn formatting_contains_domains_and_criteria() {
        let r = report();
        let text = format(&r);
        assert!(text.contains("Table V"));
        assert!(text.contains("AI"));
        assert!(text.contains("DM"));
        assert!(text.contains("Prerequisite"));
        assert!(text.contains("Completeness"));
        assert!(text.contains("queries"));
    }

    #[test]
    fn proxy_evaluation_is_deterministic() {
        let corpus = test_corpus();
        let ctx = ExperimentContext::new(&corpus, 10, 40, 2);
        let a = run(&ctx, 3, 20);
        let b = run(&ctx, 3, 20);
        assert_eq!(a, b);
    }
}
