//! Table IV — running time of the RePaGer pipeline under different retrieval
//! cases.
//!
//! The paper reports, for three individual retrieval cases plus the test-set
//! average, the size of the constructed sub-citation graph (#nodes, #edges)
//! and the end-to-end running time, showing the method stays interactive
//! (around a minute on their corpus; much less here because the synthetic
//! corpus is smaller).

use crate::experiments::ExperimentContext;
use crate::report::format_table;
use rpg_repager::system::PathRequest;
use rpg_repager::{RepagerConfig, Variant};
use rpg_service::with_thread_scratch;
use serde::{Deserialize, Serialize};

/// One measured retrieval case.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuntimeCase {
    /// Query the case corresponds to.
    pub query: String,
    /// Sub-citation graph node count.
    pub nodes: usize,
    /// Sub-citation graph edge count.
    pub edges: usize,
    /// End-to-end generation time in milliseconds.
    pub millis: f64,
}

/// The Table IV report.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Table4Report {
    /// The representative individual cases (smallest, median, largest
    /// sub-graph among the measured queries).
    pub cases: Vec<RuntimeCase>,
    /// The average over every measured query.
    pub average: Option<RuntimeCase>,
}

/// Measures every survey of the evaluation set (up to `limit`) and reports
/// three representative cases plus the average.
pub fn run(ctx: &ExperimentContext<'_>, limit: usize) -> Table4Report {
    let mut measured: Vec<RuntimeCase> = Vec::new();
    for survey in ctx.set.surveys.iter().take(limit) {
        let exclude = [survey.paper];
        let request = PathRequest {
            query: &survey.query,
            top_k: 30,
            max_year: Some(survey.year),
            exclude: &exclude,
            config: RepagerConfig::default(),
            variant: Variant::Newst,
        };
        let Ok(output) = with_thread_scratch(|scratch| ctx.system.generate(&request, scratch))
        else {
            continue;
        };
        if output.reading_list.is_empty() {
            continue;
        }
        measured.push(RuntimeCase {
            query: survey.query.clone(),
            nodes: output.subgraph_nodes,
            edges: output.subgraph_edges,
            millis: output.timings.total.as_secs_f64() * 1000.0,
        });
    }
    if measured.is_empty() {
        return Table4Report::default();
    }

    measured.sort_by_key(|c| c.nodes);
    let representative_indices = [0, measured.len() / 2, measured.len() - 1];
    let mut cases = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for &i in &representative_indices {
        if seen.insert(i) {
            cases.push(measured[i].clone());
        }
    }

    let n = measured.len() as f64;
    let average = RuntimeCase {
        query: format!("average over {} queries", measured.len()),
        nodes: (measured.iter().map(|c| c.nodes).sum::<usize>() as f64 / n).round() as usize,
        edges: (measured.iter().map(|c| c.edges).sum::<usize>() as f64 / n).round() as usize,
        millis: measured.iter().map(|c| c.millis).sum::<f64>() / n,
    };

    Table4Report {
        cases,
        average: Some(average),
    }
}

/// Formats the report in the layout of Table IV.
pub fn format(report: &Table4Report) -> String {
    let mut rows: Vec<Vec<String>> = report
        .cases
        .iter()
        .enumerate()
        .map(|(i, c)| {
            vec![
                format!("Case {}", i + 1),
                c.nodes.to_string(),
                c.edges.to_string(),
                format!("{:.2}", c.millis),
            ]
        })
        .collect();
    if let Some(avg) = &report.average {
        rows.push(vec![
            "Avg. (test set)".to_string(),
            avg.nodes.to_string(),
            avg.edges.to_string(),
            format!("{:.2}", avg.millis),
        ]);
    }
    format_table(
        "Table IV — running time under different retrieval cases",
        &["Case", "#nodes", "#edges", "Time (ms)"],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_support::test_corpus;

    #[test]
    fn report_has_cases_and_average() {
        let corpus = test_corpus();
        let ctx = ExperimentContext::for_tests(&corpus);
        let report = run(&ctx, 5);
        assert!(!report.cases.is_empty());
        let avg = report.average.as_ref().expect("average present");
        assert!(avg.nodes > 0 && avg.edges > 0);
        assert!(avg.millis > 0.0);
        for c in &report.cases {
            assert!(c.nodes > 0);
            assert!(c.millis >= 0.0);
        }
    }

    #[test]
    fn cases_are_sorted_by_subgraph_size() {
        let corpus = test_corpus();
        let ctx = ExperimentContext::for_tests(&corpus);
        let report = run(&ctx, 6);
        for pair in report.cases.windows(2) {
            assert!(pair[0].nodes <= pair[1].nodes);
        }
    }

    #[test]
    fn generation_stays_interactive_on_the_synthetic_corpus() {
        // The paper reports ~1 minute on a 6M-paper corpus; on the small
        // synthetic corpus a query must stay well under a second.
        let corpus = test_corpus();
        let ctx = ExperimentContext::for_tests(&corpus);
        let report = run(&ctx, 3);
        if let Some(avg) = &report.average {
            assert!(
                avg.millis < 5_000.0,
                "average runtime {:.1}ms is implausibly slow",
                avg.millis
            );
        }
    }

    #[test]
    fn formatting_contains_every_row() {
        let corpus = test_corpus();
        let ctx = ExperimentContext::for_tests(&corpus);
        let report = run(&ctx, 4);
        let text = format(&report);
        assert!(text.contains("Table IV"));
        assert!(text.contains("Case 1"));
        assert!(text.contains("Avg. (test set)"));
        assert!(text.contains("#nodes"));
    }

    #[test]
    fn empty_measurement_produces_empty_report() {
        let corpus = test_corpus();
        let ctx = ExperimentContext::for_tests(&corpus);
        let report = run(&ctx, 0);
        assert!(report.cases.is_empty());
        assert!(report.average.is_none());
    }
}
