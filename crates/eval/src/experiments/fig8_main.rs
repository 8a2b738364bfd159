//! Fig. 8 — the main comparison: F1@K and P@K of NEWST against the five
//! baselines, for K from 20 to 50 and the three ground-truth levels.

use crate::benchmark::{collect_lists, EngineMethod, ListMethod, MethodLists, RepagerMethod};
use crate::experiments::ExperimentContext;
use crate::report::format_series;
use rpg_corpus::LabelLevel;
use rpg_engines::{
    AminerEngine, MsAcademicEngine, PageRankBaseline, ScholarEngine, SemanticMatcher,
};
use serde::{Deserialize, Serialize};

/// Scores of one method at one K for one label level.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PointScore {
    /// The K (number of recommended papers).
    pub k: usize,
    /// Mean F1@K.
    pub f1: f64,
    /// Mean P@K.
    pub precision: f64,
}

/// The curve of one method for one label level.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MethodCurve {
    /// Method display name.
    pub method: String,
    /// One point per evaluated K.
    pub points: Vec<PointScore>,
}

/// The Fig. 8 report: per label level, one curve per method.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Fig8Report {
    /// `curves[level_index]` holds the curves for L1/L2/L3.
    pub levels: Vec<(String, Vec<MethodCurve>)>,
    /// The K values evaluated.
    pub ks: Vec<usize>,
    /// Number of surveys evaluated.
    pub surveys_evaluated: usize,
}

impl Fig8Report {
    /// The curve of a method at a level, if present.
    pub fn curve(&self, level: LabelLevel, method: &str) -> Option<&MethodCurve> {
        self.levels
            .iter()
            .find(|(name, _)| name == level.name())
            .and_then(|(_, curves)| curves.iter().find(|c| c.method == method))
    }
}

/// Runs the main comparison for the given K values (the paper sweeps 20–50 in
/// steps of 5).
pub fn run(ctx: &ExperimentContext<'_>, ks: &[usize]) -> Fig8Report {
    let max_k = ks.iter().copied().max().unwrap_or(50);
    let corpus = ctx.corpus;

    // Build every method once, sharing the lexical index.
    let scholar = EngineMethod::new(ScholarEngine::from_index(ctx.system.index().clone()));
    let msacademic = EngineMethod::new(MsAcademicEngine::from_index(ctx.system.index().clone()));
    let aminer = EngineMethod::new(AminerEngine::from_index(ctx.system.index().clone()));
    let pagerank = EngineMethod::new(PageRankBaseline::build(
        corpus,
        ScholarEngine::from_index(ctx.system.index().clone()),
    ));
    let scibert = EngineMethod::new(SemanticMatcher::build(
        corpus,
        ScholarEngine::from_index(ctx.system.index().clone()),
    ));
    let newst = RepagerMethod::newst(&ctx.system);

    let methods: Vec<&dyn ListMethod> =
        vec![&newst, &scholar, &msacademic, &aminer, &pagerank, &scibert];

    let all_lists: Vec<MethodLists> = methods
        .iter()
        .map(|m| collect_lists(corpus, &ctx.set, *m, max_k, ctx.threads))
        .collect();

    let mut levels = Vec::with_capacity(LabelLevel::ALL.len());
    for level in LabelLevel::ALL {
        let curves = all_lists
            .iter()
            .map(|lists| MethodCurve {
                method: lists.method.clone(),
                points: ks
                    .iter()
                    .map(|&k| {
                        let scores = lists.scores_at(&ctx.set, k, level);
                        PointScore {
                            k,
                            f1: scores.f1,
                            precision: scores.precision,
                        }
                    })
                    .collect(),
            })
            .collect();
        levels.push((level.name().to_string(), curves));
    }

    Fig8Report {
        levels,
        ks: ks.to_vec(),
        surveys_evaluated: ctx.set.len(),
    }
}

/// Formats the report as one F1 series and one precision series per level.
pub fn format(report: &Fig8Report) -> String {
    let mut out = String::new();
    for (level, curves) in &report.levels {
        let f1_series: Vec<(String, Vec<(f64, f64)>)> = curves
            .iter()
            .map(|c| {
                (
                    c.method.clone(),
                    c.points.iter().map(|p| (p.k as f64, p.f1)).collect(),
                )
            })
            .collect();
        out.push_str(&format_series(
            &format!("Fig. 8 — F1 score, {level}"),
            "K",
            &f1_series,
        ));
        let p_series: Vec<(String, Vec<(f64, f64)>)> = curves
            .iter()
            .map(|c| {
                (
                    c.method.clone(),
                    c.points.iter().map(|p| (p.k as f64, p.precision)).collect(),
                )
            })
            .collect();
        out.push_str(&format_series(
            &format!("Fig. 8 — Precision, {level}"),
            "K",
            &p_series,
        ));
    }
    out.push_str(&format!(
        "(averaged over {} surveys)\n",
        report.surveys_evaluated
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::test_support::test_corpus;

    fn small_report() -> (Fig8Report, usize) {
        let corpus = test_corpus();
        let ctx = ExperimentContext::for_tests(&corpus);
        let surveys = ctx.set.len();
        (run(&ctx, &[20, 30]), surveys)
    }

    #[test]
    fn report_covers_all_methods_levels_and_ks() {
        let (report, surveys) = small_report();
        assert_eq!(report.levels.len(), 3);
        assert_eq!(report.surveys_evaluated, surveys);
        for (_, curves) in &report.levels {
            assert_eq!(curves.len(), 6, "expected six methods");
            for curve in curves {
                assert_eq!(curve.points.len(), 2);
                for p in &curve.points {
                    assert!((0.0..=1.0).contains(&p.f1));
                    assert!((0.0..=1.0).contains(&p.precision));
                }
            }
        }
    }

    #[test]
    fn newst_beats_the_pagerank_baseline() {
        // The paper's clearest ordering: PageRank is the worst method; NEWST
        // outperforms it by a wide margin.
        let (report, _) = small_report();
        let newst = report.curve(LabelLevel::AtLeastOne, "NEWST").unwrap();
        let pagerank = report.curve(LabelLevel::AtLeastOne, "PageRank").unwrap();
        let newst_mean: f64 =
            newst.points.iter().map(|p| p.f1).sum::<f64>() / newst.points.len() as f64;
        let pagerank_mean: f64 =
            pagerank.points.iter().map(|p| p.f1).sum::<f64>() / pagerank.points.len() as f64;
        assert!(
            newst_mean > pagerank_mean,
            "NEWST ({newst_mean:.4}) should beat PageRank ({pagerank_mean:.4})"
        );
    }

    #[test]
    fn newst_is_competitive_with_lexical_engines_at_large_k() {
        let (report, _) = small_report();
        let newst = report.curve(LabelLevel::AtLeastOne, "NEWST").unwrap();
        let at_30 = newst.points.iter().find(|p| p.k == 30).unwrap();
        // All engines at K=30:
        let mut any_engine_f1 = Vec::new();
        for method in [
            "Google Scholar (simulated)",
            "Microsoft Academic (simulated)",
            "AMiner (simulated)",
        ] {
            let curve = report.curve(LabelLevel::AtLeastOne, method).unwrap();
            any_engine_f1.push(curve.points.iter().find(|p| p.k == 30).unwrap().f1);
        }
        let best_engine = any_engine_f1.iter().copied().fold(0.0, f64::max);
        assert!(
            at_30.f1 >= best_engine * 0.8,
            "NEWST F1 {:.4} collapsed versus best engine {:.4}",
            at_30.f1,
            best_engine
        );
    }

    #[test]
    fn formatting_contains_every_method_once_per_metric_and_level() {
        let (report, _) = small_report();
        let text = format(&report);
        assert_eq!(text.matches("[NEWST]").count(), 6); // 3 levels x 2 metrics
        assert!(text.contains("Fig. 8 — F1 score"));
        assert!(text.contains("Fig. 8 — Precision"));
    }
}
